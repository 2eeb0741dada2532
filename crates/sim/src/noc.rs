//! Inter-stack mesh network-on-chip model.
//!
//! The paper's memory network is a 4×4 mesh of HBM stacks. Messages are
//! XY-routed; each directed link serializes payloads at
//! `link_bytes_per_cycle` and adds `hop_latency` cycles of router/link
//! delay per hop. Link occupancy is tracked so concurrent flows contend.
//!
//! Routing is table-driven. With `n` stacks, a `next_hop` table of `n²`
//! entries, filled once per topology, holds at `at * n + to` the next
//! stack on the route from `at` to `to`. The link table is a dense
//! `n²` array of next-free cycles, holding the link from `a` to its
//! neighbour `b` at `a * n + b`. A transfer walks its route hop by hop
//! through `next_hop`, so it neither allocates nor hashes.

use crate::config::MeshConfig;
use serde::{Deserialize, Serialize};

/// Interconnect topology connecting the stacks.
///
/// The paper's configuration is a 2-D mesh; ring and torus variants are
/// provided for the topology ablation (same link budget per hop, very
/// different bisection behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Topology {
    /// 2-D mesh, XY dimension-ordered routing (the paper's choice).
    #[default]
    Mesh,
    /// 2-D torus: mesh plus wrap-around links, shortest-direction routing
    /// per dimension.
    Torus,
    /// 1-D ring over all stacks, shortest direction.
    Ring,
}

/// Outcome of one message transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Cycle the message was injected.
    pub start: u64,
    /// Cycle the tail flit arrived at the destination.
    pub done: u64,
    /// Hops traversed.
    pub hops: u64,
}

impl Transfer {
    /// End-to-end latency in NoC cycles.
    pub fn latency(&self) -> u64 {
        self.done - self.start
    }
}

/// Aggregate NoC statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NocStats {
    /// Messages routed.
    pub messages: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Total hop count.
    pub hops: u64,
    /// Sum of end-to-end latencies (cycles).
    pub total_latency: u64,
}

/// The mesh NoC simulator.
///
/// # Examples
///
/// ```
/// use ndft_sim::config::SystemConfig;
/// use ndft_sim::noc::MeshNoc;
///
/// let mut noc = MeshNoc::new(SystemConfig::paper_table3().mesh);
/// let t = noc.transfer(0, 15, 4096, 0);
/// assert_eq!(t.hops, 6); // corner to corner of a 4×4 mesh
/// assert!(t.latency() > 6 * 3); // hop latency plus serialization
/// ```
#[derive(Debug, Clone)]
pub struct MeshNoc {
    cfg: MeshConfig,
    topology: Topology,
    /// Next-free cycle per directed link, indexed `from * stacks + to`
    /// (only neighbours' entries are ever touched).
    link_free: Vec<u64>,
    /// Next stack on the route from `at` to `to`, indexed
    /// `at * stacks + to` (`at` itself when `at == to`).
    next_hop: Vec<usize>,
    stats: NocStats,
}

impl MeshNoc {
    /// Creates an idle mesh (the paper's topology).
    pub fn new(cfg: MeshConfig) -> Self {
        MeshNoc::with_topology(cfg, Topology::Mesh)
    }

    /// Creates an idle interconnect with an explicit topology.
    pub fn with_topology(cfg: MeshConfig, topology: Topology) -> Self {
        let stacks = cfg.stacks();
        let next_hop = (0..stacks * stacks)
            .map(|i| next_hop(cfg, topology, i / stacks, i % stacks))
            .collect();
        MeshNoc {
            cfg,
            topology,
            link_free: vec![0; stacks * stacks],
            next_hop,
            stats: NocStats::default(),
        }
    }

    /// Active topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Mesh configuration.
    pub fn config(&self) -> MeshConfig {
        self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> NocStats {
        self.stats
    }

    /// Clears link occupancy and statistics.
    pub fn reset(&mut self) {
        self.link_free.fill(0);
        self.stats = NocStats::default();
    }

    /// Route between two stacks as a list of stack ids (topology-aware:
    /// XY for mesh, shortest-direction per dimension for torus, shortest
    /// arc for ring).
    ///
    /// # Panics
    ///
    /// Panics if either stack id is out of range.
    pub fn route(&self, from: usize, to: usize) -> Vec<usize> {
        let stacks = self.check(from, to);
        let mut path = vec![from];
        let mut at = from;
        while at != to {
            at = self.next_hop[at * stacks + to];
            path.push(at);
        }
        path
    }

    /// Sends `bytes` from stack `from` to stack `to`, injecting at cycle
    /// `start`. Returns the completion record; link state is updated so
    /// later transfers see the contention.
    ///
    /// Routing is wormhole-style: the head flit advances one hop per
    /// `hop_latency` while the body streams behind it, so a multi-hop
    /// message pays serialization once (on its slowest contended link),
    /// not once per hop.
    ///
    /// A zero-hop (local) transfer completes immediately at `start`.
    ///
    /// # Panics
    ///
    /// Panics if either stack id is out of range.
    pub fn transfer(&mut self, from: usize, to: usize, bytes: u64, start: u64) -> Transfer {
        let stacks = self.check(from, to);
        let ser = bytes.div_ceil(self.cfg.link_bytes_per_cycle as u64);
        // Head-flit arrival time at the current hop.
        let mut head = start;
        let mut done = start;
        let mut hops = 0;
        let mut at = from;
        while at != to {
            let next = self.next_hop[at * stacks + to];
            let free = &mut self.link_free[at * stacks + next];
            // The body occupies the link for `ser` cycles from when the
            // head wins arbitration.
            let begin = head.max(*free);
            *free = begin + ser;
            head = begin + self.cfg.hop_latency;
            done = begin + self.cfg.hop_latency + ser;
            hops += 1;
            at = next;
        }
        self.stats.messages += 1;
        self.stats.bytes += bytes;
        self.stats.hops += hops;
        self.stats.total_latency += done - start;
        Transfer { start, done, hops }
    }

    /// The stack count, after checking both ids are in range.
    fn check(&self, from: usize, to: usize) -> usize {
        let stacks = self.cfg.stacks();
        assert!(from < stacks && to < stacks, "stack id out of range");
        stacks
    }

    /// Broadcast from one stack to all others (naive unicast fan-out, the
    /// way a comm-arbiter would implement `NDFT_Broadcast` without
    /// hardware multicast). Returns the last completion.
    pub fn broadcast(&mut self, from: usize, bytes: u64, start: u64) -> Transfer {
        let mut worst = Transfer {
            start,
            done: start,
            hops: 0,
        };
        for to in 0..self.cfg.stacks() {
            if to == from {
                continue;
            }
            let t = self.transfer(from, to, bytes, start);
            if t.done > worst.done {
                worst = t;
            }
        }
        worst
    }

    /// Effective bandwidth of a bulk transfer in bytes/s, given the mesh
    /// clock.
    pub fn effective_bandwidth(&mut self, from: usize, to: usize, bytes: u64) -> f64 {
        self.reset();
        let t = self.transfer(from, to, bytes, 0);
        if t.done == t.start {
            return f64::INFINITY;
        }
        bytes as f64 / ((t.done - t.start) as f64 / self.cfg.clock_hz)
    }
}

/// The stack after `at` on the route to `to` (`at` itself when they are
/// equal): XY for mesh, shortest direction per dimension for torus, the
/// shortest arc for ring. Forward wins a tie. Each step depends only on
/// where the message is and where it goes, so following it from `from`
/// traces the whole route.
fn next_hop(cfg: MeshConfig, topology: Topology, at: usize, to: usize) -> usize {
    let w = cfg.width;
    let (x, y) = (at % w, at / w);
    let (tx, ty) = (to % w, to / w);
    match topology {
        Topology::Mesh if x != tx => y * w + if x < tx { x + 1 } else { x - 1 },
        Topology::Mesh if y != ty => (if y < ty { y + 1 } else { y - 1 }) * w + x,
        Topology::Torus if x != tx => y * w + wrap_step(x, tx, w),
        Topology::Torus if y != ty => wrap_step(y, ty, cfg.height) * w + x,
        Topology::Ring => wrap_step(at, to, cfg.stacks()),
        Topology::Mesh | Topology::Torus => at,
    }
}

/// One step from `cur` toward `target` on a cycle of `n`, the shorter
/// way round (forward on a tie).
fn wrap_step(cur: usize, target: usize, n: usize) -> usize {
    let fwd = (target + n - cur) % n;
    let back = (cur + n - target) % n;
    if fwd == 0 {
        cur
    } else if fwd <= back {
        (cur + 1) % n
    } else {
        (cur + n - 1) % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use std::collections::HashMap;

    fn mesh() -> MeshNoc {
        MeshNoc::new(SystemConfig::paper_table3().mesh)
    }

    /// The NoC as it was before the dense link table: a `HashMap` of
    /// directed links and a freshly built route `Vec` per transfer.
    /// [`MeshNoc`] must match it exactly, transfer for transfer.
    struct ReferenceNoc {
        cfg: MeshConfig,
        topology: Topology,
        link_free: HashMap<(usize, usize), u64>,
        stats: NocStats,
    }

    impl ReferenceNoc {
        fn new(cfg: MeshConfig, topology: Topology) -> Self {
            ReferenceNoc {
                cfg,
                topology,
                link_free: HashMap::new(),
                stats: NocStats::default(),
            }
        }

        fn reset(&mut self) {
            self.link_free.clear();
            self.stats = NocStats::default();
        }

        fn route(&self, from: usize, to: usize) -> Vec<usize> {
            let stacks = self.cfg.stacks();
            assert!(from < stacks && to < stacks, "stack id out of range");
            match self.topology {
                Topology::Mesh => self.route_mesh(from, to),
                Topology::Torus => self.route_torus(from, to),
                Topology::Ring => self.route_ring(from, to),
            }
        }

        fn route_mesh(&self, from: usize, to: usize) -> Vec<usize> {
            let w = self.cfg.width;
            let (mut x, mut y) = (from % w, from / w);
            let (tx, ty) = (to % w, to / w);
            let mut path = vec![from];
            while x != tx {
                x = if x < tx { x + 1 } else { x - 1 };
                path.push(y * w + x);
            }
            while y != ty {
                y = if y < ty { y + 1 } else { y - 1 };
                path.push(y * w + x);
            }
            path
        }

        fn route_torus(&self, from: usize, to: usize) -> Vec<usize> {
            let w = self.cfg.width;
            let h = self.cfg.height;
            let (mut x, mut y) = (from % w, from / w);
            let (tx, ty) = (to % w, to / w);
            let mut path = vec![from];
            let step_to = |cur: usize, target: usize, n: usize| -> isize {
                let fwd = (target + n - cur) % n;
                let back = (cur + n - target) % n;
                if fwd == 0 {
                    0
                } else if fwd <= back {
                    1
                } else {
                    -1
                }
            };
            while x != tx {
                let d = step_to(x, tx, w);
                x = ((x as isize + d).rem_euclid(w as isize)) as usize;
                path.push(y * w + x);
            }
            while y != ty {
                let d = step_to(y, ty, h);
                y = ((y as isize + d).rem_euclid(h as isize)) as usize;
                path.push(y * w + x);
            }
            path
        }

        fn route_ring(&self, from: usize, to: usize) -> Vec<usize> {
            let n = self.cfg.stacks();
            let fwd = (to + n - from) % n;
            let back = (from + n - to) % n;
            let step: isize = if fwd == 0 {
                0
            } else if fwd <= back {
                1
            } else {
                -1
            };
            let mut path = vec![from];
            let mut cur = from as isize;
            while cur as usize != to {
                cur = (cur + step).rem_euclid(n as isize);
                path.push(cur as usize);
            }
            path
        }

        fn transfer(&mut self, from: usize, to: usize, bytes: u64, start: u64) -> Transfer {
            let path = self.route(from, to);
            let hops = (path.len() - 1) as u64;
            let ser = bytes.div_ceil(self.cfg.link_bytes_per_cycle as u64);
            let mut head = start;
            let mut done = start;
            for pair in path.windows(2) {
                let free = self.link_free.entry((pair[0], pair[1])).or_insert(0);
                let begin = head.max(*free);
                *free = begin + ser;
                head = begin + self.cfg.hop_latency;
                done = begin + self.cfg.hop_latency + ser;
            }
            self.stats.messages += 1;
            self.stats.bytes += bytes;
            self.stats.hops += hops;
            self.stats.total_latency += done - start;
            Transfer { start, done, hops }
        }
    }

    /// The paper's 4×4 mesh plus shapes that exercise the routing edge
    /// cases: odd widths, a single column, and a 2×2 whose forward and
    /// backward directions tie on every wrap.
    fn shapes() -> Vec<MeshConfig> {
        let paper = SystemConfig::paper_table3().mesh;
        let shaped = |width, height| MeshConfig {
            width,
            height,
            ..paper
        };
        vec![
            paper,
            shaped(3, 5),
            shaped(1, 7),
            shaped(7, 1),
            shaped(2, 2),
        ]
    }

    #[test]
    fn table_routing_matches_the_reference_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for (i, cfg) in shapes().into_iter().enumerate() {
            for topo in [Topology::Mesh, Topology::Torus, Topology::Ring] {
                let mut noc = MeshNoc::with_topology(cfg, topo);
                let mut reference = ReferenceNoc::new(cfg, topo);
                let n = cfg.stacks();
                for from in 0..n {
                    for to in 0..n {
                        assert_eq!(noc.route(from, to), reference.route(from, to));
                    }
                }
                let mut rng = StdRng::seed_from_u64(0x40c + i as u64);
                let mut clock = 0u64;
                for step in 0..5_000 {
                    if step == 2_500 {
                        noc.reset();
                        reference.reset();
                    }
                    let from = rng.gen_range(0..n);
                    let to = rng.gen_range(0..n);
                    let bytes = match rng.gen_range(0..4u32) {
                        0 => 0,
                        1 => rng.gen_range(1..64u64),
                        _ => rng.gen_range(64..(1u64 << 18)),
                    };
                    // Mostly rising injection times with occasional
                    // back-dated ones, so links are both idle and busy.
                    clock += rng.gen_range(0..40u64);
                    let start = if rng.gen_range(0..8u32) == 0 {
                        clock / 2
                    } else {
                        clock
                    };
                    let got = noc.transfer(from, to, bytes, start);
                    let want = reference.transfer(from, to, bytes, start);
                    assert_eq!(got, want, "{cfg:?} {topo:?} step {step}");
                    assert_eq!(noc.stats(), reference.stats, "{topo:?} step {step}");
                }
            }
        }
    }

    #[test]
    fn route_is_manhattan_xy() {
        let noc = mesh();
        let p = noc.route(0, 15);
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&15));
        assert_eq!(p.len(), 7); // 6 hops
                                // X-first: 0 → 1 → 2 → 3 → 7 → 11 → 15
        assert_eq!(p, vec![0, 1, 2, 3, 7, 11, 15]);
    }

    #[test]
    fn local_transfer_is_free() {
        let mut noc = mesh();
        let t = noc.transfer(5, 5, 1 << 20, 100);
        assert_eq!(t.done, 100);
        assert_eq!(t.hops, 0);
    }

    #[test]
    fn farther_destinations_take_longer() {
        let mut noc = mesh();
        let near = noc.transfer(0, 1, 1024, 0).latency();
        noc.reset();
        let far = noc.transfer(0, 15, 1024, 0).latency();
        assert!(far > near);
    }

    #[test]
    fn contention_delays_second_flow() {
        let mut noc = mesh();
        let first = noc.transfer(0, 3, 1 << 16, 0);
        // Same path, same start: must queue behind the first message.
        let second = noc.transfer(0, 3, 1 << 16, 0);
        assert!(second.done > first.done);
    }

    #[test]
    fn disjoint_paths_do_not_contend() {
        let mut noc = mesh();
        let a = noc.transfer(0, 1, 1 << 16, 0);
        let b = noc.transfer(14, 15, 1 << 16, 0);
        assert_eq!(a.latency(), b.latency());
    }

    #[test]
    fn broadcast_reaches_all_and_is_bounded_by_farthest() {
        let mut noc = mesh();
        let t = noc.broadcast(0, 4096, 0);
        assert_eq!(noc.stats().messages, 15);
        assert!(t.hops >= 6);
    }

    #[test]
    fn bulk_bandwidth_approaches_link_rate() {
        let mut noc = mesh();
        // 1-hop bulk transfer: serialization dominates, so effective
        // bandwidth approaches link_bytes_per_cycle × clock = 32 GB/s.
        let bw = noc.effective_bandwidth(0, 1, 1 << 24);
        let link = 16.0 * 2.0e9;
        assert!(bw > 0.9 * link && bw <= link * 1.001, "bw = {bw:.3e}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_stack_panics() {
        let mut noc = mesh();
        let _ = noc.transfer(0, 16, 64, 0);
    }

    #[test]
    fn torus_wraps_around_edges() {
        let cfg = SystemConfig::paper_table3().mesh;
        let torus = MeshNoc::with_topology(cfg, Topology::Torus);
        // Stack 0 → stack 3 (same row): mesh needs 3 hops, torus wraps in 1.
        assert_eq!(torus.route(0, 3).len() - 1, 1);
        let mesh = MeshNoc::new(cfg);
        assert_eq!(mesh.route(0, 3).len() - 1, 3);
        // Corner to corner: torus 2 hops (wrap both dims), mesh 6.
        assert_eq!(torus.route(0, 15).len() - 1, 2);
    }

    #[test]
    fn ring_takes_shortest_arc() {
        let cfg = SystemConfig::paper_table3().mesh;
        let ring = MeshNoc::with_topology(cfg, Topology::Ring);
        assert_eq!(ring.route(0, 4).len() - 1, 4);
        // 0 → 13 backwards is 3 hops (16-stack ring).
        assert_eq!(ring.route(0, 13).len() - 1, 3);
    }

    #[test]
    fn routes_are_valid_paths_in_all_topologies() {
        let cfg = SystemConfig::paper_table3().mesh;
        for topo in [Topology::Mesh, Topology::Torus, Topology::Ring] {
            let noc = MeshNoc::with_topology(cfg, topo);
            for from in 0..16 {
                for to in 0..16 {
                    let path = noc.route(from, to);
                    assert_eq!(path.first(), Some(&from), "{topo:?}");
                    assert_eq!(path.last(), Some(&to), "{topo:?}");
                    assert!(path.len() <= 16, "{topo:?} path too long");
                }
            }
        }
    }

    #[test]
    fn torus_average_distance_beats_mesh() {
        let cfg = SystemConfig::paper_table3().mesh;
        let sum_hops = |topo: Topology| -> usize {
            let noc = MeshNoc::with_topology(cfg, topo);
            (0..16)
                .flat_map(|f| (0..16).map(move |t| (f, t)))
                .map(|(f, t)| noc.route(f, t).len() - 1)
                .sum()
        };
        assert!(sum_hops(Topology::Torus) < sum_hops(Topology::Mesh));
        assert!(sum_hops(Topology::Mesh) < sum_hops(Topology::Ring));
    }
}
