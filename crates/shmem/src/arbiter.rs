//! Parallel pseudopotential-gather simulation through the per-stack
//! communication arbiters.
//!
//! The sequential runtime in [`crate::api`] models one process's timeline.
//! The phase the paper actually optimizes — every NDP unit obtaining every
//! atom's pseudopotential block (Algorithm 1, lines 11–15) — is massively
//! parallel: all 16 stacks fetch concurrently and contend on the mesh.
//! This module replays that phase with per-stack timelines and reports the
//! traffic split and makespan for the hierarchical scheme versus the flat
//! ablation.

use crate::api::CommScheme;
use ndft_sim::config::SystemConfig;
use ndft_sim::noc::{MeshNoc, Topology};
use serde::{Deserialize, Serialize};

/// Outcome of one gather-phase simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GatherReport {
    /// Communication scheme simulated.
    pub scheme: CommScheme,
    /// Blocks in the gather (atoms).
    pub blocks: usize,
    /// Bytes that crossed stacks on the mesh.
    pub inter_stack_bytes: u64,
    /// Bytes served within stacks (SPM reads by the units).
    pub intra_stack_bytes: u64,
    /// Mesh messages sent.
    pub messages: u64,
    /// Wall-clock of the phase in seconds (max over stack timelines).
    pub makespan: f64,
}

/// Simulates the pseudopotential gather phase: `blocks` shared blocks of
/// `block_bytes` each, homed round-robin across stacks; every NDP unit of
/// every stack needs every block.
///
/// Under [`CommScheme::Hierarchical`], each stack's arbiter fetches each
/// remote block once and the stack's units read the local copy. Under
/// [`CommScheme::Flat`], every unit fetches every remote block itself.
///
/// # Examples
///
/// ```
/// use ndft_shmem::{simulate_block_gather, CommScheme};
/// use ndft_sim::SystemConfig;
///
/// let cfg = SystemConfig::paper_table3();
/// let hier = simulate_block_gather(&cfg, 64, 1 << 20, CommScheme::Hierarchical);
/// let flat = simulate_block_gather(&cfg, 64, 1 << 20, CommScheme::Flat);
/// // The arbiter filters ~8× of the mesh traffic (8 units per stack).
/// assert_eq!(flat.inter_stack_bytes, 8 * hier.inter_stack_bytes);
/// ```
pub fn simulate_block_gather(
    cfg: &SystemConfig,
    blocks: usize,
    block_bytes: u64,
    scheme: CommScheme,
) -> GatherReport {
    simulate_block_gather_on(cfg, blocks, block_bytes, scheme, Topology::Mesh)
}

/// [`simulate_block_gather`] on an explicit interconnect topology (the
/// mesh/torus/ring ablation).
pub fn simulate_block_gather_on(
    cfg: &SystemConfig,
    blocks: usize,
    block_bytes: u64,
    scheme: CommScheme,
    topology: Topology,
) -> GatherReport {
    let stacks = cfg.ndp.stacks;
    let units = cfg.ndp.units_per_stack;
    let mut noc = MeshNoc::with_topology(cfg.mesh, topology);
    let mesh_clock = cfg.mesh.clock_hz;
    // Each arbiter DMA double-buffers: up to `PIPELINE` fetches overlap.
    const PIPELINE: usize = 8;
    const REQ: u64 = 64;

    // Build each stack's fetch list, staggered so concurrent requesters
    // target different homes (the arbiters walk the block space from
    // different offsets — standard all-gather scheduling).
    let mut fetch_lists: Vec<Vec<usize>> = vec![Vec::new(); stacks];
    let mut inter_bytes = 0u64;
    let mut intra_bytes = 0u64;
    for (s, fetch_list) in fetch_lists.iter_mut().enumerate() {
        let offset = (s * blocks).checked_div(stacks).unwrap_or(0);
        for i in 0..blocks {
            let b = (offset + i) % blocks;
            let home = b % stacks;
            if home == s {
                intra_bytes += units as u64 * block_bytes;
                continue;
            }
            let fetches = match scheme {
                CommScheme::Hierarchical => 1,
                CommScheme::Flat => units,
            };
            for _ in 0..fetches {
                fetch_list.push(home);
            }
            intra_bytes += units as u64 * block_bytes;
        }
    }

    // Fair interleaved issue: each round, every stack issues its next
    // fetch, bounded by its pipeline window.
    let mut stack_issue = vec![0u64; stacks];
    let mut in_flight: Vec<Vec<u64>> = vec![Vec::new(); stacks];
    let mut stack_done = vec![0u64; stacks];
    let mut messages = 0u64;
    let rounds = fetch_lists.iter().map(Vec::len).max().unwrap_or(0);
    for round in 0..rounds {
        for s in 0..stacks {
            let Some(&home) = fetch_lists[s].get(round) else {
                continue;
            };
            if in_flight[s].len() >= PIPELINE {
                let free_at = in_flight[s].iter().copied().min().unwrap_or(0);
                let idx = in_flight[s]
                    .iter()
                    .position(|&c| c == free_at)
                    .expect("min exists");
                in_flight[s].swap_remove(idx);
                stack_issue[s] = stack_issue[s].max(free_at);
            }
            let req = noc.transfer(s, home, REQ, stack_issue[s]);
            let resp = noc.transfer(home, s, block_bytes, req.done);
            in_flight[s].push(resp.done);
            stack_done[s] = stack_done[s].max(resp.done);
            inter_bytes += REQ + block_bytes;
            messages += 2;
        }
    }
    let makespan_cycles = stack_done.iter().copied().max().unwrap_or(0);

    GatherReport {
        scheme,
        blocks,
        inter_stack_bytes: inter_bytes,
        intra_stack_bytes: intra_bytes,
        messages,
        makespan: makespan_cycles as f64 / mesh_clock,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::paper_table3()
    }

    #[test]
    fn hierarchical_traffic_is_one_per_stack_per_block() {
        let r = simulate_block_gather(&cfg(), 16, 1000, CommScheme::Hierarchical);
        // 16 blocks × 15 remote stacks × (1000 + 64).
        assert_eq!(r.inter_stack_bytes, 16 * 15 * 1064);
        assert_eq!(r.messages, 16 * 15 * 2);
    }

    #[test]
    fn flat_traffic_is_units_times_larger() {
        let h = simulate_block_gather(&cfg(), 16, 1000, CommScheme::Hierarchical);
        let f = simulate_block_gather(&cfg(), 16, 1000, CommScheme::Flat);
        assert_eq!(f.inter_stack_bytes, 8 * h.inter_stack_bytes);
    }

    #[test]
    fn makespan_grows_with_scheme_traffic() {
        let h = simulate_block_gather(&cfg(), 64, 1 << 20, CommScheme::Hierarchical);
        let f = simulate_block_gather(&cfg(), 64, 1 << 20, CommScheme::Flat);
        assert!(
            f.makespan > 2.0 * h.makespan,
            "flat {} vs hier {}",
            f.makespan,
            h.makespan
        );
    }

    #[test]
    fn intra_bytes_identical_across_schemes() {
        let h = simulate_block_gather(&cfg(), 32, 4096, CommScheme::Hierarchical);
        let f = simulate_block_gather(&cfg(), 32, 4096, CommScheme::Flat);
        assert_eq!(h.intra_stack_bytes, f.intra_stack_bytes);
    }

    #[test]
    fn zero_blocks_is_empty_report() {
        let r = simulate_block_gather(&cfg(), 0, 4096, CommScheme::Hierarchical);
        assert_eq!(r.inter_stack_bytes, 0);
        assert_eq!(r.makespan, 0.0);
    }

    #[test]
    fn makespan_is_positive_and_finite() {
        let r = simulate_block_gather(&cfg(), 128, 1 << 20, CommScheme::Hierarchical);
        assert!(r.makespan > 0.0 && r.makespan.is_finite());
    }

    #[test]
    fn torus_gathers_faster_than_mesh_faster_than_ring() {
        let run = |t: Topology| {
            simulate_block_gather_on(&cfg(), 64, 1 << 20, CommScheme::Hierarchical, t).makespan
        };
        let mesh = run(Topology::Mesh);
        let torus = run(Topology::Torus);
        let ring = run(Topology::Ring);
        assert!(torus < mesh, "torus {torus} vs mesh {mesh}");
        assert!(mesh < ring, "mesh {mesh} vs ring {ring}");
    }

    #[test]
    fn topology_does_not_change_traffic_volume() {
        let mesh =
            simulate_block_gather_on(&cfg(), 32, 4096, CommScheme::Hierarchical, Topology::Mesh);
        let ring =
            simulate_block_gather_on(&cfg(), 32, 4096, CommScheme::Hierarchical, Topology::Ring);
        assert_eq!(mesh.inter_stack_bytes, ring.inter_stack_bytes);
        assert_eq!(mesh.messages, ring.messages);
    }

    #[test]
    fn gather_makespan_bits_are_pinned() {
        // Makespans on every scheme × topology, pinned bit for bit: the
        // gather's modeled time feeds the machine models' calibration,
        // so a NoC change must not move it in the last place.
        let pinned: [(CommScheme, Topology, [u64; 5]); 6] = [
            (
                CommScheme::Hierarchical,
                Topology::Mesh,
                [
                    0x0000000000000000,
                    0x3f1354a424c0874d,
                    0x3f2c326e44dfb692,
                    0x3f585eb6f82cd57f,
                    0x3f86b1136f03d508,
                ],
            ),
            (
                CommScheme::Hierarchical,
                Topology::Torus,
                [
                    0x0000000000000000,
                    0x3f09c624bcf8c44c,
                    0x3f275de1ffdc3b21,
                    0x3f5776f111ea5208,
                    0x3f82d3fab5e09980,
                ],
            ),
            (
                CommScheme::Hierarchical,
                Topology::Ring,
                [
                    0x0000000000000000,
                    0x3f09c7266fab5e93,
                    0x3f3afc430fa7c661,
                    0x3f66aad259b22b94,
                    0x3f9187b43ee16739,
                ],
            ),
            (
                CommScheme::Flat,
                Topology::Mesh,
                [
                    0x0000000000000000,
                    0x3f4353e83d1e4c24,
                    0x3f58abf58925fb5f,
                    0x3f87fd2eea4e3cfa,
                    0x3fbb0d4bc7428e09,
                ],
            ),
            (
                CommScheme::Flat,
                Topology::Torus,
                [
                    0x0000000000000000,
                    0x3f39c5343852122d,
                    0x3f55a7414cfc5d08,
                    0x3f870486cd642168,
                    0x3fb5e916d61688bf,
                ],
            ),
            (
                CommScheme::Flat,
                Topology::Ring,
                [
                    0x0000000000000000,
                    0x3f39c5546ea86576,
                    0x3f6aa1360154faea,
                    0x3f9693af1ee6f5ee,
                    0x3fc1b1ed07aac439,
                ],
            ),
        ];
        for (scheme, topology, bits) in pinned {
            for (blocks, want) in [0usize, 1, 7, 64, 256].into_iter().zip(bits) {
                let r = simulate_block_gather_on(&cfg(), blocks, 3 << 16, scheme, topology);
                assert_eq!(
                    r.makespan.to_bits(),
                    want,
                    "{scheme:?} {topology:?} {blocks} blocks: {}",
                    r.makespan
                );
            }
        }
    }
}
