//! Trace-driven core timing model (the zsim-level core substrate).
//!
//! [`crate::engine::Calibration`] answers "what bandwidth does a pattern
//! sustain"; this module answers the companion microarchitectural
//! question: *how do the two core types of Table III actually spend their
//! cycles* on a given instruction mix. It models, per core:
//!
//! * a superscalar issue stage (`issue_width` ops/cycle),
//! * the data-cache stack (three levels on the host CPU, L1-only on the
//!   wimpy NDP cores),
//! * miss-status-holding registers bounding memory-level parallelism,
//! * an out-of-order window (instructions in flight past the oldest
//!   incomplete miss) — a window of 1 is an in-order, stall-on-use core,
//! * an optional next-line stream prefetcher (how in-order cores sustain
//!   streaming bandwidth), and
//! * a DRAM fill port with a latency and a bandwidth constraint.
//!
//! The output [`CoreReport`] splits cycles into issue time and memory
//! stall, which is exactly the evidence behind the paper's §III-A claim
//! that the LR-TDDFT kernels split into compute-bound and memory-bound
//! families with *different best cores*.
//!
//! ## Example
//!
//! ```
//! use ndft_sim::timing::{CoreModel, KernelTrace, MemPort};
//! use ndft_sim::{AccessPattern, SystemConfig};
//!
//! let sys = SystemConfig::paper_table3();
//! let port = MemPort { fill_latency_s: 60e-9, bandwidth_bps: 16.0e9 };
//! // A pointer-chasing mix: 1 flop per random access over 64 MiB.
//! let trace = KernelTrace::from_mix(
//!     4096,
//!     1.0,
//!     AccessPattern::Random { range_bytes: 64 << 20 },
//!     7,
//! );
//! let mut ooo = CoreModel::cpu_core(&sys.cpu, port);
//! let mut inorder = CoreModel::ndp_core(&sys.ndp, port);
//! let fast = ooo.run(&trace);
//! let slow = inorder.run(&trace);
//! // The OOO window hides miss latency that the in-order core eats.
//! assert!(fast.mem_stall_fraction() < slow.mem_stall_fraction());
//! ```

use crate::cache::{Cache, CacheStats};
use crate::config::{CacheConfig, CpuConfig, NdpConfig};
use crate::pattern::{generate, AccessPattern};

/// Reorder-buffer depth used for the host CPU's out-of-order cores.
/// Table III says "4-way superscalar"; the window is the standard
/// Haswell/Skylake-class depth zsim would model for such a core.
const CPU_ROB_WINDOW: usize = 192;

/// Next-line prefetch degree of the NDP cores' L1 stream prefetcher.
const NDP_PREFETCH_DEGREE: usize = 4;

/// Capacity of the prefetch buffer in lines.
const PREFETCH_BUFFER_LINES: usize = 64;

/// One micro-operation of a kernel trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// `ops` independent arithmetic instructions (issue-width limited).
    Compute {
        /// Number of back-to-back arithmetic instructions.
        ops: u32,
    },
    /// A load from a byte address.
    Load {
        /// Byte address.
        addr: u64,
    },
    /// A store to a byte address.
    Store {
        /// Byte address.
        addr: u64,
    },
}

/// A synthetic instruction stream standing in for one kernel's inner loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelTrace {
    ops: Vec<MicroOp>,
}

impl KernelTrace {
    /// Wraps an explicit op sequence.
    pub fn new(ops: Vec<MicroOp>) -> Self {
        KernelTrace { ops }
    }

    /// Builds the canonical kernel shape: `n_mem` memory accesses in the
    /// given [`AccessPattern`], each followed by `flops_per_access`
    /// arithmetic instructions (rounded to the nearest whole op).
    ///
    /// Accesses are 8-byte (one `f64`) at stream granularity; the cache
    /// stack coalesces them to lines. Deterministic for a given `seed`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ndft_sim::timing::KernelTrace;
    /// use ndft_sim::AccessPattern;
    ///
    /// let t = KernelTrace::from_mix(16, 2.0, AccessPattern::Stream, 1);
    /// assert_eq!(t.memory_ops(), 16);
    /// assert_eq!(t.instructions(), 16 + 32);
    /// ```
    pub fn from_mix(
        n_mem: usize,
        flops_per_access: f64,
        pattern: AccessPattern,
        seed: u64,
    ) -> Self {
        let addrs = generate(pattern, n_mem, 0, 8, seed);
        let flops = flops_per_access.round().max(0.0) as u32;
        let mut ops = Vec::with_capacity(if flops > 0 { 2 * n_mem } else { n_mem });
        for addr in addrs {
            ops.push(MicroOp::Load { addr });
            if flops > 0 {
                ops.push(MicroOp::Compute { ops: flops });
            }
        }
        KernelTrace { ops }
    }

    /// The op sequence.
    pub fn ops(&self) -> &[MicroOp] {
        &self.ops
    }

    /// Number of loads and stores.
    pub fn memory_ops(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, MicroOp::Load { .. } | MicroOp::Store { .. }))
            .count()
    }

    /// Total instruction count (each `Compute { ops }` counts `ops`).
    pub fn instructions(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                MicroOp::Compute { ops } => u64::from(*ops),
                _ => 1,
            })
            .sum()
    }
}

/// The DRAM side of the core model: what a fill costs and how fast fills
/// can be delivered to this core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemPort {
    /// Unloaded fill latency in seconds (row activation + CAS + transit).
    pub fill_latency_s: f64,
    /// This core's share of sustained fill bandwidth, bytes/second.
    pub bandwidth_bps: f64,
}

/// Microarchitectural parameters of one simulated core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreTimingConfig {
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Instructions issued per cycle at peak.
    pub issue_width: usize,
    /// Maximum outstanding demand misses (MSHRs).
    pub mshrs: usize,
    /// Instructions that may issue past the oldest incomplete miss.
    /// 1 models an in-order, stall-on-use core.
    pub window: usize,
    /// Next-line prefetch degree (0 disables the prefetcher).
    pub prefetch_degree: usize,
    /// DRAM fill latency in core cycles.
    pub fill_latency: f64,
    /// Minimum core cycles between successive fills (line / bandwidth).
    pub fill_interval: f64,
}

/// Where the cycles of a trace went.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CoreReport {
    /// Total core cycles to retire the trace (including drain).
    pub cycles: f64,
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles the front end spent issuing (`instructions / issue_width`).
    pub issue_cycles: f64,
    /// Cycles lost waiting on memory (window, MSHR, and drain stalls).
    pub mem_stall_cycles: f64,
    /// Demand fills that went to DRAM.
    pub dram_fills: u64,
    /// Prefetched lines consumed by demand accesses.
    pub prefetch_hits: u64,
    /// Lines fetched by the prefetcher (useful or not).
    pub prefetch_issued: u64,
    /// L1 statistics snapshot after the run.
    pub l1: CacheStats,
}

impl CoreReport {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles
        }
    }

    /// Wall-clock seconds at the given core clock.
    pub fn seconds(&self, clock_hz: f64) -> f64 {
        self.cycles / clock_hz
    }

    /// Fraction of time stalled on memory.
    pub fn mem_stall_fraction(&self) -> f64 {
        if self.cycles == 0.0 {
            0.0
        } else {
            self.mem_stall_cycles / self.cycles
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Miss {
    complete: f64,
    issued_at_instr: u64,
    /// Demand misses hold an MSHR; window-tracked prefetch waits do not.
    holds_mshr: bool,
}

/// One simulated core: an issue stage over a cache stack over a DRAM port.
///
/// Construct with [`CoreModel::cpu_core`] / [`CoreModel::ndp_core`] (the
/// Table III cores) or [`CoreModel::with_config`] for design-space
/// studies, then [`run`](CoreModel::run) traces against it. State (cache
/// contents) persists across runs so warm-cache behaviour can be measured;
/// call [`reset`](CoreModel::reset) for a cold start.
#[derive(Debug, Clone)]
pub struct CoreModel {
    cfg: CoreTimingConfig,
    levels: Vec<Cache>,
    prefetch: Vec<(u64, f64)>, // (line address, completion time)
}

impl CoreModel {
    /// A host-CPU core of the Table III machine: three cache levels, a
    /// deep out-of-order window, no prefetcher (the window is the latency
    /// tolerance mechanism).
    pub fn cpu_core(cpu: &CpuConfig, port: MemPort) -> Self {
        let cfg = CoreTimingConfig {
            clock_hz: cpu.clock_hz,
            issue_width: cpu.issue_width,
            mshrs: cpu.mlp,
            window: CPU_ROB_WINDOW,
            prefetch_degree: 0,
            fill_latency: port.fill_latency_s * cpu.clock_hz,
            fill_interval: cpu.l1d.line_bytes as f64 / port.bandwidth_bps * cpu.clock_hz,
        };
        CoreModel::build(cfg, vec![cpu.l1d, cpu.l2, cpu.l3])
    }

    /// A wimpy NDP core: single-issue-narrow, L1 only, in-order
    /// (window 1), with a next-line stream prefetcher — the configuration
    /// that lets it stream at stack bandwidth yet collapse on irregular
    /// kernels.
    pub fn ndp_core(ndp: &NdpConfig, port: MemPort) -> Self {
        let cfg = CoreTimingConfig {
            clock_hz: ndp.clock_hz,
            issue_width: 2,
            mshrs: ndp.mlp,
            window: 1,
            prefetch_degree: NDP_PREFETCH_DEGREE,
            fill_latency: port.fill_latency_s * ndp.clock_hz,
            fill_interval: ndp.l1.line_bytes as f64 / port.bandwidth_bps * ndp.clock_hz,
        };
        CoreModel::build(cfg, vec![ndp.l1])
    }

    /// Builds a core with an explicit configuration and cache stack
    /// (outermost last).
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty or `issue_width`/`mshrs`/`window` is 0.
    pub fn with_config(cfg: CoreTimingConfig, levels: Vec<CacheConfig>) -> Self {
        CoreModel::build(cfg, levels)
    }

    fn build(cfg: CoreTimingConfig, levels: Vec<CacheConfig>) -> Self {
        assert!(!levels.is_empty(), "core needs at least one cache level");
        assert!(
            cfg.issue_width > 0 && cfg.mshrs > 0 && cfg.window > 0,
            "issue width, MSHR count and window must be positive"
        );
        CoreModel {
            cfg,
            levels: levels.into_iter().map(Cache::new).collect(),
            prefetch: Vec::new(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> CoreTimingConfig {
        self.cfg
    }

    /// Line size of the innermost cache.
    pub fn line_bytes(&self) -> usize {
        self.levels[0].config().line_bytes
    }

    /// Clears caches and the prefetch buffer (cold start).
    pub fn reset(&mut self) {
        for level in &mut self.levels {
            level.reset();
        }
        self.prefetch.clear();
    }

    /// Runs a trace to completion and reports where the cycles went.
    ///
    /// Cache state persists across calls; run the same trace twice to see
    /// warm-cache behaviour.
    pub fn run(&mut self, trace: &KernelTrace) -> CoreReport {
        let cfg = self.cfg;
        let line_bytes = self.line_bytes() as u64;
        let mut now = 0.0f64;
        let mut stall = 0.0f64;
        let mut instr: u64 = 0;
        let mut misses: Vec<Miss> = Vec::new();
        let mut last_fill = f64::NEG_INFINITY;
        let mut report = CoreReport::default();

        for op in trace.ops() {
            // Retire completed misses.
            misses.retain(|m| m.complete > now);
            // Window constraint: the oldest incomplete miss bounds how far
            // ahead the front end may run.
            if let Some(oldest) = misses
                .iter()
                .filter(|m| instr.saturating_sub(m.issued_at_instr) >= cfg.window as u64)
                .map(|m| m.complete)
                .fold(None, |acc: Option<f64>, c| {
                    Some(acc.map_or(c, |a| a.max(c)))
                })
            {
                if oldest > now {
                    stall += oldest - now;
                    now = oldest;
                    misses.retain(|m| m.complete > now);
                }
            }
            match *op {
                MicroOp::Compute { ops } => {
                    instr += u64::from(ops);
                    now += f64::from(ops) / cfg.issue_width as f64;
                }
                MicroOp::Load { addr } | MicroOp::Store { addr } => {
                    let is_write = matches!(op, MicroOp::Store { .. });
                    instr += 1;
                    now += 1.0 / cfg.issue_width as f64;
                    let line = addr / line_bytes;
                    if let Some(pos) = self.prefetch.iter().position(|&(l, _)| l == line) {
                        // Prefetch buffer hit: install into L1; if the
                        // prefetch is still in flight, it behaves like a
                        // shorter miss tracked by the window.
                        let (_, complete) = self.prefetch.swap_remove(pos);
                        self.levels[0].fill(addr, is_write);
                        report.prefetch_hits += 1;
                        if complete > now {
                            misses.push(Miss {
                                complete,
                                issued_at_instr: instr,
                                holds_mshr: false,
                            });
                        }
                        continue;
                    }
                    // Walk the cache stack.
                    let mut hit_level = None;
                    for (i, level) in self.levels.iter_mut().enumerate() {
                        match level.access(addr, is_write && i == 0) {
                            crate::cache::CacheOutcome::Hit => {
                                hit_level = Some(i);
                                break;
                            }
                            crate::cache::CacheOutcome::Miss { .. } => {}
                        }
                    }
                    match hit_level {
                        Some(0) => {} // pipelined L1 hit
                        Some(i) => {
                            // Outer-level hit: a short miss the window and
                            // scoreboard must cover, but no DRAM fill.
                            let latency: u64 = self.levels[1..=i]
                                .iter()
                                .map(|l| l.config().hit_latency)
                                .sum();
                            misses.push(Miss {
                                complete: now + latency as f64,
                                issued_at_instr: instr,
                                holds_mshr: false,
                            });
                        }
                        None => {
                            // DRAM fill. MSHR constraint: wait for the
                            // earliest demand miss to drain if all MSHRs
                            // are busy.
                            loop {
                                let demand = misses.iter().filter(|m| m.holds_mshr).count();
                                if demand < cfg.mshrs {
                                    break;
                                }
                                let earliest = misses
                                    .iter()
                                    .filter(|m| m.holds_mshr)
                                    .map(|m| m.complete)
                                    .fold(f64::INFINITY, f64::min);
                                if earliest > now {
                                    stall += earliest - now;
                                    now = earliest;
                                }
                                misses.retain(|m| m.complete > now);
                            }
                            let issue_at = now.max(last_fill + cfg.fill_interval);
                            last_fill = issue_at;
                            let complete = issue_at + cfg.fill_latency;
                            misses.push(Miss {
                                complete,
                                issued_at_instr: instr,
                                holds_mshr: true,
                            });
                            report.dram_fills += 1;
                            // Next-line prefetches ride the same fill port.
                            for d in 1..=cfg.prefetch_degree as u64 {
                                let pl = line + d;
                                if self.prefetch.iter().any(|&(l, _)| l == pl) {
                                    continue;
                                }
                                let pf_issue = last_fill + cfg.fill_interval;
                                last_fill = pf_issue;
                                if self.prefetch.len() >= PREFETCH_BUFFER_LINES {
                                    self.prefetch.remove(0);
                                }
                                self.prefetch.push((pl, pf_issue + cfg.fill_latency));
                                report.prefetch_issued += 1;
                            }
                        }
                    }
                }
            }
        }
        // Drain: the trace is not done until the last miss lands.
        let drain = misses.iter().map(|m| m.complete).fold(now, f64::max);
        stall += drain - now;
        report.cycles = drain;
        report.instructions = instr;
        report.issue_cycles = instr as f64 / cfg.issue_width as f64;
        report.mem_stall_cycles = stall;
        report.l1 = self.levels[0].stats();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;

    fn port() -> MemPort {
        MemPort {
            fill_latency_s: 60e-9,
            bandwidth_bps: 16.0e9,
        }
    }

    fn cpu() -> CoreModel {
        CoreModel::cpu_core(&SystemConfig::paper_table3().cpu, port())
    }

    fn ndp() -> CoreModel {
        CoreModel::ndp_core(&SystemConfig::paper_table3().ndp, port())
    }

    #[test]
    fn compute_only_trace_runs_at_issue_width() {
        let mut core = cpu();
        let trace = KernelTrace::new(vec![MicroOp::Compute { ops: 4000 }]);
        let r = core.run(&trace);
        assert_eq!(r.instructions, 4000);
        assert!((r.ipc() - 4.0).abs() < 1e-9, "ipc {}", r.ipc());
        assert_eq!(r.dram_fills, 0);
        assert_eq!(r.mem_stall_cycles, 0.0);
    }

    #[test]
    fn ooo_window_hides_latency_that_inorder_eats() {
        let trace = KernelTrace::from_mix(
            2048,
            1.0,
            AccessPattern::Random {
                range_bytes: 256 << 20,
            },
            11,
        );
        let fast = cpu().run(&trace);
        let mut ndp_no_pf = ndp();
        // Disable the prefetcher for a pure window comparison.
        let mut cfg = ndp_no_pf.config();
        cfg.prefetch_degree = 0;
        // Same clock so cycles are comparable.
        cfg.clock_hz = 3.0e9;
        cfg.fill_latency = port().fill_latency_s * 3.0e9;
        cfg.fill_interval = 64.0 / port().bandwidth_bps * 3.0e9;
        ndp_no_pf = CoreModel::with_config(cfg, vec![SystemConfig::paper_table3().ndp.l1]);
        let slow = ndp_no_pf.run(&trace);
        assert!(
            fast.cycles * 2.0 < slow.cycles,
            "OOO {} vs in-order {}",
            fast.cycles,
            slow.cycles
        );
    }

    #[test]
    fn prefetcher_accelerates_streaming_on_inorder_core() {
        let trace = KernelTrace::from_mix(8192, 0.0, AccessPattern::Stream, 3);
        let with_pf = ndp().run(&trace);
        let mut cfg = ndp().config();
        cfg.prefetch_degree = 0;
        let mut no_pf = CoreModel::with_config(cfg, vec![SystemConfig::paper_table3().ndp.l1]);
        let without = no_pf.run(&trace);
        assert!(
            with_pf.cycles * 1.5 < without.cycles,
            "prefetch {} vs none {}",
            with_pf.cycles,
            without.cycles
        );
        assert!(with_pf.prefetch_hits > 0);
    }

    #[test]
    fn warm_cache_second_run_has_no_fills() {
        let mut core = cpu();
        // 16 KiB working set fits in the 32 KiB L1.
        let trace = KernelTrace::from_mix(
            2048,
            1.0,
            AccessPattern::Random {
                range_bytes: 16 << 10,
            },
            5,
        );
        let cold = core.run(&trace);
        let warm = core.run(&trace);
        assert!(cold.dram_fills > 0);
        assert_eq!(warm.dram_fills, 0);
        assert!(warm.cycles < cold.cycles);
        // Warm run retires at near issue width.
        assert!(warm.ipc() > 0.9 * 4.0, "warm ipc {}", warm.ipc());
    }

    #[test]
    fn mshr_count_bounds_memory_level_parallelism() {
        let trace = KernelTrace::from_mix(
            1024,
            0.0,
            AccessPattern::Random {
                range_bytes: 256 << 20,
            },
            17,
        );
        let sys = SystemConfig::paper_table3();
        let mut wide_cfg = CoreModel::cpu_core(&sys.cpu, port()).config();
        wide_cfg.mshrs = 10;
        let mut narrow_cfg = wide_cfg;
        narrow_cfg.mshrs = 1;
        let levels = vec![sys.cpu.l1d, sys.cpu.l2, sys.cpu.l3];
        let wide = CoreModel::with_config(wide_cfg, levels.clone()).run(&trace);
        let narrow = CoreModel::with_config(narrow_cfg, levels).run(&trace);
        // mshrs=1 serializes misses at full latency; 10 MSHRs overlap them.
        assert!(
            wide.cycles * 3.0 < narrow.cycles,
            "mshrs=10 {} vs mshrs=1 {}",
            wide.cycles,
            narrow.cycles
        );
    }

    #[test]
    fn fill_interval_bounds_achieved_bandwidth() {
        // Zero-latency fills: only the bandwidth constraint remains.
        let sys = SystemConfig::paper_table3();
        let mut cfg = CoreModel::cpu_core(&sys.cpu, port()).config();
        cfg.fill_latency = 0.0;
        let mut core = CoreModel::with_config(cfg, vec![sys.cpu.l1d, sys.cpu.l2, sys.cpu.l3]);
        let n = 8192;
        let trace = KernelTrace::from_mix(n, 0.0, AccessPattern::Strided { stride_bytes: 4096 }, 0);
        let r = core.run(&trace);
        let bytes = r.dram_fills as f64 * 64.0;
        let secs = r.seconds(cfg.clock_hz);
        let bw = bytes / secs;
        assert!(bw <= port().bandwidth_bps * 1.01, "bw {bw:.3e}");
        assert!(bw > port().bandwidth_bps * 0.8, "bw {bw:.3e}");
    }

    #[test]
    fn cycles_never_below_issue_time() {
        let trace = KernelTrace::from_mix(512, 4.0, AccessPattern::Stream, 9);
        for r in [cpu().run(&trace), ndp().run(&trace)] {
            assert!(r.cycles + 1e-9 >= r.issue_cycles, "{r:?}");
            assert!(r.mem_stall_cycles >= 0.0);
        }
    }

    #[test]
    fn inorder_core_stalls_on_misses() {
        let trace = KernelTrace::from_mix(
            512,
            1.0,
            AccessPattern::Random {
                range_bytes: 64 << 20,
            },
            21,
        );
        let r = ndp().run(&trace);
        assert!(
            r.mem_stall_fraction() > 0.5,
            "stall fraction {}",
            r.mem_stall_fraction()
        );
    }

    #[test]
    fn trace_mix_counts() {
        let t = KernelTrace::from_mix(10, 3.0, AccessPattern::Stream, 0);
        assert_eq!(t.memory_ops(), 10);
        assert_eq!(t.instructions(), 10 + 30);
        let explicit = KernelTrace::new(vec![
            MicroOp::Load { addr: 0 },
            MicroOp::Store { addr: 64 },
            MicroOp::Compute { ops: 7 },
        ]);
        assert_eq!(explicit.memory_ops(), 2);
        assert_eq!(explicit.instructions(), 9);
    }

    #[test]
    fn reset_restores_cold_behaviour() {
        let mut core = cpu();
        let trace = KernelTrace::from_mix(
            512,
            0.0,
            AccessPattern::Random {
                range_bytes: 16 << 10,
            },
            2,
        );
        let cold = core.run(&trace);
        core.reset();
        let again = core.run(&trace);
        assert_eq!(cold.dram_fills, again.dram_fills);
        assert!((cold.cycles - again.cycles).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one cache level")]
    fn empty_cache_stack_panics() {
        let cfg = CoreModel::cpu_core(&SystemConfig::paper_table3().cpu, port()).config();
        let _ = CoreModel::with_config(cfg, vec![]);
    }
}
