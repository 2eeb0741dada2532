//! System configuration types and the paper's Table III preset.
//!
//! Every structural parameter of the simulated CPU–NDP machine lives here:
//! core counts and clocks, cache geometry, DRAM timing presets (HBM2 for
//! the stacks, DDR4 for the CPU baseline), the stack mesh, and the
//! scratchpad sizes used by the shared-memory design.

use serde::{Deserialize, Serialize};

/// Clock frequency in Hz.
pub type Hz = f64;

/// One kibibyte.
pub const KIB: usize = 1024;
/// One mebibyte.
pub const MIB: usize = 1024 * KIB;
/// One gibibyte.
pub const GIB: usize = 1024 * MIB;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways).
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Access (hit) latency in core cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines.is_multiple_of(self.ways) && lines > 0,
            "cache geometry must divide evenly (size {} / line {} / ways {})",
            self.size_bytes,
            self.line_bytes,
            self.ways
        );
        lines / self.ways
    }
}

/// A CPU core complex (the host side of the CPU-NDP system).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Number of general-purpose cores.
    pub cores: usize,
    /// Core clock.
    pub clock_hz: Hz,
    /// Issue width (superscalar ways).
    pub issue_width: usize,
    /// Double-precision FLOPs per core per cycle at peak (SIMD + FMA).
    pub flops_per_cycle: f64,
    /// Private L1 data cache.
    pub l1d: CacheConfig,
    /// Private L2.
    pub l2: CacheConfig,
    /// Shared L3.
    pub l3: CacheConfig,
    /// Outstanding memory requests per core (MLP).
    pub mlp: usize,
}

/// The NDP side: wimpy in-order cores in the logic layer of each stack.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NdpConfig {
    /// Memory stacks in the package (arranged in a mesh).
    pub stacks: usize,
    /// NDP units per stack.
    pub units_per_stack: usize,
    /// Cores per NDP unit.
    pub cores_per_unit: usize,
    /// NDP core clock.
    pub clock_hz: Hz,
    /// Double-precision FLOPs per core per cycle (in-order, narrow SIMD).
    pub flops_per_cycle: f64,
    /// Per-core L1 (NDP units have no L2/L3; they sit on the stack).
    pub l1: CacheConfig,
    /// DRAM capacity per NDP unit in bytes.
    pub dram_per_unit: usize,
    /// Outstanding memory requests per core.
    pub mlp: usize,
}

impl NdpConfig {
    /// Total NDP cores across all stacks.
    pub fn total_cores(&self) -> usize {
        self.stacks * self.units_per_stack * self.cores_per_unit
    }

    /// Total stacked-DRAM capacity in bytes.
    pub fn total_dram(&self) -> usize {
        self.stacks * self.units_per_stack * self.dram_per_unit
    }
}

/// Scratchpad memory in each stack's logic layer (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpmConfig {
    /// SPM capacity per NDP core in bytes.
    pub per_core_bytes: usize,
    /// SPM capacity per stack in bytes.
    pub per_stack_bytes: usize,
    /// Access latency in NDP-core cycles.
    pub access_latency: u64,
}

/// DRAM device timing, expressed in memory-clock cycles.
///
/// The model is deliberately at the Ramulator level of abstraction:
/// activate/read/precharge state per bank, burst occupancy on the channel
/// data bus, and FR-FCFS arbitration (see [`crate::dram`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramTimings {
    /// Memory clock in Hz (the paper's HBM2 runs the bus at 1000 MHz).
    pub clock_hz: Hz,
    /// Column access strobe latency (cycles).
    pub t_cas: u64,
    /// Row-to-column delay (cycles).
    pub t_rcd: u64,
    /// Row precharge (cycles).
    pub t_rp: u64,
    /// Row active minimum (cycles).
    pub t_ras: u64,
    /// Cycles the data bus is busy per burst (BL/2 for DDR).
    pub t_burst: u64,
    /// Bytes transferred per burst.
    pub burst_bytes: usize,
    /// Average refresh interval (cycles); 0 disables refresh.
    pub t_refi: u64,
    /// Refresh cycle time: the channel is blocked this long per refresh.
    pub t_rfc: u64,
}

impl DramTimings {
    /// HBM2-class timings: 128-bit bus per channel @ 1000 MHz DDR,
    /// 32 B per 2-cycle burst ⇒ 16 GB/s per channel pin bandwidth.
    /// Refresh: tREFI 3.9 µs, tRFC 260 ns.
    pub fn hbm2() -> Self {
        DramTimings {
            clock_hz: 1.0e9,
            t_cas: 14,
            t_rcd: 14,
            t_rp: 14,
            t_ras: 33,
            t_burst: 2,
            burst_bytes: 32,
            t_refi: 3_900,
            t_rfc: 260,
        }
    }

    /// DDR4-2400-class timings: 64-bit bus @ 1200 MHz DDR, 64 B per
    /// 4-cycle burst ⇒ 19.2 GB/s per channel pin bandwidth.
    /// Refresh: tREFI 7.8 µs, tRFC 350 ns.
    pub fn ddr4() -> Self {
        DramTimings {
            clock_hz: 1.2e9,
            t_cas: 16,
            t_rcd: 16,
            t_rp: 16,
            t_ras: 39,
            t_burst: 4,
            burst_bytes: 64,
            t_refi: 9_360,
            t_rfc: 420,
        }
    }

    /// Pin (peak) bandwidth of one channel in bytes/second.
    pub fn channel_peak_bw(&self) -> f64 {
        self.burst_bytes as f64 / (self.t_burst as f64 / self.clock_hz)
    }
}

/// Geometry of the stacked-DRAM memory subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// Device timing preset.
    pub timings: DramTimings,
    /// Channels per stack (8 for the paper's HBM2).
    pub channels_per_stack: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Row-buffer size in bytes.
    pub row_bytes: usize,
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
}

/// The inter-stack mesh network (§II-B: "4 × 4 stacks in mesh").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeshConfig {
    /// Mesh width (stacks per row).
    pub width: usize,
    /// Mesh height.
    pub height: usize,
    /// Per-hop router+link latency in NoC cycles.
    pub hop_latency: u64,
    /// NoC clock.
    pub clock_hz: Hz,
    /// Link width in bytes per NoC cycle.
    pub link_bytes_per_cycle: usize,
}

impl MeshConfig {
    /// Total stacks in the mesh.
    pub fn stacks(&self) -> usize {
        self.width * self.height
    }

    /// Manhattan (XY-routed) hop count between two stacks.
    ///
    /// # Panics
    ///
    /// Panics if either stack id is out of range.
    pub fn hops(&self, from: usize, to: usize) -> u64 {
        assert!(
            from < self.stacks() && to < self.stacks(),
            "stack id out of range"
        );
        let (fx, fy) = (from % self.width, from / self.width);
        let (tx, ty) = (to % self.width, to / self.width);
        (fx.abs_diff(tx) + fy.abs_diff(ty)) as u64
    }
}

/// The off-chip link connecting the host CPU to the stacked memory
/// (SerDes-style, far narrower than the internal stack bandwidth — this
/// asymmetry is the entire premise of near-data processing).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostLinkConfig {
    /// Sustained bandwidth in bytes/second.
    pub bandwidth: f64,
    /// One-way latency in seconds.
    pub latency: f64,
}

/// Full CPU-NDP system configuration (the paper's Table III).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Host CPU complex.
    pub cpu: CpuConfig,
    /// NDP cores in the stacks.
    pub ndp: NdpConfig,
    /// Stacked-DRAM subsystem.
    pub memory: MemoryConfig,
    /// Inter-stack mesh.
    pub mesh: MeshConfig,
    /// Logic-layer scratchpads.
    pub spm: SpmConfig,
    /// CPU ↔ stack link.
    pub host_link: HostLinkConfig,
}

impl SystemConfig {
    /// The exact configuration of the paper's Table III.
    ///
    /// # Examples
    ///
    /// ```
    /// use ndft_sim::SystemConfig;
    /// let cfg = SystemConfig::paper_table3();
    /// assert_eq!(cfg.cpu.cores, 8);
    /// assert_eq!(cfg.ndp.total_cores(), 256);
    /// assert_eq!(cfg.memory.capacity_bytes, 64 * ndft_sim::config::GIB);
    /// ```
    pub fn paper_table3() -> Self {
        let line = 64;
        SystemConfig {
            cpu: CpuConfig {
                cores: 8,
                clock_hz: 3.0e9,
                issue_width: 4,
                // 4-way superscalar with AVX-512 FMA: 16 DP FLOP/cycle.
                flops_per_cycle: 16.0,
                l1d: CacheConfig {
                    size_bytes: 32 * KIB,
                    ways: 8,
                    line_bytes: line,
                    hit_latency: 4,
                },
                l2: CacheConfig {
                    size_bytes: 256 * KIB,
                    ways: 8,
                    line_bytes: line,
                    hit_latency: 12,
                },
                l3: CacheConfig {
                    size_bytes: 2 * MIB,
                    ways: 16,
                    line_bytes: line,
                    hit_latency: 38,
                },
                mlp: 10,
            },
            ndp: NdpConfig {
                stacks: 16,
                units_per_stack: 8,
                cores_per_unit: 2,
                clock_hz: 2.0e9,
                // Wimpy in-order core with a dual-issue 128-bit FMA unit:
                // 4 DP FLOP/cycle.
                flops_per_cycle: 4.0,
                l1: CacheConfig {
                    size_bytes: 32 * KIB,
                    ways: 4,
                    line_bytes: line,
                    hit_latency: 2,
                },
                dram_per_unit: 512 * MIB,
                mlp: 4,
            },
            memory: MemoryConfig {
                timings: DramTimings::hbm2(),
                channels_per_stack: 8,
                banks_per_channel: 16,
                row_bytes: 2 * KIB,
                capacity_bytes: 64 * GIB,
            },
            mesh: MeshConfig {
                width: 4,
                height: 4,
                hop_latency: 3,
                clock_hz: 2.0e9,
                link_bytes_per_cycle: 16,
            },
            spm: SpmConfig {
                per_core_bytes: 16 * KIB,
                per_stack_bytes: 256 * KIB,
                access_latency: 2,
            },
            host_link: HostLinkConfig {
                // SerDes link to the memory package: 64 GB/s, 40 ns one way.
                bandwidth: 64.0e9,
                latency: 40.0e-9,
            },
        }
    }

    /// Peak double-precision FLOP/s of the host CPU complex.
    pub fn cpu_peak_flops(&self) -> f64 {
        self.cpu.cores as f64 * self.cpu.clock_hz * self.cpu.flops_per_cycle
    }

    /// Peak double-precision FLOP/s of all NDP cores.
    pub fn ndp_peak_flops(&self) -> f64 {
        self.ndp.total_cores() as f64 * self.ndp.clock_hz * self.ndp.flops_per_cycle
    }

    /// Aggregate internal pin bandwidth of all stacks (bytes/s).
    pub fn ndp_peak_bandwidth(&self) -> f64 {
        self.memory.timings.channel_peak_bw()
            * (self.memory.channels_per_stack * self.ndp.stacks) as f64
    }
}

/// Configuration of the standalone CPU baseline (2× Xeon E5-2695, §V).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuBaselineConfig {
    /// Total cores across both sockets.
    pub cores: usize,
    /// Core clock.
    pub clock_hz: Hz,
    /// DP FLOPs per core per cycle.
    pub flops_per_cycle: f64,
    /// DDR4 timing preset.
    pub timings: DramTimings,
    /// Total DDR channels across sockets.
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Row-buffer bytes.
    pub row_bytes: usize,
    /// Memory capacity in bytes.
    pub capacity_bytes: usize,
    /// Last-level cache per socket.
    pub llc: CacheConfig,
}

impl CpuBaselineConfig {
    /// The paper's CPU baseline: 2 × Xeon E5-2695 @ 2.4 GHz, 12 cores per
    /// socket, 64 GB DDR4.
    pub fn paper_baseline() -> Self {
        CpuBaselineConfig {
            cores: 24,
            clock_hz: 2.4e9,
            flops_per_cycle: 8.0,
            timings: DramTimings::ddr4(),
            channels: 8,
            banks_per_channel: 16,
            row_bytes: 8 * KIB,
            capacity_bytes: 64 * GIB,
            llc: CacheConfig {
                size_bytes: 30 * MIB,
                ways: 20,
                line_bytes: 64,
                hit_latency: 40,
            },
        }
    }

    /// Peak DP FLOP/s.
    pub fn peak_flops(&self) -> f64 {
        self.cores as f64 * self.clock_hz * self.flops_per_cycle
    }

    /// Aggregate pin bandwidth (bytes/s).
    pub fn peak_bandwidth(&self) -> f64 {
        self.timings.channel_peak_bw() * self.channels as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_matches_paper() {
        let cfg = SystemConfig::paper_table3();
        assert_eq!(cfg.cpu.cores, 8);
        assert_eq!(cfg.cpu.issue_width, 4);
        assert!((cfg.cpu.clock_hz - 3.0e9).abs() < 1.0);
        assert_eq!(cfg.ndp.stacks, 16);
        assert_eq!(cfg.ndp.units_per_stack, 8);
        assert_eq!(cfg.ndp.cores_per_unit, 2);
        assert_eq!(cfg.ndp.total_cores(), 256);
        assert_eq!(cfg.ndp.total_dram(), 64 * GIB);
        assert_eq!(cfg.memory.channels_per_stack, 8);
        assert_eq!(cfg.mesh.stacks(), 16);
        assert_eq!(cfg.spm.per_core_bytes, 16 * KIB);
        assert_eq!(cfg.spm.per_stack_bytes, 256 * KIB);
    }

    #[test]
    fn hbm_channel_bandwidth_is_16_gbs() {
        let t = DramTimings::hbm2();
        // 32 B per 2 cycles @ 1 GHz = 16 GB/s.
        assert!((t.channel_peak_bw() - 16.0e9).abs() / 16.0e9 < 1e-12);
    }

    #[test]
    fn ndp_aggregate_bandwidth_dwarfs_host_link() {
        let cfg = SystemConfig::paper_table3();
        // 16 stacks × 8 ch × 16 GB/s = 2048 GB/s internal.
        assert!(cfg.ndp_peak_bandwidth() > 2.0e12);
        assert!(cfg.ndp_peak_bandwidth() > 10.0 * cfg.host_link.bandwidth);
    }

    #[test]
    fn cache_sets_divide() {
        let cfg = SystemConfig::paper_table3();
        assert_eq!(cfg.cpu.l1d.sets(), 64);
        assert_eq!(cfg.cpu.l2.sets(), 512);
    }

    #[test]
    fn mesh_hops_are_manhattan() {
        let mesh = SystemConfig::paper_table3().mesh;
        assert_eq!(mesh.hops(0, 0), 0);
        assert_eq!(mesh.hops(0, 3), 3);
        assert_eq!(mesh.hops(0, 15), 6);
        assert_eq!(mesh.hops(5, 10), 2);
    }

    #[test]
    fn peaks_are_consistent() {
        let cfg = SystemConfig::paper_table3();
        assert!((cfg.cpu_peak_flops() - 384.0e9).abs() / 384.0e9 < 1e-12);
        assert!((cfg.ndp_peak_flops() - 2048.0e9).abs() / 2048.0e9 < 1e-12);
        let base = CpuBaselineConfig::paper_baseline();
        assert!(base.peak_flops() > cfg.cpu_peak_flops());
    }

    #[test]
    fn baseline_bandwidth_is_ddr_class() {
        let base = CpuBaselineConfig::paper_baseline();
        let bw = base.peak_bandwidth();
        assert!(bw > 100.0e9 && bw < 200.0e9, "DDR4 aggregate {bw}");
    }
}
