//! Platform calibration: measured memory-system numbers plus the
//! documented model constants.
//!
//! Bandwidths come from replaying synthetic address streams through
//! `ndft-sim`'s DRAM/NoC models ([`ndft_sim::Calibration::measure`]). For
//! the paper's Table III machine that measurement is recorded as
//! [`Calibration::PAPER_TABLE3`], which `ndft-sim`'s tests re-measure bit
//! for bit, so no process replays it. The remaining constants (FLOP
//! efficiencies, interconnect rates, overheads) are
//! datasheet/literature-class values listed here in one place so every
//! experiment shares them. DESIGN.md §4 records the reasoning.

use ndft_sim::{Calibration, CpuBaselineConfig, SystemConfig};
use std::sync::OnceLock;

/// The measured memory-system calibration of the paper's Table III
/// machine: the recorded [`Calibration::PAPER_TABLE3`], so calling this
/// replays nothing.
pub fn measured() -> &'static Calibration {
    &Calibration::PAPER_TABLE3
}

/// The paper's Table III system configuration (shared instance).
pub fn system_config() -> &'static SystemConfig {
    static CFG: OnceLock<SystemConfig> = OnceLock::new();
    CFG.get_or_init(SystemConfig::paper_table3)
}

/// The paper's CPU-baseline configuration (shared instance).
pub fn baseline_config() -> &'static CpuBaselineConfig {
    static CFG: OnceLock<CpuBaselineConfig> = OnceLock::new();
    CFG.get_or_init(CpuBaselineConfig::paper_baseline)
}

/// Model constants that are not measured by the simulator.
///
/// Every field is a deliberate modeling decision; see DESIGN.md §4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelConstants {
    // --- CPU baseline (2× Xeon E5-2695) ---
    /// FLOP efficiency on low-AI streaming kernels.
    pub cpu_eff_low_ai: f64,
    /// FLOP efficiency on cache-blocked high-AI kernels.
    pub cpu_eff_high_ai: f64,
    /// Last-level-cache bandwidth (both sockets), bytes/s.
    pub cpu_llc_bandwidth: f64,
    /// Inter-socket (QPI-class) bandwidth for MPI within the node.
    pub cpu_interconnect_bw: f64,

    // --- GPU baseline (2× V100, DGX-1) ---
    /// Aggregate HBM2 stream bandwidth after DRAM efficiency (2 × 900 GB/s × 0.75).
    pub gpu_hbm_stream_bw: f64,
    /// Strided factor on GPU HBM (coalescing losses).
    pub gpu_strided_factor: f64,
    /// Random/gather factor on GPU HBM.
    pub gpu_random_factor: f64,
    /// Aggregate DP peak (2 × 7.8 TF).
    pub gpu_peak_flops: f64,
    /// Efficiency on regular low-AI kernels (FFT/streaming).
    pub gpu_eff_low_ai: f64,
    /// Efficiency on the workload's tall-skinny, host-fed GEMMs.
    pub gpu_gemm_efficiency: f64,
    /// Efficiency on the panel-sequential SYEVD.
    pub gpu_syevd_efficiency: f64,
    /// Aggregate host↔device PCIe bandwidth (both GPUs), bytes/s.
    pub gpu_pcie_bw: f64,
    /// GPU↔GPU interconnect effective bandwidth for the all-to-all.
    pub gpu_a2a_bw: f64,
    /// Per-stage kernel-launch/orchestration overhead, seconds.
    pub gpu_launch_overhead: f64,
    /// Device memory across both GPUs, bytes.
    pub gpu_device_memory: u64,

    // --- NDP side of the CPU-NDP system ---
    /// FLOP efficiency on streaming kernels (in-order cores stream well).
    pub ndp_eff_low_ai: f64,
    /// FLOP efficiency on cache-blocked kernels (no L2/L3: collapses).
    pub ndp_eff_high_ai: f64,
    /// Per-offloaded-stage dispatch/fork-join overhead across 256 units.
    pub ndp_dispatch_overhead: f64,
    /// Mesh bisection bandwidth available to an all-to-all, bytes/s.
    pub ndp_bisection_bw: f64,

    // --- Host CPU of the CPU-NDP system ---
    /// FLOP efficiency, low AI.
    pub host_eff_low_ai: f64,
    /// FLOP efficiency, high AI (OOO + AVX-512 GEMM).
    pub host_eff_high_ai: f64,
}

impl ModelConstants {
    /// The default constants used throughout the reproduction.
    pub fn paper_default() -> Self {
        ModelConstants {
            cpu_eff_low_ai: 0.6,
            cpu_eff_high_ai: 0.9,
            cpu_llc_bandwidth: 500.0e9,
            cpu_interconnect_bw: 38.0e9,

            gpu_hbm_stream_bw: 1350.0e9,
            gpu_strided_factor: 0.35,
            gpu_random_factor: 0.08,
            gpu_peak_flops: 15.6e12,
            gpu_eff_low_ai: 0.55,
            // Tall-skinny complex GEMM (npair × naux panels), host-fed:
            // single-digit percent of peak on V100-class parts.
            gpu_gemm_efficiency: 0.028,
            gpu_syevd_efficiency: 0.02,
            gpu_pcie_bw: 24.0e9,
            gpu_a2a_bw: 140.0e9,
            gpu_launch_overhead: 30.0e-6,
            gpu_device_memory: 64 * (1 << 30),

            ndp_eff_low_ai: 0.7,
            ndp_eff_high_ai: 0.08,
            ndp_dispatch_overhead: 120.0e-6,
            // 4 column links × 32 GB/s × 2 directions.
            ndp_bisection_bw: 256.0e9,

            host_eff_low_ai: 0.6,
            host_eff_high_ai: 0.9,
        }
    }
}

/// AI anchor below which the low-AI efficiency applies.
pub const AI_LOW: f64 = 4.0;
/// AI anchor above which the high-AI efficiency applies.
pub const AI_HIGH: f64 = 64.0;

/// Log-linear FLOP-efficiency interpolation between the AI anchors.
pub fn flop_efficiency(ai: f64, low: f64, high: f64) -> f64 {
    if !ai.is_finite() || ai >= AI_HIGH {
        return high;
    }
    if ai <= AI_LOW {
        return low;
    }
    let t = (ai / AI_LOW).ln() / (AI_HIGH / AI_LOW).ln();
    low + t * (high - low)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_equals_a_fresh_measure_of_the_recorded_inputs() {
        assert_eq!(*measured(), Calibration::measure_paper_table3());
    }

    #[test]
    fn efficiency_interpolation_is_monotonic() {
        let mc = ModelConstants::paper_default();
        let e1 = flop_efficiency(1.0, mc.cpu_eff_low_ai, mc.cpu_eff_high_ai);
        let e2 = flop_efficiency(16.0, mc.cpu_eff_low_ai, mc.cpu_eff_high_ai);
        let e3 = flop_efficiency(1000.0, mc.cpu_eff_low_ai, mc.cpu_eff_high_ai);
        assert!(e1 <= e2 && e2 <= e3);
        assert_eq!(e1, mc.cpu_eff_low_ai);
        assert_eq!(e3, mc.cpu_eff_high_ai);
    }

    #[test]
    fn infinite_ai_takes_high_anchor() {
        assert_eq!(flop_efficiency(f64::INFINITY, 0.5, 0.9), 0.9);
    }

    #[test]
    fn ndp_collapses_on_high_ai() {
        let mc = ModelConstants::paper_default();
        let gemm_eff = flop_efficiency(500.0, mc.ndp_eff_low_ai, mc.ndp_eff_high_ai);
        assert!(gemm_eff < 0.1);
    }
}
