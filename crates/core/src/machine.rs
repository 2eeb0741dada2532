//! Machine models: the three evaluation platforms of §V.
//!
//! Each model times a [`KernelDescriptor`] as
//! `max(compute, memory, comm) + transfer + overhead`, where
//!
//! * `compute` = FLOPs / (peak × AI-dependent efficiency × utilization),
//! * `memory`  = bytes / measured effective bandwidth (pattern mix,
//!   LLC/residency corrections),
//! * `comm`    = interconnect time of the stage's all-to-all volume,
//! * `transfer` = host↔device staging (GPU) or CPU↔NDP boundary movement
//!   (attributed by the engine from the plan),
//! * `overhead` = kernel-launch / offload-dispatch constants.

use crate::calib::{flop_efficiency, ModelConstants};
use ndft_dft::{alltoall_volume, KernelDescriptor, KernelKind, ProcessTopology};
use ndft_sim::{BandwidthProfile, Calibration, CpuBaselineConfig, SystemConfig};
use serde::{Deserialize, Serialize};

/// Timing breakdown of one stage on one machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageTime {
    /// FLOP-limited time, seconds.
    pub compute: f64,
    /// Bandwidth-limited time, seconds.
    pub memory: f64,
    /// Interconnect time for the stage's communication volume.
    pub comm: f64,
    /// Host↔device or CPU↔NDP data staging.
    pub transfer: f64,
    /// Fixed launch/dispatch overheads.
    pub overhead: f64,
}

impl StageTime {
    /// Total stage time: the execution bottleneck plus serial staging
    /// and overheads.
    pub fn total(&self) -> f64 {
        self.compute.max(self.memory).max(self.comm) + self.transfer + self.overhead
    }
}

/// A platform that can time pipeline stages.
pub trait Machine {
    /// Display name (matches the paper's figure legends).
    fn name(&self) -> &'static str;
    /// Times one stage.
    fn time_stage(&self, stage: &KernelDescriptor) -> StageTime;
}

/// Pattern-mix effective bandwidth from a measured profile.
fn mix_bandwidth(profile: &BandwidthProfile, d: &KernelDescriptor) -> f64 {
    let strided = (1.0 - d.stream_fraction - d.random_fraction).max(0.0);
    d.stream_fraction * profile.stream_bw
        + strided * profile.strided_bw
        + d.random_fraction * profile.random_bw
}

// --------------------------------------------------------------------
// CPU baseline: 2× Xeon E5-2695, 64 GB DDR4.
// --------------------------------------------------------------------

/// The standalone CPU baseline.
#[derive(Debug, Clone)]
pub struct CpuBaselineMachine {
    peak_flops: f64,
    cores: usize,
    llc_bytes: f64,
    profile: BandwidthProfile,
    consts: ModelConstants,
}

impl CpuBaselineMachine {
    /// Builds the model from the baseline config and measured DDR4
    /// profile.
    pub fn new(cfg: &CpuBaselineConfig, cal: &Calibration, consts: ModelConstants) -> Self {
        CpuBaselineMachine {
            peak_flops: cfg.peak_flops(),
            cores: cfg.cores,
            llc_bytes: (2 * cfg.llc.size_bytes) as f64, // both sockets
            profile: cal.cpu_baseline,
            consts,
        }
    }
}

impl Machine for CpuBaselineMachine {
    fn name(&self) -> &'static str {
        "CPU"
    }

    fn time_stage(&self, d: &KernelDescriptor) -> StageTime {
        let c = &self.consts;
        let util = (d.parallelism as f64 / self.cores as f64).clamp(1e-3, 1.0);
        let eff = flop_efficiency(
            d.arithmetic_intensity(),
            c.cpu_eff_low_ai,
            c.cpu_eff_high_ai,
        );
        let compute = d.cost.flops as f64 / (self.peak_flops * eff * util);
        // LLC residency: the fraction of the working set that fits the
        // combined LLCs is served at LLC bandwidth.
        let base_bw = mix_bandwidth(&self.profile, d);
        let resident = (self.llc_bytes / d.working_set.max(1) as f64).min(1.0);
        let bytes = d.cost.bytes_total() as f64;
        let memory = bytes * ((1.0 - resident) / base_bw + resident / c.cpu_llc_bandwidth);
        // Intra-node MPI: the all-to-all crosses the socket interconnect.
        let comm = d.comm_volume as f64 / c.cpu_interconnect_bw;
        StageTime {
            compute,
            memory,
            comm,
            transfer: 0.0,
            overhead: 0.0,
        }
    }
}

// --------------------------------------------------------------------
// GPU baseline: 2× V100 in a DGX-1.
// --------------------------------------------------------------------

/// How the GPU implementation routes its all-to-all transposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GpuAlltoallPolicy {
    /// Staged through host MPI over PCIe (the implementations the paper
    /// baselines against; this is their data-movement bottleneck).
    HostStaged,
    /// Direct GPU↔GPU over NVLink (ablation).
    DeviceDirect,
}

/// The GPU baseline.
#[derive(Debug, Clone)]
pub struct GpuBaselineMachine {
    consts: ModelConstants,
    policy: GpuAlltoallPolicy,
}

impl GpuBaselineMachine {
    /// Builds the model with the given all-to-all policy.
    pub fn new(consts: ModelConstants, policy: GpuAlltoallPolicy) -> Self {
        GpuBaselineMachine { consts, policy }
    }

    fn hbm_profile(&self) -> BandwidthProfile {
        let c = &self.consts;
        BandwidthProfile {
            stream_bw: c.gpu_hbm_stream_bw,
            strided_bw: c.gpu_hbm_stream_bw * c.gpu_strided_factor,
            random_bw: c.gpu_hbm_stream_bw * c.gpu_random_factor,
            idle_latency: 0.0,
        }
    }
}

impl Machine for GpuBaselineMachine {
    fn name(&self) -> &'static str {
        "GPU"
    }

    fn time_stage(&self, d: &KernelDescriptor) -> StageTime {
        let c = &self.consts;
        let eff = match d.kind {
            KernelKind::Gemm => c.gpu_gemm_efficiency,
            KernelKind::Syevd => c.gpu_syevd_efficiency,
            _ => flop_efficiency(d.arithmetic_intensity(), c.gpu_eff_low_ai, c.gpu_eff_low_ai),
        };
        let compute = d.cost.flops as f64 / (c.gpu_peak_flops * eff);
        let hbm = mix_bandwidth(&self.hbm_profile(), d);
        let memory = d.cost.bytes_total() as f64 / hbm;
        // Device-memory residency: the slice of this stage's working set
        // that does not fit device memory is staged over PCIe once per
        // stage (tiled out-of-core execution).
        let excess = (d.working_set as f64 - self.consts.gpu_device_memory as f64).max(0.0);
        let residency_transfer = excess / c.gpu_pcie_bw;
        let (comm, transfer) = match (d.kind, self.policy) {
            (KernelKind::Alltoall, GpuAlltoallPolicy::HostStaged) => {
                // Down to host, MPI, back up: the tensor crosses PCIe twice.
                (0.0, 2.0 * d.comm_volume as f64 / c.gpu_pcie_bw)
            }
            (KernelKind::Alltoall, GpuAlltoallPolicy::DeviceDirect) => {
                (d.comm_volume as f64 / c.gpu_a2a_bw, 0.0)
            }
            // Per-iteration input staging: the host-resident DFT driver
            // ships the orbital/projector working set to the devices at
            // the head of the pipeline (the paper's §I data-movement
            // critique).
            (KernelKind::PseudoUpdate, _) => (0.0, d.working_set as f64 / c.gpu_pcie_bw),
            _ => (0.0, 0.0),
        };
        StageTime {
            compute,
            memory,
            comm,
            transfer: transfer + residency_transfer,
            overhead: c.gpu_launch_overhead,
        }
    }
}

// --------------------------------------------------------------------
// The CPU-NDP system (NDFT) — host side and NDP side.
// --------------------------------------------------------------------

/// Where a stage executes in the CPU-NDP system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Side {
    /// Host CPU cores.
    Host,
    /// NDP units in the stacks.
    Ndp,
}

/// Times stages on either side of the CPU-NDP system.
#[derive(Debug, Clone)]
pub struct CpuNdpMachine {
    host_peak: f64,
    host_cores: usize,
    ndp_peak: f64,
    ndp_cores: usize,
    host_profile: BandwidthProfile,
    ndp_profile: BandwidthProfile,
    topology: ProcessTopology,
    consts: ModelConstants,
    /// Extra communication time charged to the pseudopotential stage for
    /// the shared-block gather (set only by [`crate::MeasuredTimer`]).
    pub(crate) pseudo_gather_time: f64,
}

impl CpuNdpMachine {
    /// Builds the hybrid machine from the Table III config and measured
    /// calibration; only [`crate::MeasuredTimer`] adds the gather.
    pub(crate) fn new(sys: &SystemConfig, cal: &Calibration, consts: ModelConstants) -> Self {
        CpuNdpMachine {
            host_peak: sys.cpu_peak_flops(),
            host_cores: sys.cpu.cores,
            ndp_peak: sys.ndp_peak_flops(),
            ndp_cores: sys.ndp.total_cores(),
            host_profile: cal.host_to_stack,
            ndp_profile: cal.ndp_aggregate,
            topology: ProcessTopology::new(
                sys.ndp.stacks,
                sys.ndp.units_per_stack * sys.ndp.cores_per_unit,
            ),
            consts,
            pseudo_gather_time: 0.0,
        }
    }

    /// Times a stage on a given side (no boundary transfers — the engine
    /// attributes those from the plan).
    pub fn time_on(&self, d: &KernelDescriptor, side: Side) -> StageTime {
        let c = &self.consts;
        match side {
            Side::Host => {
                let util = (d.parallelism as f64 / self.host_cores as f64).clamp(1e-3, 1.0);
                let eff = flop_efficiency(
                    d.arithmetic_intensity(),
                    c.host_eff_low_ai,
                    c.host_eff_high_ai,
                );
                let compute = d.cost.flops as f64 / (self.host_peak * eff * util);
                let memory = d.cost.bytes_total() as f64 / mix_bandwidth(&self.host_profile, d);
                // An all-to-all executed by the host crosses the link twice.
                let comm = 2.0 * d.comm_volume as f64 / self.host_profile.stream_bw;
                StageTime {
                    compute,
                    memory,
                    comm,
                    transfer: 0.0,
                    overhead: 0.0,
                }
            }
            Side::Ndp => {
                let util = (d.parallelism as f64 / self.ndp_cores as f64).clamp(1e-3, 1.0);
                let eff = flop_efficiency(
                    d.arithmetic_intensity(),
                    c.ndp_eff_low_ai,
                    c.ndp_eff_high_ai,
                );
                let compute = d.cost.flops as f64 / (self.ndp_peak * eff * util);
                let memory =
                    d.cost.bytes_total() as f64 / (mix_bandwidth(&self.ndp_profile, d) * util);
                // All-to-all: the inter-stack share crosses the mesh
                // bisection; the intra-stack share moves at stack speed.
                let vols = alltoall_volume(d.comm_volume, self.topology);
                let comm = vols.inter_domain as f64 / c.ndp_bisection_bw
                    + vols.intra_domain as f64 / self.ndp_profile.stream_bw;
                let gather = if d.kind == KernelKind::PseudoUpdate {
                    self.pseudo_gather_time
                } else {
                    0.0
                };
                StageTime {
                    compute,
                    memory,
                    comm: comm + gather,
                    transfer: 0.0,
                    overhead: c.ndp_dispatch_overhead,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib;
    use ndft_dft::{build_task_graph, SiliconSystem};

    fn stage(kind: KernelKind, atoms: usize) -> KernelDescriptor {
        build_task_graph(&SiliconSystem::new(atoms).unwrap(), 1).stages_of(kind)[0].clone()
    }

    fn cpu() -> CpuBaselineMachine {
        CpuBaselineMachine::new(
            calib::baseline_config(),
            calib::measured(),
            ModelConstants::paper_default(),
        )
    }

    fn hybrid() -> CpuNdpMachine {
        CpuNdpMachine::new(
            calib::system_config(),
            calib::measured(),
            ModelConstants::paper_default(),
        )
    }

    #[test]
    fn stage_time_total_is_bottleneck_plus_serial_terms() {
        let t = StageTime {
            compute: 2.0,
            memory: 3.0,
            comm: 1.0,
            transfer: 0.5,
            overhead: 0.1,
        };
        assert!((t.total() - 3.6).abs() < 1e-12);
    }

    #[test]
    fn ndp_crushes_cpu_on_large_fft() {
        let fft = stage(KernelKind::Fft, 1024);
        let cpu_t = cpu().time_stage(&fft).total();
        let ndp_t = hybrid().time_on(&fft, Side::Ndp).total();
        let speedup = cpu_t / ndp_t;
        assert!(
            speedup > 8.0 && speedup < 16.0,
            "FFT speedup {speedup} (paper: 11.2×)"
        );
    }

    #[test]
    fn host_beats_ndp_on_large_gemm() {
        let gemm = stage(KernelKind::Gemm, 1024);
        let m = hybrid();
        let host = m.time_on(&gemm, Side::Host).total();
        let ndp = m.time_on(&gemm, Side::Ndp).total();
        assert!(host < ndp, "host {host} vs ndp {ndp}");
    }

    #[test]
    fn gpu_alltoall_staging_dominates() {
        let a2a = stage(KernelKind::Alltoall, 1024);
        let staged = GpuBaselineMachine::new(
            ModelConstants::paper_default(),
            GpuAlltoallPolicy::HostStaged,
        );
        let direct = GpuBaselineMachine::new(
            ModelConstants::paper_default(),
            GpuAlltoallPolicy::DeviceDirect,
        );
        let ts = staged.time_stage(&a2a).total();
        let td = direct.time_stage(&a2a).total();
        assert!(ts > 3.0 * td, "staged {ts} vs direct {td}");
    }

    #[test]
    fn gpu_residency_degrades_when_oversubscribed() {
        // The Si_2048 FFT working set (~120 GB) exceeds the 64 GB of
        // device memory; the excess streams over PCIe.
        let fft = stage(KernelKind::Fft, 2048);
        assert!(fft.working_set > ModelConstants::paper_default().gpu_device_memory);
        let gpu = GpuBaselineMachine::new(
            ModelConstants::paper_default(),
            GpuAlltoallPolicy::HostStaged,
        );
        let spilled = gpu.time_stage(&fft);
        assert!(
            spilled.transfer > 0.0,
            "excess working set must stage over PCIe"
        );
        let mut resident_stage = fft.clone();
        resident_stage.working_set = 1 << 30;
        let resident = gpu.time_stage(&resident_stage);
        assert!(spilled.total() > 1.5 * resident.total());
    }

    #[test]
    fn cpu_llc_helps_small_working_sets() {
        let mut d = stage(KernelKind::FaceSplitting, 64);
        let big = cpu().time_stage(&d).memory;
        d.working_set = 1 << 20; // pretend it fits the LLC
        let small = cpu().time_stage(&d).memory;
        assert!(small < big, "LLC-resident {small} vs streaming {big}");
    }

    #[test]
    fn pseudo_gather_charges_only_pseudo_stage() {
        let mut m = hybrid();
        m.pseudo_gather_time = 0.5;
        let pseudo = stage(KernelKind::PseudoUpdate, 64);
        let fft = stage(KernelKind::Fft, 64);
        assert!(m.time_on(&pseudo, Side::Ndp).comm >= 0.5);
        assert!(m.time_on(&fft, Side::Ndp).comm < 0.5);
    }

    #[test]
    fn machine_names_match_legends() {
        assert_eq!(cpu().name(), "CPU");
        let gpu = GpuBaselineMachine::new(
            ModelConstants::paper_default(),
            GpuAlltoallPolicy::HostStaged,
        );
        assert_eq!(gpu.name(), "GPU");
    }
}
