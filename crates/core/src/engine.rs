//! Execution engine: runs an LR-TDDFT task graph on each evaluation
//! platform and produces per-kernel time breakdowns (the data behind
//! Fig. 7 and Fig. 8).

use crate::calib::{self, ModelConstants};
use crate::machine::{
    CpuBaselineMachine, CpuNdpMachine, GpuAlltoallPolicy, GpuBaselineMachine, Machine, Side,
    StageTime,
};
use ndft_dft::{atom_block_bytes, KernelDescriptor, KernelKind, TaskGraph};
use ndft_sched::{plan, CostModel, Plan, PlanRequest, StageTimer, Target};
use ndft_shmem::{simulate_block_gather, CommScheme};
use serde::{Deserialize, Serialize};

/// Timing of one stage on one platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageReport {
    /// Stage name.
    pub name: String,
    /// Kernel family.
    pub kind: KernelKind,
    /// Placement (only meaningful for the CPU-NDP run).
    pub target: Option<Target>,
    /// Timing breakdown.
    pub time: StageTime,
}

/// One platform's run of a task graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Platform name (CPU / GPU / NDFT).
    pub machine: String,
    /// System label.
    pub system: String,
    /// Iterations multiplier.
    pub iterations: usize,
    /// Per-stage reports for one iteration.
    pub stages: Vec<StageReport>,
    /// CPU↔NDP scheduling overhead per iteration (Eq. 1; zero for the
    /// baselines).
    pub sched_overhead: f64,
}

impl RunReport {
    /// Total wall-clock, seconds.
    pub fn total(&self) -> f64 {
        let per_iter: f64 =
            self.stages.iter().map(|s| s.time.total()).sum::<f64>() + self.sched_overhead;
        per_iter * self.iterations as f64
    }

    /// Time attributed to one kernel family (per full run).
    pub fn kind_time(&self, kind: KernelKind) -> f64 {
        self.stages
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.time.total())
            .sum::<f64>()
            * self.iterations as f64
    }

    /// `(kind, seconds)` breakdown in pipeline order.
    pub fn by_kind(&self) -> Vec<(KernelKind, f64)> {
        KernelKind::all()
            .into_iter()
            .map(|k| (k, self.kind_time(k)))
            .collect()
    }

    /// Speedup of `self` over `other` (>1 means self is faster).
    pub fn speedup_over(&self, other: &RunReport) -> f64 {
        other.total() / self.total()
    }

    /// Scheduling overhead as a fraction of total time.
    pub fn sched_overhead_fraction(&self) -> f64 {
        if self.total() == 0.0 {
            0.0
        } else {
            self.sched_overhead * self.iterations as f64 / self.total()
        }
    }
}

/// Options for the NDFT run (ablation switches).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NdftOptions {
    /// Use the shared-block pseudopotential layout (§IV-B). When false,
    /// every stack replicates blocks and the gather phase disappears —
    /// but the footprint explodes (see `ndft-shmem::footprint`).
    pub shared_blocks: bool,
    /// Inter-stack communication scheme for the block gather.
    pub comm_scheme: CommScheme,
}

impl Default for NdftOptions {
    fn default() -> Self {
        NdftOptions {
            shared_blocks: true,
            comm_scheme: CommScheme::Hierarchical,
        }
    }
}

/// Runs a graph on the standalone CPU baseline.
pub fn run_cpu_baseline(graph: &TaskGraph) -> RunReport {
    let machine = CpuBaselineMachine::new(
        calib::baseline_config(),
        calib::measured(),
        ModelConstants::paper_default(),
    );
    run_machine(graph, &machine)
}

/// Runs a graph on the GPU baseline (host-staged all-to-all, per the
/// implementations the paper compares against).
pub fn run_gpu_baseline(graph: &TaskGraph) -> RunReport {
    run_gpu_with_policy(graph, GpuAlltoallPolicy::HostStaged)
}

/// GPU run with an explicit all-to-all policy (for the ablation).
pub fn run_gpu_with_policy(graph: &TaskGraph, policy: GpuAlltoallPolicy) -> RunReport {
    let peak_ws = graph
        .stages
        .iter()
        .map(|s| s.working_set)
        .max()
        .unwrap_or(0);
    let machine = GpuBaselineMachine::new(ModelConstants::paper_default(), policy, peak_ws);
    run_machine(graph, &machine)
}

fn run_machine(graph: &TaskGraph, machine: &dyn Machine) -> RunReport {
    let stages = graph
        .stages
        .iter()
        .map(|s| StageReport {
            name: s.name.clone(),
            kind: s.kind,
            target: None,
            time: machine.time_stage(s),
        })
        .collect();
    RunReport {
        machine: machine.name().to_string(),
        system: graph.system.label(),
        iterations: graph.iterations,
        stages,
        sched_overhead: 0.0,
    }
}

/// Adapter: the hybrid machine exposed to the cost-aware planner.
pub struct MeasuredTimer {
    machine: CpuNdpMachine,
    cost: CostModel,
}

impl MeasuredTimer {
    /// Builds the planner-facing timer from the measured hybrid machine.
    pub fn new(machine: CpuNdpMachine) -> Self {
        MeasuredTimer {
            machine,
            cost: CostModel::paper_default(),
        }
    }
}

impl StageTimer for MeasuredTimer {
    fn stage_time(&self, stage: &KernelDescriptor, target: Target) -> f64 {
        let side = match target {
            Target::Cpu => Side::Host,
            Target::Ndp => Side::Ndp,
        };
        self.machine.time_on(stage, side).total()
    }

    fn cost_model(&self) -> &CostModel {
        &self.cost
    }
}

/// Runs a graph on the CPU-NDP system with NDFT's cost-aware scheduling,
/// shared-block pseudopotentials, and hierarchical communication.
pub fn run_ndft(graph: &TaskGraph) -> RunReport {
    run_ndft_with(graph, NdftOptions::default())
}

/// NDFT run with explicit ablation options on the paper's Table III
/// machine.
pub fn run_ndft_with(graph: &TaskGraph, opts: NdftOptions) -> RunReport {
    run_ndft_custom(graph, calib::system_config(), calib::measured(), opts)
}

/// NDFT run on an arbitrary CPU-NDP configuration with its own measured
/// calibration — the entry point for design-space sweeps.
pub fn run_ndft_custom(
    graph: &TaskGraph,
    sys: &ndft_sim::SystemConfig,
    cal: &ndft_sim::Calibration,
    opts: NdftOptions,
) -> RunReport {
    let mut machine = CpuNdpMachine::new(sys, cal, ModelConstants::paper_default());
    // Pseudopotential distribution: shared blocks are gathered across
    // stacks through the arbiters once per iteration; the replicated
    // ablation skips the gather (at catastrophic footprint cost).
    machine.pseudo_gather_time = if opts.shared_blocks {
        let report = simulate_block_gather(
            sys,
            graph.system.atoms(),
            atom_block_bytes(),
            opts.comm_scheme,
        );
        report.makespan
    } else {
        0.0
    };

    // Cost-aware placement (the §IV-A mechanism).
    let timer = MeasuredTimer::new(machine.clone());
    let plan: Plan = plan(&graph.stages, &timer, &PlanRequest::default());

    // Time each stage on its planned side and attribute boundary costs.
    let mut stages = Vec::with_capacity(graph.stages.len());
    for (stage, &target) in graph.stages.iter().zip(&plan.placement) {
        let side = match target {
            Target::Cpu => Side::Host,
            Target::Ndp => Side::Ndp,
        };
        stages.push(StageReport {
            name: stage.name.clone(),
            kind: stage.kind,
            target: Some(target),
            time: machine.time_on(stage, side),
        });
    }
    // Eq. 1 overhead beyond the mid-pipeline crossings: the iterative
    // pipeline also wraps around (last stage feeds the next iteration's
    // first), and the windowed orbitals are staged to the first stage's
    // side every iteration.
    let cost = CostModel::paper_default();
    let mut sched_overhead = plan.sched_overhead;
    if let (Some(&first), Some(&last)) = (plan.placement.first(), plan.placement.last()) {
        if first != last {
            let wrap_bytes = graph
                .stages
                .last()
                .map(|s| s.cost.bytes_written)
                .unwrap_or(0)
                .min(graph.stages.first().map(|s| s.cost.bytes_read).unwrap_or(0));
            sched_overhead += cost.boundary(wrap_bytes);
        }
        if first == Target::Ndp {
            let sys = &graph.system;
            let orbital_bytes =
                ((sys.valence_window() + sys.conduction_window()) * sys.grid().len()) as u64 * 16;
            sched_overhead += cost.dt(orbital_bytes);
        }
    }
    RunReport {
        machine: "NDFT".to_string(),
        system: graph.system.label(),
        iterations: graph.iterations,
        stages,
        sched_overhead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndft_dft::{build_task_graph, SiliconSystem};

    fn graph(atoms: usize) -> TaskGraph {
        build_task_graph(&SiliconSystem::new(atoms).unwrap(), 1)
    }

    #[test]
    fn ndft_beats_cpu_on_large_system() {
        let g = graph(1024);
        let cpu = run_cpu_baseline(&g);
        let ndft = run_ndft(&g);
        let speedup = ndft.speedup_over(&cpu);
        assert!(
            speedup > 3.5 && speedup < 7.5,
            "NDFT vs CPU large: {speedup} (paper 5.2×)"
        );
    }

    #[test]
    fn ndft_beats_gpu_on_large_system() {
        let g = graph(1024);
        let gpu = run_gpu_baseline(&g);
        let ndft = run_ndft(&g);
        let speedup = ndft.speedup_over(&gpu);
        assert!(
            speedup > 1.3 && speedup < 4.5,
            "NDFT vs GPU large: {speedup} (paper 2.5×)"
        );
    }

    #[test]
    fn ndft_beats_cpu_on_small_system() {
        let g = graph(64);
        let cpu = run_cpu_baseline(&g);
        let ndft = run_ndft(&g);
        let speedup = ndft.speedup_over(&cpu);
        assert!(
            speedup > 1.2 && speedup < 4.0,
            "NDFT vs CPU small: {speedup} (paper 1.9×)"
        );
    }

    #[test]
    fn fft_speedup_matches_paper_headline() {
        let g = graph(1024);
        let cpu = run_cpu_baseline(&g);
        let ndft = run_ndft(&g);
        let ratio = cpu.kind_time(KernelKind::Fft) / ndft.kind_time(KernelKind::Fft);
        assert!(
            ratio > 8.0 && ratio < 15.0,
            "FFT speedup {ratio} (paper 11.2×)"
        );
    }

    #[test]
    fn sched_overhead_is_single_digit_percent() {
        for atoms in [64usize, 1024] {
            let r = run_ndft(&graph(atoms));
            let f = r.sched_overhead_fraction();
            assert!(
                f < 0.10,
                "Si_{atoms} overhead fraction {f} (paper 3.8–4.9 %)"
            );
        }
    }

    #[test]
    fn gemm_stays_on_cpu_fft_goes_to_ndp() {
        let r = run_ndft(&graph(1024));
        let gemm = r
            .stages
            .iter()
            .find(|s| s.kind == KernelKind::Gemm)
            .unwrap();
        let fft = r.stages.iter().find(|s| s.kind == KernelKind::Fft).unwrap();
        assert_eq!(gemm.target, Some(Target::Cpu));
        assert_eq!(fft.target, Some(Target::Ndp));
    }

    #[test]
    fn hierarchical_comm_beats_flat() {
        let g = graph(1024);
        let hier = run_ndft_with(&g, NdftOptions::default());
        let flat = run_ndft_with(
            &g,
            NdftOptions {
                shared_blocks: true,
                comm_scheme: CommScheme::Flat,
            },
        );
        assert!(hier.total() < flat.total());
    }

    #[test]
    fn totals_scale_with_iterations() {
        let one = run_cpu_baseline(&build_task_graph(&SiliconSystem::small(), 1));
        let four = run_cpu_baseline(&build_task_graph(&SiliconSystem::small(), 4));
        assert!((four.total() - 4.0 * one.total()).abs() < 1e-9 * one.total());
    }

    #[test]
    fn by_kind_sums_to_total_minus_overhead() {
        let r = run_ndft(&graph(256));
        let sum: f64 = r.by_kind().iter().map(|(_, t)| t).sum();
        let expect = r.total() - r.sched_overhead * r.iterations as f64;
        assert!((sum - expect).abs() < 1e-9 * expect.max(1e-12));
    }
}
