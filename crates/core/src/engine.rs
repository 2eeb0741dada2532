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
    let machine = GpuBaselineMachine::new(ModelConstants::paper_default(), policy);
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

/// The CPU-NDP machine the NDFT engine plans on (a [`StageTimer`]) and
/// times plans on ([`MeasuredTimer::report`]): one configuration and
/// calibration, charging one system size's §IV-B/C shared-block gather.
#[derive(Clone)]
pub struct MeasuredTimer {
    machine: CpuNdpMachine,
    cost: CostModel,
}

impl MeasuredTimer {
    /// Builds the machine for `atoms` atoms, simulating the gather: shared
    /// blocks are gathered across stacks through the arbiters once per
    /// iteration; the replicated ablation skips it (at catastrophic
    /// footprint cost).
    pub fn new(
        sys: &ndft_sim::SystemConfig,
        cal: &ndft_sim::Calibration,
        atoms: usize,
        opts: NdftOptions,
    ) -> Self {
        let mut machine = CpuNdpMachine::new(sys, cal, ModelConstants::paper_default());
        if opts.shared_blocks {
            machine.pseudo_gather_time =
                simulate_block_gather(sys, atoms, atom_block_bytes(), opts.comm_scheme).makespan;
        }
        MeasuredTimer {
            machine,
            cost: CostModel::paper_default(),
        }
    }

    /// This machine as each member of a `members`-way fused batch sees
    /// it: the batch gathers the shared blocks once per iteration, so a
    /// member's pseudopotential stage carries `1/members` of the gather
    /// (as `build_task_graph_fused` charges the shared tables).
    pub fn fused(&self, members: usize) -> Self {
        let mut fused = self.clone();
        fused.machine.pseudo_gather_time /= members.max(1) as f64;
        fused
    }

    /// The modeled run of `plan`, a placement of `graph`'s stages made on
    /// this machine: every stage timed on its planned side, plus the
    /// plan's Eq. 1 overhead and two per-iteration terms the chain plan
    /// leaves out.
    pub fn report(&self, graph: &TaskGraph, plan: &Plan) -> RunReport {
        debug_assert_eq!(plan.placement.len(), graph.stages.len());
        let stages = graph
            .stages
            .iter()
            .zip(&plan.placement)
            .map(|(stage, &target)| StageReport {
                name: stage.name.clone(),
                kind: stage.kind,
                target: Some(target),
                time: self.machine.time_on(stage, side_of(target)),
            })
            .collect();
        // Eq. 1 overhead beyond the mid-pipeline crossings: the iterative
        // pipeline also wraps around (last stage feeds the next
        // iteration's first), and the windowed orbitals are staged to the
        // first stage's side every iteration.
        let mut sched_overhead = plan.sched_overhead;
        if let (Some(&first), Some(&last)) = (plan.placement.first(), plan.placement.last()) {
            if first != last {
                let (head, tail) = (&graph.stages[0], &graph.stages[graph.stages.len() - 1]);
                let wrap_bytes = tail.cost.bytes_written.min(head.cost.bytes_read);
                sched_overhead += self.cost.boundary(wrap_bytes);
            }
            if first == Target::Ndp {
                let sys = &graph.system;
                let orbitals = sys.valence_window() + sys.conduction_window();
                sched_overhead += self.cost.dt((orbitals * sys.grid().len()) as u64 * 16);
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
}

fn side_of(target: Target) -> Side {
    match target {
        Target::Cpu => Side::Host,
        Target::Ndp => Side::Ndp,
    }
}

impl StageTimer for MeasuredTimer {
    fn stage_time(&self, stage: &KernelDescriptor, target: Target) -> f64 {
        self.machine.time_on(stage, side_of(target)).total()
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
/// machine: the cost-aware plan (the §IV-A mechanism) under
/// `PlanRequest::default()`, then its report.
pub fn run_ndft_with(graph: &TaskGraph, opts: NdftOptions) -> RunReport {
    let (sys, cal) = (calib::system_config(), calib::measured());
    let machine = MeasuredTimer::new(sys, cal, graph.system.atoms(), opts);
    let plan = plan(&graph.stages, &machine, &PlanRequest::default());
    machine.report(graph, &plan)
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

    /// The NDFT run as it was written before planning and reporting
    /// became separate steps: one body that charges the gather, plans
    /// under `PlanRequest::default()` and times the plan. Kept verbatim
    /// as the differential reference for the engine's entry points.
    fn reference_run_ndft(
        graph: &TaskGraph,
        sys: &ndft_sim::SystemConfig,
        cal: &ndft_sim::Calibration,
        opts: NdftOptions,
    ) -> RunReport {
        struct Timer {
            machine: CpuNdpMachine,
            cost: CostModel,
        }
        impl StageTimer for Timer {
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
        let mut machine = CpuNdpMachine::new(sys, cal, ModelConstants::paper_default());
        machine.pseudo_gather_time = if opts.shared_blocks {
            simulate_block_gather(
                sys,
                graph.system.atoms(),
                atom_block_bytes(),
                opts.comm_scheme,
            )
            .makespan
        } else {
            0.0
        };
        let timer = Timer {
            machine: machine.clone(),
            cost: CostModel::paper_default(),
        };
        let plan: Plan = plan(&graph.stages, &timer, &PlanRequest::default());
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
                let orbital_bytes = ((sys.valence_window() + sys.conduction_window())
                    * sys.grid().len()) as u64
                    * 16;
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

    /// Every ablation of [`NdftOptions`]: shared/replicated blocks ×
    /// hierarchical/flat gather.
    fn ablations() -> Vec<NdftOptions> {
        let mut all = Vec::new();
        for shared_blocks in [true, false] {
            for comm_scheme in [CommScheme::Hierarchical, CommScheme::Flat] {
                all.push(NdftOptions {
                    shared_blocks,
                    comm_scheme,
                });
            }
        }
        all
    }

    #[test]
    fn ndft_runs_match_the_reference_body_bit_for_bit() {
        // `{:?}` prints every f64 in its shortest round-tripping form
        // (sign of zero included), so equal strings mean equal bits.
        let (sys, cal) = (calib::system_config(), calib::measured());
        for atoms in [8usize, 16, 32, 64, 128, 256, 512, 1024] {
            for iterations in [1usize, 3] {
                let g = build_task_graph(&SiliconSystem::new(atoms).unwrap(), iterations);
                for opts in ablations() {
                    let want = format!("{:?}", reference_run_ndft(&g, sys, cal, opts));
                    assert_eq!(format!("{:?}", run_ndft_with(&g, opts)), want, "{opts:?}");
                    if opts == NdftOptions::default() {
                        assert_eq!(format!("{:?}", run_ndft(&g)), want);
                    }
                }
            }
        }
    }

    #[test]
    fn eight_stack_runs_match_the_reference_body_bit_for_bit() {
        // A non-Table-III machine with its own calibration: Table III with
        // 8 stacks on a 2×4 mesh, capacity scaled per stack.
        let mut sys = ndft_sim::SystemConfig::paper_table3();
        let per_stack_capacity = sys.memory.capacity_bytes / sys.ndp.stacks;
        sys.ndp.stacks = 8;
        sys.mesh.width = 2;
        sys.mesh.height = 4;
        sys.memory.capacity_bytes = per_stack_capacity * 8;
        let cal = ndft_sim::Calibration::measure(&sys, calib::baseline_config(), 7);
        for atoms in [8usize, 64, 1024] {
            let g = build_task_graph(&SiliconSystem::new(atoms).unwrap(), 1);
            for opts in ablations() {
                let machine = MeasuredTimer::new(&sys, &cal, atoms, opts);
                let plan = plan(&g.stages, &machine, &PlanRequest::default());
                assert_eq!(
                    format!("{:?}", machine.report(&g, &plan)),
                    format!("{:?}", reference_run_ndft(&g, &sys, &cal, opts)),
                    "Si_{atoms} {opts:?}"
                );
            }
        }
    }

    #[test]
    fn fused_machine_charges_one_gather_per_batch() {
        let g = graph(256);
        let solo = MeasuredTimer::new(
            calib::system_config(),
            calib::measured(),
            256,
            NdftOptions::default(),
        );
        let gather = solo.machine.pseudo_gather_time;
        assert!(gather > 0.0);
        for members in [0usize, 1, 2, 4, 16] {
            let fused = solo.fused(members);
            // K members together carry the one gather the batch runs.
            let share = fused.machine.pseudo_gather_time * members.max(1) as f64;
            assert!(
                (share - gather).abs() <= 1e-12 * gather,
                "members {members}"
            );
            // Nothing else moves: the host side and every other stage.
            for stage in &g.stages {
                let (s, f) = (
                    |t| solo.stage_time(stage, t),
                    |t| fused.stage_time(stage, t),
                );
                assert_eq!(s(Target::Cpu), f(Target::Cpu));
                if stage.kind != KernelKind::PseudoUpdate {
                    assert_eq!(s(Target::Ndp), f(Target::Ndp), "{}", stage.name);
                }
            }
        }
    }

    #[test]
    fn by_kind_sums_to_total_minus_overhead() {
        let r = run_ndft(&graph(256));
        let sum: f64 = r.by_kind().iter().map(|(_, t)| t).sum();
        let expect = r.total() - r.sched_overhead * r.iterations as f64;
        assert!((sum - expect).abs() < 1e-9 * expect.max(1e-12));
    }
}
