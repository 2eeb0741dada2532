//! Cross-iteration overlap (software pipelining) of the hybrid plan —
//! an extension beyond the paper's serial schedule.
//!
//! LR-TDDFT response calculations iterate; once the pipeline is split
//! between the host CPU and the NDP side, the two resources can work on
//! *different iterations* concurrently: while the NDP units chew through
//! iteration `i+1`'s memory-bound stages, the host finishes iteration
//! `i`'s GEMM/SYEVD. In steady state the per-iteration time drops from
//! `T_host + T_ndp` to `max(T_host, T_ndp)` (boundary transfers stay
//! serial — the data they carry is the cross-iteration dependency).

use crate::planner::{Plan, StageTimer};
use crate::sca::Target;
use ndft_dft::KernelDescriptor;
use serde::{Deserialize, Serialize};

/// Overlap analysis of one placement plan.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverlapAnalysis {
    /// Σ host-stage times per iteration, seconds.
    pub host_time: f64,
    /// Σ NDP-stage times per iteration, seconds.
    pub ndp_time: f64,
    /// Boundary (Eq. 1) time per iteration — never overlapped.
    pub boundary_time: f64,
    /// Serial per-iteration time (`host + ndp + boundary`).
    pub serial_per_iteration: f64,
    /// Steady-state overlapped per-iteration time
    /// (`max(host, ndp) + boundary`).
    pub overlapped_per_iteration: f64,
}

impl OverlapAnalysis {
    /// Total time for `iterations` with overlap (pipeline fill pays one
    /// full serial iteration).
    fn total_overlapped(&self, iterations: usize) -> f64 {
        if iterations == 0 {
            return 0.0;
        }
        self.serial_per_iteration + (iterations - 1) as f64 * self.overlapped_per_iteration
    }

    /// Total time for `iterations` without overlap.
    fn total_serial(&self, iterations: usize) -> f64 {
        iterations as f64 * self.serial_per_iteration
    }

    /// Speedup from overlapping at a given iteration count (≥ 1).
    pub fn speedup(&self, iterations: usize) -> f64 {
        let o = self.total_overlapped(iterations);
        if o == 0.0 {
            1.0
        } else {
            self.total_serial(iterations) / o
        }
    }

    /// Asymptotic speedup as iterations → ∞.
    pub fn asymptotic_speedup(&self) -> f64 {
        if self.overlapped_per_iteration == 0.0 {
            1.0
        } else {
            self.serial_per_iteration / self.overlapped_per_iteration
        }
    }
}

/// Analyzes a plan for cross-iteration overlap.
///
/// # Panics
///
/// Panics if the plan's placement length differs from `stages`.
///
/// # Examples
///
/// ```
/// use ndft_sched::{analyze_overlap, plan, PlanRequest, StaticCodeAnalyzer};
/// use ndft_dft::{build_task_graph, SiliconSystem};
///
/// let sca = StaticCodeAnalyzer::paper_default();
/// let graph = build_task_graph(&SiliconSystem::large(), 1);
/// let plan = plan(&graph.stages, &sca, &PlanRequest::default());
/// let overlap = analyze_overlap(&graph.stages, &plan, &sca);
/// // Overlap can only help.
/// assert!(overlap.speedup(10) >= 1.0);
/// ```
pub fn analyze_overlap(
    stages: &[KernelDescriptor],
    plan: &Plan,
    timer: &dyn StageTimer,
) -> OverlapAnalysis {
    assert_eq!(
        stages.len(),
        plan.placement.len(),
        "plan/stage length mismatch"
    );
    let mut host = 0.0;
    let mut ndp = 0.0;
    for (stage, &target) in stages.iter().zip(&plan.placement) {
        let t = timer.stage_time(stage, target);
        match target {
            Target::Cpu => host += t,
            Target::Ndp => ndp += t,
        }
    }
    let boundary = plan.sched_overhead;
    let serial = host + ndp + boundary;
    OverlapAnalysis {
        host_time: host,
        ndp_time: ndp,
        boundary_time: boundary,
        serial_per_iteration: serial,
        overlapped_per_iteration: host.max(ndp) + boundary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan, PlacementPolicy, PlanRequest};
    use crate::sca::StaticCodeAnalyzer;
    use ndft_dft::{build_task_graph, SiliconSystem};

    fn setup(atoms: usize) -> (Vec<KernelDescriptor>, StaticCodeAnalyzer) {
        (
            build_task_graph(&SiliconSystem::new(atoms).unwrap(), 1).stages,
            StaticCodeAnalyzer::paper_default(),
        )
    }

    #[test]
    fn overlap_never_slower_than_serial() {
        let (stages, sca) = setup(1024);
        let plan = plan(&stages, &sca, &PlanRequest::default());
        let o = analyze_overlap(&stages, &plan, &sca);
        for k in [1usize, 2, 5, 50] {
            assert!(
                o.total_overlapped(k) <= o.total_serial(k) + 1e-12,
                "k = {k}"
            );
            assert!(o.speedup(k) >= 1.0);
        }
    }

    #[test]
    fn single_iteration_gains_nothing() {
        let (stages, sca) = setup(256);
        let plan = plan(&stages, &sca, &PlanRequest::default());
        let o = analyze_overlap(&stages, &plan, &sca);
        assert!((o.speedup(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pinned_plans_cannot_overlap() {
        let (stages, sca) = setup(256);
        let plan = plan(
            &stages,
            &sca,
            &PlanRequest {
                policy: PlacementPolicy::NdpPinned,
                ..PlanRequest::default()
            },
        );
        let o = analyze_overlap(&stages, &plan, &sca);
        assert_eq!(o.host_time, 0.0);
        assert!((o.asymptotic_speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_grows_with_iterations_toward_asymptote() {
        let (stages, sca) = setup(1024);
        let plan = plan(&stages, &sca, &PlanRequest::default());
        let o = analyze_overlap(&stages, &plan, &sca);
        let s2 = o.speedup(2);
        let s10 = o.speedup(10);
        let s100 = o.speedup(100);
        assert!(s2 <= s10 && s10 <= s100);
        assert!(s100 <= o.asymptotic_speedup() + 1e-12);
    }

    #[test]
    fn balanced_sides_double_throughput_in_the_limit() {
        // Synthetic check: equal host and NDP time, no boundary.
        let o = OverlapAnalysis {
            host_time: 1.0,
            ndp_time: 1.0,
            boundary_time: 0.0,
            serial_per_iteration: 2.0,
            overlapped_per_iteration: 1.0,
        };
        assert!((o.asymptotic_speedup() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_iterations_is_zero_time() {
        let (stages, sca) = setup(64);
        let plan = plan(&stages, &sca, &PlanRequest::default());
        let o = analyze_overlap(&stages, &plan, &sca);
        assert_eq!(o.total_overlapped(0), 0.0);
    }
}
