//! Focused coverage for `ndft_sched::planner`: agreement between the
//! placement policies on short chains, and bit-level determinism of
//! `Plan` metrics across repeated runs.

use ndft_dft::{build_task_graph, KernelDescriptor, SiliconSystem};
use ndft_sched::{
    plan, split_stages, CostModel, Granularity, PlacementPolicy, Plan, PlanRequest, StageTimer,
    StaticCodeAnalyzer, Target,
};

fn stages(atoms: usize) -> Vec<KernelDescriptor> {
    build_task_graph(&SiliconSystem::new(atoms).unwrap(), 1).stages
}

/// A one-job idle-machine request for `policy`, fused `members` wide.
fn request(policy: PlacementPolicy, members: usize) -> PlanRequest {
    PlanRequest {
        policy,
        members,
        ..PlanRequest::default()
    }
}

/// Plans `chain` under `timer` with each request of `rows`.
fn plans<const N: usize>(
    chain: &[KernelDescriptor],
    timer: &dyn StageTimer,
    rows: [PlanRequest; N],
) -> [Plan; N] {
    rows.map(|row| plan(chain, timer, &row))
}

/// The paper SCA timer with its boundary-cost model zeroed out: with free
/// crossings, greedy per-stage argmin is provably optimal.
struct FreeBoundaryTimer {
    sca: StaticCodeAnalyzer,
    cost: CostModel,
}

impl FreeBoundaryTimer {
    fn new() -> Self {
        FreeBoundaryTimer {
            sca: StaticCodeAnalyzer::paper_default(),
            cost: CostModel {
                transfer_bandwidth: f64::INFINITY,
                transfer_latency: 0.0,
                context_switch: 0.0,
            },
        }
    }
}

impl StageTimer for FreeBoundaryTimer {
    fn stage_time(&self, stage: &KernelDescriptor, target: Target) -> f64 {
        self.sca.estimate_time(stage, target)
    }
    fn cost_model(&self) -> &CostModel {
        &self.cost
    }
}

const GREEDY: PlacementPolicy = PlacementPolicy::Greedy;
const EXHAUSTIVE: PlacementPolicy = PlacementPolicy::Exhaustive;
const DP: PlacementPolicy = PlacementPolicy::CostAware;

#[test]
fn greedy_matches_exhaustive_when_boundaries_are_free() {
    let timer = FreeBoundaryTimer::new();
    for atoms in [16usize, 64, 256] {
        let s = stages(atoms);
        let [greedy, ex] = plans(&s, &timer, [request(GREEDY, 1), request(EXHAUSTIVE, 1)]);
        assert!(
            (greedy.total_time() - ex.total_time()).abs() <= 1e-12 * ex.total_time().max(1e-12),
            "Si_{atoms}: greedy {} vs exhaustive {}",
            greedy.total_time(),
            ex.total_time()
        );
        assert_eq!(greedy.placement, ex.placement, "Si_{atoms}");
    }
}

#[test]
fn greedy_agrees_with_exhaustive_on_single_stage_chains() {
    // A one-stage chain has no boundaries, so greedy is exact even under
    // the paper cost model.
    let sca = StaticCodeAnalyzer::paper_default();
    for stage in stages(64) {
        let chain = [stage];
        let [greedy, ex] = plans(&chain, &sca, [request(GREEDY, 1), request(EXHAUSTIVE, 1)]);
        assert_eq!(greedy.placement, ex.placement, "{}", chain[0].name);
        assert_eq!(greedy.crossings(), 0);
        assert!((greedy.total_time() - ex.total_time()).abs() <= f64::EPSILON);
    }
}

#[test]
fn greedy_never_beats_exhaustive_on_short_chains() {
    let sca = StaticCodeAnalyzer::paper_default();
    let all = stages(64);
    for window in all.windows(3) {
        let [greedy, ex] = plans(window, &sca, [request(GREEDY, 1), request(EXHAUSTIVE, 1)]);
        assert!(
            ex.total_time() <= greedy.total_time() + 1e-15,
            "exhaustive must lower-bound greedy on {:?}",
            window.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
    }
}

#[test]
fn chain_dp_matches_exhaustive_on_short_chains() {
    let sca = StaticCodeAnalyzer::paper_default();
    let all = stages(64);
    for len in 1..=4usize {
        for window in all.windows(len) {
            let [dp, ex] = plans(window, &sca, [request(DP, 1), request(EXHAUSTIVE, 1)]);
            assert!(
                (dp.total_time() - ex.total_time()).abs() <= 1e-12 * ex.total_time().max(1e-12),
                "len {len}: dp {} vs exhaustive {}",
                dp.total_time(),
                ex.total_time()
            );
        }
    }
}

#[test]
fn chain_dp_matches_exhaustive_on_split_stage_chains() {
    // Calibration refresh (ROADMAP): the DP's exhaustive validation must
    // also cover the finer-grained chains `granularity::split_stages`
    // produces, whose segments have scaled-down costs and therefore very
    // different boundary/compute ratios than whole kernels. A basic-block
    // split of the full chain far exceeds the 24-stage exhaustive guard,
    // so agreement is checked on every short window of the split chain
    // (windows cover all segment-boundary and kernel-boundary seams).
    let sca = StaticCodeAnalyzer::paper_default();
    for atoms in [16usize, 64] {
        let split = split_stages(&stages(atoms), Granularity::BasicBlock);
        assert!(
            split.len() > 24,
            "split chain must exceed the brute-force cap"
        );
        for len in [2usize, 3, 4] {
            for window in split.windows(len).step_by(5) {
                let [dp, ex] = plans(window, &sca, [request(DP, 1), request(EXHAUSTIVE, 1)]);
                assert!(
                    (dp.total_time() - ex.total_time()).abs() <= 1e-12 * ex.total_time().max(1e-12),
                    "Si_{atoms} len {len}: dp {} vs exhaustive {}",
                    dp.total_time(),
                    ex.total_time()
                );
            }
        }
    }
}

#[test]
fn fused_dp_matches_fused_exhaustive_on_split_stage_chains() {
    // The same coverage holds for fused plans: a request's `members`
    // prices boundaries at their amortized share for every policy, so
    // the exhaustive search under the same request must agree on
    // split-stage windows too — exhaustive coverage stays meaningful for
    // fused planning.
    let sca = StaticCodeAnalyzer::paper_default();
    let split = split_stages(&stages(64), Granularity::BasicBlock);
    for members in [2usize, 8] {
        for window in split.windows(4).step_by(9) {
            let [dp, ex] = plans(
                window,
                &sca,
                [request(DP, members), request(EXHAUSTIVE, members)],
            );
            assert!(
                (dp.total_time() - ex.total_time()).abs() <= 1e-12 * ex.total_time().max(1e-12),
                "members {members}: dp {} vs exhaustive {}",
                dp.total_time(),
                ex.total_time()
            );
        }
    }
}

#[test]
fn plan_metrics_are_deterministic_across_runs() {
    let sca = StaticCodeAnalyzer::paper_default();
    for atoms in [16usize, 64, 1024] {
        let s1 = stages(atoms);
        let s2 = stages(atoms);
        for policy in [DP, GREEDY, PlacementPolicy::CpuPinned] {
            let row = request(policy, 1);
            let (a, b) = (plan(&s1, &sca, &row), plan(&s2, &sca, &row));
            // Bit-exact: same placement, same times, same crossings.
            assert_eq!(a.placement, b.placement, "Si_{atoms} {policy:?}");
            assert_eq!(
                a.total_time().to_bits(),
                b.total_time().to_bits(),
                "Si_{atoms} {policy:?} total_time"
            );
            assert_eq!(a.crossings(), b.crossings(), "Si_{atoms} {policy:?}");
        }
    }
}

#[test]
fn exhaustive_is_deterministic_on_small_graphs() {
    let sca = StaticCodeAnalyzer::paper_default();
    let s = stages(16);
    let [a, b] = plans(&s, &sca, [request(EXHAUSTIVE, 1); 2]);
    assert_eq!(a.placement, b.placement);
    assert_eq!(a.total_time().to_bits(), b.total_time().to_bits());
    assert_eq!(a.crossings(), b.crossings());
}

#[test]
fn crossings_consistent_with_placement() {
    let sca = StaticCodeAnalyzer::paper_default();
    let s = stages(256);
    for plan in plans(&s, &sca, [request(DP, 1), request(GREEDY, 1)]) {
        let manual = plan.placement.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(plan.crossings(), manual);
    }
}
