//! Property-based tests of the planners over arbitrary kernel chains.

use ndft_dft::workload::{KernelDescriptor, KernelKind};
use ndft_numerics::KernelCost;
use ndft_sched::{plan, PlacementPolicy, PlanRequest, StaticCodeAnalyzer};
use proptest::prelude::*;

/// An arbitrary kernel stage: random cost mix, pattern mix, parallelism.
fn arb_stage() -> impl Strategy<Value = KernelDescriptor> {
    (
        1u64..(1 << 36), // flops
        1u64..(1 << 32), // bytes read
        1u64..(1 << 30), // bytes written
        0.0f64..1.0,     // stream fraction
        0.0f64..0.5,     // random fraction
        1u64..100_000,   // parallelism
    )
        .prop_map(|(flops, br, bw, stream, random, par)| KernelDescriptor {
            kind: KernelKind::Fft,
            name: "synthetic".to_owned(),
            cost: KernelCost::new(flops, br, bw),
            stream_fraction: stream.min(1.0 - random),
            random_fraction: random,
            working_set: br,
            parallelism: par,
            comm_volume: 0,
        })
}

/// A one-job idle-machine request for `policy`.
fn request(policy: PlacementPolicy) -> PlanRequest {
    PlanRequest {
        policy,
        ..PlanRequest::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The chain DP is optimal: it never loses to brute force, greedy, or
    /// either pinned baseline on any random chain.
    #[test]
    fn dp_is_optimal_on_random_chains(
        stages in prop::collection::vec(arb_stage(), 1..10)
    ) {
        let sca = StaticCodeAnalyzer::paper_default();
        let dp = plan(&stages, &sca, &PlanRequest::default());
        let ex = plan(&stages, &sca, &request(PlacementPolicy::Exhaustive));
        prop_assert!(
            (dp.total_time() - ex.total_time()).abs() <= 1e-9 * ex.total_time().max(1e-12),
            "dp {} vs exhaustive {}", dp.total_time(), ex.total_time()
        );
        for policy in PlacementPolicy::all() {
            let other = plan(&stages, &sca, &request(policy));
            prop_assert!(dp.total_time() <= other.total_time() + 1e-12, "{:?}", policy);
        }
    }

}
