//! Property-based tests of the planners over arbitrary kernel chains.

use ndft_dft::workload::{KernelDescriptor, KernelKind};
use ndft_numerics::KernelCost;
use ndft_sched::anneal::{plan_anneal, AnnealOptions, Objective, PowerModel};
use ndft_sched::{plan, PlacementPolicy, PlanRequest, StaticCodeAnalyzer, Target};
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

    /// The annealer on the time objective is sandwiched between the DP
    /// optimum and the greedy baseline.
    #[test]
    fn annealer_time_between_dp_and_greedy(
        stages in prop::collection::vec(arb_stage(), 1..8),
        seed in 0u64..100,
    ) {
        let sca = StaticCodeAnalyzer::paper_default();
        let power = PowerModel::paper_default();
        let opts = AnnealOptions { iterations: 4000, seed, ..AnnealOptions::default() };
        let sa = plan_anneal(&stages, &sca, &power, Objective::Time, &opts);
        let dp = plan(&stages, &sca, &PlanRequest::default());
        let greedy = plan(&stages, &sca, &request(PlacementPolicy::Greedy));
        prop_assert!(sa.plan.total_time() + 1e-12 >= dp.total_time());
        prop_assert!(sa.plan.total_time() <= greedy.total_time() + 1e-12);
    }

    /// Energy accounting is consistent: the pinned-CPU plan's energy is
    /// exactly busy power × time, and adding crossings only adds energy.
    #[test]
    fn energy_model_is_consistent(
        stages in prop::collection::vec(arb_stage(), 2..8)
    ) {
        let sca = StaticCodeAnalyzer::paper_default();
        let power = PowerModel::paper_default();
        let pinned = plan(&stages, &sca, &request(PlacementPolicy::CpuPinned));
        let e = power.plan_energy(&stages, &pinned.placement, &sca);
        prop_assert!((e - pinned.compute_time * power.cpu_watts).abs() <= 1e-9 * e.max(1e-12));
        // A placement with one crossing pays link energy on top of busy.
        let mut crossing = vec![Target::Cpu; stages.len()];
        crossing[stages.len() - 1] = Target::Ndp;
        let busy: f64 = stages
            .iter()
            .zip(&crossing)
            .map(|(s, &t)| {
                sca.estimate_time(s, t)
                    * match t {
                        Target::Cpu => power.cpu_watts,
                        Target::Ndp => power.ndp_watts,
                    }
            })
            .sum();
        let with_link = power.plan_energy(&stages, &crossing, &sca);
        prop_assert!(with_link + 1e-15 >= busy);
    }
}
