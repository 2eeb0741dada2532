//! Property-based tests over the cross-crate invariants.

use ndft::dft::{
    alltoall_volume, build_task_graph, footprint_bytes, ProcessTopology, PseudoLayout,
    SiliconSystem,
};
use ndft::sched::{plan, PlacementPolicy, PlanRequest, StaticCodeAnalyzer};
use ndft::sim::{MeshNoc, SystemConfig};
use proptest::prelude::*;

/// Valid paper-style atom counts (multiples of 8, bounded).
fn atom_count() -> impl Strategy<Value = usize> {
    (1usize..=64).prop_map(|cells| cells * 8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn task_graph_costs_are_positive_and_monotonic(atoms in atom_count()) {
        let small = build_task_graph(&SiliconSystem::new(atoms).unwrap(), 1);
        let bigger = build_task_graph(&SiliconSystem::new(atoms * 2).unwrap(), 1);
        let a = small.total_cost();
        let b = bigger.total_cost();
        prop_assert!(a.flops > 0 && a.bytes_read > 0);
        prop_assert!(b.flops > a.flops, "flops must grow with system size");
        prop_assert!(b.bytes_read > a.bytes_read);
    }

    #[test]
    fn cost_aware_plan_never_loses_to_baselines(atoms in atom_count()) {
        let graph = build_task_graph(&SiliconSystem::new(atoms).unwrap(), 1);
        let sca = StaticCodeAnalyzer::paper_default();
        let dp = plan(&graph.stages, &sca, &PlanRequest::default()).total_time();
        for policy in PlacementPolicy::all() {
            let other = plan(&graph.stages, &sca, &PlanRequest { policy, ..PlanRequest::default() });
            prop_assert!(dp <= other.total_time() + 1e-12, "{:?}", policy);
        }
    }

    #[test]
    fn footprints_grow_with_atoms_and_processes(
        atoms in atom_count(),
        procs in 1usize..64,
    ) {
        let sys = SiliconSystem::new(atoms).unwrap();
        let small = footprint_bytes(
            &sys,
            PseudoLayout::Replicated { processes: procs, staging_overhead_ppm: 0 },
        );
        let more_procs = footprint_bytes(
            &sys,
            PseudoLayout::Replicated { processes: procs + 1, staging_overhead_ppm: 0 },
        );
        prop_assert!(more_procs > small);
        let bigger_sys = SiliconSystem::new(atoms * 2).unwrap();
        let more_atoms = footprint_bytes(
            &bigger_sys,
            PseudoLayout::Replicated { processes: procs, staging_overhead_ppm: 0 },
        );
        prop_assert!(more_atoms > small);
    }

    #[test]
    fn shared_block_layout_never_exceeds_replicated_per_stack(atoms in atom_count()) {
        let sys = SiliconSystem::new(atoms).unwrap();
        let replicated = footprint_bytes(
            &sys,
            PseudoLayout::Replicated { processes: 16, staging_overhead_ppm: 380 },
        );
        let shared = footprint_bytes(
            &sys,
            PseudoLayout::SharedBlock { domains: 16, processes: 256, halo_angstrom: 4.9 },
        );
        prop_assert!(shared <= replicated, "shared {shared} vs replicated {replicated}");
    }

    #[test]
    fn alltoall_volumes_always_partition(
        volume in 1u64..1_000_000_000,
        domains in 1usize..16,
        ppd in 1usize..16,
    ) {
        let v = alltoall_volume(volume, ProcessTopology::new(domains, ppd));
        prop_assert_eq!(v.intra_domain + v.inter_domain, v.total);
        prop_assert!(v.remote_fraction() >= 0.0 && v.remote_fraction() <= 1.0);
    }

    #[test]
    fn noc_transfers_respect_triangle_inequality(
        from in 0usize..16,
        to in 0usize..16,
        bytes in 1u64..1_000_000,
    ) {
        let mut noc = MeshNoc::new(SystemConfig::paper_table3().mesh);
        let direct = noc.transfer(from, to, bytes, 0).latency();
        // A fresh NoC: going via an intermediate stack can never be faster.
        let mid = (from + to) / 2;
        let mut noc2 = MeshNoc::new(SystemConfig::paper_table3().mesh);
        let leg1 = noc2.transfer(from, mid, bytes, 0);
        let leg2 = noc2.transfer(mid, to, bytes, leg1.done);
        prop_assert!(leg2.done >= direct, "two-leg {} vs direct {}", leg2.done, direct);
    }

    #[test]
    fn band_windows_fit_occupation(atoms in atom_count()) {
        let sys = SiliconSystem::new(atoms).unwrap();
        prop_assert!(sys.valence_window() <= sys.occupied_bands());
        prop_assert!(sys.pair_count() >= 12);
        prop_assert!(sys.gsphere_len() <= sys.grid().len());
    }
}
