//! Cross-crate integration: the numeric pipeline, the workload
//! descriptors that summarize it, the scheduler that places it, and the
//! shared-memory runtime it relies on — all working together.

use ndft::core::{run_ndft, run_ndft_with, MeasuredTimer, NdftOptions};
use ndft::dft::{atom_block_bytes, build_task_graph, run_lr_tddft, KernelKind, SiliconSystem};
use ndft::numerics::{face_splitting_cost, Fft3Plan};
use ndft::sched::{plan, PlacementPolicy, PlanRequest, Target};
use ndft::shmem::{CommScheme, NdftRuntime, UnitId};
use ndft::sim::SystemConfig;

#[test]
fn numeric_spectrum_is_stable_across_runs() {
    let sys = SiliconSystem::new(16).unwrap();
    let a = run_lr_tddft(&sys).unwrap();
    let b = run_lr_tddft(&sys).unwrap();
    assert_eq!(a.energies_ev, b.energies_ev, "driver must be deterministic");
    assert!(a.optical_gap() > 0.0);
}

#[test]
fn descriptor_fft_cost_matches_numeric_plan() {
    // The workload descriptor's FFT cost must equal npair × the actual
    // 3-D plan cost of the system grid (clamped byte model aside).
    let sys = SiliconSystem::new(16).unwrap();
    let graph = build_task_graph(&sys, 1);
    let fft_stage = &graph.stages_of(KernelKind::Fft)[0];
    let plan_cost = Fft3Plan::new(sys.grid()).cost();
    let npair = sys.pair_count() as u64;
    assert_eq!(fft_stage.cost.flops, plan_cost.flops * npair);
}

#[test]
fn descriptor_face_splitting_cost_matches_formula() {
    let sys = SiliconSystem::new(64).unwrap();
    let graph = build_task_graph(&sys, 1);
    let fs = &graph.stages_of(KernelKind::FaceSplitting)[0];
    let expect = face_splitting_cost(sys.pair_count(), sys.grid().len());
    assert_eq!(fs.cost.flops, expect.flops);
    assert_eq!(fs.cost.bytes_written, expect.bytes_written);
}

#[test]
fn measured_planner_matches_exhaustive_on_real_pipeline() {
    let graph = build_task_graph(&SiliconSystem::small(), 1);
    let timer = MeasuredTimer::new(
        &SystemConfig::paper_table3(),
        ndft::core::calib::measured(),
        graph.system.atoms(),
        NdftOptions::default(),
    );
    let dp = plan(&graph.stages, &timer, &PlanRequest::default());
    let ex = plan(
        &graph.stages,
        &timer,
        &PlanRequest {
            policy: PlacementPolicy::Exhaustive,
            ..PlanRequest::default()
        },
    );
    assert!(
        (dp.total_time() - ex.total_time()).abs() <= 1e-9 * ex.total_time().max(1e-12),
        "DP {} vs exhaustive {}",
        dp.total_time(),
        ex.total_time()
    );
}

#[test]
fn ndft_placement_uses_both_sides_on_large_system() {
    let report = run_ndft(&build_task_graph(&SiliconSystem::large(), 1));
    let cpu_stages = report
        .stages
        .iter()
        .filter(|s| s.target == Some(Target::Cpu))
        .count();
    let ndp_stages = report
        .stages
        .iter()
        .filter(|s| s.target == Some(Target::Ndp))
        .count();
    assert!(
        cpu_stages >= 1,
        "compute-bound kernels should stay on the host"
    );
    assert!(ndp_stages >= 4, "memory-bound kernels should offload");
}

#[test]
fn shared_memory_gather_feeds_engine_timing() {
    // Flat comm must slow the pseudopotential stage, and only that stage.
    let graph = build_task_graph(&SiliconSystem::large(), 1);
    let hier = run_ndft_with(&graph, NdftOptions::default());
    let flat = run_ndft_with(
        &graph,
        NdftOptions {
            shared_blocks: true,
            comm_scheme: CommScheme::Flat,
        },
    );
    assert!(flat.kind_time(KernelKind::PseudoUpdate) > hier.kind_time(KernelKind::PseudoUpdate));
    assert_eq!(
        flat.kind_time(KernelKind::Fft),
        hier.kind_time(KernelKind::Fft),
        "other stages unaffected"
    );
}

#[test]
fn runtime_block_lifecycle_for_whole_system() {
    // Allocate one shared block per atom of Si_64 across stacks,
    // broadcast a few, read everywhere, free everything.
    let cfg = SystemConfig::paper_table3();
    let mut rt = NdftRuntime::new(&cfg, CommScheme::Hierarchical);
    let sys = SiliconSystem::small();
    let mut blocks = Vec::new();
    for atom in 0..sys.atoms() {
        let bl = rt.alloc_shared(atom_block_bytes(), atom % 16).unwrap();
        blocks.push(bl);
    }
    assert_eq!(rt.store().live_blocks(), 64);
    // Every stack reads every block once; hierarchical caching bounds the
    // remote ops at (blocks × 15) regardless of unit count.
    for &bl in &blocks {
        for stack in 0..16 {
            for unit in 0..2 {
                rt.read(UnitId { stack, unit }, bl, 4096).unwrap();
            }
        }
    }
    let stats = rt.stats();
    assert_eq!(stats.remote_ops, 64 * 15);
    assert!(stats.filter_rate() > 0.4);
    for bl in blocks {
        rt.free_shared(bl).unwrap();
    }
    assert_eq!(rt.store().live_blocks(), 0);
}

#[test]
fn iterations_amplify_everything_consistently() {
    let g1 = build_task_graph(&SiliconSystem::small(), 1);
    let g5 = build_task_graph(&SiliconSystem::small(), 5);
    let r1 = run_ndft(&g1);
    let r5 = run_ndft(&g5);
    assert!((r5.total() - 5.0 * r1.total()).abs() < 1e-9 * r1.total());
    assert!(
        (r5.sched_overhead_fraction() - r1.sched_overhead_fraction()).abs() < 1e-12,
        "overhead fraction is iteration-invariant"
    );
}

#[test]
fn analytic_alltoall_constant_matches_event_simulation() {
    // The CPU-NDP machine model charges all-to-alls against a 256 GB/s
    // mesh-bisection constant; the event-simulated exchange must land in
    // the same regime (same decade, factor ≤ 3).
    let cfg = SystemConfig::paper_table3();
    let r = ndft::shmem::simulate_alltoall(&cfg, 8 << 30, ndft::sim::Topology::Mesh);
    let analytic = ndft::core::ModelConstants::paper_default().ndp_bisection_bw;
    let ratio = r.effective_bandwidth / analytic;
    assert!(
        (0.33..3.0).contains(&ratio),
        "simulated {:.3e} vs analytic {:.3e} (ratio {ratio})",
        r.effective_bandwidth,
        analytic
    );
}

#[test]
fn self_consistent_scf_feeds_response_pipeline() {
    // The full physics chain: SCF density loop → orbitals → LR-TDDFT.
    let sys = SiliconSystem::new(16).unwrap();
    let nv = 4;
    let opts = ndft::dft::ScfOptions {
        bands: nv + 3,
        max_iterations: 2,
        ..Default::default()
    };
    let sc = ndft::dft::run_scf_selfconsistent(&sys, &opts, nv, 2, 0.5, None).unwrap();
    let gs = &sc.ground_state;
    let orbitals = gs.real_space_orbitals(&sys);
    let nr = sys.grid().len();
    let dv = sys.volume() / nr as f64;
    let s = 1.0 / dv.sqrt();
    let take = |range: std::ops::Range<usize>| {
        let mut data = Vec::new();
        for r in range.clone() {
            data.extend(orbitals.row(r).iter().map(|z| z.scale(s)));
        }
        ndft::numerics::CMat::from_vec(range.len(), nr, data)
    };
    let valence = take(0..nv);
    let conduction = take(nv..nv + 3);
    let spectrum = ndft::dft::lr_tddft_from_orbitals(
        &sys,
        &valence,
        &conduction,
        &gs.energies_ev[..nv],
        &gs.energies_ev[nv..nv + 3],
    )
    .unwrap();
    assert!(spectrum.optical_gap() > 0.0);
    assert!(spectrum.hermiticity_error < 1e-8);
}

#[test]
fn umbrella_crate_reexports_work() {
    // The `ndft` facade exposes every subsystem.
    let _ = ndft::numerics::FftPlan::new(8);
    let _ = ndft::sim::SystemConfig::paper_table3();
    let _ = ndft::dft::SiliconSystem::small();
    let _ = ndft::sched::StaticCodeAnalyzer::paper_default();
    let _ = ndft::shmem::table1_rows();
    let _ = ndft::core::table1();
}
