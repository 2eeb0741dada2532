//! Integration tests spanning the oracle and ablation modules: the
//! iterative eigensolver on real response Hamiltonians, Casida-vs-TDA
//! ordering, the core timing model against the calibration, and the DRAM
//! controller-policy and memory-generation ablations.

use ndft::dft::casida::{run_casida, solve_tda_iterative};
use ndft::dft::SiliconSystem;
use ndft::sim::timing::{CoreModel, KernelTrace, MemPort};
use ndft::sim::{
    AccessPattern, Calibration, DramModel, DramTimings, MemRequest, RowPolicy, SchedPolicy,
    SystemConfig,
};

#[test]
fn casida_bounds_tda_across_small_systems() {
    for atoms in [16usize, 32, 64] {
        let sys = SiliconSystem::new(atoms).expect("paper size");
        let res = run_casida(&sys).expect("stable silicon reference");
        for (i, (c, t)) in res.energies_ev.iter().zip(&res.tda_energies_ev).enumerate() {
            assert!(
                c <= &(t + 1e-9),
                "Si_{atoms} state {i}: casida {c} > tda {t}"
            );
        }
        assert!(res.optical_gap() > 0.0, "Si_{atoms}: gap must be positive");
    }
}

#[test]
fn iterative_solver_reproduces_casida_tda_gap() {
    // The Davidson TDA gap and run_casida's dense TDA gap are the same
    // real-gauge quantity computed by two different algorithms.
    let sys = SiliconSystem::new(32).expect("paper size");
    let dense = run_casida(&sys).expect("stable");
    let iterative = solve_tda_iterative(&sys, 1).expect("converges");
    assert!(
        (iterative[0] - dense.tda_optical_gap()).abs() < 1e-6,
        "davidson {} vs dense {}",
        iterative[0],
        dense.tda_optical_gap()
    );
}

#[test]
fn core_model_agrees_with_calibration_on_streaming_bandwidth() {
    // An NDP core streaming with its prefetcher should achieve a large
    // fraction of its configured bandwidth share — tying the per-core
    // model to the DRAM-level calibration.
    let sys = SystemConfig::paper_table3();
    let cal = Calibration::PAPER_TABLE3;
    let cores_per_stack = (sys.ndp.units_per_stack * sys.ndp.cores_per_unit) as f64;
    let share = cal.ndp_stack.stream_bw / cores_per_stack;
    let port = MemPort {
        fill_latency_s: cal.ndp_stack.idle_latency,
        bandwidth_bps: share,
    };
    let mut core = CoreModel::ndp_core(&sys.ndp, port);
    let n = 65_536;
    let trace = KernelTrace::from_mix(n, 0.0, AccessPattern::Stream, 3);
    let r = core.run(&trace);
    let bytes = (r.dram_fills + r.prefetch_issued) as f64 * 64.0;
    let achieved = bytes / r.seconds(sys.ndp.clock_hz);
    assert!(
        achieved > 0.5 * share,
        "achieved {achieved:.3e} vs share {share:.3e}"
    );
    assert!(achieved <= share * 1.05, "cannot beat the configured share");
}

#[test]
fn controller_policy_ordering_holds_on_stream_traffic() {
    // Table III's controller (FR-FCFS + open page) must dominate the
    // ablation variants on the streaming traffic LR-TDDFT generates.
    let t = DramTimings::hbm2();
    let reqs: Vec<MemRequest> = (0..16_384u64)
        .map(|i| MemRequest {
            addr: i * 32,
            is_write: false,
            arrival: 0,
        })
        .collect();
    let bw = |sched, row| {
        let mut d = DramModel::with_policies(t, 8, 16, 2048, sched, row);
        d.service_batch(&reqs).bandwidth(t.clock_hz)
    };
    let paper = bw(SchedPolicy::FrFcfs, RowPolicy::OpenPage);
    let closed = bw(SchedPolicy::FrFcfs, RowPolicy::ClosedPage);
    assert!(
        paper > 1.5 * closed,
        "open {paper:.3e} vs closed {closed:.3e}"
    );
}

#[test]
fn next_gen_memory_lifts_both_sides_of_the_comparison() {
    // HBM3 > HBM2 for the stacks, DDR5 > DDR4 for the baseline — the
    // design-space direction the ablation harness reports.
    let stream = |timings: DramTimings, channels: usize, row_bytes: usize| {
        let mut d = DramModel::new(timings, channels, 16, row_bytes);
        let reqs: Vec<MemRequest> = (0..16_384u64)
            .map(|i| MemRequest {
                addr: i * timings.burst_bytes as u64,
                is_write: false,
                arrival: 0,
            })
            .collect();
        d.service_batch(&reqs).bandwidth(timings.clock_hz)
    };
    assert!(stream(DramTimings::hbm3(), 8, 2048) > 1.3 * stream(DramTimings::hbm2(), 8, 2048));
    assert!(stream(DramTimings::ddr5(), 8, 8192) > 1.5 * stream(DramTimings::ddr4(), 8, 8192));
}
