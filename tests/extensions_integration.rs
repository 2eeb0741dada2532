//! Integration tests spanning the oracle modules: the iterative
//! eigensolver on real response Hamiltonians, Casida-vs-TDA ordering, and
//! the core timing model against the calibration.

use ndft::dft::casida::{run_casida, solve_tda_iterative};
use ndft::dft::SiliconSystem;
use ndft::sim::timing::{CoreModel, KernelTrace, MemPort};
use ndft::sim::{AccessPattern, Calibration, SystemConfig};

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
