//! # ndft-bench
//!
//! Benchmark harnesses regenerating every table and figure of the NDFT
//! paper, plus the serving-policy study.
//!
//! Binaries (one per experiment — run with `cargo run -p ndft-bench --bin <name>`):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1_footprint` | Table I + §VI-A footprint metrics |
//! | `table3_config`    | Table III system configuration |
//! | `fig4_roofline`    | Fig. 4 kernel roofline |
//! | `fig7_breakdown`   | Fig. 7 execution-time comparison (a: small, b: large) |
//! | `fig8_scaling`     | Fig. 8 scalability sweep |
//! | `ablations`        | granularity / comm-scheme / GPU-staging ablations |
//! | `core_model`       | per-core cycle breakdown per kernel class |
//! | `solver_study`     | Davidson vs SYEVD; full Casida vs TDA |
//! | `timing_crosscheck`| analytic layer vs cycle-level core model |
//! | `repro_all`        | Fig. 4, 7, 8, Table I, §VI-A → `results/*.csv` + summary |
//! | `validate`         | numeric oracle suite |
//! | `serve_study`      | serving-policy sweep and CI gates → `BENCH_serve.json` |

/// Shared header printed by every harness binary.
pub fn print_header(what: &str) {
    println!("==============================================================");
    println!("NDFT reproduction — {what}");
    println!("Paper: NDFT (DAC 2025), arXiv:2504.03451");
    println!("==============================================================\n");
}
