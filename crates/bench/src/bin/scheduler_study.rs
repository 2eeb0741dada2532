//! Scheduler extensions study: objectives beyond time, and adaptation
//! beyond static analysis.
//!
//! 1. **Objective sweep** — simulated-annealing placements minimizing
//!    time, energy, and energy-delay product, against the DP-optimal
//!    time plan (which the annealer must recover on the time objective).
//! 2. **Static vs online** — when the SCA mispredicts, how much does
//!    runtime feedback recover? Eight seeds of biased truth, reporting
//!    static / converged / oracle times and migration behaviour.
//!
//! Run with: `cargo run --release -p ndft-bench --bin scheduler_study`

use ndft_dft::{build_task_graph, SiliconSystem};
use ndft_sched::anneal::{plan_anneal, AnnealOptions, Objective, PowerModel};
use ndft_sched::dynamic::{simulate_online, DynamicOptions};
use ndft_sched::{plan, PlanRequest, StaticCodeAnalyzer};

fn main() {
    ndft_bench::print_header("Scheduler study: objectives & online adaptation");
    let sca = StaticCodeAnalyzer::paper_default();
    let power = PowerModel::paper_default();

    // --- Part 1: objective sweep. ---
    for atoms in [64usize, 1024] {
        let stages = build_task_graph(&SiliconSystem::new(atoms).expect("paper size"), 1).stages;
        let dp = plan(&stages, &sca, &PlanRequest::default());
        println!("Si_{atoms}: placement objectives (annealed, 20k steps)\n");
        println!(
            "{:<22} {:>12} {:>12} {:>14} {:>10}",
            "objective", "time (ms)", "energy (J)", "EDP (J·s)", "NDP stages"
        );
        let mut rows = vec![("DP optimum (time)", dp.placement.clone())];
        for (label, objective) in [
            ("SA: time", Objective::Time),
            ("SA: energy", Objective::Energy),
            ("SA: energy-delay", Objective::Edp),
        ] {
            let out = plan_anneal(&stages, &sca, &power, objective, &AnnealOptions::default());
            rows.push((label, out.plan.placement));
        }
        for (label, placement) in rows {
            let (time, energy) = {
                let t: f64 = stages
                    .iter()
                    .zip(&placement)
                    .map(|(s, &p)| sca.estimate_time(s, p))
                    .sum::<f64>()
                    + {
                        // boundary costs
                        let mut acc = 0.0;
                        for (w, pair) in placement.windows(2).zip(stages.windows(2)) {
                            if w[0] != w[1] {
                                let bytes = pair[0].cost.bytes_written.min(pair[1].cost.bytes_read);
                                acc += sca.cost.boundary(bytes);
                            }
                        }
                        acc
                    };
                let e = power.plan_energy(&stages, &placement, &sca);
                (t, e)
            };
            let ndp = placement
                .iter()
                .filter(|&&p| p == ndft_sched::Target::Ndp)
                .count();
            println!(
                "{:<22} {:>12.3} {:>12.3} {:>14.4} {:>7}/{:<3}",
                label,
                time * 1e3,
                energy,
                time * energy,
                ndp,
                placement.len()
            );
        }
        println!();
    }

    // --- Part 2: static vs online under misprediction. ---
    println!("Online adaptation under SCA misprediction (Si_1024, σ = 0.8):\n");
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>11} {:>8}",
        "seed", "static (ms)", "online (ms)", "oracle (ms)", "migrations", "oracle?"
    );
    let stages = build_task_graph(&SiliconSystem::large(), 1).stages;
    let mut static_total = 0.0;
    let mut online_total = 0.0;
    let mut oracle_total = 0.0;
    for seed in 0..8u64 {
        let opts = DynamicOptions {
            mispredict_sigma: 0.8,
            seed,
            iterations: 60,
            ..DynamicOptions::default()
        };
        let r = simulate_online(&stages, &sca, &opts);
        static_total += r.static_time;
        online_total += r.converged_time();
        oracle_total += r.oracle_time;
        println!(
            "{:<6} {:>12.3} {:>12.3} {:>12.3} {:>11} {:>8}",
            seed,
            r.static_time * 1e3,
            r.converged_time() * 1e3,
            r.oracle_time * 1e3,
            r.migrations,
            if r.matches_oracle { "yes" } else { "no" }
        );
    }
    println!(
        "\nMeans: static {:.3} ms, online {:.3} ms, oracle {:.3} ms — online\n\
         recovers {:.0} % of the gap the SCA's misprediction opened, paying\n\
         ~{:.1} % exploration overhead on seeds where the static plan was\n\
         already optimal.",
        static_total / 8.0 * 1e3,
        online_total / 8.0 * 1e3,
        oracle_total / 8.0 * 1e3,
        100.0 * (static_total - online_total) / (static_total - oracle_total).max(1e-12),
        100.0 * 0.05 * 0.08 // probe fraction × ε, the design overhead bound
    );
}
