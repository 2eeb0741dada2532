//! What if the static code analyzer is wrong?
//!
//! NDFT's offloader (§IV-A) trusts its static estimates forever. This
//! example stresses that choice: it simulates a runtime whose true kernel
//! times deviate from the SCA's beliefs, runs the online scheduler
//! (EWMA feedback + probing + hysteresis) against the frozen static
//! plan, and also shows what changes when the objective is energy or
//! energy-delay product instead of time.
//!
//! Run with: `cargo run --release --example adaptive_scheduling`

use ndft::dft::{build_task_graph, SiliconSystem};
use ndft::sched::anneal::{plan_anneal, AnnealOptions, Objective, PowerModel};
use ndft::sched::dynamic::{simulate_online, DynamicOptions};
use ndft::sched::{plan, PlanRequest, StaticCodeAnalyzer, Target};

fn main() {
    let sca = StaticCodeAnalyzer::paper_default();
    let stages = build_task_graph(&SiliconSystem::large(), 1).stages;

    // --- 1. The static plan and its energy/EDP alternatives. ---
    let dp = plan(&stages, &sca, &PlanRequest::default());
    println!(
        "Static DP plan (time-optimal): {:.1} ms, {} CPU↔NDP crossings",
        dp.total_time() * 1e3,
        dp.crossings()
    );
    let power = PowerModel::paper_default();
    for (label, objective) in [("energy", Objective::Energy), ("EDP", Objective::Edp)] {
        let out = plan_anneal(&stages, &sca, &power, objective, &AnnealOptions::default());
        let moved = out
            .plan
            .placement
            .iter()
            .zip(&dp.placement)
            .filter(|(a, b)| a != b)
            .count();
        println!(
            "{label}-optimal plan: {:.1} ms, {:.2} J — moves {} stage(s) vs the time plan",
            out.plan.total_time() * 1e3,
            out.energy_joules,
            moved
        );
    }

    // --- 2. Misprediction stress. ---
    println!("\nOnline scheduler vs frozen static plan (true times = SCA × lognormal bias):\n");
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>11}",
        "σ(bias)", "static (ms)", "online (ms)", "oracle (ms)", "migrations"
    );
    for sigma in [0.0, 0.3, 0.8] {
        let mut static_t = 0.0;
        let mut online_t = 0.0;
        let mut oracle_t = 0.0;
        let mut migrations = 0;
        let seeds = 6u64;
        for seed in 0..seeds {
            let opts = DynamicOptions {
                mispredict_sigma: sigma,
                seed,
                iterations: 60,
                ..DynamicOptions::default()
            };
            let r = simulate_online(&stages, &sca, &opts);
            static_t += r.static_time;
            online_t += r.converged_time();
            oracle_t += r.oracle_time;
            migrations += r.migrations;
        }
        let n = seeds as f64;
        println!(
            "{:<8} {:>12.2} {:>12.2} {:>12.2} {:>11}",
            sigma,
            static_t / n * 1e3,
            online_t / n * 1e3,
            oracle_t / n * 1e3,
            migrations
        );
    }
    println!(
        "\nWith an exact SCA (σ = 0) the online layer adds only its probe\n\
         overhead and never migrates — the paper's static choice is free.\n\
         Under heavy misprediction the feedback loop claws back most of the\n\
         gap to the oracle, which bounds how much a profile-guided NDFT\n\
         could gain."
    );

    // --- 3. Where do the plans disagree? ---
    let kinds: Vec<_> = stages.iter().map(|s| format!("{:?}", s.kind)).collect();
    println!("\nStage placements (time-optimal):");
    for (kind, target) in kinds.iter().zip(&dp.placement) {
        let t = match target {
            Target::Cpu => "CPU",
            Target::Ndp => "NDP",
        };
        println!("  {kind:<24} → {t}");
    }
}
