//! Offload-decision explorer: watch the §IV-A machinery work.
//!
//! For a chosen system size this prints the static code analyzer's
//! per-kernel verdicts, compares the cost-aware DP plan against greedy
//! and pinned baselines, and reproduces the offload-granularity study
//! behind the paper's function-level design choice.
//!
//! Run with: `cargo run --release --example offload_explorer [atoms]`

use ndft::dft::{build_task_graph, SiliconSystem};
use ndft::sched::{
    granularity_study, plan, PlacementPolicy, PlanRequest, StaticCodeAnalyzer, Target,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let atoms: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(1024);
    let system = SiliconSystem::new(atoms)?;
    let graph = build_task_graph(&system, 1);
    let sca = StaticCodeAnalyzer::paper_default();

    println!("=== Static code analysis of {} ===", system);
    println!(
        "{:<34} {:>10} {:>14} {:>12} {:>12} {:>6}",
        "stage", "AI (F/B)", "class", "CPU est.", "NDP est.", "pref"
    );
    for stage in &graph.stages {
        let a = sca.analyze(stage);
        println!(
            "{:<34} {:>10.3} {:>14} {:>11.2}ms {:>11.2}ms {:>6}",
            stage.name,
            a.intensity,
            match a.boundedness {
                ndft::sched::Boundedness::MemoryBound => "memory-bound",
                ndft::sched::Boundedness::ComputeBound => "compute-bound",
            },
            a.cpu_time * 1e3,
            a.ndp_time * 1e3,
            match a.preferred {
                Target::Cpu => "CPU",
                Target::Ndp => "NDP",
            }
        );
    }

    println!("\n=== Placement plans (predicted total, Eq. 1 overhead) ===");
    let by = |policy| {
        let request = PlanRequest {
            policy,
            ..PlanRequest::default()
        };
        plan(&graph.stages, &sca, &request)
    };
    let dp = by(PlacementPolicy::CostAware);
    let greedy = by(PlacementPolicy::Greedy);
    let cpu_only = by(PlacementPolicy::CpuPinned);
    let ndp_only = by(PlacementPolicy::NdpPinned);
    for (name, plan) in [
        ("cost-aware DP (NDFT)", &dp),
        ("greedy per-stage", &greedy),
        ("CPU-only", &cpu_only),
        ("NDP-only", &ndp_only),
    ] {
        println!(
            "{:<22} total {:>10.2} ms  overhead {:>8.3} ms  crossings {}",
            name,
            plan.total_time() * 1e3,
            plan.sched_overhead * 1e3,
            plan.crossings()
        );
    }
    if graph.stages.len() <= 24 {
        let exhaustive = by(PlacementPolicy::Exhaustive);
        println!(
            "{:<22} total {:>10.2} ms  (validates the DP: {})",
            "exhaustive 2^n",
            exhaustive.total_time() * 1e3,
            if (exhaustive.total_time() - dp.total_time()).abs() < 1e-9 * dp.total_time().max(1e-12)
            {
                "match"
            } else {
                "MISMATCH"
            }
        );
    }
    println!("\nDP placement:");
    for (stage, target) in graph.stages.iter().zip(&dp.placement) {
        println!("  {:<34} → {:?}", stage.name, target);
    }

    println!("\n=== Offload granularity (§IV-A-1) ===");
    for g in granularity_study(&graph.stages, &sca) {
        println!(
            "  {:<12} {:>7} segments  total {:>10.2} ms  overhead {:>10.3} ms",
            g.granularity.label(),
            g.segments,
            g.total_time * 1e3,
            g.sched_overhead * 1e3
        );
    }
    println!("\nFunction-level offloading wins — the paper's design choice.");
    Ok(())
}
