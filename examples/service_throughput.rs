//! Demo: 100 mixed DFT jobs through the `ndft-serve` engine.
//!
//! A synthetic client stream — ground-state SCF solves, MD segments with
//! varying seeds, TDA and full-Casida spectra, with realistic repetition
//! (users resubmit identical calculations) — flows through the bounded
//! queue into the worker pool. Workers batch by workload class, consult
//! the cost-aware planner once per batch, execute the real numerics, and
//! fill the content-addressed result cache.
//!
//! Run with: `cargo run --release --example service_throughput`

use ndft::serve::{DftJob, DftService, ServeConfig, Stage, SubmitError};

fn job_stream() -> Vec<DftJob> {
    DftJob::demo_mix(100)
}

fn main() {
    let config = ServeConfig {
        workers: 4,
        shards: 4,
        queue_capacity: 32,
        max_batch: 8,
        ..ServeConfig::default()
    };
    println!(
        "ndft-serve demo: 100 mixed jobs, {} workers, {} shards, queue {} (policy: {})",
        config.workers,
        config.shards,
        config.queue_capacity,
        config.policy.label()
    );

    let svc = DftService::start(config);
    let mut tickets = Vec::new();
    let mut backpressure_retries = 0u32;
    for job in job_stream() {
        // Backpressure-aware client: retry on QueueFull with the blocking
        // path (a real client would back off and do something useful).
        match svc.submit(job.clone()) {
            Ok(t) => tickets.push(t),
            Err(SubmitError::QueueFull) => {
                backpressure_retries += 1;
                tickets.push(svc.submit_blocking(job).expect("blocking submit"));
            }
            Err(e) => panic!("submission failed: {e}"),
        }
    }

    for (i, ticket) in tickets.iter().enumerate() {
        let outcome = ticket.wait().expect("job completes");
        if i % 25 == 0 {
            println!(
                "  job {i:>3}: {:<14} headline {:>9.3}  planner {:.3}s vs cpu-pinned {:.3}s",
                outcome.job.to_string(),
                outcome.payload.headline(),
                outcome.placement.modeled_time(),
                outcome.placement.cpu_pinned_time,
            );
        }
    }

    // Every ticket has resolved, so the end-to-end histograms hold all
    // 100 jobs.
    let telemetry = svc.telemetry();
    let report = svc.shutdown();
    println!("\n{report}");
    println!("\n  end-to-end latency by class:");
    for class in &telemetry.classes {
        let e2e = class.stage(Stage::EndToEnd);
        println!(
            "    {:<14} jobs {:>4}  p50 {:>9.3} ms  p99 {:>9.3} ms",
            class.class.to_string(),
            e2e.count(),
            e2e.p50_ns() as f64 * 1e-6,
            e2e.p99_ns() as f64 * 1e-6
        );
    }
    println!("\n  backpressure retries: {backpressure_retries}");
    assert_eq!(report.completed, 100);
    assert!(report.cache.hit_rate() > 0.0, "stream contains repeats");
}
