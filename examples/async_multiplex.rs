//! Demo: 10 000 jobs multiplexed over ONE `ClientSession`.
//!
//! Four frontend threads each push 2 500 mixed jobs through a shared
//! session while the main thread drains completions in finish order
//! from the session's `CompletionStream` — the whole run uses at most
//! `workers + frontend_threads` OS threads. No thread ever parks in
//! `JobTicket::wait`; the session's completion hooks ride the ticket
//! state machine, so fulfillment *pushes* results to the drainer
//! instead of threads polling for them.
//!
//! The tail of the demo shows the other two layers of the async API:
//! ticket futures driven by the built-in `block_on`/`join_all`
//! combinators, and the live per-job progress stream (`Queued` →
//! `Running` → `Done`), a lifecycle view of the engine's event ring.
//!
//! Run with: `cargo run --release --example async_multiplex`

use ndft::serve::{
    block_on, join_all, DftJob, DftService, JobRequest, JobStage, Priority, ServeConfig,
};
use std::time::{Duration, Instant};

const FRONTENDS: usize = 4;
const JOBS_PER_FRONTEND: usize = 2_500;
const WORKERS: usize = 4;

/// The frontend's stream: mixed MD segments with heavy seed repetition,
/// the shape of a real client resubmitting overlapping calculations.
fn job(frontend: usize, i: usize) -> DftJob {
    let n = (frontend * JOBS_PER_FRONTEND + i) as u64;
    DftJob::MdSegment {
        atoms: if n.is_multiple_of(3) { 128 } else { 64 },
        steps: 10,
        temperature_k: 300.0,
        seed: n % 48,
    }
}

fn main() {
    let total = FRONTENDS * JOBS_PER_FRONTEND;
    let config = ServeConfig {
        workers: WORKERS,
        shards: 4,
        queue_capacity: 64,
        max_batch: 8,
        ..ServeConfig::default()
    };
    println!(
        "async multiplex demo: {FRONTENDS} frontends x {JOBS_PER_FRONTEND} jobs \
         over one ClientSession, {WORKERS} workers \
         (threads used: {} = workers + frontends; the main thread drains)",
        WORKERS + FRONTENDS
    );

    let svc = DftService::start(config);
    let progress = svc.progress();
    let (session, completions) = svc.session();
    let start = Instant::now();

    std::thread::scope(|scope| {
        for frontend in 0..FRONTENDS {
            let session = &session;
            scope.spawn(move || {
                for i in 0..JOBS_PER_FRONTEND {
                    session
                        .submit_blocking(job(frontend, i))
                        .expect("session submit");
                }
            });
        }
        // One drainer, any number of outstanding jobs: completions
        // arrive in finish order, cache serves included.
        let mut done = 0usize;
        while done < total {
            // Bounded wait so a wedged frontend panics the demo with a
            // message instead of parking this drainer forever.
            let completion = completions
                .next_timeout(Duration::from_secs(120))
                .expect("completion within timeout");
            completion.result.expect("job succeeds");
            done += 1;
            if done.is_multiple_of(2_500) {
                println!(
                    "  drained {done:>6}/{total}  in flight {:>5}  outstanding tickets {:>5}",
                    session.in_flight(),
                    svc.tickets_outstanding()
                );
            }
        }
    });
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(session.completed(), total as u64);
    assert_eq!(session.in_flight(), 0);
    drop(session);

    println!(
        "\n  {total} jobs in {wall:.3}s  ({:.0} jobs/s through one session)",
        total as f64 / wall
    );

    // Layer 2: the same tickets are futures — drive a handful with the
    // built-in executor and the join_all combinator (results arrive in
    // submission order, no extra threads). These ride the interactive
    // priority lane via the JobRequest builder — a bare DftJob converts
    // implicitly and lands in the Standard lane, which is what the
    // frontend threads above did.
    let futures: Vec<_> = (0..4)
        .map(|k| {
            svc.submit(JobRequest::new(job(0, k)).priority(Priority::Interactive))
                .expect("submit")
                .future()
        })
        .collect();
    let results = block_on(join_all(futures));
    println!(
        "  join_all over {} ticket futures: all {} (cache-served instantly)",
        results.len(),
        if results.iter().all(|r| r.is_ok()) {
            "ok"
        } else {
            "failed"
        }
    );

    // Layer 3: the lifecycle stream — sample what the workers published.
    let events = progress.drain();
    let running = events
        .iter()
        .filter(|e| matches!(e.stage, JobStage::Running { .. }))
        .count();
    println!(
        "  progress stream: {} buffered events ({} Running), {} dropped oldest (bounded queue)",
        events.len(),
        running,
        progress.dropped()
    );

    let report = svc.shutdown();
    println!("\n{report}");
    assert_eq!(report.completed, total as u64 + 4);
    assert_eq!(report.failed, 0);
    assert_eq!(report.tickets_outstanding, 0, "no ticket left behind");
}
