//! End-to-end test of the `ndft-serve` job engine: a mixed batch of SCF,
//! MD, and spectrum jobs through submission, batching, planner-driven
//! placement, execution, and the content-addressed result cache — plus
//! the async client surface: ticket futures, the multiplexing
//! `ClientSession`, and per-job progress streams.

use ndft::sched::{Target, TargetLoad};
use ndft::serve::{
    block_on, chrome_trace_json, execute_payload, join_all, race, CachePolicy, DftJob, DftService,
    Enc, FaultPlan, FederatedService, FederationConfig, JobError, JobKind, JobPayload, JobRequest,
    JobStage, NodeId, PersistValue, PlacementPolicy, PlacementTarget, Priority, ServeConfig, Stage,
    SubmitError, TenantId, TraceEventKind, WorkflowSpec,
};
use std::collections::HashSet;
use std::time::Duration;

fn mixed_batch() -> Vec<DftJob> {
    vec![
        DftJob::GroundState {
            atoms: 8,
            bands: 4,
            max_iterations: 4,
        },
        DftJob::GroundState {
            atoms: 16,
            bands: 4,
            max_iterations: 4,
        },
        DftJob::MdSegment {
            atoms: 64,
            steps: 8,
            temperature_k: 300.0,
            seed: 1,
        },
        DftJob::MdSegment {
            atoms: 64,
            steps: 8,
            temperature_k: 300.0,
            seed: 2,
        },
        DftJob::MdSegment {
            atoms: 128,
            steps: 8,
            temperature_k: 500.0,
            seed: 3,
        },
        DftJob::Spectrum {
            atoms: 8,
            full_casida: false,
        },
        DftJob::Spectrum {
            atoms: 16,
            full_casida: false,
        },
        DftJob::Spectrum {
            atoms: 16,
            full_casida: true,
        },
    ]
}

#[test]
fn mixed_batch_completes_with_correct_payloads() {
    let svc = DftService::start(ServeConfig {
        workers: 3,
        ..ServeConfig::default()
    });
    let jobs = mixed_batch();
    let tickets: Vec<_> = jobs
        .iter()
        .map(|j| svc.submit(j.clone()).expect("queue has capacity"))
        .collect();
    for (job, ticket) in jobs.iter().zip(&tickets) {
        let outcome = ticket.wait().expect("job completes");
        assert_eq!(outcome.fingerprint, job.fingerprint());
        match (job.kind(), &outcome.payload) {
            (JobKind::GroundState, JobPayload::GroundState(gs)) => {
                assert!(!gs.energies_ev.is_empty());
                assert!(gs.max_residual().is_finite());
            }
            (JobKind::MdSegment, JobPayload::Md(t)) => {
                assert_eq!(t.atoms, job.atoms());
                assert_eq!(t.samples.len(), 8);
            }
            (JobKind::TdaSpectrum, JobPayload::Tda(s)) => {
                assert!(s.optical_gap() > 0.0);
            }
            (JobKind::CasidaSpectrum, JobPayload::Casida(c)) => {
                assert!(c.optical_gap() > 0.0);
            }
            (kind, payload) => panic!("kind {kind} produced mismatched payload {payload:?}"),
        }
    }
    let e2e = svc.telemetry().stage_total(Stage::EndToEnd);
    assert_eq!(e2e.count(), jobs.len() as u64);
    assert!(e2e.mean_ns() > 0.0);
    let report = svc.shutdown();
    assert_eq!(report.completed, jobs.len() as u64);
    assert_eq!(report.failed, 0);
}

#[test]
fn repeated_submission_hits_the_cache() {
    let svc = DftService::start_default();
    let jobs = mixed_batch();
    // First wave executes everything.
    let first: Vec<_> = jobs
        .iter()
        .map(|j| svc.submit_blocking(j.clone()).unwrap())
        .collect();
    for t in &first {
        t.wait().unwrap();
    }
    // Second wave must be served from the content-addressed cache.
    for job in &jobs {
        let ticket = svc.submit(job.clone()).unwrap();
        assert!(ticket.is_done(), "cache serve resolves at submission");
        ticket.wait().unwrap();
    }
    let report = svc.shutdown();
    assert!(
        report.cache.hit_rate() > 0.0,
        "hit rate {} with {} hits / {} misses",
        report.cache.hit_rate(),
        report.cache.hits,
        report.cache.misses
    );
    assert_eq!(report.served_from_cache, jobs.len() as u64);
    assert_eq!(report.completed, 2 * jobs.len() as u64);
}

#[test]
fn planner_placement_never_loses_to_cpu_pinned_baseline() {
    // One worker plans every batch on an idle cluster (it releases a
    // batch's reservation before planning the next), so every outcome
    // of that engine must match or beat both pinned baselines outright.
    // With the default pool, concurrent batches bias the plans, and the
    // §IV-A guarantee holds on the machine the planner saw: busy seconds
    // dilated by the recorded load never exceed a pinned baseline
    // dilated alike. A shifted plan trades idle-machine seconds for less
    // contention, so it can cost more than CPU-pinned on an idle machine.
    for workers in [1, ServeConfig::default().workers] {
        let svc = DftService::start(ServeConfig {
            policy: PlacementPolicy::CostAware,
            workers,
            ..ServeConfig::default()
        });
        let tickets: Vec<_> = mixed_batch()
            .into_iter()
            .map(|j| svc.submit_blocking(j).unwrap())
            .collect();
        for ticket in &tickets {
            let outcome = ticket.wait().unwrap();
            let d = &outcome.placement;
            let reference_s = d.cpu_pinned_time.min(d.ndp_pinned_time);
            let load = TargetLoad::new(d.cpu_load_s, d.ndp_load_s, reference_s);
            if workers == 1 || load.is_idle() {
                assert!(load.is_idle(), "{}: one worker saw {load:?}", outcome.job);
                let placed = d.modeled_time();
                for pinned in [d.cpu_pinned_time, d.ndp_pinned_time] {
                    assert!(
                        placed <= pinned + 1e-12,
                        "{}: planner {placed} vs pinned {pinned}",
                        outcome.job
                    );
                }
                continue;
            }
            let (cpu, ndp) = (load.dilation(Target::Cpu), load.dilation(Target::Ndp));
            let placed = d.cpu_busy * cpu + d.ndp_busy * ndp + d.plan.sched_overhead;
            for pinned in [d.cpu_pinned_time * cpu, d.ndp_pinned_time * ndp] {
                assert!(
                    placed <= pinned * (1.0 + 1e-9),
                    "{}: planner {placed} vs pinned {pinned} under {load:?}",
                    outcome.job
                );
            }
        }
        let report = svc.shutdown();
        assert!(
            report.modeled_speedup_vs_cpu() >= 1.0,
            "{workers} workers: aggregate speedup {}",
            report.modeled_speedup_vs_cpu()
        );
        assert!(report.modeled_ndp_busy_s > 0.0, "NDP side never used");
        assert!(report.planner_calls > 0);
    }
}

#[test]
fn identical_jobs_in_one_wave_execute_once() {
    let svc = DftService::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let job = DftJob::Spectrum {
        atoms: 16,
        full_casida: false,
    };
    let tickets: Vec<_> = (0..5)
        .map(|_| svc.submit_blocking(job.clone()).unwrap())
        .collect();
    let outcomes: Vec<_> = tickets.iter().map(|t| t.wait().unwrap()).collect();
    for pair in outcomes.windows(2) {
        assert_eq!(pair[0].fingerprint, pair[1].fingerprint);
    }
    let report = svc.shutdown();
    assert_eq!(report.completed, 5);
    assert!(
        report.served_from_cache >= 1,
        "duplicates deduped: {} cache serves",
        report.served_from_cache
    );
}

#[test]
fn invalid_jobs_are_rejected_not_queued() {
    let svc = DftService::start_default();
    let bad = DftJob::GroundState {
        atoms: 12, // not a whole number of diamond cells
        bands: 4,
        max_iterations: 4,
    };
    match svc.submit(bad) {
        Err(SubmitError::InvalidJob(_)) => {}
        other => panic!("expected InvalidJob, got {other:?}"),
    }
    let report = svc.shutdown();
    assert_eq!(report.submitted, 0);
    assert_eq!(report.failed, 0);
}

#[test]
fn shard_skew_triggers_stealing_and_no_worker_starves() {
    // Adversarial shard skew: every job shares one WorkloadClass, so
    // class-keyed routing lands the entire stream on ONE shard. Without
    // work stealing, three of the four workers would sit idle on their
    // empty home shards forever.
    let svc = DftService::start(ServeConfig {
        workers: 4,
        shards: 4,
        max_batch: 2, // small drains so the loaded shard stays stealable
        queue_capacity: 64,
        ..ServeConfig::default()
    });
    // Steps sized so the stream outlasts a busy host's scheduling
    // latency: every worker gets a CPU slice while work remains, so a
    // worker that never dispatches was starved by the engine, not by
    // the OS scheduler.
    let jobs: Vec<_> = (0..48)
        .map(|seed| DftJob::MdSegment {
            atoms: 64,
            steps: 400,
            temperature_k: 300.0,
            seed, // distinct fingerprints, one shared class
        })
        .collect();
    let shard_key = jobs[0].workload_class().shard_key();
    assert!(jobs
        .iter()
        .all(|j| j.workload_class().shard_key() == shard_key));
    let tickets: Vec<_> = jobs
        .iter()
        .map(|j| svc.submit_blocking(j.clone()).unwrap())
        .collect();
    for (job, ticket) in jobs.iter().zip(&tickets) {
        let outcome = ticket.wait().expect("job completes");
        assert_eq!(outcome.fingerprint, job.fingerprint());
    }
    let report = svc.shutdown();
    assert_eq!(report.completed, 48);
    assert_eq!(report.failed, 0);
    assert!(report.steals > 0, "skewed load must trigger steals");
    assert!(report.stolen_jobs > 0);
    // Exactly one shard ever held work...
    assert_eq!(
        report
            .shard_dispatched
            .iter()
            .filter(|&&jobs| jobs > 0)
            .count(),
        1,
        "class-keyed routing concentrates one class on one shard: {:?}",
        report.shard_dispatched
    );
    // ...yet every worker took part (stealing defeats the skew).
    assert_eq!(report.worker_dispatched.len(), 4);
    assert!(
        report.min_worker_dispatched() > 0,
        "no worker starves under skew: {:?}",
        report.worker_dispatched
    );
}

#[test]
fn single_shard_config_reproduces_old_engine() {
    // shards = 1 is the pre-sharding engine: one queue, no stealing.
    let svc = DftService::start(ServeConfig {
        workers: 3,
        shards: 1,
        ..ServeConfig::default()
    });
    let tickets: Vec<_> = mixed_batch()
        .into_iter()
        .map(|j| svc.submit_blocking(j).unwrap())
        .collect();
    for t in &tickets {
        t.wait().unwrap();
    }
    let report = svc.shutdown();
    assert_eq!(report.completed, 8);
    assert_eq!(report.steals, 0, "one shard leaves nothing to steal");
    assert_eq!(report.shard_dispatched.len(), 1);
}

#[test]
fn concurrent_batches_plan_under_contention_and_release_reservations() {
    // Many same-class batches in flight at once: workers must observe
    // each other's reservations while planning (plans_contended > 0),
    // and once everything drains the shared ClusterView must return to
    // exactly zero — no modeled busy time leaks into future decisions.
    let svc = DftService::start(ServeConfig {
        workers: 4,
        shards: 4,
        max_batch: 2, // many small concurrent batches
        queue_capacity: 64,
        ..ServeConfig::default()
    });
    // Steps sized so each batch's execution dwarfs its planning: at any
    // moment several batches hold reservations, so later consultations
    // must observe them (plans_contended is structural, not a timing
    // accident).
    let tickets: Vec<_> = (0..32)
        .map(|seed| {
            svc.submit_blocking(DftJob::MdSegment {
                atoms: 64,
                steps: 400,
                temperature_k: 300.0,
                seed,
            })
            .unwrap()
        })
        .collect();
    for t in &tickets {
        t.wait().unwrap();
    }
    // Tickets resolve inside the batch loop, a hair before the batch's
    // reservation guard drops; give the release a moment.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !svc.cluster_snapshot().is_idle() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let snapshot = svc.cluster_snapshot();
    assert!(
        snapshot.is_idle() && snapshot.inflight_batches() == 0,
        "reservations leaked: {snapshot:?}"
    );
    let report = svc.shutdown();
    assert_eq!(report.completed, 32);
    assert_eq!(report.failed, 0);
    assert!(
        report.plans_contended > 0,
        "4 workers × 16 batches never overlapped? {report}"
    );
    // Contention integrates reserved busy time; it must be consistent
    // with the counters that claim contention happened.
    assert!(report.cpu_contention_s + report.ndp_contention_s > 0.0);
    assert!(report.plans_shifted <= report.planner_calls);
}

#[test]
fn one_worker_engine_reports_zero_contention() {
    // The engine half of the contention differential (the planner half
    // is `placement::tests::idle_cluster_reproduces_load_blind_decision`):
    // with one worker a reservation lives only as long as its batch, so
    // every plan sees an idle machine and no contention is observed.
    let svc = DftService::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let tickets: Vec<_> = (0..16)
        .map(|seed| {
            svc.submit_blocking(DftJob::MdSegment {
                atoms: 64,
                steps: 20,
                temperature_k: 300.0,
                seed,
            })
            .unwrap()
        })
        .collect();
    for t in &tickets {
        t.wait().unwrap();
    }
    let report = svc.shutdown();
    assert_eq!(report.completed, 16);
    assert_eq!(report.plans_contended, 0);
    assert_eq!(report.plans_shifted, 0);
    assert_eq!(report.cpu_contention_s, 0.0);
    assert_eq!(report.ndp_contention_s, 0.0);
}

#[test]
fn batching_reuses_plans_across_same_class_jobs() {
    // One worker + many same-class jobs queued up front ⇒ the drain
    // forms multi-job batches and the planner is consulted once per
    // batch, not once per job.
    let svc = DftService::start(ServeConfig {
        workers: 1,
        max_batch: 16,
        ..ServeConfig::default()
    });
    // Steps are sized so one execution far outlasts the submission loop:
    // while the first job runs, the remaining eleven accumulate in the
    // queue and drain as one multi-job batch.
    let tickets: Vec<_> = (0..12)
        .map(|seed| {
            svc.submit_blocking(DftJob::MdSegment {
                atoms: 64,
                steps: 100,
                temperature_k: 300.0,
                seed,
            })
            .unwrap()
        })
        .collect();
    for t in &tickets {
        t.wait().unwrap();
    }
    let report = svc.shutdown();
    assert_eq!(report.completed, 12);
    assert!(
        report.planner_calls < 12,
        "batching collapsed planner calls: {} for 12 jobs",
        report.planner_calls
    );
    assert!(report.plans_reused > 0);
}

#[test]
fn shutdown_unblocks_producer_stuck_on_full_shard_with_closed() {
    // Regression for the submit_blocking-vs-shutdown race: a producer
    // parked on a full shard while shutdown begins must observe
    // SubmitError::Closed — never hang, never panic. The single slow
    // worker guarantees the bounded queue fills, so the producer loop
    // is genuinely blocked when close() lands.
    let svc = DftService::start(ServeConfig {
        workers: 1,
        shards: 1,
        queue_capacity: 1,
        max_batch: 1,
        ..ServeConfig::default()
    });
    let err = std::thread::scope(|s| {
        let producer = s.spawn(|| {
            let mut seed = 0u64;
            loop {
                let job = DftJob::MdSegment {
                    atoms: 64,
                    steps: 150,
                    temperature_k: 300.0,
                    seed,
                };
                match svc.submit_blocking(job) {
                    Ok(_) => seed += 1,
                    Err(e) => return e,
                }
            }
        });
        // Let the producer wedge against the 1-slot queue, then begin
        // shutdown from another thread.
        std::thread::sleep(Duration::from_millis(100));
        svc.close();
        producer.join().expect("producer must return, not hang")
    });
    assert_eq!(err, SubmitError::Closed);
    // Accepted work still drains cleanly after the race.
    let report = svc.shutdown();
    assert_eq!(report.failed, 0);
    assert_eq!(report.tickets_outstanding, 0);
}

#[test]
fn session_multiplexes_frontends_and_drains_in_finish_order() {
    const FRONTENDS: usize = 3;
    const PER_FRONTEND: usize = 20;
    let svc = DftService::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let (session, completions) = svc.session();
    std::thread::scope(|s| {
        for f in 0..FRONTENDS {
            let session = &session;
            s.spawn(move || {
                for i in 0..PER_FRONTEND {
                    // Seed collisions on purpose: some completions are
                    // cache serves resolving during submit itself.
                    let seed = ((f * PER_FRONTEND + i) % 10) as u64;
                    session
                        .submit_blocking(DftJob::MdSegment {
                            atoms: 64,
                            steps: 10,
                            temperature_k: 300.0,
                            seed,
                        })
                        .expect("submit through session");
                }
            });
        }
        // One drainer services all frontends: completions arrive in
        // finish order with unique session-scoped ids.
        let mut ids = HashSet::new();
        for _ in 0..FRONTENDS * PER_FRONTEND {
            let completion = completions
                .next_timeout(Duration::from_secs(60))
                .expect("completion before timeout");
            assert!(ids.insert(completion.id), "duplicate completion id");
            completion.result.expect("job succeeds");
        }
    });
    let total = (FRONTENDS * PER_FRONTEND) as u64;
    assert_eq!(session.submitted(), total);
    assert_eq!(session.completed(), total);
    assert_eq!(session.in_flight(), 0);
    drop(session);
    assert!(
        completions.next().is_none(),
        "stream ends once the session and its jobs are gone"
    );
    let report = svc.shutdown();
    assert_eq!(report.completed, total);
    assert_eq!(report.failed, 0);
    assert_eq!(report.tickets_outstanding, 0);
}

#[test]
fn progress_stream_reports_the_job_lifecycle() {
    let svc = DftService::start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let stream = svc.progress();
    let job = DftJob::MdSegment {
        atoms: 64,
        steps: 10,
        temperature_k: 300.0,
        seed: 77,
    };
    let fp = job.fingerprint();

    // Fresh execution: every lifecycle stage streams, and Done is
    // published before the ticket resolves, so the whole story is
    // already in the ring when wait() returns.
    let outcome = svc.submit(job.clone()).unwrap().wait().unwrap();
    assert!(outcome.placement.cpu_pinned_time > 0.0);
    assert_eq!(
        outcome.placement.cpu_load_s, 0.0,
        "idle engine plans unloaded"
    );
    let events = stream.drain();
    let labels: Vec<&str> = events
        .iter()
        .filter(|e| e.fingerprint == fp)
        .map(|e| e.stage.label())
        .collect();
    assert_eq!(labels, ["queued", "running", "done"]);
    assert!(
        events.windows(2).all(|w| w[0].seq < w[1].seq),
        "seq is monotone"
    );
    for event in &events {
        match &event.stage {
            JobStage::Running { target } => {
                assert_eq!(*target, PlacementTarget::of(&outcome.placement));
            }
            JobStage::Done { ok, cached } => {
                assert!(*ok);
                assert!(!*cached, "first run is a fresh execution");
            }
            _ => {}
        }
    }

    // Cache hit: a single Done{cached} event, no queue/plan/run stages.
    let ticket = svc.submit(job).unwrap();
    assert!(ticket.is_done());
    let events = stream.drain();
    assert_eq!(events.len(), 1);
    assert!(matches!(
        events[0].stage,
        JobStage::Done {
            ok: true,
            cached: true
        }
    ));

    let report = svc.shutdown();
    assert_eq!(report.progress_events_dropped, 0);
    assert!(
        stream.next().is_none(),
        "closed + drained stream reports end"
    );
}

#[test]
fn report_gauges_outstanding_tickets_and_progress_drops() {
    // trace_capacity 4 cannot hold 8 jobs × ≥2 lifecycle events: the
    // stream queue must evict oldest and count every eviction, while
    // workers never stall.
    let svc = DftService::start(ServeConfig {
        workers: 1,
        shards: 1,
        max_batch: 2,
        trace_capacity: 4,
        ..ServeConfig::default()
    });
    // Publishing is subscriber-gated: hold a stream (unconsumed — the
    // worst-case slow consumer) so events actually flow into the ring.
    let _stream = svc.progress();
    assert_eq!(svc.report().tickets_outstanding, 0);
    let tickets: Vec<_> = (0..8)
        .map(|seed| {
            svc.submit(DftJob::MdSegment {
                atoms: 64,
                steps: 300,
                temperature_k: 300.0,
                seed,
            })
            .unwrap()
        })
        .collect();
    assert!(
        svc.tickets_outstanding() > 0,
        "eight heavy jobs on one worker cannot all be fulfilled yet"
    );
    for ticket in &tickets {
        ticket.wait().unwrap();
    }
    let report = svc.shutdown();
    assert_eq!(report.completed, 8);
    assert_eq!(
        report.tickets_outstanding, 0,
        "drained engine holds no tickets"
    );
    assert!(
        report.progress_events_dropped > 0,
        "tiny ring must have evicted events"
    );
}

#[test]
fn ticket_futures_drive_with_block_on_join_all_and_race() {
    let svc = DftService::start_default();
    let jobs = mixed_batch();
    // join_all: results come back in submission order, no thread per
    // ticket, one block_on drives the whole batch.
    let futures: Vec<_> = jobs
        .iter()
        .map(|j| svc.submit_blocking(j.clone()).unwrap().future())
        .collect();
    let results = block_on(join_all(futures));
    assert_eq!(results.len(), jobs.len());
    for (job, result) in jobs.iter().zip(&results) {
        assert_eq!(result.as_ref().unwrap().fingerprint, job.fingerprint());
    }
    // race: the winner is whichever resolves first (cache-served here,
    // so immediately); losers are dropped and deregister themselves.
    let contestants: Vec<_> = jobs
        .iter()
        .take(3)
        .map(|j| svc.submit(j.clone()).unwrap().future())
        .collect();
    let (winner, result) = block_on(race(contestants));
    assert!(winner < 3);
    result.expect("winner carries the shared outcome");
    // `await` syntax via IntoFuture.
    let ticket = svc.submit_blocking(jobs[0].clone()).unwrap();
    let outcome = block_on(async move { ticket.await }).unwrap();
    assert_eq!(outcome.fingerprint, jobs[0].fingerprint());
    let report = svc.shutdown();
    assert_eq!(report.failed, 0);
    assert_eq!(report.tickets_outstanding, 0);
}

/// A scratch cache directory unique to this test process.
fn scratch_cache_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ndft-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The restart scenario the persistent tier exists for: fill the cache
/// through one engine, drop it, rebuild on the same `cache_dir`, and
/// observe every resubmission served warm from disk — bit-identical
/// payloads, zero re-executions, and the `ServeReport` tier counters
/// telling that story.
#[test]
fn cache_survives_engine_restart_via_disk_tier() {
    let dir = scratch_cache_dir("restart");
    let jobs = mixed_batch();
    let config = ServeConfig {
        workers: 2,
        cache_policy: CachePolicy::CostWeighted,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    // Engine 1: everything executes once; every outcome is written
    // through to the write-ahead file.
    let first = DftService::start(config.clone());
    let mut first_outcomes = Vec::new();
    for job in &jobs {
        first_outcomes.push(first.submit(job.clone()).unwrap().wait().unwrap());
    }
    let report = first.shutdown();
    assert_eq!(report.completed, jobs.len() as u64);
    assert_eq!(report.failed, 0);
    assert_eq!(
        report.cache.disk_len,
        jobs.len(),
        "one record per distinct fingerprint"
    );
    assert!(report.cache.bytes_persisted > 0);

    // Engine 2, same directory: the memory tier starts cold, but the
    // scan of the write-ahead file makes every prior result warm.
    let second = DftService::start(config);
    for (job, first_outcome) in jobs.iter().zip(&first_outcomes) {
        let ticket = second.submit(job.clone()).unwrap();
        assert!(ticket.is_done(), "disk tier serves at submission time");
        let outcome = ticket.wait().unwrap();
        assert_eq!(
            outcome.payload, first_outcome.payload,
            "restarted engine serves the bit-identical payload"
        );
    }
    let report = second.shutdown();
    assert_eq!(report.served_from_cache, jobs.len() as u64);
    assert_eq!(report.completed, jobs.len() as u64);
    assert_eq!(report.planner_calls, 0, "nothing re-executed after restart");
    assert_eq!(
        report.cache.disk_hits,
        jobs.len() as u64,
        "every first resubmission promoted from the disk tier"
    );
    assert_eq!(report.cache.misses, 0);
    assert_eq!(report.cache.len, jobs.len(), "promotions repopulate memory");
    assert!(
        report.cache.cost_retained_s > 0.0,
        "promoted entries carry their stored modeled cost"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Corruption of the persistent tier must never take the engine down:
/// a clobbered write-ahead file is recovered (reset or truncated) at
/// start and the engine serves normally, re-executing what was lost.
#[test]
fn corrupt_cache_dir_recovers_and_engine_serves() {
    let dir = scratch_cache_dir("corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("results.wal"), b"not a write-ahead log at all").unwrap();
    let svc = DftService::start(ServeConfig {
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    for job in mixed_batch() {
        svc.submit(job).unwrap().wait().unwrap();
    }
    let report = svc.shutdown();
    assert_eq!(report.failed, 0);
    assert_eq!(report.cache.disk_len, mixed_batch().len(), "log rebuilt");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The telemetry surface over a mixed workload: every class that ran
/// reports per-stage percentiles, the end-to-end histogram pairs with
/// the completion counters, and the snapshot serializes.
#[test]
fn telemetry_reports_per_stage_percentiles_for_mixed_classes() {
    let svc = DftService::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let jobs = mixed_batch();
    let tickets: Vec<_> = jobs
        .iter()
        .map(|j| svc.submit_blocking(j.clone()).unwrap())
        .collect();
    for t in &tickets {
        t.wait().unwrap();
    }
    // The fulfill-stage sample times the fulfill call itself, so it
    // lands a hair *after* the waiter resolves; give it a moment.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut snapshot = svc.telemetry();
    while snapshot.stage_total(Stage::Fulfill).count() < jobs.len() as u64
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(1));
        snapshot = svc.telemetry();
    }
    // Every job's whole life landed in the end-to-end histogram.
    assert_eq!(snapshot.jobs_recorded(), jobs.len() as u64);
    assert_eq!(
        snapshot.stage_total(Stage::EndToEnd).count(),
        jobs.len() as u64
    );
    // Every queued job passes through queue-wait, execute, and fulfill
    // exactly once, so those totals agree with the job count. Plan and
    // reserve are batch-scoped — consulted once per batch, shared by
    // riders — so they are present but bounded by the job count.
    for stage in [Stage::QueueWait, Stage::Execute, Stage::Fulfill] {
        assert_eq!(
            snapshot.stage_total(stage).count(),
            jobs.len() as u64,
            "stage {stage} count"
        );
    }
    for stage in [Stage::Plan, Stage::Reserve] {
        let n = snapshot.stage_total(stage).count();
        assert!(
            n >= 1 && n <= jobs.len() as u64,
            "batch-scoped stage {stage} count {n}"
        );
    }
    let classes: HashSet<_> = jobs.iter().map(|j| j.workload_class()).collect();
    assert_eq!(snapshot.classes.len(), classes.len());
    for class in &classes {
        let cs = snapshot.class(class).expect("class that ran is reported");
        let e2e = cs.stage(Stage::EndToEnd);
        assert!(e2e.count() > 0);
        // Percentiles are ordered and bounded by the exact max.
        assert!(e2e.p50_ns() <= e2e.p90_ns());
        assert!(e2e.p90_ns() <= e2e.p99_ns());
        assert!(e2e.p99_ns() <= e2e.max_ns());
        assert!(e2e.max_ns() > 0, "a DFT job takes nonzero time");
        // The execute stage is the dominant cost, so its tail cannot
        // exceed the end-to-end tail.
        assert!(cs.stage(Stage::Execute).max_ns() <= e2e.max_ns());
    }
    assert_eq!(snapshot.trace_events_dropped, 0, "nobody subscribed");
    assert!(!snapshot.queue_high_watermarks.is_empty());
    assert!(snapshot.queue_high_watermarks.iter().any(|&w| w > 0));
    let json = snapshot.to_json();
    assert!(json.contains("\"classes\""));
    assert!(json.contains("\"end_to_end\""));
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "snapshot JSON is balanced"
    );
    let report = svc.shutdown();
    assert_eq!(report.completed, jobs.len() as u64);
}

/// Once every ticket has resolved, the telemetry snapshot's end-to-end
/// histograms and the report's job counters agree: the per-class and the
/// per-priority counts each sum exactly to the four terminal counters,
/// and cache serves are counted too.
#[test]
fn report_class_latency_rows_agree_with_job_counters() {
    let svc = DftService::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let jobs = mixed_batch();
    let tickets: Vec<_> = jobs
        .iter()
        .map(|j| svc.submit_blocking(j.clone()).unwrap())
        .collect();
    for t in &tickets {
        t.wait().unwrap();
    }
    // Resubmit everything: cache serves count end-to-end too.
    for job in &jobs {
        svc.submit(job.clone()).unwrap().wait().unwrap();
    }
    let snapshot = svc.telemetry();
    let report = svc.report();
    let class_jobs: u64 = snapshot
        .classes
        .iter()
        .map(|c| c.stage(Stage::EndToEnd).count())
        .sum();
    assert_eq!(
        class_jobs,
        report.completed + report.failed + report.cancelled + report.deadline_dropped,
        "end-to-end histograms and job counters must agree"
    );
    assert_eq!(snapshot.e2e_count, class_jobs);
    // The per-priority histograms cover the same jobs, partitioned by
    // QoS class instead of workload class.
    let prio_jobs: u64 = Priority::ALL
        .iter()
        .map(|&p| snapshot.priority(p).count())
        .sum();
    assert_eq!(prio_jobs, class_jobs, "priorities partition the same jobs");
    assert_eq!(snapshot.trace_events_dropped, 0, "no subscriber, no drops");
    for class in &snapshot.classes {
        let e2e = class.stage(Stage::EndToEnd);
        assert!(e2e.count() > 0);
        assert!(e2e.p50_ns() <= e2e.p90_ns());
        assert!(e2e.p90_ns() <= e2e.p99_ns());
        assert!(e2e.p99_ns() <= e2e.max_ns());
    }
    let final_report = svc.shutdown();
    assert_eq!(final_report.completed, 2 * jobs.len() as u64);
    assert_eq!(final_report.completed, class_jobs);
}

/// The Chrome trace export carries one complete span chain per
/// submission — executed, deduplicated, and cache-served alike — and
/// every event serializes as a well-formed trace-viewer record.
#[test]
fn chrome_trace_export_has_one_complete_chain_per_submission() {
    let svc = DftService::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let collector = svc.trace();
    let jobs = mixed_batch();
    let tickets: Vec<_> = jobs
        .iter()
        .map(|j| svc.submit_blocking(j.clone()).unwrap())
        .collect();
    for t in &tickets {
        t.wait().unwrap();
    }
    // A duplicate wave: these resolve at submission, off the cache.
    for job in &jobs {
        svc.submit(job.clone()).unwrap().wait().unwrap();
    }
    svc.shutdown();
    let events = collector.drain();
    assert_eq!(collector.dropped(), 0, "default ring holds a small run");

    let mut fulfills_per_trace = std::collections::HashMap::new();
    for e in &events {
        if matches!(e.kind, TraceEventKind::TicketFulfill { .. }) {
            *fulfills_per_trace.entry(e.trace.0).or_insert(0u32) += 1;
        }
    }
    assert_eq!(
        fulfills_per_trace.len(),
        2 * jobs.len(),
        "one trace lane per submission, duplicates included"
    );
    assert!(
        fulfills_per_trace.values().all(|&n| n == 1),
        "every chain closes exactly once"
    );
    let cached = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::TicketFulfill { cached: true, .. }))
        .count();
    assert!(
        cached >= jobs.len(),
        "the whole second wave was cache-served"
    );

    let json = chrome_trace_json(&events);
    assert!(json.starts_with('['), "array-flavor Chrome trace");
    assert!(json.trim_end().ends_with(']'));
    assert_eq!(
        json.matches("\"ph\"").count(),
        events.len(),
        "one trace-viewer record per event"
    );
    let complete_spans = events.iter().filter(|e| !e.kind.is_instant()).count();
    assert_eq!(json.matches("\"ph\": \"X\"").count(), complete_spans);
    assert_eq!(
        json.matches("\"ph\": \"i\"").count(),
        events.len() - complete_spans
    );
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "trace JSON is balanced"
    );
}

/// A rejected submission still closes its trace chain: the lane shows
/// the admission and a failed fulfill, nothing else, and no end-to-end
/// latency is recorded for a job that was never admitted.
#[test]
fn rejected_submission_closes_its_trace_chain_without_latency() {
    // One slow worker against a 1-slot queue: a non-blocking burst is
    // guaranteed to hit QueueFull.
    let svc = DftService::start(ServeConfig {
        workers: 1,
        shards: 1,
        queue_capacity: 1,
        max_batch: 1,
        ..ServeConfig::default()
    });
    let collector = svc.trace();
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    let mut seed = 0u64;
    while rejected == 0 {
        let job = DftJob::MdSegment {
            atoms: 64,
            steps: 200,
            temperature_k: 300.0,
            seed,
        };
        seed += 1;
        match svc.submit(job) {
            Ok(t) => accepted.push(t),
            Err(SubmitError::QueueFull) => rejected += 1,
            Err(e) => panic!("unexpected submit error {e:?}"),
        }
    }
    for t in &accepted {
        t.wait().unwrap();
    }
    // The end-to-end histogram pairs with completed + failed — the
    // rejected job is in neither, so it must not be in the histogram.
    let snapshot = svc.telemetry();
    assert_eq!(snapshot.jobs_recorded(), accepted.len() as u64);
    let report = svc.shutdown();
    assert_eq!(report.completed, accepted.len() as u64);
    assert_eq!(report.rejected, rejected);
    assert_eq!(report.failed, 0, "a rejection is not a failure");

    let events = collector.drain();
    let mut per_trace: std::collections::HashMap<u64, Vec<_>> = std::collections::HashMap::new();
    for e in &events {
        per_trace.entry(e.trace.0).or_default().push(e);
    }
    let rejected_lanes: Vec<_> = per_trace
        .values()
        .filter(|evs| {
            evs.iter()
                .any(|e| matches!(e.kind, TraceEventKind::TicketFulfill { ok: false, .. }))
        })
        .collect();
    assert_eq!(rejected_lanes.len(), rejected as usize);
    for lane in &rejected_lanes {
        assert_eq!(lane.len(), 2, "a rejected lane is enqueue + failed fulfill");
        assert!(matches!(lane[0].kind, TraceEventKind::Enqueue { .. }));
        assert!(matches!(
            lane[1].kind,
            TraceEventKind::TicketFulfill {
                ok: false,
                cached: false
            }
        ));
    }
}

/// A long job wedges the single worker; everything cancelled behind it
/// resolves `Cancelled` immediately, never executes, streams a terminal
/// `cancelled` stage, closes its trace chain with a cancellation
/// marker, and the report's conservation invariant still balances.
#[test]
fn cancelled_jobs_resolve_cancelled_and_never_execute() {
    let svc = DftService::start(ServeConfig {
        workers: 1,
        shards: 1,
        max_batch: 1,
        ..ServeConfig::default()
    });
    let stream = svc.progress();
    let collector = svc.trace();
    // ~100 ms of wall-clock MD keeps the worker busy while the
    // cancellations land on still-queued jobs.
    let blocker = svc
        .submit(DftJob::MdSegment {
            atoms: 64,
            steps: 100_000,
            temperature_k: 300.0,
            seed: 1000,
        })
        .unwrap();
    let victims: Vec<_> = (0..4)
        .map(|seed| {
            svc.submit(DftJob::MdSegment {
                atoms: 64,
                steps: 2,
                temperature_k: 300.0,
                seed,
            })
            .unwrap()
        })
        .collect();
    for v in &victims {
        assert!(v.cancel(), "first cancel resolves the ticket");
        assert!(!v.cancel(), "second cancel is a no-op");
        assert_eq!(v.wait().unwrap_err(), JobError::Cancelled);
    }
    blocker.wait().unwrap();
    let report = svc.shutdown();
    assert_eq!(report.completed, 1, "only the blocker executed");
    assert_eq!(report.cancelled, 4);
    assert_eq!(report.failed, 0, "a cancellation is not a failure");
    assert_eq!(report.tickets_outstanding, 0);
    assert!(
        report.conservation_holds(),
        "submitted {} != completed {} + failed {} + cancelled {} + deadline_dropped {}",
        report.submitted,
        report.completed,
        report.failed,
        report.cancelled,
        report.deadline_dropped
    );
    // Each victim's streamed lifecycle is queued → cancelled → done.
    let events = stream.drain();
    for v in &victims {
        let labels: Vec<&str> = events
            .iter()
            .filter(|e| e.fingerprint == v.fingerprint())
            .map(|e| e.stage.label())
            .collect();
        assert_eq!(labels, ["queued", "cancelled", "done"]);
    }
    // Each victim's trace lane opens with its enqueue and closes with
    // the cancellation marker and a failed fulfill; it may also carry
    // queue-wait/batch-form spans (the entry did wait and was popped),
    // but never any execution events.
    let traces = collector.drain();
    for v in &victims {
        let kinds: Vec<_> = traces
            .iter()
            .filter(|e| e.fingerprint == v.fingerprint())
            .map(|e| &e.kind)
            .collect();
        assert!(matches!(kinds[0], TraceEventKind::Enqueue { .. }));
        assert!(matches!(kinds[kinds.len() - 2], TraceEventKind::Cancelled));
        assert!(matches!(
            kinds[kinds.len() - 1],
            TraceEventKind::TicketFulfill {
                ok: false,
                cached: false
            }
        ));
        assert!(
            kinds.iter().all(|k| !matches!(
                k,
                TraceEventKind::PlannerConsult
                    | TraceEventKind::Numerics { .. }
                    | TraceEventKind::CacheHit { .. }
                    | TraceEventKind::CacheStore
            )),
            "a cancelled job must never execute: {kinds:?}"
        );
    }
}

/// Deadline admission control refuses a job whose modeled finish time
/// cannot fit its deadline — before a ticket, a trace lane, or a queue
/// slot is ever allocated.
#[test]
fn impossible_deadline_is_denied_at_admission() {
    let svc = DftService::start_default();
    let job = DftJob::MdSegment {
        atoms: 64,
        steps: 10,
        temperature_k: 300.0,
        seed: 1,
    };
    // No modeled run fits a nanosecond, so the denial is deterministic.
    let request = JobRequest::new(job).deadline(Duration::from_nanos(1));
    match svc.submit(request) {
        Err(SubmitError::AdmissionDenied {
            modeled_finish_s,
            deadline_s,
        }) => {
            assert!(modeled_finish_s > deadline_s);
            assert!(modeled_finish_s > 0.0);
            assert!(deadline_s > 0.0 && deadline_s < 1e-6);
        }
        other => panic!("expected AdmissionDenied, got {other:?}"),
    }
    let report = svc.shutdown();
    assert_eq!(report.admission_denied, 1);
    assert_eq!(report.submitted, 0, "denied jobs are never submitted");
    assert!(report.conservation_holds());
}

/// The per-tenant in-flight quota: a tenant at its cap is refused with
/// `QuotaExceeded` while other tenants keep submitting, and completed
/// jobs release their slots.
#[test]
fn tenant_quota_bounds_in_flight_jobs_per_tenant() {
    let svc = DftService::start(ServeConfig {
        workers: 1,
        shards: 1,
        max_batch: 1,
        tenant_quota: Some(2),
        ..ServeConfig::default()
    });
    let greedy = TenantId(7);
    let long_md = |seed| DftJob::MdSegment {
        atoms: 64,
        steps: 50_000,
        temperature_k: 300.0,
        seed,
    };
    let first = svc
        .submit(JobRequest::new(long_md(1)).tenant(greedy))
        .unwrap();
    let second = svc
        .submit(JobRequest::new(long_md(2)).tenant(greedy))
        .unwrap();
    match svc.submit(JobRequest::new(long_md(3)).tenant(greedy)) {
        Err(SubmitError::QuotaExceeded { tenant }) => assert_eq!(tenant, greedy),
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    // Another tenant is unaffected by the greedy one's cap.
    let other = svc
        .submit(JobRequest::new(long_md(4)).tenant(TenantId(8)))
        .unwrap();
    first.wait().unwrap();
    second.wait().unwrap();
    // Completion releases the slots; the slot frees when the worker
    // drops the queue entry, a hair after the ticket resolves.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let readmitted = loop {
        match svc.submit(JobRequest::new(long_md(5)).tenant(greedy)) {
            Ok(t) => break t,
            Err(SubmitError::QuotaExceeded { .. }) => {
                assert!(std::time::Instant::now() < deadline, "slots never released");
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("unexpected submit error {e:?}"),
        }
    };
    readmitted.wait().unwrap();
    other.wait().unwrap();
    let report = svc.shutdown();
    assert_eq!(report.completed, 4);
    assert_eq!(report.admission_denied, 1, "one quota refusal");
    assert!(report.conservation_holds());
}

/// Interactive work overtakes a queued bulk backlog: an interactive
/// job submitted behind a wall of bulk MD jobs is served before the
/// backlog drains. Also proves the bulk lane is never
/// starved.
#[test]
fn interactive_jobs_overtake_bulk_backlog_under_qos() {
    let svc = DftService::start(ServeConfig {
        workers: 1,
        shards: 1,
        max_batch: 1,
        queue_capacity: 64,
        ..ServeConfig::default()
    });
    // A wall-clock blocker so the backlog below queues before any of it
    // is dispatched.
    let blocker = svc
        .submit(DftJob::MdSegment {
            atoms: 64,
            steps: 100_000,
            temperature_k: 300.0,
            seed: 999,
        })
        .unwrap();
    let bulk: Vec<_> = (0..8)
        .map(|seed| {
            svc.submit(
                JobRequest::new(DftJob::MdSegment {
                    atoms: 64,
                    steps: 5_000,
                    temperature_k: 300.0,
                    seed,
                })
                .priority(Priority::Bulk),
            )
            .unwrap()
        })
        .collect();
    let interactive = svc
        .submit(
            JobRequest::new(DftJob::MdSegment {
                atoms: 64,
                steps: 5_000,
                temperature_k: 300.0,
                seed: 100,
            })
            .priority(Priority::Interactive),
        )
        .unwrap();
    interactive.wait().unwrap();
    // The moment the interactive job finished, the 8-deep bulk backlog
    // cannot all have run on the single worker: it jumped the line.
    let bulk_done = bulk.iter().filter(|t| t.is_done()).count();
    assert!(
        bulk_done < 8,
        "interactive waited out the whole bulk backlog: {bulk_done}/8 done first"
    );
    for t in &bulk {
        t.wait().unwrap();
    }
    blocker.wait().unwrap();
    let snapshot = svc.telemetry();
    let report = svc.shutdown();
    assert_eq!(report.completed, 10);
    assert_eq!(report.failed, 0);
    assert!(report.conservation_holds());
    // Every class shows up in the per-priority latency histograms.
    let jobs_by_priority: Vec<(Priority, u64)> = Priority::ALL
        .iter()
        .map(|&p| (p, snapshot.priority(p).count()))
        .collect();
    assert_eq!(
        jobs_by_priority,
        vec![
            (Priority::Interactive, 1),
            (Priority::Standard, 1),
            (Priority::Bulk, 8)
        ]
    );
}

// ---------------------------------------------------------------------
// Federated serving: consistent-hash routing + fault-injected failover.
// ---------------------------------------------------------------------

fn fed_config(replicas: usize) -> FederationConfig {
    FederationConfig {
        replicas,
        engine: ServeConfig {
            workers: 1,
            shards: 1,
            ..ServeConfig::default()
        },
        ..FederationConfig::default()
    }
}

/// A `steps`-step MD job whose fingerprint homes on `replica` under the
/// federation's current ring (probed via `home_of`, which never ticks
/// the fault plan).
fn homed_md(fed: &FederatedService, replica: usize, steps: usize, seed0: u64) -> DftJob {
    (seed0..)
        .map(|seed| DftJob::MdSegment {
            atoms: 64,
            steps,
            temperature_k: 300.0,
            seed,
        })
        .find(|j| fed.home_of(j).unwrap() == replica)
        .unwrap()
}

/// The headline failover scenario: a seeded [`FaultPlan`] kills one of
/// four replicas in the middle of a submission flood, and every job
/// still resolves exactly once — the killed replica's queued jobs are
/// replayed onto the surviving ring (with their QoS metadata intact,
/// observable as interactive-priority executions on the survivors) and
/// the federated conservation invariant closes the books.
#[test]
fn federated_kill_mid_flood_resolves_every_job_exactly_once() {
    let mut config = fed_config(4);
    // Tick 1 is the wedge blocker; the flood occupies ticks 2..=61. The
    // kill fires on the victim at tick 30 — mid-flood by construction.
    config.fault_plan = FaultPlan::new().kill_at(30, 0);
    let fed = FederatedService::start(config);
    let victim = 0;

    // Wedge the victim: a ~600 ms blocker pins its single worker, so
    // every victim-homed flood job is still queued when the kill lands.
    let blocker = fed
        .submit_blocking(homed_md(&fed, victim, 400_000, 1 << 40))
        .unwrap();
    while fed.replica_queue_depth(victim) != Some(0) {
        std::thread::yield_now();
    }

    // Ten victim-homed interactive jobs go in first (ticks 2..=11, all
    // wedged behind the blocker), then a mixed flood of fast jobs.
    let mut tickets = Vec::new();
    for i in 0..10u64 {
        let job = homed_md(&fed, victim, 50, (1 << 41) + i * (1 << 20));
        let request = JobRequest::new(job)
            .priority(Priority::Interactive)
            .deadline(Duration::from_secs(1_000_000))
            .tenant(TenantId(9));
        tickets.push(fed.submit_blocking(request).unwrap());
    }
    for seed in 0..50u64 {
        let job = DftJob::MdSegment {
            atoms: 64,
            steps: 50,
            temperature_k: 300.0,
            seed,
        };
        tickets.push(fed.submit_blocking(job).unwrap());
    }
    assert!(!fed.is_live(victim), "fault plan fired mid-flood");

    // Exactly-once at the result layer: every client ticket resolves Ok,
    // including the ten jobs that died with the victim's queue.
    blocker
        .wait()
        .expect("in-flight blocker finishes during kill");
    for t in &tickets {
        t.wait().expect("every flooded job completes");
    }

    let telemetry = fed.telemetry_per_replica();
    let report = fed.shutdown();
    assert_eq!(report.kills, 1);
    assert_eq!(report.live, 3);
    assert_eq!(report.submitted, 61);
    assert_eq!(report.completed, 61);
    assert!(report.conservation_holds(), "federated conservation");
    assert!(
        report.engines.conservation_holds(),
        "engine-level conservation"
    );
    assert!(
        report.replayed >= 10,
        "all ten wedged interactive jobs replayed (got {})",
        report.replayed
    );
    // Replay preserved the QoS metadata: the interactive jobs died
    // queued on the victim, yet the survivors' telemetry shows all ten
    // recorded at interactive priority — the replayed submissions
    // carried their priority class across the failover.
    let survivor_interactive: u64 = telemetry
        .iter()
        .enumerate()
        .filter(|&(replica, _)| replica != victim)
        .map(|(_, t)| t.priority(Priority::Interactive).count())
        .sum();
    assert_eq!(
        survivor_interactive, 10,
        "replayed jobs kept their priority"
    );
}

/// Regression: cancelling a job that a replica kill would otherwise
/// replay must tombstone it in the routing log — replay can never
/// resurrect a cancelled job.
#[test]
fn federated_cancel_tombstones_the_routing_entry_against_replay() {
    let fed = FederatedService::start(fed_config(2));
    let victim = fed
        .home_of(&DftJob::MdSegment {
            atoms: 64,
            steps: 1,
            temperature_k: 300.0,
            seed: 0,
        })
        .unwrap();
    let blocker = fed
        .submit_blocking(homed_md(&fed, victim, 300_000, 1 << 50))
        .unwrap();
    while fed.replica_queue_depth(victim) != Some(0) {
        std::thread::yield_now();
    }
    // Queued behind the blocker, then cancelled before the kill.
    let doomed = fed
        .submit_blocking(homed_md(&fed, victim, 60, 1 << 51))
        .unwrap();
    assert!(!doomed.is_done());
    assert!(doomed.cancel(), "cancel wins while the job is queued");
    assert!(matches!(doomed.wait(), Err(JobError::Cancelled)));

    fed.kill_replica(victim).unwrap();
    assert_eq!(
        fed.tombstoned_replays(),
        1,
        "the cancelled entry was dropped at replay time"
    );
    assert!(
        fed.replayed_fingerprints().is_empty(),
        "nothing was resurrected"
    );
    assert!(matches!(doomed.wait(), Err(JobError::Cancelled)));

    blocker.wait().unwrap();
    let report = fed.shutdown();
    assert_eq!(report.submitted, 2);
    assert_eq!(report.completed, 1);
    assert_eq!(report.cancelled, 1);
    assert_eq!(report.replayed, 0);
    assert_eq!(report.tombstoned_replays, 1);
    assert!(report.conservation_holds());
}

/// The federation's client tickets and its engines keep their books by
/// one rule: on a one-replica federation, a completed job and a job
/// cancelled while queued land in the same terminals at both levels,
/// and both levels conserve.
#[test]
fn federated_client_and_engine_books_classify_terminals_alike() {
    let fed = FederatedService::start(fed_config(1));
    // A long blocker wedges the single worker, so the victim is still
    // queued when the cancel lands.
    let blocker = fed
        .submit_blocking(homed_md(&fed, 0, 300_000, 1 << 52))
        .unwrap();
    while fed.replica_queue_depth(0) != Some(0) {
        std::thread::yield_now();
    }
    let done = fed.submit_blocking(homed_md(&fed, 0, 20, 1 << 53)).unwrap();
    let doomed = fed.submit_blocking(homed_md(&fed, 0, 20, 1 << 54)).unwrap();
    assert!(doomed.cancel(), "cancel wins while the job is queued");
    assert!(matches!(doomed.wait(), Err(JobError::Cancelled)));
    done.wait().unwrap();
    blocker.wait().unwrap();

    let report = fed.shutdown();
    let engine = &report.engines;
    let client_books = (
        report.submitted,
        report.completed,
        report.failed,
        report.cancelled,
        report.deadline_dropped,
        report.orphaned,
    );
    let engine_books = (
        engine.submitted,
        engine.completed,
        engine.failed,
        engine.cancelled,
        engine.deadline_dropped,
        engine.orphaned,
    );
    assert_eq!(client_books, (3, 2, 0, 1, 0, 0));
    assert_eq!(client_books, engine_books, "one rule at both levels");
    assert!(report.conservation_holds(), "client-level conservation");
    assert!(engine.conservation_holds(), "engine-level conservation");
}

/// A revived replica rejoins the ring with its disk tier warm: it
/// reopens the same per-replica cache directory, so results it
/// persisted before dying are served from disk — not re-executed —
/// after the restart.
#[test]
fn federated_revive_rejoins_with_warm_disk_tier() {
    let dir = scratch_cache_dir("fed-warm");
    let mut config = fed_config(2);
    config.engine.cache_dir = Some(dir.clone());
    let fed = FederatedService::start(config);
    let victim = fed
        .home_of(&DftJob::MdSegment {
            atoms: 64,
            steps: 1,
            temperature_k: 300.0,
            seed: 0,
        })
        .unwrap();
    let jobs: Vec<DftJob> = (0..4)
        .map(|i| homed_md(&fed, victim, 40 + i, (1 << 52) + i as u64 * (1 << 20)))
        .collect();
    for job in &jobs {
        fed.submit_blocking(job.clone()).unwrap().wait().unwrap();
    }

    fed.kill_replica(victim).unwrap();
    assert!(fed.revive_replica(victim));
    assert!(fed.is_live(victim));

    // Same ring membership ⇒ same homes: the resubmissions route back to
    // the revived victim and are served from its write-ahead log at
    // admission, without touching the numerics.
    for job in &jobs {
        assert_eq!(fed.home_of(job), Some(victim));
        let ticket = fed.submit_blocking(job.clone()).unwrap();
        assert!(ticket.is_done(), "warm disk tier serves at admission");
        ticket.wait().unwrap();
    }

    let report = fed.shutdown();
    assert_eq!(report.submitted, 8);
    assert_eq!(report.completed, 8);
    assert!(report.conservation_holds());
    assert!(
        report.per_replica[victim].cache.disk_hits >= 4,
        "revived incarnation served the resubmissions from disk (got {})",
        report.per_replica[victim].cache.disk_hits
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The headline workflow scenario: one SCF ground state fans out into
/// three self-consistent refinements — each warm-seeded with the
/// parent's outcome — which reduce into a single band structure. The
/// whole graph goes through `submit_workflow` as one spec; the
/// coordinator releases each node the moment its last parent fulfills,
/// and the extended conservation invariant closes the engine's books.
#[test]
fn workflow_fan_out_reduce_completes_with_warm_seeding() {
    let svc = DftService::start(ServeConfig {
        workers: 2,
        shards: 2,
        ..ServeConfig::default()
    });
    let mut spec = WorkflowSpec::new();
    let scf = spec.add_node(DftJob::GroundState {
        atoms: 8,
        bands: 4,
        max_iterations: 6,
    });
    let sweeps: Vec<NodeId> = (0..3)
        .map(|k| {
            spec.add_node(DftJob::ScfSelfConsistent {
                atoms: 8,
                bands: 4,
                max_iterations: 6,
                occupied: 2,
                cycles: 2 + k,
                alpha: 0.4,
            })
        })
        .collect();
    let band = spec.add_node(DftJob::BandStructure {
        atoms: 8,
        segments: 3,
        n_bands: 4,
        scissor_ev: 0.9,
    });
    for &sweep in &sweeps {
        spec.add_edge(scf, sweep);
        spec.add_edge(sweep, band);
    }

    let workflow = svc.submit_workflow(spec).unwrap();
    let results = workflow.wait_all();
    assert_eq!(results.len(), 5);
    for result in &results {
        result.as_ref().expect("every node completes");
    }
    let sweep_headline = results[sweeps[0].index()]
        .as_ref()
        .unwrap()
        .payload
        .headline();

    let report = svc.shutdown();
    assert_eq!(report.workflows, 1);
    assert_eq!(report.workflow_released, 5);
    assert_eq!(report.orphaned, 0);
    assert_eq!(
        report.warm_injected, 3,
        "every sweep was seeded with the SCF parent's outcome"
    );
    assert!(report.conservation_holds(), "extended conservation");

    // Warm seeding is result-preserving: the same refinement run cold
    // on a fresh engine produces the bit-identical headline.
    let cold_svc = DftService::start(ServeConfig {
        workers: 1,
        shards: 1,
        ..ServeConfig::default()
    });
    let cold = cold_svc
        .submit(DftJob::ScfSelfConsistent {
            atoms: 8,
            bands: 4,
            max_iterations: 6,
            occupied: 2,
            cycles: 2,
            alpha: 0.4,
        })
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        cold.payload.headline().to_bits(),
        sweep_headline.to_bits(),
        "warm-seeded refinement is bit-identical to the cold path"
    );
    assert!(cold_svc.shutdown().conservation_holds());
}

/// A replica kill mid-workflow must not break dependency state: the
/// root of a chain dies queued on the victim, is replayed onto the
/// survivor, and its children — still held by the coordinator — are
/// released only after the replayed root completes. Every node ticket
/// resolves exactly once and federated conservation closes the books.
#[test]
fn federated_workflow_survives_replica_kill_with_dependencies_intact() {
    let fed = FederatedService::start(fed_config(2));

    // Wedge one replica with a long blocker, then build a chain whose
    // root homes on it: root → mid → leaf. The root dies queued.
    let root_job = homed_md(&fed, 0, 60, 1 << 44);
    let victim = 0;
    let blocker = fed
        .submit_blocking(homed_md(&fed, victim, 300_000, 1 << 45))
        .unwrap();
    while fed.replica_queue_depth(victim) != Some(0) {
        std::thread::yield_now();
    }

    let mut spec = WorkflowSpec::new();
    let root = spec.add_node(root_job);
    let mid = spec.add_node(DftJob::MdSegment {
        atoms: 64,
        steps: 30,
        temperature_k: 300.0,
        seed: 1 << 46,
    });
    let leaf = spec.add_node(DftJob::Spectrum {
        atoms: 16,
        full_casida: false,
    });
    spec.add_edge(root, mid);
    spec.add_edge(mid, leaf);
    let workflow = fed.submit_workflow(spec).unwrap();
    assert!(
        !workflow.node(root).is_done(),
        "root is wedged behind the blocker"
    );
    assert!(!workflow.node(mid).is_done(), "mid is coordinator-held");

    // Federated releases hop to a detached thread; wait until the root
    // has actually landed in the victim's queue before killing it, so
    // the kill provably strands a queued workflow node.
    while fed.replica_queue_depth(victim) != Some(1) {
        std::thread::yield_now();
    }

    fed.kill_replica(victim).unwrap();
    blocker.wait().expect("in-flight blocker drains on kill");

    let results = workflow.wait_all();
    for result in &results {
        result
            .as_ref()
            .expect("every node completes after failover");
    }

    let report = fed.shutdown();
    assert!(report.replayed >= 1, "the wedged root was replayed");
    assert_eq!(report.workflows, 1);
    assert_eq!(report.workflow_released, 3);
    assert_eq!(report.orphaned, 0);
    assert!(report.conservation_holds(), "federated conservation");
    assert!(
        report.engines.conservation_holds(),
        "engine-level conservation"
    );
}

/// Every bit of a payload: its WAL encoding.
fn payload_bits(payload: &JobPayload) -> Vec<u8> {
    let mut enc = Enc::new();
    payload.encode(&mut enc);
    enc.into_bytes()
}

/// A `GroundState` → 3 × `ScfSelfConsistent` fan-out on two replicas.
/// Workflow edges only order the nodes; each refinement resolves its
/// bootstrap through its home replica's result cache. Two refinements
/// home with the parent and find its ground state there; the third
/// homes on the other replica, solves the bootstrap cold and stores
/// it. Either way every payload equals a cold `execute_payload` of its
/// job bit for bit, and both sets of books close.
#[test]
fn federated_fan_out_matches_cold_on_either_replica() {
    let fed = FederatedService::start(fed_config(2));
    let parent = DftJob::GroundState {
        atoms: 8,
        bands: 4,
        max_iterations: 6,
    };
    let home = fed.home_of(&parent);
    let refinements = (0..50).map(|i| DftJob::ScfSelfConsistent {
        atoms: 8,
        bands: 4,
        max_iterations: 6,
        occupied: 2,
        cycles: 2,
        alpha: 0.3 + 0.01 * i as f64,
    });
    let mut children: Vec<DftJob> = refinements
        .clone()
        .filter(|j| fed.home_of(j) == home)
        .take(2)
        .collect();
    children.extend(refinements.filter(|j| fed.home_of(j) != home).take(1));
    assert_eq!(children.len(), 3);

    let mut spec = WorkflowSpec::new();
    let root = spec.add_node(parent);
    for child in children {
        let node = spec.add_node(child);
        spec.add_edge(root, node);
    }
    let workflow = fed.submit_workflow(spec).unwrap();
    for result in workflow.wait_all() {
        let outcome = result.expect("every node completes");
        let (cold, _) = execute_payload(&outcome.job).unwrap();
        assert!(
            payload_bits(&outcome.payload) == payload_bits(&cold),
            "{}",
            outcome.job
        );
    }

    let report = fed.shutdown();
    assert_eq!(report.workflows, 1);
    assert_eq!(report.workflow_released, 4);
    assert_eq!(report.orphaned, 0);
    assert_eq!(
        report.engines.warm_injected, 2,
        "only the two refinements homed with the parent find its ground state"
    );
    assert!(report.conservation_holds(), "federated conservation");
    assert!(
        report.engines.conservation_holds(),
        "engine-level conservation"
    );
}
