//! The service façade: configuration, lifecycle, and submission.
//!
//! [`DftService::start`] spawns the worker pool; [`DftService::submit`]
//! is the backpressure-aware entry point (cache lookup → bounded queue);
//! [`DftService::shutdown`] drains the queue, joins the workers, and
//! returns the final [`ServeReport`].

use crate::cache::{CachePolicy, ResultCache};
use crate::client::{ClientSession, CompletionStream};
use crate::cluster::{ClusterSnapshot, ClusterView};
use crate::dag::{Backend, WorkflowRegistry, WorkflowSpec, WorkflowTicket};
use crate::job::{DftJob, JobError, JobRequest};
use crate::metrics::{Metrics, ServeReport};
use crate::placement::{plan_batch, PlacementPolicy};
use crate::queue::{ShardedQueue, SubmitError};
use crate::telemetry::{Telemetry, TelemetrySnapshot};
use crate::tenant::TenantTable;
use crate::ticket::JobTicket;
use crate::trace::{ProgressStream, TraceCollector, TraceEvent, TraceEventKind, TraceId};
use crate::worker::{worker_loop, JobOutcome, PendingJob};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Queue shards. Submissions route by [`crate::WorkloadClass`] shard
    /// key, each worker homes on shard `worker % shards`, and idle
    /// workers steal batchable runs from loaded shards. `1` reproduces
    /// the old single-queue engine.
    pub shards: usize,
    /// Bounded submission-queue capacity across all shards (the
    /// backpressure knob; split evenly per shard, rounded up).
    pub queue_capacity: usize,
    /// Maximum jobs one worker drains per dispatch (the batching window).
    pub max_batch: usize,
    /// Planner the workers consult per batch.
    pub policy: PlacementPolicy,
    /// Result-cache capacity, in entries (memory tier).
    pub cache_capacity: usize,
    /// Memory-tier eviction policy. [`CachePolicy::CostWeighted`]
    /// keeps expensive results (Casida solves) through floods of cheap
    /// ones (MD segments); [`CachePolicy::Fifo`] reproduces the seed
    /// engine bit for bit — the A/B knob `serve_study` part 6 flips.
    pub cache_policy: CachePolicy,
    /// Directory for the persistent cache tier. `Some(dir)` attaches a
    /// write-ahead result log under `dir` (created if missing, scanned
    /// on start so results from prior engine instances are warm);
    /// `None` (the default) keeps the cache memory-only. One live
    /// engine per directory: the tier supports *sequential* reuse
    /// across restarts, not concurrent engines sharing a `dir` (see
    /// [`crate::persist`]).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Capacity of each of the event ring's two bounded, drop-oldest
    /// queues: the [`DftService::trace`] collector queue and the
    /// [`DftService::progress`] stream queue. A queue only fills while a
    /// handle of its kind is attached — unwatched engines buffer
    /// nothing and pay one relaxed atomic load per would-be event. Full
    /// ⇒ the oldest undelivered event is evicted and counted
    /// ([`TelemetrySnapshot::trace_events_dropped`],
    /// [`ServeReport::progress_events_dropped`]); publishing never
    /// blocks a worker. Must be positive.
    pub trace_capacity: usize,
    /// Fair-share admission: `Some(n)` caps each [`crate::TenantId`]
    /// at `n` in-flight jobs — submissions over the cap fail with
    /// [`SubmitError::QuotaExceeded`] instead of queueing. `None`
    /// (the default) disables per-tenant accounting.
    pub tenant_quota: Option<u64>,
    /// Fused cross-job batch execution: when `true` (the default) a
    /// worker runs a same-class batch of ≥ 2 executable members through
    /// the shared-operand path — one Hamiltonian / bond-list setup and
    /// a fusion-aware plan serve every member, with per-job results
    /// bit-identical to solo execution. `false` reproduces the per-job
    /// engine exactly (the A/B knob the `serve_study` fused-exec sweep
    /// flips).
    pub fused_execution: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            shards: 2,
            queue_capacity: 64,
            max_batch: 8,
            policy: PlacementPolicy::CostAware,
            cache_capacity: 256,
            cache_policy: CachePolicy::CostWeighted,
            cache_dir: None,
            trace_capacity: 65_536,
            tenant_quota: None,
            fused_execution: true,
        }
    }
}

/// What a submission turned into: a cache hit served on the spot, or a
/// queued job travelling to the workers. The public API wraps this in a
/// [`JobTicket`] ([`Issued::into_ticket`]); [`ClientSession`] consumes
/// it raw, so a cache hit goes straight into its completion channel.
pub(crate) enum Issued {
    /// Served from the result cache at submission time.
    Cached {
        /// The job's content fingerprint.
        fingerprint: crate::fingerprint::Fingerprint,
        /// The trace id the admission allocated for the serve.
        trace: TraceId,
        /// The shared cached outcome.
        outcome: Arc<JobOutcome>,
    },
    /// Enqueued; the ticket resolves when a worker fulfills it.
    Queued(JobTicket),
}

impl Issued {
    /// The ticket view: a cache hit becomes an already-fulfilled ticket.
    pub(crate) fn into_ticket(self) -> JobTicket {
        match self {
            Issued::Cached {
                fingerprint,
                trace,
                outcome,
            } => JobTicket::ready(fingerprint, trace, outcome),
            Issued::Queued(ticket) => ticket,
        }
    }
}

/// State shared between the façade and the worker pool.
///
/// The admission path ([`EngineShared::issue`]) lives here rather
/// than on [`DftService`] so owned `Arc<EngineShared>` handles — the
/// [`crate::dag::Backend`] that sessions and workflow releases submit
/// through, which must be `'static` to ride ticket completion hooks —
/// can submit without borrowing the façade.
pub(crate) struct EngineShared {
    pub(crate) queue: ShardedQueue<PendingJob>,
    pub(crate) cache: ResultCache<Arc<JobOutcome>>,
    pub(crate) cluster: ClusterView,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) telemetry: Arc<Telemetry>,
    pub(crate) tenants: Arc<TenantTable>,
    pub(crate) workflows: WorkflowRegistry,
    pub(crate) config: ServeConfig,
}

/// A running DFT-as-a-Service engine.
pub struct DftService {
    pub(crate) shared: Arc<EngineShared>,
    workers: Vec<JoinHandle<()>>,
}

impl DftService {
    /// Starts the engine with `config`, spawning its worker threads.
    ///
    /// # Panics
    ///
    /// Panics on a zero worker count, shard count, trace capacity, queue
    /// capacity, or cache capacity, and when `cache_dir` is set but the
    /// directory or its write-ahead file cannot be created/opened
    /// (misconfiguration; a *corrupt* existing file is recovered, not
    /// fatal — see [`crate::persist`]).
    pub fn start(config: ServeConfig) -> Self {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.shards > 0, "need at least one shard");
        assert!(config.trace_capacity > 0, "trace capacity must be positive");
        let worker_count = config.workers;
        let cache = match &config.cache_dir {
            Some(dir) => ResultCache::with_disk(config.cache_capacity, config.cache_policy, dir)
                .expect("open persistent cache tier under cache_dir"),
            None => ResultCache::new(config.cache_capacity, config.cache_policy),
        };
        let shared = Arc::new(EngineShared {
            queue: ShardedQueue::new(config.shards, config.queue_capacity),
            cache,
            cluster: ClusterView::new(config.shards),
            metrics: Arc::new(Metrics::new(config.shards, config.workers)),
            telemetry: Arc::new(Telemetry::new(config.trace_capacity)),
            tenants: Arc::new(TenantTable::new(config.tenant_quota)),
            workflows: WorkflowRegistry::new(),
            config,
        });
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("ndft-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn worker thread")
            })
            .collect();
        DftService { shared, workers }
    }

    /// Starts with defaults.
    pub fn start_default() -> Self {
        DftService::start(ServeConfig::default())
    }

    /// Backpressure-aware submission: serves from the result cache when
    /// possible, otherwise enqueues without blocking.
    ///
    /// Accepts anything convertible into a [`JobRequest`]: a bare
    /// [`DftJob`] submits with default QoS (standard priority, no
    /// deadline, default tenant); use the builder for more:
    /// `JobRequest::new(job).priority(Priority::Interactive)
    /// .deadline(d).tenant(t)`.
    ///
    /// # Errors
    ///
    /// [`SubmitError::InvalidJob`] for impossible systems,
    /// [`SubmitError::QueueFull`] when saturated (back off and retry),
    /// [`SubmitError::AdmissionDenied`] when the modeled finish time
    /// overruns the request's deadline, [`SubmitError::QuotaExceeded`]
    /// when the tenant is at its in-flight quota, and
    /// [`SubmitError::Closed`] after shutdown began.
    pub fn submit(&self, request: impl Into<JobRequest>) -> Result<JobTicket, SubmitError> {
        let issued = self.shared.issue(request.into(), false)?;
        Ok(issued.into_ticket())
    }

    /// Like [`DftService::submit`] but blocks for queue space instead of
    /// returning [`SubmitError::QueueFull`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::InvalidJob`], [`SubmitError::AdmissionDenied`],
    /// [`SubmitError::QuotaExceeded`], or [`SubmitError::Closed`].
    pub fn submit_blocking(
        &self,
        request: impl Into<JobRequest>,
    ) -> Result<JobTicket, SubmitError> {
        let issued = self.shared.issue(request.into(), true)?;
        Ok(issued.into_ticket())
    }

    /// Submits a dependency graph of jobs. Nodes with no parents enter
    /// the normal submit path immediately; every other node is held by
    /// the workflow coordinator and released the moment its last parent
    /// fulfills — riding a ticket completion hook, so readiness costs no
    /// polling thread. A parent's outcome is stored in the result cache
    /// before its children release, so a self-consistent child whose
    /// bootstrap it is starts from it, and a parent served from the
    /// result cache releases its children instantly. A failed
    /// parent (or engine shutdown) fails every unreleased descendant
    /// exactly once, counted as `orphaned` in the [`ServeReport`].
    ///
    /// # Errors
    ///
    /// [`crate::WorkflowError`] when the spec is empty, has a dangling
    /// or self edge, contains a cycle, or a node's job fails
    /// [`DftJob::validate`] — all checked before any node ticket or
    /// engine state is created, so a rejected spec leaks nothing.
    pub fn submit_workflow(
        &self,
        spec: WorkflowSpec,
    ) -> Result<WorkflowTicket, crate::dag::WorkflowError> {
        crate::dag::submit(Backend::Engine(Arc::clone(&self.shared)), spec)
    }
}

impl EngineShared {
    /// The engine's one admission path: validate, serve from the
    /// result cache, or check the deadline and tenant quota and
    /// enqueue. `blocking` waits for queue space instead of failing
    /// with [`SubmitError::QueueFull`].
    pub(crate) fn issue(&self, request: JobRequest, blocking: bool) -> Result<Issued, SubmitError> {
        let JobRequest {
            job,
            priority,
            deadline,
            tenant,
        } = request;
        if let Err(e) = job.validate() {
            return Err(SubmitError::InvalidJob(e.to_string()));
        }
        let admitted = Instant::now();
        let fingerprint = job.fingerprint();
        let class = job.workload_class();
        // Two-tier lookup: memory, then (when configured) the
        // persistent tier — a disk hit decodes the record, promotes it
        // into memory, and serves without ever touching the queue.
        if let Some((hit, tier)) = self.cache.fetch_tiered(&fingerprint) {
            self.metrics.on_serve_from_cache();
            let trace = self.telemetry.next_trace_id();
            // The serve still counts end-to-end: the job's whole life is
            // this lookup, so the pairing with `completed` holds.
            let e2e = admitted.elapsed();
            self.telemetry.record_end_to_end(class, priority, e2e);
            if self.telemetry.traced() {
                let served = TraceEvent {
                    seq: 0,
                    trace,
                    fingerprint,
                    class,
                    worker: None,
                    start_ns: self.telemetry.ns_at(admitted),
                    dur_ns: 0,
                    kind: TraceEventKind::CacheHit { tier },
                };
                // The serve's whole life is the lookup, so the
                // already-measured end-to-end span is the fulfill span —
                // no second clock read.
                let fulfill = TraceEvent {
                    dur_ns: e2e.as_nanos() as u64,
                    kind: TraceEventKind::TicketFulfill {
                        ok: true,
                        cached: true,
                    },
                    ..served
                };
                // One ring acquisition for the whole two-event chain,
                // straight from the stack — this is the hottest traced
                // path on a warm cache.
                self.telemetry.publish_slice(&[served, fulfill]);
            }
            return Ok(Issued::Cached {
                fingerprint,
                trace,
                outcome: hit,
            });
        }
        // Deadline admission: the modeled finish (queue pressure plus
        // this job's modeled run) must fit the deadline, or the job is
        // refused up front rather than queued to die. Checked after the
        // cache lookup — a warm serve beats any deadline.
        if let Some(d) = deadline {
            let deadline_s = d.as_secs_f64();
            let modeled_finish_s = self.modeled_finish_s(&job);
            if modeled_finish_s > deadline_s {
                self.metrics.on_admission_denied();
                return Err(SubmitError::AdmissionDenied {
                    modeled_finish_s,
                    deadline_s,
                });
            }
        }
        // Fair share: claim the tenant's in-flight slot last so a
        // denied deadline never charges the quota. The slot rides the
        // PendingJob and releases on every exit path by RAII.
        let tenant_slot = match self.tenants.try_acquire(tenant) {
            Ok(slot) => slot,
            Err(e) => {
                self.metrics.on_admission_denied();
                return Err(e);
            }
        };
        let trace = self.telemetry.next_trace_id();
        let ticket = JobTicket::pending(fingerprint, trace);
        // Class-keyed routing: a wave of same-class jobs lands on one
        // shard, so a home drain (or a stolen run) stays batchable under
        // a single planner consultation.
        let shard_key = class.shard_key();
        let shard = self.queue.shard_for(shard_key);
        let lane = priority.index();
        let pending = PendingJob {
            job,
            fingerprint,
            class,
            trace,
            priority,
            deadline,
            _tenant_slot: tenant_slot,
            ticket: ticket.clone(),
            enqueued: admitted,
            metrics: Arc::clone(&self.metrics),
            telemetry: Arc::clone(&self.telemetry),
        };
        // Enqueue is published *before* the push: once the job is in
        // the queue a worker may publish the rest of its lane at any
        // moment, and the lifecycle must never appear out of order. A
        // rejected push hands the PendingJob back, and the error arm
        // below closes the dangling lane itself — a never-admitted job
        // must not run the worker-side Drop guard's failure accounting.
        if self.telemetry.traced() {
            let start_ns = self.telemetry.ns_at(admitted);
            self.telemetry.publish(pending.event(
                None,
                start_ns,
                0,
                TraceEventKind::Enqueue { shard },
            ));
        }
        let pushed = if blocking {
            self.queue.push_at(shard_key, lane, pending)
        } else {
            self.queue.try_push_at(shard_key, lane, pending)
        };
        match pushed {
            Ok(()) => {
                self.metrics.ledger.admit();
                Ok(Issued::Queued(ticket))
            }
            Err((pending, e)) => {
                if e == SubmitError::QueueFull {
                    self.metrics.on_reject();
                }
                // Close the lane with a failed fulfill event, then defuse
                // the Drop guard by resolving the ticket first: this job
                // was never admitted, so it counts as a rejection — not
                // as a submitted-then-failed job (and records no
                // end-to-end latency, for the same reason).
                if self.telemetry.traced() {
                    let fulfill = TraceEventKind::TicketFulfill {
                        ok: false,
                        cached: false,
                    };
                    let now_ns = self.telemetry.now_ns();
                    self.telemetry
                        .publish(pending.event(None, now_ns, 0, fulfill));
                }
                pending.ticket.fulfill(Err(JobError::ShutDown));
                drop(pending);
                Err(e)
            }
        }
    }

    /// Modeled seconds until a job submitted *now* would finish:
    /// current reservation pressure plus the backlog's modeled drain
    /// (approximated as the queue depth times this job's own modeled
    /// run — a deliberate worst-case stand-in, since queued jobs'
    /// graphs aren't re-planned here), spread across the worker pool,
    /// plus the job's own modeled run. The admission-control estimate
    /// behind [`SubmitError::AdmissionDenied`].
    fn modeled_finish_s(&self, job: &DftJob) -> f64 {
        let Ok(graph) = job.task_graph() else {
            // Invalid systems are rejected before admission; an
            // unreachable fallback that admits rather than lies.
            return 0.0;
        };
        let snap = self.cluster.snapshot();
        let (decision, _, _) = plan_batch(&graph, self.config.policy, &snap, 1);
        let run_s = decision.modeled_cost_s(job.modeled_iterations());
        let backlog_s = snap.cpu_reserved_s + snap.ndp_reserved_s + self.queue.len() as f64 * run_s;
        backlog_s / self.config.workers.max(1) as f64 + run_s
    }
}

impl DftService {
    /// Opens a multiplexing [`ClientSession`] over this engine, paired
    /// with the [`CompletionStream`] its finished jobs drain through in
    /// finish order. Any number of sessions can coexist; each sees only
    /// its own submissions.
    pub fn session(&self) -> (ClientSession<'_>, CompletionStream) {
        ClientSession::new(Backend::Engine(Arc::clone(&self.shared)))
    }

    /// Subscribes to the engine's per-job lifecycle events (`Queued` →
    /// `Running` → `Done`): a live view of the lifecycle kinds of the
    /// event ring. Handles share one bounded drop-oldest queue and
    /// consume destructively — see [`crate::trace`].
    pub fn progress(&self) -> ProgressStream {
        ProgressStream::new(Arc::clone(&self.shared.telemetry))
    }

    /// Live in-flight ticket gauge: submissions not yet fulfilled
    /// (cache serves count as instantly fulfilled).
    pub fn tickets_outstanding(&self) -> u64 {
        self.shared.metrics.ledger.outstanding()
    }

    /// Jobs currently queued across all shards (not yet picked up by a
    /// worker).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// Live per-shard queue depths (index = shard).
    pub fn shard_depths(&self) -> Vec<usize> {
        self.shared.queue.shard_depths()
    }

    /// Live view of what concurrent batches have reserved per target.
    pub fn cluster_snapshot(&self) -> ClusterSnapshot {
        self.shared.cluster.snapshot()
    }

    /// Consistent export of the per-stage latency histograms: one
    /// [`crate::HistogramSnapshot`] per [`crate::Stage`] per
    /// [`crate::WorkloadClass`] (execute additionally split by
    /// [`crate::PlacementTarget`]), the span-ring counters, and the
    /// queue's per-shard high-watermarks. Serializable with
    /// [`TelemetrySnapshot::to_json`].
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut snap = self.shared.telemetry.snapshot();
        snap.queue_high_watermarks = self.shared.queue.shard_high_watermarks();
        snap
    }

    /// Attaches a [`TraceCollector`] to the engine's span-event ring.
    /// While any collector is alive, workers publish a
    /// [`crate::TraceEvent`] at every job lifecycle transition; drain
    /// them and render with [`crate::chrome_trace_json`]. With no
    /// collector attached the engine buffers nothing and each would-be
    /// event costs one relaxed atomic load.
    pub fn trace(&self) -> TraceCollector {
        TraceCollector::new(Arc::clone(&self.shared.telemetry))
    }

    /// Live metrics snapshot, taken as one consistent pass.
    ///
    /// The report folds together counters (metrics), cache stats, and
    /// the queue's live per-shard depths — state owned by three
    /// different structures that workers mutate concurrently. Reading
    /// them one after another can pair a depth vector with dispatch
    /// counters from a different instant (a drain between the two reads
    /// makes `shard_depths` and `shard_dispatched` disagree about the
    /// same jobs). The snapshot is therefore taken seqlock-style:
    /// record the depths *and* the monotonic lifetime dispatch total,
    /// snapshot everything, re-read both, and retry if either moved.
    /// The monotonic counters are the real witnesses — depths alone
    /// could read equal across a drain + offsetting pushes, but the
    /// dispatch total only ever grows, so equality proves no dispatch
    /// raced the snapshot. A handful of attempts always suffices in
    /// practice; if the engine churns faster than we can snapshot, the
    /// last (possibly torn) attempt is returned rather than spinning
    /// forever. Latency is not in the report: read it from
    /// [`DftService::telemetry`].
    pub fn report(&self) -> ServeReport {
        let mut report = None;
        for _ in 0..8 {
            let depths = self.shared.queue.shard_depths();
            let dispatched = self.shared.metrics.total_dispatched();
            let r = self.shared.metrics.report(
                self.shared.cache.stats(),
                depths.clone(),
                self.shared.telemetry.progress_events_dropped(),
            );
            let stable = self.shared.metrics.total_dispatched() == dispatched
                && self.shared.queue.shard_depths() == depths;
            report = Some(r);
            if stable {
                break;
            }
        }
        report.expect("at least one snapshot attempt")
    }

    /// Begins shutdown without consuming the service: closes the
    /// submission queue, so new submissions fail with
    /// [`SubmitError::Closed`] and **every producer blocked in
    /// [`DftService::submit_blocking`] on a full shard wakes with
    /// `Closed`** rather than hanging. Queued work still drains;
    /// call [`DftService::shutdown`] (or drop) to join the workers.
    pub fn close(&self) {
        self.shared.queue.close();
    }

    /// Stops accepting work, drains every shard, joins the workers, and
    /// returns the final report.
    pub fn shutdown(mut self) -> ServeReport {
        self.shutdown_in_place();
        self.report()
    }

    /// Abrupt stop — the fault-injection counterpart to
    /// [`DftService::shutdown`]. Where `shutdown` lets the closed queue
    /// drain (workers exit only once it is empty, so every queued job
    /// still executes), `kill` closes the queue and **sweeps the backlog
    /// first**: still-queued jobs fail fast with
    /// [`crate::JobError::ShutDown`] instead of running. Jobs a worker
    /// already started finish normally and resolve their tickets. This
    /// is what a federated replica loss looks like from the inside —
    /// the queued jobs' failures are what [`crate::FederatedService`]
    /// replays onto the surviving ring.
    pub fn kill(mut self) -> ServeReport {
        self.shared.queue.close();
        // The shutdown sweep, run *before* joining, so the backlog dies
        // instead of draining. Workers racing the sweep may still pop a
        // few jobs; those execute and count as completed — the
        // exactly-once ticket layer makes both outcomes equivalent to a
        // caller.
        self.sweep_queue();
        self.shutdown_in_place();
        self.report()
    }

    fn shutdown_in_place(&mut self) {
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            if w.join().is_err() {
                self.shared.metrics.on_worker_panic();
            }
        }
        // Workers fulfill every ticket they dequeue (panics included) and
        // only exit once the closed queue is empty, so leftovers exist
        // only if a worker thread died outright. Sweep them explicitly
        // rather than leaving waiters hanging.
        self.sweep_queue();
        // Workflow sweep: nodes still *held* by the coordinator have no
        // queue entry, so orphan them here, exactly once each (the
        // per-node phase guard makes a racing cascade and this sweep
        // idempotent), and every workflow ticket resolves.
        self.shared.workflows.sweep();
        // Close the event ring last: buffered events still drain, then
        // blocked progress streams observe end-of-stream instead of
        // parking forever on a dead engine.
        self.shared.telemetry.ring().close();
    }

    /// Settles every still-queued entry through [`PendingJob::fail`]:
    /// a cancelled tombstone (its ticket already resolved) counts once
    /// as cancelled, anything else fails with
    /// [`JobError::ShutDown`]. Swept entries drop with their
    /// tickets done, so the `PendingJob` Drop guard adds nothing.
    fn sweep_queue(&self) {
        for pending in self.shared.queue.drain_all() {
            pending.fail(if pending.ticket.is_done() {
                JobError::Cancelled
            } else {
                JobError::ShutDown
            });
        }
    }
}

impl Drop for DftService {
    fn drop(&mut self) {
        // Safety net for callers that drop without shutdown(): workers
        // would otherwise block forever on the open queue.
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobPayload, Priority};
    use std::time::Duration;

    fn md(atoms: usize, seed: u64) -> DftJob {
        DftJob::MdSegment {
            atoms,
            steps: 5,
            temperature_k: 300.0,
            seed,
        }
    }

    #[test]
    fn submit_execute_wait_roundtrip() {
        let svc = DftService::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let ticket = svc.submit(md(64, 1)).unwrap();
        let outcome = ticket.wait().unwrap();
        match outcome.payload {
            JobPayload::Md(ref t) => assert_eq!(t.atoms, 64),
            ref other => panic!("unexpected payload {other:?}"),
        }
        let report = svc.shutdown();
        assert_eq!(report.completed, 1);
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn resubmission_hits_cache() {
        let svc = DftService::start_default();
        svc.submit(md(64, 7)).unwrap().wait().unwrap();
        let again = svc.submit(md(64, 7)).unwrap();
        assert!(again.is_done(), "cache serve resolves immediately");
        let report = svc.shutdown();
        assert!(report.served_from_cache >= 1);
        assert!(report.cache.hits >= 1);
    }

    #[test]
    fn invalid_job_rejected_at_submission() {
        let svc = DftService::start_default();
        match svc.submit(md(10, 0)) {
            Err(SubmitError::InvalidJob(_)) => {}
            other => panic!("expected InvalidJob, got {other:?}"),
        }
        let report = svc.shutdown();
        assert_eq!(report.submitted, 0);
    }

    #[test]
    fn shutdown_drains_pending_work() {
        let svc = DftService::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let tickets: Vec<_> = (0..6).map(|s| svc.submit(md(64, s)).unwrap()).collect();
        let report = svc.shutdown();
        assert!(tickets.iter().all(|t| t.is_done()), "drained on shutdown");
        assert_eq!(report.completed, 6);
    }

    #[test]
    #[should_panic(expected = "trace capacity must be positive")]
    fn zero_trace_capacity_is_rejected_at_start() {
        DftService::start(ServeConfig {
            trace_capacity: 0,
            ..ServeConfig::default()
        });
    }

    #[test]
    fn submissions_rejected_after_shutdown() {
        let mut svc = DftService::start_default();
        svc.shutdown_in_place();
        assert!(matches!(svc.submit(md(64, 0)), Err(SubmitError::Closed)));
    }

    /// Every batch plans on its size's kept machine: served outcomes
    /// carry, bit for bit, the plan and report a freshly built machine
    /// gives for the same batch width and load.
    #[test]
    fn served_plans_match_a_fresh_machine() {
        use crate::placement::{fresh_machine, plan_batch_on, plan_bits};
        let svc = DftService::start(ServeConfig {
            workers: 1,
            shards: 1,
            ..ServeConfig::default()
        });
        // Load that every plan sees, held for the whole test.
        let load = svc.shared.cluster.reserve(0, 0.5, 2.0);
        // Wedge the worker until the flood is queued, so the flood
        // forms one fused batch.
        let blocker = svc
            .submit(DftJob::MdSegment {
                atoms: 64,
                steps: 50_000,
                temperature_k: 300.0,
                seed: 0,
            })
            .unwrap();
        let wedged_by = Instant::now() + Duration::from_secs(10);
        while svc.cluster_snapshot().inflight_batches() < 2 {
            assert!(Instant::now() < wedged_by, "the blocker never planned");
            std::thread::yield_now();
        }
        let flood: Vec<_> = (1..=4)
            .map(|seed| svc.submit(md(16, seed)).unwrap())
            .collect();
        let mut served: Vec<_> = flood.iter().map(|t| (t.wait().unwrap(), 4)).collect();
        served.push((blocker.wait().unwrap(), 1));
        drop(load);
        let report = svc.shutdown();
        assert_eq!(
            (report.fused_batches, report.fused_jobs),
            (1, 4),
            "{report}"
        );
        let load = ClusterSnapshot {
            cpu_reserved_s: 0.5,
            ndp_reserved_s: 2.0,
            shard_inflight: Vec::new(),
        };
        for (outcome, members) in served {
            let placement = &outcome.placement;
            assert_eq!((placement.cpu_load_s, placement.ndp_load_s), (0.5, 2.0));
            let fresh = fresh_machine(outcome.job.atoms());
            let graph = outcome.job.task_graph().unwrap();
            let (decision, modeled, _) =
                plan_batch_on(&fresh, &graph, PlacementPolicy::CostAware, &load, members);
            assert!(
                plan_bits(placement, &outcome.modeled, 0.0) == plan_bits(&decision, &modeled, 0.0),
                "{} x{members}",
                outcome.job
            );
        }
    }

    /// A queued entry whose deadline has already passed is dropped by
    /// the worker that reaches it: counted, ticket resolved with
    /// `DeadlineExceeded`, and the conservation invariant still holds.
    ///
    /// Modeled time runs ~1000x wall time here, so any deadline loose
    /// enough to pass modeled admission can never expire during a
    /// millisecond-scale real queue wait — the expired entry is built
    /// directly to exercise the worker-side path deterministically.
    #[test]
    fn workers_drop_deadline_expired_queued_jobs() {
        let svc = DftService::start(ServeConfig {
            workers: 1,
            shards: 1,
            max_batch: 1,
            ..ServeConfig::default()
        });
        // Wedge the single worker with real wall-clock work so the
        // hand-built entry sits queued until its deadline check.
        let blocker = svc
            .submit(DftJob::MdSegment {
                atoms: 64,
                steps: 50_000,
                temperature_k: 300.0,
                seed: 1,
            })
            .unwrap();
        let job = md(64, 2);
        let fingerprint = job.fingerprint();
        let class = job.workload_class();
        let trace = svc.shared.telemetry.next_trace_id();
        let ticket = JobTicket::pending(fingerprint, trace);
        let pending = PendingJob {
            job,
            fingerprint,
            class,
            trace,
            priority: Priority::Standard,
            deadline: Some(Duration::from_nanos(1)),
            _tenant_slot: None,
            ticket: ticket.clone(),
            enqueued: Instant::now(),
            metrics: Arc::clone(&svc.shared.metrics),
            telemetry: Arc::clone(&svc.shared.telemetry),
        };
        assert!(svc
            .shared
            .queue
            .try_push_at(class.shard_key(), Priority::Standard.index(), pending)
            .is_ok());
        // Keep the books paired with the push, exactly as issue() does.
        svc.shared.metrics.ledger.admit();
        assert_eq!(ticket.wait().unwrap_err(), JobError::DeadlineExceeded);
        blocker.wait().unwrap();
        let report = svc.shutdown();
        assert_eq!(report.deadline_dropped, 1);
        assert_eq!(report.completed, 1);
        assert_eq!(report.tickets_outstanding, 0);
        assert!(report.conservation_holds());
    }
}
