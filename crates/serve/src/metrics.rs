//! Service metrics and the aggregate [`ServeReport`].
//!
//! Counters sit on atomics (submission fast path); modeled per-target
//! busy time accumulates under a small mutex touched once per executed
//! job and once per plan. A [`ServeReport`] snapshot folds in the cache
//! counters and renders as a plain-text table for examples and harness
//! binaries. Latency is not counted here: it lives in the telemetry
//! histograms ([`crate::TelemetrySnapshot`]).

use crate::batch::BatchOrigin;
use crate::cache::CacheStats;
use crate::job::JobError;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Default, Clone, Copy)]
struct Accum {
    wall_numeric_s: f64,
    modeled_cpu_busy_s: f64,
    modeled_ndp_busy_s: f64,
    modeled_total_s: f64,
    modeled_cpu_pinned_s: f64,
    cpu_contention_s: f64,
    ndp_contention_s: f64,
    fused_amortized_s: f64,
}

/// Modeled-cost contribution of one executed job, taken from its
/// placement decision and wall-clock measurement.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecutionSample {
    /// Wall-clock the numeric kernels took, seconds.
    pub wall_numeric_s: f64,
    /// Modeled busy time on the host CPU, seconds.
    pub modeled_cpu_busy_s: f64,
    /// Modeled busy time on the NDP stacks, seconds.
    pub modeled_ndp_busy_s: f64,
    /// Modeled end-to-end time of the chosen plan, seconds.
    pub modeled_total_s: f64,
    /// Modeled time of the CPU-pinned baseline, seconds.
    pub modeled_cpu_pinned_s: f64,
}

/// The conservation books: accepted submissions, the five terminals
/// they settle into, and the workflow-shaped views. Each engine's
/// [`Metrics`] holds one and the federation holds one for its client
/// tickets, so both levels classify terminals by the one rule in
/// [`Ledger::terminal`] and both close `submitted == completed + failed
/// + cancelled + deadline_dropped + orphaned` once drained.
#[derive(Default)]
pub(crate) struct Ledger {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    deadline_dropped: AtomicU64,
    orphaned: AtomicU64,
    workflows: AtomicU64,
    workflow_released: AtomicU64,
}

/// A point-in-time read of a [`Ledger`], field for field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Books {
    pub(crate) submitted: u64,
    pub(crate) completed: u64,
    pub(crate) failed: u64,
    pub(crate) cancelled: u64,
    pub(crate) deadline_dropped: u64,
    pub(crate) orphaned: u64,
    pub(crate) workflows: u64,
    pub(crate) workflow_released: u64,
}

impl Ledger {
    /// Counts an accepted submission (queued or served from cache).
    pub(crate) fn admit(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one settled submission in the terminal its result names:
    /// `Ok` → completed, [`JobError::Cancelled`] → cancelled,
    /// [`JobError::DeadlineExceeded`] → deadline_dropped, any other
    /// error → failed. The only place an error picks a counter.
    pub(crate) fn terminal(&self, result: Result<(), &JobError>) {
        let counter = match result {
            Ok(()) => &self.completed,
            Err(JobError::Cancelled) => &self.cancelled,
            Err(JobError::DeadlineExceeded) => &self.deadline_dropped,
            Err(_) => &self.failed,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a workflow node orphaned before release. Orphans never
    /// enter a queue, so this is the one place they join `submitted`;
    /// bumping both keeps the invariant exact at every instant.
    pub(crate) fn orphan(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.orphaned.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an accepted workflow graph (its nodes count as they go).
    pub(crate) fn workflow(&self) {
        self.workflows.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a workflow node released into the submit path (which
    /// admits it as usual: a view, not a terminal).
    pub(crate) fn released(&self) {
        self.workflow_released.fetch_add(1, Ordering::Relaxed);
    }

    /// Submissions not yet settled: `submitted` minus the five
    /// terminals. A drained front door reads zero. Saturating, because
    /// relaxed counters can show a terminal before its admission.
    pub(crate) fn outstanding(&self) -> u64 {
        let b = self.books();
        b.submitted
            .saturating_sub(b.completed + b.failed + b.cancelled + b.deadline_dropped + b.orphaned)
    }

    /// Reads every counter.
    pub(crate) fn books(&self) -> Books {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        Books {
            submitted: read(&self.submitted),
            completed: read(&self.completed),
            failed: read(&self.failed),
            cancelled: read(&self.cancelled),
            deadline_dropped: read(&self.deadline_dropped),
            orphaned: read(&self.orphaned),
            workflows: read(&self.workflows),
            workflow_released: read(&self.workflow_released),
        }
    }
}

/// Live counters for one engine instance.
pub struct Metrics {
    started: Instant,
    /// The engine's conservation books.
    pub(crate) ledger: Ledger,
    rejected: AtomicU64,
    admission_denied: AtomicU64,
    served_from_cache: AtomicU64,
    batches: AtomicU64,
    planner_calls: AtomicU64,
    plans_reused: AtomicU64,
    worker_panics: AtomicU64,
    steals: AtomicU64,
    stolen_jobs: AtomicU64,
    stolen_batches: AtomicU64,
    plans_contended: AtomicU64,
    plans_shifted: AtomicU64,
    warm_injected: AtomicU64,
    fused_jobs: AtomicU64,
    fused_batches: AtomicU64,
    shard_dispatched: Vec<AtomicU64>,
    worker_dispatched: Vec<AtomicU64>,
    accum: Mutex<Accum>,
}

impl Metrics {
    /// Fresh metrics anchored at "now", sized for `shards` queue shards
    /// and `workers` worker threads.
    pub fn new(shards: usize, workers: usize) -> Self {
        Metrics {
            started: Instant::now(),
            ledger: Ledger::default(),
            rejected: AtomicU64::new(0),
            admission_denied: AtomicU64::new(0),
            served_from_cache: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            planner_calls: AtomicU64::new(0),
            plans_reused: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            stolen_jobs: AtomicU64::new(0),
            stolen_batches: AtomicU64::new(0),
            plans_contended: AtomicU64::new(0),
            plans_shifted: AtomicU64::new(0),
            warm_injected: AtomicU64::new(0),
            fused_jobs: AtomicU64::new(0),
            fused_batches: AtomicU64::new(0),
            shard_dispatched: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            worker_dispatched: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            accum: Mutex::new(Accum::default()),
        }
    }

    /// Records one dequeue by `worker` of `jobs` jobs that had been
    /// queued on `shard` — either a home drain or a stolen run
    /// (`stolen`). Feeds the steal counters and the per-shard /
    /// per-worker dispatch histograms.
    pub fn on_dispatch(&self, worker: usize, shard: usize, jobs: u64, stolen: bool) {
        if stolen {
            self.steals.fetch_add(1, Ordering::Relaxed);
            self.stolen_jobs.fetch_add(jobs, Ordering::Relaxed);
        }
        if let Some(s) = self.shard_dispatched.get(shard) {
            s.fetch_add(jobs, Ordering::Relaxed);
        }
        if let Some(w) = self.worker_dispatched.get(worker) {
            w.fetch_add(jobs, Ordering::Relaxed);
        }
    }

    /// Counts a backpressure rejection.
    pub fn on_reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a submission answered directly from the result cache
    /// (never queued).
    pub fn on_serve_from_cache(&self) {
        self.ledger.admit();
        self.on_dedup_complete();
    }

    /// Records one planner consultation's view of the cluster:
    /// `cpu_load_s` / `ndp_load_s` are the reserved busy seconds
    /// concurrent batches held when the plan was made, and `shifted`
    /// whether that load actually changed the placement. Feeds the
    /// report's per-target contention sums and shift counters.
    pub fn on_plan(&self, cpu_load_s: f64, ndp_load_s: f64, shifted: bool) {
        if cpu_load_s > 0.0 || ndp_load_s > 0.0 {
            self.plans_contended.fetch_add(1, Ordering::Relaxed);
        }
        if shifted {
            self.plans_shifted.fetch_add(1, Ordering::Relaxed);
        }
        let mut a = self.accum.lock().unwrap();
        a.cpu_contention_s += cpu_load_s.max(0.0);
        a.ndp_contention_s += ndp_load_s.max(0.0);
    }

    /// Counts one processed batch: `planner_consulted` when a plan was
    /// made for it, `plan_riders` the executed jobs beyond the first that
    /// rode that plan instead of re-planning, and `origin` whether the
    /// batch was drained from the worker's home shard or stolen. A batch
    /// fully served from cache consults no planner and has no riders.
    pub fn on_batch(&self, planner_consulted: bool, plan_riders: u64, origin: BatchOrigin) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        if planner_consulted {
            self.planner_calls.fetch_add(1, Ordering::Relaxed);
        }
        self.plans_reused.fetch_add(plan_riders, Ordering::Relaxed);
        if origin == BatchOrigin::Stolen {
            self.stolen_batches.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a job the worker actually executed.
    pub fn on_executed(&self, sample: ExecutionSample) {
        self.ledger.terminal(Ok(()));
        let mut a = self.accum.lock().unwrap();
        a.wall_numeric_s += sample.wall_numeric_s;
        a.modeled_cpu_busy_s += sample.modeled_cpu_busy_s;
        a.modeled_ndp_busy_s += sample.modeled_ndp_busy_s;
        a.modeled_total_s += sample.modeled_total_s;
        a.modeled_cpu_pinned_s += sample.modeled_cpu_pinned_s;
    }

    /// Records a queued job completed by cache/dedup inside a worker.
    pub fn on_dedup_complete(&self) {
        self.ledger.terminal(Ok(()));
        self.served_from_cache.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a submission refused by admission control — either a
    /// modeled deadline overrun or a tenant quota breach. These jobs
    /// never enter the queue and never count as submitted.
    pub fn on_admission_denied(&self) {
        self.admission_denied.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a worker thread that died by panic (seen at join time).
    pub fn on_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a self-consistent execution whose bootstrap ground state
    /// the result cache served (result-preserving seeding).
    pub fn on_warm_inject(&self) {
        self.warm_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one batch executed through the fused cross-job path:
    /// `jobs` members shared one operand setup and `amortized_s` is the
    /// modeled seconds the fusion shaved off relative to planning and
    /// executing each member solo (Σ over members of solo-modeled minus
    /// fused-modeled time, clamped at zero).
    pub fn on_fused(&self, jobs: u64, amortized_s: f64) {
        self.fused_batches.fetch_add(1, Ordering::Relaxed);
        self.fused_jobs.fetch_add(jobs, Ordering::Relaxed);
        self.accum.lock().unwrap().fused_amortized_s += amortized_s.max(0.0);
    }

    /// Lifetime total of jobs dispatched out of all shards. Monotonic,
    /// so [`crate::DftService::report`] uses it as the seqlock
    /// stability witness: equal before/after a snapshot ⇒ no dispatch
    /// raced it.
    pub fn total_dispatched(&self) -> u64 {
        self.shard_dispatched
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot folded together with cache counters, the queue's live
    /// per-shard depths and the progress-stream queue's drop counter.
    pub fn report(
        &self,
        cache: CacheStats,
        shard_depths: Vec<usize>,
        progress_events_dropped: u64,
    ) -> ServeReport {
        let a = *self.accum.lock().unwrap();
        let books = self.ledger.books();
        ServeReport {
            uptime_s: self.started.elapsed().as_secs_f64(),
            tickets_outstanding: self.ledger.outstanding(),
            progress_events_dropped,
            steals: self.steals.load(Ordering::Relaxed),
            stolen_jobs: self.stolen_jobs.load(Ordering::Relaxed),
            stolen_batches: self.stolen_batches.load(Ordering::Relaxed),
            plans_contended: self.plans_contended.load(Ordering::Relaxed),
            plans_shifted: self.plans_shifted.load(Ordering::Relaxed),
            cpu_contention_s: a.cpu_contention_s,
            ndp_contention_s: a.ndp_contention_s,
            shard_depths,
            shard_dispatched: self
                .shard_dispatched
                .iter()
                .map(|s| s.load(Ordering::Relaxed))
                .collect(),
            worker_dispatched: self
                .worker_dispatched
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect(),
            submitted: books.submitted,
            rejected: self.rejected.load(Ordering::Relaxed),
            completed: books.completed,
            failed: books.failed,
            cancelled: books.cancelled,
            deadline_dropped: books.deadline_dropped,
            admission_denied: self.admission_denied.load(Ordering::Relaxed),
            served_from_cache: self.served_from_cache.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            planner_calls: self.planner_calls.load(Ordering::Relaxed),
            plans_reused: self.plans_reused.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            workflows: books.workflows,
            workflow_released: books.workflow_released,
            orphaned: books.orphaned,
            warm_injected: self.warm_injected.load(Ordering::Relaxed),
            fused_jobs: self.fused_jobs.load(Ordering::Relaxed),
            fused_batches: self.fused_batches.load(Ordering::Relaxed),
            fused_amortized_s: a.fused_amortized_s,
            wall_numeric_s: a.wall_numeric_s,
            modeled_cpu_busy_s: a.modeled_cpu_busy_s,
            modeled_ndp_busy_s: a.modeled_ndp_busy_s,
            modeled_total_s: a.modeled_total_s,
            modeled_cpu_pinned_s: a.modeled_cpu_pinned_s,
            cache,
        }
    }
}

/// Aggregate view of one engine instance's lifetime: what [`Metrics`]
/// counts. Latency percentiles come from [`crate::TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Seconds since the engine started.
    pub uptime_s: f64,
    /// Accepted submissions (including cache serves).
    pub submitted: u64,
    /// Submissions rejected by backpressure.
    pub rejected: u64,
    /// Jobs completed (including cache serves).
    pub completed: u64,
    /// Jobs failed.
    pub failed: u64,
    /// Queued jobs whose tickets were cancelled before execution and
    /// swept out of the queue as tombstones. A job cancelled after a
    /// worker started executing it still counts as completed here —
    /// only its ticket keeps the `Cancelled` resolution.
    pub cancelled: u64,
    /// Queued jobs dropped because their deadline expired before a
    /// worker reached them.
    pub deadline_dropped: u64,
    /// Workflow nodes orphaned before release: a parent failed, or the
    /// engine shut down while the node still waited on dependencies.
    /// Orphans never enter the queue; they join `submitted` at orphan
    /// time, making this the fifth terminal of the conservation
    /// invariant.
    pub orphaned: u64,
    /// Workflow graphs accepted by `submit_workflow`.
    pub workflows: u64,
    /// Workflow nodes released into the normal submit path after their
    /// last parent fulfilled.
    pub workflow_released: u64,
    /// Self-consistent executions whose bootstrap ground state
    /// ([`crate::DftJob::ScfSelfConsistent`]) the result cache served,
    /// from memory or disk, instead of a cold solve — whether a
    /// workflow parent, a submission or an earlier job left it there.
    pub warm_injected: u64,
    /// Jobs executed through the fused cross-job batch path (members of
    /// a same-class batch that shared one operand setup). Per-job
    /// results are bit-identical to solo execution; only setup and
    /// modeled transfer cost are shared.
    pub fused_jobs: u64,
    /// Batches routed through the fused path (≥ 2 queued members with
    /// fusion enabled) that executed at least one member.
    pub fused_batches: u64,
    /// Σ modeled seconds fusion amortized away, relative to planning
    /// and executing every fused member solo.
    pub fused_amortized_s: f64,
    /// Submissions refused by admission control (modeled deadline
    /// overrun or tenant quota breach). Never queued, never counted
    /// as submitted.
    pub admission_denied: u64,
    /// Jobs answered from the result cache (submit-path or worker dedup).
    pub served_from_cache: u64,
    /// Batches dispatched to workers.
    pub batches: u64,
    /// Planner consultations performed.
    pub planner_calls: u64,
    /// Jobs that rode an existing batch plan instead of re-planning.
    pub plans_reused: u64,
    /// Tickets issued but not yet fulfilled at snapshot time
    /// (submitted minus the five terminals; cache serves count as
    /// instantly fulfilled). The in-flight gauge async frontends watch.
    pub tickets_outstanding: u64,
    /// Lifecycle events the event ring's bounded drop-oldest stream
    /// queue evicted unread (slow [`crate::ProgressStream`] consumer;
    /// never a worker stall) or discarded when the last stream
    /// detached.
    pub progress_events_dropped: u64,
    /// Worker threads that died by panic (0 in a healthy engine).
    pub worker_panics: u64,
    /// Work-stealing dispatches (one per stolen run).
    pub steals: u64,
    /// Jobs that arrived at their worker via a steal.
    pub stolen_jobs: u64,
    /// Batches whose members were stolen rather than home-drained.
    pub stolen_batches: u64,
    /// Planner consultations made while concurrent batches held a
    /// nonzero reservation (the cluster was contended).
    pub plans_contended: u64,
    /// Planner consultations where the utilization bias changed the
    /// placement relative to an idle-machine plan.
    pub plans_shifted: u64,
    /// Σ reserved CPU busy seconds observed across planner
    /// consultations (per-target contention pressure integrated over
    /// plans).
    pub cpu_contention_s: f64,
    /// Σ reserved NDP busy seconds observed across planner consultations.
    pub ndp_contention_s: f64,
    /// Live queue depth per shard at snapshot time.
    pub shard_depths: Vec<usize>,
    /// Jobs dispatched out of each shard over the engine's lifetime.
    pub shard_dispatched: Vec<u64>,
    /// Jobs dispatched to each worker over the engine's lifetime.
    pub worker_dispatched: Vec<u64>,
    /// Wall-clock spent in the numeric kernels, seconds.
    pub wall_numeric_s: f64,
    /// Modeled busy time placed on the host CPU, seconds.
    pub modeled_cpu_busy_s: f64,
    /// Modeled busy time placed on the NDP stacks, seconds.
    pub modeled_ndp_busy_s: f64,
    /// Modeled end-to-end time across executed jobs, seconds.
    pub modeled_total_s: f64,
    /// Modeled time had every executed job been CPU-pinned, seconds.
    pub modeled_cpu_pinned_s: f64,
    /// Result-cache counters, spanning both tiers: memory
    /// hits/misses/evictions and resident retained cost
    /// (`cost_retained_s`), plus the persistent tier's
    /// `disk_hits`/`disk_len`/`bytes_persisted` when one is attached.
    pub cache: CacheStats,
}

impl ServeReport {
    /// Job-conservation invariant on a quiescent engine: every
    /// accepted submission reached exactly one terminal state —
    /// `submitted == completed + failed + cancelled +
    /// deadline_dropped + orphaned` (orphaned workflow nodes are submissions that
    /// terminated without ever entering the queue). Only meaningful
    /// once the engine has drained (zero outstanding tickets);
    /// mid-flight snapshots legitimately have submissions that reached
    /// no terminal yet.
    pub fn conservation_holds(&self) -> bool {
        self.submitted
            == self.completed + self.failed + self.cancelled + self.deadline_dropped + self.orphaned
    }

    /// Completed jobs per wall-clock second of engine uptime.
    pub fn throughput_jobs_per_s(&self) -> f64 {
        if self.uptime_s == 0.0 {
            0.0
        } else {
            self.completed as f64 / self.uptime_s
        }
    }

    /// Fraction of modeled busy time on the CPU side (0 when idle).
    fn cpu_utilization(&self) -> f64 {
        let total = self.modeled_cpu_busy_s + self.modeled_ndp_busy_s;
        if total == 0.0 {
            0.0
        } else {
            self.modeled_cpu_busy_s / total
        }
    }

    /// Fraction of modeled busy time on the NDP side.
    fn ndp_utilization(&self) -> f64 {
        let total = self.modeled_cpu_busy_s + self.modeled_ndp_busy_s;
        if total == 0.0 {
            0.0
        } else {
            self.modeled_ndp_busy_s / total
        }
    }

    /// Fraction of lifetime dispatches each shard contributed (sums to 1
    /// when anything ran; all zeros when idle). The serving-side
    /// utilization view the cross-job placement layer consumes.
    fn shard_occupancy(&self) -> Vec<f64> {
        let total: u64 = self.shard_dispatched.iter().sum();
        self.shard_dispatched
            .iter()
            .map(|&d| {
                if total == 0 {
                    0.0
                } else {
                    d as f64 / total as f64
                }
            })
            .collect()
    }

    /// Fraction of dispatched jobs that travelled via a steal.
    fn steal_fraction(&self) -> f64 {
        let total: u64 = self.shard_dispatched.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.stolen_jobs as f64 / total as f64
        }
    }

    /// Fewest jobs any worker dispatched — 0 means a worker starved.
    pub fn min_worker_dispatched(&self) -> u64 {
        self.worker_dispatched.iter().copied().min().unwrap_or(0)
    }

    /// Fraction of planner consultations the utilization bias shifted
    /// (0 when nothing was planned).
    fn shift_fraction(&self) -> f64 {
        if self.planner_calls == 0 {
            0.0
        } else {
            self.plans_shifted as f64 / self.planner_calls as f64
        }
    }

    /// Modeled speedup of planner placement over CPU-pinned execution.
    pub fn modeled_speedup_vs_cpu(&self) -> f64 {
        if self.modeled_total_s == 0.0 {
            1.0
        } else {
            self.modeled_cpu_pinned_s / self.modeled_total_s
        }
    }

    /// Rolls `other` (another engine's report) into `self`, producing a
    /// federation-wide view. The merge rules, field class by field
    /// class:
    ///
    /// * **Counters** (submissions, terminals, batches, steals, cache
    ///   via [`CacheStats::absorb`], …) — sum. The conservation
    ///   invariant survives: each replica conserves its own jobs, so
    ///   the sums conserve too.
    /// * **Uptime** — max (replicas run concurrently; summing would
    ///   count the same wall-clock N times, wrecking
    ///   [`ServeReport::throughput_jobs_per_s`]).
    /// * **Per-shard / per-worker vectors** — concatenated in absorb
    ///   order (replica-major), so no replica's topology is lost.
    /// * **Modeled / wall seconds** — sum (they are work integrals, not
    ///   wall-clock).
    ///
    /// Federated latency quantiles come from merging the replicas'
    /// [`crate::TelemetrySnapshot`]s, whose histograms add bucket-wise.
    pub fn absorb(&mut self, other: &ServeReport) {
        self.uptime_s = self.uptime_s.max(other.uptime_s);
        self.submitted += other.submitted;
        self.rejected += other.rejected;
        self.completed += other.completed;
        self.failed += other.failed;
        self.cancelled += other.cancelled;
        self.deadline_dropped += other.deadline_dropped;
        self.orphaned += other.orphaned;
        self.workflows += other.workflows;
        self.workflow_released += other.workflow_released;
        self.warm_injected += other.warm_injected;
        self.fused_jobs += other.fused_jobs;
        self.fused_batches += other.fused_batches;
        self.fused_amortized_s += other.fused_amortized_s;
        self.admission_denied += other.admission_denied;
        self.served_from_cache += other.served_from_cache;
        self.batches += other.batches;
        self.planner_calls += other.planner_calls;
        self.plans_reused += other.plans_reused;
        self.tickets_outstanding += other.tickets_outstanding;
        self.progress_events_dropped += other.progress_events_dropped;
        self.worker_panics += other.worker_panics;
        self.steals += other.steals;
        self.stolen_jobs += other.stolen_jobs;
        self.stolen_batches += other.stolen_batches;
        self.plans_contended += other.plans_contended;
        self.plans_shifted += other.plans_shifted;
        self.cpu_contention_s += other.cpu_contention_s;
        self.ndp_contention_s += other.ndp_contention_s;
        self.shard_depths.extend_from_slice(&other.shard_depths);
        self.shard_dispatched
            .extend_from_slice(&other.shard_dispatched);
        self.worker_dispatched
            .extend_from_slice(&other.worker_dispatched);
        self.wall_numeric_s += other.wall_numeric_s;
        self.modeled_cpu_busy_s += other.modeled_cpu_busy_s;
        self.modeled_ndp_busy_s += other.modeled_ndp_busy_s;
        self.modeled_total_s += other.modeled_total_s;
        self.modeled_cpu_pinned_s += other.modeled_cpu_pinned_s;
        self.cache.absorb(&other.cache);
    }

    /// [`ServeReport::absorb`] over an iterator: the federation-wide
    /// report for any set of per-replica reports (`None` when empty).
    pub fn merged<'a>(reports: impl IntoIterator<Item = &'a ServeReport>) -> Option<ServeReport> {
        let mut iter = reports.into_iter();
        let mut total = iter.next()?.clone();
        for r in iter {
            total.absorb(r);
        }
        Some(total)
    }
}

impl fmt::Display for ServeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ndft-serve report ({:.2}s uptime)", self.uptime_s)?;
        writeln!(
            f,
            "  jobs        submitted {:>6}  completed {:>6}  failed {:>4}  rejected {:>4}",
            self.submitted, self.completed, self.failed, self.rejected
        )?;
        if self.cancelled > 0 || self.deadline_dropped > 0 || self.admission_denied > 0 {
            writeln!(
                f,
                "  qos         cancelled {:>6}  deadline dropped {:>6}  admission denied {:>6}",
                self.cancelled, self.deadline_dropped, self.admission_denied
            )?;
        }
        if self.workflows > 0 || self.orphaned > 0 {
            writeln!(
                f,
                "  workflows   graphs {:>6}  nodes released {:>6}  orphaned {:>6}  warm injected {:>6}",
                self.workflows, self.workflow_released, self.orphaned, self.warm_injected
            )?;
        }
        if self.worker_panics > 0 {
            writeln!(
                f,
                "  WARNING     {} worker thread(s) died by panic",
                self.worker_panics
            )?;
        }
        writeln!(
            f,
            "  cache       serves {:>6}  hits {:>6}  misses {:>6}  hit-rate {:>5.1}%  resident {:>5}",
            self.served_from_cache,
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate() * 100.0,
            self.cache.len
        )?;
        writeln!(
            f,
            "  cache tiers evictions {:>5}  cost retained {:>9.3}s  disk hits {:>5}  disk entries {:>5}  persisted {:>8} B",
            self.cache.evictions,
            self.cache.cost_retained_s,
            self.cache.disk_hits,
            self.cache.disk_len,
            self.cache.bytes_persisted
        )?;
        writeln!(
            f,
            "  batching    batches {:>5}  planner calls {:>5}  plans reused {:>5}",
            self.batches, self.planner_calls, self.plans_reused
        )?;
        if self.fused_batches > 0 {
            writeln!(
                f,
                "  fusion      fused batches {:>5}  fused jobs {:>6}  amortized {:>9.3}s",
                self.fused_batches, self.fused_jobs, self.fused_amortized_s
            )?;
        }
        writeln!(
            f,
            "  streaming   tickets outstanding {:>6}  progress events dropped {:>6}",
            self.tickets_outstanding, self.progress_events_dropped
        )?;
        writeln!(
            f,
            "  sharding    shards {:>6}  steals {:>5}  stolen jobs {:>5} ({:>4.1}%)  stolen batches {:>5}  occupancy [{}]",
            self.shard_dispatched.len(),
            self.steals,
            self.stolen_jobs,
            self.steal_fraction() * 100.0,
            self.stolen_batches,
            self.shard_occupancy()
                .iter()
                .map(|o| format!("{:.2}", o))
                .collect::<Vec<_>>()
                .join(" ")
        )?;
        writeln!(
            f,
            "  contention  contended plans {:>4}  shifted {:>4} ({:>4.1}%)  seen cpu {:>8.3}s  ndp {:>8.3}s",
            self.plans_contended,
            self.plans_shifted,
            self.shift_fraction() * 100.0,
            self.cpu_contention_s,
            self.ndp_contention_s
        )?;
        writeln!(
            f,
            "  latency     throughput {:>8.1} jobs/s",
            self.throughput_jobs_per_s()
        )?;
        writeln!(
            f,
            "  placement   cpu busy {:>9.3}s ({:>4.1}%)  ndp busy {:>9.3}s ({:>4.1}%)",
            self.modeled_cpu_busy_s,
            self.cpu_utilization() * 100.0,
            self.modeled_ndp_busy_s,
            self.ndp_utilization() * 100.0
        )?;
        write!(
            f,
            "  modeled     planner {:>9.3}s  cpu-pinned {:>9.3}s  speedup {:>5.2}x",
            self.modeled_total_s,
            self.modeled_cpu_pinned_s,
            self.modeled_speedup_vs_cpu()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(cpu: f64, ndp: f64, total: f64, pinned: f64) -> ExecutionSample {
        ExecutionSample {
            wall_numeric_s: 0.0,
            modeled_cpu_busy_s: cpu,
            modeled_ndp_busy_s: ndp,
            modeled_total_s: total,
            modeled_cpu_pinned_s: pinned,
        }
    }

    #[test]
    fn cache_serves_count_as_completions() {
        let m = Metrics::new(2, 2);
        m.ledger.admit();
        m.on_executed(sample(1.0, 3.0, 4.2, 6.0));
        m.on_serve_from_cache();
        let r = m.report(CacheStats::default(), vec![0, 0], 0);
        assert_eq!(r.submitted, 2);
        assert_eq!(r.completed, 2);
        assert_eq!(r.served_from_cache, 1);
    }

    #[test]
    fn utilization_fractions_sum_to_one_when_busy() {
        let m = Metrics::new(2, 2);
        m.on_executed(sample(1.0, 3.0, 4.1, 5.0));
        let r = m.report(CacheStats::default(), vec![0, 0], 0);
        assert!((r.cpu_utilization() + r.ndp_utilization() - 1.0).abs() < 1e-12);
        assert!((r.cpu_utilization() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn batch_accounting_splits_fresh_and_reused() {
        let m = Metrics::new(2, 2);
        m.on_batch(true, 3, BatchOrigin::Home); // planner consulted once, 3 riders
        m.on_batch(false, 0, BatchOrigin::Stolen); // fully cache-served: no plan at all
        let r = m.report(CacheStats::default(), vec![0, 0], 0);
        assert_eq!(r.batches, 2);
        assert_eq!(r.planner_calls, 1);
        assert_eq!(r.plans_reused, 3);
        assert_eq!(r.stolen_batches, 1);
    }

    #[test]
    fn executed_and_dedup_jobs_both_complete() {
        let m = Metrics::new(2, 2);
        m.on_executed(ExecutionSample::default());
        m.on_dedup_complete();
        let r = m.report(CacheStats::default(), vec![0, 0], 0);
        assert_eq!(r.completed, 2);
        assert_eq!(r.served_from_cache, 1);
    }

    #[test]
    fn modeled_speedup_aggregates_over_jobs() {
        let m = Metrics::new(2, 2);
        m.on_executed(sample(1.0, 1.0, 2.0, 6.0));
        m.on_executed(sample(1.0, 1.0, 2.0, 2.0));
        let r = m.report(CacheStats::default(), vec![0, 0], 0);
        assert!((r.modeled_speedup_vs_cpu() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dispatch_accounting_tracks_shards_workers_and_steals() {
        let m = Metrics::new(2, 2);
        m.on_dispatch(0, 0, 4, false); // worker 0 drains its home shard
        m.on_dispatch(1, 0, 2, true); // worker 1 steals from shard 0
        m.on_dispatch(1, 1, 2, false);
        let r = m.report(CacheStats::default(), vec![3, 1], 0);
        assert_eq!(r.steals, 1);
        assert_eq!(r.stolen_jobs, 2);
        assert_eq!(r.shard_dispatched, vec![6, 2]);
        assert_eq!(r.worker_dispatched, vec![4, 4]);
        assert_eq!(r.shard_depths, vec![3, 1]);
        assert!((r.steal_fraction() - 0.25).abs() < 1e-12);
        let occ = r.shard_occupancy();
        assert!((occ[0] - 0.75).abs() < 1e-12);
        assert!((occ.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(r.min_worker_dispatched(), 4);
    }

    #[test]
    fn plan_accounting_tracks_contention_and_shifts() {
        let m = Metrics::new(2, 2);
        m.on_plan(0.0, 0.0, false); // idle cluster: counts nowhere
        m.on_plan(1.5, 4.0, true); // contended and shifted
        m.on_plan(0.0, 2.0, false); // contended, bias didn't move the plan
        m.on_batch(true, 0, BatchOrigin::Home);
        m.on_batch(true, 0, BatchOrigin::Home);
        m.on_batch(true, 0, BatchOrigin::Home);
        let r = m.report(CacheStats::default(), vec![0, 0], 0);
        assert_eq!(r.plans_contended, 2);
        assert_eq!(r.plans_shifted, 1);
        assert!((r.cpu_contention_s - 1.5).abs() < 1e-12);
        assert!((r.ndp_contention_s - 6.0).abs() < 1e-12);
        assert!((r.shift_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn shift_fraction_is_zero_without_plans() {
        let m = Metrics::new(1, 1);
        let r = m.report(CacheStats::default(), vec![0], 0);
        assert_eq!(r.shift_fraction(), 0.0);
    }

    #[test]
    fn qos_terminals_settle_the_conservation_invariant() {
        let m = Metrics::new(1, 1);
        for _ in 0..4 {
            m.ledger.admit();
        }
        m.on_executed(ExecutionSample::default());
        m.ledger.terminal(Err(&JobError::Numerics("boom".into())));
        m.ledger.terminal(Err(&JobError::Cancelled));
        m.ledger.terminal(Err(&JobError::DeadlineExceeded));
        m.on_admission_denied(); // refused pre-queue: not part of submitted
        assert_eq!(m.ledger.outstanding(), 0);
        let r = m.report(CacheStats::default(), vec![0], 0);
        assert_eq!(r.cancelled, 1);
        assert_eq!(r.deadline_dropped, 1);
        assert_eq!(r.admission_denied, 1);
        assert!(r.conservation_holds());
        let text = r.to_string();
        assert!(text.contains("cancelled"));
        assert!(text.contains("admission denied"));
    }

    #[test]
    fn orphaned_nodes_are_a_fifth_terminal() {
        let m = Metrics::new(1, 1);
        m.ledger.workflow();
        // Two nodes released and completed, one orphaned before release.
        m.ledger.admit();
        m.ledger.released();
        m.on_executed(ExecutionSample::default());
        m.ledger.admit();
        m.ledger.released();
        m.on_warm_inject();
        m.on_executed(ExecutionSample::default());
        m.ledger.orphan();
        assert_eq!(m.ledger.outstanding(), 0);
        let r = m.report(CacheStats::default(), vec![0], 0);
        assert_eq!(r.submitted, 3);
        assert_eq!(r.orphaned, 1);
        assert_eq!(r.workflows, 1);
        assert_eq!(r.workflow_released, 2);
        assert_eq!(r.warm_injected, 1);
        assert!(r.conservation_holds());
        // The merge keeps the extended invariant.
        let mut merged = r.clone();
        merged.absorb(&r);
        assert_eq!(merged.orphaned, 2);
        assert!(merged.conservation_holds());
        let text = r.to_string();
        assert!(text.contains("workflows"));
        assert!(text.contains("orphaned"));
    }

    #[test]
    fn ledger_terminal_files_each_result_in_its_documented_counter() {
        type Counter = fn(&mut Books) -> &mut u64;
        let cases: [(Result<(), &JobError>, Counter); 7] = [
            (Ok(()), |b| &mut b.completed),
            (Err(&JobError::InvalidSystem("odd".into())), |b| {
                &mut b.failed
            }),
            (Err(&JobError::Numerics("nan".into())), |b| &mut b.failed),
            (Err(&JobError::ShutDown), |b| &mut b.failed),
            (Err(&JobError::Cancelled), |b| &mut b.cancelled),
            (Err(&JobError::DeadlineExceeded), |b| {
                &mut b.deadline_dropped
            }),
            (Err(&JobError::DependencyFailed("up".into())), |b| {
                &mut b.failed
            }),
        ];
        let ledger = Ledger::default();
        for (result, counter) in cases {
            ledger.admit();
            assert_eq!(ledger.outstanding(), 1);
            let mut want = ledger.books();
            *counter(&mut want) += 1;
            ledger.terminal(result);
            // Exactly the documented counter moved; nothing else did.
            assert_eq!(ledger.books(), want, "{result:?}");
            assert_eq!(ledger.outstanding(), 0);
        }
        let b = ledger.books();
        assert_eq!((b.completed, b.failed, b.cancelled), (1, 4, 1));
        assert_eq!((b.deadline_dropped, b.orphaned, b.submitted), (1, 0, 7));
        assert_eq!((b.workflows, b.workflow_released), (0, 0));
    }

    #[test]
    fn fused_accounting_sums_jobs_batches_and_amortized_seconds() {
        let m = Metrics::new(1, 1);
        m.on_fused(4, 0.25);
        m.on_fused(2, 0.5);
        m.on_fused(3, -1.0); // negative savings clamp to zero
        let r = m.report(CacheStats::default(), vec![0], 0);
        assert_eq!(r.fused_batches, 3);
        assert_eq!(r.fused_jobs, 9);
        assert!((r.fused_amortized_s - 0.75).abs() < 1e-12);
        let text = r.to_string();
        assert!(text.contains("fused batches"));
        let mut merged = r.clone();
        merged.absorb(&r);
        assert_eq!(merged.fused_jobs, 18);
        assert!((merged.fused_amortized_s - 1.5).abs() < 1e-12);
        // Engines that never fused keep the row out of the rendering.
        let quiet = Metrics::new(1, 1)
            .report(CacheStats::default(), vec![0], 0)
            .to_string();
        assert!(!quiet.contains("fused batches"));
    }

    #[test]
    fn report_renders() {
        let m = Metrics::new(2, 2);
        m.ledger.admit();
        m.on_executed(sample(0.5, 1.5, 2.1, 3.0));
        let text = m.report(CacheStats::default(), vec![0, 0], 0).to_string();
        assert!(text.contains("ndft-serve report"));
        assert!(text.contains("speedup"));
        assert!(text.contains("throughput"));
    }
}
