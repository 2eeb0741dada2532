//! The worker pool: work-stealing dispatch, placement, and execution.
//!
//! Each worker owns a *home* shard of the [`crate::ShardedQueue`]
//! (`worker % shards`) and drains it in batch-sized chunks. When the
//! home shard is empty it turns thief: it steals the largest batchable
//! run from the most-loaded victim shard, so even stolen work usually
//! shares one workload class. Dequeued chunks are grouped into
//! per-class batches, and each batch is planned **once**
//! (`placement::plan_batch`): on the gather-charging machine kept for
//! its system size, one placement decision and the modeled CPU/NDP
//! timing of that same plan.
//! Then every member job runs the real numerics through the `ndft_dft`
//! drivers; a self-consistent member first resolves its bootstrap
//! ground state (`resolve_bootstrap`: the result cache, else a cold
//! solve that it stores for the next job). Completed outcomes land in
//! the shared content-addressed cache — stored with the plan's
//! **modeled compute cost**
//! ([`crate::PlacementDecision::modeled_cost_s`]), which is what the
//! cost-weighted eviction policy weighs, and written through to the
//! persistent tier when one is configured — and fulfill the
//! submitters' tickets.
//!
//! The planner consultation is **utilization-aware**: before planning,
//! the worker snapshots the shared [`crate::ClusterView`] — the modeled
//! busy time concurrent batches have reserved per target — and plans
//! under that bias, so simultaneous batches spread across CPU and NDP
//! instead of piling onto the stacks an isolated plan would pick. The
//! batch's own modeled footprint is then reserved through an RAII
//! [`Reservation`] held for the life of the batch; `Drop` releases it
//! on every exit path (panics included), so the view never drifts.
//!
//! Idle workers park with per-shard exponential backoff between
//! home/steal rounds; the queue's generation token closes the race
//! between scanning the shards and going to sleep.

use crate::batch::{form_batches_from, Batch, BatchOrigin};
use crate::cache::HitTier;
use crate::cluster::{ClusterSnapshot, Reservation};
use crate::fingerprint::Fingerprint;
use crate::job::{DftJob, JobError, JobPayload, Priority, WorkloadClass};
use crate::metrics::ExecutionSample;
use crate::placement::{plan_batch, PlacementDecision};
use crate::service::EngineShared;
use crate::telemetry::{ClassRecorder, PlacementTarget, Stage};
use crate::tenant::TenantSlot;
use crate::ticket::JobTicket;
use crate::trace::{TraceEvent, TraceEventKind, TraceId};
use ndft_core::RunReport;
use ndft_dft::{
    band_structure, bond_list, run_casida, run_lr_tddft, run_md, run_md_prepared, run_scf,
    run_scf_in, run_scf_selfconsistent, si_path, GroundState, KsHamiltonian, SiliconSystem,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A completed job: the physics payload plus the co-design context it
/// was produced under.
///
/// `PartialEq` compares every field exactly (floats by value), which
/// is what lets the persistence tests state their bit-exact round-trip
/// claim as plain equality.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// The job as submitted.
    pub job: DftJob,
    /// Content fingerprint (cache key).
    pub fingerprint: Fingerprint,
    /// The physics result.
    pub payload: JobPayload,
    /// The placement the batch's planner consultation chose. A disk hit
    /// reports the idle, one-member plan under the policy that stored
    /// it, re-planned when the record is read (see [`crate::persist`]).
    pub placement: PlacementDecision,
    /// Modeled NDFT engine run of `placement.plan` on the paper's Table
    /// III machine, the one that charges the shared-block gather: the
    /// stage breakdown of the job's task graph (for a fused batch, of the
    /// fused graph on `MeasuredTimer::fused`) from `MeasuredTimer::report`.
    /// A disk hit reports the run of its re-planned `placement`.
    ///
    /// Both fields come from one plan, so the stage targets here equal
    /// `placement.plan.placement`, stage for stage. The engine reads
    /// only `.iterations` from this report (to scale `placement`'s cost
    /// for the cache).
    pub modeled: RunReport,
    /// Wall-clock the numeric kernels took on this host.
    pub wall_numeric: Duration,
}

/// One queued job travelling to the workers.
pub(crate) struct PendingJob {
    pub(crate) job: DftJob,
    pub(crate) fingerprint: Fingerprint,
    /// Resolved once at admission so workers and the Drop guard never
    /// recompute it.
    pub(crate) class: WorkloadClass,
    /// The trace lane every span event of this job lands on.
    pub(crate) trace: TraceId,
    /// QoS class declared at submission; selects the shard lane and the
    /// per-priority latency histogram bank.
    pub(crate) priority: Priority,
    /// Optional queued-life budget: a worker reaching this entry after
    /// `enqueued + deadline` drops it instead of executing.
    pub(crate) deadline: Option<Duration>,
    /// The tenant's claimed in-flight quota slot (None when quotas are
    /// disabled); held purely for its RAII release on every exit path.
    pub(crate) _tenant_slot: Option<TenantSlot>,
    pub(crate) ticket: JobTicket,
    pub(crate) enqueued: Instant,
    /// Metrics handle, so every exit — the Drop guard's failure
    /// included — settles the job in the engine's ledger.
    pub(crate) metrics: Arc<crate::metrics::Metrics>,
    /// Telemetry handle, so every exit path — the Drop guard included —
    /// records an end-to-end latency and closes the job's lane in the
    /// event ring (and with it a watched progress lifecycle).
    pub(crate) telemetry: Arc<crate::telemetry::Telemetry>,
}

impl PendingJob {
    /// The one exit for a job that did not complete, shared by every
    /// losing path (a cancelled tombstone, an expired deadline, a solver
    /// error, a panic, the queue sweep, the Drop guard): count `err`
    /// through [`crate::metrics::Ledger::terminal`], record the
    /// end-to-end latency (keeping the histogram totals paired with the
    /// terminals), close the lane with the error's marker (`Cancelled`,
    /// `DeadlineDrop`, or none) and a failed fulfill event, and resolve
    /// the ticket — in that order, so by the time a waiter observes the
    /// error the whole story is already told. A tombstone's fulfill is
    /// a no-op: its cancel already resolved the ticket.
    pub(crate) fn fail(&self, err: JobError) {
        self.metrics.ledger.terminal(Err(&err));
        self.telemetry
            .record_end_to_end(self.class, self.priority, self.enqueued.elapsed());
        self.close_trace_chain(match err {
            JobError::Cancelled => Some(TraceEventKind::Cancelled),
            JobError::DeadlineExceeded => Some(TraceEventKind::DeadlineDrop),
            _ => None,
        });
        self.ticket.fulfill(Err(err));
    }

    /// The one success protocol, shared by both winning exits (a cache
    /// or in-batch dedup hit, an executed member): record the
    /// end-to-end latency, close the lane with a successful fulfill
    /// event (`cached` for a hit) published together with the exit's
    /// queued `spans`, resolve the ticket, and record the fulfill stage
    /// from `fulfill_start`. End-to-end and the lane land *before* the
    /// fulfill, so the moment a waiter resolves, the histogram already
    /// counts its job and its whole lifecycle is readable.
    fn succeed(
        &self,
        outcome: Arc<JobOutcome>,
        cached: bool,
        fulfill_start: Instant,
        worker: usize,
        spans: &mut Vec<TraceEvent>,
        recorder: &ClassRecorder,
    ) {
        self.telemetry
            .record_end_to_end(self.class, self.priority, self.enqueued.elapsed());
        if self.telemetry.traced() {
            spans.push(self.event(
                Some(worker),
                self.telemetry.ns_at(fulfill_start),
                fulfill_start.elapsed().as_nanos() as u64,
                TraceEventKind::TicketFulfill { ok: true, cached },
            ));
            self.telemetry.publish_slice(spans);
            spans.clear();
        }
        self.ticket.fulfill(Ok(outcome));
        recorder.record(Stage::Fulfill, fulfill_start.elapsed());
    }

    /// Whether this entry's queued-life budget has run out.
    pub(crate) fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| self.enqueued.elapsed() > d)
    }

    /// An event on this job's trace lane (`seq` is assigned at publish).
    pub(crate) fn event(
        &self,
        worker: Option<usize>,
        start_ns: u64,
        dur_ns: u64,
        kind: TraceEventKind,
    ) -> TraceEvent {
        TraceEvent {
            seq: 0,
            trace: self.trace,
            fingerprint: self.fingerprint,
            class: self.class,
            worker,
            start_ns,
            dur_ns,
            kind,
        }
    }

    /// Publishes `marker` (an instant event) followed by the failed
    /// fulfill event that ends every trace chain — one ring acquisition
    /// for the lot, nothing when untraced.
    fn close_trace_chain(&self, marker: Option<TraceEventKind>) {
        if !self.telemetry.traced() {
            return;
        }
        let now_ns = self.telemetry.now_ns();
        let events: Vec<TraceEvent> = marker
            .into_iter()
            .chain(std::iter::once(TraceEventKind::TicketFulfill {
                ok: false,
                cached: false,
            }))
            .map(|kind| self.event(None, now_ns, 0, kind))
            .collect();
        self.telemetry.publish_slice(&events);
    }
}

impl Drop for PendingJob {
    fn drop(&mut self) {
        // Last-resort guarantee that no waiter hangs: if this entry is
        // dropped on any path that never resolved it (a panic unwinding
        // through a worker, a dropped batch), run the failure protocol
        // above, so neither the counters, the latency histograms, nor a
        // watched lifecycle are left dangling (a guard firing here means
        // the job WAS admitted and counted submitted; the rejected-push
        // path resolves its ticket before dropping). A no-op for the
        // normal paths: the entry is only dropped unresolved by the
        // owning thread, so the is_done check cannot race another
        // fulfiller.
        if !self.ticket.is_done() {
            self.fail(JobError::ShutDown);
        }
    }
}

/// Runs the job's actual numerics, timing the kernel work — operand
/// setup included, exactly as the engine times a solo member.
///
/// # Errors
///
/// [`JobError::InvalidSystem`] for bad atom counts or out-of-bounds
/// parameters, [`JobError::Numerics`] when a solver fails.
pub fn execute_payload(job: &DftJob) -> Result<(JobPayload, Duration), JobError> {
    let start = Instant::now();
    let payload = Operands::build(job)?.run(job, None)?;
    Ok((payload, start.elapsed()))
}

/// The completed bootstrap `job` starts from ([`DftJob::bootstrap`]):
/// the result cache's entry under the bootstrap's own fingerprint
/// (memory, then disk), counted as a seeded execution, or else a cold
/// solve. A workflow parent's outcome reaches its children this way
/// too: the parent is stored before its ticket fulfills, and only that
/// fulfill releases them. The cold solve is planned as a one-member
/// batch on `snapshot` and stored under its own fingerprint at its own
/// modeled cost, so a later job of that shape — self-consistent, or a
/// submitted `GroundState` — is served from it. Two workers that miss
/// the same bootstrap at once both solve it; the solves are
/// bit-identical, so the second store changes nothing. `None` for a
/// kind with no bootstrap.
fn resolve_bootstrap(
    shared: &EngineShared,
    job: &DftJob,
    snapshot: &ClusterSnapshot,
) -> Result<Option<Arc<JobOutcome>>, JobError> {
    let Some(bootstrap) = job.bootstrap() else {
        return Ok(None);
    };
    let fingerprint = bootstrap.fingerprint();
    if let Some((hit, _)) = shared.cache.peek(&fingerprint) {
        shared.metrics.on_warm_inject();
        return Ok(Some(hit));
    }
    let graph = bootstrap
        .task_graph()
        .map_err(|e| JobError::InvalidSystem(e.to_string()))?;
    let (placement, modeled, _) = plan_batch(&graph, shared.config.policy, snapshot, 1);
    let (payload, wall_numeric) = execute_payload(&bootstrap)?;
    let outcome = Arc::new(JobOutcome {
        job: bootstrap,
        fingerprint,
        payload,
        placement,
        modeled,
        wall_numeric,
    });
    shared.cache.store(
        fingerprint,
        Arc::clone(&outcome),
        outcome.placement.modeled_cost_s(outcome.modeled.iterations),
    );
    Ok(Some(outcome))
}

/// A solver failure as the error its ticket resolves with.
fn numerics_error(e: impl std::fmt::Debug) -> JobError {
    JobError::Numerics(format!("{e:?}"))
}

/// A job's system plus the setup its solver would otherwise build for
/// itself. A solo member builds its own; a fused batch builds one at
/// its first executing member and runs every later member against it.
/// Sharing covers only operand *construction* — each member's kernels
/// still run their own arithmetic start to finish — which is what keeps
/// fused payloads bit-identical to solo ones.
struct Operands {
    system: SiliconSystem,
    shared: Shared,
}

/// The kind-specific operand of [`Operands`].
enum Shared {
    /// The Kohn–Sham Hamiltonian of a ground state. Its construction
    /// (dominated by the pseudopotential projector tables) depends only
    /// on the geometry and the potential shape — pinned here by bit
    /// pattern, so a member with a different shape solves on its own
    /// instead of on a wrong shared one.
    Hamiltonian {
        // Boxed: the Hamiltonian is ~300 bytes of tables and would
        // otherwise dominate every variant of this enum.
        h: Box<KsHamiltonian>,
        depth_bits: u64,
        sigma_bits: u64,
    },
    /// The O(n²) neighbour scan of an MD segment.
    Bonds(Vec<(usize, usize)>),
    /// Kinds with nothing shareable beyond the system: band paths and
    /// spectra rebuild everything per run anyway, and self-consistent
    /// SCF *mutates* its Hamiltonian, so sharing one would change
    /// results. What a self-consistent job does share is its bootstrap
    /// ground state, which each member resolves through the result
    /// cache before it runs.
    None,
}

impl Operands {
    /// Validates `job` and builds its system and shared operand.
    fn build(job: &DftJob) -> Result<Operands, JobError> {
        job.validate()?;
        let system = job.system().expect("validated above");
        let shared = match job {
            DftJob::GroundState { .. } => {
                let opts = job.scf_options().expect("ground-state job");
                Shared::Hamiltonian {
                    h: Box::new(KsHamiltonian::new(&system, &opts)),
                    depth_bits: opts.potential_depth_ev.to_bits(),
                    sigma_bits: opts.potential_sigma.to_bits(),
                }
            }
            DftJob::MdSegment { .. } => Shared::Bonds(bond_list(&system)),
            _ => Shared::None,
        };
        Ok(Operands { system, shared })
    }

    /// Runs `job`'s own solver on these operands: the one place job
    /// kinds meet the `ndft_dft` drivers. `job` shares the workload
    /// class the operands were built for (every batch member does).
    /// `seed` is the ground state of the job's resolved bootstrap
    /// ([`DftJob::bootstrap`]); only a self-consistent job reads it, and
    /// its seeded and cold runs are bit-identical.
    fn run(&self, job: &DftJob, seed: Option<&GroundState>) -> Result<JobPayload, JobError> {
        let system = &self.system;
        Ok(match job {
            DftJob::GroundState { .. } => {
                let opts = job.scf_options().expect("ground-state job");
                let gs = match &self.shared {
                    Shared::Hamiltonian {
                        h,
                        depth_bits,
                        sigma_bits,
                    } if opts.potential_depth_ev.to_bits() == *depth_bits
                        && opts.potential_sigma.to_bits() == *sigma_bits =>
                    {
                        run_scf_in(system, &opts, h)
                    }
                    _ => run_scf(system, &opts),
                };
                JobPayload::GroundState(gs.map_err(numerics_error)?)
            }
            DftJob::MdSegment { .. } => {
                let opts = job.md_options().expect("md job");
                JobPayload::Md(match &self.shared {
                    Shared::Bonds(bonds) => run_md_prepared(system, &opts, bonds),
                    _ => run_md(system, &opts),
                })
            }
            DftJob::Spectrum {
                full_casida: false, ..
            } => JobPayload::Tda(run_lr_tddft(system).map_err(numerics_error)?),
            DftJob::Spectrum {
                full_casida: true, ..
            } => JobPayload::Casida(run_casida(system).map_err(numerics_error)?),
            DftJob::BandStructure {
                segments,
                n_bands,
                scissor_ev,
                ..
            } => JobPayload::Bands(band_structure(&si_path(*segments), *n_bands, *scissor_ev)),
            DftJob::ScfSelfConsistent {
                occupied,
                cycles,
                alpha,
                ..
            } => {
                let opts = job.scf_options().expect("self-consistent job");
                let sc = run_scf_selfconsistent(system, &opts, *occupied, *cycles, *alpha, seed)
                    .map_err(numerics_error)?;
                JobPayload::SelfConsistent(sc)
            }
        })
    }
}

impl JobOutcome {
    /// The metrics contribution of this outcome.
    pub(crate) fn sample(&self) -> ExecutionSample {
        ExecutionSample {
            wall_numeric_s: self.wall_numeric.as_secs_f64(),
            modeled_cpu_busy_s: self.placement.cpu_busy,
            modeled_ndp_busy_s: self.placement.ndp_busy,
            modeled_total_s: self.placement.modeled_time(),
            modeled_cpu_pinned_s: self.placement.cpu_pinned_time,
        }
    }
}

/// Floor of the idle-park window; reset on every successful dequeue.
const BACKOFF_MIN: Duration = Duration::from_micros(50);
/// Ceiling of the idle-park window (also bounds shutdown latency for a
/// worker that missed the close notification).
const BACKOFF_MAX: Duration = Duration::from_millis(5);

/// Worker main loop: drain home shard → steal → batch → plan once →
/// execute members, parking with exponential backoff when idle.
pub(crate) fn worker_loop(shared: &EngineShared, worker: usize) {
    let home = worker % shared.queue.shards();
    let mut backoff = BACKOFF_MIN;
    loop {
        // Read the generation *before* scanning so a push that races the
        // scan turns the park below into a no-op.
        let generation = shared.queue.generation();
        if let Some(drained) = shared.queue.try_pop_home(home, shared.config.max_batch) {
            backoff = BACKOFF_MIN;
            shared
                .metrics
                .on_dispatch(worker, home, drained.len() as u64, false);
            dispatch_chunk(shared, BatchOrigin::Home, home, drained, worker);
            continue;
        }
        if let Some(run) = shared.queue.try_steal(home, shared.config.max_batch) {
            backoff = BACKOFF_MIN;
            shared
                .metrics
                .on_dispatch(worker, run.from_shard, run.items.len() as u64, true);
            dispatch_chunk(
                shared,
                BatchOrigin::Stolen,
                run.from_shard,
                run.items,
                worker,
            );
            continue;
        }
        if shared.queue.is_closed() {
            if shared.queue.is_empty() {
                return;
            }
            // Closed but a shard still holds items (racing drains):
            // loop again and help finish them.
            continue;
        }
        shared.queue.wait_for_work(generation, backoff);
        backoff = (backoff * 2).min(BACKOFF_MAX);
    }
}

/// Groups one dequeued chunk into per-class batches and processes them.
/// `shard` is the queue shard the chunk was dequeued from (home or
/// victim), recorded on the cluster view's per-shard in-flight counts;
/// `worker` is the dispatching worker's index, stamped on span events.
fn dispatch_chunk(
    shared: &EngineShared,
    origin: BatchOrigin,
    shard: usize,
    chunk: Vec<PendingJob>,
    worker: usize,
) {
    // A stolen run's members each get a steal marker on their trace
    // lane: the one transition that happens at dequeue, before batching.
    if origin == BatchOrigin::Stolen && shared.telemetry.traced() {
        let now_ns = shared.telemetry.now_ns();
        let events: Vec<TraceEvent> = chunk
            .iter()
            .map(|pending| {
                pending.event(
                    Some(worker),
                    now_ns,
                    0,
                    TraceEventKind::Steal { from_shard: shard },
                )
            })
            .collect();
        shared.telemetry.publish_slice(&events);
    }
    for batch in form_batches_from(origin, chunk, |p: &PendingJob| p.job.workload_class()) {
        process_batch(shared, batch, shard, worker);
    }
}

fn process_batch(shared: &EngineShared, batch: Batch<PendingJob>, shard: usize, worker: usize) {
    let origin = batch.origin;
    let batch_jobs = batch.entries.len();
    let graph = match batch.entries[0].job.task_graph() {
        Ok(g) => g,
        Err(e) => {
            // Submission validates systems, so this is unreachable in
            // practice — but a worker must never panic on a bad job.
            let err = JobError::InvalidSystem(e.to_string());
            for pending in &batch.entries {
                pending.fail(err.clone());
            }
            return;
        }
    };

    // One registry lookup covers the whole batch (every member shares
    // the class); after this, stage records are pure atomics.
    let telemetry = &shared.telemetry;
    let recorder = telemetry.class(batch.class);
    let batch_start = Instant::now();

    // Queue-wait ends for every member the moment its batch starts
    // processing — recorded up front so the stage covers members the
    // cache later serves without executing.
    for pending in &batch.entries {
        recorder.record(
            Stage::QueueWait,
            batch_start.saturating_duration_since(pending.enqueued),
        );
    }
    // One reusable buffer batches each lock point's events into a
    // single ring acquisition — the traced engine's lock traffic stays
    // per job, not per event.
    let mut spans: Vec<TraceEvent> = Vec::new();
    if telemetry.traced() {
        let batch_ns = telemetry.ns_at(batch_start);
        for pending in &batch.entries {
            let start_ns = telemetry.ns_at(pending.enqueued);
            spans.push(pending.event(
                Some(worker),
                start_ns,
                batch_ns.saturating_sub(start_ns),
                TraceEventKind::QueueWait,
            ));
            spans.push(pending.event(
                Some(worker),
                batch_ns,
                0,
                TraceEventKind::BatchForm {
                    size: batch_jobs,
                    origin,
                },
            ));
        }
        telemetry.publish_slice(&spans);
        spans.clear();
    }

    // The batch's one plan — its placement decision, the modeled run of
    // that same plan and the fused saving — is shared by the whole class
    // (every member has the same task-graph shape) and made lazily: a
    // batch fully served by cache/dedup pays for none of it and reserves
    // nothing on the cluster view.
    let mut planned: Option<(PlacementDecision, RunReport, f64)> = None;
    // The cluster view that plan read; a member whose bootstrap misses
    // the cache plans that solve on it too.
    let mut seen: Option<ClusterSnapshot> = None;
    // Held for the rest of the batch; Drop releases it on every exit
    // path (including a panic unwinding through the catch below), so
    // the cluster view always returns to zero when the engine drains.
    let mut reservation: Option<Reservation<'_>> = None;
    // The consult event of the member that created the plan — the
    // batch-scoped reservation-hold and fused-exec spans land on its
    // trace lane (set only when that member was traced).
    let mut leader: Option<TraceEvent> = None;
    let mut executions = 0u64;
    // Fused cross-job execution engages only for real batches (≥ 2
    // members) with the knob on — a singleton gains nothing from
    // amortization. The batch's one `Operands` is built lazily at the
    // first member that executes.
    let fuse = shared.config.fused_execution && batch_jobs >= 2;
    let mut fused_ops: Option<Operands> = None;

    // Identical fingerprints inside the batch execute once; later entries
    // share the Arc'd outcome, as do cross-batch repeats via the cache.
    let mut local: HashMap<Fingerprint, Arc<JobOutcome>> = HashMap::new();
    for pending in batch.entries {
        // QoS exits come before any cache or planner work: a cancelled
        // tombstone (ticket already resolved by `JobTicket::cancel`)
        // and a deadline-expired member each settle their books and
        // free the slot without executing.
        if pending.ticket.is_done() {
            pending.fail(JobError::Cancelled);
            continue;
        }
        if pending.deadline_expired() {
            pending.fail(JobError::DeadlineExceeded);
            continue;
        }
        let cached = local
            .get(&pending.fingerprint)
            .map(|hit| (hit.clone(), HitTier::Batch))
            .or_else(|| shared.cache.peek(&pending.fingerprint));
        if let Some((hit, tier)) = cached {
            shared.metrics.on_dedup_complete();
            let fulfill_start = Instant::now();
            if telemetry.traced() {
                spans.push(pending.event(
                    Some(worker),
                    telemetry.ns_at(fulfill_start),
                    0,
                    TraceEventKind::CacheHit { tier },
                ));
            }
            pending.succeed(hit, true, fulfill_start, worker, &mut spans, &recorder);
            continue;
        }
        // A panicking planner or solver must not take the worker thread
        // (and every waiting ticket behind it) down with it.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if planned.is_none() {
                let plan_start = Instant::now();
                // Consult the global utilization view: targets that
                // concurrent batches have reserved look slower, so
                // simultaneous batches spread instead of stacking.
                let snapshot = shared.cluster.snapshot();
                let members = if fuse { batch_jobs } else { 1 };
                let (decision, modeled, saving_s) =
                    plan_batch(&graph, shared.config.policy, &snapshot, members);
                // Metrics, telemetry, and reservation only after every
                // fallible step above: if planning or the modeled run
                // panics, the next member's retry must not find a
                // half-recorded plan (double-counted on_plan, or a
                // snapshot contending with this batch's own abandoned
                // reservation).
                let plan_wall = plan_start.elapsed();
                recorder.record(Stage::Plan, plan_wall);
                if telemetry.traced() {
                    let consult = pending.event(
                        Some(worker),
                        telemetry.ns_at(plan_start),
                        plan_wall.as_nanos() as u64,
                        TraceEventKind::PlannerConsult,
                    );
                    telemetry.publish(consult);
                    leader = Some(consult);
                }
                shared
                    .metrics
                    .on_plan(decision.cpu_load_s, decision.ndp_load_s, decision.shifted);
                seen = Some(snapshot);
                // Reserve the whole batch's modeled footprint (per-job
                // busy × members, one gather for a fused batch —
                // pessimistic for members the cache later serves,
                // released wholesale when the batch ends).
                reservation = Some(shared.cluster.reserve(
                    shard,
                    decision.cpu_busy * batch_jobs as f64,
                    decision.ndp_busy * batch_jobs as f64,
                ));
                planned = Some((decision, modeled, saving_s));
            }
            let (placement, modeled, _) = planned.as_ref().expect("just planned");
            // The job is now committed to this batch's placement and
            // about to run; riders share the decision of the member that
            // planned it.
            if telemetry.traced() {
                telemetry.publish(pending.event(
                    Some(worker),
                    telemetry.now_ns(),
                    0,
                    TraceEventKind::ExecStart {
                        target: PlacementTarget::of(placement),
                    },
                ));
            }
            if fuse && fused_ops.is_none() {
                fused_ops = Some(Operands::build(&pending.job)?);
            }
            // A solo member's wall time covers its own operand setup; a
            // fused member's does not (the batch paid for it once). Both
            // cover the bootstrap solve a cache miss runs.
            let start = Instant::now();
            let snapshot = seen.as_ref().expect("planned above");
            let bootstrap = resolve_bootstrap(shared, &pending.job, snapshot)?;
            let seed = match bootstrap.as_deref().map(|b| &b.payload) {
                Some(JobPayload::GroundState(gs)) => Some(gs),
                _ => None,
            };
            let payload = match &fused_ops {
                Some(ops) => ops.run(&pending.job, seed),
                None => Operands::build(&pending.job)?.run(&pending.job, seed),
            }?;
            Ok(JobOutcome {
                job: pending.job.clone(),
                fingerprint: pending.fingerprint,
                payload,
                placement: placement.clone(),
                modeled: modeled.clone(),
                wall_numeric: start.elapsed(),
            })
        }));
        match result {
            Ok(Ok(outcome)) => {
                executions += 1;
                let outcome = Arc::new(outcome);
                let target = PlacementTarget::of(&outcome.placement);
                recorder.record(Stage::Execute, outcome.wall_numeric);
                recorder.record_target(target, outcome.wall_numeric);
                if telemetry.traced() {
                    let wall_ns = outcome.wall_numeric.as_nanos().min(u64::MAX as u128) as u64;
                    spans.push(pending.event(
                        Some(worker),
                        telemetry.now_ns().saturating_sub(wall_ns),
                        wall_ns,
                        TraceEventKind::Numerics { target },
                    ));
                }
                let fulfill_start = Instant::now();
                // Write-through insert carrying the plan's modeled
                // compute cost: the cost-weighted tier retains entries
                // in proportion to what re-creating them would cost,
                // and the disk tier (when configured) appends the
                // encoded outcome before the memory tier can ever
                // evict it.
                shared.cache.store(
                    pending.fingerprint,
                    Arc::clone(&outcome),
                    outcome.placement.modeled_cost_s(outcome.modeled.iterations),
                );
                if telemetry.traced() {
                    spans.push(pending.event(
                        Some(worker),
                        telemetry.now_ns(),
                        0,
                        TraceEventKind::CacheStore,
                    ));
                }
                local.insert(pending.fingerprint, Arc::clone(&outcome));
                shared.metrics.on_executed(outcome.sample());
                pending.succeed(outcome, false, fulfill_start, worker, &mut spans, &recorder);
            }
            Ok(Err(e)) => {
                pending.fail(e);
            }
            Err(panic) => {
                // The panic path runs the same failure protocol as any
                // other exit: a frontend watching the job sees it fail,
                // not vanish.
                let msg = panic_message(panic.as_ref());
                pending.fail(JobError::Numerics(format!("job panicked: {msg}")));
            }
        }
    }
    // A fused batch that executed anything settles its books once: the
    // member count and the modeled seconds the amortization shaved off
    // (per-member solo-vs-fused gap × executed members), plus one
    // FusedExec span on the leader's lane covering the member loop.
    if fuse && executions > 0 {
        let saving_s = planned.as_ref().map_or(0.0, |(_, _, saving_s)| *saving_s);
        shared
            .metrics
            .on_fused(executions, executions as f64 * saving_s);
        if let Some(leader) = leader.filter(|_| telemetry.traced()) {
            telemetry.publish(TraceEvent {
                start_ns: telemetry.ns_at(batch_start),
                dur_ns: batch_start.elapsed().as_nanos() as u64,
                kind: TraceEventKind::FusedExec {
                    members: executions as usize,
                },
                ..leader
            });
        }
    }
    // Record the reservation's full hold (grant → release) before
    // letting the RAII guard release it; the span lands on the lane of
    // the member that triggered planning.
    if let Some(held) = reservation.take() {
        let hold = held.held_for();
        recorder.record(Stage::Reserve, hold);
        if let Some(leader) = leader.filter(|_| telemetry.traced()) {
            telemetry.publish(TraceEvent {
                start_ns: telemetry.ns_at(held.granted_at()),
                dur_ns: hold.as_nanos() as u64,
                kind: TraceEventKind::ReservationHold,
                ..leader
            });
        }
        drop(held);
    }
    shared
        .metrics
        .on_batch(planned.is_some(), executions.saturating_sub(1), origin);
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementPolicy;

    #[test]
    fn execute_payload_runs_all_kinds() {
        let jobs = [
            DftJob::GroundState {
                atoms: 8,
                bands: 4,
                max_iterations: 4,
            },
            DftJob::MdSegment {
                atoms: 64,
                steps: 5,
                temperature_k: 300.0,
                seed: 1,
            },
            DftJob::Spectrum {
                atoms: 16,
                full_casida: false,
            },
            DftJob::Spectrum {
                atoms: 16,
                full_casida: true,
            },
            DftJob::BandStructure {
                atoms: 8,
                segments: 2,
                n_bands: 6,
                scissor_ev: 0.7,
            },
            DftJob::ScfSelfConsistent {
                atoms: 16,
                bands: 4,
                max_iterations: 3,
                occupied: 4,
                cycles: 2,
                alpha: 0.5,
            },
        ];
        for job in &jobs {
            let (payload, wall) = execute_payload(job).unwrap();
            assert!(payload.headline().is_finite(), "{job}");
            assert!(wall > Duration::ZERO);
        }
    }

    #[test]
    fn warm_seeded_execution_is_bit_identical_to_cold() {
        // The seeding contract at the worker level: executing a
        // self-consistent child seeded with its bootstrap's ground state
        // produces exactly the payload a cold run produces.
        let parent = DftJob::GroundState {
            atoms: 16,
            bands: 4,
            max_iterations: 3,
        };
        let child = DftJob::ScfSelfConsistent {
            atoms: 16,
            bands: 4,
            max_iterations: 3,
            occupied: 4,
            cycles: 2,
            alpha: 0.5,
        };
        let (JobPayload::GroundState(seed), _) = execute_payload(&parent).unwrap() else {
            panic!("a ground-state payload");
        };
        assert_eq!(child.bootstrap(), Some(parent));
        let (cold, _) = execute_payload(&child).unwrap();
        let warm = Operands::build(&child)
            .unwrap()
            .run(&child, Some(&seed))
            .unwrap();
        assert_eq!(cold, warm);
        // A job of another shape has another bootstrap, so this seed is
        // never looked up for it.
        let mismatched = DftJob::ScfSelfConsistent {
            atoms: 16,
            bands: 5,
            max_iterations: 3,
            occupied: 4,
            cycles: 2,
            alpha: 0.5,
        };
        assert_ne!(mismatched.bootstrap(), child.bootstrap());
    }

    #[test]
    fn ground_state_payloads_hold_half_sphere_rows() {
        // A ground state is served, cached and logged as its bands'
        // half-sphere rows: 764 values a band on Si_24, against 24,000 on
        // its grid. A self-consistent outcome is then mostly its density,
        // which stays on the grid.
        let ground = DftJob::GroundState {
            atoms: 24,
            bands: 4,
            max_iterations: 4,
        };
        let (JobPayload::GroundState(gs), _) = execute_payload(&ground).unwrap() else {
            panic!("a ground-state payload");
        };
        assert_eq!(gs.orbitals.as_slice().len(), 4 * 764);
        let sc = DftJob::ScfSelfConsistent {
            atoms: 24,
            bands: 2,
            max_iterations: 2,
            occupied: 2,
            cycles: 2,
            alpha: 0.5,
        };
        let (JobPayload::SelfConsistent(sc), _) = execute_payload(&sc).unwrap() else {
            panic!("a self-consistent payload");
        };
        assert_eq!(sc.ground_state.orbitals.as_slice().len(), 2 * 764);
        assert_eq!(sc.density.len(), 24_000);
    }

    #[test]
    fn fused_execution_is_bit_identical_to_solo() {
        // Ground-state batch: one shared Hamiltonian, varying band
        // counts (the same spread a same-class flood produces).
        let gs_jobs: Vec<DftJob> = (3..6)
            .map(|bands| DftJob::GroundState {
                atoms: 8,
                bands,
                max_iterations: 3,
            })
            .collect();
        let ops = Operands::build(&gs_jobs[0]).unwrap();
        for job in &gs_jobs {
            let fused = ops.run(job, None).unwrap();
            let (solo, _) = execute_payload(job).unwrap();
            assert_eq!(fused, solo, "{job}");
        }
        // MD batch: one shared bond list, varying seeds.
        let md_jobs: Vec<DftJob> = (0..3)
            .map(|seed| DftJob::MdSegment {
                atoms: 64,
                steps: 4,
                temperature_k: 300.0,
                seed,
            })
            .collect();
        let ops = Operands::build(&md_jobs[0]).unwrap();
        for job in &md_jobs {
            let fused = ops.run(job, None).unwrap();
            let (solo, _) = execute_payload(job).unwrap();
            assert_eq!(fused, solo, "{job}");
        }
        // Kinds with no shareable operand still run — through the
        // shared system, with identical results.
        for job in [
            DftJob::Spectrum {
                atoms: 16,
                full_casida: false,
            },
            DftJob::Spectrum {
                atoms: 16,
                full_casida: true,
            },
            DftJob::BandStructure {
                atoms: 8,
                segments: 2,
                n_bands: 6,
                scissor_ev: 0.7,
            },
            DftJob::ScfSelfConsistent {
                atoms: 16,
                bands: 4,
                max_iterations: 3,
                occupied: 4,
                cycles: 2,
                alpha: 0.5,
            },
        ] {
            let fused = Operands::build(&job).unwrap().run(&job, None).unwrap();
            let (solo, _) = execute_payload(&job).unwrap();
            assert_eq!(fused, solo, "{job}");
        }
    }

    #[test]
    fn execute_job_carries_placement_context() {
        // The worker assembles each executed member's outcome from the
        // batch's plan, so the engine is the place to check it.
        let job = DftJob::Spectrum {
            atoms: 16,
            full_casida: false,
        };
        let svc = crate::DftService::start(crate::ServeConfig {
            workers: 1,
            policy: PlacementPolicy::CostAware,
            ..crate::ServeConfig::default()
        });
        let outcome = svc.submit_blocking(job.clone()).unwrap().wait().unwrap();
        svc.shutdown();
        assert_eq!(outcome.fingerprint, job.fingerprint());
        assert_eq!(outcome.placement.policy, PlacementPolicy::CostAware);
        assert!(outcome.modeled.total() > 0.0);
        // The modeled run times the very plan the engine acted on.
        crate::placement::assert_one_plan(&outcome.placement, &outcome.modeled);
        match outcome.payload {
            JobPayload::Tda(ref s) => assert!(s.optical_gap() > 0.0),
            ref other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn dropped_pending_job_fails_its_ticket() {
        // The Drop guard is the last line of defense against hung
        // waiters: an entry lost on any panic path resolves to ShutDown.
        let job = DftJob::MdSegment {
            atoms: 64,
            steps: 1,
            temperature_k: 300.0,
            seed: 0,
        };
        let ticket = crate::ticket::JobTicket::pending(job.fingerprint(), TraceId(1));
        let metrics = Arc::new(crate::metrics::Metrics::new(1, 1));
        let telemetry = Arc::new(crate::telemetry::Telemetry::new(8));
        let stream = crate::trace::ProgressStream::new(Arc::clone(&telemetry));
        let pending = PendingJob {
            fingerprint: job.fingerprint(),
            class: job.workload_class(),
            trace: TraceId(1),
            priority: Priority::Standard,
            deadline: None,
            _tenant_slot: None,
            job,
            ticket: ticket.clone(),
            enqueued: Instant::now(),
            metrics: Arc::clone(&metrics),
            telemetry: Arc::clone(&telemetry),
        };
        drop(pending);
        assert_eq!(ticket.wait().unwrap_err(), JobError::ShutDown);
        // The failure lands in the counters too — the in-flight gauge
        // must return to zero even on the last-resort path — and the
        // guard records the end-to-end latency, keeping the histogram
        // paired with the counters.
        let report = metrics.report(crate::cache::CacheStats::default(), vec![0], 0);
        assert_eq!(report.failed, 1);
        assert_eq!(telemetry.snapshot().e2e_count, 1);
        // The lifecycle closes too: the guard's failed fulfill event
        // reaches the stream as a failed Done.
        let stages: Vec<_> = stream.drain().iter().map(|e| e.stage).collect();
        assert_eq!(
            stages,
            [crate::trace::JobStage::Done {
                ok: false,
                cached: false
            }]
        );
    }

    #[test]
    fn invalid_system_fails_cleanly() {
        let job = DftJob::MdSegment {
            atoms: 10,
            steps: 1,
            temperature_k: 300.0,
            seed: 0,
        };
        match execute_payload(&job) {
            Err(JobError::InvalidSystem(_)) => {}
            other => panic!("expected InvalidSystem, got {other:?}"),
        }
    }

    /// Self-consistent Si_8 job of bootstrap shape `(8, bands, 2)`;
    /// `alpha` tells jobs of one shape apart.
    fn sc(bands: usize, alpha: f64) -> DftJob {
        DftJob::ScfSelfConsistent {
            atoms: 8,
            bands,
            max_iterations: 2,
            occupied: 2,
            cycles: 2,
            alpha,
        }
    }

    /// Every bit of a payload: its WAL encoding.
    fn payload_bits(payload: &JobPayload) -> Vec<u8> {
        use crate::persist::{Enc, PersistValue};
        let mut enc = Enc::new();
        payload.encode(&mut enc);
        enc.into_bytes()
    }

    /// Asserts `outcome` carries, bit for bit, the payload a cold
    /// [`execute_payload`] of its job produces.
    fn assert_recomputes(outcome: &JobOutcome) {
        let (cold, _) = execute_payload(&outcome.job).unwrap();
        assert!(
            payload_bits(&outcome.payload) == payload_bits(&cold),
            "{}",
            outcome.job
        );
    }

    fn engine(
        policy: crate::CachePolicy,
        cache_dir: Option<&std::path::Path>,
    ) -> crate::DftService {
        crate::DftService::start(crate::ServeConfig {
            workers: 1,
            shards: 1,
            cache_policy: policy,
            cache_dir: cache_dir.map(std::path::Path::to_path_buf),
            ..crate::ServeConfig::default()
        })
    }

    fn run(svc: &crate::DftService, job: DftJob) -> Arc<JobOutcome> {
        svc.submit(job).unwrap().wait().unwrap()
    }

    /// The outcome cached under `job`'s bootstrap fingerprint.
    fn cached_bootstrap(svc: &crate::DftService, job: &DftJob) -> Option<Arc<JobOutcome>> {
        let bootstrap = job.bootstrap().expect("a self-consistent job");
        svc.shared
            .cache
            .peek(&bootstrap.fingerprint())
            .map(|(hit, _)| hit)
    }

    /// Memoized ≡ recomputed: a served self-consistent outcome equals a
    /// cold execution bit for bit whether its bootstrap was absent (and
    /// solved and stored by the job), left by an earlier job's miss, or
    /// left by a `GroundState` submission — under either cache policy.
    /// A stored bootstrap is served to a later submission of it as it
    /// was planned: one member on the snapshot its job's batch read.
    #[test]
    fn self_consistent_outcomes_match_cold_whatever_serves_the_bootstrap() {
        use crate::placement::{assert_one_plan, plan_bits};
        for policy in [crate::CachePolicy::CostWeighted, crate::CachePolicy::Fifo] {
            let svc = engine(policy, None);
            assert!(cached_bootstrap(&svc, &sc(2, 0.3)).is_none());
            assert_recomputes(&run(&svc, sc(2, 0.3)));
            let stored = cached_bootstrap(&svc, &sc(2, 0.3)).expect("a miss stores its bootstrap");
            // The next job of the shape is seeded with that outcome
            // rather than a new solve of it.
            assert_recomputes(&run(&svc, sc(2, 0.5)));
            let after = cached_bootstrap(&svc, &sc(2, 0.5)).unwrap();
            assert!(Arc::ptr_eq(&stored, &after), "{policy:?}");
            // Submitting the bootstrap itself is served at admission.
            let bootstrap = sc(2, 0.3).bootstrap().unwrap();
            let issued = svc.shared.issue(bootstrap.clone().into(), false).unwrap();
            let crate::service::Issued::Cached { outcome, .. } = issued else {
                panic!("{policy:?}: the bootstrap was not served from the cache");
            };
            assert!(Arc::ptr_eq(&outcome, &stored));
            assert_recomputes(&outcome);
            assert_one_plan(&outcome.placement, &outcome.modeled);
            let graph = bootstrap.task_graph().unwrap();
            let (decision, modeled, _) = plan_batch(
                &graph,
                svc.shared.config.policy,
                &crate::ClusterSnapshot::idle(),
                1,
            );
            assert!(
                plan_bits(&outcome.placement, &outcome.modeled, 0.0)
                    == plan_bits(&decision, &modeled, 0.0),
                "{policy:?}"
            );
            // A bootstrap a `GroundState` submission left seeds the job.
            let submitted = run(&svc, sc(3, 0.4).bootstrap().unwrap());
            assert_recomputes(&run(&svc, sc(3, 0.4)));
            let after = cached_bootstrap(&svc, &sc(3, 0.4)).unwrap();
            assert!(Arc::ptr_eq(&submitted, &after), "{policy:?}");
            let report = svc.shutdown();
            // Two of the three jobs were seeded from the cache; the
            // first missed and solved its bootstrap cold.
            assert_eq!(report.warm_injected, 2, "{policy:?}");
            assert_eq!((report.completed, report.served_from_cache), (5, 1));
            assert!(report.conservation_holds(), "{policy:?}");
        }
    }

    /// A bootstrap one engine stored is promoted from the disk tier by
    /// the next engine on the same `cache_dir`, not solved again, and
    /// the job it seeds still matches a cold execution bit for bit.
    #[test]
    fn a_bootstrap_promoted_from_disk_matches_cold() {
        let dir = std::env::temp_dir().join(format!("ndft-bootstrap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let first = engine(crate::CachePolicy::CostWeighted, Some(&dir));
        assert_recomputes(&run(&first, sc(2, 0.3)));
        let stored = cached_bootstrap(&first, &sc(2, 0.3)).unwrap();
        first.shutdown();
        let second = engine(crate::CachePolicy::CostWeighted, Some(&dir));
        assert_recomputes(&run(&second, sc(2, 0.5)));
        // Every field, the solve's wall time included: a second solve
        // would have stored a different outcome.
        let promoted = cached_bootstrap(&second, &sc(2, 0.5)).unwrap();
        assert_eq!(*promoted, *stored, "the bootstrap was solved again");
        let report = second.shutdown();
        assert_eq!(report.cache.disk_hits, 1);
        assert_eq!(report.warm_injected, 1);
        assert!(report.conservation_holds());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
