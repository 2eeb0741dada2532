//! Federated serving: one submission API over N in-process engine
//! replicas, with consistent-hash routing and replay-on-failover.
//!
//! # Why a federation
//!
//! One [`DftService`] scales to one process. The service model the
//! roadmap targets — thousands of tenants, results cached across
//! restarts, no job ever lost — needs many engines behind one front
//! door, the way extreme-scale DFT codes scaled past one node. A
//! [`FederatedService`] is that front door:
//!
//! * **Routing** — every submission's [`Fingerprint`] is
//!   consistent-hashed onto a [`HashRing`] of replicas
//!   ([`crate::router`]). Content addressing makes the home-replica
//!   mapping *useful*: a fingerprint always lands where its result was
//!   cached, so each replica's memory and WAL tiers stay warm for
//!   exactly its share of the key space. Every submission goes to
//!   its home replica: cache locality always wins over balance.
//! * **The routing log** — every accepted queued submission is
//!   recorded in a [`RoutingLog`] with its full [`JobRequest`], so the
//!   federation knows, at any instant, which un-resolved jobs live on
//!   which replica.
//! * **Failover** — [`FederatedService::kill_replica`] (or a
//!   deterministic [`FaultPlan`]) abruptly stops a replica
//!   ([`DftService::kill`]). Its queued jobs fail engine-side, but the
//!   client never sees those failures: the log replays them onto the
//!   surviving ring with priority, deadline, and tenant intact.
//!   **Exactly-once at the result layer** is the ticket state
//!   machine's first-fulfillment-wins rule: each submission owns one
//!   client-facing [`JobTicket`] that resolves exactly once, however
//!   many engine-side attempts raced underneath.
//! * **Cancellation safety** — a client cancel tombstones the routing
//!   log entry (via the ticket's cancel hook) *before* any waiter
//!   observes the cancellation, so a subsequent replica kill can never
//!   resurrect a cancelled job.
//!
//! A killed replica can be revived ([`FederatedService::revive_replica`]):
//! it reopens its own per-replica cache directory
//! ([`crate::persist::replica_cache_dir`]), scans its WAL, and rejoins
//! the ring with its disk tier warm.
//!
//! # Lock order
//!
//! Two locks exist: the federation's replica/ring state (`RwLock`) and
//! the routing log's entry map (`Mutex`). The ordering discipline is
//! **state → log**, never the reverse — and crucially, the completion
//! path (the engine tickets' completion hooks and the client tickets'
//! cancel hooks, which run on worker and client threads) takes only the
//! log lock, so a worker can never deadlock against a concurrent kill
//! holding the state lock.

use crate::client::{ClientSession, CompletionStream};
use crate::dag::{self, Backend, WorkflowRegistry, WorkflowSpec, WorkflowTicket};
use crate::fingerprint::Fingerprint;
use crate::job::{DftJob, JobError, JobRequest};
use crate::metrics::{Ledger, ServeReport};
use crate::persist::replica_cache_dir;
use crate::queue::SubmitError;
use crate::router::{FaultEvent, FaultPlan, HashRing, ReplayItem, RouteInfo, RoutingLog};
use crate::service::{DftService, Issued, ServeConfig};
use crate::telemetry::TelemetrySnapshot;
use crate::ticket::JobTicket;
use crate::worker::JobOutcome;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockWriteGuard};

/// Federation configuration: the replica count, the engine template
/// every replica starts from, and the fault schedule.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Engine replicas to start (slots are numbered `0..replicas`).
    pub replicas: usize,
    /// Per-replica engine template. `cache_dir`, when set, is treated
    /// as a **shared root**: replica `i` actually opens
    /// `<cache_dir>/replica-<i>` ([`replica_cache_dir`]), preserving
    /// the disk tier's one-live-engine-per-directory rule.
    pub engine: ServeConfig,
    /// Deterministic kill/revive schedule, checked before each
    /// submission (see [`FaultPlan`]). Empty by default.
    pub fault_plan: FaultPlan,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            replicas: 2,
            engine: ServeConfig::default(),
            fault_plan: FaultPlan::new(),
        }
    }
}

/// Virtual nodes per replica on the [`HashRing`]: enough to keep the
/// max/mean key share within ~1.35 at 4 replicas (property-tested).
/// Changing it remaps keys, which turns every revived replica's WAL
/// cold.
const VNODES: usize = 64;

/// Client-level counters. The ledger counts each submission's terminal
/// exactly once, by whichever path resolves its client ticket.
struct FedCounters {
    /// Submission attempts (accepted or not) — the [`FaultPlan`] tick.
    attempts: AtomicU64,
    kills: AtomicU64,
    revives: AtomicU64,
    /// Accepted submissions routed to each replica slot.
    routed: Vec<AtomicU64>,
    /// The client-level books: accepted submissions (queued or served
    /// from cache, plus orphaned workflow nodes that never reached a
    /// replica), their terminals, and the workflow views.
    ledger: Ledger,
}

/// One replica slot: the live engine (if any) plus the final reports of
/// its dead incarnations.
struct ReplicaSlot {
    engine: Option<DftService>,
    dead_reports: Vec<ServeReport>,
    dead_telemetry: Vec<TelemetrySnapshot>,
    /// Times this slot has been started (1 after construction).
    incarnations: u64,
}

/// Replica slots + the ring, guarded together so routing always sees a
/// consistent live set.
struct FederationState {
    slots: Vec<ReplicaSlot>,
    ring: HashRing,
}

/// N in-process [`DftService`] replicas behind one submission API. See
/// the [module docs](self) for the routing, failover, and exactly-once
/// story. A thin handle over the `Arc`'d `FedCore`: the workflow
/// coordinator ([`crate::dag`]) holds the core with `'static` ownership
/// so dependency releases can route from completion hooks and spawned
/// threads, while this façade keeps the public lifecycle (its drop
/// still tears the federation down).
pub struct FederatedService {
    core: Arc<FedCore>,
}

/// The federation's shared innards: replica state, routing log,
/// client-level counters, fault schedule, and the workflow registry.
pub(crate) struct FedCore {
    state: RwLock<FederationState>,
    log: Arc<RoutingLog>,
    counters: Arc<FedCounters>,
    fault_plan: Mutex<FaultPlan>,
    workflows: WorkflowRegistry,
    config: FederationConfig,
}

/// Settles a client ticket: the call that wins its resolution counts
/// the terminal and prunes the log entry. A loser changes nothing — a
/// cancel hook (which keeps the entry as a tombstone) or a shutdown
/// sweep already resolved the client and did its own accounting.
fn settle(
    log: &RoutingLog,
    counters: &FedCounters,
    route: u64,
    client: &JobTicket,
    result: Result<Arc<JobOutcome>, JobError>,
) {
    if client.fulfill_first(result.clone()) {
        counters.ledger.terminal(result.as_ref().map(|_| ()));
        log.prune(route);
    }
}

/// Merges snapshots bucket-wise ([`TelemetrySnapshot::absorb`]); `None`
/// for no snapshots. The telemetry twin of [`ServeReport::merged`].
fn merged_telemetry<'a>(
    snaps: impl IntoIterator<Item = &'a TelemetrySnapshot>,
) -> Option<TelemetrySnapshot> {
    let mut snaps = snaps.into_iter();
    let mut total = snaps.next()?.clone();
    for snap in snaps {
        total.absorb(snap);
    }
    Some(total)
}

impl FederatedService {
    /// Starts `config.replicas` engine replicas and the ring over them.
    ///
    /// # Panics
    ///
    /// Panics on a zero replica count, and wherever
    /// [`DftService::start`] panics (zero workers, unopenable
    /// `cache_dir`, …).
    pub fn start(config: FederationConfig) -> Self {
        assert!(config.replicas > 0, "need at least one replica");
        let mut ring = HashRing::new(VNODES);
        let slots = (0..config.replicas)
            .map(|replica| {
                ring.add_replica(replica);
                ReplicaSlot {
                    engine: Some(DftService::start(replica_config(&config.engine, replica))),
                    dead_reports: Vec::new(),
                    dead_telemetry: Vec::new(),
                    incarnations: 1,
                }
            })
            .collect();
        FederatedService {
            core: Arc::new(FedCore {
                state: RwLock::new(FederationState { slots, ring }),
                log: Arc::new(RoutingLog::new()),
                counters: Arc::new(FedCounters {
                    attempts: AtomicU64::new(0),
                    kills: AtomicU64::new(0),
                    revives: AtomicU64::new(0),
                    routed: (0..config.replicas).map(|_| AtomicU64::new(0)).collect(),
                    ledger: Ledger::default(),
                }),
                fault_plan: Mutex::new(config.fault_plan.clone()),
                workflows: WorkflowRegistry::new(),
                config,
            }),
        }
    }

    /// Starts with defaults (two replicas).
    pub fn start_default() -> Self {
        FederatedService::start(FederationConfig::default())
    }

    /// Submits a workflow DAG over the federation: released nodes route
    /// through the ring like any submission (home-replica affinity,
    /// replay-on-failover — a killed replica's unfinished workflow
    /// nodes replay with their dependency state intact, because the
    /// coordinator watches the *client* ticket, which survives the
    /// failover). Edges only order the nodes: a self-consistent child
    /// takes its bootstrap ground state from its home replica's result
    /// cache, as a replayed node takes it from the survivor's. When the
    /// parent ran on another replica, the child solves the bootstrap
    /// cold, which is result-identical (seeded runs are bit-exact).
    ///
    /// # Errors
    ///
    /// [`crate::WorkflowError`] for an empty/cyclic/dangling/invalid
    /// spec, before any ticket or routing state is created.
    pub fn submit_workflow(
        &self,
        spec: WorkflowSpec,
    ) -> Result<WorkflowTicket, crate::WorkflowError> {
        dag::submit(Backend::Federation(Arc::clone(&self.core)), spec)
    }

    /// Routed, non-blocking submission. The returned ticket is the
    /// **client** ticket: it resolves exactly once, surviving replica
    /// kills (the job is replayed) — unlike a [`DftService::submit`]
    /// ticket, it can fail with [`JobError::ShutDown`] only if the
    /// whole federation drains or dies.
    ///
    /// # Errors
    ///
    /// Exactly [`DftService::submit`]'s errors, raised by the chosen
    /// replica; plus [`SubmitError::Closed`] when no replica is live.
    pub fn submit(&self, request: impl Into<JobRequest>) -> Result<JobTicket, SubmitError> {
        let issued = self.core.issue(request.into(), false)?;
        Ok(issued.into_ticket())
    }

    /// Like [`FederatedService::submit`] but blocks for queue space on
    /// the routed replica instead of returning
    /// [`SubmitError::QueueFull`].
    ///
    /// # Errors
    ///
    /// As [`FederatedService::submit`], minus `QueueFull`.
    pub fn submit_blocking(
        &self,
        request: impl Into<JobRequest>,
    ) -> Result<JobTicket, SubmitError> {
        let issued = self.core.issue(request.into(), true)?;
        Ok(issued.into_ticket())
    }

    /// Abruptly kills a replica and replays its un-resolved jobs onto
    /// the surviving ring. Returns the dead incarnation's final
    /// [`ServeReport`] (`None` when the slot is unknown or already
    /// dead).
    ///
    /// The sequence, under the state write lock:
    ///
    /// 1. Remove the replica from the ring (no new routes land on it).
    /// 2. Flag its live log entries as replaying
    ///    (`RoutingLog::mark_replaying`) so completion hooks absorb the
    ///    sweep's `ShutDown`s instead of delivering them.
    /// 3. [`DftService::kill`] — queued jobs fail fast; in-flight jobs
    ///    finish and deliver normally.
    /// 4. Replay (`RoutingLog::take_replayable`) each survivor-bound
    ///    job with its original request — priority, deadline, and
    ///    tenant intact. Tombstoned (cancelled) entries are dropped,
    ///    never resubmitted. With no survivors left, clients fail with
    ///    [`JobError::ShutDown`]; a replay the target's admission
    ///    control refuses on deadline fails with
    ///    [`JobError::DeadlineExceeded`].
    pub fn kill_replica(&self, replica: usize) -> Option<ServeReport> {
        self.core.kill_replica(replica)
    }

    /// Restarts a killed replica and re-adds it to the ring. The new
    /// incarnation reopens the **same** per-replica cache directory, so
    /// it rejoins with every result it persisted before dying already
    /// warm in its disk tier. Returns `false` when the slot is unknown
    /// or already live.
    pub fn revive_replica(&self, replica: usize) -> bool {
        self.core.revive_replica(replica)
    }

    /// Opens a multiplexing [`ClientSession`] over the federation,
    /// paired with its finish-order [`CompletionStream`] — the same API
    /// shape as [`DftService::session`], plus transparent failover.
    pub fn session(&self) -> (ClientSession<'_>, CompletionStream) {
        ClientSession::new(Backend::Federation(Arc::clone(&self.core)))
    }

    /// Closes every live replica's submission queue: new submissions
    /// fail with [`SubmitError::Closed`], queued work still drains.
    pub fn close(&self) {
        self.core.close();
    }

    /// Gracefully shuts down every live replica (queues drain fully, so
    /// every in-flight client ticket resolves through its engine
    /// ticket's completion hook),
    /// orphans coordinator-held workflow nodes, sweeps any stragglers
    /// in the routing log, and returns the final federation-wide report
    /// — on which [`FederationReport::conservation_holds`] is
    /// guaranteed.
    pub fn shutdown(self) -> FederationReport {
        self.core.shutdown_core()
    }

    /// Live federation-wide report: client-level counters plus every
    /// replica's engine report (dead incarnations included) merged via
    /// [`ServeReport::absorb`]. Counters only — latency comes from
    /// [`FederatedService::telemetry`].
    pub fn report(&self) -> FederationReport {
        self.core.report()
    }

    /// Federation-wide telemetry: every replica's snapshot (dead
    /// incarnations included) merged bucket-wise via
    /// [`TelemetrySnapshot::absorb`], so its per-stage, per-class and
    /// per-priority quantiles are true federated quantiles. The one
    /// place federated latency is summarised.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.core.telemetry()
    }

    /// Per-slot telemetry snapshots (each slot's incarnations merged;
    /// index = replica) — the per-replica latency view, as
    /// [`FederationReport::per_replica`] is the per-replica counter
    /// view.
    pub fn telemetry_per_replica(&self) -> Vec<TelemetrySnapshot> {
        self.core.telemetry_per_replica()
    }

    /// The home replica the ring currently assigns `job` (`None` when no
    /// replica is live). Probe-friendly: tests and benches use it to
    /// construct jobs that home on a chosen victim.
    pub fn home_of(&self, job: &DftJob) -> Option<usize> {
        self.core
            .state
            .read()
            .unwrap()
            .ring
            .primary(job.fingerprint())
    }

    /// True when the slot has a live engine.
    pub fn is_live(&self, replica: usize) -> bool {
        self.core.state.read().unwrap().ring.contains(replica)
    }

    /// A live replica's current queue depth (`None` when dead).
    pub fn replica_queue_depth(&self, replica: usize) -> Option<usize> {
        let state = self.core.state.read().unwrap();
        state
            .slots
            .get(replica)
            .and_then(|s| s.engine.as_ref())
            .map(|e| e.queue_depth())
    }

    /// Snapshot of every tracked routing-log entry (un-resolved jobs
    /// and cancellation tombstones), sorted by route id.
    pub fn routes(&self) -> Vec<RouteInfo> {
        self.core.log.snapshot()
    }

    /// Fingerprints replayed onto a surviving replica so far, in replay
    /// order.
    pub fn replayed_fingerprints(&self) -> Vec<Fingerprint> {
        self.core.log.replayed()
    }

    /// Replay candidates skipped because a cancellation had tombstoned
    /// them (see [`RoutingLog::tombstoned_replays`]).
    pub fn tombstoned_replays(&self) -> u64 {
        self.core.log.tombstoned_replays()
    }

    /// The configuration the federation was started with.
    pub fn config(&self) -> &FederationConfig {
        &self.core.config
    }
}

impl FedCore {
    /// The federation's one admission path (sessions and workflow
    /// releases reach it through [`Backend`]): tick the fault plan,
    /// compact the routing log, route, submit to the chosen replica, and
    /// — for queued jobs — wire up the client ticket, the routing-log
    /// entry, the cancel hook, and the engine ticket's completion hook,
    /// all under the state read guard so a concurrent kill cannot slip
    /// between acceptance and recording. A replayed job is re-admitted
    /// from its [`ReplayItem`] alone: like a first attempt, it finds
    /// everything it may reuse in its replica's result cache.
    pub(crate) fn issue(&self, request: JobRequest, blocking: bool) -> Result<Issued, SubmitError> {
        self.tick_faults();
        self.log.maybe_compact();
        let state = self.state.read().unwrap();
        let fingerprint = request.job.fingerprint();
        let Some(replica) = state.ring.primary(fingerprint) else {
            return Err(SubmitError::Closed);
        };
        let engine = state.slots[replica]
            .engine
            .as_ref()
            .expect("ring members are live");
        let issued = engine.shared.issue(request.clone(), blocking)?;
        self.counters.ledger.admit();
        self.counters.routed[replica].fetch_add(1, Ordering::Relaxed);
        let Issued::Queued(engine_ticket) = issued else {
            // Cache serves are terminal at admission: no log entry.
            self.counters.ledger.terminal(Ok(()));
            return Ok(issued);
        };
        let client = JobTicket::pending(fingerprint, engine_ticket.trace_id());
        let route = self
            .log
            .record(request, replica, client.clone(), engine_ticket.clone());
        // The cancel hook is the tombstone writer: it runs iff a cancel
        // wins the client ticket, before any waiter observes the
        // cancellation, so replay can never resurrect a cancelled job.
        // It takes only the log lock — see the module lock-order note.
        let log = Arc::clone(&self.log);
        let counters = Arc::clone(&self.counters);
        client.set_cancel_hook(Box::new(move || {
            counters.ledger.terminal(Err(&JobError::Cancelled));
            log.cancel_route(route);
        }));
        self.forward(route, &client, &engine_ticket);
        Ok(Issued::Queued(client))
    }

    /// Registers the engine→client completion hook on an engine ticket:
    /// it settles the client with the engine's result — unless that
    /// result is the dead-replica sweep's `ShutDown` for an entry
    /// queued for replay, which it absorbs (the replayed attempt
    /// registers a fresh hook).
    fn forward(&self, route: u64, client: &JobTicket, engine: &JobTicket) {
        let (log, counters) = (Arc::clone(&self.log), Arc::clone(&self.counters));
        let client = client.clone();
        engine.on_done(move |result| {
            if matches!(result, Err(JobError::ShutDown)) && log.is_replaying(route) {
                return;
            }
            settle(&log, &counters, route, &client, result.clone());
        });
    }

    /// Fires every [`FaultPlan`] action due at this submission tick.
    fn tick_faults(&self) {
        let tick = self.counters.attempts.fetch_add(1, Ordering::Relaxed) + 1;
        let due = {
            let mut plan = self.fault_plan.lock().unwrap();
            if plan.is_empty() {
                return;
            }
            plan.take_due(tick)
        };
        for action in due {
            match action.event {
                FaultEvent::Kill => {
                    self.kill_replica(action.replica);
                }
                FaultEvent::Revive => {
                    self.revive_replica(action.replica);
                }
            }
        }
    }

    /// The kill sequence (documented on
    /// [`FederatedService::kill_replica`]), under the state write lock.
    /// Unfinished **workflow nodes** on the victim replay like any
    /// logged job: the coordinator's completion hook watches the client
    /// ticket, which outlives the replica, so dependency state (held
    /// children, remaining-parent counts) rides through the failover
    /// untouched.
    fn kill_replica(&self, replica: usize) -> Option<ServeReport> {
        let mut state = self.state.write().unwrap();
        let slot = state.slots.get_mut(replica)?;
        let engine = slot.engine.take()?;
        self.counters.kills.fetch_add(1, Ordering::Relaxed);
        slot.dead_telemetry.push(engine.telemetry());
        state.ring.remove_replica(replica);
        self.log.mark_replaying(replica);
        let report = engine.kill();
        state.slots[replica].dead_reports.push(report.clone());
        let items = self.log.take_replayable(replica);
        for item in items {
            self.replay(&mut state, item);
        }
        Some(report)
    }

    /// Re-submits one replayable job onto the surviving ring.
    fn replay(&self, state: &mut RwLockWriteGuard<'_, FederationState>, item: ReplayItem) {
        let ReplayItem {
            route,
            request,
            client,
        } = item;
        let settle_with = |result| settle(&self.log, &self.counters, route, &client, result);
        let Some(target) = state.ring.primary(client.fingerprint()) else {
            // Last replica died: the federation-wide ShutDown is real.
            return settle_with(Err(JobError::ShutDown));
        };
        let engine = state.slots[target]
            .engine
            .as_ref()
            .expect("ring members are live");
        // Blocking push: replays must not be lost to transient
        // backpressure on the surviving replicas. Workers drain without
        // ever taking the federation state lock, so this converges.
        match engine.shared.issue(request, true) {
            Ok(issued) => {
                self.counters.routed[target].fetch_add(1, Ordering::Relaxed);
                // A survivor cache hit is an already-fulfilled ticket,
                // whose hook settles the client on the spot.
                let engine_ticket = issued.into_ticket();
                self.log.reroute(route, target, engine_ticket.clone());
                // The original cancel hook still guards this entry (it
                // reads the engine ticket through the log at cancel
                // time, so it sees the rerouted one).
                self.forward(route, &client, &engine_ticket);
            }
            // The job's deadline cannot survive the failover.
            Err(SubmitError::AdmissionDenied { .. }) => {
                settle_with(Err(JobError::DeadlineExceeded))
            }
            Err(_) => settle_with(Err(JobError::ShutDown)),
        }
    }

    /// Restart half of [`FederatedService::revive_replica`].
    fn revive_replica(&self, replica: usize) -> bool {
        let mut state = self.state.write().unwrap();
        if replica >= state.slots.len() || state.slots[replica].engine.is_some() {
            return false;
        }
        let engine = DftService::start(replica_config(&self.config.engine, replica));
        let slot = &mut state.slots[replica];
        slot.engine = Some(engine);
        slot.incarnations += 1;
        state.ring.add_replica(replica);
        self.counters.revives.fetch_add(1, Ordering::Relaxed);
        true
    }

    fn close(&self) {
        let state = self.state.read().unwrap();
        for slot in &state.slots {
            if let Some(engine) = &slot.engine {
                engine.close();
            }
        }
    }

    /// Drain half of [`FederatedService::shutdown`].
    fn shutdown_core(&self) -> FederationReport {
        {
            let mut state = self.state.write().unwrap();
            for slot in state.slots.iter_mut() {
                if let Some(engine) = slot.engine.take() {
                    slot.dead_telemetry.push(engine.telemetry());
                    slot.dead_reports.push(engine.shutdown());
                }
            }
        }
        self.sweep_stragglers();
        self.report()
    }

    /// The shared teardown tail, once every engine is gone. Replica
    /// drains resolved every routed engine ticket, which settled (or
    /// orphan-cascaded) every *released* workflow node; the workflow
    /// sweep now orphans nodes the coordinator still holds, exactly once
    /// each. Then any client still in the log fails with `ShutDown`
    /// (after a graceful drain only cancellation tombstones remain —
    /// their clients already resolved, so settling again counts
    /// nothing twice).
    fn sweep_stragglers(&self) {
        self.workflows.sweep();
        for (route, client) in self.log.drain_all() {
            settle(
                &self.log,
                &self.counters,
                route,
                &client,
                Err(JobError::ShutDown),
            );
        }
    }

    fn report(&self) -> FederationReport {
        let state = self.state.read().unwrap();
        let per_replica: Vec<ServeReport> = state
            .slots
            .iter()
            .map(|slot| {
                let live = slot.engine.as_ref().map(|e| e.report());
                ServeReport::merged(slot.dead_reports.iter().chain(live.as_ref()))
                    .expect("every slot has at least one incarnation")
            })
            .collect();
        let engines =
            ServeReport::merged(per_replica.iter()).expect("federation has at least one replica");
        let books = self.counters.ledger.books();
        FederationReport {
            replicas: state.slots.len(),
            live: state.ring.replica_count(),
            kills: self.counters.kills.load(Ordering::Relaxed),
            revives: self.counters.revives.load(Ordering::Relaxed),
            submitted: books.submitted,
            completed: books.completed,
            failed: books.failed,
            cancelled: books.cancelled,
            deadline_dropped: books.deadline_dropped,
            orphaned: books.orphaned,
            workflows: books.workflows,
            workflow_released: books.workflow_released,
            replayed: self.log.replayed_total(),
            tombstoned_replays: self.log.tombstoned_replays(),
            routed: self
                .counters
                .routed
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            engines,
            per_replica,
        }
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        merged_telemetry(&self.telemetry_per_replica())
            .expect("federation has at least one replica")
    }

    fn telemetry_per_replica(&self) -> Vec<TelemetrySnapshot> {
        let state = self.state.read().unwrap();
        state
            .slots
            .iter()
            .map(|slot| {
                let live = slot.engine.as_ref().map(|e| e.telemetry());
                merged_telemetry(slot.dead_telemetry.iter().chain(live.as_ref()))
                    .expect("every slot has at least one incarnation")
            })
            .collect()
    }

    /// The workflow registry the coordinator registers runtimes in.
    pub(crate) fn workflows(&self) -> &WorkflowRegistry {
        &self.workflows
    }

    /// The client-level ledger workflow accounting lands in.
    pub(crate) fn ledger(&self) -> &Ledger {
        &self.counters.ledger
    }

    /// Teardown on façade drop: kill engines, orphan held workflow
    /// nodes, fail log stragglers.
    fn abandon(&self) {
        {
            let mut state = self.state.write().unwrap();
            for slot in state.slots.iter_mut() {
                slot.engine.take();
            }
        }
        self.sweep_stragglers();
    }
}

impl Drop for FederatedService {
    fn drop(&mut self) {
        // Engines shut down via their own Drop; fail any log stragglers
        // (and orphan coordinator-held workflow nodes) so no client
        // waiter hangs on a dropped federation.
        self.core.abandon();
    }
}

/// The engine config replica `replica` starts from: the shared template
/// with `cache_dir` (when set) specialized to the replica's own
/// subdirectory.
fn replica_config(template: &ServeConfig, replica: usize) -> ServeConfig {
    let mut config = template.clone();
    config.cache_dir = config
        .cache_dir
        .map(|root| replica_cache_dir(root, replica));
    config
}

/// Federation-wide aggregate: client-level counters (exactly-once per
/// submission), failover history, and the merged engine-level
/// [`ServeReport`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationReport {
    /// Replica slots configured.
    pub replicas: usize,
    /// Replicas live (on the ring) at snapshot time.
    pub live: usize,
    /// Replica kills performed.
    pub kills: u64,
    /// Replica revives performed.
    pub revives: u64,
    /// Client-level accepted submissions (queued or cache-served).
    pub submitted: u64,
    /// Client tickets resolved `Ok`.
    pub completed: u64,
    /// Client tickets resolved with a non-cancel, non-deadline error.
    pub failed: u64,
    /// Client tickets resolved [`JobError::Cancelled`].
    pub cancelled: u64,
    /// Client tickets resolved [`JobError::DeadlineExceeded`].
    pub deadline_dropped: u64,
    /// Workflow nodes that died before reaching any replica (upstream
    /// failure, shutdown, or pre-release cancel); resolved with
    /// [`JobError::DependencyFailed`] (or the sweeping error) exactly
    /// once, and counted into `submitted` alongside.
    pub orphaned: u64,
    /// Workflow DAGs accepted by
    /// [`FederatedService::submit_workflow`].
    pub workflows: u64,
    /// Workflow nodes released into the routed submission path.
    pub workflow_released: u64,
    /// Jobs replayed onto a surviving replica after a kill.
    pub replayed: u64,
    /// Replay candidates dropped because a cancellation had tombstoned
    /// them.
    pub tombstoned_replays: u64,
    /// Accepted submissions routed to each replica slot (index =
    /// replica; replays count toward their new replica too).
    pub routed: Vec<u64>,
    /// Every replica's engine report (dead incarnations included)
    /// merged with [`ServeReport::absorb`]. Engine-level counters
    /// differ from the client-level ones above by design: a replayed
    /// job is one client submission but two engine submissions (one
    /// failed, one completed).
    pub engines: ServeReport,
    /// Per-slot merged engine reports (index = replica).
    pub per_replica: Vec<ServeReport>,
}

impl FederationReport {
    /// Client-level job conservation on a quiescent federation: every
    /// accepted submission — workflow nodes included — reached exactly
    /// one terminal:
    ///
    /// ```text
    /// submitted == completed + failed + cancelled
    ///            + deadline_dropped + orphaned
    /// ```
    ///
    /// This is the federated exactly-once invariant: it holds across
    /// replica kills, replays, cancellations, and workflow orphan
    /// cascades, because each client ticket resolves (and is counted)
    /// exactly once.
    pub fn conservation_holds(&self) -> bool {
        self.submitted
            == self.completed + self.failed + self.cancelled + self.deadline_dropped + self.orphaned
    }

    /// Client-level completed jobs per second of federation uptime
    /// (max replica uptime — replicas run concurrently).
    pub fn throughput_jobs_per_s(&self) -> f64 {
        if self.engines.uptime_s == 0.0 {
            0.0
        } else {
            self.completed as f64 / self.engines.uptime_s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Priority;
    use std::time::Duration;

    fn md(atoms: usize, seed: u64) -> DftJob {
        DftJob::MdSegment {
            atoms,
            steps: 5,
            temperature_k: 300.0,
            seed,
        }
    }

    fn quick_config(replicas: usize) -> FederationConfig {
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

    #[test]
    fn federated_submit_completes_and_conserves() {
        let fed = FederatedService::start(quick_config(3));
        let tickets: Vec<JobTicket> = (0..12)
            .map(|i| fed.submit_blocking(md(64, i)).unwrap())
            .collect();
        for t in &tickets {
            t.wait().unwrap();
        }
        let report = fed.shutdown();
        assert_eq!(report.submitted, 12);
        assert_eq!(report.completed, 12);
        assert!(report.conservation_holds());
        assert_eq!(report.routed.iter().sum::<u64>(), 12);
        assert!(report.engines.conservation_holds());
    }

    #[test]
    fn identical_jobs_route_to_one_home_and_hit_its_cache() {
        let fed = FederatedService::start(quick_config(4));
        let job = md(64, 99);
        let home = fed.home_of(&job).unwrap();
        fed.submit_blocking(job.clone()).unwrap().wait().unwrap();
        let again = fed.submit_blocking(job.clone()).unwrap();
        assert!(again.is_done(), "resubmission is a cache serve");
        let report = fed.report();
        assert_eq!(report.routed[home], 2, "both submissions routed home");
        assert!(report.per_replica[home].served_from_cache >= 1);
        fed.shutdown();
    }

    #[test]
    fn kill_without_pending_work_just_shrinks_the_ring() {
        let fed = FederatedService::start(quick_config(2));
        fed.submit_blocking(md(64, 1)).unwrap().wait().unwrap();
        assert!(fed.kill_replica(0).is_some());
        assert!(fed.kill_replica(0).is_none(), "double kill is a no-op");
        assert!(!fed.is_live(0) && fed.is_live(1));
        // Everything now routes to the survivor.
        for i in 0..6 {
            fed.submit_blocking(md(64, 100 + i))
                .unwrap()
                .wait()
                .unwrap();
        }
        let report = fed.shutdown();
        assert_eq!(report.kills, 1);
        assert_eq!(report.live, 1);
        assert!(report.conservation_holds());
    }

    #[test]
    fn revive_restores_the_slot_and_ring() {
        let fed = FederatedService::start(quick_config(2));
        fed.kill_replica(1).unwrap();
        assert!(!fed.is_live(1));
        assert!(fed.revive_replica(1));
        assert!(!fed.revive_replica(1), "double revive is a no-op");
        assert!(fed.is_live(1));
        fed.submit_blocking(md(64, 5)).unwrap().wait().unwrap();
        let report = fed.shutdown();
        assert_eq!(report.kills, 1);
        assert_eq!(report.revives, 1);
        assert!(report.conservation_holds());
    }

    #[test]
    fn fault_plan_kills_at_the_scheduled_submission() {
        let mut config = quick_config(2);
        config.fault_plan = FaultPlan::new().kill_at(3, 0);
        let fed = FederatedService::start(config);
        fed.submit_blocking(md(64, 1)).unwrap();
        fed.submit_blocking(md(64, 2)).unwrap();
        assert!(fed.is_live(0), "kill not due yet");
        fed.submit_blocking(md(64, 3)).unwrap();
        assert!(!fed.is_live(0), "third submission triggered the kill");
        let report = fed.shutdown();
        assert_eq!(report.kills, 1);
        assert!(report.conservation_holds());
    }

    /// A job of `steps` MD steps whose fingerprint homes on `replica`
    /// under the federation's current ring.
    fn job_homed_on(fed: &FederatedService, replica: usize, steps: usize, seed0: u64) -> DftJob {
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

    #[test]
    fn replay_preserves_request_qos_metadata() {
        // Wedge victim-homed jobs behind a heavy blocker so the kill
        // finds them still queued, then verify the rerouted entries
        // kept their priority/deadline/tenant. The survivor is wedged
        // too — behind a much longer blocker — so the replayed entries
        // are still observable in the routing log when we snapshot it
        // (a free survivor would complete and prune them in
        // microseconds). ~1.5 µs/step makes the victim blocker ~150 ms
        // and the survivor blocker ~900 ms: the snapshot lands right
        // after the kill, well inside the survivor's busy window.
        let fed = FederatedService::start(quick_config(2));
        let victim = fed.home_of(&md(64, 0)).unwrap();
        let survivor = 1 - victim;
        fed.submit_blocking(job_homed_on(&fed, victim, 100_000, 1 << 32))
            .unwrap();
        fed.submit_blocking(job_homed_on(&fed, survivor, 600_000, 1 << 33))
            .unwrap();
        // Wait until both single workers picked their blocker up, so
        // victim-homed submissions stay queued behind it.
        while fed.replica_queue_depth(victim) != Some(0)
            || fed.replica_queue_depth(survivor) != Some(0)
        {
            std::thread::yield_now();
        }
        let mut homed = Vec::new();
        let mut seed = 0u64;
        while homed.len() < 3 {
            let job = md(64, 1000 + seed);
            if fed.home_of(&job).unwrap() == victim {
                let request = JobRequest::new(job)
                    .priority(Priority::Interactive)
                    .deadline(Duration::from_secs(1_000_000))
                    .tenant(crate::job::TenantId(7));
                homed.push(fed.submit_blocking(request).unwrap());
            }
            seed += 1;
        }
        fed.kill_replica(victim).unwrap();
        let replayed: Vec<RouteInfo> = fed.routes().into_iter().filter(|r| r.replays > 0).collect();
        assert_eq!(replayed.len(), 3, "all wedged jobs replayed");
        for route in &replayed {
            assert_eq!(route.replica, survivor);
            assert_eq!(route.priority, Priority::Interactive);
            assert_eq!(route.deadline, Some(Duration::from_secs(1_000_000)));
            assert_eq!(route.tenant, crate::job::TenantId(7));
        }
        for t in &homed {
            t.wait().unwrap();
        }
        let report = fed.shutdown();
        assert_eq!(report.replayed, 3);
        assert!(report.conservation_holds());
    }
}
