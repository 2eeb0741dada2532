//! Workflow DAGs: dependency-aware pipeline serving.
//!
//! A workflow is a directed acyclic graph of [`crate::JobRequest`]s in
//! which an edge `parent → child` declares that the child runs after
//! the parent. The lifecycle is **spec → validate → release**:
//!
//! 1. **Spec.** [`WorkflowSpec`] is a plain builder: [`WorkflowSpec::add_node`]
//!    mints a [`NodeId`], [`WorkflowSpec::add_edge`] declares a
//!    dependency. Nothing touches the engine yet.
//! 2. **Validate.** Submission ([`crate::DftService::submit_workflow`] /
//!    [`crate::FederatedService::submit_workflow`]) rejects empty
//!    graphs, self-edges, edges naming unknown nodes, cycles (Kahn's
//!    algorithm), and invalid member jobs — *before* any ticket or
//!    engine state is created, so a rejected spec leaks nothing.
//! 3. **Release.** Accepted nodes are held by a `WorkflowRuntime`
//!    *outside* the queue shards; a node enters the normal submission
//!    path the moment its last parent fulfills. Readiness rides a
//!    completion hook ([`crate::JobTicket`]'s `on_done` closure): each
//!    released node's engine ticket carries one that settles the node,
//!    so no polling thread exists anywhere. A parent served from the
//!    result cache settles synchronously and releases its children
//!    instantly.
//!
//! An edge moves no data. A worker stores a parent's outcome in the
//! result cache before its ticket fulfills, so a child whose bootstrap
//! the parent is (a self-consistent job after its `GroundState`)
//! finds it there and starts from the parent's converged state instead
//! of from scratch — the same lookup any self-consistent job makes.
//! Seeded starts are bit-identical to cold ones, so a child that finds
//! nothing (its federation replica never saw the parent, or the entry
//! was evicted) only solves the bootstrap again.
//!
//! # Settlement and accounting
//!
//! Every node settles **exactly once**, guarded by a per-node phase
//! (`Pending → Released → Settled`) under the runtime's single mutex.
//! A node that reaches the engine is counted by the engine's normal
//! books (completed / failed / cancelled / deadline-dropped). A node
//! that dies *before* reaching the engine — upstream failure, engine
//! shutdown, rejected release submission, or a user cancel while still
//! pending — is counted as **orphaned**, the fifth terminal of the
//! extended conservation invariant:
//!
//! ```text
//! submitted == completed + failed + cancelled + deadline_dropped + orphaned
//! ```
//!
//! Orphans resolve their node ticket with
//! [`JobError::DependencyFailed`] (or the sweeping error), exactly
//! once, and are never double-counted: the orphan path bumps
//! `submitted` and `orphaned` together, which is the only place a job
//! joins `submitted` without entering a queue shard.
//!
//! # Deadlock discipline
//!
//! Releases triggered from a completion hook run on the fulfilling
//! thread. Two hazards are designed out:
//!
//! - **Engine backend**: a releasing thread may *be* the engine's only
//!   worker, so a full queue must never be waited on inline — the
//!   blocking retry hops to a fresh thread.
//! - **Federation backend**: replica completion paths can run under the
//!   federation state lock (`kill_replica` joins a replica's workers
//!   while holding it), and a release re-enters that lock to route.
//!   Federated releases therefore *always* hop to a fresh thread.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

use crate::exec::{self, JoinAll};
use crate::federation::FedCore;
use crate::fingerprint::Fingerprint;
use crate::job::{JobError, JobRequest, WorkloadClass};
use crate::metrics::Ledger;
use crate::queue::SubmitError;
use crate::service::{EngineShared, Issued};
use crate::telemetry::Stage;
use crate::ticket::{JobTicket, TicketFuture};
use crate::trace::{TraceEvent, TraceEventKind, TraceId};
use crate::worker::JobOutcome;

/// Handle to a node added to a [`WorkflowSpec`]; the public index into
/// the spec's node list. Minted by [`WorkflowSpec::add_node`] in
/// insertion order (the tuple field is public so tests can forge
/// dangling references and watch validation reject them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The node's index in spec order (also the index into
    /// [`WorkflowTicket::tickets`]).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Why a workflow spec was rejected at submission. Validation runs
/// before any ticket or engine state exists, so a rejected spec holds
/// no resources and perturbs no counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkflowError {
    /// The spec has no nodes.
    Empty,
    /// An edge references a node index outside the spec (a dangling
    /// edge — e.g. a [`NodeId`] minted by a different spec).
    UnknownNode {
        /// The out-of-range index the edge named.
        node: usize,
        /// How many nodes the spec actually has.
        nodes: usize,
    },
    /// An edge connects a node to itself.
    SelfEdge {
        /// The offending node.
        node: usize,
    },
    /// The graph contains a cycle; `node` is one member of it (a node
    /// whose in-degree never reached zero under Kahn's algorithm).
    Cycle {
        /// One node on (or strictly behind) the cycle.
        node: usize,
    },
    /// A member job failed [`crate::DftJob::validate`].
    InvalidJob {
        /// The node holding the invalid job.
        node: usize,
        /// The job-level rejection.
        reason: String,
    },
}

impl fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowError::Empty => write!(f, "workflow has no nodes"),
            WorkflowError::UnknownNode { node, nodes } => {
                write!(
                    f,
                    "edge references node {node}, but the spec has {nodes} nodes"
                )
            }
            WorkflowError::SelfEdge { node } => {
                write!(f, "node {node} has an edge to itself")
            }
            WorkflowError::Cycle { node } => {
                write!(f, "workflow graph has a cycle through node {node}")
            }
            WorkflowError::InvalidJob { node, reason } => {
                write!(f, "node {node} holds an invalid job: {reason}")
            }
        }
    }
}

impl std::error::Error for WorkflowError {}

/// Builder for a workflow graph: jobs as nodes, data-flow dependencies
/// as edges. Pure data — building a spec touches no engine state; all
/// checking happens at submission (see [`WorkflowSpec::validate`]).
#[derive(Debug, Clone, Default)]
pub struct WorkflowSpec {
    nodes: Vec<JobRequest>,
    edges: Vec<(usize, usize)>,
}

impl WorkflowSpec {
    /// An empty spec (invalid until at least one node is added).
    pub fn new() -> Self {
        WorkflowSpec::default()
    }

    /// Adds a job node and returns its handle. Plain [`crate::DftJob`]s
    /// are accepted and wrapped into default-QoS requests, mirroring
    /// [`crate::DftService::submit`].
    pub fn add_node(&mut self, request: impl Into<JobRequest>) -> NodeId {
        self.nodes.push(request.into());
        NodeId(self.nodes.len() - 1)
    }

    /// Declares that `child` depends on `parent`: the child is held
    /// back until the parent fulfills (and then finds the parent's
    /// outcome in the result cache). Duplicate edges are tolerated
    /// (deduplicated at submission).
    pub fn add_edge(&mut self, parent: NodeId, child: NodeId) {
        self.edges.push((parent.0, child.0));
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the spec has no nodes yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Full submission-time validation: non-empty, no self-edges, no
    /// dangling edges, acyclic (Kahn's algorithm), and every member job
    /// individually valid.
    pub fn validate(&self) -> Result<(), WorkflowError> {
        self.topological_order().map(|_| ())
    }

    /// [`WorkflowSpec::validate`], returning a topological order of the
    /// node indices on success. The session layer attaches completion
    /// hooks in this order so already-settled nodes still deliver
    /// parents-before-children.
    pub(crate) fn topological_order(&self) -> Result<Vec<usize>, WorkflowError> {
        let n = self.nodes.len();
        if n == 0 {
            return Err(WorkflowError::Empty);
        }
        for &(p, c) in &self.edges {
            if p >= n {
                return Err(WorkflowError::UnknownNode { node: p, nodes: n });
            }
            if c >= n {
                return Err(WorkflowError::UnknownNode { node: c, nodes: n });
            }
            if p == c {
                return Err(WorkflowError::SelfEdge { node: p });
            }
        }
        for (i, request) in self.nodes.iter().enumerate() {
            if let Err(e) = request.job.validate() {
                return Err(WorkflowError::InvalidJob {
                    node: i,
                    reason: e.to_string(),
                });
            }
        }
        let (children, mut indegree) = dedup_adjacency(n, &self.edges);
        let mut ready: VecDeque<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.pop_front() {
            order.push(i);
            for &c in &children[i] {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    ready.push_back(c);
                }
            }
        }
        if order.len() < n {
            let node = (0..n)
                .find(|&i| indegree[i] > 0)
                .expect("a cycle leaves positive in-degrees");
            return Err(WorkflowError::Cycle { node });
        }
        Ok(order)
    }
}

/// Children lists and in-degrees over **deduplicated** edges. Dedup is
/// load-bearing: a duplicate `parent → child` edge must not decrement
/// the child's remaining-parent count twice at settlement.
fn dedup_adjacency(n: usize, edges: &[(usize, usize)]) -> (Vec<Vec<usize>>, Vec<usize>) {
    let mut sorted: Vec<(usize, usize)> = edges.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut children = vec![Vec::new(); n];
    let mut indegree = vec![0usize; n];
    for (p, c) in sorted {
        children[p].push(c);
        indegree[c] += 1;
    }
    (children, indegree)
}

/// The front door a session or a workflow submits through: one engine
/// or the federation router. The one place that chooses between
/// [`EngineShared::issue`] and [`FedCore::issue`]. Owned
/// (`Arc`) because releases run in completion hooks and spawned retry
/// threads, which demand `'static` handles.
#[derive(Clone)]
pub(crate) enum Backend {
    /// Submit into one engine's sharded queue.
    Engine(Arc<EngineShared>),
    /// Route through the federation's consistent-hash ring.
    Federation(Arc<FedCore>),
}

impl Backend {
    fn registry(&self) -> &WorkflowRegistry {
        match self {
            Backend::Engine(e) => &e.workflows,
            Backend::Federation(f) => f.workflows(),
        }
    }

    pub(crate) fn issue(&self, request: JobRequest, blocking: bool) -> Result<Issued, SubmitError> {
        match self {
            Backend::Engine(e) => e.issue(request, blocking),
            Backend::Federation(f) => f.issue(request, blocking),
        }
    }

    /// Whether releases must hop to a fresh thread unconditionally.
    /// True for the federation: its completion hooks can run under the
    /// federation state lock (replica kill/shutdown joins workers while
    /// holding it), and routing a release re-enters that lock.
    fn detached_release(&self) -> bool {
        matches!(self, Backend::Federation(_))
    }

    /// The books workflow accounting lands in: the engine's, or the
    /// federation's client-level ledger.
    fn ledger(&self) -> &Ledger {
        match self {
            Backend::Engine(e) => &e.metrics.ledger,
            Backend::Federation(f) => f.ledger(),
        }
    }

    /// Dependency-wait observability at release: the `DagWait` stage
    /// histogram plus (when traced) a `dag-wait` span from workflow
    /// submission to release, on the trace lane the engine assigned.
    /// The federation skips this — stage telemetry and trace rings are
    /// per-replica, and the coordinator sits above all of them.
    fn note_release(
        &self,
        workflow: u64,
        node: usize,
        fingerprint: Fingerprint,
        class: WorkloadClass,
        trace: TraceId,
        submitted_at: Instant,
    ) {
        let Backend::Engine(e) = self else { return };
        let waited = submitted_at.elapsed();
        e.telemetry.record(class, Stage::DagWait, waited);
        if e.telemetry.traced() {
            e.telemetry.publish(TraceEvent {
                seq: 0,
                trace,
                fingerprint,
                class,
                worker: None,
                start_ns: e.telemetry.ns_at(submitted_at),
                dur_ns: waited.as_nanos().min(u64::MAX as u128) as u64,
                kind: TraceEventKind::DagWait { workflow, node },
            });
        }
    }

    /// Orphan observability: a `dag-orphan` instant on the detached
    /// lane (the node never reached admission, so no engine trace id
    /// exists for it). Engine-only, like [`Backend::note_release`].
    fn note_orphan(
        &self,
        workflow: u64,
        node: usize,
        fingerprint: Fingerprint,
        class: WorkloadClass,
    ) {
        let Backend::Engine(e) = self else { return };
        if e.telemetry.traced() {
            e.telemetry.publish(TraceEvent {
                seq: 0,
                trace: TraceId::DETACHED,
                fingerprint,
                class,
                worker: None,
                start_ns: e.telemetry.now_ns(),
                dur_ns: 0,
                kind: TraceEventKind::DagOrphan { workflow, node },
            });
        }
    }
}

/// A pending workflow node's lifecycle position. Transitions happen
/// under the runtime mutex and only ever move forward, which is the
/// exactly-once guarantee: every settlement path (completion hook,
/// orphan cascade, shutdown sweep, pre-release cancel) checks the phase before
/// acting and the first to move it wins.
#[derive(Clone, Copy, PartialEq, Eq)]
enum NodePhase {
    /// Held by the coordinator; parents outstanding.
    Pending,
    /// Handed to the backend's admission path; engine books own it now.
    Released,
    /// Terminal: completed, failed, cancelled, or orphaned.
    Settled,
}

struct NodeState {
    /// The request, present until release (or orphaning) consumes it.
    request: Option<JobRequest>,
    /// The node's public ticket ([`TraceId::DETACHED`] — the engine
    /// trace id does not exist until release).
    ticket: JobTicket,
    /// Direct dependents (deduplicated).
    children: Vec<usize>,
    /// Parents not yet settled `Ok`; release fires at zero.
    remaining_parents: usize,
    phase: NodePhase,
    class: WorkloadClass,
    /// When the workflow was submitted — the `DagWait` span origin.
    submitted_at: Instant,
}

/// Tracks live workflow runtimes for the shutdown sweep. Holds weak
/// references: a workflow whose ticket and in-flight hooks are all
/// gone needs no sweeping, and the registry must not keep it alive.
pub(crate) struct WorkflowRegistry {
    next_id: AtomicU64,
    live: Mutex<Vec<Weak<WorkflowRuntime>>>,
}

impl WorkflowRegistry {
    pub(crate) fn new() -> Self {
        WorkflowRegistry {
            next_id: AtomicU64::new(1),
            live: Mutex::new(Vec::new()),
        }
    }

    fn next_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn register(&self, runtime: &Arc<WorkflowRuntime>) {
        let mut live = self.live.lock().unwrap();
        live.retain(|w| w.strong_count() > 0);
        live.push(Arc::downgrade(runtime));
    }

    /// Shutdown sweep: orphans every still-pending node of every live
    /// workflow, exactly once each (released nodes are the queue
    /// sweep's responsibility — their engine tickets resolve through
    /// the normal drain). Runs the orphaning outside the registry lock.
    pub(crate) fn sweep(&self) {
        let live: Vec<Arc<WorkflowRuntime>> = {
            let mut live = self.live.lock().unwrap();
            let upgraded = live.iter().filter_map(Weak::upgrade).collect();
            live.clear();
            upgraded
        };
        for runtime in live {
            runtime.orphan_all_pending();
        }
    }
}

/// Live state of one submitted workflow: the nodes the coordinator
/// still holds, plus the backend released nodes are submitted into.
/// Kept alive by the [`WorkflowTicket`] and by the completion hooks of
/// in-flight nodes; the registry only holds it weakly.
pub(crate) struct WorkflowRuntime {
    id: u64,
    backend: Backend,
    nodes: Mutex<Vec<NodeState>>,
}

impl WorkflowRuntime {
    /// Releases node `idx` into the backend's normal submission path.
    /// No-op unless the node is still `Pending` (a shutdown sweep or
    /// orphan cascade may have settled it first).
    fn release(self: &Arc<Self>, idx: usize) {
        let (request, class) = {
            let mut nodes = self.nodes.lock().unwrap();
            let node = &mut nodes[idx];
            if !matches!(node.phase, NodePhase::Pending) {
                return;
            }
            node.phase = NodePhase::Released;
            let Some(request) = node.request.take() else {
                return;
            };
            (request, node.class)
        };
        if self.backend.detached_release() {
            let runtime = Arc::clone(self);
            std::thread::spawn(move || runtime.release_submit(idx, request, class, true));
        } else {
            self.release_submit(idx, request, class, false);
        }
    }

    /// The submission half of a release. `blocking` is false on the
    /// engine's synchronous path: a full queue then hops the retry to a
    /// fresh thread, because the releasing thread may be the engine's
    /// only worker — blocking it on its own queue would deadlock.
    fn release_submit(
        self: &Arc<Self>,
        idx: usize,
        request: JobRequest,
        class: WorkloadClass,
        blocking: bool,
    ) {
        match self.backend.issue(request.clone(), blocking) {
            Ok(issued) => self.wire(idx, class, issued),
            Err(SubmitError::QueueFull) => {
                let runtime = Arc::clone(self);
                std::thread::spawn(move || match runtime.backend.issue(request, true) {
                    Ok(issued) => runtime.wire(idx, class, issued),
                    Err(e) => runtime.release_rejected(idx, e),
                });
            }
            Err(e) => self.release_rejected(idx, e),
        }
    }

    /// Hooks a successfully released node up to its engine-side ticket.
    /// A cache-served release is an already-fulfilled ticket, whose hook
    /// settles the node on this thread before `wire` returns.
    fn wire(self: &Arc<Self>, idx: usize, class: WorkloadClass, issued: Issued) {
        self.backend.ledger().released();
        let (ticket, submitted_at) = {
            let nodes = self.nodes.lock().unwrap();
            (nodes[idx].ticket.clone(), nodes[idx].submitted_at)
        };
        let engine_ticket = issued.into_ticket();
        self.backend.note_release(
            self.id,
            idx,
            engine_ticket.fingerprint(),
            class,
            engine_ticket.trace_id(),
            submitted_at,
        );
        // Cancelling the node ticket now tombstones the engine-side job;
        // the engine ticket's `Cancelled` resolution flows back through
        // the completion hook and orphans the node's descendants.
        let propagate = engine_ticket.clone();
        ticket.set_cancel_hook(Box::new(move || {
            let _ = propagate.cancel();
        }));
        // Parent-before-child ordering: the node's own ticket fulfills
        // before settle can release any dependent.
        let (runtime, node_ticket) = (Arc::clone(self), ticket.clone());
        engine_ticket.on_done(move |result| {
            node_ticket.fulfill(result.clone());
            runtime.settle(idx, result.as_ref().err());
        });
        // A cancel that raced the release window (after the pre-release
        // hook was consumed, before the propagation hook landed) would
        // otherwise strand a live engine job under a cancelled node
        // ticket.
        if matches!(ticket.try_result(), Some(Err(JobError::Cancelled))) {
            let _ = engine_ticket.cancel();
        }
    }

    /// A release whose submission the backend rejected outright. The
    /// node never entered the engine's books, so it is orphan-accounted
    /// here and its failure cascades to its descendants.
    fn release_rejected(self: &Arc<Self>, idx: usize, error: SubmitError) {
        let err = match error {
            SubmitError::Closed => JobError::ShutDown,
            SubmitError::InvalidJob(m) => JobError::InvalidSystem(m),
            SubmitError::AdmissionDenied { .. } => JobError::DeadlineExceeded,
            other => JobError::DependencyFailed(format!("release submission failed: {other}")),
        };
        self.orphan_subtree(idx, NodePhase::Released, err);
    }

    /// The single settlement point: records node `idx`'s terminal
    /// result, then either releases newly-ready children (no `error`) or
    /// orphans every still-pending descendant. The phase guard makes a
    /// second settlement attempt a no-op.
    fn settle(self: &Arc<Self>, idx: usize, error: Option<&JobError>) {
        let children = {
            let mut nodes = self.nodes.lock().unwrap();
            nodes[idx].phase = NodePhase::Settled;
            nodes[idx].request = None;
            let mut children = nodes[idx].children.clone();
            if error.is_none() {
                children.retain(|&c| {
                    let child = &mut nodes[c];
                    if !matches!(child.phase, NodePhase::Pending) {
                        return false;
                    }
                    child.remaining_parents -= 1;
                    child.remaining_parents == 0
                });
            }
            children
        };
        // Lock dropped: releases may settle synchronously (cache hits)
        // and recurse back into this method.
        match error {
            None => {
                for c in children {
                    self.release(c);
                }
            }
            Some(err) => self.orphan_descendants(idx, err, children),
        }
    }

    /// The one orphan path. If node `idx` is still in phase `from`,
    /// settles it: mark it `Settled`, drop its request,
    /// count it in the ledger (`submitted` and `orphaned` together — the
    /// one way a job joins the books without entering a queue), note
    /// the orphan, and resolve its ticket with `err` (a no-op when the
    /// node's own cancel got there first). Returns the node's children
    /// for the caller to cascade to — after the fulfill, so parents
    /// resolve first — or `None` when the phase guard says another path
    /// already settled it.
    fn orphan(&self, idx: usize, from: NodePhase, err: JobError) -> Option<Vec<usize>> {
        let (ticket, class, children) = {
            let mut nodes = self.nodes.lock().unwrap();
            let node = &mut nodes[idx];
            if node.phase != from {
                return None;
            }
            node.phase = NodePhase::Settled;
            node.request = None;
            (node.ticket.clone(), node.class, node.children.clone())
        };
        self.backend.ledger().orphan();
        self.backend
            .note_orphan(self.id, idx, ticket.fingerprint(), class);
        ticket.fulfill(Err(err));
        Some(children)
    }

    /// Orphans node `idx` (if still in phase `from`) with `err`, then
    /// cascades to its descendants: a shutdown sweep, a user cancel
    /// before release, or a rejected release.
    fn orphan_subtree(&self, idx: usize, from: NodePhase, err: JobError) {
        if let Some(children) = self.orphan(idx, from, err.clone()) {
            self.orphan_descendants(idx, &err, children);
        }
    }

    /// Orphans every still-pending node reachable from `root`'s
    /// `children`, breadth first, each with
    /// [`JobError::DependencyFailed`] naming `root` and `err`.
    fn orphan_descendants(&self, root: usize, err: &JobError, children: Vec<usize>) {
        let err = JobError::DependencyFailed(format!("upstream node {root} failed: {err}"));
        let mut queue: VecDeque<usize> = children.into();
        while let Some(c) = queue.pop_front() {
            if let Some(grandchildren) = self.orphan(c, NodePhase::Pending, err.clone()) {
                queue.extend(grandchildren);
            }
        }
    }

    /// Shutdown sweep entry: every coordinator-held node dies with
    /// [`JobError::ShutDown`] (its descendants with the dependency
    /// error), exactly once each via the phase guards.
    fn orphan_all_pending(&self) {
        let nodes = self.nodes.lock().unwrap().len();
        for idx in 0..nodes {
            self.orphan_subtree(idx, NodePhase::Pending, JobError::ShutDown);
        }
    }
}

/// Handle to a submitted workflow: one [`JobTicket`] per node (spec
/// order) plus whole-graph completion views. Holding it keeps the
/// workflow runtime alive; dropping it is safe — in-flight nodes finish
/// (their completion hooks hold the runtime), and unreleased nodes are
/// orphaned by the engine's shutdown sweep.
pub struct WorkflowTicket {
    id: u64,
    tickets: Vec<JobTicket>,
    runtime: Arc<WorkflowRuntime>,
}

impl WorkflowTicket {
    /// The coordinator-assigned workflow id (appears on `dag-wait` and
    /// `dag-orphan` trace events).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of nodes in the workflow.
    pub fn len(&self) -> usize {
        self.tickets.len()
    }

    /// Always false — an empty spec is rejected at submission.
    pub fn is_empty(&self) -> bool {
        self.tickets.is_empty()
    }

    /// The ticket for one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for this workflow.
    pub fn node(&self, node: NodeId) -> &JobTicket {
        &self.tickets[node.0]
    }

    /// All node tickets, in spec order.
    pub fn tickets(&self) -> &[JobTicket] {
        &self.tickets
    }

    /// Blocks until every node settles; results in spec order.
    pub fn wait_all(&self) -> Vec<Result<Arc<JobOutcome>, JobError>> {
        self.tickets.iter().map(JobTicket::wait).collect()
    }

    /// Whole-graph completion as a future (results in spec order);
    /// drive it with [`crate::exec::block_on`] or any executor.
    pub fn future(&self) -> JoinAll<TicketFuture> {
        exec::join_all(self.tickets.iter().map(JobTicket::future))
    }

    /// True once every node has settled.
    pub fn is_done(&self) -> bool {
        self.tickets.iter().all(JobTicket::is_done)
    }
}

impl fmt::Debug for WorkflowTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let _ = &self.runtime;
        f.debug_struct("WorkflowTicket")
            .field("id", &self.id)
            .field("nodes", &self.tickets.len())
            .field("done", &self.is_done())
            .finish()
    }
}

/// Validates `spec`, builds the workflow runtime, and releases its
/// roots. The single submission entry point behind both
/// [`crate::DftService::submit_workflow`] and
/// [`crate::FederatedService::submit_workflow`].
pub(crate) fn submit(
    backend: Backend,
    spec: WorkflowSpec,
) -> Result<WorkflowTicket, WorkflowError> {
    spec.validate()?;
    let n = spec.nodes.len();
    let (mut children, indegree) = dedup_adjacency(n, &spec.edges);
    let id = backend.registry().next_id();
    backend.ledger().workflow();
    let submitted_at = Instant::now();
    let nodes: Vec<NodeState> = spec
        .nodes
        .into_iter()
        .enumerate()
        .map(|(i, request)| NodeState {
            class: request.job.workload_class(),
            ticket: JobTicket::pending(request.job.fingerprint(), TraceId::DETACHED),
            children: std::mem::take(&mut children[i]),
            remaining_parents: indegree[i],
            phase: NodePhase::Pending,
            submitted_at,
            request: Some(request),
        })
        .collect();
    let tickets: Vec<JobTicket> = nodes.iter().map(|n| n.ticket.clone()).collect();
    let runtime = Arc::new(WorkflowRuntime {
        id,
        backend,
        nodes: Mutex::new(nodes),
    });
    // A cancel before release must settle the node and orphan its
    // descendants — nothing else watches an unreleased node's ticket.
    // Weak: the hook must not keep a finished workflow alive.
    for (i, ticket) in tickets.iter().enumerate() {
        let weak = Arc::downgrade(&runtime);
        ticket.set_cancel_hook(Box::new(move || {
            if let Some(runtime) = weak.upgrade() {
                runtime.orphan_subtree(i, NodePhase::Pending, JobError::Cancelled);
            }
        }));
    }
    runtime.backend.registry().register(&runtime);
    let roots: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    for root in roots {
        runtime.release(root);
    }
    Ok(WorkflowTicket {
        id,
        tickets,
        runtime,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::DftJob;
    use crate::service::{DftService, ServeConfig};

    fn md(steps: usize) -> DftJob {
        DftJob::MdSegment {
            atoms: 8,
            steps,
            temperature_k: 300.0,
            seed: 7,
        }
    }

    fn spec_of(jobs: &[DftJob], edges: &[(usize, usize)]) -> WorkflowSpec {
        let mut spec = WorkflowSpec::new();
        let ids: Vec<NodeId> = jobs.iter().map(|j| spec.add_node(j.clone())).collect();
        for &(p, c) in edges {
            spec.add_edge(ids[p], ids[c]);
        }
        spec
    }

    fn small_engine() -> DftService {
        DftService::start(ServeConfig {
            workers: 1,
            shards: 1,
            ..ServeConfig::default()
        })
    }

    #[test]
    fn empty_spec_is_rejected() {
        assert_eq!(WorkflowSpec::new().validate(), Err(WorkflowError::Empty));
    }

    #[test]
    fn self_edge_is_rejected() {
        let mut spec = WorkflowSpec::new();
        let a = spec.add_node(md(2));
        spec.add_edge(a, a);
        assert_eq!(spec.validate(), Err(WorkflowError::SelfEdge { node: 0 }));
    }

    #[test]
    fn dangling_edge_is_rejected() {
        let mut spec = WorkflowSpec::new();
        let a = spec.add_node(md(2));
        spec.add_edge(a, NodeId(5));
        assert_eq!(
            spec.validate(),
            Err(WorkflowError::UnknownNode { node: 5, nodes: 1 })
        );
    }

    #[test]
    fn cycle_is_rejected() {
        let spec = spec_of(&[md(2), md(3), md(4)], &[(0, 1), (1, 2), (2, 0)]);
        assert!(matches!(spec.validate(), Err(WorkflowError::Cycle { .. })));
    }

    #[test]
    fn invalid_member_job_is_rejected() {
        let spec = spec_of(
            &[DftJob::MdSegment {
                atoms: 0,
                steps: 2,
                temperature_k: 300.0,
                seed: 7,
            }],
            &[],
        );
        assert!(matches!(
            spec.validate(),
            Err(WorkflowError::InvalidJob { node: 0, .. })
        ));
    }

    #[test]
    fn topological_order_respects_edges_and_dedup() {
        let spec = spec_of(
            &[md(2), md(3), md(4), md(5)],
            // Diamond with a duplicate edge thrown in.
            &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 1)],
        );
        let order = spec.topological_order().unwrap();
        let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(0) < pos(2));
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(3));
    }

    #[test]
    fn rejected_spec_creates_no_tickets_and_no_engine_state() {
        let svc = small_engine();
        let spec = spec_of(&[md(2), md(3)], &[(0, 1), (1, 0)]);
        assert!(svc.submit_workflow(spec).is_err());
        let report = svc.shutdown();
        assert_eq!(report.submitted, 0);
        assert_eq!(report.workflows, 0);
        assert_eq!(report.orphaned, 0);
        assert!(report.conservation_holds());
    }

    #[test]
    fn diamond_workflow_completes_parents_before_children() {
        let svc = small_engine();
        let spec = spec_of(
            &[md(2), md(3), md(4), md(5)],
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
        );
        let wf = svc.submit_workflow(spec).unwrap();
        let results = wf.wait_all();
        assert!(results.iter().all(Result::is_ok));
        assert!(wf.is_done());
        let report = svc.shutdown();
        assert_eq!(report.workflows, 1);
        assert_eq!(report.workflow_released, 4);
        assert_eq!(report.orphaned, 0);
        assert!(report.conservation_holds());
    }

    #[test]
    fn admission_rejected_root_orphans_descendants_exactly_once() {
        let svc = small_engine();
        let mut spec = WorkflowSpec::new();
        // A root whose deadline is already blown: admission control
        // rejects the release, which must orphan the whole chain.
        let root = spec.add_node(JobRequest::new(md(40)).deadline(std::time::Duration::ZERO));
        let mid = spec.add_node(md(3));
        let leaf = spec.add_node(md(4));
        spec.add_edge(root, mid);
        spec.add_edge(mid, leaf);
        let wf = svc.submit_workflow(spec).unwrap();
        let results = wf.wait_all();
        assert_eq!(results[0], Err(JobError::DeadlineExceeded));
        assert!(matches!(results[1], Err(JobError::DependencyFailed(_))));
        assert!(matches!(results[2], Err(JobError::DependencyFailed(_))));
        let report = svc.shutdown();
        assert_eq!(report.orphaned, 3);
        assert!(report.conservation_holds());
    }

    #[test]
    fn shutdown_sweeps_unreleased_nodes_exactly_once() {
        let svc = small_engine();
        let mut spec = WorkflowSpec::new();
        let slow = spec.add_node(md(60));
        let child = spec.add_node(md(3));
        spec.add_edge(slow, child);
        let wf = svc.submit_workflow(spec).unwrap();
        // Shut down immediately: the root either completes in the
        // drain or is swept; the child must settle exactly once either
        // way, and the extended invariant must close the books.
        let report = svc.shutdown();
        assert!(wf.is_done());
        assert!(report.conservation_holds());
    }

    #[test]
    fn cancelling_a_pending_node_orphans_it_and_its_descendants() {
        let svc = small_engine();
        // Wedge the single worker behind a long blocker so the root is
        // still queued — and `mid` therefore provably unreleased — when
        // the cancel lands (a fast root could otherwise complete and
        // release `mid` first, turning the orphan into a plain cancel).
        let blocker = svc.submit_blocking(md(200_000)).unwrap();
        let mut spec = WorkflowSpec::new();
        let root = spec.add_node(md(30));
        let mid = spec.add_node(md(3));
        let leaf = spec.add_node(md(4));
        spec.add_edge(root, mid);
        spec.add_edge(mid, leaf);
        let wf = svc.submit_workflow(spec).unwrap();
        // `mid` has not released (its parent has not run): the cancel
        // settles it and orphans `leaf`.
        assert!(wf.node(mid).cancel());
        assert_eq!(wf.node(mid).wait(), Err(JobError::Cancelled));
        assert!(matches!(
            wf.node(leaf).wait(),
            Err(JobError::DependencyFailed(_))
        ));
        assert!(wf.node(root).wait().is_ok());
        assert!(blocker.wait().is_ok());
        let report = svc.shutdown();
        assert_eq!(report.orphaned, 2);
        assert!(report.conservation_holds());
    }

    #[test]
    fn parent_outcome_warm_seeds_compatible_child() {
        let svc = small_engine();
        let mut spec = WorkflowSpec::new();
        let gs = spec.add_node(DftJob::GroundState {
            atoms: 8,
            bands: 4,
            max_iterations: 6,
        });
        let scf = spec.add_node(DftJob::ScfSelfConsistent {
            atoms: 8,
            bands: 4,
            max_iterations: 6,
            occupied: 2,
            cycles: 2,
            alpha: 0.4,
        });
        spec.add_edge(gs, scf);
        let wf = svc.submit_workflow(spec).unwrap();
        assert!(wf.wait_all().iter().all(Result::is_ok));
        let report = svc.shutdown();
        assert_eq!(report.warm_injected, 1);
        assert!(report.conservation_holds());
    }
}
