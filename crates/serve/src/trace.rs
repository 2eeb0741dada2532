//! Per-job trace spans and lifecycle progress: the one event ring.
//!
//! Every submission is assigned a [`TraceId`] at admission; workers
//! emit a [`TraceEvent`] at each lifecycle transition — enqueue, steal,
//! batch formation, planner consult, execution start, reservation hold,
//! numerics, cache store/hit, ticket fulfill — into one bounded ring.
//! Each transition is published exactly once.
//!
//! The ring keeps one queue per handle kind, filled by the same publish
//! under the same lock:
//!
//! * [`TraceCollector`] handles receive every event. Collectors poll
//!   ([`TraceCollector::drain`]): traces are consumed after a run (or
//!   periodically by an exporter), not awaited event by event.
//! * [`ProgressStream`] handles receive only the lifecycle kinds,
//!   projected by [`JobStage::of`] into [`ProgressEvent`]s: `Queued` →
//!   `Running` → `Done` (a cancelled job reads `Queued` → `Cancelled`
//!   → `Done`; a cache hit at submission is a lone `Done`). Streams can
//!   block ([`ProgressStream::next`]) until an event arrives or the
//!   engine shuts down.
//!
//! Clones of one handle kind share its queue and consume destructively:
//! an event drains to exactly one of them. A collector and a stream
//! attached together never take each other's events.
//!
//! Both queues follow one set of rules. Each holds at most
//! [`crate::ServeConfig::trace_capacity`] events; publishing into a full
//! queue evicts the oldest and counts it, so a slow consumer never
//! stalls a worker. Publication is **subscriber-gated**: with no handle
//! of either kind attached the publish path is **one relaxed atomic
//! load** and the event is never constructed (workers check
//! [`crate::telemetry::Telemetry::traced`] before assembling one), so
//! unwatched engines pay nothing for the machinery. When the last
//! handle of a kind detaches, its undelivered events are discarded and
//! counted as dropped, so every subscription window starts clean:
//! attach before submitting to observe full lifecycles. Stage
//! *histograms* ([`crate::telemetry`]) are always on; only the
//! per-event timeline is gated.
//!
//! # Timestamps and the Chrome export
//!
//! Event timestamps are nanoseconds since the engine's telemetry
//! epoch, assigned from a single monotonic clock, so events from
//! different workers order consistently. [`chrome_trace_json`] renders
//! a batch of events in the Chrome trace-event format: open
//! `chrome://tracing` (or <https://ui.perfetto.dev>) and load the file
//! to see one lane per job (`tid` = trace id), with spans for
//! queue-wait, planning, reservation hold, numerics, and fulfillment,
//! and instants for execution start, cache hits and stores.

use crate::batch::BatchOrigin;
use crate::cache::HitTier;
use crate::fingerprint::Fingerprint;
use crate::job::WorkloadClass;
use crate::telemetry::{PlacementTarget, Telemetry};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Identity of one submission's trace, unique per engine instance
/// (allocated from a counter at admission; `0` marks spans created
/// outside an engine, e.g. [`crate::JobTicket::promise`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The id carried by tickets never admitted to an engine.
    pub const DETACHED: TraceId = TraceId(0);
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// What lifecycle transition a [`TraceEvent`] marks. Span kinds carry a
/// duration; instant kinds have `dur_ns == 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEventKind {
    /// Admission accepted the job onto a queue shard (instant).
    Enqueue {
        /// The shard the submission routed to.
        shard: usize,
    },
    /// The job travelled in a run stolen from a victim shard (instant,
    /// emitted per stolen job at dequeue).
    Steal {
        /// The shard the run was taken from.
        from_shard: usize,
    },
    /// The job's dequeued chunk was grouped into a class batch
    /// (instant, one per member).
    BatchForm {
        /// Members in the batch.
        size: usize,
        /// Home drain or steal.
        origin: BatchOrigin,
    },
    /// Planner consultation + modeled engine run (span; emitted for
    /// the batch member that triggered planning — riders share the
    /// resulting decision without a consult of their own).
    PlannerConsult,
    /// A batch member began its numerics under the batch's placement
    /// (instant; one per executed member, riders included).
    ExecStart {
        /// Where the plan put the work.
        target: PlacementTarget,
    },
    /// The batch's reservation on the shared cluster view, from grant
    /// to release (span, emitted at release on the leader's lane).
    ReservationHold,
    /// The numeric kernels (span; `dur` = the outcome's wall-clock).
    Numerics {
        /// Where the plan put the work.
        target: PlacementTarget,
    },
    /// The outcome was stored into the result cache (instant).
    CacheStore,
    /// The job was served without executing (instant).
    CacheHit {
        /// Which lookup tier produced the result.
        tier: HitTier,
    },
    /// The submitter's ticket is about to resolve (span: outcome-ready
    /// → just before the fulfill call). Every trace ends with exactly
    /// one of these, on every path — executed, cache-served, rejected,
    /// failed, cancelled, panic, drop-guard — and every path publishes
    /// it *before* resolving the ticket, so a waiter that wakes finds
    /// its lane (and its progress lifecycle) already complete.
    TicketFulfill {
        /// Whether the job succeeded.
        ok: bool,
        /// Whether the result came from a cache/dedup hit.
        cached: bool,
    },
    /// The job waited in its queue shard (span: enqueue → its batch
    /// started processing).
    QueueWait,
    /// A dispatcher consumed the job's cancellation tombstone instead of
    /// executing it (instant; the lane still ends with a `TicketFulfill`).
    Cancelled,
    /// The job's wall-clock deadline had passed by the time a worker
    /// dequeued it, so it was dropped unexecuted (instant; the lane
    /// still ends with a `TicketFulfill`).
    DeadlineDrop,
    /// A same-class batch ran through the fused execution path: one
    /// shared-operand setup served every member's kernels (span,
    /// emitted once per fused batch on the leader's lane, covering the
    /// whole member loop).
    FusedExec {
        /// Jobs that executed through the shared operand.
        members: usize,
    },
    /// A workflow node's dependency wait, from workflow submission to
    /// DAG release into the submit path (span, emitted at release on
    /// the released job's trace lane — the workflow id it carries is
    /// what stitches node lanes into one graph).
    DagWait {
        /// Engine-unique workflow id the node belongs to.
        workflow: u64,
        /// Node index inside its [`crate::WorkflowSpec`].
        node: usize,
    },
    /// A workflow node orphaned before release: a parent failed or the
    /// engine shut down first (instant; orphaned nodes never reach a
    /// queue, so this is the only event their ticket ever emits).
    DagOrphan {
        /// Engine-unique workflow id the node belongs to.
        workflow: u64,
        /// Node index inside its [`crate::WorkflowSpec`].
        node: usize,
    },
}

impl TraceEventKind {
    /// Short display name (the Chrome trace `name` field).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::Enqueue { .. } => "enqueue",
            TraceEventKind::Steal { .. } => "steal",
            TraceEventKind::BatchForm { .. } => "batch-form",
            TraceEventKind::PlannerConsult => "plan",
            TraceEventKind::ExecStart { .. } => "exec-start",
            TraceEventKind::ReservationHold => "reserve",
            TraceEventKind::Numerics { .. } => "numerics",
            TraceEventKind::CacheStore => "cache-store",
            TraceEventKind::CacheHit { .. } => "cache-hit",
            TraceEventKind::TicketFulfill { .. } => "fulfill",
            TraceEventKind::QueueWait => "queue-wait",
            TraceEventKind::Cancelled => "cancelled",
            TraceEventKind::DeadlineDrop => "deadline-drop",
            TraceEventKind::FusedExec { .. } => "fused-exec",
            TraceEventKind::DagWait { .. } => "dag-wait",
            TraceEventKind::DagOrphan { .. } => "dag-orphan",
        }
    }

    /// True for kinds that mark a point in time rather than a span.
    pub fn is_instant(&self) -> bool {
        matches!(
            self,
            TraceEventKind::Enqueue { .. }
                | TraceEventKind::Steal { .. }
                | TraceEventKind::BatchForm { .. }
                | TraceEventKind::ExecStart { .. }
                | TraceEventKind::CacheStore
                | TraceEventKind::CacheHit { .. }
                | TraceEventKind::Cancelled
                | TraceEventKind::DeadlineDrop
                | TraceEventKind::DagOrphan { .. }
        )
    }
}

/// One timestamped lifecycle event of one traced job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Ring-assigned publication sequence number (gapless per ring,
    /// ties broken by publication order under the ring lock).
    pub seq: u64,
    /// The job's trace.
    pub trace: TraceId,
    /// The job's content fingerprint.
    pub fingerprint: Fingerprint,
    /// The job's workload class.
    pub class: WorkloadClass,
    /// Worker index that emitted the event (`None` for admission-path
    /// events emitted by the submitting thread).
    pub worker: Option<usize>,
    /// Start of the span (or the instant), nanoseconds since the
    /// engine's telemetry epoch.
    pub start_ns: u64,
    /// Span length in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Which transition this is.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// End of the span (== `start_ns` for instants).
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// One job's position in its lifecycle: the [`ProgressStream`] view of
/// the lifecycle kinds of [`TraceEventKind`] (see [`JobStage::of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStage {
    /// Accepted by [`crate::DftService::submit`] and parked on a queue
    /// shard.
    Queued {
        /// The shard the class-keyed routing chose.
        shard: usize,
    },
    /// A worker began the job's numerics under its batch's placement
    /// (the full decision is on [`crate::JobOutcome::placement`]).
    Running {
        /// Where the plan put the work.
        target: PlacementTarget,
    },
    /// The job was cancelled while queued; a dispatcher consumed its
    /// tombstone instead of executing it. A failed `Done` follows.
    Cancelled,
    /// The job's ticket resolved: the last stage of every lifecycle.
    Done {
        /// Whether the job produced a result (vs. an error/panic/shutdown).
        ok: bool,
        /// Whether the result came from the cache or in-batch dedup
        /// rather than a fresh execution.
        cached: bool,
    },
}

impl JobStage {
    /// The stage a trace event marks, or `None` for the span and marker
    /// kinds a progress stream filters out.
    pub fn of(kind: &TraceEventKind) -> Option<JobStage> {
        match *kind {
            TraceEventKind::Enqueue { shard } => Some(JobStage::Queued { shard }),
            TraceEventKind::ExecStart { target } => Some(JobStage::Running { target }),
            TraceEventKind::Cancelled => Some(JobStage::Cancelled),
            TraceEventKind::TicketFulfill { ok, cached } => Some(JobStage::Done { ok, cached }),
            _ => None,
        }
    }

    /// Short label for logs and tables.
    pub fn label(&self) -> &'static str {
        match self {
            JobStage::Queued { .. } => "queued",
            JobStage::Running { .. } => "running",
            JobStage::Cancelled => "cancelled",
            JobStage::Done { .. } => "done",
        }
    }
}

/// One lifecycle transition, as a [`ProgressStream`] delivers it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressEvent {
    /// The ring's sequence number of the underlying [`TraceEvent`].
    /// Monotone within a stream; gaps mark the non-lifecycle events in
    /// between, not drops ([`ProgressStream::dropped`] counts those).
    pub seq: u64,
    /// The job the transition belongs to (its cache key / identity).
    pub fingerprint: Fingerprint,
    /// The transition itself.
    pub stage: JobStage,
}

impl ProgressEvent {
    fn of(event: TraceEvent) -> ProgressEvent {
        ProgressEvent {
            seq: event.seq,
            fingerprint: event.fingerprint,
            stage: JobStage::of(&event.kind).expect("stream queues hold lifecycle kinds only"),
        }
    }
}

/// Which handle kind a ring queue serves.
#[derive(Debug, Clone, Copy)]
pub(crate) enum HandleKind {
    /// [`TraceCollector`]: every event.
    Collector,
    /// [`ProgressStream`]: the lifecycle kinds only.
    Stream,
}

/// One handle kind's bounded, drop-oldest queue.
#[derive(Default)]
struct Queue {
    events: VecDeque<TraceEvent>,
    /// Attached handles of this kind; the queue only fills while > 0.
    handles: usize,
    /// Events accepted over the engine's lifetime.
    recorded: u64,
    /// Events evicted from the full queue or discarded at last detach.
    dropped: u64,
}

impl Queue {
    /// Appends `event` if a handle is attached, evicting (and counting)
    /// the oldest when full. Returns whether the event was accepted.
    fn push(&mut self, event: TraceEvent, capacity: usize) -> bool {
        if self.handles == 0 {
            return false;
        }
        if self.events.len() >= capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
        self.recorded += 1;
        true
    }

    /// Attaches one handle. The first one pre-faults `prefault` slots
    /// of backing store, so steady-state publishes never pay a realloc
    /// copy or a scattered fresh-page fault mid-serve. Resize-then-clear
    /// touches every slot once, sequentially, and keeps the capacity.
    fn attach(&mut self, prefault: usize) {
        self.handles += 1;
        if self.handles == 1 && self.events.capacity() < prefault {
            const FILLER: TraceEvent = TraceEvent {
                seq: 0,
                trace: TraceId::DETACHED,
                fingerprint: Fingerprint(0),
                class: WorkloadClass {
                    kind: crate::job::JobKind::MdSegment,
                    atoms: 0,
                    iterations: 0,
                },
                worker: None,
                start_ns: 0,
                dur_ns: 0,
                kind: TraceEventKind::CacheStore,
            };
            self.events.resize(prefault, FILLER);
            self.events.clear();
        }
    }

    fn detach(&mut self) {
        self.handles -= 1;
        if self.handles == 0 {
            // Nobody can ever read the buffered events: free them and
            // count them, keeping the drop counter honest.
            self.dropped += self.events.len() as u64;
            self.events.clear();
            self.events.shrink_to_fit();
        }
    }
}

const POISONED: &str = "event ring lock poisoned";

#[derive(Default)]
struct RingState {
    collector: Queue,
    stream: Queue,
    next_seq: u64,
    /// Set at engine shutdown: blocked streams end once drained.
    closed: bool,
}

impl RingState {
    fn queue(&mut self, kind: HandleKind) -> &mut Queue {
        match kind {
            HandleKind::Collector => &mut self.collector,
            HandleKind::Stream => &mut self.stream,
        }
    }
}

/// The bounded event ring every worker publishes into, with one queue
/// per handle kind (see the [module docs](self)).
pub(crate) struct TraceRing {
    state: Mutex<RingState>,
    /// Wakes streams blocked in [`ProgressStream::next`].
    not_empty: Condvar,
    capacity: usize,
    /// Attached handles of either kind; publish is a no-op at zero.
    /// Relaxed load on the fast path; the per-queue counts under the
    /// lock decide.
    attached: AtomicUsize,
}

impl TraceRing {
    pub(crate) fn new(capacity: usize) -> Self {
        TraceRing {
            state: Mutex::new(RingState::default()),
            not_empty: Condvar::new(),
            capacity,
            attached: AtomicUsize::new(0),
        }
    }

    /// The ring lock. Nothing panics while holding it (queue pushes and
    /// pops only), so a poisoned lock means a bug elsewhere.
    fn lock(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().expect(POISONED)
    }

    /// The one-relaxed-load gate unwatched engines pay.
    #[inline]
    pub(crate) fn has_subscribers(&self) -> bool {
        self.attached.load(Ordering::Relaxed) > 0
    }

    /// Publishes a run of events under ONE lock acquisition. The hot
    /// paths emit several events per job; batching them keeps the
    /// traced engine's lock traffic per job constant instead of per
    /// event, and the slice shape (events are `Copy`) lets the cached
    /// submit path publish its two-event chain from the stack with no
    /// allocation. Sequence numbers are assigned in slice order under
    /// the lock, so ring order and `seq` order agree. Never blocks on a
    /// full queue: the oldest event is evicted and counted.
    pub(crate) fn publish_slice(&self, events: &[TraceEvent]) {
        if events.is_empty() || !self.has_subscribers() {
            return;
        }
        let mut guard = self.lock();
        let st = &mut *guard;
        let mut woke = false;
        for &(mut event) in events {
            event.seq = st.next_seq;
            st.next_seq += 1;
            st.collector.push(event, self.capacity);
            if JobStage::of(&event.kind).is_some() {
                woke |= st.stream.push(event, self.capacity);
            }
        }
        drop(guard);
        if woke {
            self.not_empty.notify_all();
        }
    }

    /// Marks the engine shut down: buffered events still drain, then
    /// blocked streams observe the end of the stream (`None`).
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
    }

    /// Events accepted into the collector queue over the engine's life.
    pub(crate) fn recorded(&self) -> u64 {
        self.queue(HandleKind::Collector, |q| q.recorded)
    }

    /// Events `kind`'s queue evicted or discarded unread.
    pub(crate) fn dropped(&self, kind: HandleKind) -> u64 {
        self.queue(kind, |q| q.dropped)
    }

    /// Runs `f` on `kind`'s queue under the ring lock.
    fn queue<R>(&self, kind: HandleKind, f: impl FnOnce(&mut Queue) -> R) -> R {
        f(self.lock().queue(kind))
    }

    fn attach(&self, kind: HandleKind) {
        // Only the collector queue is pre-faulted: it takes every event
        // and is typically drained after a run, so it fills. A stream
        // takes a few lifecycle events per job and is usually consumed
        // live, so its queue grows on demand up to the capacity.
        let prefault = match kind {
            HandleKind::Collector => self.capacity,
            HandleKind::Stream => 0,
        };
        let mut st = self.lock();
        st.queue(kind).attach(prefault);
        self.attached.fetch_add(1, Ordering::Relaxed);
    }

    fn detach(&self, kind: HandleKind) {
        let mut st = self.lock();
        st.queue(kind).detach();
        self.attached.fetch_sub(1, Ordering::Relaxed);
    }

    /// Pops the stream queue's oldest event, blocking until one arrives,
    /// the ring closes, or `deadline` passes (spurious wakeups do not
    /// extend it).
    fn next_stream_event(&self, deadline: Option<Instant>) -> Option<TraceEvent> {
        let mut st = self.lock();
        loop {
            if let Some(event) = st.stream.events.pop_front() {
                return Some(event);
            }
            if st.closed {
                return None;
            }
            st = match deadline {
                None => self.not_empty.wait(st).expect(POISONED),
                Some(deadline) => {
                    let remaining = deadline.checked_duration_since(Instant::now())?;
                    self.not_empty
                        .wait_timeout(st, remaining)
                        .expect(POISONED)
                        .0
                }
            };
        }
    }
}

/// One attached handle of a kind: attaches on creation and on clone,
/// detaches on drop.
struct Subscription {
    telemetry: Arc<Telemetry>,
    kind: HandleKind,
}

impl Subscription {
    fn new(telemetry: Arc<Telemetry>, kind: HandleKind) -> Self {
        telemetry.ring().attach(kind);
        Subscription { telemetry, kind }
    }

    fn ring(&self) -> &TraceRing {
        self.telemetry.ring()
    }

    fn drain(&self) -> Vec<TraceEvent> {
        self.ring()
            .queue(self.kind, |q| q.events.drain(..).collect())
    }

    fn len(&self) -> usize {
        self.ring().queue(self.kind, |q| q.events.len())
    }

    fn dropped(&self) -> u64 {
        self.ring().dropped(self.kind)
    }
}

impl Clone for Subscription {
    fn clone(&self) -> Self {
        Subscription::new(Arc::clone(&self.telemetry), self.kind)
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.ring().detach(self.kind);
    }
}

/// A subscription to every event of the engine's ring
/// ([`crate::DftService::trace`]).
///
/// While at least one collector is alive, workers publish span events
/// into the collector queue; when the last one drops, its buffered
/// events are discarded (counted as dropped). Collectors share the
/// queue destructively: an event drains to exactly one of them.
#[derive(Clone)]
pub struct TraceCollector {
    sub: Subscription,
}

impl TraceCollector {
    pub(crate) fn new(telemetry: Arc<Telemetry>) -> Self {
        TraceCollector {
            sub: Subscription::new(telemetry, HandleKind::Collector),
        }
    }

    /// Takes every buffered event, oldest first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.sub.drain()
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.sub.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted unread over the engine's lifetime.
    pub fn dropped(&self) -> u64 {
        self.sub.dropped()
    }

    /// Events accepted into the collector queue over the engine's
    /// lifetime.
    pub fn recorded(&self) -> u64 {
        self.sub.ring().recorded()
    }
}

/// A live lifecycle view of the engine's ring
/// ([`crate::DftService::progress`]).
///
/// Receives only the lifecycle kinds, projected by [`JobStage::of`].
/// Clones share one queue and consume destructively (see the
/// [module docs](self)). The engine only publishes while a handle is
/// alive: subscribe *before* submitting to observe full lifecycles.
#[derive(Clone)]
pub struct ProgressStream {
    sub: Subscription,
}

impl ProgressStream {
    pub(crate) fn new(telemetry: Arc<Telemetry>) -> Self {
        ProgressStream {
            sub: Subscription::new(telemetry, HandleKind::Stream),
        }
    }

    /// Next event without blocking; `None` when nothing is buffered
    /// (the engine may still be running).
    pub fn try_next(&self) -> Option<ProgressEvent> {
        let ring = self.sub.ring();
        ring.queue(HandleKind::Stream, |q| q.events.pop_front())
            .map(ProgressEvent::of)
    }

    /// Blocks for the next event; `None` only once the engine has shut
    /// down **and** the queue is drained (end of stream).
    pub fn next(&self) -> Option<ProgressEvent> {
        self.sub
            .ring()
            .next_stream_event(None)
            .map(ProgressEvent::of)
    }

    /// [`ProgressStream::next`] with a fixed deadline `timeout` from
    /// now; `None` on timeout or end of stream.
    pub fn next_timeout(&self, timeout: Duration) -> Option<ProgressEvent> {
        let deadline = Instant::now() + timeout;
        self.sub
            .ring()
            .next_stream_event(Some(deadline))
            .map(ProgressEvent::of)
    }

    /// Takes everything currently buffered, without blocking.
    pub fn drain(&self) -> Vec<ProgressEvent> {
        self.sub
            .drain()
            .into_iter()
            .map(ProgressEvent::of)
            .collect()
    }

    /// Events currently buffered (undelivered).
    pub fn len(&self) -> usize {
        self.sub.len()
    }

    /// True when nothing is currently buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted or discarded unread over the engine's lifetime
    /// (the counter [`crate::ServeReport::progress_events_dropped`]
    /// reports).
    pub fn dropped(&self) -> u64 {
        self.sub.dropped()
    }
}

impl fmt::Debug for ProgressStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgressStream")
            .field("buffered", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Renders events in the Chrome trace-event JSON format (the "JSON
/// array" flavour): spans become `"ph": "X"` complete events, instants
/// become `"ph": "i"`, timestamps are microseconds, and each job's
/// trace id is its `tid` so the viewer draws one lane per job. Load
/// the output in `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 160 + 2);
    out.push_str("[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        render_event(&mut out, e);
    }
    out.push_str("\n]\n");
    out
}

/// Renders one event as a Chrome trace-event JSON object.
fn render_event(out: &mut String, e: &TraceEvent) {
    let ts_us = e.start_ns as f64 / 1000.0;
    {
        let mut args = format!(
            "\"class\": \"{}\", \"fingerprint\": \"{}\", \"seq\": {}",
            e.class, e.fingerprint, e.seq
        );
        if let Some(w) = e.worker {
            args.push_str(&format!(", \"worker\": {w}"));
        }
        match e.kind {
            TraceEventKind::Enqueue { shard } => args.push_str(&format!(", \"shard\": {shard}")),
            TraceEventKind::Steal { from_shard } => {
                args.push_str(&format!(", \"from_shard\": {from_shard}"));
            }
            TraceEventKind::BatchForm { size, origin } => args.push_str(&format!(
                ", \"size\": {size}, \"origin\": \"{}\"",
                match origin {
                    BatchOrigin::Home => "home",
                    BatchOrigin::Stolen => "stolen",
                }
            )),
            TraceEventKind::Numerics { target } | TraceEventKind::ExecStart { target } => {
                args.push_str(&format!(", \"target\": \"{target}\""));
            }
            TraceEventKind::CacheHit { tier } => {
                args.push_str(&format!(", \"tier\": \"{}\"", tier.label()));
            }
            TraceEventKind::TicketFulfill { ok, cached } => {
                args.push_str(&format!(", \"ok\": {ok}, \"cached\": {cached}"));
            }
            TraceEventKind::DagWait { workflow, node }
            | TraceEventKind::DagOrphan { workflow, node } => {
                args.push_str(&format!(", \"workflow\": {workflow}, \"node\": {node}"));
            }
            TraceEventKind::FusedExec { members } => {
                args.push_str(&format!(", \"members\": {members}"));
            }
            TraceEventKind::PlannerConsult
            | TraceEventKind::ReservationHold
            | TraceEventKind::CacheStore
            | TraceEventKind::QueueWait
            | TraceEventKind::Cancelled
            | TraceEventKind::DeadlineDrop => {}
        }
        if e.kind.is_instant() {
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \
                 \"ts\": {ts_us:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{{args}}}}}",
                e.kind.name(),
                e.class,
                e.trace.0,
            ));
        } else {
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {ts_us:.3}, \
                 \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{{args}}}}}",
                e.kind.name(),
                e.class,
                e.dur_ns as f64 / 1000.0,
                e.trace.0,
            ));
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::job::JobKind;

    pub(crate) fn event(trace: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            seq: 0,
            trace: TraceId(trace),
            fingerprint: Fingerprint(0xabcd),
            class: WorkloadClass {
                kind: JobKind::MdSegment,
                atoms: 64,
                iterations: 10,
            },
            worker: Some(1),
            start_ns: 1_000,
            dur_ns: 500,
            kind,
        }
    }

    /// A lifecycle event, so both queues accept it.
    pub(crate) fn queued(trace: u64) -> TraceEvent {
        event(trace, TraceEventKind::Enqueue { shard: 0 })
    }

    // The collector side of the ring's rules; `progress::tests` pins
    // the same rules for streams.

    #[test]
    fn unwatched_ring_drops_everything_for_one_load() {
        let t = Arc::new(Telemetry::new(8));
        assert!(!t.traced());
        t.publish(event(1, TraceEventKind::PlannerConsult));
        assert_eq!(t.ring().recorded(), 0, "no subscriber ⇒ no buffering");
        // A stream alone opens the gate, but only its queue takes events.
        let stream = ProgressStream::new(Arc::clone(&t));
        assert!(t.traced());
        t.publish_slice(&[queued(2), event(2, TraceEventKind::CacheStore)]);
        assert_eq!(stream.len(), 1);
        let buffered = t.ring().queue(HandleKind::Collector, |q| q.events.len());
        assert_eq!(buffered, 0);
        assert_eq!(
            t.ring().recorded(),
            0,
            "stream-only events are not recorded"
        );
    }

    #[test]
    fn collector_receives_in_order_with_seq() {
        let t = Arc::new(Telemetry::new(8));
        let c = TraceCollector::new(Arc::clone(&t));
        assert!(t.traced());
        t.publish(event(1, TraceEventKind::PlannerConsult));
        t.publish_slice(&[event(2, TraceEventKind::CacheStore), queued(3)]);
        let got = c.drain();
        let seqs: Vec<u64> = got.iter().map(|e| e.seq).collect();
        let traces: Vec<u64> = got.iter().map(|e| e.trace.0).collect();
        assert_eq!(seqs, [0, 1, 2]);
        assert_eq!(traces, [1, 2, 3]);
        assert_eq!(c.recorded(), 3);
        assert!(c.is_empty());
    }

    #[test]
    fn full_ring_evicts_oldest_and_counts() {
        let t = Arc::new(Telemetry::new(2));
        let c = TraceCollector::new(Arc::clone(&t));
        for i in 0..5 {
            t.publish(event(i, TraceEventKind::CacheStore));
        }
        assert_eq!(c.dropped(), 3);
        assert_eq!(c.recorded(), 5);
        let got = c.drain();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].trace, TraceId(3), "oldest evicted first");
        assert_eq!(got[0].seq, 3);
    }

    #[test]
    fn last_collector_detaching_clears_and_regates() {
        let t = Arc::new(Telemetry::new(8));
        let c = TraceCollector::new(Arc::clone(&t));
        let c2 = c.clone();
        t.publish(event(1, TraceEventKind::CacheStore));
        drop(c);
        assert!(t.traced(), "second collector keeps the gate open");
        drop(c2);
        assert!(!t.traced());
        let freed = t
            .ring()
            .queue(HandleKind::Collector, |q| q.events.capacity());
        assert_eq!(freed, 0, "buffer freed with the last collector");
        assert_eq!(t.trace_events_dropped(), 1, "undelivered counts dropped");
        t.publish(event(2, TraceEventKind::CacheStore));
        assert_eq!(t.ring().recorded(), 1, "publishing gated again");
        let late = TraceCollector::new(Arc::clone(&t));
        assert!(late.is_empty(), "a new window starts clean");
    }

    #[test]
    fn collector_and_stream_each_receive_their_full_set() {
        let t = Arc::new(Telemetry::new(16));
        let collector = TraceCollector::new(Arc::clone(&t));
        let stream = ProgressStream::new(Arc::clone(&t));
        let target = PlacementTarget::Ndp;
        let kinds = [
            TraceEventKind::Enqueue { shard: 1 },
            TraceEventKind::QueueWait,
            TraceEventKind::ExecStart { target },
            TraceEventKind::Numerics { target },
            TraceEventKind::CacheStore,
            TraceEventKind::TicketFulfill {
                ok: true,
                cached: false,
            },
        ];
        t.publish_slice(&kinds.map(|k| event(1, k)));
        let traced: Vec<TraceEventKind> = collector.drain().iter().map(|e| e.kind).collect();
        assert_eq!(traced, kinds, "the collector gets every event");
        assert_eq!(collector.recorded(), kinds.len() as u64);
        let progress = stream.drain();
        let stages: Vec<JobStage> = progress.iter().map(|e| e.stage).collect();
        assert_eq!(
            stages,
            [
                JobStage::Queued { shard: 1 },
                JobStage::Running { target },
                JobStage::Done {
                    ok: true,
                    cached: false
                },
            ],
            "the stream gets the lifecycle kinds"
        );
        let seqs: Vec<u64> = progress.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 2, 5], "progress seq is the ring's seq");
        assert_eq!(collector.dropped() + stream.dropped(), 0);
    }

    #[test]
    fn job_stage_projects_exactly_the_lifecycle_kinds() {
        use TraceEventKind as K;
        let target = PlacementTarget::Cpu;
        let (ok, cached) = (false, true);
        let lifecycle = [
            (K::Enqueue { shard: 2 }, JobStage::Queued { shard: 2 }),
            (K::ExecStart { target }, JobStage::Running { target }),
            (K::Cancelled, JobStage::Cancelled),
            (
                K::TicketFulfill { ok, cached },
                JobStage::Done { ok, cached },
            ),
        ];
        for (kind, stage) in lifecycle {
            assert_eq!(JobStage::of(&kind), Some(stage), "{kind:?}");
        }
        let (size, origin, tier) = (2, BatchOrigin::Home, HitTier::Memory);
        let (workflow, node) = (3, 1);
        let filtered = [
            K::Steal { from_shard: 0 },
            K::BatchForm { size, origin },
            K::PlannerConsult,
            K::ReservationHold,
            K::Numerics { target },
            K::CacheStore,
            K::CacheHit { tier },
            K::QueueWait,
            K::DeadlineDrop,
            K::FusedExec { members: 2 },
            K::DagWait { workflow, node },
            K::DagOrphan { workflow, node },
        ];
        for kind in filtered {
            assert_eq!(JobStage::of(&kind), None, "{kind:?}");
        }
    }

    #[test]
    fn chrome_export_renders_spans_and_instants() {
        let events = vec![
            event(7, TraceEventKind::QueueWait),
            TraceEvent {
                dur_ns: 0,
                kind: TraceEventKind::CacheHit {
                    tier: HitTier::Memory,
                },
                ..event(7, TraceEventKind::CacheStore)
            },
            event(
                7,
                TraceEventKind::TicketFulfill {
                    ok: true,
                    cached: false,
                },
            ),
        ];
        let json = chrome_trace_json(&events);
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"tid\": 7"));
        assert!(json.contains("\"tier\": \"memory\""));
        assert!(json.contains("\"ok\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
