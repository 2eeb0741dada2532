//! Per-stage latency telemetry: lock-free sharded histograms and the
//! consistent snapshot the export layer serves.
//!
//! The serve engine's [`crate::ServeReport`] carries raw counters only;
//! this module is the one place latency lives. Every job that flows
//! through the engine records nanosecond latencies into log-bucketed
//! histograms keyed by [`Stage`] × [`WorkloadClass`] (and, for the
//! execute stage, by [`PlacementTarget`]; end-to-end also by
//! [`Priority`]), so [`crate::DftService::telemetry`] can answer "what
//! is the p99 queue-wait of `md/Si_64x10` on the NDP path" at any
//! moment.
//!
//! # Histogram design
//!
//! [`LatencyHistogram`] is an HDR-style log-linear histogram over
//! nanosecond durations:
//!
//! * Values below 16 ns get one exact bucket each; above that, each
//!   power-of-two octave is split into 8 linear sub-buckets, so the
//!   **relative rank error is bounded by 1/8**: a reported quantile is
//!   never below the true order statistic and never more than 12.5%
//!   above it (`tests/serve_properties.rs` proves the bound under
//!   random streams).
//! * The bucket count is fixed at compile time (`BUCKETS` = 320,
//!   covering up to ~73 minutes before clamping into the last bucket),
//!   so memory is constant regardless of how many values are recorded.
//! * Recording is **wait-free**: a thread picks one of `SHARDS`
//!   atomic bucket banks by a thread-local index and does three
//!   relaxed `fetch_add`s plus a `fetch_max` — no locks, no allocation,
//!   no contention between workers on different banks.
//! * Banks merge into an owned [`HistogramSnapshot`], and snapshots
//!   merge with each other (bucket-wise addition), which is what makes
//!   per-class histograms aggregate into per-stage totals.
//!
//! The per-class registry behind [`Telemetry`] is a read-mostly
//! `RwLock<HashMap>`: the write lock is taken only the first time a
//! workload class is ever seen; steady-state recording resolves the
//! class under a read lock once per batch and then touches atomics
//! only.
//!
//! # Relation to tracing
//!
//! Histograms are always on — every latency figure the engine reports
//! comes from a [`TelemetrySnapshot`], and their cost is a handful of
//! uncontended atomic adds per job. Per-event *span*
//! records (the Chrome-traceable timeline) are subscriber-gated and
//! live in [`crate::trace`]; [`Telemetry`] owns the ring so one handle
//! reaches both.

use crate::job::{Priority, WorkloadClass};
use crate::placement::PlacementDecision;
use crate::trace::{HandleKind, TraceEvent, TraceRing};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// One lifecycle stage a latency histogram is kept for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Submission push → the job's batch starts processing.
    QueueWait,
    /// Planner consultation + modeled engine run (paid once per batch,
    /// recorded against the member that triggered it).
    Plan,
    /// Lifetime of the batch's [`crate::cluster::Reservation`] on the
    /// shared cluster view (recorded once per planned batch).
    Reserve,
    /// Wall-clock of the numeric kernels ([`crate::JobOutcome`]'s
    /// `wall_numeric`).
    Execute,
    /// Outcome ready → ticket fulfilled (cache store + lifecycle
    /// publish + waiter wake).
    Fulfill,
    /// Submission → ticket fulfilled, every path: executed, deduped,
    /// cache-served at submission, failed, drop-guard.
    EndToEnd,
    /// Workflow-node submission → DAG release (the time a node spent
    /// held by the workflow coordinator ([`crate::dag`]) waiting for its last
    /// parent to fulfill; recorded at release, zero for roots released
    /// at submit).
    DagWait,
}

/// Number of [`Stage`] variants (array dimension for per-stage banks).
const STAGE_COUNT: usize = 7;

impl Stage {
    /// Every stage, in reporting order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::QueueWait,
        Stage::Plan,
        Stage::Reserve,
        Stage::Execute,
        Stage::Fulfill,
        Stage::EndToEnd,
        Stage::DagWait,
    ];

    /// Snake-case label used in JSON exports and tables.
    pub fn label(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Plan => "plan",
            Stage::Reserve => "reserve",
            Stage::Execute => "execute",
            Stage::Fulfill => "fulfill",
            Stage::EndToEnd => "end_to_end",
            Stage::DagWait => "dag_wait",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::QueueWait => 0,
            Stage::Plan => 1,
            Stage::Reserve => 2,
            Stage::Execute => 3,
            Stage::Fulfill => 4,
            Stage::EndToEnd => 5,
            Stage::DagWait => 6,
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Where a batch's placement plan put the work, coarsely: the execute
/// histogram is additionally keyed by this, so CPU-resident and
/// NDP-resident latencies of the same class stay separable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PlacementTarget {
    /// Every task-graph stage placed on the host CPU.
    Cpu,
    /// Every stage placed on the NDP stacks.
    Ndp,
    /// The plan splits stages across both targets.
    Hybrid,
}

/// Number of [`PlacementTarget`] variants.
const TARGET_COUNT: usize = 3;

impl PlacementTarget {
    /// Every target, in reporting order.
    pub const ALL: [PlacementTarget; TARGET_COUNT] = [
        PlacementTarget::Cpu,
        PlacementTarget::Ndp,
        PlacementTarget::Hybrid,
    ];

    /// Classifies a placement decision by where its stages landed.
    pub fn of(decision: &PlacementDecision) -> PlacementTarget {
        let ndp = decision.ndp_stage_count();
        let total = decision.plan.placement.len();
        if ndp == 0 {
            PlacementTarget::Cpu
        } else if ndp == total {
            PlacementTarget::Ndp
        } else {
            PlacementTarget::Hybrid
        }
    }

    /// Short label used in JSON exports and tables.
    pub fn label(self) -> &'static str {
        match self {
            PlacementTarget::Cpu => "cpu",
            PlacementTarget::Ndp => "ndp",
            PlacementTarget::Hybrid => "hybrid",
        }
    }

    fn index(self) -> usize {
        match self {
            PlacementTarget::Cpu => 0,
            PlacementTarget::Ndp => 1,
            PlacementTarget::Hybrid => 2,
        }
    }
}

impl std::fmt::Display for PlacementTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Exact single-value buckets below this (16 = `1 << (SUB_BITS + 1)`).
const LINEAR_CUTOFF: u64 = 16;
/// Sub-buckets per power-of-two octave (3 bits ⇒ 8 ⇒ ≤ 12.5% width).
const SUB_BITS: u32 = 3;
const SUBS_PER_OCTAVE: usize = 1 << SUB_BITS;
/// Largest exponent bucketed precisely; values at 2^42 and beyond clamp
/// into the final bucket (2^42 ns ≈ 73 minutes — far past any latency
/// this engine produces).
const MAX_EXPONENT: u32 = 41;
/// Total buckets: 16 exact + 8 per octave for exponents 4..=41.
const BUCKETS: usize = LINEAR_CUTOFF as usize + (MAX_EXPONENT as usize - 3) * SUBS_PER_OCTAVE;
/// Independent atomic bucket banks; recording threads spread across
/// them by a thread-local index so concurrent workers rarely share a
/// cache line, and snapshots merge all banks.
const SHARDS: usize = 8;

/// The bucket a nanosecond value lands in.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        return v as usize;
    }
    let e = (63 - v.leading_zeros()).min(MAX_EXPONENT);
    let mantissa = ((v >> (e - SUB_BITS)) as usize - SUBS_PER_OCTAVE).min(SUBS_PER_OCTAVE - 1);
    LINEAR_CUTOFF as usize + (e as usize - 4) * SUBS_PER_OCTAVE + mantissa
}

/// Inclusive upper bound of bucket `i` — what quantile estimation
/// reports, so estimates never undershoot the true order statistic.
fn bucket_max(i: usize) -> u64 {
    if i < LINEAR_CUTOFF as usize {
        return i as u64;
    }
    if i == BUCKETS - 1 {
        // The clamp bucket holds everything past 2^42.
        return u64::MAX;
    }
    let j = i - LINEAR_CUTOFF as usize;
    let e = 4 + (j / SUBS_PER_OCTAVE) as u32;
    let m = (j % SUBS_PER_OCTAVE) as u64;
    let width = 1u64 << (e - SUB_BITS);
    ((SUBS_PER_OCTAVE as u64 + m) << (e - SUB_BITS)) + width - 1
}

struct Bank {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Bank {
    fn new() -> Self {
        Bank {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }
}

/// Global round-robin assignment of recording threads to banks.
static NEXT_BANK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread picks its bank once; `usize::MAX` = unassigned.
    static MY_BANK: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

fn my_bank() -> usize {
    MY_BANK.with(|b| {
        let mut i = b.get();
        if i == usize::MAX {
            i = NEXT_BANK.fetch_add(1, Ordering::Relaxed) % SHARDS;
            b.set(i);
        }
        i
    })
}

/// A lock-free, thread-sharded, log-bucketed latency histogram.
///
/// Constant memory (`BUCKETS` buckets × `SHARDS` banks), wait-free
/// recording, mergeable snapshots, and quantile estimates whose
/// relative error is bounded by the sub-bucket width (≤ 1/8 above the
/// exact range). See the [module docs](self) for the bucketing scheme.
pub struct LatencyHistogram {
    banks: Vec<Bank>,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            banks: (0..SHARDS).map(|_| Bank::new()).collect(),
        }
    }

    /// Records one duration (saturated to nanoseconds). Wait-free:
    /// relaxed atomic adds on the calling thread's bank.
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one raw nanosecond value.
    pub fn record_ns(&self, ns: u64) {
        let bank = &self.banks[my_bank()];
        bank.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        bank.count.fetch_add(1, Ordering::Relaxed);
        bank.sum_ns.fetch_add(ns, Ordering::Relaxed);
        bank.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Values recorded so far (all banks).
    pub fn count(&self) -> u64 {
        self.banks
            .iter()
            .map(|b| b.count.load(Ordering::Relaxed))
            .sum()
    }

    /// Merges every bank into one owned snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut s = HistogramSnapshot::empty();
        for bank in &self.banks {
            for (i, bucket) in bank.buckets.iter().enumerate() {
                s.counts[i] += bucket.load(Ordering::Relaxed);
            }
            s.count += bank.count.load(Ordering::Relaxed);
            s.sum_ns += bank.sum_ns.load(Ordering::Relaxed) as u128;
            s.max_ns = s.max_ns.max(bank.max_ns.load(Ordering::Relaxed));
        }
        s
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// An owned, mergeable point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl HistogramSnapshot {
    /// A snapshot with nothing recorded.
    pub fn empty() -> Self {
        HistogramSnapshot {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    /// Bucket-wise accumulation of `other` into `self` (how per-class
    /// histograms aggregate into per-stage totals).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded values, nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Largest recorded value, nanoseconds (exact, not bucketed).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean of recorded values, nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) in nanoseconds: the
    /// inclusive upper bound of the bucket holding the order statistic
    /// of rank `ceil(q · count)`. Never below the true value, at most
    /// 12.5% above it; 0 when empty. The true maximum caps the
    /// estimate, so `quantile_ns(1.0) == max_ns()` exactly.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_max(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// [`HistogramSnapshot::quantile_ns`] in seconds.
    pub fn quantile_s(&self, q: f64) -> f64 {
        self.quantile_ns(q) as f64 * 1e-9
    }

    /// Median estimate, nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    /// 90th-percentile estimate, nanoseconds.
    pub fn p90_ns(&self) -> u64 {
        self.quantile_ns(0.90)
    }

    /// 99th-percentile estimate, nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// 99.9th-percentile estimate, nanoseconds.
    pub fn p999_ns(&self) -> u64 {
        self.quantile_ns(0.999)
    }

    fn json_into(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"count\": {}, \"sum_ns\": {}, \"mean_ns\": {:.1}, \"max_ns\": {}, \
             \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}}}",
            self.count,
            self.sum_ns,
            self.mean_ns(),
            self.max_ns,
            self.p50_ns(),
            self.p90_ns(),
            self.p99_ns(),
            self.p999_ns(),
        ));
    }
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

/// Per-class bank of stage histograms (plus the execute stage split by
/// placement target).
struct ClassTelemetry {
    stages: Vec<LatencyHistogram>,
    targets: Vec<LatencyHistogram>,
}

impl ClassTelemetry {
    fn new() -> Self {
        ClassTelemetry {
            stages: (0..STAGE_COUNT).map(|_| LatencyHistogram::new()).collect(),
            targets: (0..TARGET_COUNT).map(|_| LatencyHistogram::new()).collect(),
        }
    }
}

/// A per-class recording handle: one registry lookup amortized over a
/// whole batch of records (workers resolve it once per batch, then
/// every stage record is pure atomics).
#[derive(Clone)]
pub struct ClassRecorder {
    inner: Arc<ClassTelemetry>,
}

impl ClassRecorder {
    /// Records `d` into this class's histogram for `stage`.
    pub fn record(&self, stage: Stage, d: Duration) {
        self.inner.stages[stage.index()].record(d);
    }

    /// Records an execute-stage duration under its placement target
    /// (in addition to [`ClassRecorder::record`] with
    /// [`Stage::Execute`], not instead of it).
    pub fn record_target(&self, target: PlacementTarget, d: Duration) {
        self.inner.targets[target.index()].record(d);
    }
}

/// The engine-wide telemetry hub: the per-class histogram registry, the
/// engine epoch all trace timestamps are relative to, and the span
/// ring. One `Arc<Telemetry>` travels with every [`crate::worker`]
/// entry so even the Drop-guard path can record.
pub struct Telemetry {
    epoch: Instant,
    classes: RwLock<HashMap<WorkloadClass, Arc<ClassTelemetry>>>,
    /// End-to-end latency split by scheduling priority (fixed 3-slot
    /// bank, indexed by [`Priority::index`]) — the substrate the QoS
    /// sweep's "interactive p99 under a bulk flood" gate reads.
    priority_e2e: [LatencyHistogram; 3],
    next_trace: AtomicU64,
    ring: TraceRing,
}

impl Telemetry {
    /// A fresh hub whose epoch is "now" and whose event ring holds up
    /// to `trace_capacity` (positive) events per handle kind.
    pub fn new(trace_capacity: usize) -> Self {
        Telemetry {
            epoch: Instant::now(),
            classes: RwLock::new(HashMap::new()),
            priority_e2e: std::array::from_fn(|_| LatencyHistogram::new()),
            next_trace: AtomicU64::new(1),
            ring: TraceRing::new(trace_capacity),
        }
    }

    /// The instant all trace timestamps are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds from the epoch to now.
    pub fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// Nanoseconds from the epoch to `at` (0 for pre-epoch instants).
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch)
            .as_nanos()
            .min(u64::MAX as u128) as u64
    }

    /// Allocates the next job trace id (unique per engine instance).
    pub fn next_trace_id(&self) -> crate::trace::TraceId {
        crate::trace::TraceId(self.next_trace.fetch_add(1, Ordering::Relaxed))
    }

    /// True while at least one [`crate::TraceCollector`] or
    /// [`crate::ProgressStream`] is attached — the one relaxed load
    /// unwatched engines pay per would-be event.
    #[inline]
    pub fn traced(&self) -> bool {
        self.ring.has_subscribers()
    }

    /// Publishes a span event (dropped unless [`Telemetry::traced`]).
    pub fn publish(&self, event: TraceEvent) {
        self.ring.publish_slice(std::slice::from_ref(&event));
    }

    /// Publishes a run of span events under one ring-lock acquisition.
    /// The hot paths batch each job's chain through here; events are
    /// `Copy`, so a stack array works — no buffer allocation needed.
    pub fn publish_slice(&self, events: &[TraceEvent]) {
        self.ring.publish_slice(events);
    }

    /// The event ring (collectors and progress streams attach here).
    pub(crate) fn ring(&self) -> &TraceRing {
        &self.ring
    }

    /// The recording handle for `class`, creating its histogram bank on
    /// first sight. Read-lock fast path; the write lock is only ever
    /// taken once per distinct class per engine lifetime.
    pub fn class(&self, class: WorkloadClass) -> ClassRecorder {
        if let Some(found) = self.classes.read().unwrap().get(&class) {
            return ClassRecorder {
                inner: Arc::clone(found),
            };
        }
        let mut map = self.classes.write().unwrap();
        let inner = Arc::clone(
            map.entry(class)
                .or_insert_with(|| Arc::new(ClassTelemetry::new())),
        );
        ClassRecorder { inner }
    }

    /// Records one duration for `class`/`stage` (one registry lookup;
    /// batch paths should hold a [`ClassRecorder`] instead).
    pub fn record(&self, class: WorkloadClass, stage: Stage, d: Duration) {
        self.class(class).record(stage, d);
    }

    /// Records a job's end-to-end latency under its class and its
    /// priority. Exactly one call per fulfilled ticket — executed,
    /// deduped, cache-served, failed, cancelled, deadline-dropped, or
    /// drop-guarded — so [`TelemetrySnapshot::e2e_count`] always equals
    /// `completed + failed + cancelled + deadline_dropped` in a
    /// quiescent engine.
    pub fn record_end_to_end(&self, class: WorkloadClass, priority: Priority, d: Duration) {
        self.class(class).record(Stage::EndToEnd, d);
        self.priority_e2e[priority.index()].record(d);
    }

    /// Events the collector queue evicted or discarded unread.
    pub fn trace_events_dropped(&self) -> u64 {
        self.ring.dropped(HandleKind::Collector)
    }

    /// Events the progress-stream queue evicted or discarded unread.
    pub(crate) fn progress_events_dropped(&self) -> u64 {
        self.ring.dropped(HandleKind::Stream)
    }

    /// Merged snapshot of every class's histograms plus the ring's
    /// counters. Queue high-watermarks are stitched in by
    /// [`crate::DftService::telemetry`], which owns the queue.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut classes: Vec<ClassSnapshot> = self
            .classes
            .read()
            .unwrap()
            .iter()
            .map(|(class, t)| ClassSnapshot {
                class: *class,
                stages: t.stages.iter().map(LatencyHistogram::snapshot).collect(),
                targets: t.targets.iter().map(LatencyHistogram::snapshot).collect(),
            })
            .collect();
        classes.sort_by_key(|c| c.class);
        let priorities = self.priority_e2e.each_ref().map(LatencyHistogram::snapshot);
        TelemetrySnapshot {
            uptime_s: self.epoch.elapsed().as_secs_f64(),
            classes,
            e2e_count: priorities.iter().map(HistogramSnapshot::count).sum(),
            priorities,
            trace_events_recorded: self.ring.recorded(),
            trace_events_dropped: self.trace_events_dropped(),
            queue_high_watermarks: Vec::new(),
        }
    }
}

/// One class's stage histograms inside a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSnapshot {
    /// The workload class.
    pub class: WorkloadClass,
    stages: Vec<HistogramSnapshot>,
    targets: Vec<HistogramSnapshot>,
}

impl ClassSnapshot {
    /// The histogram for one stage.
    pub fn stage(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage.index()]
    }

    /// The execute-stage histogram for one placement target.
    pub fn target(&self, target: PlacementTarget) -> &HistogramSnapshot {
        &self.targets[target.index()]
    }
}

/// A consistent point-in-time export of the whole telemetry hub:
/// per-class per-stage histograms, per-priority end-to-end histograms,
/// stage totals, drop counters, and queue high-watermarks. Serializable
/// to JSON ([`TelemetrySnapshot::to_json`]); the span timeline exports
/// separately through [`crate::trace::chrome_trace_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Seconds since the engine epoch.
    pub uptime_s: f64,
    /// Per-class histograms, sorted by class.
    pub classes: Vec<ClassSnapshot>,
    /// End-to-end histograms indexed by [`Priority::index`].
    priorities: [HistogramSnapshot; 3],
    /// End-to-end latencies recorded, one per terminal ticket: once the
    /// engine is quiescent this equals `completed + failed + cancelled
    /// + deadline_dropped` of its [`crate::ServeReport`].
    pub e2e_count: u64,
    /// Span events accepted into the trace ring over the engine's life.
    pub trace_events_recorded: u64,
    /// Span events the collector queue evicted unread (slow
    /// [`crate::TraceCollector`] consumer) or discarded when the last
    /// collector detached; zero on unwatched engines, which buffer
    /// nothing.
    pub trace_events_dropped: u64,
    /// Highest depth each queue shard ever reached (index = shard).
    pub queue_high_watermarks: Vec<usize>,
}

impl TelemetrySnapshot {
    /// The snapshot for one class, if any job of it was recorded.
    pub fn class(&self, class: &WorkloadClass) -> Option<&ClassSnapshot> {
        self.classes.iter().find(|c| c.class == *class)
    }

    /// One stage's histogram merged across every class.
    pub fn stage_total(&self, stage: Stage) -> HistogramSnapshot {
        let mut total = HistogramSnapshot::empty();
        for c in &self.classes {
            total.merge(c.stage(stage));
        }
        total
    }

    /// The end-to-end histogram of every job submitted at `priority`.
    pub fn priority(&self, priority: Priority) -> &HistogramSnapshot {
        &self.priorities[priority.index()]
    }

    /// Total jobs with an end-to-end record, summed over classes.
    pub fn jobs_recorded(&self) -> u64 {
        self.stage_total(Stage::EndToEnd).count()
    }

    /// Rolls another engine's snapshot into `self` — the
    /// federation-wide telemetry view. Every histogram (class × stage,
    /// class × target, priority) merges bucket-wise
    /// ([`HistogramSnapshot::merge`]), so quantiles of the result are
    /// true federated quantiles. Uptime takes the max (replicas run
    /// concurrently), counters sum, and queue high-watermarks
    /// concatenate in absorb order (replica-major), matching the merged
    /// report's shard vectors.
    pub fn absorb(&mut self, other: &TelemetrySnapshot) {
        self.uptime_s = self.uptime_s.max(other.uptime_s);
        for theirs in &other.classes {
            match self.classes.iter_mut().find(|c| c.class == theirs.class) {
                Some(mine) => {
                    for (a, b) in mine.stages.iter_mut().zip(&theirs.stages) {
                        a.merge(b);
                    }
                    for (a, b) in mine.targets.iter_mut().zip(&theirs.targets) {
                        a.merge(b);
                    }
                }
                None => self.classes.push(theirs.clone()),
            }
        }
        self.classes.sort_by_key(|c| c.class);
        for (a, b) in self.priorities.iter_mut().zip(&other.priorities) {
            a.merge(b);
        }
        self.e2e_count += other.e2e_count;
        self.trace_events_recorded += other.trace_events_recorded;
        self.trace_events_dropped += other.trace_events_dropped;
        self.queue_high_watermarks
            .extend_from_slice(&other.queue_high_watermarks);
    }

    /// Serializes the snapshot to a JSON object (hand-rolled — every
    /// key and class label is machine-generated, so no escaping is
    /// needed).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str(&format!(
            "{{\"uptime_s\": {:.6}, \"e2e_count\": {}, \"trace_events_recorded\": {}, \
             \"trace_events_dropped\": {}, \"queue_high_watermarks\": [",
            self.uptime_s, self.e2e_count, self.trace_events_recorded, self.trace_events_dropped,
        ));
        for (i, w) in self.queue_high_watermarks.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&w.to_string());
        }
        out.push_str("], \"classes\": [");
        for (ci, c) in self.classes.iter().enumerate() {
            if ci > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"class\": \"{}\", \"kind\": \"{}\", \"atoms\": {}, \"iterations\": {}, \
                 \"stages\": {{",
                c.class, c.class.kind, c.class.atoms, c.class.iterations,
            ));
            for (si, stage) in Stage::ALL.iter().enumerate() {
                if si > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": ", stage.label()));
                c.stage(*stage).json_into(&mut out);
            }
            out.push_str("}, \"execute_by_target\": {");
            for (ti, target) in PlacementTarget::ALL.iter().enumerate() {
                if ti > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": ", target.label()));
                c.target(*target).json_into(&mut out);
            }
            out.push_str("}}");
        }
        out.push_str("], \"priorities\": {");
        for (pi, priority) in Priority::ALL.iter().enumerate() {
            if pi > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": ", priority.label()));
            self.priority(*priority).json_into(&mut out);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        // Every value maps into range, and indices never decrease.
        let mut prev = 0usize;
        for v in 0..4096u64 {
            let i = bucket_index(v);
            assert!(i < BUCKETS);
            assert!(i >= prev, "index regressed at {v}");
            prev = i;
        }
        // The linear→log seam has no gap.
        assert_eq!(bucket_index(15), 15);
        assert_eq!(bucket_index(16), 16);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_max_bounds_its_bucket() {
        for v in [0u64, 1, 7, 15, 16, 17, 31, 32, 100, 1000, 123_456, 1 << 40] {
            let i = bucket_index(v);
            assert!(bucket_max(i) >= v, "bucket_max({i}) < {v}");
            if i + 1 < BUCKETS {
                assert!(
                    bucket_max(i) < bucket_max(i + 1),
                    "bucket bounds overlap at {i}"
                );
            }
        }
    }

    #[test]
    fn quantiles_bound_relative_error() {
        let h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record_ns(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 10_000);
        // True p50 of 1..=10000 is 5000; the estimate overshoots by at
        // most one sub-bucket (12.5%).
        let p50 = s.p50_ns();
        assert!((5000..=5000 + 5000 / 8).contains(&p50), "p50 = {p50}");
        let p99 = s.p99_ns();
        assert!((9900..=9900 + 9900 / 8).contains(&p99), "p99 = {p99}");
        // The max is exact and caps the top quantile.
        assert_eq!(s.max_ns(), 10_000);
        assert_eq!(s.quantile_ns(1.0), 10_000);
    }

    #[test]
    fn snapshots_merge_bucketwise() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for v in 0..100u64 {
            a.record_ns(v);
            b.record_ns(v + 1000);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 200);
        assert_eq!(m.max_ns(), 1099);
        assert_eq!(m.sum_ns(), (0..100u64).sum::<u64>() as u128 * 2 + 100_000);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let s = LatencyHistogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.p50_ns(), 0);
        assert_eq!(s.quantile_ns(1.0), 0);
        assert_eq!(s.mean_ns(), 0.0);
    }

    #[test]
    fn telemetry_registry_keys_by_class_and_counts_e2e() {
        let t = Telemetry::new(16);
        let md = WorkloadClass {
            kind: crate::job::JobKind::MdSegment,
            atoms: 64,
            iterations: 10,
        };
        let scf = WorkloadClass {
            kind: crate::job::JobKind::GroundState,
            atoms: 8,
            iterations: 4,
        };
        t.record(md, Stage::QueueWait, Duration::from_micros(3));
        t.record_end_to_end(md, Priority::Bulk, Duration::from_micros(9));
        t.record_end_to_end(scf, Priority::Interactive, Duration::from_micros(2));
        let snap = t.snapshot();
        assert_eq!(snap.e2e_count, 2);
        assert_eq!(snap.classes.len(), 2);
        // Sorted by class: GroundState orders before MdSegment.
        assert_eq!(snap.classes[0].class, scf);
        assert_eq!(snap.class(&md).unwrap().stage(Stage::QueueWait).count(), 1);
        assert_eq!(snap.stage_total(Stage::EndToEnd).count(), 2);
        assert_eq!(snap.jobs_recorded(), 2);
        assert!(snap.classes.iter().all(
            |c| c.stage(Stage::EndToEnd).count() == 1 && c.stage(Stage::EndToEnd).p50_ns() > 0
        ));
        let interactive = snap.priority(Priority::Interactive);
        assert_eq!(interactive.count(), 1);
        assert!(
            snap.priority(Priority::Standard).is_empty(),
            "standard unused"
        );
        assert_eq!(snap.priority(Priority::Bulk).count(), 1);
        assert!(snap.priority(Priority::Bulk).p99_ns() >= interactive.p99_ns());
    }

    /// Asserts two histograms agree on count, sum, max and the quantile
    /// at every rank.
    fn assert_same_histogram(a: &HistogramSnapshot, b: &HistogramSnapshot, what: &str) {
        assert_eq!(a.count(), b.count(), "{what}: count");
        assert_eq!(a.sum_ns(), b.sum_ns(), "{what}: sum");
        assert_eq!(a.max_ns(), b.max_ns(), "{what}: max");
        for rank in 1..=a.count() {
            let q = rank as f64 / a.count() as f64;
            assert_eq!(a.quantile_ns(q), b.quantile_ns(q), "{what}: q = {q}");
        }
    }

    #[test]
    fn absorbed_snapshots_equal_one_hub_recording_both_sets() {
        let class = |atoms| WorkloadClass {
            kind: crate::job::JobKind::MdSegment,
            atoms,
            iterations: 10,
        };
        // Hub a sees classes 16 and 64; hub b sees 64 and 128 (absorb
        // both merges into an existing class and adopts a new one).
        // Priorities overlap the same way.
        let a_set = [
            (class(16), Priority::Interactive, 1_000u64),
            (class(64), Priority::Bulk, 70_000),
            (class(64), Priority::Interactive, 3_500),
        ];
        let b_set = [
            (class(64), Priority::Standard, 12_000u64),
            (class(128), Priority::Bulk, 900_000),
            (class(128), Priority::Standard, 45),
        ];
        let (a, b, both) = (Telemetry::new(4), Telemetry::new(4), Telemetry::new(4));
        let record = |t: &Telemetry, (class, priority, us): (WorkloadClass, Priority, u64)| {
            let recorder = t.class(class);
            recorder.record(Stage::QueueWait, Duration::from_nanos(us * 7));
            recorder.record(Stage::Execute, Duration::from_micros(us / 2));
            recorder.record_target(PlacementTarget::Ndp, Duration::from_micros(us / 2));
            t.record_end_to_end(class, priority, Duration::from_micros(us));
        };
        for sample in a_set {
            record(&a, sample);
            record(&both, sample);
        }
        for sample in b_set {
            record(&b, sample);
            record(&both, sample);
        }
        let mut merged = a.snapshot();
        merged.absorb(&b.snapshot());
        let whole = both.snapshot();
        assert_eq!(merged.e2e_count, whole.e2e_count);
        let classes = |s: &TelemetrySnapshot| s.classes.iter().map(|c| c.class).collect::<Vec<_>>();
        assert_eq!(classes(&merged), classes(&whole));
        for (m, w) in merged.classes.iter().zip(&whole.classes) {
            for stage in Stage::ALL {
                let what = format!("{} {stage}", m.class);
                assert_same_histogram(m.stage(stage), w.stage(stage), &what);
            }
            for target in PlacementTarget::ALL {
                let what = format!("{} execute on {target}", m.class);
                assert_same_histogram(m.target(target), w.target(target), &what);
            }
        }
        for priority in Priority::ALL {
            let what = format!("priority {priority}");
            assert_same_histogram(merged.priority(priority), whole.priority(priority), &what);
        }
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let t = Telemetry::new(16);
        let class = WorkloadClass {
            kind: crate::job::JobKind::TdaSpectrum,
            atoms: 16,
            iterations: 1,
        };
        t.record(class, Stage::Execute, Duration::from_millis(2));
        t.record_end_to_end(class, Priority::Standard, Duration::from_millis(3));
        let mut snap = t.snapshot();
        snap.queue_high_watermarks = vec![4, 7];
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"tda/Si_16x1\""));
        assert!(json.contains("\"queue_wait\""));
        assert!(json.contains("\"execute_by_target\""));
        assert!(json.contains("\"priorities\": {\"interactive\": {\"count\": 0"));
        assert!(json.contains("\"standard\": {\"count\": 1"));
        assert!(json.contains("\"queue_high_watermarks\": [4, 7]"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }
}
