//! The global utilization view shared by every worker.
//!
//! Workers plan placement per batch, but the machine model they plan
//! against is shared: concurrent batches that all consult an *isolated*
//! planner pile onto the same modeled NDP stacks while the host CPU
//! idles. [`ClusterView`] is the fix — a lock-free aggregate every
//! worker consults *before* planning and updates *around* execution:
//!
//! 1. **Consult** — [`ClusterView::snapshot`] reads the modeled busy
//!    seconds concurrent batches currently hold on each target (plus
//!    the in-flight batch counts per origin shard). The worker feeds
//!    the snapshot into its placement decision, which turns it into the
//!    planner request's `ndft_sched::TargetLoad` bias: targets other batches
//!    have reserved look proportionally slower, so the chain DP spreads
//!    simultaneous batches across CPU and NDP instead of stacking them.
//! 2. **Reserve** — once a batch's plan is made, the worker calls
//!    [`ClusterView::reserve`] with the plan's per-target busy time
//!    multiplied by the batch size. The returned [`Reservation`] is an
//!    RAII guard.
//! 3. **Release** — dropping the [`Reservation`] subtracts exactly what
//!    was added. Because release rides `Drop`, every exit path of the
//!    worker's batch loop — normal completion, a solver error, a panic
//!    unwinding through `catch_unwind` — returns the view to a state
//!    with that batch gone. The view can never drift: the reservation
//!    bookkeeping is integer nanoseconds, so add/subtract round-trips
//!    are exact and a drained cluster reads exactly zero
//!    (`tests/serve_properties.rs` proves this under randomized
//!    schedules with injected panics).
//!
//! All state is plain atomics (`fetch_add`/`fetch_sub`); there is no
//! mutex anywhere on this path, so the snapshot a worker takes while
//! planning never blocks another worker's dispatch loop.

use std::sync::atomic::{AtomicU64, Ordering};

/// Converts a modeled duration to the integer nanosecond bookkeeping
/// unit. Saturates at ~584 years; negatives and NaN clamp to zero.
fn to_ns(seconds: f64) -> u64 {
    if seconds.is_finite() && seconds > 0.0 {
        (seconds * 1e9).min(u64::MAX as f64 / 4.0) as u64
    } else {
        0
    }
}

/// Lock-free aggregate of the modeled busy time in-flight batches have
/// reserved on each execution target, plus in-flight batch counts per
/// origin shard. See the [module docs](self) for the
/// consult → reserve → release lifecycle.
pub struct ClusterView {
    /// Reserved modeled CPU busy time, integer nanoseconds.
    cpu_reserved_ns: AtomicU64,
    /// Reserved modeled NDP busy time, integer nanoseconds.
    ndp_reserved_ns: AtomicU64,
    /// In-flight batches holding a reservation, per origin shard.
    shard_inflight: Vec<AtomicU64>,
}

impl ClusterView {
    /// An idle view sized for `shards` queue shards.
    pub fn new(shards: usize) -> Self {
        ClusterView {
            cpu_reserved_ns: AtomicU64::new(0),
            ndp_reserved_ns: AtomicU64::new(0),
            shard_inflight: (0..shards.max(1)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records that a batch drained from `shard` is about to execute
    /// under a plan placing `cpu_busy_s` / `ndp_busy_s` modeled seconds
    /// on the two targets (already multiplied by the batch's job count
    /// by the caller). Dropping the guard releases exactly this
    /// reservation.
    pub fn reserve(&self, shard: usize, cpu_busy_s: f64, ndp_busy_s: f64) -> Reservation<'_> {
        let cpu_ns = to_ns(cpu_busy_s);
        let ndp_ns = to_ns(ndp_busy_s);
        let shard = shard.min(self.shard_inflight.len() - 1);
        self.cpu_reserved_ns.fetch_add(cpu_ns, Ordering::AcqRel);
        self.ndp_reserved_ns.fetch_add(ndp_ns, Ordering::AcqRel);
        self.shard_inflight[shard].fetch_add(1, Ordering::AcqRel);
        Reservation {
            view: self,
            cpu_ns,
            ndp_ns,
            shard,
            granted: std::time::Instant::now(),
        }
    }

    /// Point-in-time copy of the whole view. The fields are read from
    /// separate atomics, so a snapshot racing a reserve/release can pair
    /// a reserved-time value with an in-flight count from a moment
    /// apart — fine for the planner bias (advisory by nature), and
    /// [`ClusterSnapshot::is_idle`] only reports idle once *every*
    /// field reads zero, which no in-progress release can satisfy.
    pub fn snapshot(&self) -> ClusterSnapshot {
        ClusterSnapshot {
            cpu_reserved_s: self.cpu_reserved_ns.load(Ordering::Acquire) as f64 * 1e-9,
            ndp_reserved_s: self.ndp_reserved_ns.load(Ordering::Acquire) as f64 * 1e-9,
            shard_inflight: self
                .shard_inflight
                .iter()
                .map(|s| s.load(Ordering::Acquire))
                .collect(),
        }
    }

    /// True when no batch holds a reservation and nothing is reserved —
    /// the state the view must return to whenever the engine drains.
    pub fn is_idle(&self) -> bool {
        self.cpu_reserved_ns.load(Ordering::Acquire) == 0
            && self.ndp_reserved_ns.load(Ordering::Acquire) == 0
            && self
                .shard_inflight
                .iter()
                .all(|s| s.load(Ordering::Acquire) == 0)
    }
}

/// What one planning-time consultation of the [`ClusterView`] saw.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterSnapshot {
    /// Modeled busy seconds concurrent batches hold on the host CPU.
    pub cpu_reserved_s: f64,
    /// Modeled busy seconds concurrent batches hold on the NDP stacks.
    pub ndp_reserved_s: f64,
    /// In-flight batches holding a reservation, per origin shard.
    pub shard_inflight: Vec<u64>,
}

impl ClusterSnapshot {
    /// The view of an idle cluster — what load-blind planning assumes.
    pub fn idle() -> Self {
        ClusterSnapshot::default()
    }

    /// Total in-flight batches across all shards.
    pub fn inflight_batches(&self) -> u64 {
        self.shard_inflight.iter().sum()
    }

    /// True when nothing is reserved *and* no batch is in flight — the
    /// same predicate as [`ClusterView::is_idle`], so a drained engine
    /// reads idle through either. (Planning under an idle snapshot is
    /// identical to load-blind planning.)
    pub fn is_idle(&self) -> bool {
        self.cpu_reserved_s <= 0.0 && self.ndp_reserved_s <= 0.0 && self.inflight_batches() == 0
    }
}

/// RAII guard for one batch's reservation; dropping it releases exactly
/// the amounts reserved, on every exit path (including panics unwinding
/// through the worker's `catch_unwind`).
pub struct Reservation<'a> {
    view: &'a ClusterView,
    cpu_ns: u64,
    ndp_ns: u64,
    shard: usize,
    granted: std::time::Instant,
}

impl Reservation<'_> {
    /// When the reservation was granted (telemetry records the hold
    /// span from here to release).
    pub fn granted_at(&self) -> std::time::Instant {
        self.granted
    }

    /// How long the reservation has been held so far.
    pub fn held_for(&self) -> std::time::Duration {
        self.granted.elapsed()
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.view
            .cpu_reserved_ns
            .fetch_sub(self.cpu_ns, Ordering::AcqRel);
        self.view
            .ndp_reserved_ns
            .fetch_sub(self.ndp_ns, Ordering::AcqRel);
        self.view.shard_inflight[self.shard].fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_release_roundtrip_is_exact() {
        let view = ClusterView::new(2);
        assert!(view.is_idle());
        {
            let a = view.reserve(0, 1.5, 3.25);
            let b = view.reserve(1, 0.5, 0.75);
            let s = view.snapshot();
            assert!((s.cpu_reserved_s - 2.0).abs() < 1e-9);
            assert!((s.ndp_reserved_s - 4.0).abs() < 1e-9);
            assert_eq!(s.shard_inflight, vec![1, 1]);
            assert_eq!(s.inflight_batches(), 2);
            assert!(!s.is_idle());
            drop(a);
            assert_eq!(view.snapshot().shard_inflight, vec![0, 1]);
            drop(b);
        }
        assert!(view.is_idle());
        assert_eq!(view.snapshot().cpu_reserved_s, 0.0);
        assert_eq!(view.snapshot().ndp_reserved_s, 0.0);
    }

    #[test]
    fn panic_unwinding_through_a_reservation_releases_it() {
        let view = ClusterView::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = view.reserve(3, 2.0, 7.0);
            panic!("solver blew up mid-batch");
        }));
        assert!(result.is_err());
        assert!(view.is_idle(), "Drop released the reservation on unwind");
    }

    #[test]
    fn pathological_inputs_clamp_to_zero() {
        let view = ClusterView::new(1);
        {
            let _r = view.reserve(9, -1.0, f64::NAN); // out-of-range shard clamps too
            let snap = view.snapshot();
            assert_eq!(snap.cpu_reserved_s, 0.0);
            assert_eq!(snap.ndp_reserved_s, 0.0);
            assert_eq!(snap.shard_inflight, vec![1]);
        }
        assert!(view.is_idle());
    }

    #[test]
    fn idle_snapshot_matches_idle_constructor() {
        let s = ClusterSnapshot::idle();
        assert!(s.is_idle());
        assert_eq!(s.inflight_batches(), 0);
    }
}
