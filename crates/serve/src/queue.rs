//! Bounded submission queues with backpressure.
//!
//! [`ShardedQueue`] is N independent bounded shards keyed by a caller
//! hash (the engine uses the [`crate::WorkloadClass`] shard key), plus
//! the work-stealing protocol the dispatcher runs: consumers drain a
//! *home* shard and, when it is empty, steal the largest batchable run
//! (the most common key) from the most-loaded victim shard.
//!
//! Each shard holds one FIFO *lane* per [`crate::Priority`]. Both home
//! drains and steals pick the highest-priority nonempty lane, with an
//! aging escape hatch: a nonempty lane passed over [`LANE_AGING_LIMIT`]
//! times is served next regardless of priority, so interactive work
//! preempts bulk without ever starving it.
//!
//! Producers see [`SubmitError::QueueFull`] from the `try_push` entry
//! points when the service is saturated (the backpressure signal), or
//! block in `push`; consumers drain up to a batch-sized chunk at a time
//! so the batcher has material to group.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::job::TenantId;

/// Number of priority lanes per shard — one per [`crate::Priority`].
pub const PRIORITY_LANES: usize = 3;

/// Lane index `try_push`/`push` route to (the standard-priority lane).
const DEFAULT_LANE: usize = 1;

/// How many times a nonempty lane may be passed over by lane selection
/// before it is served unconditionally. Bounds the service gap of any
/// queued item: a nonempty lane is drained from at least once in every
/// `LANE_AGING_LIMIT + PRIORITY_LANES` dispatches against its shard.
pub const LANE_AGING_LIMIT: u32 = 4;

/// Why a submission was rejected.
///
/// Marked `#[non_exhaustive]`: the QoS layer grows admission verdicts
/// over time, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SubmitError {
    /// The bounded queue is at capacity — back off and retry.
    QueueFull,
    /// The engine is shutting down; no further jobs are accepted.
    Closed,
    /// The job can never run (e.g. an impossible atom count); rejected
    /// before queueing.
    InvalidJob(String),
    /// Admission control rejected the request: the modeled queue wait
    /// plus modeled run time already overruns the requested deadline, so
    /// queueing the job would only waste a slot.
    AdmissionDenied {
        /// Modeled completion time from now, seconds (queue wait + run).
        modeled_finish_s: f64,
        /// The deadline the request asked for, seconds.
        deadline_s: f64,
    },
    /// The tenant is at its in-flight quota; the job was not queued.
    QuotaExceeded {
        /// The tenant whose quota is exhausted.
        tenant: TenantId,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => {
                f.write_str("submission queue is full — back off and retry, or use submit_blocking")
            }
            SubmitError::Closed => {
                f.write_str("engine is shut down — no further submissions will be accepted")
            }
            SubmitError::InvalidJob(why) => {
                write!(
                    f,
                    "invalid job: {why} — fix the request; retrying cannot succeed"
                )
            }
            SubmitError::AdmissionDenied {
                modeled_finish_s,
                deadline_s,
            } => write!(
                f,
                "admission denied: modeled finish {modeled_finish_s:.3}s overruns the \
                 {deadline_s:.3}s deadline — relax the deadline, or resubmit when load drops"
            ),
            SubmitError::QuotaExceeded { tenant } => write!(
                f,
                "{tenant} is at its in-flight quota — wait for its queued jobs to finish, \
                 or raise ServeConfig::tenant_quota"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A run of same-key items stolen from a victim shard.
#[derive(Debug)]
pub struct StolenRun<T> {
    /// Shard the run was taken from.
    pub from_shard: usize,
    /// Shard key shared by every stolen item.
    pub key: u64,
    /// The items, in their original queue order.
    pub items: Vec<T>,
}

struct ShardInner<T> {
    /// One FIFO per priority, indexed by [`crate::Priority::index`].
    lanes: [VecDeque<(u64, T)>; PRIORITY_LANES],
    /// Times each nonempty lane has been passed over by lane selection
    /// since it was last served; at [`LANE_AGING_LIMIT`] the lane jumps
    /// the priority order (the anti-starvation clock).
    passed: [u32; PRIORITY_LANES],
}

impl<T> ShardInner<T> {
    /// Total items across every lane (the depth the mirror publishes).
    fn total(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// Picks the lane the next dispatch serves and advances the aging
    /// clocks: an aged nonempty lane wins outright, otherwise the
    /// highest-priority nonempty lane does; every other nonempty lane
    /// records one more pass-over. `None` when the shard is empty.
    fn choose_lane(&mut self) -> Option<usize> {
        let aged = (0..PRIORITY_LANES)
            .find(|&l| !self.lanes[l].is_empty() && self.passed[l] >= LANE_AGING_LIMIT);
        let chosen = aged.or_else(|| (0..PRIORITY_LANES).find(|&l| !self.lanes[l].is_empty()))?;
        for l in 0..PRIORITY_LANES {
            if l != chosen && !self.lanes[l].is_empty() {
                self.passed[l] = self.passed[l].saturating_add(1);
            }
        }
        self.passed[chosen] = 0;
        Some(chosen)
    }
}

struct Shard<T> {
    state: Mutex<ShardInner<T>>,
    not_full: Condvar,
    /// Lock-free depth mirror so victim selection never takes a lock.
    depth: AtomicUsize,
    /// Highest depth this shard ever reached (telemetry: how close each
    /// lane came to its backpressure ceiling over the engine's life).
    high_watermark: AtomicUsize,
}

impl<T> Shard<T> {
    fn new(capacity: usize) -> Self {
        Shard {
            state: Mutex::new(ShardInner {
                lanes: std::array::from_fn(|_| VecDeque::with_capacity(capacity)),
                passed: [0; PRIORITY_LANES],
            }),
            not_full: Condvar::new(),
            depth: AtomicUsize::new(0),
            high_watermark: AtomicUsize::new(0),
        }
    }

    /// Publishes a new depth, folding it into the high-watermark.
    fn set_depth(&self, depth: usize) {
        self.depth.store(depth, Ordering::Release);
        self.high_watermark.fetch_max(depth, Ordering::AcqRel);
    }
}

/// N independent bounded shards plus the work-stealing protocol.
///
/// Producers route by a caller-supplied shard key (the engine hashes the
/// [`crate::WorkloadClass`], so one class — hence one planner
/// consultation — lands on one shard) and by priority lane (the `_at`
/// entry points; the plain ones use `DEFAULT_LANE`). Consumers own a
/// home shard, drain it in batches with [`ShardedQueue::try_pop_home`],
/// and fall back to [`ShardedQueue::try_steal`]: pick the most-loaded
/// victim shard and take its largest same-key run, so a stolen chunk is
/// still batchable under a single plan. Both dispatch paths serve the
/// highest-priority nonempty lane, subject to the shared aging clock
/// (see [`LANE_AGING_LIMIT`]).
///
/// Consumers never block inside the queue; they poll the two `try_*`
/// entry points and park in [`ShardedQueue::wait_for_work`] between
/// rounds (the generation token closes the lost-wakeup race).
pub struct ShardedQueue<T> {
    shards: Vec<Shard<T>>,
    capacity_per_shard: usize,
    closed: AtomicBool,
    /// Bumped on every push and on close; consumers compare it against
    /// their pre-scan token. Lock-free so the push hot path never
    /// serializes on a global mutex.
    work_generation: AtomicU64,
    /// Companion mutex for `work_available` only — producers take it
    /// empty-handed around the notify so a parked consumer can't miss a
    /// bump between its generation check and its wait.
    park: Mutex<()>,
    work_available: Condvar,
}

impl<T> ShardedQueue<T> {
    /// Queue with `shards` lanes sharing `total_capacity` slots (split
    /// evenly, rounded up, at least one per shard).
    ///
    /// # Panics
    ///
    /// Panics on zero shards or zero capacity.
    pub fn new(shards: usize, total_capacity: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(total_capacity > 0, "queue capacity must be positive");
        let capacity_per_shard = total_capacity.div_ceil(shards);
        ShardedQueue {
            shards: (0..shards)
                .map(|_| Shard::new(capacity_per_shard))
                .collect(),
            capacity_per_shard,
            closed: AtomicBool::new(false),
            work_generation: AtomicU64::new(0),
            park: Mutex::new(()),
            work_available: Condvar::new(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Bounded capacity of one shard.
    pub fn capacity_per_shard(&self) -> usize {
        self.capacity_per_shard
    }

    /// The shard a key routes to.
    pub fn shard_for(&self, key: u64) -> usize {
        (key % self.shards.len() as u64) as usize
    }

    /// Total items queued across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.depth.load(Ordering::Acquire))
            .sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard depth snapshot (index = shard).
    pub fn shard_depths(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.depth.load(Ordering::Acquire))
            .collect()
    }

    /// Highest depth each shard ever reached (index = shard) — a
    /// monotone gauge of how close each lane came to its backpressure
    /// ceiling, exported on [`crate::TelemetrySnapshot`].
    pub fn shard_high_watermarks(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.high_watermark.load(Ordering::Acquire))
            .collect()
    }

    /// One push ⇒ one item ⇒ one woken consumer. The empty critical
    /// section orders the bump against any parked consumer's
    /// check-then-wait; `notify_all` would stampede every idle worker
    /// into a full shard scan for a single item.
    fn bump_work_generation(&self) {
        self.work_generation.fetch_add(1, Ordering::Release);
        drop(self.park.lock().unwrap());
        self.work_available.notify_one();
    }

    /// Token for [`ShardedQueue::wait_for_work`]: read it *before*
    /// scanning the shards, and the wait becomes a no-op if any push
    /// landed since.
    pub fn generation(&self) -> u64 {
        self.work_generation.load(Ordering::Acquire)
    }

    /// Parks until a push (or close) bumps the generation past `seen`,
    /// or `timeout` elapses. Returns true when new work may exist.
    pub fn wait_for_work(&self, seen: u64, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut guard = self.park.lock().unwrap();
        while self.work_generation.load(Ordering::Acquire) == seen {
            let Some(remaining) = deadline.checked_duration_since(std::time::Instant::now()) else {
                return false;
            };
            let (g, _res) = self.work_available.wait_timeout(guard, remaining).unwrap();
            guard = g;
        }
        true
    }

    /// Non-blocking keyed push to the `DEFAULT_LANE`; the
    /// backpressure-aware entry point.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when the target shard is at capacity,
    /// [`SubmitError::Closed`] after [`ShardedQueue::close`] — the
    /// rejected item rides back with the error, so the caller decides
    /// its fate (retry, fail its ticket, drop) instead of the queue
    /// silently destroying it.
    pub fn try_push(&self, key: u64, item: T) -> Result<(), (T, SubmitError)> {
        self.try_push_at(key, DEFAULT_LANE, item)
    }

    /// Non-blocking keyed push into priority lane `lane` (a
    /// [`crate::Priority::index`]). Capacity is shared across every lane
    /// of the shard, so a bulk flood exerts backpressure on everyone —
    /// admission, not the queue, is where priorities buy headroom.
    ///
    /// # Errors
    ///
    /// As [`ShardedQueue::try_push`].
    ///
    /// # Panics
    ///
    /// Panics when `lane >= PRIORITY_LANES`.
    pub fn try_push_at(&self, key: u64, lane: usize, item: T) -> Result<(), (T, SubmitError)> {
        assert!(lane < PRIORITY_LANES, "lane out of range");
        if self.closed.load(Ordering::Acquire) {
            return Err((item, SubmitError::Closed));
        }
        let shard = &self.shards[self.shard_for(key)];
        let mut st = shard.state.lock().unwrap();
        if self.closed.load(Ordering::Acquire) {
            drop(st);
            return Err((item, SubmitError::Closed));
        }
        if st.total() >= self.capacity_per_shard {
            drop(st);
            return Err((item, SubmitError::QueueFull));
        }
        st.lanes[lane].push_back((key, item));
        shard.set_depth(st.total());
        drop(st);
        self.bump_work_generation();
        Ok(())
    }

    /// Blocking keyed push to the `DEFAULT_LANE`: waits for space on
    /// the target shard.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Closed`] if the queue closes while waiting (the
    /// rejected item rides back with the error).
    pub fn push(&self, key: u64, item: T) -> Result<(), (T, SubmitError)> {
        self.push_at(key, DEFAULT_LANE, item)
    }

    /// Blocking keyed push into priority lane `lane`.
    ///
    /// # Errors
    ///
    /// As [`ShardedQueue::push`].
    ///
    /// # Panics
    ///
    /// Panics when `lane >= PRIORITY_LANES`.
    pub fn push_at(&self, key: u64, lane: usize, item: T) -> Result<(), (T, SubmitError)> {
        assert!(lane < PRIORITY_LANES, "lane out of range");
        let shard = &self.shards[self.shard_for(key)];
        let mut st = shard.state.lock().unwrap();
        loop {
            if self.closed.load(Ordering::Acquire) {
                drop(st);
                return Err((item, SubmitError::Closed));
            }
            if st.total() < self.capacity_per_shard {
                st.lanes[lane].push_back((key, item));
                shard.set_depth(st.total());
                drop(st);
                self.bump_work_generation();
                return Ok(());
            }
            st = shard.not_full.wait(st).unwrap();
        }
    }

    /// Drains up to `max` items from `home` without blocking. `None`
    /// when the home shard is empty (then try [`ShardedQueue::try_steal`]).
    ///
    /// The drain comes from a single lane — the one the aging-aware
    /// selection picks — so a chunk never interleaves priorities.
    pub fn try_pop_home(&self, home: usize, max: usize) -> Option<Vec<T>> {
        let shard = &self.shards[home];
        let mut st = shard.state.lock().unwrap();
        let lane = st.choose_lane()?;
        let items = &mut st.lanes[lane];
        let n = items.len().min(max.max(1));
        let batch: Vec<T> = items.drain(..n).map(|(_, item)| item).collect();
        shard.set_depth(st.total());
        drop(st);
        shard.not_full.notify_all();
        Some(batch)
    }

    /// Steals the largest batchable run — the most items sharing one
    /// key, capped at `max` — from the most-loaded shard other than
    /// `thief_home`. Victims are tried in decreasing-depth order, so a
    /// race with another thief falls through to the next candidate.
    ///
    /// The run comes from one lane of the victim, picked by the same
    /// aging-aware selection home drains use, so stealing respects both
    /// the priority order and the starvation bound.
    pub fn try_steal(&self, thief_home: usize, max: usize) -> Option<StolenRun<T>> {
        let mut candidates: Vec<(usize, usize)> = self
            .shards
            .iter()
            .enumerate()
            .filter(|&(i, s)| i != thief_home && s.depth.load(Ordering::Acquire) > 0)
            .map(|(i, s)| (i, s.depth.load(Ordering::Acquire)))
            .collect();
        candidates.sort_by_key(|&(_, depth)| std::cmp::Reverse(depth));
        for (victim, _) in candidates {
            let shard = &self.shards[victim];
            let mut st = shard.state.lock().unwrap();
            let Some(lane) = st.choose_lane() else {
                continue; // lost the race to another consumer
            };
            let items = &mut st.lanes[lane];
            // Find the key with the longest run (ties → first seen, which
            // keeps the steal deterministic for a given queue state).
            let mut best_key = items[0].0;
            let mut best_count = 0usize;
            let mut counts: Vec<(u64, usize)> = Vec::new();
            for &(key, _) in items.iter() {
                match counts.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, c)) => *c += 1,
                    None => counts.push((key, 1)),
                }
            }
            for (key, count) in counts {
                if count > best_count {
                    best_key = key;
                    best_count = count;
                }
            }
            let take = best_count.min(max.max(1));
            let mut stolen = Vec::with_capacity(take);
            let mut kept = VecDeque::with_capacity(items.len() - take);
            for (key, item) in items.drain(..) {
                if key == best_key && stolen.len() < take {
                    stolen.push(item);
                } else {
                    kept.push_back((key, item));
                }
            }
            st.lanes[lane] = kept;
            shard.set_depth(st.total());
            drop(st);
            shard.not_full.notify_all();
            return Some(StolenRun {
                from_shard: victim,
                key: best_key,
                items: stolen,
            });
        }
        None
    }

    /// Empties every shard (shutdown sweep for orphaned entries), lanes
    /// in priority order within each shard.
    pub fn drain_all(&self) -> Vec<T> {
        let mut all = Vec::new();
        for shard in &self.shards {
            let mut st = shard.state.lock().unwrap();
            for lane in 0..PRIORITY_LANES {
                all.extend(st.lanes[lane].drain(..).map(|(_, item)| item));
            }
            shard.set_depth(0);
            drop(st);
            shard.not_full.notify_all();
        }
        all
    }

    /// Closes the queue: pending items still drain, new pushes fail, and
    /// every blocked producer and parked consumer wakes (`notify_all` on
    /// each shard's `not_full` *and* the work condvar — a blocked
    /// `submit_blocking` caller must observe [`SubmitError::Closed`],
    /// never hang).
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        for shard in &self.shards {
            // Take the lock so no producer is between its closed-check
            // and its wait when the notification fires.
            let _st = shard.state.lock().unwrap();
            shard.not_full.notify_all();
        }
        // Unlike a push (one item ⇒ one consumer), close concerns every
        // parked consumer: wake them all so they can observe shutdown.
        self.work_generation.fetch_add(1, Ordering::Release);
        drop(self.park.lock().unwrap());
        self.work_available.notify_all();
    }

    /// True once closed.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn sharded_routes_by_key_and_reports_depths() {
        let q: ShardedQueue<u32> = ShardedQueue::new(4, 16);
        assert_eq!(q.shards(), 4);
        assert_eq!(q.capacity_per_shard(), 4);
        q.try_push(0, 10).unwrap();
        q.try_push(0, 11).unwrap();
        q.try_push(1, 20).unwrap();
        assert_eq!(q.shard_depths(), vec![2, 1, 0, 0]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.try_pop_home(0, 8), Some(vec![10, 11]));
        assert_eq!(q.try_pop_home(0, 8), None);
        assert_eq!(q.try_pop_home(1, 8), Some(vec![20]));
        assert!(q.is_empty());
    }

    #[test]
    fn sharded_backpressure_is_per_shard() {
        let q: ShardedQueue<u32> = ShardedQueue::new(2, 4);
        q.try_push(0, 1).unwrap();
        q.try_push(0, 2).unwrap();
        assert_eq!(q.try_push(0, 3), Err((3, SubmitError::QueueFull)));
        // The other shard still has room.
        q.try_push(1, 4).unwrap();
    }

    #[test]
    fn steal_takes_largest_run_from_most_loaded_victim() {
        let q: ShardedQueue<u32> = ShardedQueue::new(3, 30);
        // Shard 0: key 0 × 2. Shard 1: key 1 × 3 and key 4 × 1 (4 % 3 = 1).
        q.try_push(0, 1).unwrap();
        q.try_push(0, 2).unwrap();
        q.try_push(1, 10).unwrap();
        q.try_push(4, 40).unwrap();
        q.try_push(1, 11).unwrap();
        q.try_push(1, 12).unwrap();
        // Thief homed on shard 2: victim is shard 1 (depth 4), largest
        // run there is key 1 (3 items), stolen in order.
        let run = q.try_steal(2, 8).unwrap();
        assert_eq!(run.from_shard, 1);
        assert_eq!(run.key, 1);
        assert_eq!(run.items, vec![10, 11, 12]);
        // The off-key item survives on the victim.
        assert_eq!(q.try_pop_home(1, 8), Some(vec![40]));
        // Next steal falls through to shard 0.
        let run = q.try_steal(2, 1).unwrap();
        assert_eq!(run.from_shard, 0);
        assert_eq!(run.items, vec![1]);
    }

    #[test]
    fn steal_respects_max_and_finds_nothing_when_empty() {
        let q: ShardedQueue<u32> = ShardedQueue::new(2, 8);
        assert!(q.try_steal(0, 4).is_none());
        for i in 0..4 {
            q.try_push(1, i).unwrap();
        }
        let run = q.try_steal(0, 2).unwrap();
        assert_eq!(run.items, vec![0, 1]);
        assert_eq!(q.shard_depths(), vec![0, 2]);
    }

    #[test]
    fn sharded_close_unblocks_blocked_producer_with_closed() {
        let q: Arc<ShardedQueue<u32>> = Arc::new(ShardedQueue::new(2, 2));
        q.try_push(0, 1).unwrap();
        let prod = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.push(0, 2))
        };
        thread::sleep(Duration::from_millis(20));
        q.close();
        // The blocked producer gets both the verdict and its item back.
        assert_eq!(prod.join().unwrap(), Err((2, SubmitError::Closed)));
        assert_eq!(q.try_push(2, 3), Err((3, SubmitError::Closed)));
        // Pending items still drain after close.
        assert_eq!(q.try_pop_home(0, 4), Some(vec![1]));
    }

    #[test]
    fn wait_for_work_generation_token_sees_racing_push() {
        let q: Arc<ShardedQueue<u32>> = Arc::new(ShardedQueue::new(1, 4));
        let seen = q.generation();
        q.try_push(0, 1).unwrap();
        // The push already bumped the generation: no parking at all.
        assert!(q.wait_for_work(seen, Duration::from_secs(5)));
        let seen = q.generation();
        assert!(
            !q.wait_for_work(seen, Duration::from_millis(10)),
            "times out idle"
        );
        // A push while parked wakes the waiter.
        let waiter = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.wait_for_work(seen, Duration::from_secs(5)))
        };
        thread::sleep(Duration::from_millis(20));
        q.try_push(0, 2).unwrap();
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn drain_all_empties_every_shard() {
        let q: ShardedQueue<u32> = ShardedQueue::new(3, 9);
        for key in 0..3u64 {
            for i in 0..2 {
                q.try_push(key, (key * 10 + i) as u32).unwrap();
            }
        }
        let mut all = q.drain_all();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 10, 11, 20, 21]);
        assert!(q.is_empty());
    }

    #[test]
    fn higher_priority_lane_preempts_lower() {
        let q: ShardedQueue<u32> = ShardedQueue::new(1, 16);
        q.try_push_at(0, 2, 200).unwrap(); // bulk arrives first
        q.try_push_at(0, 1, 100).unwrap();
        q.try_push_at(0, 0, 1).unwrap(); // interactive arrives last
        assert_eq!(q.try_pop_home(0, 8), Some(vec![1]));
        assert_eq!(q.try_pop_home(0, 8), Some(vec![100]));
        assert_eq!(q.try_pop_home(0, 8), Some(vec![200]));
    }

    #[test]
    fn aging_bounds_the_service_gap_of_a_starved_lane() {
        let q: ShardedQueue<u32> = ShardedQueue::new(1, 256);
        q.try_push_at(0, 2, 999).unwrap(); // the one bulk item
        for i in 0..32 {
            q.try_push_at(0, 0, i).unwrap(); // interactive flood
        }
        // With an interactive lane that never empties, the bulk item must
        // still be served within LANE_AGING_LIMIT + 1 dispatches.
        let mut pops = 0;
        loop {
            let got = q.try_pop_home(0, 1).unwrap();
            pops += 1;
            if got == vec![999] {
                break;
            }
            assert!(
                pops <= LANE_AGING_LIMIT as usize + 1,
                "bulk item starved for {pops} dispatches"
            );
        }
    }

    #[test]
    fn steal_serves_the_victims_priority_lanes_in_order() {
        let q: ShardedQueue<u32> = ShardedQueue::new(2, 16);
        q.try_push_at(0, 2, 20).unwrap();
        q.try_push_at(0, 2, 21).unwrap();
        q.try_push_at(0, 0, 5).unwrap();
        // Thief homed on shard 1: the victim's interactive lane wins even
        // though the bulk lane holds the larger run.
        let run = q.try_steal(1, 8).unwrap();
        assert_eq!(run.from_shard, 0);
        assert_eq!(run.items, vec![5]);
        let run = q.try_steal(1, 8).unwrap();
        assert_eq!(run.items, vec![20, 21]);
    }

    #[test]
    fn lanes_share_one_capacity_budget() {
        let q: ShardedQueue<u32> = ShardedQueue::new(1, 2);
        q.try_push_at(0, 0, 1).unwrap();
        q.try_push_at(0, 2, 2).unwrap();
        assert_eq!(q.try_push_at(0, 1, 3), Err((3, SubmitError::QueueFull)));
    }
}
