//! Two-tier content-addressed result cache.
//!
//! Completed results are stored under their job [`Fingerprint`]; a
//! resubmission of an identical job is served without touching the
//! queue or the workers. Deterministic jobs (every [`crate::DftJob`]
//! is — MD takes an explicit seed) make this sound.
//!
//! # Tier 1: bounded memory, cost-weighted eviction
//!
//! The in-memory tier is bounded and evicts by [`CachePolicy`]:
//!
//! * [`CachePolicy::Fifo`] — the original engine's policy, oldest
//!   insertion out first. Kept as the bit-for-bit A/B baseline.
//! * [`CachePolicy::CostWeighted`] — every entry carries the planner's
//!   **modeled compute cost** for the job that produced it (seconds on
//!   the paper's machine model, threaded from the
//!   [`crate::PlacementDecision`] through the worker's fulfill path),
//!   and eviction removes the entry whose cost no longer justifies its
//!   age: the minimum *cost/age score*. A cheap MD segment must not be
//!   able to push out a Casida solve that cost 100× more modeled time
//!   to produce — re-creating the expensive entry on a future repeat
//!   costs the service 100× more than re-running the cheap one.
//!
//! The score is tracked with the classic *GreedyDual aging trick* so
//! the victim lookup stays a keyed priority index instead of an O(n)
//! scan: a monotone eviction clock `L` starts at 0, an entry inserted
//! (or refreshed) while the clock reads `L` is keyed at `score = L +
//! cost`, the victim is always the minimum score in a `BTreeSet`
//! keyed by `(score, seq)`, and the clock advances to each victim's
//! score. An entry therefore survives exactly until the clock has
//! advanced by its full cost since insertion — equivalently, it is
//! evicted once its `cost / (clock advance since insertion)` ratio
//! ("cost per unit age") drops to the bottom of the cache, which is
//! what "minimum cost/age score" means here. Expensive entries buy
//! proportionally long residencies; nothing is immortal.
//!
//! ## Worked example
//!
//! Capacity 2, clock `L = 0`. Insert `md₁` (cost 1 s) → score 1, then
//! `casida` (cost 100 s) → score 100. Inserting `md₂` (cost 1 s,
//! score 1) overflows: the minimum score is 1, so `md₁` is evicted and
//! the clock advances to `L = 1`. A further `md₃` (cost 1) enters at
//! score `1 + 1 = 2`, evicting `md₂` (score 1) and advancing `L` to 2.
//! The flood of cheap segments keeps cycling among themselves — each
//! new one out-scores only its predecessor — while `casida` survives
//! until ~100 seconds of modeled cost have churned past, i.e. about a
//! hundred cheap insertions rather than one. Under FIFO, `md₂` alone
//! would have pushed `casida` out.
//!
//! ## The refresh-in-place corner case
//!
//! `store` on a fingerprint that is already resident does **not**
//! allocate a new slot, but the two policies treat the old slot
//! differently, and the difference is deliberate:
//!
//! * **FIFO** keeps the entry's original queue position — refreshing a
//!   value does not reset its age, so a re-inserted entry still evicts
//!   when its original cohort does (the seed engine's exact behavior).
//! * **Cost-weighted** re-keys the entry at the *current* clock
//!   (`score = L_now + cost`), so a refresh makes the eviction score
//!   fresh: the cache just proved this fingerprint recurs, which is
//!   precisely the signal that its retention should restart. The
//!   priority index is updated in place (old key out, new key in);
//!   capacity is unaffected.
//!
//! Memory hits never touch the score — lookups take only the read lock,
//! and the fast path stays contention-free.
//!
//! Every lookup runs memory first, then the disk tier:
//! [`ResultCache::fetch_tiered`] counts the outcome and names the
//! serving [`HitTier`], [`ResultCache::get`] drops the tier, and
//! [`ResultCache::peek`] counts only a disk promotion.
//! [`ResultCache::store`] is the one write path.
//!
//! # Tier 2: optional persistent disk (write-ahead log)
//!
//! With [`ResultCache::with_disk`], every `store` also appends the
//! encoded value to an append-only file under the configured directory
//! (see [`crate::persist`] for the format), keyed by the same
//! fingerprint. The lifecycle is **score → evict → spill → promote**:
//! values are written through on store (the spill happens *ahead* of
//! any eviction, so a memory eviction never loses data), a memory miss
//! falls through to the disk index, and a disk hit decodes the record
//! and **promotes** it back into the memory tier at its stored cost.
//! The tier survives engine restarts: a new cache opened on the same
//! directory rebuilds the index by scanning the log, which is how warm
//! results outlive the process that computed them. The scan decodes each
//! record, and one that is not exactly one value's encoding ends the
//! log there, as a failed checksum does.
//!
//! [`CacheStats`] counts each tier separately (`hits` vs `disk_hits`,
//! plus `bytes_persisted` and the resident `cost_retained_s` the bench
//! sweep gates on). With `CachePolicy::Fifo` and no disk directory the
//! cache reproduces the seed engine's observable behavior bit for bit.

use crate::fingerprint::Fingerprint;
use crate::persist::{Dec, DiskTier, Enc, PersistValue};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Which eviction policy the in-memory tier runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Oldest insertion out first, costs ignored — the seed engine's
    /// policy, kept as the A/B baseline (`serve_study` part 6).
    Fifo,
    /// Evict the minimum cost/age score (see the [module docs](self)):
    /// expensive results outlive floods of cheap ones in proportion to
    /// their modeled compute cost.
    #[default]
    CostWeighted,
}

impl CachePolicy {
    /// Short label for reports and bench JSON.
    pub fn label(&self) -> &'static str {
        match self {
            CachePolicy::Fifo => "fifo",
            CachePolicy::CostWeighted => "cost-weighted",
        }
    }
}

/// Counters for both cache tiers at one sampling instant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CacheStats {
    /// Lookups served by the in-memory tier.
    pub hits: u64,
    /// Lookups that missed both tiers.
    pub misses: u64,
    /// Entries evicted from the memory tier to respect capacity.
    pub evictions: u64,
    /// Entries resident in the memory tier.
    pub len: usize,
    /// Lookups that missed memory but were served (and promoted) from
    /// the disk tier — including worker-side rechecks.
    pub disk_hits: u64,
    /// Records indexed on disk (0 when the tier is off).
    pub disk_len: usize,
    /// Bytes the write-ahead file holds (0 when the tier is off).
    pub bytes_persisted: u64,
    /// Σ modeled compute cost of the entries resident in memory,
    /// seconds — the "how much work would a cold repeat of the cached
    /// population cost" gauge the cache-policy sweep compares.
    pub cost_retained_s: f64,
}

impl CacheStats {
    /// Field-wise accumulation of `other` into `self` — how
    /// [`crate::FederationReport`] rolls per-replica cache counters into
    /// one federation-wide view. Every field is a sum: counters add, and
    /// the gauges (`len`, `disk_len`, `bytes_persisted`,
    /// `cost_retained_s`) add too, because federated replicas hold
    /// disjoint cache populations (each fingerprint homes on one
    /// replica).
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.len += other.len;
        self.disk_hits += other.disk_hits;
        self.disk_len += other.disk_len;
        self.bytes_persisted += other.bytes_persisted;
        self.cost_retained_s += other.cost_retained_s;
    }

    /// Served lookups (either tier) over total lookups (0 when never
    /// queried). With the disk tier off this is exactly the seed
    /// engine's memory hit rate.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.disk_hits + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.disk_hits) as f64 / total as f64
        }
    }
}

/// Which lookup path served a result without executing it — carried on
/// [`crate::trace::TraceEventKind::CacheHit`] span events so traces
/// distinguish a warm memory hit from a disk promotion or an in-batch
/// dedup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitTier {
    /// Served by the in-memory tier.
    Memory,
    /// Served by the persistent tier (decoded and promoted).
    Disk,
    /// Served by another member of the same batch (worker-side dedup,
    /// never touches the cache tiers).
    Batch,
}

impl HitTier {
    /// Short label for trace exports.
    pub fn label(&self) -> &'static str {
        match self {
            HitTier::Memory => "memory",
            HitTier::Disk => "disk",
            HitTier::Batch => "batch",
        }
    }
}

/// Priority-index key: eviction score first, insertion sequence as the
/// tie-break (equal scores evict oldest-first, preserving FIFO order
/// among same-cost cohorts), fingerprint last so keys are unique.
///
/// Scores are non-negative finite floats, so their raw bit patterns
/// order identically to the values and the key can derive `Ord`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ScoreKey {
    score_bits: u64,
    seq: u64,
    key: Fingerprint,
}

struct Entry<V> {
    value: V,
    /// Modeled compute cost, seconds (0 for costless inserts).
    cost: f64,
    /// Priority-index key (only meaningful under `CostWeighted`).
    score: ScoreKey,
}

struct CacheMap<V> {
    map: HashMap<Fingerprint, Entry<V>>,
    /// FIFO insertion order (only maintained under `Fifo`).
    order: VecDeque<Fingerprint>,
    /// Keyed priority index (only maintained under `CostWeighted`).
    scores: BTreeSet<ScoreKey>,
    /// The GreedyDual eviction clock: advances to each victim's score.
    clock: f64,
    /// Monotone insertion counter (score tie-break).
    seq: u64,
    /// Σ cost of resident entries.
    cost_retained_s: f64,
}

/// Thread-safe bounded two-tier cache keyed by fingerprint.
///
/// See the [module docs](self) for the eviction policies and the disk
/// tier lifecycle. Memory hits take only the read lock; `store` and
/// disk promotion take the write lock; the disk tier has its own
/// internal lock touched only off the memory-hit path.
pub struct ResultCache<V> {
    inner: RwLock<CacheMap<V>>,
    capacity: usize,
    policy: CachePolicy,
    disk: Option<DiskTier>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    disk_hits: AtomicU64,
}

/// Sanitized eviction cost: non-negative and finite, so score ordering
/// by raw bits is total and the clock never poisons itself.
fn clean_cost(cost: f64) -> f64 {
    if cost.is_finite() && cost > 0.0 {
        cost
    } else {
        0.0
    }
}

/// The one value `bytes` encodes, exactly: `None` when it does not
/// decode or leaves bytes over.
fn decode_exact<V: PersistValue>(bytes: &[u8]) -> Option<V> {
    let mut dec = Dec::new(bytes);
    V::decode(&mut dec).filter(|_| dec.remaining() == 0)
}

impl<V: Clone + PersistValue> ResultCache<V> {
    /// Memory-only cache holding at most `capacity` results, evicting
    /// by `policy`.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn new(capacity: usize, policy: CachePolicy) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ResultCache {
            inner: RwLock::new(CacheMap {
                map: HashMap::new(),
                order: VecDeque::new(),
                scores: BTreeSet::new(),
                clock: 0.0,
                seq: 0,
                cost_retained_s: 0.0,
            }),
            capacity,
            policy,
            disk: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
        }
    }

    /// Two-tier cache: bounded memory evicting by `policy`, plus a
    /// persistent write-ahead tier under `dir` (created if missing; an
    /// existing log is scanned so prior sessions' results are warm).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating the directory or opening
    /// the log file. Corrupt log *content* is never an error — the
    /// scan keeps the valid prefix (see [`crate::persist`]).
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn with_disk(capacity: usize, policy: CachePolicy, dir: &Path) -> std::io::Result<Self> {
        let mut cache = ResultCache::new(capacity, policy);
        cache.disk = Some(DiskTier::open_checked(dir, |bytes| {
            decode_exact::<V>(bytes).is_some()
        })?);
        Ok(cache)
    }

    /// Two-tier lookup: memory first (a hit counts as `hits`), then
    /// the disk index (a hit decodes, **promotes into memory at the
    /// stored cost**, and counts as `disk_hits`); only a miss in both
    /// counts as a miss. Reports which tier served the hit (feeds trace
    /// span events).
    pub fn fetch_tiered(&self, key: &Fingerprint) -> Option<(V, HitTier)> {
        self.lookup(key, true)
    }

    /// [`ResultCache::fetch_tiered`] without the tier.
    pub fn get(&self, key: &Fingerprint) -> Option<V> {
        self.fetch_tiered(key).map(|(value, _)| value)
    }

    /// Two-tier lookup that leaves `hits` and `misses` alone (used by
    /// workers rechecking after dequeue). A disk promotion still counts
    /// as a disk hit: it does real decode work worth surfacing.
    pub fn peek(&self, key: &Fingerprint) -> Option<(V, HitTier)> {
        self.lookup(key, false)
    }

    fn lookup(&self, key: &Fingerprint, counted: bool) -> Option<(V, HitTier)> {
        if let Some(e) = self.inner.read().unwrap().map.get(key) {
            if counted {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            return Some((e.value.clone(), HitTier::Memory));
        }
        if let Some(value) = self.promote(key) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            return Some((value, HitTier::Disk));
        }
        if counted {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        None
    }

    /// Stores a result carrying the modeled compute cost (seconds) of
    /// the job that produced it. With a disk tier attached the value is
    /// first appended to the write-ahead log (the "spill" happens here,
    /// ahead of any eviction, so evicting from memory never loses a
    /// persisted result); then the memory tier takes it, evicting per
    /// policy when at capacity. Storing an existing key refreshes the
    /// value and cost without growing; see the [module docs](self) for
    /// how each policy treats the refreshed entry's age.
    pub fn store(&self, key: Fingerprint, value: V, cost: f64) {
        if let Some(disk) = &self.disk {
            let mut enc = Enc::new();
            value.encode(&mut enc);
            disk.append(key, clean_cost(cost), &enc.into_bytes());
        }
        self.insert(key, value, cost);
    }

    /// Decodes `key`'s record from the disk tier (if any) and inserts
    /// it into the memory tier at its stored cost.
    fn promote(&self, key: &Fingerprint) -> Option<V> {
        let disk = self.disk.as_ref()?;
        let (bytes, cost) = disk.get(key)?;
        let value = decode_exact::<V>(&bytes)?;
        self.insert(*key, value.clone(), cost);
        Some(value)
    }

    /// The memory-tier half of [`ResultCache::store`].
    fn insert(&self, key: Fingerprint, value: V, cost: f64) {
        let cost = clean_cost(cost);
        let mut inner = self.inner.write().unwrap();
        inner.seq += 1;
        let seq = inner.seq;
        let score = ScoreKey {
            score_bits: (inner.clock + cost).to_bits(),
            seq,
            key,
        };
        if let Some(existing) = inner.map.get_mut(&key) {
            // Refresh in place: value and cost always update; the FIFO
            // slot is untouched, the cost-weighted score is re-keyed at
            // the current clock (fresh age).
            existing.value = value;
            let old_cost = existing.cost;
            let old_score = existing.score;
            existing.cost = cost;
            existing.score = score;
            inner.cost_retained_s += cost - old_cost;
            if self.policy == CachePolicy::CostWeighted {
                inner.scores.remove(&old_score);
                inner.scores.insert(score);
            }
            return;
        }
        inner.map.insert(key, Entry { value, cost, score });
        inner.cost_retained_s += cost;
        match self.policy {
            CachePolicy::Fifo => inner.order.push_back(key),
            CachePolicy::CostWeighted => {
                inner.scores.insert(score);
            }
        }
        while inner.map.len() > self.capacity {
            let victim = match self.policy {
                CachePolicy::Fifo => inner.order.pop_front(),
                CachePolicy::CostWeighted => {
                    let min = inner.scores.first().copied();
                    if let Some(k) = min {
                        inner.scores.remove(&k);
                        // The clock only ever advances (scores enter at
                        // clock + cost ≥ clock), which is what ages the
                        // surviving population.
                        inner.clock = f64::from_bits(k.score_bits).max(inner.clock);
                        Some(k.key)
                    } else {
                        None
                    }
                }
            };
            match victim {
                Some(victim) => {
                    if let Some(gone) = inner.map.remove(&victim) {
                        inner.cost_retained_s -= gone.cost;
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => break,
            }
        }
    }

    /// Entries resident in the memory tier.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().map.len()
    }

    /// True when the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Σ modeled compute cost of memory-resident entries, seconds.
    pub fn cost_retained_s(&self) -> f64 {
        self.inner.read().unwrap().cost_retained_s
    }

    /// Counter snapshot across both tiers.
    pub fn stats(&self) -> CacheStats {
        let (len, cost_retained_s) = {
            let inner = self.inner.read().unwrap();
            (inner.map.len(), inner.cost_retained_s)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len,
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_len: self.disk.as_ref().map_or(0, DiskTier::len),
            bytes_persisted: self.disk.as_ref().map_or(0, DiskTier::bytes_persisted),
            cost_retained_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PersistValue for u32 {
        fn encode(&self, enc: &mut Enc) {
            enc.u32(*self);
        }

        fn decode(dec: &mut Dec<'_>) -> Option<Self> {
            dec.u32()
        }
    }

    fn fp(n: u128) -> Fingerprint {
        Fingerprint(n)
    }

    fn fifo(capacity: usize) -> ResultCache<u32> {
        ResultCache::new(capacity, CachePolicy::Fifo)
    }

    fn weighted(capacity: usize) -> ResultCache<u32> {
        ResultCache::new(capacity, CachePolicy::CostWeighted)
    }

    #[test]
    fn hit_and_miss_counting() {
        let c = fifo(4);
        assert_eq!(c.get(&fp(1)), None);
        c.store(fp(1), 10, 0.0);
        assert_eq!(c.get(&fp(1)), Some(10));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let c = fifo(2);
        c.store(fp(1), 1, 0.0);
        c.store(fp(2), 2, 0.0);
        c.store(fp(3), 3, 0.0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.peek(&fp(1)), None, "oldest entry evicted");
        assert_eq!(c.peek(&fp(3)), Some((3, HitTier::Memory)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let c = fifo(2);
        c.store(fp(1), 1, 0.0);
        c.store(fp(2), 2, 0.0);
        c.store(fp(1), 11, 0.0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.peek(&fp(1)), Some((11, HitTier::Memory)));
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn fifo_refresh_keeps_original_slot() {
        let c = fifo(2);
        c.store(fp(1), 1, 0.0);
        c.store(fp(2), 2, 0.0);
        c.store(fp(1), 11, 0.0); // refresh does NOT move 1 to the back
        c.store(fp(3), 3, 0.0);
        assert_eq!(c.peek(&fp(1)), None, "refreshed key still evicts first");
        assert_eq!(c.peek(&fp(2)), Some((2, HitTier::Memory)));
    }

    #[test]
    fn peek_does_not_count() {
        let c = fifo(2);
        c.store(fp(7), 7, 0.0);
        let _ = c.peek(&fp(7));
        let _ = c.peek(&fp(8));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
    }

    #[test]
    fn cost_weighted_keeps_expensive_entry_through_cheap_flood() {
        // The module docs' worked example, mechanized.
        let c = weighted(2);
        c.store(fp(100), 0, 100.0); // the Casida solve
        for i in 0..50u128 {
            c.store(fp(i), i as u32, 1.0); // cheap MD flood
        }
        assert_eq!(c.len(), 2);
        assert_eq!(
            c.peek(&fp(100)),
            Some((0, HitTier::Memory)),
            "expensive entry survives"
        );
        assert_eq!(
            c.peek(&fp(49)),
            Some((49, HitTier::Memory)),
            "newest cheap entry resident"
        );
        let s = c.stats();
        assert_eq!(s.evictions, 49);
        assert!((s.cost_retained_s - 101.0).abs() < 1e-12);
    }

    #[test]
    fn cost_weighted_entries_are_not_immortal() {
        // The clock advances past any finite cost eventually.
        let c = weighted(2);
        c.store(fp(1000), 0, 10.0);
        for i in 0..100u128 {
            c.store(fp(i), 0, 1.0);
        }
        assert_eq!(
            c.peek(&fp(1000)),
            None,
            "aged out after ~10 cost units of churn"
        );
    }

    #[test]
    fn cost_weighted_refresh_restarts_retention() {
        let c = weighted(2);
        c.store(fp(9), 0, 3.0);
        for i in 0..2u128 {
            c.store(fp(i), 0, 1.0);
        }
        // fp(9) has aged; a refresh re-keys it at the current clock.
        c.store(fp(9), 1, 3.0);
        for i in 10..12u128 {
            c.store(fp(i), 0, 1.0);
        }
        assert_eq!(
            c.peek(&fp(9)),
            Some((1, HitTier::Memory)),
            "refreshed score kept it alive"
        );
    }

    #[test]
    fn equal_costs_degrade_to_fifo_order() {
        let c = weighted(2);
        c.store(fp(1), 1, 2.0);
        c.store(fp(2), 2, 2.0);
        c.store(fp(3), 3, 2.0);
        assert_eq!(c.peek(&fp(1)), None, "oldest of the equal-score cohort");
        assert_eq!(c.peek(&fp(2)), Some((2, HitTier::Memory)));
        assert_eq!(c.peek(&fp(3)), Some((3, HitTier::Memory)));
    }

    #[test]
    fn cost_retained_tracks_residents_exactly() {
        let c = weighted(3);
        c.store(fp(1), 1, 5.0);
        c.store(fp(2), 2, 7.0);
        assert!((c.cost_retained_s() - 12.0).abs() < 1e-12);
        c.store(fp(2), 2, 9.0); // refresh updates cost
        assert!((c.cost_retained_s() - 14.0).abs() < 1e-12);
        c.store(fp(3), 3, 1.0);
        c.store(fp(4), 4, 1.0); // evicts the min-score entry
        let total: f64 = [1u128, 2, 3, 4]
            .iter()
            .filter(|&&k| c.peek(&fp(k)).is_some())
            .map(|&k| match k {
                1 => 5.0,
                2 => 9.0,
                _ => 1.0,
            })
            .sum();
        assert!((c.cost_retained_s() - total).abs() < 1e-12);
    }

    #[test]
    fn nonfinite_and_negative_costs_are_clamped() {
        let c = weighted(2);
        c.store(fp(1), 1, f64::NAN);
        c.store(fp(2), 2, -4.0);
        c.store(fp(3), 3, f64::INFINITY);
        assert_eq!(c.len(), 2);
        assert!((c.cost_retained_s() - 0.0).abs() < 1e-12);
    }
}
