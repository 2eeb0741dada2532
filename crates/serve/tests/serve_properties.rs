//! Property tests of the sharded submit/drain/steal protocol and the
//! cluster-view reservation lifecycle.
//!
//! The engine's correctness contract is *exactly-once delivery*: every
//! fingerprint pushed into the [`ShardedQueue`] comes out exactly once,
//! whatever interleaving of home drains and steals the dispatcher
//! happens to run. The properties drive the queue through randomized
//! job mixes, shard counts, and dequeue schedules, then check the
//! multiset of fingerprints survives unchanged.
//!
//! The placement layer's analogue is *no reservation leaks*: whatever
//! schedule of batch completions, interleavings, and mid-batch panics
//! the workers see, every [`ClusterView`] reservation is released and
//! the view returns to exactly zero — the property the load-aware
//! planner depends on to never drift.
//!
//! The async client API adds a third contract, the *lost-wakeup
//! invariant* of the ticket state machine: under any interleaving of
//! `poll`, waker registration/replacement, ticket clone, future drop,
//! and `fulfill`, every waker registered at fulfillment time is woken
//! **exactly once**, deregistered or replaced wakers are woken **zero**
//! times, and no future is left pending after fulfillment.
//!
//! The two-tier result cache adds three more: (a) *cost domination* —
//! on any schedule of fresh costed inserts and lookups, cost-weighted
//! eviction holds, at every prefix, at least as much total modeled
//! compute cost as FIFO does on the identical schedule (and both
//! policies' `cost_retained_s` gauge always equals the sum over their
//! residents); (b) the *disk tier round-trips every fingerprint
//! bit-exactly* — payload bytes and cost bit patterns (NaNs included)
//! survive append → reopen → get unchanged, last write per fingerprint
//! winning; (c) *corruption is survivable* — any truncation or byte
//! flip of the write-ahead file leaves reopen panic-free, every record
//! wholly before the damage still served intact, and the file usable
//! for new appends.
//!
//! The telemetry layer adds three of its own: (a) *bounded rank error*
//! — a [`LatencyHistogram`] quantile never undershoots the true order
//! statistic and overshoots by at most one log-bucket's width (12.5%),
//! while the recorded max is exact; (b) *shard-merge fidelity* — any
//! concurrent interleaving of recordings across the histogram's
//! thread-sharded banks merges to exactly the snapshot sequential
//! recording produces; (c) *span-chain completeness* — every traced
//! job's event chain opens with its admission, closes with exactly one
//! ticket fulfillment, stays inside the [admission, fulfill] window,
//! and orders its core stages enqueue ≤ plan ≤ execute ≤ fulfill, on
//! the executed, in-batch-dedup, and cache-served paths alike.
//!
//! The QoS layer adds two more: (a) *cancel/fulfill races resolve
//! exactly once* — under any interleaving of racing cancellers and the
//! worker's resolver, precisely one side wins the ticket state machine,
//! `cancel()` reports the winner truthfully, every waiter observes the
//! winner's result, and a registered waker fires exactly once; (b) *no
//! priority lane starves* — under any push/pop schedule, the aging
//! escape hatch serves every nonempty lane within a bounded number of
//! dispatches, while delivery stays exactly-once and per-lane FIFO.
//!
//! The workflow DAG coordinator adds three: (a) *dependency-release
//! ordering* — on any random DAG, the session completion stream never
//! delivers a node before all of its parents, because a node is only
//! released into the queues once its last parent's ticket fulfilled;
//! (b) *rejected specs leak nothing* — any cyclic, dangling-edge, or
//! self-edge spec is refused before a single ticket, counter, or
//! registry entry exists; (c) *mid-flood teardown resolves every node
//! exactly once* — under any mix of node cancellations and an engine
//! shutdown racing a flood of workflows, every node ticket resolves,
//! and the extended conservation invariant (`submitted == completed +
//! failed + cancelled + deadline_dropped + orphaned`) closes the books.
//!
//! The federation's consistent-hash router adds the last two: (a)
//! *bounded imbalance* — with ≥ 64 virtual nodes per replica, any ring
//! of ≥ 4 replicas keeps the busiest replica's key share within 1.35×
//! the mean over any drawn fingerprint population; (b) *minimal
//! disruption* — removing one replica remaps exactly the keys it
//! owned (every other key keeps its home), the churn guarantee replica
//! failover leans on to keep surviving caches warm.

use ndft_serve::{
    block_on, plan_placement, CachePolicy, ClusterView, Dec, DftJob, DftService, DiskTier, Enc,
    Fingerprint, HashRing, JobError, JobTicket, LatencyHistogram, NodeId, PersistValue,
    PlacementPolicy, Reservation, ResultCache, ServeConfig, ShardedQueue, TicketFuture,
    TicketResolver, TraceEvent, TraceEventKind, WorkflowSpec,
};
use proptest::prelude::*;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

/// Waker that only counts — the property suite's wake observer.
struct CountingWake {
    wakes: AtomicU64,
}

impl CountingWake {
    fn new() -> Arc<Self> {
        Arc::new(CountingWake {
            wakes: AtomicU64::new(0),
        })
    }

    fn count(&self) -> u64 {
        self.wakes.load(Ordering::SeqCst)
    }
}

impl Wake for CountingWake {
    fn wake(self: Arc<Self>) {
        self.wakes.fetch_add(1, Ordering::SeqCst);
    }
}

/// One live future view of the shared ticket, with the model's view of
/// its waker wiring: `current` is the waker the next poll will hand in,
/// `registered` the waker currently sitting in the ticket's registry
/// (i.e. the one handed in at the last `Pending` poll).
struct FutureSlot {
    future: TicketFuture,
    current: usize,
    registered: Option<usize>,
}

/// Builds a job stream from drawn class parameters; the index is the MD
/// seed, so every job has a distinct fingerprint even within a class.
fn job_stream(classes: &[(u64, usize)]) -> Vec<DftJob> {
    classes
        .iter()
        .enumerate()
        .map(|(i, &(cells, steps))| DftJob::MdSegment {
            atoms: (cells as usize) * 8,
            steps,
            temperature_k: 300.0,
            seed: i as u64,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any interleaving of home drains and steals delivers every
    /// fingerprint exactly once — nothing lost, nothing duplicated.
    #[test]
    fn sharded_submit_drain_preserves_every_fingerprint_exactly_once(
        classes in prop::collection::vec((1u64..5, 1usize..4), 1..40),
        shards in 1usize..5,
        workers in 1usize..5,
        schedule in prop::collection::vec((0usize..8, 1usize..6), 0..120),
    ) {
        let jobs = job_stream(&classes);
        // Capacity sized so even a fully skewed mix fits one shard.
        let q: ShardedQueue<Fingerprint> =
            ShardedQueue::new(shards, jobs.len() * shards);
        for job in &jobs {
            q.try_push(job.workload_class().shard_key(), job.fingerprint()).unwrap();
        }
        prop_assert_eq!(q.len(), jobs.len());

        // Replay the drawn dispatcher schedule: each step is one worker
        // doing exactly what `worker_loop` does — home drain first, then
        // steal from the most-loaded victim.
        let mut collected: Vec<Fingerprint> = Vec::new();
        for &(w, max_batch) in &schedule {
            let home = (w % workers) % shards;
            if let Some(batch) = q.try_pop_home(home, max_batch) {
                collected.extend(batch);
            } else if let Some(run) = q.try_steal(home, max_batch) {
                prop_assert!(run.from_shard != home, "never steals from home");
                prop_assert!(!run.items.is_empty(), "a steal always carries items");
                collected.extend(run.items);
            }
        }
        // Whatever the schedule left behind is the shutdown sweep's job.
        q.close();
        collected.extend(q.drain_all());

        let mut want: Vec<Fingerprint> = jobs.iter().map(DftJob::fingerprint).collect();
        want.sort();
        collected.sort();
        prop_assert_eq!(collected, want, "fingerprint multiset must survive");
    }

    /// Stolen runs are key-coherent: every item in one steal shares the
    /// victim's reported shard key, so the run batches under one plan.
    #[test]
    fn stolen_runs_share_one_shard_key(
        classes in prop::collection::vec((1u64..5, 1usize..4), 2..40),
        shards in 2usize..5,
    ) {
        let jobs = job_stream(&classes);
        let q: ShardedQueue<(u64, Fingerprint)> =
            ShardedQueue::new(shards, jobs.len() * shards);
        for job in &jobs {
            let key = job.workload_class().shard_key();
            q.try_push(key, (key, job.fingerprint())).unwrap();
        }
        // Steal everything through a thief homed on each shard in turn.
        let mut rounds = 0usize;
        loop {
            let mut stole_any = false;
            for thief in 0..shards {
                if let Some(run) = q.try_steal(thief, usize::MAX) {
                    prop_assert!(run.items.iter().all(|&(k, _)| k == run.key),
                        "run mixes shard keys");
                    stole_any = true;
                }
            }
            rounds += 1;
            if !stole_any || rounds > jobs.len() + shards {
                break;
            }
        }
        // With >= 2 shards a thief reaches every other shard; only the
        // thief-cycle's blind spot (nothing) may remain.
        prop_assert!(q.is_empty() || shards == 1);
    }

    /// After ANY schedule of batch completions and panics, the cluster
    /// view returns to exactly zero reservations — the panic-safe worker
    /// path cannot leak modeled busy time into future placement
    /// decisions. Ops are (shard, cpu_tenths, ndp_tenths, action):
    /// action 0 reserves and holds, 1 releases the oldest held
    /// reservation, 2 releases the newest, and 3 simulates a worker
    /// panicking mid-batch with the reservation live (the `Drop` guard
    /// must release it during unwind, exactly as in
    /// `process_batch`'s `catch_unwind`).
    #[test]
    fn cluster_reservations_never_leak(
        shards in 1usize..6,
        ops in prop::collection::vec((0usize..8, 0u32..500, 0u32..500, 0usize..4), 0..80),
    ) {
        let view = ClusterView::new(shards);
        let mut held: Vec<Reservation<'_>> = Vec::new();
        let mut live = 0u64; // reservations currently held, cross-checked below
        for &(shard, cpu_tenths, ndp_tenths, action) in &ops {
            let (cpu_s, ndp_s) = (cpu_tenths as f64 / 10.0, ndp_tenths as f64 / 10.0);
            match action {
                0 => {
                    held.push(view.reserve(shard, cpu_s, ndp_s));
                    live += 1;
                }
                1 if !held.is_empty() => {
                    held.remove(0);
                    live -= 1;
                }
                2 if !held.is_empty() => {
                    held.pop();
                    live -= 1;
                }
                3 => {
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        let _guard = view.reserve(shard, cpu_s, ndp_s);
                        panic!("solver panicked mid-batch");
                    }));
                    prop_assert!(result.is_err());
                }
                _ => {}
            }
            // The live aggregate always equals the held count: panicked
            // reservations are gone the moment the unwind passes.
            prop_assert_eq!(view.snapshot().inflight_batches(), live);
        }
        drop(held);
        // Exactly zero — integer-nanosecond bookkeeping means release is
        // exact, not merely within float epsilon.
        prop_assert!(view.is_idle(), "cluster view drifted: {:?}", view.snapshot());
        let s = view.snapshot();
        prop_assert_eq!(s.cpu_reserved_s, 0.0);
        prop_assert_eq!(s.ndp_reserved_s, 0.0);
        prop_assert_eq!(s.inflight_batches(), 0);
    }

    /// The lost-wakeup invariant of the ticket state machine. Ops are
    /// (action, index) applied to a pool of future views of ONE shared
    /// ticket: 0 creates a future (fresh waker), 1 polls one, 2 drops
    /// one, 3 hands a future a fresh waker for its NEXT poll — the old
    /// waker stays registered (and must still fire at fulfillment)
    /// until a later `Pending` poll replaces the entry in place, 4
    /// clones the ticket handle and makes a future from the clone (same
    /// state machine). `fulfill_at` picks where in the schedule
    /// fulfillment lands. Afterwards: wakers registered at
    /// fulfillment time fired exactly once, every other waker exactly
    /// zero times, and every surviving future polls `Ready` — none is
    /// left pending.
    #[test]
    fn ticket_wakers_fire_exactly_once_and_no_future_stays_pending(
        ops in prop::collection::vec((0usize..5, 0usize..8), 1..80),
        fulfill_at in 0usize..81,
    ) {
        let (ticket, resolver) = JobTicket::promise(Fingerprint(0xF00D));
        let mut resolver = Some(resolver);
        let mut wakers: Vec<Arc<CountingWake>> = Vec::new();
        let mut slots: Vec<FutureSlot> = Vec::new();
        // Indices (into `wakers`) expected to fire, snapshotted at the
        // instant of fulfillment; everything else must stay at zero.
        let mut expect_woken: Vec<usize> = Vec::new();
        let mut fulfilled = false;

        let fresh_waker = |wakers: &mut Vec<Arc<CountingWake>>| {
            wakers.push(CountingWake::new());
            wakers.len() - 1
        };
        let new_slot = |t: &JobTicket, wakers: &mut Vec<Arc<CountingWake>>| FutureSlot {
            future: t.future(),
            current: {
                wakers.push(CountingWake::new());
                wakers.len() - 1
            },
            registered: None,
        };

        let fulfill = |resolver: &mut Option<TicketResolver>,
                           slots: &[FutureSlot],
                           expect_woken: &mut Vec<usize>| {
            // The registry at this instant is exactly the live slots'
            // last-Pending wakers; fulfillment must fire each once.
            expect_woken.extend(slots.iter().filter_map(|s| s.registered));
            resolver.take().expect("fulfill once").fulfill(Err(JobError::ShutDown));
        };

        let fulfill_pos = fulfill_at.min(ops.len());
        for (step, &(action, index)) in ops.iter().enumerate() {
            if step == fulfill_pos && !fulfilled {
                fulfill(&mut resolver, &slots, &mut expect_woken);
                fulfilled = true;
            }
            match action {
                0 => slots.push(new_slot(&ticket, &mut wakers)),
                1 if !slots.is_empty() => {
                    let pick = index % slots.len();
                    let slot = &mut slots[pick];
                    let waker = Waker::from(Arc::clone(&wakers[slot.current]));
                    let mut cx = Context::from_waker(&waker);
                    match Pin::new(&mut slot.future).poll(&mut cx) {
                        Poll::Ready(result) => {
                            prop_assert!(fulfilled, "Ready before fulfillment");
                            prop_assert_eq!(result.unwrap_err(), JobError::ShutDown);
                            slot.registered = None;
                        }
                        Poll::Pending => {
                            prop_assert!(!fulfilled, "pending after fulfillment");
                            // A Pending poll (re)registers: the previous
                            // registration is replaced in place.
                            slot.registered = Some(slot.current);
                        }
                    }
                }
                2 if !slots.is_empty() => {
                    // Dropping deregisters: the waker must never fire
                    // (pre-fulfill) — post-fulfill its fate was already
                    // sealed at fulfillment time.
                    slots.swap_remove(index % slots.len());
                }
                3 if !slots.is_empty() => {
                    let pick = index % slots.len();
                    slots[pick].current = fresh_waker(&mut wakers);
                }
                4 => slots.push(new_slot(&ticket.clone(), &mut wakers)),
                _ => {}
            }
        }
        if !fulfilled {
            fulfill(&mut resolver, &slots, &mut expect_woken);
        }

        // No future is left pending after fulfillment.
        for slot in &mut slots {
            let waker = Waker::from(Arc::clone(&wakers[slot.current]));
            let mut cx = Context::from_waker(&waker);
            match Pin::new(&mut slot.future).poll(&mut cx) {
                Poll::Ready(result) => prop_assert_eq!(result.unwrap_err(), JobError::ShutDown),
                Poll::Pending => prop_assert!(false, "future pending after fulfillment"),
            }
        }
        prop_assert!(ticket.is_done());

        // Exactly-once accounting: registered-at-fulfillment wakers
        // fired once, everything else (replaced, dropped, post-fulfill,
        // never-registered) exactly zero times.
        for (i, waker) in wakers.iter().enumerate() {
            let expected = u64::from(expect_woken.contains(&i));
            prop_assert_eq!(
                waker.count(),
                expected,
                "waker {} fired {} times, expected {}",
                i,
                waker.count(),
                expected
            );
        }
    }
}

/// The same invariant under real thread interleavings: many `block_on`
/// waiters race one fulfiller; every waiter must resolve (no lost
/// wakeup ⇒ no hang) with the shared result.
#[test]
fn concurrent_block_on_waiters_never_miss_the_wakeup() {
    for _round in 0..64 {
        let (ticket, resolver) = JobTicket::promise(Fingerprint(0xBEEF));
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let future = ticket.future();
                std::thread::spawn(move || block_on(future))
            })
            .collect();
        // No synchronization on purpose: fulfillment races the waiters'
        // first polls, exercising both the register-then-wake and the
        // observe-result-directly paths.
        resolver.fulfill(Err(JobError::ShutDown));
        for waiter in waiters {
            assert_eq!(waiter.join().unwrap().unwrap_err(), JobError::ShutDown);
        }
    }
}

// ---------------------------------------------------------------------
// Two-tier cache properties
// ---------------------------------------------------------------------

/// A unique scratch directory per proptest case (cases run in one
/// process, possibly on several threads).
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "ndft-serve-prop-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A cache value for the property tests: an index, encoded as one word.
#[derive(Clone)]
struct Slot(usize);

impl PersistValue for Slot {
    fn encode(&self, enc: &mut Enc) {
        enc.count(self.0);
    }

    fn decode(dec: &mut Dec<'_>) -> Option<Self> {
        dec.u64().map(|v| Slot(v as usize))
    }
}

/// Σ cost over the keys a cache actually holds, via `peek` (which
/// never touches counters or scores).
fn resident_cost(cache: &ResultCache<Slot>, costs: &[f64]) -> f64 {
    (0..costs.len())
        .filter(|&k| cache.peek(&Fingerprint(k as u128)).is_some())
        .map(|k| costs[k])
        .sum()
}

proptest! {
    /// Cache property (a): cost domination. Random schedules of costed
    /// inserts (fresh fingerprints, random costs — the engine's
    /// regime: a result is inserted when it was executed, i.e. when it
    /// was *not* resident) interleaved with lookups of arbitrary
    /// earlier keys; at every prefix the cost-weighted cache ends
    /// holding at least as much total modeled cost as the FIFO cache
    /// fed the identical schedule, and both policies' retained-cost
    /// gauges match an independent recount of their residents.
    ///
    /// Scope note: domination is a theorem for fresh-fingerprint
    /// schedules (the eviction clock is monotone, so whenever the
    /// cost-weighted policy prefers an older entry over a younger one,
    /// the older one costs strictly more). It is deliberately *not*
    /// claimed for schedules that re-insert a fingerprint the cache
    /// still holds: aging exists precisely so a stale expensive entry
    /// can eventually lose to fresh traffic, and an adversarial repeat
    /// pattern can make FIFO's window luckier on one draw. The repeat
    /// regime is covered end-to-end by `serve_study` part 6, which
    /// gates cost-weighted retention strictly above FIFO's on the
    /// skewed repeat mix, and by the unit suite in `cache.rs`.
    #[test]
    fn cost_weighted_retains_at_least_fifo_cost(
        capacity in 1usize..8,
        ops in proptest::collection::vec((0u8..4, 0.0f64..100.0), 1..250),
    ) {
        let fifo: ResultCache<Slot> = ResultCache::new(capacity, CachePolicy::Fifo);
        let weighted: ResultCache<Slot> = ResultCache::new(capacity, CachePolicy::CostWeighted);
        let mut costs: Vec<f64> = Vec::new();
        for (op, x) in ops {
            if op < 3 {
                // Inserts outnumber lookups: eviction churn is the point.
                let key = Fingerprint(costs.len() as u128);
                fifo.store(key, Slot(costs.len()), x);
                weighted.store(key, Slot(costs.len()), x);
                costs.push(x);
            } else if !costs.is_empty() {
                let key = Fingerprint((x as usize % costs.len()) as u128);
                // Lookups never perturb either policy's eviction state
                // (hits are read-lock-only) — but both caches must
                // agree with their own bookkeeping below regardless.
                let _ = (fifo.get(&key), weighted.get(&key));
            }
            prop_assert!(
                weighted.cost_retained_s() >= fifo.cost_retained_s() - 1e-9,
                "cost-weighted retained {} < fifo {}",
                weighted.cost_retained_s(),
                fifo.cost_retained_s()
            );
        }
        prop_assert!(fifo.len() <= capacity);
        prop_assert!(weighted.len() <= capacity);
        // The gauge is exactly the residents' cost sum, for both.
        prop_assert!((fifo.stats().cost_retained_s - resident_cost(&fifo, &costs)).abs() < 1e-6);
        prop_assert!(
            (weighted.stats().cost_retained_s - resident_cost(&weighted, &costs)).abs() < 1e-6
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cache property (b): the disk tier round-trips every fingerprint
    /// bit-exactly across a reopen — payload bytes verbatim and the
    /// cost's full IEEE-754 bit pattern (arbitrary bits, NaNs and all),
    /// with the last write per fingerprint winning.
    #[test]
    fn disk_tier_roundtrips_every_fingerprint_bit_exactly(
        records in proptest::collection::vec(
            (
                // The stub's `any` stops at 64 bits; two lanes splice
                // into the full 128-bit fingerprint domain.
                (any::<u64>(), any::<u64>()),
                proptest::collection::vec(any::<u8>(), 0..200),
                any::<u64>(),
            ),
            1..24,
        ),
    ) {
        let records: Vec<(u128, Vec<u8>, u64)> = records
            .into_iter()
            .map(|((hi, lo), payload, cost)| (((hi as u128) << 64) | lo as u128, payload, cost))
            .collect();
        let dir = scratch_dir("roundtrip");
        {
            let tier = DiskTier::open(&dir).unwrap();
            for (fp, payload, cost_bits) in &records {
                tier.append(Fingerprint(*fp), f64::from_bits(*cost_bits), payload);
            }
        }
        let tier = DiskTier::open(&dir).unwrap();
        let mut last: std::collections::HashMap<u128, (&[u8], u64)> =
            std::collections::HashMap::new();
        for (fp, payload, cost_bits) in &records {
            last.insert(*fp, (payload.as_slice(), *cost_bits));
        }
        prop_assert_eq!(tier.len(), last.len());
        for (fp, (payload, cost_bits)) in last {
            let (bytes, cost) = tier.get(&Fingerprint(fp)).expect("record present");
            prop_assert_eq!(bytes.as_slice(), payload);
            prop_assert_eq!(cost.to_bits(), cost_bits, "cost bit pattern changed");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Cache property (c): corruption is survivable. Truncate the WAL
    /// and/or flip one byte anywhere in it; reopening must not panic,
    /// every record lying wholly before the damage must still be
    /// served intact, everything at or past it must be gone (never
    /// garbage), and the tier must accept fresh appends afterwards.
    #[test]
    fn corrupted_wal_is_skipped_never_panics(
        n_records in 1usize..12,
        payload_len in 1usize..64,
        damage_at in any::<u64>(),
        mode in 0u8..3,
    ) {
        let dir = scratch_dir("corrupt");
        let mut ends = Vec::new(); // end offset of each record
        let path = {
            let tier = DiskTier::open(&dir).unwrap();
            for i in 0..n_records {
                let payload: Vec<u8> = (0..payload_len).map(|b| (b + i) as u8).collect();
                tier.append(Fingerprint(i as u128), i as f64, &payload);
                ends.push(tier.bytes_persisted());
            }
            tier.path().to_path_buf()
        };
        let file_len = std::fs::metadata(&path).unwrap().len();
        let offset = damage_at % file_len;
        // mode 0: truncate at `offset`; mode 1: flip the byte there;
        // mode 2: both.
        if mode != 1 {
            std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .unwrap()
                .set_len(offset)
                .unwrap();
        }
        if mode != 0 && offset < file_len {
            let mut bytes = std::fs::read(&path).unwrap();
            if let Some(b) = bytes.get_mut(offset as usize) {
                *b ^= 0xFF;
                std::fs::write(&path, &bytes).unwrap();
            }
        }
        // Reopen: must not panic, whatever the damage.
        let tier = DiskTier::open(&dir).unwrap();
        for (i, end) in ends.iter().enumerate() {
            let got = tier.get(&Fingerprint(i as u128));
            if *end <= offset {
                let (bytes, cost) = got.expect("undamaged record survives");
                let expect: Vec<u8> = (0..payload_len).map(|b| (b + i) as u8).collect();
                prop_assert_eq!(bytes, expect);
                prop_assert_eq!(cost, i as f64);
            } else {
                prop_assert!(got.is_none(), "damaged tail must not resurface");
            }
        }
        // The recovered file accepts appends and serves them.
        tier.append(Fingerprint(0xFFFF), 1.5, b"fresh after recovery");
        prop_assert_eq!(
            tier.get(&Fingerprint(0xFFFF)).unwrap().0.as_slice(),
            b"fresh after recovery".as_slice()
        );
        drop(tier);
        let reopened = DiskTier::open(&dir).unwrap();
        prop_assert!(reopened.get(&Fingerprint(0xFFFF)).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A histogram quantile never undershoots the true order statistic
    /// and overshoots it by at most one sub-bucket (12.5%), whatever
    /// the value stream and whatever quantile is asked for.
    #[test]
    fn histogram_quantiles_bound_rank_error(
        values in prop::collection::vec(0u64..5_000_000_000, 1..400),
        qs in prop::collection::vec(0.0f64..=1.0, 1..6),
    ) {
        let h = LatencyHistogram::new();
        for &v in &values {
            h.record_ns(v);
        }
        let s = h.snapshot();
        prop_assert_eq!(s.count(), values.len() as u64);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(s.max_ns(), *sorted.last().unwrap(), "max is exact");
        prop_assert_eq!(s.quantile_ns(1.0), s.max_ns(), "top quantile is the max");
        for &q in &qs {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let est = s.quantile_ns(q);
            prop_assert!(est >= truth, "q={} estimate {} below true {}", q, est, truth);
            prop_assert!(
                est - truth <= truth / 8,
                "q={} estimate {} more than 12.5% above true {}",
                q, est, truth
            );
        }
    }

    /// Concurrent recording across thread-sharded banks merges to
    /// exactly the snapshot sequential recording produces: no sample is
    /// lost, duplicated, or rebucketed by the sharding.
    #[test]
    fn histogram_concurrent_recording_merges_to_sequential_reference(
        chunks in prop::collection::vec(
            prop::collection::vec(0u64..1_000_000_000, 1..64),
            1..8,
        ),
    ) {
        let concurrent = LatencyHistogram::new();
        std::thread::scope(|scope| {
            for chunk in &chunks {
                let h = &concurrent;
                scope.spawn(move || {
                    for &v in chunk {
                        h.record_ns(v);
                    }
                });
            }
        });
        let reference = LatencyHistogram::new();
        for chunk in &chunks {
            for &v in chunk {
                reference.record_ns(v);
            }
        }
        prop_assert_eq!(concurrent.snapshot(), reference.snapshot());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// QoS property (a): a cancellation racing the worker's resolver
    /// never loses a resolution and never double-wakes. Exactly one
    /// side wins the ticket state machine — `cancel()` returns `true`
    /// for at most one canceller, and only when the ticket actually
    /// resolved `Cancelled`; otherwise every waiter sees the resolver's
    /// result. A waker registered before the race fires exactly once
    /// whichever side wins, and the future is never left pending.
    #[test]
    fn cancel_racing_the_resolver_resolves_exactly_once(
        cancellers in 1usize..4,
        pre_poll in any::<bool>(),
    ) {
        let (ticket, resolver) = JobTicket::promise(Fingerprint(0x0C));
        let wake = CountingWake::new();
        let mut future = ticket.future();
        if pre_poll {
            let waker = Waker::from(Arc::clone(&wake));
            let mut cx = Context::from_waker(&waker);
            prop_assert!(Pin::new(&mut future).poll(&mut cx).is_pending());
        }
        // No synchronization on purpose: the fulfill and every cancel
        // race through `fulfill_first`'s single compare-and-settle.
        let cancel_wins = std::thread::scope(|scope| {
            let fulfiller = scope.spawn(move || resolver.fulfill(Err(JobError::ShutDown)));
            let handles: Vec<_> = (0..cancellers)
                .map(|_| {
                    let t = ticket.clone();
                    scope.spawn(move || t.cancel())
                })
                .collect();
            fulfiller.join().unwrap();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .filter(|&won| won)
                .count()
        });
        prop_assert!(cancel_wins <= 1, "{cancel_wins} cancellers claimed the resolution");
        let err = ticket.wait().unwrap_err();
        if cancel_wins == 1 {
            prop_assert_eq!(err, JobError::Cancelled);
        } else {
            prop_assert_eq!(err, JobError::ShutDown);
        }
        // The pre-registered waker fired exactly once; with no
        // registration nothing ever fires.
        prop_assert_eq!(wake.count(), u64::from(pre_poll));
        // And the future resolves with the winner's result — no lost
        // wakeup, no stale pending state.
        let waker = Waker::from(Arc::clone(&wake));
        let mut cx = Context::from_waker(&waker);
        match Pin::new(&mut future).poll(&mut cx) {
            Poll::Ready(result) => prop_assert_eq!(result.unwrap_err(), err),
            Poll::Pending => prop_assert!(false, "future pending after resolution"),
        }
    }

    /// QoS property (b): no priority lane starves. Whatever push/pop
    /// schedule the dispatcher runs, a lane with queued work is served
    /// within `LANE_AGING_LIMIT + PRIORITY_LANES` dispatches of its
    /// last service (age to the limit, then wait out at most one serve
    /// of each other aged lane), every item is delivered exactly once,
    /// and each lane drains in FIFO order.
    #[test]
    fn no_priority_lane_starves_under_any_push_pop_schedule(
        ops in prop::collection::vec((0usize..5, 0usize..3), 1..200),
    ) {
        use ndft_serve::queue::{LANE_AGING_LIMIT, PRIORITY_LANES};

        let q: ShardedQueue<u64> = ShardedQueue::new(1, 1024);
        let mut model: [std::collections::VecDeque<u64>; 3] = Default::default();
        let mut next_id = 0u64;
        let mut pushed: Vec<u64> = Vec::new();
        let mut collected: Vec<u64> = Vec::new();
        let bound = LANE_AGING_LIMIT + PRIORITY_LANES as u32;
        // Dispatches each nonempty lane has been passed over since its
        // last service — the model's shadow of the shard's aging clock.
        let mut waits = [0u32; 3];
        for &(op, lane) in &ops {
            if op < 3 {
                // Ops 0-2 push into `lane`; the id encodes the lane so
                // each pop reveals which lane the queue actually served.
                let id = next_id * 10 + lane as u64;
                next_id += 1;
                q.try_push_at(0, lane, id).unwrap();
                model[lane].push_back(id);
                pushed.push(id);
            } else if let Some(batch) = q.try_pop_home(0, 1) {
                prop_assert_eq!(batch.len(), 1);
                let got = batch[0];
                let served = (got % 10) as usize;
                prop_assert_eq!(
                    model[served].pop_front(),
                    Some(got),
                    "lane {} served out of FIFO order",
                    served
                );
                waits[served] = 0;
                for (l, w) in waits.iter_mut().enumerate() {
                    if l != served && !model[l].is_empty() {
                        *w += 1;
                        prop_assert!(
                            *w <= bound,
                            "lane {} starved: {} dispatches without service",
                            l,
                            *w
                        );
                    }
                }
                collected.push(got);
            }
        }
        // Whatever the schedule left queued is the shutdown sweep's.
        q.close();
        collected.extend(q.drain_all());
        pushed.sort_unstable();
        collected.sort_unstable();
        prop_assert_eq!(collected, pushed, "every item delivered exactly once");
    }
}

/// The batch-scoped reservation-hold and fused-execution spans are
/// annotated on the planning member's lane *after* its ticket fulfills
/// (and may not be published yet when the lanes are drained), so
/// per-job chain checks exclude them.
fn job_chain(events: &[&TraceEvent]) -> Vec<TraceEvent> {
    events
        .iter()
        .filter(|e| {
            !matches!(
                e.kind,
                TraceEventKind::ReservationHold | TraceEventKind::FusedExec { .. }
            )
        })
        .map(|e| **e)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every traced job's span chain is monotone and complete: it opens
    /// with the admission event, every span lies inside
    /// [admission, fulfill-end], the core stages order as
    /// enqueue <= plan <= exec-start <= execute <= fulfill, and exactly
    /// one ticket fulfillment closes the chain — on the executed,
    /// in-batch-dedup, and submission-time cache-hit paths alike. Every
    /// path publishes its lane before resolving the ticket, so the
    /// chains are already complete when the waits return, before
    /// shutdown.
    #[test]
    fn trace_span_chains_are_monotone_and_complete(
        seeds in prop::collection::vec(0u64..5, 2..20),
        workers in 1usize..4,
        shards in 1usize..3,
    ) {
        let svc = DftService::start(ServeConfig {
            workers,
            shards,
            queue_capacity: 256,
            ..ServeConfig::default()
        });
        let collector = svc.trace();
        // Repeated seeds force the dedup and cache-hit paths.
        let tickets: Vec<_> = seeds
            .iter()
            .map(|&s| {
                svc.submit_blocking(DftJob::MdSegment {
                    atoms: 64,
                    steps: 2,
                    temperature_k: 300.0,
                    seed: s,
                })
                .unwrap()
            })
            .collect();
        for t in &tickets {
            prop_assert!(t.wait().is_ok());
        }
        let events = collector.drain();
        let report = svc.shutdown();
        prop_assert_eq!(report.completed, seeds.len() as u64);

        let mut per_trace: std::collections::HashMap<u64, Vec<&TraceEvent>> =
            std::collections::HashMap::new();
        for e in &events {
            per_trace.entry(e.trace.0).or_default().push(e);
        }
        // Every submission got its own trace lane, duplicates included.
        prop_assert_eq!(per_trace.len(), seeds.len());

        for (id, evs) in &per_trace {
            // Ring order is seq order, per lane too.
            for w in evs.windows(2) {
                prop_assert!(w[0].seq < w[1].seq, "trace {} seq out of order", id);
            }
            let chain = job_chain(evs);
            // Complete: exactly one terminal fulfill event.
            let fulfills = chain
                .iter()
                .filter(|e| matches!(e.kind, TraceEventKind::TicketFulfill { .. }))
                .count();
            prop_assert_eq!(fulfills, 1, "trace {} must fulfill exactly once", id);
            let last = chain.last().unwrap();
            prop_assert!(
                matches!(last.kind, TraceEventKind::TicketFulfill { ok: true, .. }),
                "trace {} ends with its (successful) fulfill",
                id
            );
            // Opens with admission: an Enqueue for queued jobs, a
            // CacheHit for submission-time serves.
            let first = chain.first().unwrap();
            prop_assert!(
                matches!(
                    first.kind,
                    TraceEventKind::Enqueue { .. } | TraceEventKind::CacheHit { .. }
                ),
                "trace {} opens with {:?}",
                id,
                first.kind
            );
            // Monotone: everything inside [admission, fulfill-end].
            for e in &chain {
                prop_assert!(e.start_ns >= first.start_ns, "trace {} starts early", id);
                prop_assert!(e.end_ns() <= last.end_ns(), "trace {} ends late", id);
            }
            // Core stage ordering: enqueue <= plan <= exec-start <=
            // execute <= fulfill.
            let start_of = |want: fn(&TraceEventKind) -> bool| {
                chain.iter().find(|e| want(&e.kind)).map(|e| e.start_ns)
            };
            let plan = start_of(|k| matches!(k, TraceEventKind::PlannerConsult));
            let exec_start = start_of(|k| matches!(k, TraceEventKind::ExecStart { .. }));
            let exec = start_of(|k| matches!(k, TraceEventKind::Numerics { .. }));
            let mut order = vec![first.start_ns];
            order.extend(plan);
            order.extend(exec_start);
            order.extend(exec);
            order.push(last.start_ns);
            for w in order.windows(2) {
                prop_assert!(w[0] <= w[1], "trace {} core stages out of order", id);
            }
            // Executed chains carry the numerics + store evidence;
            // cached chains carry the hit instead.
            match last.kind {
                TraceEventKind::TicketFulfill { cached: false, .. } => {
                    prop_assert!(exec.is_some(), "executed trace {} missing numerics", id);
                    prop_assert!(exec_start.is_some(), "executed trace {} missing exec-start", id);
                    prop_assert!(
                        chain.iter().any(|e| matches!(e.kind, TraceEventKind::CacheStore)),
                        "executed trace {} missing cache store",
                        id
                    );
                }
                TraceEventKind::TicketFulfill { cached: true, .. } => {
                    prop_assert!(
                        chain.iter().any(|e| matches!(e.kind, TraceEventKind::CacheHit { .. })),
                        "cached trace {} missing its hit",
                        id
                    );
                    prop_assert!(
                        exec.is_none() && exec_start.is_none(),
                        "cached trace {} ran numerics",
                        id
                    );
                }
                _ => unreachable!(),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bounded imbalance: with at least 64 vnodes per replica, the
    /// busiest replica of a ≥4-replica ring owns at most 1.35× the
    /// mean key share of any fingerprint population — the balance
    /// budget the federated bench gate assumes.
    #[test]
    fn ring_balance_stays_within_budget(
        replicas in 4usize..9,
        vnodes in 64usize..129,
        keys in prop::collection::vec((any::<u64>(), any::<u64>()), 512..2048),
    ) {
        let mut ring = HashRing::new(vnodes);
        for r in 0..replicas {
            ring.add_replica(r);
        }
        let fingerprints: Vec<Fingerprint> = keys
            .iter()
            .map(|&(hi, lo)| Fingerprint(((hi as u128) << 64) | lo as u128))
            .collect();
        let shares = ring.shares(&fingerprints);
        let mean = fingerprints.len() as f64 / replicas as f64;
        for r in 0..replicas {
            let share = shares.get(&r).copied().unwrap_or(0) as f64;
            prop_assert!(
                share <= mean * 1.35,
                "replica {} owns {} of {} keys (mean {:.1}, budget {:.1})",
                r, share, fingerprints.len(), mean, mean * 1.35
            );
        }
    }

    /// Minimal disruption: removing one replica remaps exactly the
    /// keys it owned. Every key homed elsewhere keeps its home — the
    /// guarantee that a replica kill never cools a survivor's cache.
    #[test]
    fn ring_removal_remaps_only_the_dead_replicas_keys(
        replicas in 2usize..8,
        vnodes in 16usize..97,
        keys in prop::collection::vec((any::<u64>(), any::<u64>()), 256..1024),
        dead_pick in any::<usize>(),
    ) {
        let mut ring = HashRing::new(vnodes);
        for r in 0..replicas {
            ring.add_replica(r);
        }
        let dead = dead_pick % replicas;
        let before: Vec<(Fingerprint, usize)> = keys
            .iter()
            .map(|&(hi, lo)| {
                let fp = Fingerprint(((hi as u128) << 64) | lo as u128);
                (fp, ring.primary(fp).unwrap())
            })
            .collect();
        ring.remove_replica(dead);
        for (fp, home) in before {
            let after = ring.primary(fp).unwrap();
            if home == dead {
                prop_assert_ne!(after, dead, "key still routed to the dead replica");
            } else {
                prop_assert_eq!(
                    after, home,
                    "key homed on live replica {} was remapped to {}", home, after
                );
            }
        }
    }
}

/// Random DAG over `n` nodes: every forward pair `(i, j)` with `i < j`
/// gets an edge when its bit of `edge_bits` is set, so the graph is
/// acyclic by construction while its shape (chains, diamonds, fan-out,
/// disconnected islands) is fully randomized. Returns the spec plus
/// each node's parent list for the oracle.
fn random_dag(
    n: usize,
    edge_bits: u64,
    steps: usize,
    seed_base: u64,
) -> (WorkflowSpec, Vec<Vec<usize>>) {
    let mut spec = WorkflowSpec::new();
    let ids: Vec<NodeId> = (0..n)
        .map(|i| {
            spec.add_node(DftJob::MdSegment {
                atoms: 8,
                steps,
                temperature_k: 300.0,
                seed: seed_base + i as u64,
            })
        })
        .collect();
    let mut parents: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut bit = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            if (edge_bits >> (bit % 64)) & 1 == 1 {
                spec.add_edge(ids[i], ids[j]);
                parents[j].push(i);
            }
            bit += 1;
        }
    }
    (spec, parents)
}

fn small_engine() -> DftService {
    DftService::start(ServeConfig {
        workers: 2,
        shards: 2,
        queue_capacity: 256,
        ..ServeConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Dependency-release ordering: whatever random DAG is submitted,
    /// the session's completion stream never delivers a node before
    /// every one of its parents — the coordinator holds each node
    /// outside the queues until its last parent's ticket fulfills, and
    /// fulfillment order is delivery order.
    #[test]
    fn workflow_nodes_complete_only_after_all_parents(
        n in 2usize..9,
        edge_bits in any::<u64>(),
        steps in 1usize..3,
    ) {
        let svc = small_engine();
        let (spec, parents) = random_dag(n, edge_bits, steps, 9000);
        let (session, completions) = svc.session();
        let (workflow, job_ids) =
            session.submit_workflow(spec).expect("forward-edge DAGs are valid");
        let mut finished: Vec<usize> = Vec::new();
        for _ in 0..n {
            let done = completions.next().expect("stream yields every node");
            prop_assert!(done.result.is_ok(), "node failed: {:?}", done.result);
            let node = job_ids
                .iter()
                .position(|&id| id == done.id)
                .expect("completion for a known node id");
            for &p in &parents[node] {
                prop_assert!(
                    finished.contains(&p),
                    "node {} completed before its parent {}",
                    node,
                    p
                );
            }
            finished.push(node);
        }
        prop_assert!(workflow.is_done());
        drop(session);
        let report = svc.shutdown();
        prop_assert!(report.conservation_holds(), "conservation: {report}");
        prop_assert_eq!(report.workflows, 1);
        prop_assert_eq!(report.workflow_released, n as u64);
        prop_assert_eq!(report.orphaned, 0);
    }

    /// Rejected specs leak nothing: a cycle, a dangling edge, or a
    /// self edge is refused during validation — before any node
    /// ticket, metrics counter, or registry entry exists — so the
    /// engine's books stay at zero.
    #[test]
    fn invalid_workflow_specs_leak_no_tickets_or_state(
        n in 1usize..7,
        defect in 0usize..3,
        salt in any::<u64>(),
    ) {
        let svc = small_engine();
        let mut spec = WorkflowSpec::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|i| {
                spec.add_node(DftJob::MdSegment {
                    atoms: 8,
                    steps: 1,
                    temperature_k: 300.0,
                    seed: i as u64,
                })
            })
            .collect();
        match defect {
            0 => {
                let v = (salt as usize) % n;
                spec.add_edge(ids[v], ids[v]);
            }
            1 => {
                spec.add_edge(ids[0], NodeId(n + (salt as usize % 4)));
            }
            _ => {
                // A chain with a back edge; degenerates to a self edge
                // for n == 1, which is rejected just the same.
                for w in ids.windows(2) {
                    spec.add_edge(w[0], w[1]);
                }
                spec.add_edge(ids[n - 1], ids[0]);
            }
        }
        prop_assert!(svc.submit_workflow(spec).is_err());
        let report = svc.shutdown();
        prop_assert_eq!(report.submitted, 0);
        prop_assert_eq!(report.workflows, 0);
        prop_assert_eq!(report.orphaned, 0);
        prop_assert_eq!(report.tickets_outstanding, 0);
        prop_assert!(report.conservation_holds(), "conservation: {report}");
    }

    /// Mid-flood teardown: a flood of workflows races a drawn set of
    /// node cancellations and then an engine shutdown. Every node
    /// ticket must resolve exactly once — completed, failed,
    /// cancelled, or orphaned — and the extended conservation
    /// invariant closes the engine's books.
    #[test]
    fn midflood_cancel_and_shutdown_resolve_every_node_exactly_once(
        n in 3usize..8,
        flood in 1usize..4,
        edge_bits in any::<u64>(),
        cancel_bits in any::<u64>(),
    ) {
        let svc = small_engine();
        let mut workflows = Vec::new();
        for w in 0..flood {
            // Rotate the edge mask per workflow so the flood carries
            // different shapes; distinct seeds dodge the result cache.
            let (spec, _) = random_dag(
                n,
                edge_bits.rotate_left(w as u32 * 7),
                2,
                (w * n) as u64,
            );
            workflows.push(svc.submit_workflow(spec).expect("valid DAG"));
        }
        // Cancel a drawn subset of nodes while the flood is in flight:
        // released nodes propagate into the engine's tombstone path,
        // pending nodes orphan themselves and their descendants.
        for (w, workflow) in workflows.iter().enumerate() {
            for i in 0..n {
                if (cancel_bits >> ((w * n + i) % 64)) & 1 == 1 {
                    workflow.node(NodeId(i)).cancel();
                }
            }
        }
        let report = svc.shutdown();
        for workflow in &workflows {
            prop_assert!(workflow.is_done(), "unresolved node after shutdown");
            prop_assert_eq!(workflow.wait_all().len(), n);
        }
        prop_assert_eq!(report.workflows, flood as u64);
        prop_assert_eq!(report.tickets_outstanding, 0);
        prop_assert!(report.conservation_holds(), "conservation: {report}");
    }
}

/// One job drawn from a compact code for the fused-execution
/// differential: all six job kinds — the fusable ones (ground states
/// sharing a Hamiltonian, MD segments sharing a bond list) and those
/// with no shareable operand (band paths, Si_8 TDA and Casida spectra,
/// self-consistent SCF) — with repeats so the dedup/cache paths engage
/// too.
fn fused_mix_job(code: u64) -> DftJob {
    let variant = code / 6;
    match code % 6 {
        0 => DftJob::GroundState {
            atoms: 8,
            bands: 2 + (variant % 4) as usize,
            max_iterations: 3,
        },
        1 => DftJob::MdSegment {
            atoms: 64,
            steps: 3,
            temperature_k: 300.0,
            seed: variant % 4,
        },
        2 => DftJob::BandStructure {
            atoms: 8,
            segments: 2,
            n_bands: 4 + (variant % 3) as usize,
            scissor_ev: 0.7,
        },
        3 => DftJob::Spectrum {
            atoms: 8,
            full_casida: false,
        },
        4 => DftJob::Spectrum {
            atoms: 8,
            full_casida: true,
        },
        _ => DftJob::ScfSelfConsistent {
            atoms: 16,
            bands: 4,
            max_iterations: 2,
            occupied: 4,
            cycles: 2,
            alpha: 0.5,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fused cross-job execution is invisible in results: for any job
    /// mix, the engine with `fused_execution` on and the engine with it
    /// off produce identical fingerprint → payload maps, and both close
    /// the conservation invariant with identical terminal counters —
    /// fusion shares setup, never arithmetic.
    #[test]
    fn fused_execution_preserves_payloads_and_conservation(
        codes in prop::collection::vec(0u64..24, 2..10),
        workers in 1usize..3,
    ) {
        let run = |fused: bool| {
            let svc = DftService::start(ServeConfig {
                workers,
                shards: 2,
                queue_capacity: 256,
                fused_execution: fused,
                ..ServeConfig::default()
            });
            let tickets: Vec<_> = codes
                .iter()
                .map(|&c| svc.submit_blocking(fused_mix_job(c)).unwrap())
                .collect();
            let mut payloads = std::collections::HashMap::new();
            for t in &tickets {
                let outcome = t.wait().expect("every job completes");
                // One plan per batch: the modeled run times exactly the
                // placement the engine acted on, fused or loaded.
                let ran: Vec<_> = outcome.modeled.stages.iter().map(|s| s.target).collect();
                let planned: Vec<_> =
                    outcome.placement.plan.placement.iter().map(|&t| Some(t)).collect();
                assert_eq!(ran, planned, "{}", outcome.job);
                payloads.insert(outcome.fingerprint, outcome.payload.clone());
            }
            (payloads, svc.shutdown())
        };
        let (fused_payloads, fused_report) = run(true);
        let (solo_payloads, solo_report) = run(false);

        prop_assert_eq!(fused_payloads.len(), solo_payloads.len());
        for (fp, fused_payload) in &fused_payloads {
            let solo_payload = solo_payloads
                .get(fp)
                .expect("both engines saw the same fingerprints");
            prop_assert_eq!(fused_payload, solo_payload, "payload diverged for {}", fp);
        }

        prop_assert!(fused_report.conservation_holds(), "fused: {fused_report}");
        prop_assert!(solo_report.conservation_holds(), "solo: {solo_report}");
        prop_assert_eq!(fused_report.submitted, solo_report.submitted);
        prop_assert_eq!(fused_report.completed, solo_report.completed);
        prop_assert_eq!(fused_report.failed, solo_report.failed);
        prop_assert_eq!(fused_report.cancelled, solo_report.cancelled);
        prop_assert_eq!(fused_report.deadline_dropped, solo_report.deadline_dropped);
        prop_assert_eq!(fused_report.orphaned, solo_report.orphaned);
        // The knob really is the only difference: the off engine never
        // fuses anything.
        prop_assert_eq!(solo_report.fused_batches, 0);
        prop_assert_eq!(solo_report.fused_jobs, 0);
        prop_assert_eq!(solo_report.fused_amortized_s, 0.0);
    }
}

/// The one-plan invariant on batches that plan away from the default
/// request, fused and under load. A long Si_256 MD segment holds an
/// NDP-heavy reservation on one worker while the other, once free of a
/// shorter one, plans a queued flood of Si_16 segments: fused,
/// those move their first stage onto the NDP side, and under the long
/// segment's load they shift work back, so a report re-planned under
/// `PlanRequest::default()` (one member, no load), whether of the job or
/// of the fused batch, cannot match the placement the batch decided.
/// The test checks both preconditions before it trusts the agreement it
/// asserts.
#[test]
fn loaded_fused_batches_report_the_plan_they_decided() {
    let svc = DftService::start(ServeConfig {
        workers: 2,
        shards: 1,
        queue_capacity: 256,
        ..ServeConfig::default()
    });
    // Each blocker goes in only once the one before it holds its
    // reservation, so each lands on a worker of its own.
    let hold = |job: DftJob, batches: u64| {
        let ticket = svc.submit_blocking(job).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while svc.cluster_snapshot().inflight_batches() < batches {
            assert!(
                std::time::Instant::now() < deadline,
                "blocker never planned"
            );
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        ticket
    };
    let long = hold(
        DftJob::MdSegment {
            atoms: 256,
            steps: 40_000,
            temperature_k: 300.0,
            seed: 0,
        },
        1,
    );
    let short = hold(
        DftJob::MdSegment {
            atoms: 256,
            steps: 5_000,
            temperature_k: 300.0,
            seed: 1,
        },
        2,
    );
    let flood: Vec<DftJob> = (0..24)
        .map(|seed| DftJob::MdSegment {
            atoms: 16,
            steps: 3,
            temperature_k: 300.0,
            seed,
        })
        .collect();
    let tickets: Vec<_> = flood
        .iter()
        .map(|job| svc.submit_blocking(job.clone()).unwrap())
        .collect();
    let solo = plan_placement(&flood[0].task_graph().unwrap(), PlacementPolicy::CostAware)
        .plan
        .placement;
    let (mut fused_apart, mut shifted) = (0, 0);
    for t in &tickets {
        let outcome = t.wait().expect("every job completes");
        let ran: Vec<_> = outcome.modeled.stages.iter().map(|s| s.target).collect();
        let planned: Vec<_> = outcome
            .placement
            .plan
            .placement
            .iter()
            .map(|&t| Some(t))
            .collect();
        assert_eq!(ran, planned, "{}", outcome.job);
        fused_apart += usize::from(outcome.placement.plan.placement != solo);
        shifted += usize::from(outcome.placement.shifted);
    }
    for blocker in [long, short] {
        blocker.wait().expect("the blockers complete");
    }
    let report = svc.shutdown();
    assert!(report.fused_batches > 0, "no batch fused: {report}");
    assert!(
        fused_apart > 0,
        "every batch planned the solo placement {solo:?}"
    );
    assert!(
        shifted > 0,
        "no batch shifted under the blocker's load: {report}"
    );
    assert!(report.conservation_holds(), "{report}");
}
