//! Routing primitives for the federated service: the consistent-hash
//! ring, the deterministic fault plan, and the routing log that makes
//! replay-on-failover possible.
//!
//! # The ring
//!
//! [`HashRing`] places every replica at many pseudo-random points
//! ("virtual nodes") on a 64-bit circle; a fingerprint's **home
//! replica** is the owner of the first point at or clockwise after the
//! fingerprint's own position. Two properties follow directly from the
//! construction and are property-tested in `serve_properties.rs`:
//!
//! * **Balance** — with enough virtual nodes (≥ 64 per replica) the
//!   arcs owned by each replica even out, so key shares stay within a
//!   small factor of the mean (the test gates max/mean ≤ 1.35 at
//!   64 vnodes × 4 replicas).
//! * **Stability** — removing a replica deletes only *its* points;
//!   every fingerprint whose owning point survives keeps its home, so
//!   a failover remaps exactly the dead replica's keys and every other
//!   replica's WAL/cache tier stays warm.
//!
//! # The routing log
//!
//! [`RoutingLog`] records every accepted queued submission — the full
//! [`JobRequest`] (so replays preserve priority, deadline, and tenant),
//! the chosen replica, and both ticket halves (the client-facing ticket
//! and the current engine ticket). When a replica is killed the log is
//! the replay manifest: entries homed on the dead replica whose client
//! tickets are still unresolved are re-routed onto the surviving ring.
//! A cancellation **tombstones** its entry
//! (`RoutingLog::cancel_route`, installed as the client ticket's
//! cancel hook), so the replay path can never resurrect a cancelled
//! job — the regression `serve_integration` guards.
//!
//! The log is **self-compacting**: resolved cancellation tombstones and
//! the replay-fingerprint history are both bounded
//! (`TOMBSTONE_CAP` / `REPLAY_HISTORY_CAP`), with
//! [`RoutingLog::compact`] run amortized from the submission path —
//! a long-lived federation's memory footprint tracks its *in-flight*
//! work, not its lifetime cancel/failover history. Totals survive
//! compaction ([`RoutingLog::replayed_total`]).
//!
//! # The fault plan
//!
//! [`FaultPlan`] is the deterministic fault-injection hook: a list of
//! kill/revive actions keyed by *submission count*, applied by
//! [`crate::FederatedService`] before routing the matching submission.
//! Because the trigger is a counter rather than a timer, a test (or
//! `serve_study`'s failover leg) replays the exact same schedule on
//! every run.

use crate::fingerprint::{digest, Fingerprint, Hasher};
use crate::job::{JobRequest, Priority, TenantId};
use crate::ticket::JobTicket;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// SplitMix64 finalizer: avalanches the FNV lane so ring points and key
/// positions disperse uniformly even over tiny, structured inputs
/// (replica indices count up from zero).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Position of one replica's `vnode`-th virtual node on the circle.
fn ring_point(replica: usize, vnode: usize) -> u64 {
    let mut h = Hasher::new();
    h.write_u64(replica as u64);
    h.write_u64(vnode as u64);
    mix64(h.finish().0 as u64)
}

/// A fingerprint's position on the circle.
fn key_position(fingerprint: Fingerprint) -> u64 {
    mix64(digest(&fingerprint.to_le_bytes()).0 as u64)
}

/// Consistent-hash ring over replica indices, with virtual nodes for
/// balance. See the [module docs](self) for the balance and stability
/// contracts.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Points sorted by `(position, replica, vnode)` — the replica/vnode
    /// tie-break makes collisions deterministic and keeps the stability
    /// property exact even when two points share a position.
    points: Vec<(u64, usize, usize)>,
    vnodes: usize,
    replicas: Vec<usize>,
}

impl HashRing {
    /// An empty ring placing `vnodes` virtual nodes per replica
    /// (clamped to at least 1).
    pub fn new(vnodes: usize) -> Self {
        HashRing {
            points: Vec::new(),
            vnodes: vnodes.max(1),
            replicas: Vec::new(),
        }
    }

    /// Number of live replicas.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// True when `replica` is on the ring.
    pub fn contains(&self, replica: usize) -> bool {
        self.replicas.binary_search(&replica).is_ok()
    }

    /// Adds `replica`'s virtual nodes (no-op if already present).
    pub fn add_replica(&mut self, replica: usize) {
        let Err(at) = self.replicas.binary_search(&replica) else {
            return;
        };
        self.replicas.insert(at, replica);
        for vnode in 0..self.vnodes {
            let point = (ring_point(replica, vnode), replica, vnode);
            let at = self.points.partition_point(|p| *p < point);
            self.points.insert(at, point);
        }
    }

    /// Removes `replica`'s virtual nodes (no-op if absent). Every other
    /// replica's points are untouched — the stability property.
    pub fn remove_replica(&mut self, replica: usize) {
        if let Ok(at) = self.replicas.binary_search(&replica) {
            self.replicas.remove(at);
            self.points.retain(|&(_, r, _)| r != replica);
        }
    }

    /// The fingerprint's home replica: owner of the first point at or
    /// clockwise after the fingerprint's position (`None` on an empty
    /// ring).
    pub fn primary(&self, fingerprint: Fingerprint) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let pos = key_position(fingerprint);
        let at = self.points.partition_point(|&(p, _, _)| p < pos);
        Some(self.points[at % self.points.len()].1)
    }

    /// Keys per replica for a sample of fingerprints (missing replicas
    /// report zero) — the balance property's measurement helper.
    pub fn shares(&self, keys: &[Fingerprint]) -> HashMap<usize, u64> {
        let mut shares: HashMap<usize, u64> = self.replicas.iter().map(|&r| (r, 0)).collect();
        for &key in keys {
            if let Some(home) = self.primary(key) {
                *shares.entry(home).or_insert(0) += 1;
            }
        }
        shares
    }
}

/// What a [`FaultAction`] does to its replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Abruptly stop the replica ([`crate::DftService::kill`]): queued
    /// jobs fail fast and are replayed onto the surviving ring.
    Kill,
    /// Restart the replica on its original cache directory, rejoining
    /// the ring with its disk tier warm.
    Revive,
}

/// One deterministic fault: at the `at_submission`-th federated
/// submission (1-based, counted over *attempts*), apply `event` to
/// `replica` before routing that submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultAction {
    /// Submission count that triggers the action.
    pub at_submission: u64,
    /// The replica slot acted on.
    pub replica: usize,
    /// Kill or revive.
    pub event: FaultEvent,
}

/// A deterministic kill/revive schedule, checked by the federated
/// router before every submission. Empty by default (no faults).
///
/// ```
/// use ndft_serve::FaultPlan;
/// let plan = FaultPlan::new().kill_at(40, 1).revive_at(80, 1);
/// assert_eq!(plan.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    actions: Vec<FaultAction>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds "kill `replica` just before the `at_submission`-th
    /// submission".
    pub fn kill_at(mut self, at_submission: u64, replica: usize) -> Self {
        self.actions.push(FaultAction {
            at_submission,
            replica,
            event: FaultEvent::Kill,
        });
        self
    }

    /// Adds "revive `replica` just before the `at_submission`-th
    /// submission".
    pub fn revive_at(mut self, at_submission: u64, replica: usize) -> Self {
        self.actions.push(FaultAction {
            at_submission,
            replica,
            event: FaultEvent::Revive,
        });
        self
    }

    /// Scheduled actions not yet fired.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Removes and returns every action due at or before `tick`,
    /// ordered by trigger point (ties keep insertion order).
    pub(crate) fn take_due(&mut self, tick: u64) -> Vec<FaultAction> {
        let mut due: Vec<FaultAction> = Vec::new();
        self.actions.retain(|a| {
            if a.at_submission <= tick {
                due.push(*a);
                false
            } else {
                true
            }
        });
        due.sort_by_key(|a| a.at_submission);
        due
    }
}

/// One accepted, still-tracked submission in the [`RoutingLog`].
pub(crate) struct RouteEntry {
    pub(crate) request: JobRequest,
    pub(crate) fingerprint: Fingerprint,
    pub(crate) replica: usize,
    /// Client-facing ticket (resolves exactly once, whatever happens to
    /// engine-side attempts).
    pub(crate) client: JobTicket,
    /// Current engine-side ticket (replaced on replay).
    pub(crate) engine: JobTicket,
    /// Times this entry was re-routed after a replica death.
    pub(crate) replays: u32,
    /// Tombstone: the client cancelled; replay must skip this entry.
    pub(crate) cancelled: bool,
    /// The home replica died and the entry awaits re-routing; the
    /// completion hook must not deliver the dead engine's `ShutDown`.
    pub(crate) replaying: bool,
}

/// Public snapshot of one routing-log entry (test and bench
/// observability; see [`crate::FederatedService::routes`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RouteInfo {
    /// Log-assigned route id, unique per federation instance.
    pub route: u64,
    /// The job's content fingerprint.
    pub fingerprint: Fingerprint,
    /// The replica currently responsible for the job.
    pub replica: usize,
    /// Scheduling priority carried by the submission (preserved across
    /// replays).
    pub priority: Priority,
    /// Deadline carried by the submission (preserved across replays).
    pub deadline: Option<Duration>,
    /// Tenant carried by the submission (preserved across replays).
    pub tenant: TenantId,
    /// Times the entry was replayed onto a surviving replica.
    pub replays: u32,
    /// True once a cancellation tombstoned the entry.
    pub cancelled: bool,
}

/// An entry lifted out of the log for replay: the original request plus
/// the client ticket the resubmission must resolve.
pub(crate) struct ReplayItem {
    pub(crate) route: u64,
    pub(crate) request: JobRequest,
    pub(crate) client: JobTicket,
}

/// The federated router's submission ledger. See the [module
/// docs](self): every accepted queued submission is recorded here until
/// its client ticket resolves, and the log is the manifest a replica
/// kill replays from.
pub struct RoutingLog {
    entries: Mutex<HashMap<u64, RouteEntry>>,
    next_route: AtomicU64,
    /// Fingerprints re-routed after a replica death, in replay order
    /// (bounded: compaction keeps the most recent
    /// `REPLAY_HISTORY_CAP`).
    replayed: Mutex<Vec<Fingerprint>>,
    /// Total replays ever performed — survives history compaction.
    replayed_total: AtomicU64,
    /// Replay candidates skipped because a cancellation had tombstoned
    /// them — the count the cancel-vs-replay regression test reads.
    tombstoned_replays: AtomicU64,
    /// Amortization tick for [`RoutingLog::maybe_compact`].
    compact_ticks: AtomicU64,
}

/// Most recent replay-history fingerprints [`RoutingLog::compact`]
/// retains.
const REPLAY_HISTORY_CAP: usize = 1024;

/// Resolved cancellation tombstones [`RoutingLog::compact`] retains
/// (newest first by route id).
const TOMBSTONE_CAP: usize = 1024;

/// Submissions between amortized compaction passes.
const COMPACT_INTERVAL: u64 = 64;

impl RoutingLog {
    /// An empty log.
    pub fn new() -> Self {
        RoutingLog {
            entries: Mutex::new(HashMap::new()),
            next_route: AtomicU64::new(1),
            replayed: Mutex::new(Vec::new()),
            replayed_total: AtomicU64::new(0),
            tombstoned_replays: AtomicU64::new(0),
            compact_ticks: AtomicU64::new(0),
        }
    }

    /// Amortized [`RoutingLog::compact`]: a cheap counter bump on most
    /// calls, a real compaction pass every [`COMPACT_INTERVAL`]-th. The
    /// federated submission path calls this on every accepted issue.
    pub(crate) fn maybe_compact(&self) {
        if self
            .compact_ticks
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(COMPACT_INTERVAL)
        {
            self.compact();
        }
    }

    /// Bounds the log's retained history: trims the replay-fingerprint
    /// list to its newest `REPLAY_HISTORY_CAP` entries and drops the
    /// oldest **resolved** cancellation tombstones beyond
    /// `TOMBSTONE_CAP`. Live (unresolved, un-cancelled) entries are
    /// never touched — they are the replay manifest. Dropping an old
    /// tombstone is safe: its client ticket already resolved
    /// `Cancelled`, and an entry absent from the log can never be
    /// replayed, so the cancel-vs-replay guarantee is preserved (the
    /// job is *forgotten*, not resurrected).
    pub fn compact(&self) {
        {
            let mut replayed = self.replayed.lock().unwrap();
            if replayed.len() > REPLAY_HISTORY_CAP {
                let excess = replayed.len() - REPLAY_HISTORY_CAP;
                replayed.drain(..excess);
            }
        }
        let mut entries = self.entries.lock().unwrap();
        let mut tombstones: Vec<u64> = entries
            .iter()
            .filter(|(_, e)| e.cancelled && e.client.is_done())
            .map(|(&route, _)| route)
            .collect();
        if tombstones.len() > TOMBSTONE_CAP {
            tombstones.sort_unstable();
            let drop_n = tombstones.len() - TOMBSTONE_CAP;
            for route in tombstones.into_iter().take(drop_n) {
                entries.remove(&route);
            }
        }
    }

    /// Records one accepted queued submission; returns its route id.
    pub(crate) fn record(
        &self,
        request: JobRequest,
        replica: usize,
        client: JobTicket,
        engine: JobTicket,
    ) -> u64 {
        let route = self.next_route.fetch_add(1, Ordering::Relaxed);
        let fingerprint = client.fingerprint();
        self.entries.lock().unwrap().insert(
            route,
            RouteEntry {
                request,
                fingerprint,
                replica,
                client,
                engine,
                replays: 0,
                cancelled: false,
                replaying: false,
            },
        );
        route
    }

    /// Drops a settled entry (no-op when already gone).
    pub(crate) fn prune(&self, route: u64) {
        self.entries.lock().unwrap().remove(&route);
    }

    /// The cancel-hook path: tombstones the entry so replay skips it,
    /// then cancels the *current* engine-side ticket (outside the lock)
    /// so a still-queued job becomes an engine tombstone too. Without
    /// the log tombstone a replica kill could resurrect a job its
    /// client had already cancelled.
    pub(crate) fn cancel_route(&self, route: u64) {
        let engine = {
            let mut entries = self.entries.lock().unwrap();
            let Some(entry) = entries.get_mut(&route) else {
                return;
            };
            entry.cancelled = true;
            entry.engine.clone()
        };
        engine.cancel();
    }

    /// True while the entry awaits re-routing after its replica died —
    /// the completion hook's signal to swallow the dead engine's `ShutDown`.
    pub(crate) fn is_replaying(&self, route: u64) -> bool {
        self.entries
            .lock()
            .unwrap()
            .get(&route)
            .is_some_and(|e| e.replaying)
    }

    /// Phase 1 of a kill: flags every live entry homed on `replica` as
    /// replaying *before* the engine is stopped, so the shutdown
    /// sweep's `ShutDown` fulfillments are absorbed instead of
    /// delivered. Cancelled and already-resolved entries are left
    /// unflagged (their outcome stands). Returns how many were flagged.
    pub(crate) fn mark_replaying(&self, replica: usize) -> usize {
        let mut flagged = 0;
        for entry in self.entries.lock().unwrap().values_mut() {
            if entry.replica == replica && !entry.cancelled && !entry.client.is_done() {
                entry.replaying = true;
                flagged += 1;
            }
        }
        flagged
    }

    /// Phase 2 of a kill, after the engine has fully stopped (every
    /// engine ticket resolved, every completion hook ran): lifts the
    /// replayable entries homed on `replica` out for resubmission.
    /// Tombstoned entries are removed and counted instead of returned —
    /// a cancelled job is never resurrected — and entries whose client
    /// already resolved are simply dropped.
    pub(crate) fn take_replayable(&self, replica: usize) -> Vec<ReplayItem> {
        let mut entries = self.entries.lock().unwrap();
        let routes: Vec<u64> = entries
            .iter()
            .filter(|(_, e)| e.replica == replica)
            .map(|(&route, _)| route)
            .collect();
        let mut items = Vec::new();
        for route in routes {
            let entry = &entries[&route];
            if entry.cancelled {
                self.tombstoned_replays.fetch_add(1, Ordering::Relaxed);
                entries.remove(&route);
            } else if entry.client.is_done() {
                entries.remove(&route);
            } else {
                items.push(ReplayItem {
                    route,
                    request: entry.request.clone(),
                    client: entry.client.clone(),
                });
            }
        }
        items.sort_by_key(|i| i.route);
        items
    }

    /// Completes a replay: points the entry at its new replica and
    /// engine ticket, clears the replaying flag, and appends the
    /// fingerprint to the replay history.
    pub(crate) fn reroute(&self, route: u64, replica: usize, engine: JobTicket) {
        let mut entries = self.entries.lock().unwrap();
        if let Some(entry) = entries.get_mut(&route) {
            entry.replica = replica;
            entry.engine = engine;
            entry.replays += 1;
            entry.replaying = false;
            self.replayed.lock().unwrap().push(entry.fingerprint);
            self.replayed_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Every entry still tracked, for shutdown sweeps: `(route, client)`
    /// pairs, cancelled entries included (their clients are already
    /// resolved, so fulfilling them again is a no-op).
    pub(crate) fn drain_all(&self) -> Vec<(u64, JobTicket)> {
        let mut entries = self.entries.lock().unwrap();
        let mut out: Vec<(u64, JobTicket)> = entries
            .drain()
            .map(|(route, e)| (route, e.client))
            .collect();
        out.sort_by_key(|(route, _)| *route);
        out
    }

    /// Entries currently tracked (submitted, unresolved or tombstoned).
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fingerprints replayed onto a surviving replica so far, in replay
    /// order (the failover bench's "which jobs were replayed" key).
    /// Bounded: [`RoutingLog::compact`] keeps only the newest
    /// `REPLAY_HISTORY_CAP`; use [`RoutingLog::replayed_total`] for
    /// the lifetime count.
    pub fn replayed(&self) -> Vec<Fingerprint> {
        self.replayed.lock().unwrap().clone()
    }

    /// Lifetime count of replays performed — unlike
    /// [`RoutingLog::replayed`], this survives history compaction.
    pub fn replayed_total(&self) -> u64 {
        self.replayed_total.load(Ordering::Relaxed)
    }

    /// Replay candidates skipped because they were tombstoned by a
    /// cancellation.
    pub fn tombstoned_replays(&self) -> u64 {
        self.tombstoned_replays.load(Ordering::Relaxed)
    }

    /// Read-only snapshot of every tracked entry, sorted by route id.
    pub fn snapshot(&self) -> Vec<RouteInfo> {
        let mut rows: Vec<RouteInfo> = self
            .entries
            .lock()
            .unwrap()
            .iter()
            .map(|(&route, e)| RouteInfo {
                route,
                fingerprint: e.fingerprint,
                replica: e.replica,
                priority: e.request.priority,
                deadline: e.request.deadline,
                tenant: e.request.tenant,
                replays: e.replays,
                cancelled: e.cancelled,
            })
            .collect();
        rows.sort_by_key(|r| r.route);
        rows
    }
}

impl Default for RoutingLog {
    fn default() -> Self {
        RoutingLog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::DftJob;

    fn fp(n: u128) -> Fingerprint {
        Fingerprint(n)
    }

    fn request(seed: u64) -> JobRequest {
        JobRequest::new(DftJob::MdSegment {
            atoms: 64,
            steps: 8,
            temperature_k: 300.0,
            seed,
        })
    }

    #[test]
    fn ring_routes_every_key_to_a_live_replica() {
        let mut ring = HashRing::new(64);
        for r in 0..4 {
            ring.add_replica(r);
        }
        for k in 0..1000u128 {
            let home = ring.primary(fp(k * 7919 + 13)).expect("non-empty ring");
            assert!(ring.contains(home));
        }
        // The exact mapping is part of the contract: a revived replica
        // reopens its per-replica WAL, which stays warm only if its keys
        // still route home.
        let homes: Vec<usize> = (0..32u128)
            .map(|k| ring.primary(fp(k * 7919 + 13)).unwrap())
            .collect();
        assert_eq!(
            homes,
            [
                2, 2, 3, 2, 1, 1, 0, 2, 3, 0, 3, 0, 2, 2, 1, 0, 2, 2, 3, 0, 1, 0, 3, 3, 2, 3, 1, 3,
                3, 3, 1, 0
            ]
        );
    }

    #[test]
    fn ring_balance_is_bounded_with_vnodes() {
        let mut ring = HashRing::new(64);
        for r in 0..4 {
            ring.add_replica(r);
        }
        let keys: Vec<Fingerprint> = (0..4096u128).map(|k| fp(k * 0x9E3779B9 + 1)).collect();
        let shares = ring.shares(&keys);
        let max = *shares.values().max().unwrap() as f64;
        let mean = keys.len() as f64 / shares.len() as f64;
        assert!(
            max / mean <= 1.35,
            "imbalanced ring: max {max} vs mean {mean}"
        );
    }

    #[test]
    fn removing_a_replica_remaps_only_its_keys() {
        let mut ring = HashRing::new(64);
        for r in 0..4 {
            ring.add_replica(r);
        }
        let keys: Vec<Fingerprint> = (0..2048u128).map(|k| fp(k * 104729 + 7)).collect();
        let before: Vec<usize> = keys.iter().map(|&k| ring.primary(k).unwrap()).collect();
        ring.remove_replica(2);
        for (&key, &home) in keys.iter().zip(&before) {
            let after = ring.primary(key).unwrap();
            if home != 2 {
                assert_eq!(after, home, "stable key {key:?} moved");
            } else {
                assert_ne!(after, 2, "key still routed to the removed replica");
            }
        }
    }

    #[test]
    fn fault_plan_fires_in_trigger_order_exactly_once() {
        let mut plan = FaultPlan::new().revive_at(9, 1).kill_at(3, 1).kill_at(7, 2);
        assert_eq!(plan.len(), 3);
        assert!(plan.take_due(2).is_empty());
        let due = plan.take_due(8);
        assert_eq!(
            due.iter().map(|a| a.at_submission).collect::<Vec<_>>(),
            vec![3, 7]
        );
        assert_eq!(due[0].event, FaultEvent::Kill);
        assert!(plan.take_due(8).is_empty(), "fired actions never repeat");
        assert_eq!(plan.take_due(100).len(), 1);
        assert!(plan.is_empty());
    }

    #[test]
    fn cancelled_entries_are_tombstoned_not_replayed() {
        let log = RoutingLog::new();
        let (client_a, _ra) = JobTicket::promise(fp(1));
        let (engine_a, _ea) = JobTicket::promise(fp(1));
        let (client_b, _rb) = JobTicket::promise(fp(2));
        let (engine_b, _eb) = JobTicket::promise(fp(2));
        let a = log.record(request(1), 0, client_a.clone(), engine_a.clone());
        let _b = log.record(request(2), 0, client_b, engine_b);

        client_a.cancel();
        log.cancel_route(a);
        assert!(engine_a.is_done(), "cancel propagates to the engine ticket");

        assert_eq!(log.mark_replaying(0), 1, "tombstoned entry not flagged");
        let items = log.take_replayable(0);
        assert_eq!(items.len(), 1, "only the live entry replays");
        assert_eq!(items[0].client.fingerprint(), fp(2));
        assert_eq!(log.tombstoned_replays(), 1);
        assert_eq!(log.len(), 1, "tombstone removed, live entry retained");
    }

    #[test]
    fn reroute_updates_replica_and_history() {
        let log = RoutingLog::new();
        let (client, _r) = JobTicket::promise(fp(9));
        let (engine, _e) = JobTicket::promise(fp(9));
        let route = log.record(request(9), 3, client, engine);
        let (engine2, _e2) = JobTicket::promise(fp(9));
        log.reroute(route, 1, engine2);
        let snap = log.snapshot();
        assert_eq!(snap[0].replica, 1);
        assert_eq!(snap[0].replays, 1);
        assert_eq!(log.replayed(), vec![fp(9)]);
        assert_eq!(log.replayed_total(), 1);
        assert!(!log.is_replaying(route));
    }

    #[test]
    fn compaction_bounds_tombstones_and_replay_history() {
        let log = RoutingLog::new();
        // A long-lived federation's worth of cancellations: every entry
        // is tombstoned with its client resolved, far past the bound.
        let total = TOMBSTONE_CAP + 300;
        for i in 0..total {
            let (client, _r) = JobTicket::promise(fp(i as u128));
            let (engine, _e) = JobTicket::promise(fp(i as u128));
            let route = log.record(request(i as u64), 0, client.clone(), engine);
            client.cancel();
            log.cancel_route(route);
        }
        assert_eq!(log.len(), total, "tombstones retained until compaction");
        log.compact();
        assert_eq!(log.len(), TOMBSTONE_CAP, "resolved tombstones bounded");
        // The newest tombstones survive (route ids are monotonic).
        let snap = log.snapshot();
        assert!(snap.iter().all(|r| r.cancelled));
        assert_eq!(
            snap.first().unwrap().route,
            (total - TOMBSTONE_CAP) as u64 + 1
        );

        // Replay history: the bounded list trims to the newest entries
        // while the lifetime total survives.
        let (client, _r) = JobTicket::promise(fp(0));
        let (engine, _e) = JobTicket::promise(fp(0));
        let route = log.record(request(1), 0, client, engine);
        let replays = REPLAY_HISTORY_CAP + 50;
        for _ in 0..replays {
            let (engine2, _e2) = JobTicket::promise(fp(0));
            log.reroute(route, 1, engine2);
        }
        log.compact();
        assert_eq!(log.replayed().len(), REPLAY_HISTORY_CAP);
        assert_eq!(log.replayed_total(), replays as u64);
    }

    #[test]
    fn compaction_never_touches_live_entries() {
        let log = RoutingLog::new();
        let mut live = Vec::new();
        for i in 0..8u64 {
            let (client, r) = JobTicket::promise(fp(i as u128));
            let (engine, _e) = JobTicket::promise(fp(i as u128));
            log.record(request(i), 0, client, engine);
            live.push(r);
        }
        for _ in 0..4 {
            log.compact();
        }
        assert_eq!(log.len(), 8, "live entries are the replay manifest");
        drop(live);
    }
}
