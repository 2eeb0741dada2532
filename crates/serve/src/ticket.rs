//! Client-facing completion handles.
//!
//! Submitting a job yields a [`JobTicket`]; the worker pool fulfills it
//! exactly once. Tickets are cheap `Arc` handles — clone freely, and
//! complete through whichever style fits the caller:
//!
//! * **Blocking** — [`JobTicket::wait`] / [`JobTicket::wait_timeout`]
//!   park the calling thread on a condvar (the original API, unchanged).
//! * **Polling** — [`JobTicket::try_result`] / [`JobTicket::is_done`].
//! * **Async** — [`JobTicket::future`] yields a [`TicketFuture`]
//!   implementing [`Future`]; drive it with [`crate::exec::block_on`],
//!   combine many with [`crate::exec::join_all`] / [`crate::exec::race`],
//!   or hand it to any external executor. `ticket.await` works too
//!   ([`IntoFuture`]).
//!
//! All three styles are views over one state machine: a mutex-guarded
//! result slot plus a registry of [`Waker`]s and completion hooks (the
//! crate-private `on_done` closures sessions, workflows and the
//! federation chain tickets with). The lost-wakeup argument
//! is a single lock: `poll` checks the slot and registers its waker
//! under the same mutex acquisition, and fulfillment writes
//! the slot and drains the registry under that mutex — so a waker
//! registered before the transition is in the drained set (woken
//! exactly once, outside the lock), and a poll that misses the drain
//! observes the filled slot and returns `Ready`. There is no window in
//! which a future can park without either being woken or seeing the
//! result.

use crate::fingerprint::Fingerprint;
use crate::job::JobError;
use crate::trace::TraceId;
use crate::worker::JobOutcome;
use std::future::{Future, IntoFuture};
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

type JobResult = Result<Arc<JobOutcome>, JobError>;

/// A completion hook: runs once, with the result the ticket resolved to.
type DoneHook = Box<dyn FnOnce(&JobResult) + Send>;

/// Result slot + waker and hook registry; every completion style is a view of
/// this one state machine.
struct TicketState {
    /// `None` while pending; written exactly once by `fulfill`.
    result: Option<JobResult>,
    /// Wakers registered by in-flight futures, keyed so a re-polled
    /// future *updates* its entry instead of duplicating it, and a
    /// dropped future can remove its own.
    wakers: Vec<(u64, Waker)>,
    /// Completion hooks registered through [`JobTicket::on_done`];
    /// never replaced or deregistered.
    hooks: Vec<DoneHook>,
    /// Allocator for waker-registry keys; key allocation is serialized
    /// by the state lock, like every other registry access.
    next_waker_key: u64,
    /// Owner-installed hook that runs iff a [`JobTicket::cancel`] call
    /// wins the resolution race — the federated router tombstones the
    /// routing log through it so a replayed replica can never resurrect
    /// a cancelled job. Dropped (never run) when any other resolution
    /// wins. Runs outside the state lock.
    cancel_hook: Option<Box<dyn FnOnce() + Send>>,
}

struct TicketInner {
    state: Mutex<TicketState>,
    done: Condvar,
}

/// Handle to one submitted job's eventual result.
#[derive(Clone)]
pub struct JobTicket {
    fingerprint: Fingerprint,
    trace: TraceId,
    inner: Arc<TicketInner>,
}

impl std::fmt::Debug for JobTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobTicket")
            .field("fingerprint", &self.fingerprint)
            .field("trace", &self.trace)
            .field("done", &self.is_done())
            .finish()
    }
}

impl JobTicket {
    /// Fresh unfulfilled ticket for a job with the given fingerprint,
    /// tagged with its engine-assigned trace id.
    pub(crate) fn pending(fingerprint: Fingerprint, trace: TraceId) -> Self {
        JobTicket {
            fingerprint,
            trace,
            inner: Arc::new(TicketInner {
                state: Mutex::new(TicketState {
                    result: None,
                    wakers: Vec::new(),
                    hooks: Vec::new(),
                    next_waker_key: 0,
                    cancel_hook: None,
                }),
                done: Condvar::new(),
            }),
        }
    }

    /// Ticket already fulfilled (cache serve on the submission path).
    pub(crate) fn ready(
        fingerprint: Fingerprint,
        trace: TraceId,
        outcome: Arc<JobOutcome>,
    ) -> Self {
        let t = JobTicket::pending(fingerprint, trace);
        t.fulfill(Ok(outcome));
        t
    }

    /// Manual-resolution pair: a pending ticket plus the handle that
    /// fulfills it. This is how adapters, executors, and tests drive the
    /// completion state machine without a running [`crate::DftService`]
    /// (the `serve_properties` lost-wakeup suite lives on it). The
    /// ticket carries [`TraceId::DETACHED`] — trace ids belong to
    /// engine admissions.
    pub fn promise(fingerprint: Fingerprint) -> (JobTicket, TicketResolver) {
        let ticket = JobTicket::pending(fingerprint, TraceId::DETACHED);
        let resolver = TicketResolver {
            ticket: Some(ticket.clone()),
        };
        (ticket, resolver)
    }

    /// The job's content fingerprint (also the cache key).
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// The engine-assigned trace id ([`TraceId::DETACHED`] for tickets
    /// created outside an engine) — the key joining this submission to
    /// its span events in a [`crate::TraceCollector`] drain.
    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    /// Delivers the result and wakes every waiter — condvar sleepers,
    /// registered future wakers and completion hooks alike. First
    /// fulfillment wins; later calls are ignored (a ticket resolves
    /// exactly once), so each registered waker and hook fires **exactly
    /// once** over the ticket's lifetime. Both run outside the state
    /// lock: a waker that immediately re-polls (or a hook that sends
    /// into a session channel) can never deadlock against the registry.
    pub(crate) fn fulfill(&self, result: JobResult) {
        let _ = self.fulfill_first(result);
    }

    /// [`JobTicket::fulfill`] that reports whether *this* call performed
    /// the pending→done transition. Cancellation rides on the return
    /// value: only the caller that wins the race may treat the job as
    /// cancelled.
    pub(crate) fn fulfill_first(&self, result: JobResult) -> bool {
        self.resolve(result, false)
    }

    /// The single pending→done transition. Takes the waker registry,
    /// the completion hooks *and* the cancel hook under the state lock;
    /// the cancel hook runs (on the cancellation path) or drops (any
    /// other resolution) before the completion hooks and wakers fire, so
    /// a cancel's side effects — e.g. tombstoning a federated routing
    /// log — are visible to every woken observer. All of them run
    /// outside the lock: none can deadlock back into the registry.
    fn resolve(&self, result: JobResult, is_cancel: bool) -> bool {
        let (wakers, hooks, cancel_hook) = {
            let mut st = self.inner.state.lock().unwrap();
            if st.result.is_some() {
                return false;
            }
            st.result = Some(result.clone());
            self.inner.done.notify_all();
            (
                std::mem::take(&mut st.wakers),
                std::mem::take(&mut st.hooks),
                st.cancel_hook.take(),
            )
        };
        match cancel_hook {
            Some(hook) if is_cancel => hook(),
            other => drop(other),
        }
        for hook in hooks {
            hook(&result);
        }
        for (_, waker) in wakers {
            waker.wake();
        }
        true
    }

    /// Installs the hook [`JobTicket::cancel`] runs if (and only if) it
    /// wins the resolution race. At most one hook per ticket (a second
    /// install replaces the first); ignored once the ticket is done —
    /// the race it guards is already decided.
    pub(crate) fn set_cancel_hook(&self, hook: Box<dyn FnOnce() + Send>) {
        let mut st = self.inner.state.lock().unwrap();
        if st.result.is_none() {
            st.cancel_hook = Some(hook);
        }
    }

    /// Cancels the job if it has not resolved yet, fulfilling the ticket
    /// with [`JobError::Cancelled`]. Returns whether the cancellation
    /// won the race (`false` means the job already completed, failed, or
    /// was cancelled by someone else — the existing result stands).
    ///
    /// A still-queued job becomes a tombstone: the worker (or the
    /// shutdown sweep) that later dequeues it observes the resolved
    /// ticket, counts the job as cancelled, and closes its trace lane
    /// (a progress stream reads `cancelled` → `done`) instead of
    /// executing it. A job that a worker has already started executes
    /// to completion, but its result is discarded — the ticket keeps
    /// the `Cancelled` outcome. Nothing is released from
    /// [`crate::ClusterView`]: queued jobs reserve nothing.
    pub fn cancel(&self) -> bool {
        self.resolve(Err(JobError::Cancelled), true)
    }

    /// Registers a completion hook: it runs exactly once, with the
    /// result the ticket resolved to, outside the state lock and after
    /// any winning cancel hook — immediately (on this thread) if the
    /// ticket has already resolved. Sessions, workflow releases and
    /// federation replays chain tickets through this; unlike a
    /// [`TicketFuture`] registration the hook is never replaced or
    /// deregistered.
    pub(crate) fn on_done(&self, hook: impl FnOnce(&JobResult) + Send + 'static) {
        let mut st = self.inner.state.lock().unwrap();
        let Some(result) = st.result.clone() else {
            st.hooks.push(Box::new(hook));
            return;
        };
        drop(st);
        hook(&result);
    }

    /// True once a result (or error) is available.
    pub fn is_done(&self) -> bool {
        self.inner.state.lock().unwrap().result.is_some()
    }

    /// Non-blocking result check.
    pub fn try_result(&self) -> Option<JobResult> {
        self.inner.state.lock().unwrap().result.clone()
    }

    /// A [`Future`] view of this ticket. Many futures can observe one
    /// ticket; each registers its own waker and resolves to a clone of
    /// the shared result.
    pub fn future(&self) -> TicketFuture {
        TicketFuture {
            ticket: self.clone(),
            key: None,
        }
    }

    /// Blocks until the job resolves.
    ///
    /// # Errors
    ///
    /// Propagates the job's [`JobError`] when execution failed.
    pub fn wait(&self) -> JobResult {
        let mut st = self.inner.state.lock().unwrap();
        loop {
            if let Some(result) = st.result.as_ref() {
                return result.clone();
            }
            st = self.inner.done.wait(st).unwrap();
        }
    }

    /// [`JobTicket::wait`] with a fixed deadline `timeout` from now;
    /// `None` on timeout (spurious wakeups do not extend it).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobResult> {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.inner.state.lock().unwrap();
        loop {
            if let Some(result) = st.result.as_ref() {
                return Some(result.clone());
            }
            let remaining = deadline.checked_duration_since(std::time::Instant::now())?;
            let (guard, _res) = self.inner.done.wait_timeout(st, remaining).unwrap();
            st = guard;
        }
    }

    /// Wakers currently registered (tests assert deregistration).
    #[cfg(test)]
    fn registered_wakers(&self) -> usize {
        self.inner.state.lock().unwrap().wakers.len()
    }
}

impl IntoFuture for JobTicket {
    type Output = JobResult;
    type IntoFuture = TicketFuture;

    fn into_future(self) -> TicketFuture {
        self.future()
    }
}

impl IntoFuture for &JobTicket {
    type Output = JobResult;
    type IntoFuture = TicketFuture;

    fn into_future(self) -> TicketFuture {
        self.future()
    }
}

/// The fulfilling half of [`JobTicket::promise`].
///
/// Consuming [`TicketResolver::fulfill`] resolves the paired ticket; if
/// the resolver is dropped unfulfilled, the ticket fails with
/// [`JobError::ShutDown`] so no waiter can hang on an abandoned promise.
#[derive(Debug)]
pub struct TicketResolver {
    /// Taken on fulfillment, so the Drop guard fires only for an
    /// abandoned resolver (and the ticket handle is always released —
    /// never leaked).
    ticket: Option<JobTicket>,
}

impl TicketResolver {
    /// Resolves the paired ticket (exactly once; the consuming signature
    /// makes double-fulfillment unrepresentable).
    pub fn fulfill(mut self, result: JobResult) {
        if let Some(ticket) = self.ticket.take() {
            ticket.fulfill(result);
        }
    }

    /// The paired ticket's fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        self.ticket
            .as_ref()
            .expect("resolver holds its ticket until fulfilled")
            .fingerprint()
    }
}

impl Drop for TicketResolver {
    fn drop(&mut self) {
        if let Some(ticket) = self.ticket.take() {
            ticket.fulfill(Err(JobError::ShutDown));
        }
    }
}

/// [`Future`] view of a [`JobTicket`], resolving to the job's result.
///
/// Created by [`JobTicket::future`] (or `ticket.await` via
/// [`IntoFuture`]). Runtime-agnostic: poll it from
/// [`crate::exec::block_on`], [`crate::exec::join_all`], or any executor.
/// Re-polling *updates* this future's registered waker in place (no
/// duplicate registrations), and dropping the future before completion
/// deregisters it, so abandoned futures leak nothing and are never woken.
#[derive(Debug)]
pub struct TicketFuture {
    ticket: JobTicket,
    /// Registry key of this future's waker entry, allocated on the first
    /// `Pending` poll.
    key: Option<u64>,
}

impl TicketFuture {
    /// The underlying ticket's fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        self.ticket.fingerprint()
    }

    /// The underlying ticket (e.g. to fall back to a blocking wait).
    pub fn ticket(&self) -> &JobTicket {
        &self.ticket
    }
}

impl Future for TicketFuture {
    type Output = JobResult;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<JobResult> {
        let this = &mut *self;
        let mut st = this.ticket.inner.state.lock().unwrap();
        if let Some(result) = st.result.as_ref() {
            // fulfill() drained the registry, so there is no entry left
            // to deregister — forget the key so Drop skips the lock scan.
            let result = result.clone();
            this.key = None;
            return Poll::Ready(result);
        }
        let key = match this.key {
            Some(key) => key,
            None => {
                let key = st.next_waker_key;
                st.next_waker_key += 1;
                this.key = Some(key);
                key
            }
        };
        match st.wakers.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => entry.1.clone_from(cx.waker()),
            None => st.wakers.push((key, cx.waker().clone())),
        }
        Poll::Pending
    }
}

impl Drop for TicketFuture {
    fn drop(&mut self) {
        // Deregister this future's waker so an abandoned future is never
        // woken and the registry cannot grow with dead entries. No-op
        // when the future resolved (key cleared) or was never polled.
        if let Some(key) = self.key {
            let mut st = self.ticket.inner.state.lock().unwrap();
            st.wakers.retain(|(k, _)| *k != key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::block_on;
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
    use std::task::Wake;
    use std::thread;

    fn fp() -> Fingerprint {
        Fingerprint(42)
    }

    struct CountingWaker {
        wakes: AtomicUsize,
    }

    impl CountingWaker {
        fn new() -> Arc<Self> {
            Arc::new(CountingWaker {
                wakes: AtomicUsize::new(0),
            })
        }

        fn count(&self) -> usize {
            self.wakes.load(AtomicOrdering::SeqCst)
        }
    }

    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.wakes.fetch_add(1, AtomicOrdering::SeqCst);
        }
    }

    /// A completion hook that counts its runs.
    fn counting_hook() -> (Arc<AtomicUsize>, impl FnOnce(&JobResult) + Send + 'static) {
        let fired = Arc::new(AtomicUsize::new(0));
        let hook_fired = Arc::clone(&fired);
        (fired, move |_: &JobResult| {
            hook_fired.fetch_add(1, AtomicOrdering::SeqCst);
        })
    }

    #[test]
    fn wait_blocks_until_fulfilled() {
        let t = JobTicket::pending(fp(), TraceId::DETACHED);
        let waiter = {
            let t = t.clone();
            thread::spawn(move || t.wait())
        };
        thread::sleep(Duration::from_millis(10));
        assert!(!t.is_done());
        t.fulfill(Err(JobError::ShutDown));
        assert_eq!(waiter.join().unwrap().unwrap_err(), JobError::ShutDown);
    }

    #[test]
    fn first_fulfillment_wins() {
        let t = JobTicket::pending(fp(), TraceId::DETACHED);
        t.fulfill(Err(JobError::ShutDown));
        t.fulfill(Err(JobError::Numerics("later".into())));
        assert_eq!(t.wait().unwrap_err(), JobError::ShutDown);
    }

    #[test]
    fn wait_timeout_expires_cleanly() {
        let t = JobTicket::pending(fp(), TraceId::DETACHED);
        assert!(t.wait_timeout(Duration::from_millis(10)).is_none());
        t.fulfill(Err(JobError::ShutDown));
        assert!(t.wait_timeout(Duration::from_millis(10)).is_some());
    }

    #[test]
    fn future_resolves_when_fulfilled_from_another_thread() {
        let t = JobTicket::pending(fp(), TraceId::DETACHED);
        let fulfiller = {
            let t = t.clone();
            thread::spawn(move || {
                // Fulfill only once the future has parked its waker, so
                // the test always covers the parked-then-woken path.
                while t.registered_wakers() != 1 {
                    thread::yield_now();
                }
                t.fulfill(Err(JobError::ShutDown));
            })
        };
        assert_eq!(block_on(t.future()).unwrap_err(), JobError::ShutDown);
        // IntoFuture works on both the handle and a reference to it.
        assert_eq!(block_on(&t).unwrap_err(), JobError::ShutDown);
        fulfiller.join().unwrap();
    }

    #[test]
    fn registered_waker_is_woken_exactly_once() {
        let t = JobTicket::pending(fp(), TraceId::DETACHED);
        let counting = CountingWaker::new();
        let waker = Waker::from(Arc::clone(&counting));
        let mut cx = Context::from_waker(&waker);
        let mut fut = t.future();
        // Two polls, one registration: the second poll updates in place.
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        assert_eq!(t.registered_wakers(), 1);
        t.fulfill(Err(JobError::ShutDown));
        assert_eq!(counting.count(), 1);
        // Fulfilling again (ignored) must not re-wake.
        t.fulfill(Err(JobError::Numerics("dup".into())));
        assert_eq!(counting.count(), 1);
        assert!(Pin::new(&mut fut).poll(&mut cx).is_ready());
        assert_eq!(t.registered_wakers(), 0);
    }

    #[test]
    fn dropped_future_deregisters_and_is_never_woken() {
        let t = JobTicket::pending(fp(), TraceId::DETACHED);
        let counting = CountingWaker::new();
        let waker = Waker::from(Arc::clone(&counting));
        let mut cx = Context::from_waker(&waker);
        let mut fut = t.future();
        assert!(Pin::new(&mut fut).poll(&mut cx).is_pending());
        assert_eq!(t.registered_wakers(), 1);
        drop(fut);
        assert_eq!(t.registered_wakers(), 0);
        t.fulfill(Err(JobError::ShutDown));
        assert_eq!(counting.count(), 0, "dropped future must not be woken");
    }

    #[test]
    fn on_done_fires_immediately_for_ready_tickets() {
        let t = JobTicket::pending(fp(), TraceId::DETACHED);
        t.fulfill(Err(JobError::ShutDown));
        let (fired, hook) = counting_hook();
        t.on_done(hook);
        assert_eq!(fired.load(AtomicOrdering::SeqCst), 1);
        // The hook receives the result the ticket resolved to.
        let seen = Arc::new(Mutex::new(None));
        let hook_seen = Arc::clone(&seen);
        t.on_done(move |result| *hook_seen.lock().unwrap() = Some(result.clone()));
        let seen = seen
            .lock()
            .unwrap()
            .take()
            .expect("hook ran on registration");
        assert_eq!(seen.unwrap_err(), JobError::ShutDown);
    }

    #[test]
    fn promise_resolver_fulfills_and_drop_fails_the_ticket() {
        let (t, resolver) = JobTicket::promise(fp());
        assert_eq!(resolver.fingerprint(), t.fingerprint());
        resolver.fulfill(Err(JobError::Numerics("boom".into())));
        assert_eq!(t.wait().unwrap_err(), JobError::Numerics("boom".into()));

        let (t, resolver) = JobTicket::promise(fp());
        drop(resolver);
        assert_eq!(
            t.wait().unwrap_err(),
            JobError::ShutDown,
            "abandoned promise fails instead of hanging"
        );
    }

    #[test]
    fn cancel_wins_only_while_pending_and_wakes_once() {
        let t = JobTicket::pending(fp(), TraceId::DETACHED);
        let (fired, hook) = counting_hook();
        t.on_done(hook);
        assert!(t.cancel(), "pending ticket cancels");
        assert_eq!(t.wait().unwrap_err(), JobError::Cancelled);
        assert_eq!(fired.load(AtomicOrdering::SeqCst), 1);
        assert!(!t.cancel(), "second cancel loses");
        t.fulfill(Err(JobError::ShutDown));
        assert_eq!(
            t.wait().unwrap_err(),
            JobError::Cancelled,
            "cancellation outcome stands against a late fulfill"
        );
        assert_eq!(fired.load(AtomicOrdering::SeqCst), 1, "no hook fires twice");
    }

    #[test]
    fn cancel_loses_to_a_completed_ticket() {
        let t = JobTicket::pending(fp(), TraceId::DETACHED);
        t.fulfill(Err(JobError::Numerics("done first".into())));
        assert!(!t.cancel());
        assert_eq!(
            t.wait().unwrap_err(),
            JobError::Numerics("done first".into())
        );
    }

    #[test]
    fn cancel_hook_runs_only_when_cancel_wins() {
        // Winning cancel runs the hook exactly once.
        let t = JobTicket::pending(fp(), TraceId::DETACHED);
        let fired = Arc::new(AtomicUsize::new(0));
        let hook_fired = Arc::clone(&fired);
        t.set_cancel_hook(Box::new(move || {
            hook_fired.fetch_add(1, AtomicOrdering::SeqCst);
        }));
        assert!(t.cancel());
        assert_eq!(fired.load(AtomicOrdering::SeqCst), 1);
        assert!(!t.cancel(), "second cancel loses");
        assert_eq!(fired.load(AtomicOrdering::SeqCst), 1, "hook never reruns");

        // A completion beats the cancel: the hook is dropped unrun.
        let t = JobTicket::pending(fp(), TraceId::DETACHED);
        let fired = Arc::new(AtomicUsize::new(0));
        let hook_fired = Arc::clone(&fired);
        t.set_cancel_hook(Box::new(move || {
            hook_fired.fetch_add(1, AtomicOrdering::SeqCst);
        }));
        t.fulfill(Err(JobError::ShutDown));
        assert!(!t.cancel());
        assert_eq!(
            fired.load(AtomicOrdering::SeqCst),
            0,
            "losing cancel must not run the hook"
        );

        // Installing on a done ticket is a no-op.
        let t = JobTicket::pending(fp(), TraceId::DETACHED);
        t.fulfill(Err(JobError::ShutDown));
        let fired = Arc::new(AtomicUsize::new(0));
        let hook_fired = Arc::clone(&fired);
        t.set_cancel_hook(Box::new(move || {
            hook_fired.fetch_add(1, AtomicOrdering::SeqCst);
        }));
        assert!(!t.cancel());
        assert_eq!(fired.load(AtomicOrdering::SeqCst), 0);
    }

    #[test]
    fn cancel_hook_side_effects_precede_waker_delivery() {
        // The federation's tombstone ordering: when the cancel hook
        // fires, its effect must be observable from every completion
        // hook and every waker the cancel wakes.
        let t = JobTicket::pending(fp(), TraceId::DETACHED);
        let order = Arc::new(Mutex::new(Vec::new()));
        struct OrderWaker {
            order: Arc<Mutex<Vec<&'static str>>>,
        }
        impl Wake for OrderWaker {
            fn wake(self: Arc<Self>) {
                self.order.lock().unwrap().push("waker");
            }
        }
        let waker = Waker::from(Arc::new(OrderWaker {
            order: Arc::clone(&order),
        }));
        let mut fut = t.future();
        assert!(Pin::new(&mut fut)
            .poll(&mut Context::from_waker(&waker))
            .is_pending());
        let done_order = Arc::clone(&order);
        t.on_done(move |_| done_order.lock().unwrap().push("done"));
        let hook_order = Arc::clone(&order);
        t.set_cancel_hook(Box::new(move || {
            hook_order.lock().unwrap().push("hook");
        }));
        assert!(t.cancel());
        assert_eq!(*order.lock().unwrap(), vec!["hook", "done", "waker"]);
    }

    #[test]
    fn racing_fulfill_and_cancel_fire_the_hook_once_with_the_waited_result() {
        for _ in 0..100 {
            let t = JobTicket::pending(fp(), TraceId::DETACHED);
            let seen = Arc::new(Mutex::new(Vec::new()));
            let hook_seen = Arc::clone(&seen);
            t.on_done(move |result| hook_seen.lock().unwrap().push(result.clone()));
            let start = Arc::new(std::sync::Barrier::new(2));
            let fulfiller = {
                let (t, start) = (t.clone(), Arc::clone(&start));
                thread::spawn(move || {
                    start.wait();
                    t.fulfill(Err(JobError::Numerics("finished".into())));
                })
            };
            let canceller = {
                let t = t.clone();
                thread::spawn(move || {
                    start.wait();
                    t.cancel()
                })
            };
            fulfiller.join().unwrap();
            let cancel_won = canceller.join().unwrap();
            let waited = t.wait().unwrap_err();
            let seen = seen.lock().unwrap();
            assert_eq!(seen.len(), 1, "the hook fires exactly once");
            assert_eq!(seen[0].clone().unwrap_err(), waited);
            assert_eq!(cancel_won, waited == JobError::Cancelled);
        }
    }

    #[test]
    fn resolver_releases_its_ticket_handle_on_fulfill() {
        // Regression: fulfill() must not leak the resolver's Arc handle
        // (a long-lived adapter makes one promise per request).
        let (t, resolver) = JobTicket::promise(fp());
        assert_eq!(Arc::strong_count(&t.inner), 2);
        resolver.fulfill(Err(JobError::ShutDown));
        assert_eq!(
            Arc::strong_count(&t.inner),
            1,
            "fulfilled resolver released its handle"
        );
    }
}
