//! Minimal runtime-agnostic executor and future combinators.
//!
//! The async client API ([`crate::TicketFuture`], [`crate::ClientSession`])
//! is deliberately runtime-free — the repo builds offline with no tokio.
//! This module supplies just enough machinery to drive those futures
//! from synchronous code:
//!
//! * [`block_on`] — park-based single-future executor (one thread, no
//!   pool, no reactor). Wakes ride on [`std::thread::Thread::unpark`], whose
//!   token semantics close the classic sleep/wake race: an unpark that
//!   lands between a `Pending` poll and the park makes the park return
//!   immediately.
//! * [`join_all`] — await every future, results in submission order.
//! * [`race`] — await the first future to resolve.
//!
//! The combinators are generic over any `Unpin` future, not just ticket
//! futures. They share the caller's waker across children and re-poll
//! every still-pending child per wake — O(n) per completion, the right
//! trade for batch sizes in the thousands (no per-child waker
//! allocation), documented here so nobody mistakes it for a scheduler.

use std::future::{Future, IntoFuture};
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

/// Waker that unparks the thread blocked in [`block_on`].
struct ThreadUnparker {
    thread: Thread,
}

impl Wake for ThreadUnparker {
    fn wake(self: Arc<Self>) {
        self.thread.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.thread.unpark();
    }
}

/// Drives one future to completion on the calling thread, parking
/// between polls. Accepts anything [`IntoFuture`], so
/// `block_on(ticket)` and `block_on(async { ... })` both work.
///
/// Spurious unparks (e.g. a stale waker from an earlier combinator
/// round) only cost an extra poll — the loop never trusts a wake, it
/// re-polls and re-parks.
pub fn block_on<F: IntoFuture>(future: F) -> F::Output {
    let mut future = std::pin::pin!(future.into_future());
    let waker = Waker::from(Arc::new(ThreadUnparker {
        thread: std::thread::current(),
    }));
    let mut cx = Context::from_waker(&waker);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(output) => return output,
            Poll::Pending => std::thread::park(),
        }
    }
}

/// Future returned by [`join_all`].
///
/// Resolves once every child has, yielding outputs in the order the
/// children were given (not completion order — the session's
/// [`crate::CompletionStream`] is the finish-order path).
#[derive(Debug)]
pub struct JoinAll<F: Future> {
    /// Pending children; a slot is vacated the moment it resolves so a
    /// completed future is never polled again.
    children: Vec<Option<F>>,
    outputs: Vec<Option<F::Output>>,
    remaining: usize,
}

/// Awaits every future in `children`; the output preserves input order.
/// An empty input resolves immediately to an empty `Vec`.
pub fn join_all<I>(children: I) -> JoinAll<I::Item>
where
    I: IntoIterator,
    I::Item: Future + Unpin,
{
    let children: Vec<Option<I::Item>> = children.into_iter().map(Some).collect();
    let remaining = children.len();
    let outputs = children.iter().map(|_| None).collect();
    JoinAll {
        children,
        outputs,
        remaining,
    }
}

// Load-bearing, not boilerplate: the compiler's auto-`Unpin` cannot be
// proven for `JoinAll<F>` in generic contexts (the `Vec<Option<F::Output>>`
// projection defeats it — deleting this impl fails `poll`'s `&mut *self`
// with E0596). Sound because every field is a plain `Vec`/`usize` and the
// children are themselves required `Unpin` to be polled.
impl<F: Future> Unpin for JoinAll<F> {}

impl<F: Future + Unpin> Future for JoinAll<F> {
    type Output = Vec<F::Output>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Vec<F::Output>> {
        let this = &mut *self;
        for (slot, output) in this.children.iter_mut().zip(this.outputs.iter_mut()) {
            if let Some(child) = slot.as_mut() {
                if let Poll::Ready(out) = Pin::new(child).poll(cx) {
                    *slot = None;
                    *output = Some(out);
                    this.remaining -= 1;
                }
            }
        }
        if this.remaining == 0 {
            Poll::Ready(
                this.outputs
                    .iter_mut()
                    .map(|o| o.take().expect("every child resolved"))
                    .collect(),
            )
        } else {
            Poll::Pending
        }
    }
}

/// Future returned by [`race`].
#[derive(Debug)]
pub struct Race<F> {
    children: Vec<F>,
}

/// Awaits the **first** future to resolve, yielding `(index, output)`
/// where `index` is the winner's position in the input. The losers are
/// dropped with the `Race` (ticket futures deregister their wakers on
/// drop, so abandoned contestants leak nothing).
///
/// # Panics
///
/// Panics on an empty input — a race with no contestants would never
/// resolve.
pub fn race<I>(children: I) -> Race<I::Item>
where
    I: IntoIterator,
    I::Item: Future + Unpin,
{
    let children: Vec<I::Item> = children.into_iter().collect();
    assert!(!children.is_empty(), "race needs at least one future");
    Race { children }
}

// Same story as `JoinAll`: required for `poll`'s `&mut *self` on a
// generic `F`.
impl<F> Unpin for Race<F> {}

impl<F: Future + Unpin> Future for Race<F> {
    type Output = (usize, F::Output);

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<(usize, F::Output)> {
        for (i, child) in self.children.iter_mut().enumerate() {
            if let Poll::Ready(out) = Pin::new(child).poll(cx) {
                return Poll::Ready((i, out));
            }
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::Fingerprint;
    use crate::job::JobError;
    use crate::ticket::JobTicket;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A waker that only counts its wakes, so a test can poll by hand
    /// and resolve tickets one at a time on its own thread.
    #[derive(Default)]
    struct CountingWaker(AtomicUsize);

    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    impl CountingWaker {
        fn wakes(&self) -> usize {
            self.0.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn block_on_ready_future() {
        assert_eq!(block_on(std::future::ready(7)), 7);
    }

    #[test]
    fn join_all_preserves_input_order_whatever_finish_order() {
        let pairs: Vec<_> = (0..4).map(|i| JobTicket::promise(Fingerprint(i))).collect();
        let futures: Vec<_> = pairs.iter().map(|(t, _)| t.future()).collect();
        let resolvers: Vec<_> = pairs.into_iter().map(|(_, r)| r).collect();
        let counter = Arc::new(CountingWaker::default());
        let waker = Waker::from(Arc::clone(&counter));
        let mut cx = Context::from_waker(&waker);
        let mut joined = join_all(futures);
        // Resolve in reverse order; join_all must still report 0..4, and
        // stay pending until the last ticket resolves.
        for (i, r) in resolvers.into_iter().enumerate().rev() {
            assert!(Pin::new(&mut joined).poll(&mut cx).is_pending(), "{i}");
            let wakes = counter.wakes();
            r.fulfill(Err(JobError::Numerics(format!("{i}"))));
            assert_eq!(counter.wakes(), wakes + 1, "resolving {i} wakes the join");
        }
        let Poll::Ready(results) = Pin::new(&mut joined).poll(&mut cx) else {
            panic!("join_all still pending after every ticket resolved");
        };
        assert_eq!(results.len(), 4);
        for (i, result) in results.iter().enumerate() {
            assert_eq!(
                result.as_ref().unwrap_err(),
                &JobError::Numerics(format!("{i}"))
            );
        }
    }

    #[test]
    fn join_all_of_nothing_resolves_immediately() {
        let results = block_on(join_all(Vec::<crate::ticket::TicketFuture>::new()));
        assert!(results.is_empty());
    }

    #[test]
    fn race_yields_first_resolved_with_its_index() {
        let (slow, _keep_pending) = JobTicket::promise(Fingerprint(0));
        let (fast, resolver) = JobTicket::promise(Fingerprint(1));
        let counter = Arc::new(CountingWaker::default());
        let waker = Waker::from(Arc::clone(&counter));
        let mut cx = Context::from_waker(&waker);
        let mut raced = race(vec![slow.future(), fast.future()]);
        assert!(Pin::new(&mut raced).poll(&mut cx).is_pending());
        resolver.fulfill(Err(JobError::ShutDown));
        assert_eq!(counter.wakes(), 1, "the resolution wakes the race");
        let Poll::Ready((winner, result)) = Pin::new(&mut raced).poll(&mut cx) else {
            panic!("race still pending after a contestant resolved");
        };
        assert_eq!(winner, 1);
        assert_eq!(result.unwrap_err(), JobError::ShutDown);
    }

    #[test]
    #[should_panic(expected = "race needs at least one future")]
    fn empty_race_panics() {
        drop(race(Vec::<crate::ticket::TicketFuture>::new()));
    }
}
