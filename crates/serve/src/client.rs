//! Multiplexing client sessions over one [`DftService`].
//!
//! A [`ClientSession`] is the frontend-facing answer to "keep thousands
//! of jobs in flight per thread": submissions return a session-scoped
//! [`JobId`] immediately, and completions drain **in finish order**
//! through a channel-backed [`CompletionStream`] — one drainer thread
//! services any number of outstanding jobs, instead of one parked OS
//! thread per [`crate::JobTicket::wait`].
//!
//! The mechanism is the ticket state machine itself: `submit` registers
//! a completion hook on the job's ticket ([`crate::JobTicket`]'s
//! `on_done` closure). When a worker fulfills the ticket, the hook runs
//! exactly once on the fulfilling thread with the result and sends a
//! [`SessionCompletion`] into the session channel; a cache-served
//! submission skips the ticket and is sent on the spot. No polling, no
//! extra threads, provably no lost completions (the registration shares
//! the ticket's lost-wakeup-free lock discipline).
//!
//! A session submits through a `dag::Backend` — one engine or a
//! federation — which is the same handle workflow releases use, so both
//! front doors share one admission path.
//!
//! Sessions are `Sync`: any number of frontend threads may submit
//! through one `&ClientSession` concurrently (the 4×2 500-job
//! `async_multiplex` example does exactly that). For future-style
//! consumption of individual jobs, [`ClientSession::future`] hands out a
//! [`crate::TicketFuture`] for any still-in-flight id; combine futures
//! with [`crate::exec::join_all`] / [`crate::exec::race`].

use crate::dag::{self, Backend, WorkflowError, WorkflowSpec, WorkflowTicket};
#[cfg(doc)]
use crate::federation::FederatedService;
use crate::fingerprint::Fingerprint;
use crate::job::{JobError, JobRequest};
use crate::queue::SubmitError;
#[cfg(doc)]
use crate::service::DftService;
use crate::service::Issued;
use crate::ticket::{JobTicket, TicketFuture};
use crate::worker::JobOutcome;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Session-scoped identifier of one submitted job.
///
/// Distinct from the content [`Fingerprint`]: submitting the same
/// calculation twice yields one fingerprint but two ids, so a frontend
/// can correlate completions with *requests*, not just payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// One finished job, delivered through the session's
/// [`CompletionStream`] in finish order.
#[derive(Debug, Clone)]
pub struct SessionCompletion {
    /// The id [`ClientSession::submit`] returned for this job.
    pub id: JobId,
    /// The job's content fingerprint.
    pub fingerprint: Fingerprint,
    /// The job's result (shared outcome on success).
    pub result: Result<Arc<JobOutcome>, JobError>,
}

/// State shared by the session handle and its completion hooks.
struct SessionShared {
    /// Tickets of jobs submitted but not yet completed; pruned by the
    /// completion hook the moment a job finishes, so the map is bounded
    /// by the number of jobs *in flight*, not submitted.
    inflight_tickets: Mutex<HashMap<JobId, JobTicket>>,
    next_id: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
}

/// A multiplexing client handle over one [`DftService`] — or one
/// [`FederatedService`] fronting several.
///
/// Created (paired with its [`CompletionStream`]) by
/// [`DftService::session`] or [`FederatedService::session`]. Borrows
/// the backend, so the engine(s) are guaranteed alive for the session's
/// lifetime. Federated sessions behave identically, with one addition:
/// a job whose home replica is killed mid-flight is transparently
/// replayed onto a surviving replica, and its completion arrives on
/// this stream exactly once either way.
pub struct ClientSession<'a> {
    backend: Backend,
    shared: Arc<SessionShared>,
    /// Completion channel; used directly for cache-served submissions
    /// and cloned into each completion hook for in-flight ones.
    tx: Sender<SessionCompletion>,
    /// The borrow of the façade the session was opened on.
    _facade: PhantomData<&'a ()>,
}

impl ClientSession<'_> {
    pub(crate) fn new(backend: Backend) -> (Self, CompletionStream) {
        let (tx, rx) = std::sync::mpsc::channel();
        let session = ClientSession {
            backend,
            shared: Arc::new(SessionShared {
                inflight_tickets: Mutex::new(HashMap::new()),
                next_id: AtomicU64::new(0),
                submitted: AtomicU64::new(0),
                completed: AtomicU64::new(0),
            }),
            tx,
            _facade: PhantomData,
        };
        (session, CompletionStream { rx })
    }

    /// Non-blocking submission; the completion will arrive on this
    /// session's [`CompletionStream`]. Cache-served jobs complete before
    /// this returns. Accepts a bare [`crate::DftJob`] or a full
    /// [`JobRequest`] with priority/deadline/tenant.
    ///
    /// # Errors
    ///
    /// Exactly [`DftService::submit`]'s errors: [`SubmitError::InvalidJob`],
    /// [`SubmitError::QueueFull`], [`SubmitError::AdmissionDenied`],
    /// [`SubmitError::QuotaExceeded`], [`SubmitError::Closed`].
    pub fn submit(&self, request: impl Into<JobRequest>) -> Result<JobId, SubmitError> {
        self.attach(self.backend.issue(request.into(), false)?)
    }

    /// Like [`ClientSession::submit`] but blocks for queue space instead
    /// of returning [`SubmitError::QueueFull`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::InvalidJob`], [`SubmitError::AdmissionDenied`],
    /// [`SubmitError::QuotaExceeded`], or [`SubmitError::Closed`].
    pub fn submit_blocking(&self, request: impl Into<JobRequest>) -> Result<JobId, SubmitError> {
        self.attach(self.backend.issue(request.into(), true)?)
    }

    /// Submits a dependency graph of jobs
    /// ([`DftService::submit_workflow`] /
    /// [`FederatedService::submit_workflow`]) and multiplexes every
    /// node's completion onto this session's [`CompletionStream`].
    /// Returns the graph-level [`WorkflowTicket`] plus one [`JobId`]
    /// per node, indexed by the node's position in the spec.
    ///
    /// Node completions obey the graph: a child's
    /// [`SessionCompletion`] never precedes all of its parents' on the
    /// stream. (Internally the session attaches completion hooks in
    /// topological order — computed *before* submission consumes the
    /// spec — so the guarantee holds even when every node was already
    /// cache-served by the time the hooks attach.) Cancelling a
    /// node id orphans its unreleased descendants, each of which still
    /// delivers exactly one completion
    /// ([`JobError::DependencyFailed`]).
    ///
    /// # Errors
    ///
    /// Exactly [`DftService::submit_workflow`]'s errors — the spec is
    /// empty, has a dangling or self edge, contains a cycle, or a
    /// member job is invalid; nothing is submitted or tracked on error.
    pub fn submit_workflow(
        &self,
        spec: WorkflowSpec,
    ) -> Result<(WorkflowTicket, Vec<JobId>), WorkflowError> {
        let order = spec.topological_order()?;
        let workflow = dag::submit(self.backend.clone(), spec)?;
        let mut ids = vec![JobId(u64::MAX); workflow.len()];
        for node in order {
            ids[node] = self.attach_ticket(workflow.tickets()[node].clone());
        }
        Ok((workflow, ids))
    }

    /// Cancels an in-flight job by id. `true` when this call resolved
    /// the ticket with [`JobError::Cancelled`] — a still-queued job
    /// becomes a tombstone the workers sweep past without executing;
    /// a job already executing completes, but its result is discarded.
    /// `false` when the job already finished (or the id is unknown) —
    /// its completion was, or will be, delivered normally.
    pub fn cancel(&self, id: JobId) -> bool {
        // Clone the ticket out of the lock first: cancelling runs the
        // completion hook on this thread, and the hook takes the same
        // lock to prune its entry.
        let ticket = self.ticket(id);
        ticket.is_some_and(|t| t.cancel())
    }

    /// Wires a submission into the session: allocate an id and either
    /// deliver the completion on the spot (cache serve — no ticket, no
    /// hook, just a channel send) or track the ticket in flight and
    /// register the completion hook on it.
    fn attach(&self, issued: Issued) -> Result<JobId, SubmitError> {
        let id = JobId(self.shared.next_id.fetch_add(1, Ordering::Relaxed));
        self.shared.submitted.fetch_add(1, Ordering::AcqRel);
        let ticket = match issued {
            Issued::Cached {
                fingerprint,
                outcome,
                ..
            } => {
                // The job was never in flight: deliver directly, skipping
                // the ticket map and the completion hook entirely.
                self.shared.completed.fetch_add(1, Ordering::AcqRel);
                let _ = self.tx.send(SessionCompletion {
                    id,
                    fingerprint,
                    result: Ok(outcome),
                });
                return Ok(id);
            }
            Issued::Queued(ticket) => ticket,
        };
        self.track(id, ticket);
        Ok(id)
    }

    /// Wires an already-created ticket (a workflow node's) into the
    /// session: allocates an id and registers the completion hook.
    /// Already-resolved tickets deliver their completion synchronously,
    /// on this thread, before this returns — which is why workflow
    /// attach order is completion order for cache-served graphs.
    fn attach_ticket(&self, ticket: JobTicket) -> JobId {
        let id = JobId(self.shared.next_id.fetch_add(1, Ordering::Relaxed));
        self.shared.submitted.fetch_add(1, Ordering::AcqRel);
        self.track(id, ticket);
        id
    }

    fn track(&self, id: JobId, ticket: JobTicket) {
        // Insert before registering: a ticket resolving mid-attach runs
        // the hook on this very thread, and the prune must find its
        // entry.
        self.shared
            .inflight_tickets
            .lock()
            .unwrap()
            .insert(id, ticket.clone());
        let fingerprint = ticket.fingerprint();
        let tx = self.tx.clone();
        let session = Arc::downgrade(&self.shared);
        ticket.on_done(move |result| {
            if let Some(shared) = session.upgrade() {
                shared.inflight_tickets.lock().unwrap().remove(&id);
                shared.completed.fetch_add(1, Ordering::AcqRel);
            }
            // A dropped CompletionStream just discards completions; the
            // session keeps working for callers that use futures instead.
            let _ = tx.send(SessionCompletion {
                id,
                fingerprint,
                result: result.clone(),
            });
        });
    }

    /// The ticket behind an id, while the job is still in flight.
    /// `None` once the job completed (its result went to the
    /// [`CompletionStream`]) — the session prunes finished tickets so
    /// long-lived sessions stay bounded by in-flight work.
    pub fn ticket(&self, id: JobId) -> Option<JobTicket> {
        self.shared
            .inflight_tickets
            .lock()
            .unwrap()
            .get(&id)
            .cloned()
    }

    /// A [`Future`](std::future::Future) for an in-flight job (`None`
    /// once it completed; see [`ClientSession::ticket`]).
    pub fn future(&self, id: JobId) -> Option<TicketFuture> {
        self.ticket(id).map(|t| t.future())
    }

    /// Jobs submitted through this session so far.
    pub fn submitted(&self) -> u64 {
        self.shared.submitted.load(Ordering::Acquire)
    }

    /// Jobs whose completions have been delivered so far.
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::Acquire)
    }

    /// Jobs currently in flight on this session (submitted − completed).
    /// Saturating: the two counters are read independently while other
    /// threads submit and complete, so a snapshot can transiently
    /// observe a completion before its submission.
    pub fn in_flight(&self) -> u64 {
        self.submitted().saturating_sub(self.completed())
    }
}

impl Drop for ClientSession<'_> {
    fn drop(&mut self) {
        // A session owns its in-flight jobs: dropping it cancels every
        // one still queued (an already-executing job finishes, but its
        // result is discarded). Tickets are cloned out of the lock
        // first — each cancel runs the completion hook on this very
        // thread, and the hook re-takes the lock to prune its entry.
        let tickets: Vec<JobTicket> = self
            .shared
            .inflight_tickets
            .lock()
            .unwrap()
            .values()
            .cloned()
            .collect();
        for ticket in tickets {
            ticket.cancel();
        }
    }
}

impl std::fmt::Debug for ClientSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientSession")
            .field("submitted", &self.submitted())
            .field("completed", &self.completed())
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

/// Finish-order completion stream of one [`ClientSession`].
///
/// Single-consumer (the receiving half of the session channel). The
/// stream ends (`None`) once the session **and** every pending
/// completion hook are gone — i.e. after the session is dropped and all
/// its jobs resolved. While the session lives, [`CompletionStream::next`]
/// blocks until a job finishes; drain exactly as many completions as
/// you submitted, or use the timeout/non-blocking variants.
#[derive(Debug)]
pub struct CompletionStream {
    rx: Receiver<SessionCompletion>,
}

impl CompletionStream {
    /// Blocks for the next completion; `None` at end of stream.
    pub fn next(&self) -> Option<SessionCompletion> {
        self.rx.recv().ok()
    }

    /// [`CompletionStream::next`] with a timeout; `None` on timeout or
    /// end of stream.
    pub fn next_timeout(&self, timeout: Duration) -> Option<SessionCompletion> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Next completion without blocking; `None` when none is ready.
    pub fn try_next(&self) -> Option<SessionCompletion> {
        self.rx.try_recv().ok()
    }

    /// Takes every completion currently buffered, without blocking.
    pub fn drain(&self) -> Vec<SessionCompletion> {
        self.rx.try_iter().collect()
    }
}
