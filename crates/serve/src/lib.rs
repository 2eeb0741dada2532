//! # ndft-serve
//!
//! A concurrent **DFT-as-a-Service job engine** over the NDFT co-design
//! stack. Real deployments see *streams* of related calculations — SCF
//! ground states, MD segments, excitation spectra — not single runs; this
//! crate turns the per-run machinery of `ndft_dft`, `ndft_sched`, and
//! `ndft_core` into a serving system:
//!
//! * [`DftJob`] — one calculation request; pure data, so its
//!   [`Fingerprint`] content-addresses the result.
//! * [`DftService`] — the façade: bounded-queue submission with
//!   backpressure ([`SubmitError::QueueFull`]), a worker pool, and a
//!   drain-on-[`shutdown`](DftService::shutdown) lifecycle.
//! * **Sharding + work stealing** — submissions route across the
//!   [`ShardedQueue`]'s independent bounded shards by [`WorkloadClass`]
//!   shard key ([`WorkloadClass::shard_key`]), each worker drains a home
//!   shard, and idle workers steal the largest batchable run from the
//!   most-loaded victim ([`StolenRun`]), so multi-socket hosts scale
//!   past a single queue lock. `ServeConfig { shards: 1, .. }`
//!   reproduces the old single-queue engine.
//! * **Batching** — workers drain their shard in chunks and group jobs
//!   by [`WorkloadClass`] (same kind/size/iterations ⇒ same task-graph
//!   shape), so one planner consultation covers the whole batch; stolen
//!   runs are key-coherent and batch the same way ([`BatchOrigin`]).
//! * **Fused cross-job batch execution** — a same-class batch of ≥ 2
//!   members executes through a shared-operand path
//!   ([`ServeConfig::fused_execution`], default on): one Kohn–Sham
//!   Hamiltonian serves every ground-state member, one neighbour scan
//!   every MD member, and the batch is placed under the amortized
//!   per-member view (an `ndft_sched::PlanRequest` with `members` set,
//!   over the fused task graph), where shared operand DRAM traffic,
//!   the shared-block gather and boundary transfer latency are charged
//!   once per batch instead of once per job. Per-job results stay
//!   **bit-identical** to solo execution — fusion shares only setup.
//!   [`ServeReport`] carries the `fused_jobs` / `fused_batches` /
//!   `fused_amortized_s` trio, and traced engines get one `FusedExec`
//!   span per fused batch. `fused_execution: false` reproduces the
//!   per-job engine exactly.
//! * **Planner-driven placement** — each batch consults the `ndft_sched`
//!   planners ([`PlacementPolicy`]) over the measured, gather-charging
//!   CPU-NDP machine ([`ndft_core::MeasuredTimer`], built once per
//!   system size and kept) that also times the plan; the
//!   [`PlacementDecision`] keeps both pinned baselines so
//!   service-level speedup is always checkable.
//! * **Utilization-aware cross-job placement** — workers share a
//!   [`ClusterView`] of the modeled busy time in-flight batches have
//!   reserved per target; planning consults it (as the request's
//!   `ndft_sched::TargetLoad`) so concurrent batches spread across
//!   CPU and NDP instead of piling onto the same modeled stacks, and
//!   each batch's footprint is held as an RAII [`Reservation`] released
//!   on every exit path.
//! * **Two-tier result caching** — a content-addressed [`ResultCache`]
//!   serves repeated submissions without re-running the numerics. The
//!   bounded memory tier evicts by [`CachePolicy`]: **cost-weighted**
//!   (each entry carries its plan's modeled compute cost, and the
//!   minimum cost/age score is evicted via a keyed priority index, so
//!   expensive Casida solves outlive floods of cheap MD segments) or
//!   the seed engine's FIFO. An optional **persistent tier**
//!   (`ServeConfig::cache_dir`) writes every result through to an
//!   append-only log keyed by the same [`Fingerprint`] ([`persist`]),
//!   reloads lazily on miss, and survives engine restarts.
//! * **Async client API** — every [`JobTicket`] is future-capable: its
//!   completion state machine stores registered [`std::task::Waker`]s,
//!   so a [`TicketFuture`] (or `ticket.await`) resolves with provably no
//!   lost wakeups while the blocking `wait` path rides the same lock. A
//!   multiplexing [`ClientSession`] keeps thousands of jobs in flight
//!   per frontend thread — submissions return a session-scoped
//!   [`JobId`], completions drain in finish order through a
//!   channel-backed [`CompletionStream`] — and [`exec`] ships a minimal
//!   `block_on` executor plus `join_all`/`race` combinators, all
//!   runtime-agnostic (no tokio).
//! * **Progress streaming** — every lifecycle transition is published
//!   once, into the one bounded drop-oldest event ring in [`trace`];
//!   [`DftService::progress`] ([`ProgressStream`]) is a live view of its
//!   lifecycle kinds (`Queued` → `Running` → `Done`, cache-hit, cancel
//!   and panic paths included), so a frontend can watch each job
//!   without touching the aggregate report.
//! * **Multi-tenant QoS** — submissions carry a [`JobRequest`] (built
//!   from any [`DftJob`] via `JobRequest::new(job).priority(..)
//!   .deadline(..).tenant(..)`): three [`Priority`] classes map onto
//!   per-shard lanes served highest-first with an aging escape hatch
//!   (no class starves); [`JobTicket::cancel`] /
//!   [`ClientSession::cancel`] pull still-queued jobs back out as
//!   tombstones; deadlines are enforced twice — at submission by
//!   modeled admission control ([`SubmitError::AdmissionDenied`]) and
//!   at dispatch by dropping expired entries — and an optional
//!   per-[`TenantId`] in-flight quota ([`ServeConfig::tenant_quota`])
//!   keeps one tenant from monopolizing the engine.
//! * **Federated serving** — a [`FederatedService`] fronts N engine
//!   replicas behind the same submission API: fingerprints
//!   consistent-hash onto a virtual-node [`HashRing`] ([`router`]) so
//!   repeated jobs always land where their result is cached, every
//!   accepted job is recorded in a [`RoutingLog`], and killing a
//!   replica (ad hoc or via a deterministic [`FaultPlan`]) replays its
//!   un-resolved jobs onto the survivors with QoS metadata intact —
//!   each client ticket still resolves **exactly once**
//!   ([`FederationReport::conservation_holds`]). Revived replicas
//!   rejoin with their per-replica disk tier
//!   ([`persist::replica_cache_dir`]) warm.
//! * **Workflow DAGs** — [`dag`] serves *pipelines*, not just jobs: a
//!   [`WorkflowSpec`] declares jobs as nodes and ordering dependencies
//!   as edges (band-structure sweeps reducing into one result, MD
//!   trajectories fanning into per-frame spectra, SCF chains seeding
//!   each other), validation rejects cycles and dangling edges before
//!   any state is created, and a coordinator holds each node *outside*
//!   the queue shards until its last parent fulfills — release rides
//!   a ticket completion hook, so there is no polling thread. Data
//!   moves through the result cache alone: a parent's outcome is
//!   stored before its children release, and a self-consistent child
//!   finds its bootstrap ground state there like any other job.
//!   Submit via [`DftService::submit_workflow`] (or the federated
//!   twin) and watch the whole graph through a [`WorkflowTicket`].
//!   Nodes whose upstream fails are **orphaned** exactly once,
//!   extending conservation to
//!   `submitted == completed + failed + cancelled + deadline_dropped +
//!   orphaned`.
//! * **Metrics** — throughput, steal counters, per-shard
//!   depth/occupancy, in-flight ticket gauge, cancellation /
//!   deadline-drop / admission accounting, and modeled per-target
//!   utilization, aggregated into a [`ServeReport`]. Latency (per
//!   stage, per class, per priority) lives only in the telemetry
//!   histograms, exported as a [`TelemetrySnapshot`].
//!
//! ## Example
//!
//! ```
//! use ndft_serve::{DftJob, DftService, ServeConfig};
//!
//! let svc = DftService::start(ServeConfig::default());
//! let ticket = svc
//!     .submit(DftJob::Spectrum { atoms: 16, full_casida: false })
//!     .unwrap();
//! let outcome = ticket.wait().unwrap();
//! assert!(outcome.payload.headline() > 0.0); // optical gap, eV
//! // An identical resubmission is served from the cache.
//! let again = svc.submit(DftJob::Spectrum { atoms: 16, full_casida: false }).unwrap();
//! assert!(again.is_done());
//! let report = svc.shutdown();
//! assert_eq!(report.completed, 2);
//! assert!(report.cache.hits >= 1);
//! ```

pub mod batch;
pub mod cache;
pub mod client;
pub mod cluster;
pub mod dag;
pub mod exec;
pub mod federation;
pub mod fingerprint;
pub mod job;
pub mod metrics;
pub mod persist;
pub mod placement;
#[cfg(test)]
#[path = "progress_tests.rs"]
mod progress;
pub mod queue;
pub mod router;
pub mod service;
pub mod telemetry;
mod tenant;
pub mod ticket;
pub mod trace;
pub mod worker;

pub use batch::{form_batches_from, Batch, BatchOrigin};
pub use cache::{CachePolicy, CacheStats, HitTier, ResultCache};
pub use client::{ClientSession, CompletionStream, JobId, SessionCompletion};
pub use cluster::{ClusterSnapshot, ClusterView, Reservation};
pub use dag::{NodeId, WorkflowError, WorkflowSpec, WorkflowTicket};
pub use exec::{block_on, join_all, race, JoinAll, Race};
pub use federation::{FederatedService, FederationConfig, FederationReport};
pub use fingerprint::Fingerprint;
pub use job::{
    DftJob, JobError, JobKind, JobPayload, JobRequest, Priority, TenantId, WorkloadClass,
};
pub use metrics::{ExecutionSample, Metrics, ServeReport};
pub use persist::{Dec, DiskTier, Enc, PersistValue};
pub use placement::{plan_placement, PlacementDecision, PlacementPolicy};
pub use queue::{ShardedQueue, StolenRun, SubmitError};
pub use router::{FaultAction, FaultEvent, FaultPlan, HashRing, RouteInfo, RoutingLog};
pub use service::{DftService, ServeConfig};
pub use telemetry::{
    ClassSnapshot, HistogramSnapshot, LatencyHistogram, PlacementTarget, Stage, Telemetry,
    TelemetrySnapshot,
};
pub use ticket::{JobTicket, TicketFuture, TicketResolver};
pub use trace::{
    chrome_trace_json, JobStage, ProgressEvent, ProgressStream, TraceCollector, TraceEvent,
    TraceEventKind, TraceId,
};
pub use worker::{execute_payload, JobOutcome};
