//! # ndft-sched
//!
//! NDFT's workload partitioning and scheduling mechanism (paper §IV-A):
//!
//! * [`roofline`] — the Fig. 4 roofline analysis of the LR-TDDFT kernels.
//! * [`sca`] — the static code analyzer: per-kernel boundedness and
//!   per-target time estimates.
//! * [`cost`] — the Eq. 1 scheduling-overhead model (`DT + CXT`) and the
//!   cross-job [`TargetLoad`] pressure model.
//! * [`planner`] — cost-aware placement through one entry point,
//!   [`plan`]: the optimal chain DP (NDFT's mechanism), exhaustive
//!   validation, greedy and pinned baselines, picked by the
//!   [`PlanRequest`]'s [`PlacementPolicy`]. The request's [`TargetLoad`]
//!   biases the decision so concurrent batches spread across targets,
//!   and its `members` prices boundaries at their `k`-way fused share so
//!   placement can prefer larger NDP batches when amortization wins.
//! * [`granularity`] — the function-vs-basic-block-vs-instruction
//!   offload-granularity study behind the paper's design choice.
//!
//! ## Example
//!
//! ```
//! use ndft_sched::{plan, PlacementPolicy, PlanRequest, StaticCodeAnalyzer};
//! use ndft_dft::{build_task_graph, SiliconSystem};
//!
//! let sca = StaticCodeAnalyzer::paper_default();
//! let graph = build_task_graph(&SiliconSystem::large(), 1);
//! let hybrid = plan(&graph.stages, &sca, &PlanRequest::default());
//! let cpu_only = plan(
//!     &graph.stages,
//!     &sca,
//!     &PlanRequest { policy: PlacementPolicy::CpuPinned, ..PlanRequest::default() },
//! );
//! assert!(hybrid.total_time() < cpu_only.total_time());
//! ```

pub mod cost;
pub mod granularity;
pub mod overlap;
pub mod planner;
pub mod roofline;
pub mod sca;

pub use cost::{CostModel, TargetLoad};
pub use granularity::{granularity_study, split_stages, Granularity, GranularityReport};
pub use overlap::{analyze_overlap, OverlapAnalysis};
pub use planner::{plan, PlacementPolicy, Plan, PlanRequest, StageTimer};
pub use roofline::{fig4_points, Boundedness, Roofline, RooflinePoint};
pub use sca::{Analysis, StaticCodeAnalyzer, Target, TargetModel};
