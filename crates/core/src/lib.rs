//! # ndft-core
//!
//! The NDFT framework: machine models for the three evaluation platforms,
//! the execution engine that plans and times LR-TDDFT task graphs, and
//! the experiment drivers that regenerate every table and figure of the
//! paper.
//!
//! ## Example
//!
//! ```
//! use ndft_core::{run_cpu_baseline, run_ndft};
//! use ndft_dft::{build_task_graph, SiliconSystem};
//!
//! let graph = build_task_graph(&SiliconSystem::large(), 1);
//! let cpu = run_cpu_baseline(&graph);
//! let ndft = run_ndft(&graph);
//! assert!(ndft.speedup_over(&cpu) > 3.0); // paper: 5.2×
//! ```

pub mod calib;
pub mod crosscheck;
pub mod engine;
pub mod experiments;
pub mod machine;
pub mod report;

pub use calib::ModelConstants;
pub use crosscheck::{crosscheck, trace_for, CrosscheckRow};
pub use engine::{
    run_cpu_baseline, run_gpu_baseline, run_gpu_with_policy, run_ndft, run_ndft_with,
    MeasuredTimer, NdftOptions, RunReport, StageReport,
};
pub use experiments::{
    ablations, fig4, fig7, fig8, other_discussion, table1, Ablations, Fig7Panel, Fig8Row,
    OtherDiscussion,
};
pub use machine::{
    CpuBaselineMachine, CpuNdpMachine, GpuAlltoallPolicy, GpuBaselineMachine, Machine, Side,
    StageTime,
};
