//! # ndft-sim
//!
//! Event-driven CPU–NDP system simulator: the substrate standing in for
//! the paper's zsim + Ramulator stack.
//!
//! The pieces:
//!
//! * [`config`] — structural parameters; [`SystemConfig::paper_table3`]
//!   reproduces the paper's Table III machine.
//! * [`dram`] — bank/row/bus DRAM timing model of the Table III
//!   controller (FR-FCFS scheduling, open page) with HBM2/DDR4 presets.
//! * [`cache`] — one set-associative LRU cache level; [`timing`]'s core
//!   model stacks these into each core's data-cache levels.
//! * [`timing`] — trace-driven per-core timing model (issue width, MSHRs,
//!   out-of-order window, prefetcher) that cross-checks the calibration.
//! * [`noc`] — the 4×4 stack mesh with XY routing and link contention.
//! * [`spm`] — logic-layer scratchpads with explicit allocation.
//! * [`pattern`] — synthetic address streams (stream / strided / random).
//! * [`engine`] — replay harness producing the measured [`Calibration`]
//!   (effective bandwidth per memory system per pattern) consumed by the
//!   machine models in `ndft-core`. The paper's Table III machine is
//!   recorded as [`Calibration::PAPER_TABLE3`], which the crate's tests
//!   re-measure bit for bit; [`Calibration::measure`] measures any other
//!   configuration.
//!
//! ## Example
//!
//! ```
//! use ndft_sim::Calibration;
//!
//! let cal = Calibration::PAPER_TABLE3;
//! // Near-data premise: in-stack streaming dwarfs what the host link offers.
//! assert!(cal.ndp_aggregate.stream_bw > 10.0 * cal.host_to_stack.stream_bw);
//! ```

pub mod cache;
pub mod config;
pub mod dram;
pub mod engine;
pub mod noc;
pub mod pattern;
pub mod spm;
pub mod timing;

pub use cache::{Cache, CacheOutcome, CacheStats};
pub use config::{
    CacheConfig, CpuBaselineConfig, CpuConfig, DramTimings, HostLinkConfig, MemoryConfig,
    MeshConfig, NdpConfig, SpmConfig, SystemConfig,
};
pub use dram::{DramModel, DramStats, MemRequest};
pub use engine::{BandwidthProfile, Calibration};
pub use noc::{MeshNoc, NocStats, Topology, Transfer};
pub use pattern::AccessPattern;
pub use spm::{Scratchpad, SpmError, SpmHandle};
pub use timing::{CoreModel, CoreReport, CoreTimingConfig, KernelTrace, MemPort, MicroOp};
