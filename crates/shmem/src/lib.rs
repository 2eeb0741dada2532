//! # ndft-shmem
//!
//! The paper's hardware/software co-design for pseudopotential data
//! (§IV-B, §IV-C):
//!
//! * [`shared_block`] — the `sharedBL` store: one copy per stack,
//!   SPM-resident with HBM spill, plus per-process handles.
//! * [`api`] — the Table II programming interface (`NDFT_Alloc_Shared`,
//!   `NDFT_Read`, `NDFT_Write`, `NDFT_Read_Remote`, `NDFT_Write_Remote`,
//!   `NDFT_Broadcast`) with latency accounting over the mesh NoC.
//! * [`arbiter`] — parallel gather simulation through the per-stack comm
//!   arbiters; quantifies the hierarchical scheme's traffic filtering.
//! * [`footprint`] — the Table I memory-footprint reproduction.
//!
//! ## Cached blocks and immutability
//!
//! The hierarchical scheme of §IV-C caches remote blocks in the local
//! stack's shared memory after the first fetch, and every later read on
//! that stack is served locally ([`SharedBlockStore::mark_cached`]).
//! That is safe while the pseudopotential data is immutable, which it is
//! for the LR-TDDFT pipeline the paper evaluates. Atom movement in
//! ab-initio MD rewrites the blocks themselves between steps; the paper
//! leaves the protocol that would invalidate stale copies implicit, and
//! this crate models none.
//!
//! ## Example
//!
//! ```
//! use ndft_shmem::{CommScheme, NdftRuntime, UnitId};
//! use ndft_sim::SystemConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rt = NdftRuntime::new(&SystemConfig::paper_table3(), CommScheme::Hierarchical);
//! let block = rt.alloc_shared(1 << 20, 0)?;
//! let res = rt.read(UnitId { stack: 5, unit: 0 }, block, 1 << 20)?;
//! assert!(res.remote); // first touch crosses the mesh…
//! let res2 = rt.read(UnitId { stack: 5, unit: 1 }, block, 1 << 20)?;
//! assert!(!res2.remote); // …then the arbiter serves it locally
//! # Ok(())
//! # }
//! ```

pub mod alltoall;
pub mod api;
pub mod arbiter;
pub mod footprint;
pub mod shared_block;

pub use alltoall::{simulate_alltoall, AlltoallReport};
pub use api::{CommScheme, NdftRuntime, OpResult, RuntimeStats, UnitId};
pub use arbiter::{simulate_block_gather, simulate_block_gather_on, GatherReport};
pub use footprint::{footprint_row, table1_rows, FootprintRow, Platform};
pub use shared_block::{BlockMeta, BlockResidence, SharedBl, SharedBlockStore, ShmemError};
