//! The NDFT shared-memory programming interface (paper Table II).
//!
//! Implements `NDFT_Alloc_Shared`, `NDFT_Read` (whose remote leg is
//! `NDFT_Read_Remote`), `NDFT_Write` and `NDFT_Broadcast` against the
//! [`SharedBlockStore`] and the mesh NoC, with per-operation latency
//! accounting. `NDFT_Write_Remote` has no caller in the reproduction and
//! is not modelled. Remote operations route through the per-stack
//! communication arbiter; under the hierarchical scheme the arbiter
//! caches fetched blocks in local shared memory so repeated reads from
//! the same stack are served locally (the paper's traffic "filter").

use crate::shared_block::{BlockResidence, SharedBl, SharedBlockStore, ShmemError};
use ndft_sim::config::SystemConfig;
use ndft_sim::noc::MeshNoc;
use serde::{Deserialize, Serialize};

/// Which inter-stack communication scheme the runtime uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommScheme {
    /// §IV-C: one arbiter per stack; remote blocks are fetched once and
    /// cached in local shared memory.
    Hierarchical,
    /// Ablation baseline: every unit fetches remote data itself, no
    /// caching.
    Flat,
}

/// An NDP execution unit: `stack` of the mesh, `unit` within the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct UnitId {
    /// Stack index (0..16 in the paper configuration).
    pub stack: usize,
    /// NDP unit within the stack (0..8).
    pub unit: usize,
}

/// Outcome of one shared-memory operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpResult {
    /// Latency of the operation in seconds.
    pub latency: f64,
    /// True when the operation crossed stacks.
    pub remote: bool,
}

/// Aggregate runtime statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RuntimeStats {
    /// Local (intra-stack) reads and writes.
    pub local_ops: u64,
    /// Operations that crossed stacks.
    pub remote_ops: u64,
    /// Remote reads served from the local cached copy (hierarchical
    /// filtering at work).
    pub filtered_ops: u64,
    /// Payload bytes moved across the mesh.
    pub inter_stack_bytes: u64,
    /// Payload bytes served within stacks.
    pub intra_stack_bytes: u64,
}

impl RuntimeStats {
    /// Fraction of remote reads the hierarchical scheme absorbed locally.
    pub fn filter_rate(&self) -> f64 {
        let total = self.remote_ops + self.filtered_ops;
        if total == 0 {
            0.0
        } else {
            self.filtered_ops as f64 / total as f64
        }
    }
}

/// Size of a remote-request control message in bytes.
const REQUEST_MSG_BYTES: u64 = 64;
/// SPM port width per NDP-core cycle.
const SPM_BYTES_PER_CYCLE: f64 = 64.0;

/// The NDFT shared-memory runtime (Table II).
///
/// Operations are replayed on a sequential logical clock: each call starts
/// when the previous one finished, which models a single process's
/// timeline. Batch experiments with per-stack parallelism live in
/// [`crate::arbiter`].
///
/// # Examples
///
/// ```
/// use ndft_shmem::{CommScheme, NdftRuntime, UnitId};
/// use ndft_sim::SystemConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rt = NdftRuntime::new(&SystemConfig::paper_table3(), CommScheme::Hierarchical);
/// let bl = rt.alloc_shared(4096, 0)?;
/// rt.write(UnitId { stack: 0, unit: 0 }, bl, 4096)?;
/// // First remote read pays the mesh; the second is filtered locally.
/// let first = rt.read(UnitId { stack: 7, unit: 0 }, bl, 4096)?;
/// let second = rt.read(UnitId { stack: 7, unit: 1 }, bl, 4096)?;
/// assert!(first.remote && !second.remote);
/// assert!(second.latency < first.latency);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NdftRuntime {
    cfg: SystemConfig,
    store: SharedBlockStore,
    noc: MeshNoc,
    scheme: CommScheme,
    stats: RuntimeStats,
    /// Logical time in NoC cycles (sequential trace semantics).
    clock: u64,
}

impl NdftRuntime {
    /// Creates a runtime over a fresh shared-block store.
    pub fn new(cfg: &SystemConfig, scheme: CommScheme) -> Self {
        NdftRuntime {
            cfg: cfg.clone(),
            store: SharedBlockStore::new(cfg),
            noc: MeshNoc::new(cfg.mesh),
            scheme,
            stats: RuntimeStats::default(),
            clock: 0,
        }
    }

    /// Active communication scheme.
    pub fn scheme(&self) -> CommScheme {
        self.scheme
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> RuntimeStats {
        self.stats
    }

    /// Borrow of the underlying block store (for footprint inspection).
    pub fn store(&self) -> &SharedBlockStore {
        &self.store
    }

    /// `NDFT_Alloc_Shared`: allocates a block homed on `stack`.
    ///
    /// # Errors
    ///
    /// Propagates [`ShmemError`] from the store.
    pub fn alloc_shared(&mut self, len: u64, stack: usize) -> Result<SharedBl, ShmemError> {
        self.store.alloc(len, stack)
    }

    /// Frees a shared block.
    ///
    /// # Errors
    ///
    /// Propagates [`ShmemError`] from the store.
    pub fn free_shared(&mut self, bl: SharedBl) -> Result<(), ShmemError> {
        self.store.free(bl)
    }

    /// `NDFT_Write`: writes `len` bytes into a block from a unit in the
    /// block's home stack.
    ///
    /// # Errors
    ///
    /// [`ShmemError::UnknownBlock`] for a dead handle; [`ShmemError::BadStack`]
    /// when the writer is not in the home stack.
    pub fn write(&mut self, unit: UnitId, bl: SharedBl, len: u64) -> Result<OpResult, ShmemError> {
        let meta = self.store.meta(bl)?;
        if meta.home_stack != unit.stack {
            return Err(ShmemError::BadStack { stack: unit.stack });
        }
        let latency = self.local_access_latency(bl, len)?;
        self.stats.local_ops += 1;
        self.stats.intra_stack_bytes += len;
        Ok(OpResult {
            latency,
            remote: false,
        })
    }

    /// `NDFT_Read`: reads from a block. If the block (or a cached copy)
    /// is local, the read is served in-stack; otherwise it is fetched
    /// from the home stack (`NDFT_Read_Remote`).
    ///
    /// # Errors
    ///
    /// [`ShmemError::UnknownBlock`] for a dead handle.
    pub fn read(&mut self, unit: UnitId, bl: SharedBl, len: u64) -> Result<OpResult, ShmemError> {
        if self.store.is_cached(bl, unit.stack)? {
            let latency = self.local_access_latency(bl, len)?;
            let meta = self.store.meta(bl)?;
            if meta.home_stack == unit.stack {
                self.stats.local_ops += 1;
            } else {
                self.stats.filtered_ops += 1;
            }
            self.stats.intra_stack_bytes += len;
            return Ok(OpResult {
                latency,
                remote: false,
            });
        }
        self.read_remote(unit, bl, len)
    }

    /// `NDFT_Read_Remote`: fetches block data from its home stack through
    /// the communication arbiters. Under [`CommScheme::Hierarchical`] the
    /// local arbiter caches the block so later reads from this stack are
    /// local.
    ///
    /// # Errors
    ///
    /// [`ShmemError::UnknownBlock`] for a dead handle.
    fn read_remote(
        &mut self,
        unit: UnitId,
        bl: SharedBl,
        len: u64,
    ) -> Result<OpResult, ShmemError> {
        let home = self.store.meta(bl)?.home_stack;
        if home == unit.stack {
            // Degenerate remote read: serve locally.
            let latency = self.local_access_latency(bl, len)?;
            self.stats.local_ops += 1;
            self.stats.intra_stack_bytes += len;
            return Ok(OpResult {
                latency,
                remote: false,
            });
        }
        // Request message to the home arbiter, response with the payload.
        let req = self
            .noc
            .transfer(unit.stack, home, REQUEST_MSG_BYTES, self.clock);
        let resp = self.noc.transfer(home, unit.stack, len, req.done);
        self.clock = resp.done;
        let noc_latency = (resp.done - req.start) as f64 / self.cfg.mesh.clock_hz;
        let local = self.local_access_latency(bl, len)?;
        if self.scheme == CommScheme::Hierarchical {
            self.store.mark_cached(bl, unit.stack)?;
        }
        self.stats.remote_ops += 1;
        self.stats.inter_stack_bytes += len + REQUEST_MSG_BYTES;
        Ok(OpResult {
            latency: noc_latency + local,
            remote: true,
        })
    }

    /// `NDFT_Broadcast`: pushes a block's payload from its home stack to
    /// every other stack's shared memory (marking them cached).
    ///
    /// # Errors
    ///
    /// [`ShmemError::UnknownBlock`] for a dead handle.
    pub fn broadcast(&mut self, bl: SharedBl) -> Result<OpResult, ShmemError> {
        let meta = self.store.meta(bl)?;
        let home = meta.home_stack;
        let len = meta.len;
        let t = self.noc.broadcast(home, len, self.clock);
        self.clock = t.done;
        let stacks = self.store.stack_count();
        for s in 0..stacks {
            self.store.mark_cached(bl, s)?;
        }
        self.stats.remote_ops += (stacks - 1) as u64;
        self.stats.inter_stack_bytes += len * (stacks as u64 - 1);
        Ok(OpResult {
            latency: (t.done - t.start) as f64 / self.cfg.mesh.clock_hz,
            remote: true,
        })
    }

    /// Latency of touching `len` bytes of a block in its residence
    /// (SPM fixed latency + port serialization, or HBM idle latency +
    /// one channel's worth of bandwidth).
    fn local_access_latency(&self, bl: SharedBl, len: u64) -> Result<f64, ShmemError> {
        let meta = self.store.meta(bl)?;
        let ndp_clock = self.cfg.ndp.clock_hz;
        Ok(match meta.residence {
            BlockResidence::Spm(_) => {
                let cycles = self.cfg.spm.access_latency as f64 + len as f64 / SPM_BYTES_PER_CYCLE;
                cycles / ndp_clock
            }
            BlockResidence::Hbm { .. } => {
                let t = self.cfg.memory.timings;
                let idle = (t.t_rcd + t.t_cas + t.t_burst) as f64 / t.clock_hz;
                idle + len as f64 / t.channel_peak_bw()
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(scheme: CommScheme) -> NdftRuntime {
        NdftRuntime::new(&SystemConfig::paper_table3(), scheme)
    }

    #[test]
    fn local_read_is_fast_and_not_remote() {
        let mut r = rt(CommScheme::Hierarchical);
        let bl = r.alloc_shared(8192, 2).unwrap();
        let res = r.read(UnitId { stack: 2, unit: 0 }, bl, 8192).unwrap();
        assert!(!res.remote);
        assert!(res.latency < 1e-6);
        assert_eq!(r.stats().local_ops, 1);
    }

    #[test]
    fn remote_read_crosses_mesh_once_then_filters() {
        let mut r = rt(CommScheme::Hierarchical);
        let bl = r.alloc_shared(4096, 0).unwrap();
        let a = r.read(UnitId { stack: 9, unit: 0 }, bl, 4096).unwrap();
        assert!(a.remote);
        let b = r.read(UnitId { stack: 9, unit: 3 }, bl, 4096).unwrap();
        assert!(!b.remote, "second read must be served from the local copy");
        let s = r.stats();
        assert_eq!(s.remote_ops, 1);
        assert_eq!(s.filtered_ops, 1);
        assert!(s.filter_rate() > 0.49);
    }

    #[test]
    fn flat_scheme_never_filters() {
        let mut r = rt(CommScheme::Flat);
        let bl = r.alloc_shared(4096, 0).unwrap();
        for u in 0..4 {
            let res = r.read(UnitId { stack: 9, unit: u }, bl, 4096).unwrap();
            assert!(res.remote, "flat scheme always crosses");
        }
        assert_eq!(r.stats().remote_ops, 4);
        assert_eq!(r.stats().filtered_ops, 0);
    }

    #[test]
    fn hierarchical_moves_less_inter_stack_data_than_flat() {
        let run = |scheme| {
            let mut r = rt(scheme);
            let bl = r.alloc_shared(65536, 0).unwrap();
            for s in 1..16 {
                for u in 0..8 {
                    r.read(UnitId { stack: s, unit: u }, bl, 65536).unwrap();
                }
            }
            r.stats().inter_stack_bytes
        };
        let hier = run(CommScheme::Hierarchical);
        let flat = run(CommScheme::Flat);
        assert!(
            flat >= 7 * hier,
            "flat {flat} should be ≈8× hierarchical {hier} (8 units per stack)"
        );
    }

    #[test]
    fn write_requires_home_stack() {
        let mut r = rt(CommScheme::Hierarchical);
        let bl = r.alloc_shared(64, 0).unwrap();
        assert!(r.write(UnitId { stack: 0, unit: 1 }, bl, 64).is_ok());
        assert!(r.write(UnitId { stack: 1, unit: 0 }, bl, 64).is_err());
    }

    #[test]
    fn broadcast_caches_everywhere() {
        let mut r = rt(CommScheme::Hierarchical);
        let bl = r.alloc_shared(1024, 4).unwrap();
        let res = r.broadcast(bl).unwrap();
        assert!(res.remote);
        for s in 0..16 {
            assert!(r.store().is_cached(bl, s).unwrap(), "stack {s}");
        }
        // Follow-up reads are all local.
        let follow = r.read(UnitId { stack: 15, unit: 0 }, bl, 1024).unwrap();
        assert!(!follow.remote);
    }

    #[test]
    fn farther_stacks_pay_more_latency() {
        let mut r = rt(CommScheme::Flat);
        let bl = r.alloc_shared(1 << 16, 0).unwrap();
        let near = r.read(UnitId { stack: 1, unit: 0 }, bl, 1 << 16).unwrap();
        let far = r.read(UnitId { stack: 15, unit: 0 }, bl, 1 << 16).unwrap();
        assert!(far.latency > near.latency);
    }

    #[test]
    fn spm_resident_blocks_are_faster_than_spilled() {
        let mut r = rt(CommScheme::Hierarchical);
        let spm_bl = r.alloc_shared(16 * 1024, 0).unwrap();
        let hbm_bl = r.alloc_shared(8 << 20, 0).unwrap(); // spills
        let a = r
            .read(UnitId { stack: 0, unit: 0 }, spm_bl, 16 * 1024)
            .unwrap();
        let b = r
            .read(UnitId { stack: 0, unit: 0 }, hbm_bl, 16 * 1024)
            .unwrap();
        assert!(
            a.latency < b.latency,
            "SPM {} vs HBM {}",
            a.latency,
            b.latency
        );
    }
}
