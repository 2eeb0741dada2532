//! Scratchpad memory (SPM) model for the stack logic layer.
//!
//! §IV-C of the paper places a software-managed scratchpad in each stack's
//! logic layer to hold shared pseudopotential blocks. Unlike a cache, an
//! SPM is explicitly allocated; this model provides a first-fit allocator
//! with capacity accounting and a fixed access latency, plus per-stack
//! occupancy statistics used by the footprint study.

use crate::config::SpmConfig;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Handle to an SPM allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpmHandle {
    /// Base offset within the scratchpad.
    pub offset: usize,
    /// Allocation size in bytes.
    pub len: usize,
}

/// Allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpmError {
    /// Not enough contiguous free space.
    OutOfMemory {
        /// Bytes requested.
        requested: usize,
        /// Largest free fragment available.
        largest_free: usize,
    },
    /// Freed a handle that was not live.
    InvalidFree,
}

impl fmt::Display for SpmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpmError::OutOfMemory { requested, largest_free } => write!(
                f,
                "scratchpad out of memory: requested {requested} B, largest free fragment {largest_free} B"
            ),
            SpmError::InvalidFree => write!(f, "freed an allocation that was not live"),
        }
    }
}

impl Error for SpmError {}

/// One stack's scratchpad.
///
/// # Examples
///
/// ```
/// use ndft_sim::spm::Scratchpad;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut spm = Scratchpad::new(1024, 2);
/// let block = spm.alloc(256)?;
/// assert_eq!(spm.used(), 256);
/// spm.free(block)?;
/// assert_eq!(spm.used(), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Scratchpad {
    capacity: usize,
    access_latency: u64,
    /// Live allocations keyed by offset.
    live: BTreeMap<usize, usize>,
    reads: u64,
    writes: u64,
}

impl Scratchpad {
    /// Creates an empty scratchpad of `capacity` bytes with the given
    /// access latency (in core cycles).
    pub fn new(capacity: usize, access_latency: u64) -> Self {
        Scratchpad {
            capacity,
            access_latency,
            live: BTreeMap::new(),
            reads: 0,
            writes: 0,
        }
    }

    /// Builds a per-stack scratchpad from the system configuration.
    pub fn from_config(cfg: &SpmConfig) -> Self {
        Scratchpad::new(cfg.per_stack_bytes, cfg.access_latency)
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> usize {
        self.live.values().sum()
    }

    /// Access latency in cycles.
    pub fn access_latency(&self) -> u64 {
        self.access_latency
    }

    /// Reads performed (for stats).
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Writes performed (for stats).
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Largest contiguous free fragment.
    fn largest_free_fragment(&self) -> usize {
        let mut cursor = 0usize;
        let mut largest = 0usize;
        for (&off, &len) in &self.live {
            largest = largest.max(off - cursor);
            cursor = off + len;
        }
        largest.max(self.capacity - cursor)
    }

    /// Allocates `len` bytes, first-fit.
    ///
    /// # Errors
    ///
    /// Returns [`SpmError::OutOfMemory`] when no contiguous fragment fits.
    pub fn alloc(&mut self, len: usize) -> Result<SpmHandle, SpmError> {
        if len == 0 {
            return Ok(SpmHandle { offset: 0, len: 0 });
        }
        let mut cursor = 0usize;
        for (&off, &alen) in &self.live {
            if off - cursor >= len {
                break;
            }
            cursor = off + alen;
        }
        if self.capacity - cursor < len {
            return Err(SpmError::OutOfMemory {
                requested: len,
                largest_free: self.largest_free_fragment(),
            });
        }
        self.live.insert(cursor, len);
        Ok(SpmHandle {
            offset: cursor,
            len,
        })
    }

    /// Frees a previous allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SpmError::InvalidFree`] if the handle is not live.
    pub fn free(&mut self, handle: SpmHandle) -> Result<(), SpmError> {
        if handle.len == 0 {
            return Ok(());
        }
        match self.live.remove(&handle.offset) {
            Some(len) if len == handle.len => Ok(()),
            Some(len) => {
                // Size mismatch: restore and report.
                self.live.insert(handle.offset, len);
                Err(SpmError::InvalidFree)
            }
            None => Err(SpmError::InvalidFree),
        }
    }

    /// Records a read of `bytes` and returns the latency in cycles
    /// (fixed latency — an SPM has no misses).
    pub fn read(&mut self, _handle: SpmHandle, bytes: usize) -> u64 {
        self.reads += 1;
        let _ = bytes;
        self.access_latency
    }

    /// Records a write of `bytes` and returns the latency in cycles.
    pub fn write(&mut self, _handle: SpmHandle, bytes: usize) -> u64 {
        self.writes += 1;
        let _ = bytes;
        self.access_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut spm = Scratchpad::new(1024, 2);
        let a = spm.alloc(100).unwrap();
        let b = spm.alloc(200).unwrap();
        assert_eq!(spm.used(), 300);
        spm.free(a).unwrap();
        assert_eq!(spm.used(), 200);
        spm.free(b).unwrap();
        assert_eq!(spm.used(), 0);
    }

    #[test]
    fn first_fit_reuses_freed_hole() {
        let mut spm = Scratchpad::new(1024, 2);
        let a = spm.alloc(256).unwrap();
        let _b = spm.alloc(256).unwrap();
        spm.free(a).unwrap();
        let c = spm.alloc(128).unwrap();
        assert_eq!(c.offset, 0, "first-fit should reuse the hole at 0");
    }

    #[test]
    fn out_of_memory_reports_largest_fragment() {
        let mut spm = Scratchpad::new(512, 2);
        let _a = spm.alloc(512).unwrap();
        match spm.alloc(1) {
            Err(SpmError::OutOfMemory {
                requested,
                largest_free,
            }) => {
                assert_eq!(requested, 1);
                assert_eq!(largest_free, 0);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn fragmentation_can_fail_despite_total_space() {
        let mut spm = Scratchpad::new(300, 2);
        let a = spm.alloc(100).unwrap();
        let _b = spm.alloc(100).unwrap();
        let c = spm.alloc(100).unwrap();
        spm.free(a).unwrap();
        spm.free(c).unwrap();
        // 200 B free but split 100 + 100.
        assert!(spm.alloc(150).is_err());
        assert_eq!(spm.largest_free_fragment(), 100);
    }

    #[test]
    fn double_free_rejected() {
        let mut spm = Scratchpad::new(128, 2);
        let a = spm.alloc(64).unwrap();
        spm.free(a).unwrap();
        assert_eq!(spm.free(a), Err(SpmError::InvalidFree));
    }

    #[test]
    fn zero_sized_alloc_is_trivial() {
        let mut spm = Scratchpad::new(16, 1);
        let z = spm.alloc(0).unwrap();
        assert_eq!(z.len, 0);
        spm.free(z).unwrap();
    }

    #[test]
    fn read_write_latency_is_fixed() {
        let mut spm = Scratchpad::new(128, 3);
        let a = spm.alloc(64).unwrap();
        assert_eq!(spm.read(a, 64), 3);
        assert_eq!(spm.write(a, 64), 3);
        assert_eq!(spm.reads(), 1);
        assert_eq!(spm.writes(), 1);
    }

    #[test]
    fn error_display_nonempty() {
        let e = SpmError::OutOfMemory {
            requested: 10,
            largest_free: 5,
        };
        assert!(format!("{e}").contains("10"));
    }
}
