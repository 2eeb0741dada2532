//! Synthetic memory access pattern generators.
//!
//! The LR-TDDFT kernels are characterized by their dominant access
//! patterns: FFTs stream then stride (the transpose passes), the
//! face-splitting product streams, GEMM blocks and streams panels, and
//! `MPI_Alltoall` produces scattered remote traffic. These generators
//! replay equivalent address streams through the simulated memory system
//! so effective bandwidth can be *measured* rather than assumed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The dominant spatial access pattern of a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Dense unit-stride streaming (face-splitting product, FFT x-lines,
    /// GEMM panel loads).
    Stream,
    /// Fixed-stride walks, e.g. FFT y/z-lines across a row-major grid.
    Strided {
        /// Distance between successive accesses in bytes.
        stride_bytes: usize,
    },
    /// Uniform random accesses over a working set (hash-style gathers,
    /// all-to-all bucket scatters).
    Random {
        /// Size of the region the accesses land in.
        range_bytes: u64,
    },
}

/// Generates `count` byte addresses following the pattern, starting at
/// `base`. Addresses are *access* addresses; the memory model coalesces
/// them to line/burst granularity.
///
/// # Examples
///
/// ```
/// use ndft_sim::pattern::{generate, AccessPattern};
/// let addrs = generate(AccessPattern::Stream, 4, 0x1000, 64, 42);
/// assert_eq!(addrs, vec![0x1000, 0x1040, 0x1080, 0x10c0]);
/// ```
pub fn generate(
    pattern: AccessPattern,
    count: usize,
    base: u64,
    granule_bytes: usize,
    seed: u64,
) -> Vec<u64> {
    match pattern {
        AccessPattern::Stream => (0..count as u64)
            .map(|i| base + i * granule_bytes as u64)
            .collect(),
        AccessPattern::Strided { stride_bytes } => (0..count as u64)
            .map(|i| base + i * stride_bytes as u64)
            .collect(),
        AccessPattern::Random { range_bytes } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let slots = (range_bytes / granule_bytes as u64).max(1);
            (0..count)
                .map(|_| base + rng.gen_range(0..slots) * granule_bytes as u64)
                .collect()
        }
    }
}

/// Coalesces an access stream to line-granularity unique-per-consecutive
/// requests: consecutive accesses that fall into the same line produce one
/// memory request (the way a miss-status-holding register would merge
/// them).
pub fn coalesce_to_lines(addrs: &[u64], line_bytes: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(addrs.len());
    let mut last_line = u64::MAX;
    for &a in addrs {
        let line = a / line_bytes as u64;
        if line != last_line {
            out.push(line * line_bytes as u64);
            last_line = line;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_dense() {
        let a = generate(AccessPattern::Stream, 8, 0, 64, 0);
        for (i, addr) in a.iter().enumerate() {
            assert_eq!(*addr, i as u64 * 64);
        }
    }

    #[test]
    fn strided_honors_stride() {
        let a = generate(AccessPattern::Strided { stride_bytes: 4096 }, 4, 100, 64, 0);
        assert_eq!(a, vec![100, 4196, 8292, 12388]);
    }

    #[test]
    fn random_stays_in_range() {
        let range = 1 << 20;
        let a = generate(AccessPattern::Random { range_bytes: range }, 1000, 0, 64, 7);
        assert!(a.iter().all(|&x| x < range));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let p = AccessPattern::Random {
            range_bytes: 1 << 20,
        };
        assert_eq!(generate(p, 100, 0, 64, 1), generate(p, 100, 0, 64, 1));
        assert_ne!(generate(p, 100, 0, 64, 1), generate(p, 100, 0, 64, 2));
    }

    #[test]
    fn coalescing_merges_sub_line_accesses() {
        // 8-byte accesses within 64-byte lines: 8 accesses → 1 request.
        let addrs: Vec<u64> = (0..16).map(|i| i * 8).collect();
        let lines = coalesce_to_lines(&addrs, 64);
        assert_eq!(lines, vec![0, 64]);
    }

    #[test]
    fn coalescing_keeps_strided_requests() {
        let addrs: Vec<u64> = (0..4).map(|i| i * 4096).collect();
        let lines = coalesce_to_lines(&addrs, 64);
        assert_eq!(lines.len(), 4);
    }
}
