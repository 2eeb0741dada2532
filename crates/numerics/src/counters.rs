//! Exact operation/byte accounting for kernels.
//!
//! Every kernel in this crate can report a [`KernelCost`]: the number of
//! floating-point operations it performs and the bytes it streams through
//! memory. The LR-TDDFT workload layer aggregates these into the
//! descriptors that drive the roofline analysis (paper Fig. 4) and the
//! CPU/NDP timing models.

use serde::{Deserialize, Serialize};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

/// Floating-point and memory-traffic cost of one kernel invocation.
///
/// # Examples
///
/// ```
/// use ndft_numerics::KernelCost;
///
/// let gemm = KernelCost { flops: 2_000, bytes_read: 480, bytes_written: 160 };
/// assert!(gemm.arithmetic_intensity() > 3.0);
/// let doubled = gemm * 2;
/// assert_eq!(doubled.flops, 4_000);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KernelCost {
    /// Real floating-point operations (one complex multiply = 6, one complex
    /// add = 2).
    pub flops: u64,
    /// Bytes read from memory, assuming each operand is streamed once.
    pub bytes_read: u64,
    /// Bytes written back to memory.
    pub bytes_written: u64,
}

impl KernelCost {
    /// A zero cost, the additive identity.
    pub const ZERO: KernelCost = KernelCost {
        flops: 0,
        bytes_read: 0,
        bytes_written: 0,
    };

    /// Creates a cost record.
    pub const fn new(flops: u64, bytes_read: u64, bytes_written: u64) -> Self {
        KernelCost {
            flops,
            bytes_read,
            bytes_written,
        }
    }

    /// Total bytes moved (read + written).
    #[inline]
    pub fn bytes_total(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Arithmetic intensity in FLOP/byte, the x-axis of the roofline model.
    ///
    /// Returns `f64::INFINITY` for compute-only kernels that move no bytes.
    #[inline]
    pub fn arithmetic_intensity(&self) -> f64 {
        let b = self.bytes_total();
        if b == 0 {
            f64::INFINITY
        } else {
            self.flops as f64 / b as f64
        }
    }
}

impl Add for KernelCost {
    type Output = KernelCost;
    fn add(self, rhs: Self) -> Self {
        KernelCost {
            flops: self.flops + rhs.flops,
            bytes_read: self.bytes_read + rhs.bytes_read,
            bytes_written: self.bytes_written + rhs.bytes_written,
        }
    }
}

impl AddAssign for KernelCost {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Mul<u64> for KernelCost {
    type Output = KernelCost;
    fn mul(self, k: u64) -> Self {
        KernelCost {
            flops: self.flops * k,
            bytes_read: self.bytes_read * k,
            bytes_written: self.bytes_written * k,
        }
    }
}

impl Sum for KernelCost {
    fn sum<I: Iterator<Item = KernelCost>>(iter: I) -> Self {
        iter.fold(KernelCost::ZERO, |a, b| a + b)
    }
}

/// Size of one `Complex64` in bytes (interleaved re/im doubles).
pub const C64_BYTES: u64 = 16;

/// Cost of a complex `m×k · k×n` matrix multiplication.
pub fn gemm_cost_c64(m: usize, n: usize, k: usize) -> KernelCost {
    let (m, n, k) = (m as u64, n as u64, k as u64);
    KernelCost {
        flops: 8 * m * n * k,
        bytes_read: C64_BYTES * (m * k + k * n),
        bytes_written: C64_BYTES * m * n,
    }
}

/// Cost of a dense symmetric eigensolve (`SYEVD`) of order `n` with
/// eigenvectors: the classic `9n³` FLOP estimate (tridiagonal reduction +
/// implicit-shift sweeps + back-transformation).
///
/// Memory traffic models a *two-stage blocked* solver: for small orders the
/// trailing submatrix is re-streamed every panel (`O(n³)` bytes, so the
/// kernel is memory-bound), while beyond the blocking crossover
/// (`SYEVD_BLOCK_CROSSOVER`) panel reuse caps traffic at `O(n²·nb)` and
/// arithmetic intensity grows linearly with `n` — exactly the small-system
/// memory-bound / large-system compute-bound behaviour of the paper's
/// Fig. 4.
pub fn syevd_cost(n: usize) -> KernelCost {
    let n64 = n as u64;
    let eff = n64.min(SYEVD_BLOCK_CROSSOVER);
    KernelCost {
        flops: 9 * n64 * n64 * n64,
        bytes_read: 4 * n64 * n64 * eff,
        bytes_written: 2 * n64 * n64 * eff,
    }
}

/// Matrix order beyond which the two-stage blocked SYEVD stops re-streaming
/// the trailing submatrix (traffic saturates at `O(n²·512)` bytes).
const SYEVD_BLOCK_CROSSOVER: u64 = 512;

/// Cost of the face-splitting product producing `rows` rows of length `len`
/// (one complex multiply per output element, streaming both inputs).
pub fn face_splitting_cost(rows: usize, len: usize) -> KernelCost {
    let elems = rows as u64 * len as u64;
    KernelCost {
        flops: 6 * elems,
        bytes_read: 2 * C64_BYTES * elems,
        bytes_written: C64_BYTES * elems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_identity() {
        let c = KernelCost::new(10, 20, 30);
        assert_eq!(c + KernelCost::ZERO, c);
    }

    #[test]
    fn addition_accumulates() {
        let a = KernelCost::new(1, 2, 3);
        let b = KernelCost::new(10, 20, 30);
        let s = a + b;
        assert_eq!(s, KernelCost::new(11, 22, 33));
        let total: KernelCost = vec![a, b, s].into_iter().sum();
        assert_eq!(total.flops, 22);
    }

    #[test]
    fn scaling() {
        let a = KernelCost::new(3, 4, 5) * 10;
        assert_eq!(a, KernelCost::new(30, 40, 50));
    }

    #[test]
    fn arithmetic_intensity_of_gemm_grows_with_n() {
        let small = gemm_cost_c64(8, 8, 8);
        let big = gemm_cost_c64(512, 512, 512);
        assert!(big.arithmetic_intensity() > 10.0 * small.arithmetic_intensity());
    }

    #[test]
    fn compute_only_kernel_has_infinite_intensity() {
        let c = KernelCost::new(100, 0, 0);
        assert!(c.arithmetic_intensity().is_infinite());
    }

    #[test]
    fn complex_gemm_is_4x_real_flops() {
        // The real GEMM moves 8-byte words and spends 2·m·n·k flops.
        let c = gemm_cost_c64(16, 16, 16);
        assert_eq!(c.flops, 4 * (2 * 16 * 16 * 16));
        assert_eq!(c.bytes_read, 2 * (8 * (16 * 16 + 16 * 16)));
    }

    #[test]
    fn face_splitting_is_memory_bound() {
        // One complex multiply per 48 bytes moved: AI well below 1.
        let c = face_splitting_cost(128, 1000);
        assert!(c.arithmetic_intensity() < 1.0);
    }

    #[test]
    fn syevd_cubic_scaling() {
        let a = syevd_cost(64);
        let b = syevd_cost(128);
        assert_eq!(b.flops, 8 * a.flops);
    }
}
