//! General matrix multiplication (GEMM) over `f64` and complex matrices.
//!
//! The blocked real kernel tiles the operands to keep panels resident in
//! cache — the same structure a production DGEMM uses, minus the
//! architecture-specific microkernels. The complex adjoint kernel streams
//! rank-1 updates for LR-TDDFT's `P† · f(P)`. Naive reference
//! implementations are kept as test oracles.

use crate::matrix::{CMat, Mat};

/// Cache-blocking tile edge (elements). 64×64 `f64` tiles are 32 KiB — the
/// L1 size in the paper's Table III configuration.
const BLOCK: usize = 64;

/// Computes `C = A · B` for real matrices with cache blocking.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
///
/// # Examples
///
/// ```
/// use ndft_numerics::{gemm_f64, Mat};
///
/// let a = Mat::identity(3);
/// let b = Mat::from_fn(3, 2, |i, j| (i + j) as f64);
/// assert_eq!(gemm_f64(&a, &b), b);
/// ```
pub fn gemm_f64(a: &Mat, b: &Mat) -> Mat {
    assert_eq!(a.cols(), b.rows(), "GEMM inner dimension mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Mat::zeros(m, n);
    let cs = c.as_mut_slice();
    let asl = a.as_slice();
    let bsl = b.as_slice();
    for ii in (0..m).step_by(BLOCK) {
        let i_end = (ii + BLOCK).min(m);
        for kk in (0..k).step_by(BLOCK) {
            let k_end = (kk + BLOCK).min(k);
            for jj in (0..n).step_by(BLOCK) {
                let j_end = (jj + BLOCK).min(n);
                for i in ii..i_end {
                    for p in kk..k_end {
                        let aip = asl[i * k + p];
                        if aip == 0.0 {
                            continue;
                        }
                        let brow = &bsl[p * n + jj..p * n + j_end];
                        let crow = &mut cs[i * n + jj..i * n + j_end];
                        for (cv, bv) in crow.iter_mut().zip(brow) {
                            *cv += aip * *bv;
                        }
                    }
                }
            }
        }
    }
    c
}

/// Computes `C = A† · B` (adjoint of A times B) without materializing `A†`.
///
/// This is the contraction shape LR-TDDFT uses to assemble the response
/// Hamiltonian `P† · f(P)`.
///
/// # Panics
///
/// Panics if `a.rows() != b.rows()`.
pub fn gemm_adjoint_c64(a: &CMat, b: &CMat) -> CMat {
    assert_eq!(a.rows(), b.rows(), "adjoint GEMM dimension mismatch");
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    let mut c = CMat::zeros(m, n);
    let cs = c.as_mut_slice();
    let asl = a.as_slice();
    let bsl = b.as_slice();
    // Accumulate rank-1 updates row-by-row of A/B: cache-friendly because
    // both operands stream forward.
    for p in 0..k {
        let arow = &asl[p * m..(p + 1) * m];
        let brow = &bsl[p * n..(p + 1) * n];
        for i in 0..m {
            let ac = arow[i].conj();
            let crow = &mut cs[i * n..(i + 1) * n];
            for (cv, bv) in crow.iter_mut().zip(brow) {
                *cv = ac.mul_add(*bv, *cv);
            }
        }
    }
    c
}

/// Naive triple-loop real GEMM used as a test oracle.
pub fn gemm_f64_naive(a: &Mat, b: &Mat) -> Mat {
    assert_eq!(a.cols(), b.rows(), "GEMM inner dimension mismatch");
    Mat::from_fn(a.rows(), b.cols(), |i, j| {
        (0..a.cols()).map(|p| a[(i, p)] * b[(p, j)]).sum()
    })
}

/// Naive triple-loop complex GEMM used as a test oracle.
pub fn gemm_c64_naive(a: &CMat, b: &CMat) -> CMat {
    assert_eq!(a.cols(), b.rows(), "GEMM inner dimension mismatch");
    CMat::from_fn(a.rows(), b.cols(), |i, j| {
        (0..a.cols()).map(|p| a[(i, p)] * b[(p, j)]).sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    fn rand_mat(r: usize, c: usize, seed: u64) -> Mat {
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Mat::from_fn(r, c, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
    }

    fn rand_cmat(r: usize, c: usize, seed: u64) -> CMat {
        let re = rand_mat(r, c, seed);
        let im = rand_mat(r, c, seed + 1);
        CMat::from_fn(r, c, |i, j| Complex64::new(re[(i, j)], im[(i, j)]))
    }

    #[test]
    fn blocked_matches_naive_f64() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 4, 5),
            (17, 9, 23),
            (65, 70, 66),
            (128, 64, 96),
        ] {
            let a = rand_mat(m, k, 11);
            let b = rand_mat(k, n, 13);
            let fast = gemm_f64(&a, &b);
            let slow = gemm_f64_naive(&a, &b);
            let err: f64 = fast
                .as_slice()
                .iter()
                .zip(slow.as_slice())
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-10, "({m},{k},{n}) err={err}");
        }
    }

    #[test]
    fn adjoint_gemm_matches_explicit_adjoint() {
        let a = rand_cmat(20, 7, 21);
        let b = rand_cmat(20, 9, 23);
        let fast = gemm_adjoint_c64(&a, &b);
        let adjoint = CMat::from_fn(a.cols(), a.rows(), |i, j| a[(j, i)].conj());
        let slow = gemm_c64_naive(&adjoint, &b);
        let err: f64 = fast
            .as_slice()
            .iter()
            .zip(slow.as_slice())
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-10);
    }

    #[test]
    fn identity_is_neutral() {
        let a = rand_mat(12, 12, 7);
        let c = gemm_f64(&a, &Mat::identity(12));
        let err: f64 = c
            .as_slice()
            .iter()
            .zip(a.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-14);
    }

    #[test]
    fn associativity_within_tolerance() {
        let a = rand_mat(10, 11, 1);
        let b = rand_mat(11, 12, 2);
        let c = rand_mat(12, 13, 3);
        let left = gemm_f64(&gemm_f64(&a, &b), &c);
        let right = gemm_f64(&a, &gemm_f64(&b, &c));
        let err: f64 = left
            .as_slice()
            .iter()
            .zip(right.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-10);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_shapes_panic() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = gemm_f64(&a, &b);
    }
}
