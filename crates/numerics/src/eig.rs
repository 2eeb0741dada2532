//! Symmetric / Hermitian eigendecomposition (the paper's `SYEVD` kernel).
//!
//! The real symmetric path is the classic two-phase dense solver:
//! Householder reduction to tridiagonal form followed by the implicit-shift
//! QL iteration with eigenvector accumulation (EISPACK `tred2`/`tql2`
//! lineage). The Hermitian path embeds `H = A + iB` into the real symmetric
//! `[[A, -B], [B, A]]` of twice the order and extracts one complex
//! eigenvector per conjugate pair.
//!
//! LR-TDDFT diagonalizes the response Hamiltonian with exactly this kind of
//! solver; the `9n³` FLOP estimate in [`crate::counters::syevd_cost`]
//! matches this implementation's asymptotics.

use crate::matrix::{CMat, Mat};
use crate::Complex64;
use std::error::Error;
use std::fmt;

/// Maximum implicit-QL sweeps per eigenvalue before giving up.
const MAX_QL_ITERS: usize = 64;

/// Error type for the eigensolvers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EigError {
    /// The input matrix was not square.
    NotSquare,
    /// The QL iteration failed to converge for some eigenvalue.
    NoConvergence,
}

impl fmt::Display for EigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EigError::NotSquare => write!(f, "input matrix is not square"),
            EigError::NoConvergence => write!(f, "QL iteration did not converge"),
        }
    }
}

impl Error for EigError {}

/// Eigendecomposition of a real symmetric matrix.
///
/// `values` are ascending; column `i` of `vectors` is the unit eigenvector
/// for `values[i]`.
#[derive(Debug, Clone)]
pub struct Eigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, one per column.
    pub vectors: Mat,
}

/// Eigendecomposition of a Hermitian matrix.
#[derive(Debug, Clone)]
pub struct HermEigen {
    /// Eigenvalues in ascending order (real for Hermitian input).
    pub values: Vec<f64>,
    /// Orthonormal complex eigenvectors, one per column.
    pub vectors: CMat,
}

/// Full eigendecomposition of a real symmetric matrix (`SYEVD`).
///
/// The input is symmetrized as `(A + Aᵀ)/2` before factorization, so small
/// asymmetries from accumulated rounding are tolerated.
///
/// # Errors
///
/// Returns [`EigError::NotSquare`] for rectangular input and
/// [`EigError::NoConvergence`] if the QL iteration stalls (practically
/// unreachable for finite input).
///
/// # Examples
///
/// ```
/// use ndft_numerics::{syevd, Mat};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Mat::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
/// let eig = syevd(&a)?;
/// assert!((eig.values[0] - 1.0).abs() < 1e-12);
/// assert!((eig.values[1] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn syevd(a: &Mat) -> Result<Eigen, EigError> {
    if a.rows() != a.cols() {
        return Err(EigError::NotSquare);
    }
    let n = a.rows();
    if n == 0 {
        return Ok(Eigen {
            values: Vec::new(),
            vectors: Mat::zeros(0, 0),
        });
    }
    // Work on the symmetrized copy; v is overwritten with eigenvectors.
    let mut v = Mat::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    tred2(&mut v, &mut d, &mut e);
    tql2(&mut v, &mut d, &mut e)?;
    Ok(Eigen {
        values: d,
        vectors: v,
    })
}

/// Full eigendecomposition of a complex Hermitian matrix (`HEEVD`).
///
/// Implemented by the standard real embedding `M = [[A, -B], [B, A]]` where
/// `H = A + iB`: every eigenvalue of `H` appears twice in `M`, and each real
/// eigenvector `[x; y]` maps to the complex eigenvector `x + iy`.
///
/// # Errors
///
/// Same conditions as [`syevd`].
pub fn heevd(h: &CMat) -> Result<HermEigen, EigError> {
    if h.rows() != h.cols() {
        return Err(EigError::NotSquare);
    }
    let n = h.rows();
    if n == 0 {
        return Ok(HermEigen {
            values: Vec::new(),
            vectors: CMat::zeros(0, 0),
        });
    }
    // Hermitize defensively, as syevd symmetrizes.
    let hh = CMat::from_fn(n, n, |i, j| (h[(i, j)] + h[(j, i)].conj()).scale(0.5));
    let m = Mat::from_fn(2 * n, 2 * n, |i, j| {
        let (bi, ii) = (i / n, i % n);
        let (bj, jj) = (j / n, j % n);
        match (bi, bj) {
            (0, 0) | (1, 1) => hh[(ii, jj)].re,
            (0, 1) => -hh[(ii, jj)].im,
            (1, 0) => hh[(ii, jj)].im,
            _ => unreachable!(),
        }
    });
    let eig = syevd(&m)?;
    // Each eigenvalue of H appears twice; walk ascending and keep one
    // independent complex vector per copy, Gram-Schmidt-ing within
    // degenerate clusters so parallel duplicates (u and i·u) are rejected.
    let mut values: Vec<f64> = Vec::with_capacity(n);
    let mut vectors: Vec<Vec<Complex64>> = Vec::with_capacity(n);
    let scale_tol = eig.values.iter().fold(1.0f64, |acc, v| acc.max(v.abs()));
    let cluster_tol = 1e-8 * scale_tol;
    for idx in 0..2 * n {
        if values.len() == n {
            break;
        }
        let lambda = eig.values[idx];
        let mut u: Vec<Complex64> = (0..n)
            .map(|r| Complex64::new(eig.vectors[(r, idx)], eig.vectors[(r + n, idx)]))
            .collect();
        // Project out accepted vectors with (numerically) equal eigenvalue.
        for (v_prev, &l_prev) in vectors.iter().zip(&values) {
            if (lambda - l_prev).abs() > cluster_tol {
                continue;
            }
            let overlap: Complex64 = v_prev
                .iter()
                .zip(&u)
                .map(|(p, q): (&Complex64, &Complex64)| p.conj() * *q)
                .sum();
            for (uk, pk) in u.iter_mut().zip(v_prev) {
                *uk -= *pk * overlap;
            }
        }
        let norm: f64 = u.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        if norm < 1e-6 {
            continue; // parallel to an accepted vector: the pair's duplicate
        }
        for z in u.iter_mut() {
            *z = z.scale(1.0 / norm);
        }
        values.push(lambda);
        vectors.push(u);
    }
    debug_assert_eq!(
        values.len(),
        n,
        "embedding must yield n independent eigenvectors"
    );
    let vmat = CMat::from_fn(n, n, |i, j| vectors[j][i]);
    Ok(HermEigen {
        values,
        vectors: vmat,
    })
}

/// Householder reduction of a symmetric matrix to tridiagonal form
/// (EISPACK `tred2`). On exit `v` holds the accumulated orthogonal
/// transformation, `d` the diagonal and `e[1..]` the subdiagonal.
fn tred2(v: &mut Mat, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    for j in 0..n {
        d[j] = v[(n - 1, j)];
    }
    for i in (1..n).rev() {
        // Scale to avoid under/overflow.
        let mut scale = 0.0;
        let mut h = 0.0;
        for item in d.iter().take(i) {
            scale += item.abs();
        }
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = v[(i - 1, j)];
                v[(i, j)] = 0.0;
                v[(j, i)] = 0.0;
            }
        } else {
            for item in d.iter_mut().take(i) {
                *item /= scale;
                h += *item * *item;
            }
            let f = d[i - 1];
            let mut g = h.sqrt();
            if f > 0.0 {
                g = -g;
            }
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            for item in e.iter_mut().take(i) {
                *item = 0.0;
            }
            // Apply similarity transformation to remaining columns.
            for j in 0..i {
                let f = d[j];
                v[(j, i)] = f;
                let mut g = e[j] + v[(j, j)] * f;
                for k in (j + 1)..i {
                    g += v[(k, j)] * d[k];
                    e[k] += v[(k, j)] * f;
                }
                e[j] = g;
            }
            let mut f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                let f = d[j];
                let g = e[j];
                for k in j..i {
                    let upd = f * e[k] + g * d[k];
                    v[(k, j)] -= upd;
                }
                d[j] = v[(i - 1, j)];
                v[(i, j)] = 0.0;
            }
        }
        d[i] = h;
    }
    // Accumulate transformations.
    for i in 0..(n - 1) {
        v[(n - 1, i)] = v[(i, i)];
        v[(i, i)] = 1.0;
        let h = d[i + 1];
        if h != 0.0 {
            for k in 0..=i {
                d[k] = v[(k, i + 1)] / h;
            }
            for j in 0..=i {
                let mut g = 0.0;
                for k in 0..=i {
                    g += v[(k, i + 1)] * v[(k, j)];
                }
                for k in 0..=i {
                    let upd = g * d[k];
                    v[(k, j)] -= upd;
                }
            }
        }
        for k in 0..=i {
            v[(k, i + 1)] = 0.0;
        }
    }
    for j in 0..n {
        d[j] = v[(n - 1, j)];
        v[(n - 1, j)] = 0.0;
    }
    v[(n - 1, n - 1)] = 1.0;
    e[0] = 0.0;
}

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix with
/// eigenvector accumulation (EISPACK `tql2`). Sorts results ascending.
fn tql2(v: &mut Mat, d: &mut [f64], e: &mut [f64]) -> Result<(), EigError> {
    let n = d.len();
    if n == 1 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    let mut f = 0.0f64;
    let mut tst1 = 0.0f64;
    let eps = 2.0f64.powi(-52);
    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m < n {
            if e[m].abs() <= eps * tst1 {
                break;
            }
            m += 1;
        }
        if m > l {
            let mut iter = 0;
            loop {
                iter += 1;
                if iter > MAX_QL_ITERS {
                    return Err(EigError::NoConvergence);
                }
                // Compute implicit shift.
                let g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = p.hypot(1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let mut h = g - d[l];
                for item in d.iter_mut().take(n).skip(l + 2) {
                    *item -= h;
                }
                f += h;
                // Implicit QL transformation.
                p = d[m];
                let mut c = 1.0;
                let mut c2 = c;
                let mut c3 = c;
                let el1 = e[l + 1];
                let mut s = 0.0;
                let mut s2 = 0.0;
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    let g = c * e[i];
                    h = c * p;
                    r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    // Accumulate transformation.
                    for k in 0..n {
                        let h = v[(k, i + 1)];
                        v[(k, i + 1)] = s * v[(k, i)] + c * h;
                        v[(k, i)] = c * v[(k, i)] - s * h;
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
                if e[l].abs() <= eps * tst1 {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
    // Sort eigenvalues and corresponding vectors ascending.
    for i in 0..(n - 1) {
        let mut k = i;
        let mut p = d[i];
        for (j, &dj) in d.iter().enumerate().skip(i + 1) {
            if dj < p {
                k = j;
                p = dj;
            }
        }
        if k != i {
            d.swap(k, i);
            for r in 0..n {
                let tmp = v[(r, i)];
                v[(r, i)] = v[(r, k)];
                v[(r, k)] = tmp;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_f64;

    fn rand_sym(n: usize, seed: u64) -> Mat {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let raw = Mat::from_fn(n, n, |_, _| next());
        Mat::from_fn(n, n, |i, j| 0.5 * (raw[(i, j)] + raw[(j, i)]))
    }

    fn reconstruction_error(a: &Mat, eig: &Eigen) -> f64 {
        let n = a.rows();
        let lambda = Mat::from_fn(n, n, |i, j| if i == j { eig.values[i] } else { 0.0 });
        let vl = gemm_f64(&eig.vectors, &lambda);
        let vlvt = gemm_f64(&vl, &eig.vectors.transpose());
        let mut err: f64 = 0.0;
        for i in 0..n {
            for j in 0..n {
                err = err.max((a[(i, j)] - vlvt[(i, j)]).abs());
            }
        }
        err
    }

    fn orthonormality_error(v: &Mat) -> f64 {
        let vtv = gemm_f64(&v.transpose(), v);
        let n = v.cols();
        let mut err: f64 = 0.0;
        for i in 0..n {
            for j in 0..n {
                let expect = if i == j { 1.0 } else { 0.0 };
                err = err.max((vtv[(i, j)] - expect).abs());
            }
        }
        err
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Mat::from_fn(4, 4, |i, j| if i == j { (4 - i) as f64 } else { 0.0 });
        let eig = syevd(&a).unwrap();
        assert_eq!(eig.values, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn known_2x2() {
        let a = Mat::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let eig = syevd(&a).unwrap();
        assert!((eig.values[0] - 1.0).abs() < 1e-12);
        assert!((eig.values[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn random_reconstruction_and_orthonormality() {
        for &n in &[1usize, 2, 3, 5, 8, 16, 33, 64] {
            let a = rand_sym(n, n as u64);
            let eig = syevd(&a).unwrap();
            assert!(
                reconstruction_error(&a, &eig) < 1e-9 * (n as f64),
                "n = {n}"
            );
            assert!(
                orthonormality_error(&eig.vectors) < 1e-10 * (n as f64).max(1.0),
                "n = {n}"
            );
            for w in eig.values.windows(2) {
                assert!(w[0] <= w[1] + 1e-12, "values must be ascending");
            }
        }
    }

    #[test]
    fn identity_has_unit_spectrum() {
        let eig = syevd(&Mat::identity(6)).unwrap();
        for v in &eig.values {
            assert!((v - 1.0).abs() < 1e-12);
        }
        assert!(orthonormality_error(&eig.vectors) < 1e-12);
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = rand_sym(12, 99);
        let eig = syevd(&a).unwrap();
        let sum: f64 = eig.values.iter().sum();
        assert!((a.trace() - sum).abs() < 1e-9);
    }

    #[test]
    fn rejects_non_square() {
        assert_eq!(syevd(&Mat::zeros(2, 3)).unwrap_err(), EigError::NotSquare);
        assert_eq!(heevd(&CMat::zeros(4, 3)).unwrap_err(), EigError::NotSquare);
    }

    #[test]
    fn hermitian_known_spectrum() {
        // Pauli-Y like matrix: eigenvalues ±1.
        let mut h = CMat::zeros(2, 2);
        h[(0, 1)] = Complex64::new(0.0, -1.0);
        h[(1, 0)] = Complex64::new(0.0, 1.0);
        let eig = heevd(&h).unwrap();
        assert!((eig.values[0] + 1.0).abs() < 1e-10);
        assert!((eig.values[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn hermitian_reconstruction() {
        let n = 10;
        let mut s = 7u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let raw = CMat::from_fn(n, n, |_, _| Complex64::new(next(), next()));
        let h = CMat::from_fn(n, n, |i, j| (raw[(i, j)] + raw[(j, i)].conj()).scale(0.5));
        let eig = heevd(&h).unwrap();
        assert_eq!(eig.values.len(), n);
        // Reconstruct H = V Λ V† and compare.
        let mut err: f64 = 0.0;
        for i in 0..n {
            for j in 0..n {
                let mut acc = Complex64::ZERO;
                for k in 0..n {
                    acc += eig.vectors[(i, k)] * eig.vectors[(j, k)].conj() * eig.values[k];
                }
                err = err.max((acc - h[(i, j)]).abs());
            }
        }
        assert!(err < 1e-8, "reconstruction error {err}");
        // Orthonormality of complex eigenvectors.
        let mut orth: f64 = 0.0;
        for a in 0..n {
            for b in 0..n {
                let mut acc = Complex64::ZERO;
                for k in 0..n {
                    acc += eig.vectors[(k, a)].conj() * eig.vectors[(k, b)];
                }
                let expect = if a == b {
                    Complex64::ONE
                } else {
                    Complex64::ZERO
                };
                orth = orth.max((acc - expect).abs());
            }
        }
        assert!(orth < 1e-8, "orthonormality error {orth}");
    }

    #[test]
    fn hermitian_with_degenerate_spectrum() {
        // 3x3 with a doubly degenerate eigenvalue.
        let h = CMat::from_fn(3, 3, |i, j| {
            if i == j {
                Complex64::from_real(if i < 2 { 2.0 } else { 5.0 })
            } else {
                Complex64::ZERO
            }
        });
        let eig = heevd(&h).unwrap();
        assert!((eig.values[0] - 2.0).abs() < 1e-10);
        assert!((eig.values[1] - 2.0).abs() < 1e-10);
        assert!((eig.values[2] - 5.0).abs() < 1e-10);
    }

    #[test]
    fn empty_matrix() {
        let eig = syevd(&Mat::zeros(0, 0)).unwrap();
        assert!(eig.values.is_empty());
    }

    #[test]
    fn error_display_nonempty() {
        assert!(!format!("{}", EigError::NotSquare).is_empty());
        assert!(!format!("{}", EigError::NoConvergence).is_empty());
    }
}
