//! Level-1 vector operations on complex slices.
//!
//! Small helpers shared by the physics layer: inner products, AXPY-style
//! updates, normalization. All take slices so callers control allocation
//! and placement.

use crate::Complex64;

/// Hermitian inner product `⟨a, b⟩ = Σ conj(a_i)·b_i`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// use ndft_numerics::{vecops, Complex64};
/// let a = [Complex64::I, Complex64::ONE];
/// assert_eq!(vecops::dot(&a, &a), Complex64::from_real(2.0));
/// ```
pub fn dot(a: &[Complex64], b: &[Complex64]) -> Complex64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    a.iter().zip(b).map(|(x, y)| x.conj() * *y).sum()
}

/// Squared 2-norm `Σ |a_i|²`.
pub fn norm_sqr(a: &[Complex64]) -> f64 {
    a.iter().map(|z| z.norm_sqr()).sum()
}

/// 2-norm.
pub fn norm(a: &[Complex64]) -> f64 {
    norm_sqr(a).sqrt()
}

/// Normalizes `x` to unit 2-norm and returns the original norm.
///
/// Leaves `x` untouched and returns 0.0 when its norm underflows.
pub fn normalize(x: &mut [Complex64]) -> f64 {
    let n = norm(x);
    if n > f64::MIN_POSITIVE {
        let inv = 1.0 / n;
        for xi in x.iter_mut() {
            *xi = xi.scale(inv);
        }
    }
    n
}

/// Modified Gram-Schmidt orthonormalization of `rows` vectors stored
/// contiguously (`rows × len`, row-major). Returns the number of vectors
/// that survived (rank); dependent rows are zeroed.
pub fn mgs_orthonormalize(data: &mut [Complex64], rows: usize, len: usize) -> usize {
    assert_eq!(data.len(), rows * len, "mgs buffer shape mismatch");
    let mut rank = 0;
    for i in 0..rows {
        // Project out previous rows.
        for j in 0..i {
            let (head, tail) = data.split_at_mut(i * len);
            let vj = &head[j * len..(j + 1) * len];
            let vi = &mut tail[..len];
            let proj = dot(vj, vi);
            for (a, b) in vi.iter_mut().zip(vj) {
                *a -= *b * proj;
            }
        }
        let vi = &mut data[i * len..(i + 1) * len];
        let n = normalize(vi);
        if n > 1e-12 {
            rank += 1;
        } else {
            vi.fill(Complex64::ZERO);
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_is_conjugate_linear_in_first_argument() {
        let a = [Complex64::new(1.0, 2.0), Complex64::new(-1.0, 0.5)];
        let b = [Complex64::new(0.0, 1.0), Complex64::new(2.0, -1.0)];
        let lhs = dot(&a, &b).conj();
        let rhs = dot(&b, &a);
        assert!((lhs - rhs).abs() < 1e-14);
    }

    #[test]
    fn norm_of_unit_axis() {
        let mut v = vec![Complex64::ZERO; 5];
        v[3] = Complex64::I;
        assert!((norm(&v) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn normalize_returns_original_norm() {
        let mut v = vec![Complex64::new(3.0, 0.0), Complex64::new(0.0, 4.0)];
        let n = normalize(&mut v);
        assert!((n - 5.0).abs() < 1e-14);
        assert!((norm(&v) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut v = vec![Complex64::ZERO; 4];
        assert_eq!(normalize(&mut v), 0.0);
        assert!(v.iter().all(|z| *z == Complex64::ZERO));
    }

    #[test]
    fn mgs_produces_orthonormal_basis() {
        let len = 6;
        let rows = 3;
        let mut s = 12345u64;
        let mut data: Vec<Complex64> = (0..rows * len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                Complex64::new(
                    (s as f64 / u64::MAX as f64) - 0.5,
                    ((s >> 32) as f64 / u32::MAX as f64) - 0.5,
                )
            })
            .collect();
        let rank = mgs_orthonormalize(&mut data, rows, len);
        assert_eq!(rank, rows);
        for i in 0..rows {
            for j in 0..rows {
                let d = dot(&data[i * len..(i + 1) * len], &data[j * len..(j + 1) * len]);
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (d - Complex64::from_real(expect)).abs() < 1e-10,
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn mgs_detects_dependent_rows() {
        let len = 4;
        let v = [
            Complex64::ONE,
            Complex64::I,
            Complex64::ZERO,
            Complex64::ONE,
        ];
        let mut data: Vec<Complex64> = v.iter().chain(v.iter()).copied().collect();
        let rank = mgs_orthonormalize(&mut data, 2, len);
        assert_eq!(rank, 1);
        assert!(data[len..].iter().all(|z| *z == Complex64::ZERO));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[Complex64::ZERO], &[Complex64::ZERO, Complex64::ZERO]);
    }
}
