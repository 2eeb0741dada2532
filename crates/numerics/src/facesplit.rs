//! The face-splitting product of LR-TDDFT.
//!
//! Given valence orbitals `ψ_v(r)` and conduction orbitals `ψ_c(r)` sampled
//! on `nr` grid points, LR-TDDFT forms the transition densities
//! `P_vc(r) = ψ_v*(r) · ψ_c(r)` for every (v, c) pair — the row-wise
//! Khatri–Rao ("face-splitting") product of the two orbital matrices. It is
//! a pure streaming kernel: one complex multiply per output element, which
//! is why the paper's roofline (Fig. 4) places it deep in the memory-bound
//! region.

use crate::counters::{face_splitting_cost, KernelCost};
use crate::matrix::CMat;

/// Computes the full face-splitting product `P[(v·nc + c), r] = ψ_v*(r)·ψ_c(r)`.
///
/// `valence` is `nv × nr`, `conduction` is `nc × nr`; the result is
/// `(nv·nc) × nr`.
///
/// # Panics
///
/// Panics if the two orbital matrices have different numbers of grid
/// points (columns).
///
/// # Examples
///
/// ```
/// use ndft_numerics::{face_splitting, CMat, Complex64};
///
/// let v = CMat::from_fn(1, 3, |_, r| Complex64::new(r as f64, 1.0));
/// let c = CMat::from_fn(1, 3, |_, r| Complex64::new(1.0, -(r as f64)));
/// let p = face_splitting(&v, &c);
/// assert_eq!(p.rows(), 1);
/// assert_eq!(p[(0, 2)], Complex64::new(2.0, 1.0).conj() * Complex64::new(1.0, -2.0));
/// ```
pub fn face_splitting(valence: &CMat, conduction: &CMat) -> CMat {
    assert_eq!(
        valence.cols(),
        conduction.cols(),
        "face-splitting operands must share the grid dimension"
    );
    let (nv, nc, nr) = (valence.rows(), conduction.rows(), valence.cols());
    let mut p = CMat::zeros(nv * nc, nr);
    for v in 0..nv {
        let vrow = valence.row(v);
        for c in 0..nc {
            let crow = conduction.row(c);
            let prow = p.row_mut(v * nc + c);
            for ((out, a), b) in prow.iter_mut().zip(vrow).zip(crow) {
                *out = a.conj() * *b;
            }
        }
    }
    p
}

/// Analytic cost of [`face_splitting`] for the given operand shapes.
pub fn face_splitting_cost_for(valence: &CMat, conduction: &CMat) -> KernelCost {
    face_splitting_cost(valence.rows() * conduction.rows(), valence.cols())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;

    fn cmat(rows: usize, cols: usize, seed: u64) -> CMat {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        CMat::from_fn(rows, cols, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let re = (s as f64 / u64::MAX as f64) * 2.0 - 1.0;
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            Complex64::new(re, (s as f64 / u64::MAX as f64) * 2.0 - 1.0)
        })
    }

    #[test]
    fn elementwise_definition() {
        let v = cmat(3, 7, 1);
        let c = cmat(4, 7, 2);
        let p = face_splitting(&v, &c);
        assert_eq!(p.rows(), 12);
        assert_eq!(p.cols(), 7);
        for vi in 0..3 {
            for ci in 0..4 {
                for r in 0..7 {
                    let expect = v[(vi, r)].conj() * c[(ci, r)];
                    assert_eq!(p[(vi * 4 + ci, r)], expect);
                }
            }
        }
    }

    #[test]
    fn conjugation_side_is_valence() {
        let v = CMat::from_fn(1, 1, |_, _| Complex64::new(0.0, 1.0));
        let c = CMat::from_fn(1, 1, |_, _| Complex64::ONE);
        let p = face_splitting(&v, &c);
        // conj(i) * 1 = -i
        assert_eq!(p[(0, 0)], Complex64::new(0.0, -1.0));
    }

    #[test]
    fn diagonal_row_is_density() {
        // P_vv(r) = |ψ_v(r)|² must be real and non-negative.
        let v = cmat(3, 11, 9);
        let p = face_splitting(&v, &v);
        for vi in 0..3 {
            for r in 0..11 {
                let z = p[(vi * 3 + vi, r)];
                assert!(z.im.abs() < 1e-14);
                assert!(z.re >= 0.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "grid dimension")]
    fn mismatched_grids_panic() {
        let v = CMat::zeros(2, 4);
        let c = CMat::zeros(2, 5);
        let _ = face_splitting(&v, &c);
    }

    #[test]
    fn cost_matches_shape() {
        let v = CMat::zeros(4, 100);
        let c = CMat::zeros(5, 100);
        let cost = face_splitting_cost_for(&v, &c);
        assert_eq!(cost.flops, 6 * 20 * 100);
    }
}
