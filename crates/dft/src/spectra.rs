//! Optical observables: oscillator strengths and broadened absorption
//! spectra — what an LR-TDDFT user actually looks at.
//!
//! Transition dipoles use the smooth periodic position operator
//! `x̃ = (L/2π)·sin(2πx/L)` (the standard workaround for the ill-defined
//! position operator under periodic boundary conditions). Oscillator
//! strengths follow the Casida weighting `f_I ∝ ω_I·|Σ_vc c_I,vc d_vc|²`,
//! and the absorption spectrum is a Lorentzian-broadened stick sum.

use crate::driver::build_response_hamiltonian;
use crate::system::SiliconSystem;
use ndft_numerics::{heevd, CMat, Complex64, EigError};
use serde::{Deserialize, Serialize};

/// Excitations with their oscillator strengths.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OscillatorSpectrum {
    /// Excitation energies in eV, ascending.
    pub energies_ev: Vec<f64>,
    /// Oscillator strength per excitation (arbitrary units, ≥ 0).
    pub strengths: Vec<f64>,
}

impl OscillatorSpectrum {
    /// Lorentzian-broadened absorption spectrum on `points` energies in
    /// `[e_min, e_max]` with half-width `gamma` (eV).
    ///
    /// # Panics
    ///
    /// Panics if `points == 0`, `gamma <= 0`, or the range is inverted.
    pub fn broadened(&self, e_min: f64, e_max: f64, points: usize, gamma: f64) -> Vec<(f64, f64)> {
        assert!(points > 0, "need at least one spectrum point");
        assert!(gamma > 0.0, "broadening must be positive");
        assert!(e_max > e_min, "energy range must be increasing");
        let step = (e_max - e_min) / points.saturating_sub(1).max(1) as f64;
        (0..points)
            .map(|k| {
                let e = e_min + k as f64 * step;
                let a: f64 = self
                    .energies_ev
                    .iter()
                    .zip(&self.strengths)
                    .map(|(&w, &f)| f * gamma / ((e - w) * (e - w) + gamma * gamma))
                    .sum();
                (e, a / std::f64::consts::PI)
            })
            .collect()
    }
}

/// Smooth periodic position weights along one axis for every grid point.
fn periodic_position(system: &SiliconSystem, axis: usize) -> Vec<f64> {
    let grid = system.grid();
    let (lx, ly, lz) = system.lengths();
    let (n, l) = match axis {
        0 => (grid.nx, lx),
        1 => (grid.ny, ly),
        _ => (grid.nz, lz),
    };
    let scale = l / (2.0 * std::f64::consts::PI);
    let mut out = Vec::with_capacity(grid.len());
    for z in 0..grid.nz {
        for y in 0..grid.ny {
            for x in 0..grid.nx {
                let i = match axis {
                    0 => x,
                    1 => y,
                    _ => z,
                };
                out.push(scale * (2.0 * std::f64::consts::PI * i as f64 / n as f64).sin());
                let _ = (y, z);
            }
        }
    }
    out
}

/// Computes excitation energies *and* oscillator strengths from explicit
/// orbitals (diagonalizing the same response Hamiltonian the timing
/// pipeline characterizes).
///
/// # Errors
///
/// Propagates [`EigError`] from the diagonalization.
fn oscillator_spectrum(
    system: &SiliconSystem,
    valence: &CMat,
    conduction: &CMat,
    eps_v: &[f64],
    eps_c: &[f64],
) -> Result<OscillatorSpectrum, EigError> {
    let h = build_response_hamiltonian(system, valence, conduction, eps_v, eps_c);
    let eig = heevd(&h)?;
    let nr = system.grid().len();
    let dv = system.volume() / nr as f64;
    let (nv, nc) = (valence.rows(), conduction.rows());
    let npair = nv * nc;

    // Transition dipoles d_vc per Cartesian axis.
    let mut dipoles = vec![[Complex64::ZERO; 3]; npair];
    let weights: [Vec<f64>; 3] = std::array::from_fn(|axis| periodic_position(system, axis));
    for (axis, w) in weights.iter().enumerate() {
        for v in 0..nv {
            let vrow = valence.row(v);
            for c in 0..nc {
                let crow = conduction.row(c);
                let mut acc = Complex64::ZERO;
                for ((a, b), &wi) in vrow.iter().zip(crow).zip(w) {
                    acc += (a.conj() * *b).scale(wi);
                }
                dipoles[v * nc + c][axis] = acc.scale(dv);
            }
        }
    }

    // Casida weights: f_I ∝ ω_I · Σ_axis |Σ_vc c_I,vc · d_vc|².
    let mut strengths = Vec::with_capacity(npair);
    for i in 0..npair {
        let mut f = 0.0;
        for axis in 0..3 {
            let mut amp = Complex64::ZERO;
            for (pair, d) in dipoles.iter().enumerate() {
                amp += eig.vectors[(pair, i)].conj() * d[axis];
            }
            f += amp.norm_sqr();
        }
        strengths.push(eig.values[i].max(0.0) * f);
    }
    Ok(OscillatorSpectrum {
        energies_ev: eig.values,
        strengths,
    })
}

/// Convenience: oscillator spectrum of a system using the model orbitals
/// (the same path as [`crate::driver::run_lr_tddft`]).
///
/// # Errors
///
/// Propagates [`EigError`] from the diagonalization.
pub fn model_oscillator_spectrum(system: &SiliconSystem) -> Result<OscillatorSpectrum, EigError> {
    let (v, c, ev, ec) = crate::driver::model_orbitals(system);
    oscillator_spectrum(system, &v, &c, &ev, &ec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spectrum() -> OscillatorSpectrum {
        model_oscillator_spectrum(&SiliconSystem::new(16).unwrap()).unwrap()
    }

    #[test]
    fn strengths_are_nonnegative_and_finite() {
        let s = spectrum();
        assert_eq!(s.strengths.len(), s.energies_ev.len());
        for &f in &s.strengths {
            assert!(f >= 0.0 && f.is_finite());
        }
        assert!(
            s.strengths.iter().sum::<f64>() > 0.0,
            "some transition must be bright"
        );
    }

    #[test]
    fn broadened_spectrum_integrates_to_total_strength() {
        let s = spectrum();
        let grid = s.broadened(0.0, 20.0, 4000, 0.05);
        let step = grid[1].0 - grid[0].0;
        let integral: f64 = grid.iter().map(|(_, a)| a * step).sum();
        let total: f64 = s.strengths.iter().sum();
        // Lorentzian tails leak outside the window; expect most of it.
        assert!(
            integral > 0.7 * total && integral < 1.05 * total,
            "integral {integral} vs total {total}"
        );
    }

    #[test]
    fn broadened_peaks_near_bright_lines() {
        let s = spectrum();
        let bright = (0..s.strengths.len())
            .max_by(|&a, &b| s.strengths[a].total_cmp(&s.strengths[b]))
            .unwrap();
        let bright_e = s.energies_ev[bright];
        let grid = s.broadened(bright_e - 1.0, bright_e + 1.0, 401, 0.02);
        let peak = grid
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert!(
            (peak.0 - bright_e).abs() < 0.2,
            "peak at {} vs line {}",
            peak.0,
            bright_e
        );
    }

    #[test]
    fn periodic_position_is_bounded_by_cell() {
        let sys = SiliconSystem::new(16).unwrap();
        let (lx, _, _) = sys.lengths();
        let w = periodic_position(&sys, 0);
        let bound = lx / (2.0 * std::f64::consts::PI) + 1e-12;
        assert!(w.iter().all(|x| x.abs() <= bound));
    }

    #[test]
    #[should_panic(expected = "broadening must be positive")]
    fn zero_gamma_rejected() {
        let s = spectrum();
        let _ = s.broadened(0.0, 10.0, 10, 0.0);
    }
}
