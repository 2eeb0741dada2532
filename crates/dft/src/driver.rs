//! Small-scale numeric LR-TDDFT driver.
//!
//! Runs the actual pipeline of Fig. 1 — face-splitting product, 3-D FFT,
//! reciprocal-space response kernel, Hamiltonian GEMM, `SYEVD` — with the
//! real numerics from `ndft-numerics`, producing excitation energies for
//! small silicon systems. The large systems are *timed* through the
//! workload descriptors; this driver exists to validate that the pipeline
//! those descriptors summarize is real and produces physically sensible
//! output.
//!
//! Units: energies in eV, lengths in Å (`ħ²/2mₑ = 3.81 eV·Å²`,
//! `e²/4πε₀ = 14.3996 eV·Å`).

use crate::basis::{plane_wave, sorted_g_indices, system_g2};
use crate::pseudo::{apply_nonlocal, build_pseudos};
use crate::system::SiliconSystem;
use ndft_numerics::{
    face_splitting, gemm_adjoint_c64, heevd, vecops, CMat, Complex64, EigError, Fft3Plan,
};
use serde::{Deserialize, Serialize};

/// `ħ²/2mₑ` in eV·Å² (re-exported from [`crate::basis`]).
pub const HBAR2_OVER_2M: f64 = crate::basis::HBAR2_OVER_2M;
/// `e²/4πε₀` in eV·Å.
pub const COULOMB_EV_A: f64 = 14.3996;
/// Kohn–Sham gap of our toy silicon band model, eV.
pub const MODEL_GAP_EV: f64 = 1.1;
/// Adiabatic-LDA-style contact exchange-correlation kernel (attractive),
/// dimensionless relative to the Hartree kernel scale.
const FXC_CONTACT: f64 = -0.20;

/// Result of one LR-TDDFT calculation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Spectrum {
    /// Excitation energies in eV, ascending.
    pub energies_ev: Vec<f64>,
    /// Dimension of the diagonalized response Hamiltonian.
    pub hamiltonian_dim: usize,
    /// Largest deviation of the assembled Hamiltonian from Hermiticity
    /// (a numerical-consistency diagnostic).
    pub hermiticity_error: f64,
}

impl Spectrum {
    /// The optical gap: the lowest excitation energy.
    pub fn optical_gap(&self) -> f64 {
        self.energies_ev.first().copied().unwrap_or(f64::NAN)
    }
}

/// Runs the numeric LR-TDDFT pipeline on a silicon system.
///
/// Intended for the small systems (Si_16 – Si_64); cost grows as the real
/// pipeline does, so large systems belong to the descriptor-based timing
/// path instead.
///
/// # Errors
///
/// Propagates [`EigError`] if the final diagonalization fails (practically
/// unreachable for finite input).
///
/// # Examples
///
/// ```
/// use ndft_dft::{run_lr_tddft, SiliconSystem};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spectrum = run_lr_tddft(&SiliconSystem::new(16)?)?;
/// assert!(spectrum.optical_gap() > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn run_lr_tddft(system: &SiliconSystem) -> Result<Spectrum, EigError> {
    let (valence, conduction, eps_v, eps_c) = model_orbitals(system);
    lr_tddft_from_orbitals(system, &valence, &conduction, &eps_v, &eps_c)
}

/// Builds the model Kohn–Sham orbitals and band energies used by
/// [`run_lr_tddft`]: the lowest plane waves perturbed by the nonlocal
/// pseudopotential, orthonormalized, with kinetic + gap-offset energies.
pub fn model_orbitals(system: &SiliconSystem) -> (CMat, CMat, Vec<f64>, Vec<f64>) {
    let grid = system.grid();
    let nr = grid.len();
    let dv = system.volume() / nr as f64;
    let nv = system.valence_window();
    let nc = system.conduction_window();
    let gvecs = system_g2(system);
    let order = sorted_g_indices(&gvecs);
    let pseudos = build_pseudos(system, 1.8);
    let make_orbitals = |offset: usize, count: usize| -> CMat {
        let mut data = Vec::with_capacity(count * nr);
        for b in 0..count {
            let g_idx = order[offset + b];
            let mut psi = plane_wave(grid, g_idx);
            // Ground-state flavour: let the pseudopotential mix the state.
            apply_nonlocal(&mut psi, &pseudos, dv * 0.05);
            data.extend_from_slice(&psi);
        }
        let mut flat = data;
        vecops::mgs_orthonormalize(&mut flat, count, nr);
        // Rescale to ⟨ψ|ψ⟩·dv = 1 (grid-quadrature normalization).
        let s = 1.0 / dv.sqrt();
        for z in flat.iter_mut() {
            *z = z.scale(s);
        }
        CMat::from_vec(count, nr, flat)
    };
    let valence = make_orbitals(0, nv);
    let conduction = make_orbitals(nv, nc);
    let eps_v: Vec<f64> = (0..nv)
        .map(|b| -0.3 - HBAR2_OVER_2M * gvecs[order[b]] * 0.05)
        .collect();
    let eps_c: Vec<f64> = (0..nc)
        .map(|b| MODEL_GAP_EV - 0.3 + HBAR2_OVER_2M * gvecs[order[nv + b]] * 0.05)
        .collect();
    (valence, conduction, eps_v, eps_c)
}

/// Runs the LR-TDDFT pipeline from explicit orbitals and band energies
/// (e.g. the output of [`crate::scf::run_scf`]).
///
/// `valence` is `nv × nr`, `conduction` is `nc × nr`, both normalized to
/// `⟨ψ|ψ⟩·dv = 1`; `eps_v`/`eps_c` are the matching band energies in eV.
///
/// # Errors
///
/// Propagates [`EigError`] from the final diagonalization.
///
/// # Panics
///
/// Panics if the orbital shapes or energy lengths disagree with the
/// system's grid and windows.
pub fn lr_tddft_from_orbitals(
    system: &SiliconSystem,
    valence: &CMat,
    conduction: &CMat,
    eps_v: &[f64],
    eps_c: &[f64],
) -> Result<Spectrum, EigError> {
    let h = build_response_hamiltonian(system, valence, conduction, eps_v, eps_c);
    let hermiticity_error = h.hermitian_deviation();
    let npair = h.rows();
    let eig = heevd(&h)?;
    Ok(Spectrum {
        energies_ev: eig.values,
        hamiltonian_dim: npair,
        hermiticity_error,
    })
}

/// Assembles the LR-TDDFT response Hamiltonian
/// `H = diag(ε_c − ε_v) + 2·⟨P| f_Hxc |P⟩ / V` from explicit orbitals —
/// the pipeline of Fig. 1 up to (but excluding) the `SYEVD`.
///
/// # Panics
///
/// Panics if the orbital shapes or energy lengths disagree with the
/// system's grid.
pub fn build_response_hamiltonian(
    system: &SiliconSystem,
    valence: &CMat,
    conduction: &CMat,
    eps_v: &[f64],
    eps_c: &[f64],
) -> CMat {
    let (delta_eps, coupling) = response_parts(system, valence, conduction, eps_v, eps_c);
    let npair = delta_eps.len();
    let mut h = coupling;
    for (i, &d) in delta_eps.iter().enumerate() {
        h[(i, i)] += Complex64::from_real(d);
    }
    debug_assert_eq!(h.rows(), npair);
    h
}

/// The two ingredients of the response problem: the bare transition
/// energies `Δε_{vc} = ε_c − ε_v` (pair index `v·nc + c`) and the scaled
/// Hartree-plus-xc coupling matrix `(2/V)·⟨P| f_Hxc |P⟩`.
///
/// [`build_response_hamiltonian`] sums them into the Tamm–Dancoff
/// Hamiltonian; [`crate::casida`] recombines them into the full Casida
/// problem instead.
///
/// # Panics
///
/// Panics if the orbital shapes or energy lengths disagree with the
/// system's grid.
pub fn response_parts(
    system: &SiliconSystem,
    valence: &CMat,
    conduction: &CMat,
    eps_v: &[f64],
    eps_c: &[f64],
) -> (Vec<f64>, CMat) {
    let grid = system.grid();
    let nr = grid.len();
    let volume = system.volume();
    let dv = volume / nr as f64;
    let nv = valence.rows();
    let nc = conduction.rows();
    assert_eq!(
        valence.cols(),
        nr,
        "valence orbitals must live on the system grid"
    );
    assert_eq!(
        conduction.cols(),
        nr,
        "conduction orbitals must live on the system grid"
    );
    assert_eq!(eps_v.len(), nv, "one energy per valence band");
    assert_eq!(eps_c.len(), nc, "one energy per conduction band");

    let gvecs = system_g2(system);
    let order = sorted_g_indices(&gvecs);

    // --- Face-splitting product: P_vc(r) = ψ_v*(r) ψ_c(r). ---
    let p = face_splitting(valence, conduction);
    let npair = p.rows();

    // --- FFT each transition density to reciprocal space. ---
    let plan = Fft3Plan::new(grid);
    let mut p_g = p;
    for row in 0..npair {
        let buf = p_g.row_mut(row);
        plan.forward(buf);
        // Quadrature scale: P~(G) = Σ_r P(r) e^{-iGr} dv.
        for z in buf.iter_mut() {
            *z = z.scale(dv);
        }
    }

    // --- Response kernel on the low-G sphere: f(G) = 4π e²/G² + f_xc. ---
    let ng = system.gsphere_len().min(nr - 1);
    // Weighted amplitudes A(G, i) = sqrt(f(G)) · P~_i(G); K = (2/V)·A†A.
    let mut weighted = CMat::zeros(ng, npair);
    for (k, &gi) in order[1..=ng].iter().enumerate() {
        let g2 = gvecs[gi];
        let f_g = (4.0 * std::f64::consts::PI * COULOMB_EV_A / g2) * (1.0 + FXC_CONTACT);
        let w = f_g.max(0.0).sqrt();
        for i in 0..npair {
            weighted[(k, i)] = p_g[(i, gi)].scale(w);
        }
    }
    let mut coupling = gemm_adjoint_c64(&weighted, &weighted);
    let scale = 2.0 / volume;
    for z in coupling.as_mut_slice() {
        *z = z.scale(scale);
    }

    let mut delta_eps = Vec::with_capacity(npair);
    for &ev in eps_v {
        for &ec in eps_c {
            delta_eps.push(ec - ev);
        }
    }
    (delta_eps, coupling)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn si16_spectrum_is_physical() {
        let spectrum = run_lr_tddft(&SiliconSystem::new(16).unwrap()).unwrap();
        assert_eq!(spectrum.hamiltonian_dim, 6 * 5);
        assert_eq!(spectrum.energies_ev.len(), 30);
        // All excitation energies positive and above ~half the model gap.
        assert!(
            spectrum.optical_gap() > 0.3,
            "gap {}",
            spectrum.optical_gap()
        );
        // Ascending.
        for w in spectrum.energies_ev.windows(2) {
            assert!(w[0] <= w[1] + 1e-10);
        }
        // Hamiltonian numerically Hermitian.
        assert!(
            spectrum.hermiticity_error < 1e-8,
            "dev {}",
            spectrum.hermiticity_error
        );
    }

    #[test]
    fn coupling_raises_energies_above_bare_gaps() {
        // The Hartree kernel is positive ⇒ mean excitation above the mean
        // bare transition energy.
        let spectrum = run_lr_tddft(&SiliconSystem::new(16).unwrap()).unwrap();
        let mean: f64 =
            spectrum.energies_ev.iter().sum::<f64>() / spectrum.energies_ev.len() as f64;
        assert!(mean > MODEL_GAP_EV * 0.8, "mean excitation {mean}");
    }

    #[test]
    fn model_orbitals_shapes_match_windows() {
        let sys = SiliconSystem::new(16).unwrap();
        let (v, c, ev, ec) = model_orbitals(&sys);
        assert_eq!(v.rows(), sys.valence_window());
        assert_eq!(c.rows(), sys.conduction_window());
        assert_eq!(ev.len(), v.rows());
        assert_eq!(ec.len(), c.rows());
        // Valence below conduction (the model gap).
        let max_v = ev.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min_c = ec.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(min_c > max_v, "gap must separate windows");
    }

    #[test]
    fn explicit_orbital_entry_point_matches_default_path() {
        let sys = SiliconSystem::new(16).unwrap();
        let (v, c, ev, ec) = model_orbitals(&sys);
        let a = run_lr_tddft(&sys).unwrap();
        let b = lr_tddft_from_orbitals(&sys, &v, &c, &ev, &ec).unwrap();
        assert_eq!(a.energies_ev, b.energies_ev);
    }
}
