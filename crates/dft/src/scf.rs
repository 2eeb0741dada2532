//! Ground-state Kohn–Sham solver (the DFT substrate under LR-TDDFT).
//!
//! A plane-wave band-by-band eigensolver for the model Kohn–Sham
//! Hamiltonian
//!
//! ```text
//! H = -ħ²∇²/2m  +  V_loc(r)  +  V_nl   (nonlocal pseudopotential)
//! ```
//!
//! The eigensolver is a blocked Davidson-style subspace iteration:
//! expand the trial space with preconditioned residuals, orthonormalize,
//! Rayleigh–Ritz, repeat. It works on plane-wave coefficients, as
//! plane-wave DFT codes do: a band is carried as its unitary expansion
//! `c(G) = (F ψ)(G)/√N` over the `N` bins of the FFT grid, where the
//! kinetic energy `(ħ²/2m)G²` and the preconditioner `1/(1 + (ħ²/2m)G²)`
//! are both diagonal. The local potential stays pointwise in real space
//! and the nonlocal part goes through the projector machinery of
//! [`crate::pseudo`], so one application of `H` to a coefficient vector
//! is an inverse 3-D FFT, the real-space potential step, a forward 3-D
//! FFT and a diagonal kinetic term — the kernels the paper characterizes.
//!
//! Every Hamiltonian application streams whole grids through the FFT and
//! the projector gather/scatter, so the solver applies `H` only to
//! vectors that are new: the initial plane waves (unit vectors in `G`),
//! then each iteration's surviving residual directions. It keeps `Hψ`
//! beside every trial vector and rotates it with the same Ritz
//! coefficients and normalization as `ψ`, as LOBPCG/Davidson codes do;
//! residuals and the final band energies come from those carried pairs.
//! The orbitals return to real space once, at the end.
//!
//! Per solve of `nb` bands over `k` iterations, `H` is applied
//! `nb·(k + 1)` times (two 3-D FFTs each), and the final transform adds
//! one inverse FFT per band: `nb·(2k + 3)` 3-D FFTs in all. The
//! preconditioner costs none.

use crate::basis::{local_potential, lowest_g_indices, system_g2, HBAR2_OVER_2M};
use crate::pseudo::{add_nonlocal, build_pseudos, Pseudopotential};
use crate::system::SiliconSystem;
use ndft_numerics::{heevd, vecops, CMat, Complex64, EigError, Fft3Plan};
use serde::{Deserialize, Serialize};

/// Converged (or best-effort) ground state.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundState {
    /// Band energies in eV, ascending.
    pub energies_ev: Vec<f64>,
    /// Orbitals, one per row, unit grid 2-norm.
    pub orbitals: CMat,
    /// Residual 2-norms `‖Hψ − εψ‖` per band at the last iteration.
    pub residuals: Vec<f64>,
    /// Subspace iterations performed.
    pub iterations: usize,
}

impl GroundState {
    /// Largest band residual (convergence diagnostic).
    pub fn max_residual(&self) -> f64 {
        self.residuals.iter().copied().fold(0.0, f64::max)
    }
}

/// SCF solver options.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScfOptions {
    /// Bands to solve for.
    pub bands: usize,
    /// Maximum subspace iterations.
    pub max_iterations: usize,
    /// Stop when every band residual is below this (eV-normalized).
    pub residual_tolerance: f64,
    /// Local-potential well depth in eV.
    pub potential_depth_ev: f64,
    /// Local-potential width in Å.
    pub potential_sigma: f64,
}

impl Default for ScfOptions {
    fn default() -> Self {
        ScfOptions {
            bands: 8,
            max_iterations: 12,
            residual_tolerance: 1e-3,
            potential_depth_ev: 5.0,
            potential_sigma: 0.8,
        }
    }
}

/// The model Kohn–Sham Hamiltonian on a system's grid.
pub struct KsHamiltonian {
    plan: Fft3Plan,
    g2: Vec<f64>,
    vloc: Vec<f64>,
    pseudos: Pseudopotential,
    dv: f64,
    nr: usize,
}

impl KsHamiltonian {
    /// Builds the Hamiltonian for a system.
    pub fn new(system: &SiliconSystem, opts: &ScfOptions) -> Self {
        let grid = system.grid();
        let nr = grid.len();
        KsHamiltonian {
            plan: Fft3Plan::new(grid),
            g2: system_g2(system),
            vloc: local_potential(system, opts.potential_depth_ev, opts.potential_sigma),
            pseudos: build_pseudos(system, 1.8),
            dv: system.volume() / nr as f64,
            nr,
        }
    }

    /// Number of real-space grid points.
    pub fn len(&self) -> usize {
        self.nr
    }

    /// True when the grid is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.nr == 0
    }

    /// Applies `H` to an orbital: `out = Hψ`.
    ///
    /// # Panics
    ///
    /// Panics if `psi.len()` does not match the grid.
    pub fn apply(&self, psi: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(psi.len(), self.nr, "orbital length mismatch");
        // Kinetic: FFT → ×(ħ²/2m)G² → inverse FFT.
        let mut kin = psi.to_vec();
        self.plan.forward(&mut kin);
        for (z, &g2) in kin.iter_mut().zip(&self.g2) {
            *z = z.scale(HBAR2_OVER_2M * g2);
        }
        self.plan.inverse(&mut kin);
        self.add_potential(psi, &mut kin);
        kin
    }

    /// Rayleigh quotient `⟨ψ|H|ψ⟩` for a unit-norm orbital.
    pub fn expectation(&self, psi: &[Complex64]) -> f64 {
        let h = self.apply(psi);
        vecops::dot(psi, &h).re
    }

    /// Applies `H` to plane-wave coefficients `c(G)`: the inverse FFT
    /// takes `c` to real space, the potential acts there, the forward FFT
    /// brings the result back, and the kinetic term is added diagonally.
    /// The forward transform is unnormalized and the inverse carries
    /// `1/N`, so this is `H` in the unitary basis `c = Fψ/√N` without
    /// any further scaling.
    fn apply_g(&self, c: &[Complex64]) -> Vec<Complex64> {
        let mut phi = c.to_vec();
        self.plan.inverse(&mut phi);
        let mut out = vec![Complex64::ZERO; self.nr];
        self.add_potential(&phi, &mut out);
        self.plan.forward(&mut out);
        for ((o, z), &g2) in out.iter_mut().zip(c).zip(&self.g2) {
            *o += z.scale(HBAR2_OVER_2M * g2);
        }
        out
    }

    /// `out += (V_loc + V_nl)·φ` on the real-space grid: the potential
    /// step both [`apply`](Self::apply) and the coefficient-space apply
    /// share.
    fn add_potential(&self, phi: &[Complex64], out: &mut [Complex64]) {
        #[cfg(test)]
        tests::APPLY_CALLS.with(|c| c.set(c.get() + 1));
        // Local potential, pointwise.
        for ((o, p), &v) in out.iter_mut().zip(phi).zip(&self.vloc) {
            *o += p.scale(v);
        }
        // Nonlocal: Σ_a V_a φ, every atom projecting the unmodified φ.
        add_nonlocal(phi, &self.pseudos, self.dv, out);
    }
}

/// Electron charge density `ρ(r) = Σ_b f_b |ψ_b(r)|²`, normalized so that
/// `Σ_r ρ(r)·dv` equals the electron count (`Σ f_b` for grid-unit-norm
/// orbitals scaled by `1/dv`).
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn charge_density(orbitals: &CMat, occupations: &[f64], dv: f64) -> Vec<f64> {
    assert_eq!(
        orbitals.rows(),
        occupations.len(),
        "one occupation per band"
    );
    let nr = orbitals.cols();
    let mut rho = vec![0.0f64; nr];
    for (b, &f) in occupations.iter().enumerate() {
        for (r, z) in orbitals.row(b).iter().enumerate() {
            // Grid-unit-norm orbitals: |ψ|² sums to 1 over the grid, so
            // dividing by dv makes ρ integrate (Σ ρ dv) to f per band.
            rho[r] += f * z.norm_sqr() / dv;
        }
    }
    rho
}

/// Hartree potential from a charge density via the FFT Poisson solve:
/// `V_H(G) = 4π e² ρ(G) / G²` (the G = 0 component is dropped — the
/// jellium convention for charged-neutral periodic cells). Units: eV
/// with ρ in e/Å³.
///
/// # Panics
///
/// Panics if `rho.len()` does not match the system grid.
pub fn hartree_potential(system: &SiliconSystem, rho: &[f64]) -> Vec<f64> {
    let grid = system.grid();
    assert_eq!(
        rho.len(),
        grid.len(),
        "density must live on the system grid"
    );
    hartree_in(&Fft3Plan::new(grid), &system_g2(system), rho)
}

/// [`hartree_potential`] on a prebuilt plan and `|G|²` table of the
/// density's grid.
fn hartree_in(plan: &Fft3Plan, g2: &[f64], rho: &[f64]) -> Vec<f64> {
    let mut buf: Vec<Complex64> = rho.iter().map(|&x| Complex64::from_real(x)).collect();
    plan.forward(&mut buf);
    const COULOMB_EV_A: f64 = 14.399_6;
    for (z, &g2v) in buf.iter_mut().zip(g2) {
        if g2v == 0.0 {
            *z = Complex64::ZERO;
        } else {
            *z = z.scale(4.0 * std::f64::consts::PI * COULOMB_EV_A / g2v);
        }
    }
    plan.inverse(&mut buf);
    buf.into_iter().map(|z| z.re).collect()
}

/// Result of the self-consistent loop.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfConsistentResult {
    /// Converged (or best-effort) ground state of the final cycle.
    pub ground_state: GroundState,
    /// Relative density change per cycle, `‖ρ_out − ρ_in‖₁/‖ρ_in‖₁`:
    /// the density the cycle's solve produced against the density its
    /// potential was built from.
    pub density_residuals: Vec<f64>,
    /// Final mixed electron density (the input a further cycle would
    /// use); integrates to `2·occupied` electrons.
    pub density: Vec<f64>,
}

/// Runs density-mixing self-consistency. The bare-Hamiltonian ground
/// state gives the first input density `ρ_in`; each cycle then solves
/// the bands in `V_loc + V_H[ρ_in]`, rebuilds `ρ_out`, records
/// `‖ρ_out − ρ_in‖₁/‖ρ_in‖₁`, and mixes `ρ_in ← (1 − α)ρ_in + αρ_out`.
/// Every density in the loop carries the full electron count, and the
/// band solve runs `1 + cycles` times.
///
/// `cycles` outer iterations with mixing factor `alpha` (0 < α ≤ 1);
/// the lowest `occupied` bands carry occupation 2 (spin-paired).
///
/// # Errors
///
/// Propagates [`EigError`] from the inner solver.
///
/// # Panics
///
/// Panics if `occupied > opts.bands` or `alpha` is not in (0, 1].
pub fn run_scf_selfconsistent(
    system: &SiliconSystem,
    opts: &ScfOptions,
    occupied: usize,
    cycles: usize,
    alpha: f64,
) -> Result<SelfConsistentResult, EigError> {
    run_scf_selfconsistent_seeded(system, opts, occupied, cycles, alpha, None)
}

/// [`run_scf_selfconsistent`] with an optional warm start.
///
/// When `initial` is `Some`, it replaces the first bare-Hamiltonian
/// [`run_scf_in`] solve — the cycle loop starts directly from the given
/// ground state. Seeding with the ground state that `run_scf(system,
/// opts)` produces (same system, same options) is bit-identical to the
/// unseeded path, because that solve *is* the first step: the bare
/// Hamiltonian depends only on `(system, opts)`. This is what lets a
/// workflow inject a parent's converged ground state into a
/// self-consistent child without perturbing content-addressed caching.
///
/// # Errors
///
/// Propagates [`EigError`] from the inner solver.
///
/// # Panics
///
/// Panics if `occupied > opts.bands`, `alpha` is not in (0, 1], or the
/// seed's orbital matrix does not have `opts.bands` rows on the system
/// grid.
pub fn run_scf_selfconsistent_seeded(
    system: &SiliconSystem,
    opts: &ScfOptions,
    occupied: usize,
    cycles: usize,
    alpha: f64,
    initial: Option<GroundState>,
) -> Result<SelfConsistentResult, EigError> {
    assert!(
        occupied <= opts.bands,
        "cannot occupy more bands than solved"
    );
    assert!(
        alpha > 0.0 && alpha <= 1.0,
        "mixing factor must be in (0, 1]"
    );
    let nr = system.grid().len();
    let dv = system.volume() / nr as f64;
    let occupations: Vec<f64> = (0..opts.bands)
        .map(|b| if b < occupied { 2.0 } else { 0.0 })
        .collect();

    let mut h = KsHamiltonian::new(system, opts);
    // The Hamiltonian already holds this system's plan and |G|² table;
    // every cycle's solve and Poisson step reuses them.
    let order = lowest_g_indices(&h.g2, opts.bands);
    let bare_vloc = h.vloc.clone();
    let mut residuals = Vec::with_capacity(cycles);
    let mut gs = match initial {
        Some(seed) => {
            assert_eq!(
                seed.orbitals.rows(),
                opts.bands,
                "seed must carry one orbital per solved band"
            );
            assert_eq!(
                seed.orbitals.cols(),
                nr,
                "seed orbitals must live on the system grid"
            );
            seed
        }
        None => solve_bands(opts, &h, &order)?,
    };
    // The bare ground state's density is the first input density.
    let mut rho = charge_density(&gs.orbitals, &occupations, dv);
    for _cycle in 0..cycles {
        let vh = hartree_in(&h.plan, &h.g2, &rho);
        for ((v, b), htr) in h.vloc.iter_mut().zip(&bare_vloc).zip(&vh) {
            *v = *b + *htr;
        }
        gs = solve_bands(opts, &h, &order)?;
        let rho_out = charge_density(&gs.orbitals, &occupations, dv);
        let norm_in: f64 = rho.iter().map(|x| x.abs()).sum::<f64>().max(1e-30);
        let diff: f64 = rho.iter().zip(&rho_out).map(|(a, b)| (a - b).abs()).sum();
        residuals.push(diff / norm_in);
        for (r, o) in rho.iter_mut().zip(&rho_out) {
            *r = (1.0 - alpha) * *r + alpha * *o;
        }
    }
    Ok(SelfConsistentResult {
        ground_state: gs,
        density_residuals: residuals,
        density: rho,
    })
}

/// Solves for the lowest `opts.bands` Kohn–Sham states.
///
/// # Errors
///
/// Propagates [`EigError`] from the Rayleigh–Ritz diagonalization.
///
/// # Examples
///
/// ```no_run
/// use ndft_dft::{run_scf, ScfOptions, SiliconSystem};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sys = SiliconSystem::new(16)?;
/// let gs = run_scf(&sys, &ScfOptions { bands: 6, ..Default::default() })?;
/// assert_eq!(gs.energies_ev.len(), 6);
/// # Ok(())
/// # }
/// ```
pub fn run_scf(system: &SiliconSystem, opts: &ScfOptions) -> Result<GroundState, EigError> {
    let h = KsHamiltonian::new(system, opts);
    run_scf_in(system, opts, &h)
}

/// Runs `K` same-system SCF solves through the fused path: one shared
/// [`KsHamiltonian`] (whose construction — grid tables, local potential
/// and projector table — depends only on the geometry and the potential
/// shape, not on band counts) serves every member via [`run_scf_in`].
/// Each ground state is bit-identical to a solo [`run_scf`] call.
///
/// # Panics
///
/// Panics if members disagree on `potential_depth_ev`/`potential_sigma`
/// (then no single Hamiltonian could serve them bit-exactly).
///
/// # Errors
///
/// Propagates the first [`EigError`] any member hits.
pub fn run_scf_batch(
    system: &SiliconSystem,
    opts: &[ScfOptions],
) -> Result<Vec<GroundState>, EigError> {
    let Some(first) = opts.first() else {
        return Ok(Vec::new());
    };
    assert!(
        opts.iter().all(|o| {
            o.potential_depth_ev.to_bits() == first.potential_depth_ev.to_bits()
                && o.potential_sigma.to_bits() == first.potential_sigma.to_bits()
        }),
        "fused SCF batch members must share the potential shape"
    );
    let h = KsHamiltonian::new(system, first);
    opts.iter().map(|o| run_scf_in(system, o, &h)).collect()
}

/// [`run_scf`] against an explicit (possibly self-consistently updated)
/// Hamiltonian.
///
/// # Errors
///
/// Propagates [`EigError`] from the Rayleigh–Ritz diagonalization.
///
/// # Panics
///
/// Panics if `h` was built on a grid other than `system`'s.
pub fn run_scf_in(
    system: &SiliconSystem,
    opts: &ScfOptions,
    h: &KsHamiltonian,
) -> Result<GroundState, EigError> {
    assert_eq!(
        system.grid(),
        h.plan.dims(),
        "the Hamiltonian must be built on the system's grid"
    );
    solve_bands(opts, h, &lowest_g_indices(&h.g2, opts.bands))
}

/// The band solve behind [`run_scf_in`], started from the plane waves
/// `order[..opts.bands]` (the lowest-`|G|²` grid bins, ascending).
///
/// Works on plane-wave coefficients throughout (see the module docs) and
/// returns real-space orbitals.
fn solve_bands(
    opts: &ScfOptions,
    h: &KsHamiltonian,
    order: &[usize],
) -> Result<GroundState, EigError> {
    let nr = h.nr;
    let nb = opts.bands;

    // Initial guess: the lowest plane waves — unit vectors in G — and
    // their H-images.
    let mut psi: Vec<Vec<Complex64>> = order[..nb]
        .iter()
        .map(|&g| {
            let mut c = vec![Complex64::ZERO; nr];
            c[g] = Complex64::ONE;
            c
        })
        .collect();
    let mut hpsi: Vec<Vec<Complex64>> = psi.iter().map(|c| h.apply_g(c)).collect();

    let mut energies = vec![0.0f64; nb];
    let mut residuals = vec![f64::INFINITY; nb];
    let mut iterations = 0;

    for _iter in 0..opts.max_iterations {
        iterations += 1;
        // Rayleigh quotients + residuals from the carried H·ψ; the
        // preconditioned residuals are the new search directions. The
        // preconditioner is diagonal in G.
        let mut dirs = Vec::with_capacity(nb);
        for b in 0..nb {
            energies[b] = vecops::dot(&psi[b], &hpsi[b]).re;
            let mut r: Vec<Complex64> = hpsi[b]
                .iter()
                .zip(&psi[b])
                .map(|(hp, p)| *hp - p.scale(energies[b]))
                .collect();
            residuals[b] = vecops::norm(&r);
            for (z, &g2) in r.iter_mut().zip(&h.g2) {
                *z = z.scale(1.0 / (1.0 + HBAR2_OVER_2M * g2));
            }
            dirs.push(r);
        }
        // Trial space: ψ (already orthonormal) plus the surviving new
        // directions. H is applied to the new directions only.
        let dirs = orthonormalize_against(&psi, dirs);
        hpsi.extend(dirs.iter().map(|d| h.apply_g(d)));
        psi.extend(dirs);
        // Rayleigh–Ritz in the trial space.
        let m = psi.len();
        let hsub = CMat::from_fn(m, m, |i, j| vecops::dot(&psi[i], &hpsi[j]));
        let eig = heevd(&hsub)?;
        // Rotate the lowest nb Ritz vectors, and their H-images with the
        // same coefficients and normalization.
        let mut next = Vec::with_capacity(nb);
        let mut hnext = Vec::with_capacity(nb);
        for b in 0..nb {
            let mut v = vec![Complex64::ZERO; nr];
            let mut hv = vec![Complex64::ZERO; nr];
            for (j, (t, ht)) in psi.iter().zip(&hpsi).enumerate() {
                let c = eig.vectors[(j, b)];
                vecops::axpy(c, t, &mut v);
                vecops::axpy(c, ht, &mut hv);
            }
            // A unit coefficient vector over an orthonormal basis: the
            // norm is ≈ 1, never 0.
            let inv = 1.0 / vecops::normalize(&mut v);
            for z in hv.iter_mut() {
                *z = z.scale(inv);
            }
            next.push(v);
            hnext.push(hv);
        }
        psi = next;
        hpsi = hnext;
        if residuals.iter().all(|r| *r < opts.residual_tolerance) {
            break;
        }
    }

    // Final energies: Rayleigh quotients of the rotated pairs.
    for b in 0..nb {
        energies[b] = vecops::dot(&psi[b], &hpsi[b]).re;
    }
    // Sort ascending (Rayleigh-Ritz should already order them).
    let mut idx: Vec<usize> = (0..nb).collect();
    idx.sort_by(|&a, &b| {
        energies[a]
            .partial_cmp(&energies[b])
            .expect("finite energies")
    });
    let energies_sorted: Vec<f64> = idx.iter().map(|&i| energies[i]).collect();
    let residuals_sorted: Vec<f64> = idx.iter().map(|&i| residuals[i]).collect();
    // Back to real space, once per band: ψ = √N · F⁻¹c keeps the unit
    // grid norm.
    let sqrt_n = (nr as f64).sqrt();
    let mut flat = Vec::with_capacity(nb * nr);
    for &i in &idx {
        flat.extend_from_slice(&psi[i]);
    }
    for band in flat.chunks_exact_mut(nr) {
        h.plan.inverse(band);
        for z in band.iter_mut() {
            *z = z.scale(sqrt_n);
        }
    }
    Ok(GroundState {
        energies_ev: energies_sorted,
        orbitals: CMat::from_vec(nb, nr, flat),
        residuals: residuals_sorted,
        iterations,
    })
}

/// Orthonormalizes `dirs` against the orthonormal `basis` and against
/// each other by modified Gram–Schmidt. A direction whose remainder
/// falls below `1e-12` (the cut of [`vecops::mgs_orthonormalize`]) is
/// dropped; the survivors are returned in their original order.
fn orthonormalize_against(
    basis: &[Vec<Complex64>],
    dirs: Vec<Vec<Complex64>>,
) -> Vec<Vec<Complex64>> {
    let mut kept: Vec<Vec<Complex64>> = Vec::with_capacity(dirs.len());
    for mut d in dirs {
        for q in basis.iter().chain(&kept) {
            let proj = vecops::dot(q, &d);
            for (a, b) in d.iter_mut().zip(q) {
                *a -= *b * proj;
            }
        }
        if vecops::normalize(&mut d) > 1e-12 {
            kept.push(d);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{plane_wave, sorted_g_indices};
    use std::cell::Cell;

    thread_local! {
        /// Hamiltonian applications (real-space or plane-wave) made on
        /// this thread.
        pub(super) static APPLY_CALLS: Cell<usize> = const { Cell::new(0) };
    }

    fn small_opts(bands: usize, iters: usize) -> ScfOptions {
        ScfOptions {
            bands,
            max_iterations: iters,
            ..Default::default()
        }
    }

    #[test]
    fn rotated_h_psi_matches_recomputed() {
        // The solver never re-applies H to a Ritz vector: its energies
        // come from H·ψ rotated alongside ψ. They must match a fresh
        // application, and H must run once per new vector only.
        for atoms in [8, 16, 24] {
            let sys = SiliconSystem::new(atoms).unwrap();
            for bands in [2, 4] {
                for iters in [1, 2, 4] {
                    let opts = small_opts(bands, iters);
                    let h = KsHamiltonian::new(&sys, &opts);
                    let before = APPLY_CALLS.with(Cell::get);
                    let gs = run_scf_in(&sys, &opts, &h).unwrap();
                    let applies = APPLY_CALLS.with(Cell::get) - before;
                    let case = format!("Si_{atoms}, {bands} bands, cap {iters}");
                    assert_eq!(applies, bands * (gs.iterations + 1), "{case}");
                    for (b, &e) in gs.energies_ev.iter().enumerate() {
                        let fresh = h.expectation(gs.orbitals.row(b));
                        assert!(
                            (e - fresh).abs() <= 1e-10 * fresh.abs(),
                            "{case}, band {b}: rotated {e} vs recomputed {fresh}"
                        );
                    }
                    for i in 0..bands {
                        for j in 0..bands {
                            let d = vecops::dot(gs.orbitals.row(i), gs.orbitals.row(j));
                            let expect = if i == j { 1.0 } else { 0.0 };
                            assert!(
                                (d - Complex64::from_real(expect)).abs() < 1e-10,
                                "{case}, orthonormality ({i},{j}): {d:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Band energies of the `scf_sweep` ground-state shapes (atoms,
    /// bands, iteration cap) from the real-space solver the plane-wave
    /// solve replaced; every one of them ran to its cap.
    #[rustfmt::skip]
    const REAL_SPACE_ENERGIES: [(usize, usize, usize, &[f64]); 27] = [
        (8, 2, 2, &[-2.5831239759483995, 2.7337117573053082]),
        (8, 2, 3, &[-2.5831242335207523, 2.7333628149238103]),
        (8, 2, 4, &[-2.5831242342254135, 2.7333454332550047]),
        (8, 3, 2, &[-2.5831239759483973, 2.7337117573053225, 2.733711757305325]),
        (8, 3, 3, &[-2.5831242335207283, 2.733362814923779, 2.7333628149237903]),
        (8, 3, 4, &[-2.583124234225388, 2.7333454332549225, 2.7333454332549376]),
        (8, 4, 2, &[-2.5831239759484, 2.733711757305323, 2.733711757305327, 2.733711757305345]),
        (8, 4, 3, &[-2.583124233520729, 2.7333628149237836, 2.733362814923791, 2.7333628149237916]),
        (8, 4, 4, &[-2.583124234225383, 2.73334543325493, 2.733345433254941, 2.733345433254946]),
        (16, 2, 2, &[-2.583123975948429, -1.226275690144037]),
        (16, 2, 3, &[-2.583124233520735, -1.2262771753156367]),
        (16, 2, 4, &[-2.5831242342253433, -1.2262771820116405]),
        (16, 3, 2, &[-2.5831239759484057, -1.2262756901439447, -1.2262756901439167]),
        (16, 3, 3, &[-2.583124233520697, -1.2262771753156696, -1.226277175315654]),
        (16, 3, 4, &[-2.5831242342253367, -1.2262771820116256, -1.226277182011617]),
        (16, 4, 2, &[-2.5831239759484026, -1.2262756901439438, -1.2262756901439413, 2.7337117573052834]),
        (16, 4, 3, &[-2.583124233520683, -1.2262771753156638, -1.2262771753156638, 2.73336281492347]),
        (16, 4, 4, &[-2.5831242342253375, -1.2262771820116352, -1.2262771820116307, 2.733345433254918]),
        (24, 2, 2, &[-2.5831239759484474, -1.9776786262037553]),
        (24, 2, 3, &[-2.583124233520966, -1.9776791150394923]),
        (24, 2, 4, &[-2.583124234225377, -1.9776791163663252]),
        (24, 3, 2, &[-2.5831239759484395, -1.977678626203827, -1.9776786262038135]),
        (24, 3, 3, &[-2.5831242335210556, -1.9776791150393933, -1.9776791150393198]),
        (24, 3, 4, &[-2.5831242342252416, -1.97767911636642, -1.9776791163663652]),
        (24, 4, 2, &[-2.5831239759484887, -1.977678626203791, -1.9776786262037793, -0.1839682307449827]),
        (24, 4, 3, &[-2.5831242335209303, -1.977679115039348, -1.9776791150393285, -0.18397541980681598]),
        (24, 4, 4, &[-2.5831242342252674, -1.977679116366463, -1.9776791163664598, -0.18397549910969904]),
    ];

    #[test]
    fn plane_wave_solve_matches_real_space_energies() {
        for &(atoms, bands, iters, expect) in &REAL_SPACE_ENERGIES {
            let sys = SiliconSystem::new(atoms).unwrap();
            let gs = run_scf(&sys, &small_opts(bands, iters)).unwrap();
            let case = format!("Si_{atoms}, {bands} bands, cap {iters}");
            assert_eq!(gs.iterations, iters, "{case}");
            for (b, (&e, &x)) in gs.energies_ev.iter().zip(expect).enumerate() {
                assert!(
                    (e - x).abs() <= 1e-10 * x.abs(),
                    "{case}, band {b}: {e} vs {x}"
                );
            }
        }
    }

    #[test]
    fn plane_wave_apply_matches_real_space_apply() {
        // apply_g(c) ≡ F·apply(F⁻¹c) on seeded random coefficients.
        for (atoms, seed) in [(8, 0xc0ef_0008u64), (16, 0xc0ef_0016), (24, 0xc0ef_0024)] {
            let sys = SiliconSystem::new(atoms).unwrap();
            let h = KsHamiltonian::new(&sys, &ScfOptions::default());
            let c = random_unit(h.len(), seed);
            let fast = h.apply_g(&c);
            let mut psi = c.clone();
            h.plan.inverse(&mut psi);
            let mut slow = h.apply(&psi);
            h.plan.forward(&mut slow);
            let diff: Vec<Complex64> = fast.iter().zip(&slow).map(|(a, b)| *a - *b).collect();
            let rel = vecops::norm(&diff) / vecops::norm(&slow);
            assert!(rel <= 1e-12, "Si_{atoms}: relative difference {rel:e}");
        }
    }

    #[test]
    fn dependent_middle_direction_is_dropped_and_order_kept() {
        let e = |k: usize| {
            let mut v = vec![Complex64::ZERO; 4];
            v[k] = Complex64::ONE;
            v
        };
        let row = |xs: [f64; 4]| xs.map(Complex64::from_real).to_vec();
        // After projecting out e0, the middle direction is 3·e1: a
        // multiple of the first one's remainder e1.
        let dirs = vec![
            row([1.0, 1.0, 0.0, 0.0]),
            row([2.0, 3.0, 0.0, 0.0]),
            row([1.0, 1.0, 1.0, 0.0]),
        ];
        let kept = orthonormalize_against(&[e(0)], dirs);
        assert_eq!(kept, vec![e(1), e(2)]);
    }

    #[test]
    fn kinetic_only_reproduces_plane_wave_energies() {
        // With no potential, H is diagonal in G: E = (ħ²/2m)G².
        let sys = SiliconSystem::new(16).unwrap();
        let opts = ScfOptions {
            potential_depth_ev: 0.0,
            ..Default::default()
        };
        let mut h = KsHamiltonian::new(&sys, &opts);
        h.pseudos.spheres.clear(); // kinetic only
        let g2 = system_g2(&sys);
        let order = sorted_g_indices(&g2);
        let idx = order[3];
        let pw = plane_wave(sys.grid(), idx);
        let e = h.expectation(&pw);
        let expect = HBAR2_OVER_2M * g2[idx];
        assert!(
            (e - expect).abs() < 1e-8 * expect.max(1.0),
            "{e} vs {expect}"
        );
    }

    #[test]
    fn batch_scf_bit_identical_to_solo_runs() {
        // Members share geometry and potential shape but differ in band
        // count — the fused shared-Hamiltonian path must reproduce every
        // solo run bit for bit.
        let sys = SiliconSystem::new(8).unwrap();
        let opts: Vec<ScfOptions> = [2usize, 3, 4].iter().map(|&b| small_opts(b, 2)).collect();
        let fused = run_scf_batch(&sys, &opts).unwrap();
        for (o, gs) in opts.iter().zip(&fused) {
            let solo = run_scf(&sys, o).unwrap();
            assert_eq!(gs.iterations, solo.iterations);
            assert_eq!(gs.energies_ev.len(), solo.energies_ev.len());
            for (a, b) in gs.energies_ev.iter().zip(&solo.energies_ev) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in gs.orbitals.as_slice().iter().zip(solo.orbitals.as_slice()) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
        assert!(run_scf_batch(&sys, &[]).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "share the potential shape")]
    fn batch_scf_rejects_mixed_potentials() {
        let sys = SiliconSystem::new(8).unwrap();
        let mut odd = small_opts(2, 1);
        odd.potential_depth_ev += 1.0;
        let _ = run_scf_batch(&sys, &[small_opts(2, 1), odd]);
    }

    #[test]
    fn scf_energies_ascend_and_orbitals_orthonormal() {
        let sys = SiliconSystem::new(16).unwrap();
        let gs = run_scf(&sys, &small_opts(5, 4)).unwrap();
        assert_eq!(gs.energies_ev.len(), 5);
        for w in gs.energies_ev.windows(2) {
            assert!(w[0] <= w[1] + 1e-9, "ascending energies");
        }
        let nb = gs.orbitals.rows();
        for i in 0..nb {
            for j in 0..nb {
                let d = vecops::dot(gs.orbitals.row(i), gs.orbitals.row(j));
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (d - Complex64::from_real(expect)).abs() < 1e-8,
                    "orthonormality ({i},{j}): {d:?}"
                );
            }
        }
    }

    #[test]
    fn scf_lowers_energy_below_free_electrons() {
        // The attractive wells must pull the lowest band below the
        // kinetic-only value (0 for the Γ plane wave).
        let sys = SiliconSystem::new(16).unwrap();
        let gs = run_scf(&sys, &small_opts(3, 5)).unwrap();
        assert!(
            gs.energies_ev[0] < -0.1,
            "bound ground state expected, got {}",
            gs.energies_ev[0]
        );
    }

    #[test]
    fn residuals_shrink_with_more_iterations() {
        let sys = SiliconSystem::new(16).unwrap();
        let short = run_scf(&sys, &small_opts(4, 1)).unwrap();
        let long = run_scf(&sys, &small_opts(4, 6)).unwrap();
        assert!(
            long.max_residual() < short.max_residual(),
            "{} → {}",
            short.max_residual(),
            long.max_residual()
        );
    }

    #[test]
    fn density_integrates_to_electron_count() {
        let sys = SiliconSystem::new(16).unwrap();
        let gs = run_scf(&sys, &small_opts(4, 2)).unwrap();
        let nr = sys.grid().len();
        let dv = sys.volume() / nr as f64;
        let occ = vec![2.0, 2.0, 2.0, 2.0];
        let rho = charge_density(&gs.orbitals, &occ, dv);
        assert!(
            rho.iter().all(|&x| x >= 0.0),
            "density must be non-negative"
        );
        let electrons: f64 = rho.iter().sum::<f64>() * dv;
        assert!(
            (electrons - 8.0).abs() < 1e-6,
            "∫ρ = {electrons} (expected 8)"
        );
    }

    #[test]
    fn hartree_potential_of_uniform_density_vanishes() {
        // A constant ρ has only a G = 0 component, which the jellium
        // convention drops: V_H ≡ 0.
        let sys = SiliconSystem::new(16).unwrap();
        let rho = vec![0.05f64; sys.grid().len()];
        let vh = hartree_potential(&sys, &rho);
        let worst = vh.iter().map(|x| x.abs()).fold(0.0f64, f64::max);
        assert!(
            worst < 1e-10,
            "uniform density must give zero V_H, got {worst}"
        );
    }

    #[test]
    fn hartree_potential_is_positive_near_charge_lump() {
        // A localized electron lump produces a repulsive (positive)
        // potential at its center.
        let sys = SiliconSystem::new(16).unwrap();
        let grid = sys.grid();
        let mut rho = vec![0.0f64; grid.len()];
        let center = grid.index(10, 10, 20);
        rho[center] = 1.0;
        let vh = hartree_potential(&sys, &rho);
        assert!(vh[center] > 0.0, "V_H at the lump should be repulsive");
    }

    #[test]
    fn self_consistency_converges_density() {
        let sys = SiliconSystem::new(16).unwrap();
        let r = run_scf_selfconsistent(&sys, &small_opts(4, 2), 4, 3, 0.5).unwrap();
        assert_eq!(r.density_residuals.len(), 3);
        // Mixing starts from the bare ground state's density, so every
        // cycle's change is small and shrinks.
        assert!(
            r.density_residuals[0] < 0.5,
            "residuals {:?}",
            r.density_residuals
        );
        for w in r.density_residuals.windows(2) {
            assert!(w[1] < w[0], "residuals {:?}", r.density_residuals);
        }
        // Final state is still physical.
        for w in r.ground_state.energies_ev.windows(2) {
            assert!(w[0] <= w[1] + 1e-9);
        }
        assert!(r.density.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn self_consistent_density_carries_every_electron() {
        for (atoms, bands, occupied, cycles, alpha) in
            [(8, 2, 2, 2, 0.5), (8, 3, 2, 1, 0.3), (16, 4, 4, 3, 0.75)]
        {
            let sys = SiliconSystem::new(atoms).unwrap();
            let dv = sys.volume() / sys.grid().len() as f64;
            let r = run_scf_selfconsistent(&sys, &small_opts(bands, 2), occupied, cycles, alpha)
                .unwrap();
            let electrons: f64 = r.density.iter().sum::<f64>() * dv;
            let expect = 2.0 * occupied as f64;
            assert!(
                (electrons - expect).abs() < 1e-9 * expect,
                "Si_{atoms}, {cycles} cycles at α = {alpha}: ∫ρ = {electrons}, expected {expect}"
            );
        }
    }

    #[test]
    fn seeding_with_the_bare_solve_is_bit_identical() {
        // The warm-start contract: injecting the ground state that
        // `run_scf` produces for the same (system, opts) must reproduce
        // the unseeded self-consistent result exactly — same floats,
        // same residual history — because that solve IS the first step.
        let sys = SiliconSystem::new(16).unwrap();
        let opts = small_opts(4, 2);
        let cold = run_scf_selfconsistent(&sys, &opts, 4, 3, 0.5).unwrap();
        let seed = run_scf(&sys, &opts).unwrap();
        let warm = run_scf_selfconsistent_seeded(&sys, &opts, 4, 3, 0.5, Some(seed)).unwrap();
        assert_eq!(cold, warm);
    }

    #[test]
    #[should_panic(expected = "seed must carry one orbital per solved band")]
    fn seed_with_wrong_band_count_is_rejected() {
        let sys = SiliconSystem::new(16).unwrap();
        let seed = run_scf(&sys, &small_opts(3, 2)).unwrap();
        let _ = run_scf_selfconsistent_seeded(&sys, &small_opts(4, 2), 4, 2, 0.5, Some(seed));
    }

    /// A seeded random unit vector (xorshift64).
    fn random_unit(len: usize, mut s: u64) -> Vec<Complex64> {
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut v: Vec<Complex64> = (0..len).map(|_| Complex64::new(next(), next())).collect();
        vecops::normalize(&mut v);
        v
    }

    #[test]
    fn hamiltonian_is_hermitian_in_expectation() {
        // ⟨b|Ha⟩ == conj⟨a|Hb⟩ for seeded random vectors, which weight
        // every grid point, including those where projector spheres
        // of several atoms overlap.
        for (atoms, seed) in [(8, 0x5eed_0008u64), (16, 0x5eed_0016), (24, 0x5eed_0024)] {
            let sys = SiliconSystem::new(atoms).unwrap();
            let h = KsHamiltonian::new(&sys, &ScfOptions::default());
            let a = random_unit(h.len(), seed);
            let b = random_unit(h.len(), !seed);
            let lhs = vecops::dot(&b, &h.apply(&a));
            let rhs = vecops::dot(&a, &h.apply(&b)).conj();
            assert!(
                (lhs - rhs).abs() <= 1e-12 * lhs.abs(),
                "Si_{atoms}: {lhs:?} vs {rhs:?}"
            );
        }
    }
}
