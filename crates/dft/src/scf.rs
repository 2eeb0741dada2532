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
//! vectors that are new: the initial plane waves (unit vectors `e_g` in
//! `G`), then each iteration's surviving residual directions, all of an
//! iteration's directions as one block (one batched inverse FFT, one pass
//! of the potential over the block, one batched forward FFT). It keeps
//! `Hψ` beside every trial vector and rotates it with the same Ritz
//! coefficients and normalization as `ψ`, as LOBPCG/Davidson codes do;
//! residuals and band energies come from those carried pairs. The
//! orbitals return to real space once, at the end, in one batch.
//!
//! The solver also skips work whose result it already knows:
//!
//! - `F⁻¹e_g` is a plane wave, a product of one phase table per axis, so
//!   the start vectors' H-images need only the forward FFT.
//! - While `ψ` is still the unit start, `⟨e_g|x⟩` is the element `x[g]`:
//!   the Rayleigh quotients, the projection of the new directions `W` onto
//!   `ψ`, the `ψ` rows of `H_sub` and the `ψ` part of the Ritz rotation
//!   are element reads and writes at the start bins.
//! - After a Ritz rotation, `ψ†Hψ` is `diag(ε)` up to rounding, with `ε`
//!   the Rayleigh quotients the residual step computes anyway.
//! - `H_sub` is Hermitian: `W†Hψ` is computed once and its adjoint fills
//!   `ψ†HW`, and `W†HW` needs one triangle.
//! - The last update (at the iteration cap) rotates `ψ` only: its energies
//!   are the Ritz values, and no later step reads `Hψ`.
//!
//! Convergence is checked before the trial space is expanded: when every
//! residual is below tolerance the solve returns `ψ` as is, with the
//! residuals of the returned orbitals. Per solve of `nb` bands over `k`
//! updates, `H` is applied `nb·(k + 1)` times, and the solve runs
//! `nb·(2k + 2)` 3-D FFTs: one forward FFT per start vector, two per later
//! application, and one inverse FFT per band at the end. The
//! preconditioner costs none.

use crate::basis::{local_potential, lowest_g_indices, system_g2, HBAR2_OVER_2M};
use crate::pseudo::{add_nonlocal, build_pseudos, Pseudopotential};
use crate::system::SiliconSystem;
use ndft_numerics::{heevd, vecops, CMat, Complex64, EigError, Fft3Plan};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::f64::consts::TAU;

/// Converged (or best-effort) ground state.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundState {
    /// Band energies in eV, ascending.
    pub energies_ev: Vec<f64>,
    /// Orbitals, one per row, unit grid 2-norm.
    pub orbitals: CMat,
    /// Residual 2-norms `‖Hψ − εψ‖` per band. They belong to the
    /// returned orbitals when the solve converged (or ran no update);
    /// when it stopped at its iteration cap, they belong to the orbitals
    /// the last update started from, since the rotated ones are never
    /// applied `H` to again.
    pub residuals: Vec<f64>,
    /// Subspace updates (Rayleigh–Ritz rotations) performed.
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
        self.fft(&mut kin, false);
        for (z, &g2) in kin.iter_mut().zip(&self.g2) {
            *z = z.scale(HBAR2_OVER_2M * g2);
        }
        self.fft(&mut kin, true);
        self.add_potential(psi, &mut kin);
        kin
    }

    /// Rayleigh quotient `⟨ψ|H|ψ⟩` for a unit-norm orbital.
    pub fn expectation(&self, psi: &[Complex64]) -> f64 {
        let h = self.apply(psi);
        vecops::dot(psi, &h).re
    }

    /// `out = H·c` for every row of the plane-wave coefficient block `c`:
    /// one batched inverse FFT to real space, the potential step over the
    /// whole block, one batched forward FFT back, and the diagonal
    /// kinetic term. `phi` (the shape of `c`) is clobbered. The forward
    /// transform is unnormalized and the inverse carries `1/N`, so this is
    /// `H` in the unitary basis `c = Fψ/√N` without any further scaling.
    fn apply_block(&self, c: &[Complex64], phi: &mut [Complex64], out: &mut [Complex64]) {
        phi.copy_from_slice(c);
        self.fft(phi, true);
        self.potential_image(phi, out);
        for (o_row, c_row) in out.chunks_exact_mut(self.nr).zip(c.chunks_exact(self.nr)) {
            for ((o, z), &g2) in o_row.iter_mut().zip(c_row).zip(&self.g2) {
                *o += z.scale(HBAR2_OVER_2M * g2);
            }
        }
    }

    /// `out = F·(V_loc + V_nl)·phi` for every real-space row of `phi`: the
    /// potential half of `H` in the plane-wave basis.
    fn potential_image(&self, phi: &[Complex64], out: &mut [Complex64]) {
        out.fill(Complex64::ZERO);
        self.add_potential(phi, out);
        self.fft(out, false);
    }

    /// `out` row `b` = `H·e_g` for the unit coefficient vector at bin
    /// `g = bins[b]`. `F⁻¹e_g` is a plane wave, the product of one phase
    /// table per axis, so it is written into `phi` directly and only the
    /// forward FFT runs; the kinetic term lands on bin `g` alone.
    fn unit_images(&self, bins: &[usize], phi: &mut [Complex64], out: &mut [Complex64]) {
        let dims = self.plan.dims();
        for (row, &g) in phi.chunks_exact_mut(self.nr).zip(bins) {
            let (gx, gy, gz) = (
                g % dims.nx,
                (g / dims.nx) % dims.ny,
                g / (dims.nx * dims.ny),
            );
            let phases = |k: usize, n: usize| -> Vec<Complex64> {
                (0..n)
                    .map(|i| Complex64::cis(TAU * ((k * i) % n) as f64 / n as f64))
                    .collect()
            };
            let (tx, ty, tz) = (
                phases(gx, dims.nx),
                phases(gy, dims.ny),
                phases(gz, dims.nz),
            );
            let inv_n = 1.0 / self.nr as f64;
            let lines = tz
                .iter()
                .flat_map(|&z| ty.iter().map(move |&y| (z * y).scale(inv_n)));
            for (line, zy) in row.chunks_exact_mut(dims.nx).zip(lines) {
                for (v, &x) in line.iter_mut().zip(&tx) {
                    *v = zy * x;
                }
            }
        }
        self.potential_image(phi, out);
        for (row, &g) in out.chunks_exact_mut(self.nr).zip(bins) {
            row[g] += Complex64::from_real(HBAR2_OVER_2M * self.g2[g]);
        }
    }

    /// `out += (V_loc + V_nl)·φ` on the real-space grid, for every row of
    /// the block `phi`: the potential step both [`apply`](Self::apply) (a
    /// block of one) and the coefficient-space applies share.
    fn add_potential(&self, phi: &[Complex64], out: &mut [Complex64]) {
        #[cfg(test)]
        tests::APPLY_CALLS.with(|c| c.set(c.get() + phi.len() / self.nr));
        // Local potential, pointwise.
        for (o_row, p_row) in out.chunks_exact_mut(self.nr).zip(phi.chunks_exact(self.nr)) {
            for ((o, p), &v) in o_row.iter_mut().zip(p_row).zip(&self.vloc) {
                *o += p.scale(v);
            }
        }
        // Nonlocal: Σ_a V_a φ, every atom projecting the unmodified φ.
        add_nonlocal(phi, self.nr, &self.pseudos, self.dv, out);
    }

    /// Transforms every grid of `block` on this Hamiltonian's plan,
    /// forward or inverse; an empty block is left alone.
    fn fft(&self, block: &mut [Complex64], inverse: bool) {
        #[cfg(test)]
        tests::FFT_CALLS.with(|c| c.set(c.get() + block.len() / self.nr));
        if block.is_empty() {
            return;
        }
        if inverse {
            self.plan.inverse_batch(block);
        } else {
            self.plan.forward_batch(block);
        }
    }
}

/// Electron charge density `ρ(r) = Σ_b f_b |ψ_b(r)|²`, normalized so that
/// `Σ_r ρ(r)·dv` equals the electron count (`Σ f_b` for grid-unit-norm
/// orbitals scaled by `1/dv`).
///
/// # Panics
///
/// Panics if shapes disagree.
fn charge_density(orbitals: &CMat, occupations: &[f64], dv: f64) -> Vec<f64> {
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

/// Hartree potential from a charge density via the FFT Poisson solve,
/// on a prebuilt plan and `|G|²` table of the density's grid:
/// `V_H(G) = 4π e² ρ(G) / G²` (the G = 0 component is dropped — the
/// jellium convention for charged-neutral periodic cells). Units: eV
/// with ρ in e/Å³.
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
/// `seed`, when given, replaces that first bare-Hamiltonian solve: the
/// first input density is read from the borrowed ground state, which is
/// cloned only when `cycles` is 0 (it is then the result). Seeding with
/// the ground state that `run_scf(system, opts)` produces (same system,
/// same options) is bit-identical to the unseeded path, because that
/// solve *is* the first step: the bare Hamiltonian depends only on
/// `(system, opts)`. This is what lets a caller reuse a cached ground
/// state without perturbing content-addressed caching.
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
pub fn run_scf_selfconsistent(
    system: &SiliconSystem,
    opts: &ScfOptions,
    occupied: usize,
    cycles: usize,
    alpha: f64,
    seed: Option<&GroundState>,
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
    let mut gs = match seed {
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
            Cow::Borrowed(seed)
        }
        None => Cow::Owned(solve_bands(opts, &h, &order)?),
    };
    // The bare ground state's density is the first input density.
    let mut rho = charge_density(&gs.orbitals, &occupations, dv);
    for _cycle in 0..cycles {
        let vh = hartree_in(&h.plan, &h.g2, &rho);
        for ((v, b), htr) in h.vloc.iter_mut().zip(&bare_vloc).zip(&vh) {
            *v = *b + *htr;
        }
        gs = Cow::Owned(solve_bands(opts, &h, &order)?);
        let rho_out = charge_density(&gs.orbitals, &occupations, dv);
        let norm_in: f64 = rho.iter().map(|x| x.abs()).sum::<f64>().max(1e-30);
        let diff: f64 = rho.iter().zip(&rho_out).map(|(a, b)| (a - b).abs()).sum();
        residuals.push(diff / norm_in);
        for (r, o) in rho.iter_mut().zip(&rho_out) {
            *r = (1.0 - alpha) * *r + alpha * *o;
        }
    }
    Ok(SelfConsistentResult {
        ground_state: gs.into_owned(),
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

/// [`run_scf`] against an explicit (possibly self-consistently updated)
/// Hamiltonian. A [`KsHamiltonian`] depends only on the geometry and the
/// potential shape, not on the band count, so one instance can serve
/// several same-system solves, each bit-identical to its solo
/// [`run_scf`].
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
    let bins = &order[..nb];
    // Row blocks, allocated once per solve: the bands ψ and H·ψ, the new
    // directions W and H·W, and the two blocks the Ritz rotation writes
    // (the first also holds the real-space rows of every H application).
    let mut psi = CMat::zeros(nb, nr);
    let mut hpsi = CMat::zeros(nb, nr);
    let mut w = CMat::zeros(nb, nr);
    let mut hw = CMat::zeros(nb, nr);
    let mut next = CMat::zeros(nb, nr);
    let mut hnext = CMat::zeros(nb, nr);

    // Initial guess: the lowest plane waves — unit vectors e_g in G — and
    // their H-images. Until the first rotation ⟨e_g|x⟩ is the element
    // x[g], so every product with ψ is an element read.
    for (b, &g) in bins.iter().enumerate() {
        psi.row_mut(b)[g] = Complex64::ONE;
    }
    h.unit_images(bins, next.as_mut_slice(), hpsi.as_mut_slice());
    let mut unit_start = true;

    let mut energies = vec![0.0f64; nb];
    let mut residuals = vec![0.0f64; nb];
    let mut iterations = 0;
    loop {
        // Rayleigh quotients and residuals from the carried H·ψ; the
        // preconditioned residuals (the preconditioner is diagonal in G)
        // are the new search directions.
        for b in 0..nb {
            let (p, hp) = (psi.row(b), hpsi.row(b));
            let e = if unit_start {
                hp[bins[b]].re
            } else {
                vecops::dot(p, hp).re
            };
            let mut norm_sqr = 0.0;
            for (((d, hz), z), &g2) in w.row_mut(b).iter_mut().zip(hp).zip(p).zip(&h.g2) {
                let r = *hz - z.scale(e);
                norm_sqr += r.norm_sqr();
                *d = r.scale(1.0 / (1.0 + HBAR2_OVER_2M * g2));
            }
            energies[b] = e;
            residuals[b] = norm_sqr.sqrt();
        }
        // Converged (or a cap of 0): ψ is returned as is, with the
        // residuals just computed. A positive cap ends at the last update
        // below instead.
        if residuals.iter().all(|r| *r < opts.residual_tolerance)
            || iterations == opts.max_iterations
        {
            break;
        }
        // Trial space: ψ (already orthonormal) plus the surviving new
        // directions. Projecting e_g out of a direction zeroes its bin g.
        if unit_start {
            for d in w.as_mut_slice().chunks_exact_mut(nr) {
                for &g in bins {
                    d[g] = Complex64::ZERO;
                }
            }
        }
        let basis = if unit_start { &[][..] } else { psi.as_slice() };
        let nw = orthonormalize_against(basis, w.as_mut_slice(), nr);
        // H is applied to the new directions only, as one block.
        h.apply_block(
            &w.as_slice()[..nw * nr],
            &mut next.as_mut_slice()[..nw * nr],
            &mut hw.as_mut_slice()[..nw * nr],
        );
        // Rayleigh–Ritz in the trial space, computing only the entries of
        // the Hermitian H_sub that are not already known: after a Ritz
        // rotation ψ†Hψ is diag(ε); W†Hψ gives both off-diagonal blocks;
        // W†HW needs one triangle.
        let m = nb + nw;
        let mut hsub = CMat::zeros(m, m);
        for i in 0..nb {
            for j in 0..nb {
                hsub[(i, j)] = if unit_start {
                    hpsi.row(j)[bins[i]]
                } else if i == j {
                    Complex64::from_real(energies[i])
                } else {
                    Complex64::ZERO
                };
            }
        }
        for i in 0..nw {
            for j in 0..nb {
                let x = if unit_start {
                    hw.row(i)[bins[j]].conj()
                } else {
                    vecops::dot(w.row(i), hpsi.row(j))
                };
                hsub[(nb + i, j)] = x;
                hsub[(j, nb + i)] = x.conj();
            }
            for j in i..nw {
                let x = vecops::dot(w.row(i), hw.row(j));
                hsub[(nb + j, nb + i)] = x.conj();
                hsub[(nb + i, nb + j)] = x;
            }
        }
        let eig = heevd(&hsub)?;
        iterations += 1;
        // Rotate the lowest nb Ritz vectors, and their H-images with the
        // same coefficients and normalization. The last update needs no
        // H-images: its energies are the Ritz values.
        let last = iterations == opts.max_iterations;
        for b in 0..nb {
            let c = |j: usize| eig.vectors[(j, b)];
            let v = next.row_mut(b);
            v.fill(Complex64::ZERO);
            if unit_start {
                for (j, &g) in bins.iter().enumerate() {
                    v[g] = c(j);
                }
            } else {
                for j in 0..nb {
                    vecops::axpy(c(j), psi.row(j), v);
                }
            }
            for j in 0..nw {
                vecops::axpy(c(nb + j), w.row(j), v);
            }
            // A unit coefficient vector over an orthonormal basis: the
            // norm is ≈ 1, never 0.
            let inv = 1.0 / vecops::normalize(v);
            if !last {
                let hv = hnext.row_mut(b);
                hv.fill(Complex64::ZERO);
                for j in 0..nb {
                    vecops::axpy(c(j), hpsi.row(j), hv);
                }
                for j in 0..nw {
                    vecops::axpy(c(nb + j), hw.row(j), hv);
                }
                for z in hv.iter_mut() {
                    *z = z.scale(inv);
                }
            }
        }
        std::mem::swap(&mut psi, &mut next);
        std::mem::swap(&mut hpsi, &mut hnext);
        unit_start = false;
        if last {
            energies.copy_from_slice(&eig.values[..nb]);
            break;
        }
    }

    // Sort ascending (Rayleigh–Ritz should already order them).
    let mut idx: Vec<usize> = (0..nb).collect();
    idx.sort_by(|&a, &b| {
        energies[a]
            .partial_cmp(&energies[b])
            .expect("finite energies")
    });
    // Back to real space in one batch: ψ = √N · F⁻¹c keeps the unit grid
    // norm.
    let mut orbitals = w;
    for (k, &i) in idx.iter().enumerate() {
        orbitals.row_mut(k).copy_from_slice(psi.row(i));
    }
    h.fft(orbitals.as_mut_slice(), true);
    let sqrt_n = (nr as f64).sqrt();
    for z in orbitals.as_mut_slice() {
        *z = z.scale(sqrt_n);
    }
    Ok(GroundState {
        energies_ev: idx.iter().map(|&i| energies[i]).collect(),
        orbitals,
        residuals: idx.iter().map(|&i| residuals[i]).collect(),
        iterations,
    })
}

/// Orthonormalizes the rows of `dirs` (each `len` long) against the
/// orthonormal rows of `basis` and against each other by modified
/// Gram–Schmidt, in place. A direction whose remainder falls below
/// `1e-12` (the cut of [`vecops::mgs_orthonormalize`]) is dropped; the
/// survivors are packed to the front in their original order, and their
/// count is returned.
fn orthonormalize_against(basis: &[Complex64], dirs: &mut [Complex64], len: usize) -> usize {
    let mut kept = 0;
    for b in 0..dirs.len() / len {
        if b != kept {
            dirs.copy_within(b * len..(b + 1) * len, kept * len);
        }
        let (done, rest) = dirs.split_at_mut(kept * len);
        let d = &mut rest[..len];
        for q in basis.chunks_exact(len).chain(done.chunks_exact(len)) {
            let proj = vecops::dot(q, d);
            for (a, b) in d.iter_mut().zip(q) {
                *a -= *b * proj;
            }
        }
        if vecops::normalize(d) > 1e-12 {
            kept += 1;
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
        /// 3-D FFTs (one grid each) run through a Hamiltonian's plan on
        /// this thread.
        pub(super) static FFT_CALLS: Cell<usize> = const { Cell::new(0) };
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
        // application, and H must run once per new vector only: per
        // update, an inverse and a forward FFT of each new direction; at
        // the start, one forward FFT per plane wave; at the end, one
        // inverse FFT per band.
        for atoms in [8, 16, 24] {
            let sys = SiliconSystem::new(atoms).unwrap();
            for bands in [2, 3, 4] {
                for iters in [1, 2, 3, 4] {
                    let opts = small_opts(bands, iters);
                    let h = KsHamiltonian::new(&sys, &opts);
                    let (applies, ffts) = (APPLY_CALLS.with(Cell::get), FFT_CALLS.with(Cell::get));
                    let gs = run_scf_in(&sys, &opts, &h).unwrap();
                    let applies = APPLY_CALLS.with(Cell::get) - applies;
                    let ffts = FFT_CALLS.with(Cell::get) - ffts;
                    let case = format!("Si_{atoms}, {bands} bands, cap {iters}");
                    let k = gs.iterations;
                    assert_eq!(applies, bands * (k + 1), "{case}");
                    assert_eq!(ffts, bands * (2 * k + 2), "{case}");
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

    #[test]
    fn converged_solve_returns_without_expanding() {
        // Si_8 with 4 bands meets the tolerance after 6 updates: the
        // solve stops there, with no H applications beyond the ones that
        // produced those orbitals, and reports their own residuals.
        let sys = SiliconSystem::new(8).unwrap();
        let opts = small_opts(4, 12);
        let h = KsHamiltonian::new(&sys, &opts);
        let (applies, ffts) = (APPLY_CALLS.with(Cell::get), FFT_CALLS.with(Cell::get));
        let gs = run_scf_in(&sys, &opts, &h).unwrap();
        assert_eq!(gs.iterations, 6);
        assert_eq!(APPLY_CALLS.with(Cell::get) - applies, 4 * 7);
        assert_eq!(FFT_CALLS.with(Cell::get) - ffts, 4 * 14);
        assert!(gs.max_residual() < opts.residual_tolerance);
        for (b, (&e, &res)) in gs.energies_ev.iter().zip(&gs.residuals).enumerate() {
            let psi = gs.orbitals.row(b);
            let r: Vec<Complex64> = h
                .apply(psi)
                .iter()
                .zip(psi)
                .map(|(hp, p)| *hp - p.scale(e))
                .collect();
            let fresh = vecops::norm(&r);
            assert!(
                (res - fresh).abs() <= 1e-12,
                "band {b}: reported {res:e}, recomputed {fresh:e}"
            );
        }
    }

    /// Band energies of the `scf_sweep` ground-state shapes (atoms,
    /// bands, iteration cap) from the real-space solver the plane-wave
    /// solve replaced; every one of them ran to its cap. That solver
    /// checked convergence only after updating, so four shapes (Si_16 and
    /// Si_24 with 2 or 3 bands, cap 4) ran their 4th update on orbitals
    /// that had already converged after the 3rd.
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
        // A solve that converges before its cap returns the orbitals of
        // its last update: the real-space solve capped at that count.
        let mut converged_early = 0;
        for &(atoms, bands, iters, _) in &REAL_SPACE_ENERGIES {
            let sys = SiliconSystem::new(atoms).unwrap();
            let opts = small_opts(bands, iters);
            let gs = run_scf(&sys, &opts).unwrap();
            let case = format!("Si_{atoms}, {bands} bands, cap {iters}");
            if gs.iterations < iters {
                assert!(gs.max_residual() < opts.residual_tolerance, "{case}");
                converged_early += 1;
            } else {
                assert_eq!(gs.iterations, iters, "{case}");
            }
            let (.., expect) = REAL_SPACE_ENERGIES
                .iter()
                .find(|r| (r.0, r.1, r.2) == (atoms, bands, gs.iterations))
                .unwrap_or_else(|| panic!("{case}: no pin for {} iterations", gs.iterations));
            for (b, (&e, &x)) in gs.energies_ev.iter().zip(*expect).enumerate() {
                assert!(
                    (e - x).abs() <= 1e-10 * x.abs(),
                    "{case}, band {b}: {e} vs {x}"
                );
            }
        }
        assert_eq!(converged_early, 4);
    }

    /// `(atoms, bands, energies, density_residuals)` of the perfbench
    /// `scf_sweep` self-consistent shapes (2 iterations, every band
    /// occupied, 2 cycles at α = 0.5), recorded from the solver that
    /// applied H to every unit start vector and filled `H_sub` with full
    /// grid dot products.
    #[rustfmt::skip]
    const SELF_CONSISTENT_PIN: [(usize, usize, &[f64], &[f64]); 5] = [
        (8, 2, &[-2.5516253217208615, 2.790578189263899], &[0.0340404391952761, 0.013844173364887554]),
        (8, 3, &[-2.537436747678707, 2.8164649129996904, 2.8164649129996913], &[0.060467710373029865, 0.020960649371869814]),
        (16, 2, &[-2.5692602089425747, -1.210431538446786], &[0.010819242422016614, 0.005005478908469113]),
        (16, 3, &[-2.5627030803800683, -1.2029274796761755, -1.202927479676143], &[0.016903868410140667, 0.007485444150299357]),
        (24, 2, &[-2.5739866114958643, -1.9679863035107599], &[0.006719826383875547, 0.0031980768282900357]),
    ];

    #[test]
    fn self_consistent_sweep_shapes_match_pinned_values() {
        for &(atoms, bands, energies, density_residuals) in &SELF_CONSISTENT_PIN {
            let sys = SiliconSystem::new(atoms).unwrap();
            let r =
                run_scf_selfconsistent(&sys, &small_opts(bands, 2), bands, 2, 0.5, None).unwrap();
            let case = format!("Si_{atoms}, {bands} bands");
            for (got, expect) in [
                (&r.ground_state.energies_ev, energies),
                (&r.density_residuals, density_residuals),
            ] {
                assert_eq!(got.len(), expect.len(), "{case}");
                for (&g, &x) in got.iter().zip(expect) {
                    assert!((g - x).abs() <= 1e-10 * x.abs(), "{case}: {g} vs {x}");
                }
            }
        }
    }

    #[test]
    fn plane_wave_apply_matches_real_space_apply() {
        // apply_block(c) ≡ F·apply(F⁻¹c) on seeded random coefficients.
        for (atoms, seed) in [(8, 0xc0ef_0008u64), (16, 0xc0ef_0016), (24, 0xc0ef_0024)] {
            let sys = SiliconSystem::new(atoms).unwrap();
            let h = KsHamiltonian::new(&sys, &ScfOptions::default());
            let c = random_unit(h.len(), seed);
            let mut phi = vec![Complex64::ZERO; h.len()];
            let mut fast = vec![Complex64::ZERO; h.len()];
            h.apply_block(&c, &mut phi, &mut fast);
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
    fn unit_images_match_applied_unit_vectors() {
        // The plane-wave start never transforms e_g: its real-space form
        // comes from three per-axis phase tables. The bins cover the
        // lowest shells and negative frequencies on every axis.
        for atoms in [8, 16, 24] {
            let sys = SiliconSystem::new(atoms).unwrap();
            let h = KsHamiltonian::new(&sys, &ScfOptions::default());
            let nr = h.len();
            let mut bins = lowest_g_indices(&h.g2, 6);
            bins.push(nr - 1);
            bins.push(nr / 2 + 3);
            let mut phi = vec![Complex64::ZERO; bins.len() * nr];
            let mut images = vec![Complex64::ZERO; bins.len() * nr];
            h.unit_images(&bins, &mut phi, &mut images);
            for (image, &g) in images.chunks_exact(nr).zip(&bins) {
                let mut e = vec![Complex64::ZERO; nr];
                e[g] = Complex64::ONE;
                let mut applied = vec![Complex64::ZERO; nr];
                h.apply_block(&e, &mut phi[..nr], &mut applied);
                let diff: Vec<Complex64> =
                    image.iter().zip(&applied).map(|(a, b)| *a - *b).collect();
                let rel = vecops::norm(&diff) / vecops::norm(&applied);
                assert!(
                    rel <= 1e-12,
                    "Si_{atoms}, bin {g}: relative difference {rel:e}"
                );
            }
        }
    }

    #[test]
    fn block_apply_matches_per_row_apply_bitwise() {
        for (atoms, seed) in [(8, 0xb10c_0008u64), (16, 0xb10c_0016), (24, 0xb10c_0024)] {
            let sys = SiliconSystem::new(atoms).unwrap();
            let h = KsHamiltonian::new(&sys, &ScfOptions::default());
            let nr = h.len();
            for k in 1..=4 {
                let c: Vec<Complex64> = (0..k)
                    .flat_map(|r| random_unit(nr, seed + r as u64))
                    .collect();
                let mut phi = vec![Complex64::ZERO; k * nr];
                let mut block = vec![Complex64::ZERO; k * nr];
                h.apply_block(&c, &mut phi, &mut block);
                for (r, (row, got)) in c.chunks_exact(nr).zip(block.chunks_exact(nr)).enumerate() {
                    let mut expect = vec![Complex64::ZERO; nr];
                    h.apply_block(row, &mut phi[..nr], &mut expect);
                    assert!(
                        got.iter()
                            .zip(&expect)
                            .all(|(a, b)| a.re.to_bits() == b.re.to_bits()
                                && a.im.to_bits() == b.im.to_bits()),
                        "Si_{atoms}, block of {k}, row {r}"
                    );
                }
            }
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
        let mut dirs = [
            row([1.0, 1.0, 0.0, 0.0]),
            row([2.0, 3.0, 0.0, 0.0]),
            row([1.0, 1.0, 1.0, 0.0]),
        ]
        .concat();
        let kept = orthonormalize_against(&e(0), &mut dirs, 4);
        assert_eq!(kept, 2);
        assert_eq!(dirs[..8], [e(1), e(2)].concat());
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
        let shared = KsHamiltonian::new(&sys, &opts[0]);
        for o in &opts {
            let gs = run_scf_in(&sys, o, &shared).unwrap();
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
        let vh = hartree_in(&Fft3Plan::new(sys.grid()), &system_g2(&sys), &rho);
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
        let vh = hartree_in(&Fft3Plan::new(sys.grid()), &system_g2(&sys), &rho);
        assert!(vh[center] > 0.0, "V_H at the lump should be repulsive");
    }

    #[test]
    fn self_consistency_converges_density() {
        let sys = SiliconSystem::new(16).unwrap();
        let r = run_scf_selfconsistent(&sys, &small_opts(4, 2), 4, 3, 0.5, None).unwrap();
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
            let r =
                run_scf_selfconsistent(&sys, &small_opts(bands, 2), occupied, cycles, alpha, None)
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
        let cold = run_scf_selfconsistent(&sys, &opts, 4, 3, 0.5, None).unwrap();
        let seed = run_scf(&sys, &opts).unwrap();
        let warm = run_scf_selfconsistent(&sys, &opts, 4, 3, 0.5, Some(&seed)).unwrap();
        assert_eq!(cold, warm);
        // With no cycles the borrowed seed is the result.
        let warm = run_scf_selfconsistent(&sys, &opts, 4, 0, 0.5, Some(&seed)).unwrap();
        assert_eq!(warm.ground_state, seed);
    }

    #[test]
    #[should_panic(expected = "seed must carry one orbital per solved band")]
    fn seed_with_wrong_band_count_is_rejected() {
        let sys = SiliconSystem::new(16).unwrap();
        let seed = run_scf(&sys, &small_opts(3, 2)).unwrap();
        let _ = run_scf_selfconsistent(&sys, &small_opts(4, 2), 4, 2, 0.5, Some(&seed));
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
