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
//! The solve runs at Γ, where `H` is real: `V_loc` and the projectors are
//! real grid functions and `|G|²` is even in `G`. So every band is kept
//! real in real space, i.e. its coefficients satisfy `c(−G) = c(G)*`, as
//! in the `gamma_only` path of plane-wave codes:
//!
//! - The start vectors are real: the unit vector at `G = 0`, then the cos
//!   and sin combinations of each ±G pair by ascending `|G|²`, and the cos
//!   half of the first pair the band count cuts.
//! - Inner products of such vectors are real, so the Gram–Schmidt
//!   projections, `H_sub` (real symmetric, solved by `syevd`) and the Ritz
//!   rotations all use real coefficients, which keep `c(−G) = c(G)*` exact.
//! - Every application of `H` packs two real bands into one complex grid,
//!   `ψ_a + iψ_b`: one inverse FFT, one pass of the real potential (the
//!   projections onto the real `β` carry both bands at once), one forward
//!   FFT, and `X(G) ± X(−G)*` splits the image into `Hψ_a` and `Hψ_b`.
//!   An odd last band rides alone.
//!
//! Every Hamiltonian application streams whole grids through the FFT and
//! the projector gather/scatter, so the solver applies `H` only to
//! vectors that are new: the start vectors, then each iteration's
//! surviving residual directions, all of an iteration's directions as one
//! block (one batched inverse FFT, one pass of the potential over the
//! block, one batched forward FFT). It keeps `Hψ` beside every trial
//! vector and rotates it with the same Ritz coefficients and normalization
//! as `ψ`, as LOBPCG/Davidson codes do; residuals and band energies come
//! from those carried pairs. The orbitals return to real space once, at
//! the end, in one batch, two to a grid.
//!
//! The solver also skips work whose result it already knows:
//!
//! - A start vector is a plane wave or the real or imaginary part of one
//!   (times `√2`), a product of one phase table per axis, so the start
//!   vectors' H-images need only the forward FFT.
//! - While `ψ` is still the start, the product of a start vector with a
//!   vector `x` reads the element `x[g]` of its bin: the Rayleigh
//!   quotients, the projection of the new directions `W` onto `ψ`, the `ψ`
//!   rows of `H_sub` and the `ψ` part of the Ritz rotation are element
//!   reads and writes at the start bins.
//! - After a Ritz rotation, `ψᵀHψ` is `diag(ε)` up to rounding, with `ε`
//!   the Rayleigh quotients the residual step computes anyway.
//! - `H_sub` is symmetric: `WᵀHψ` is computed once and fills `ψᵀHW` too,
//!   and `WᵀHW` needs one triangle.
//! - The last update (at the iteration cap) rotates `ψ` only: its energies
//!   are the Ritz values, and no later step reads `Hψ`.
//!
//! Convergence is checked before the trial space is expanded: when every
//! residual is below tolerance the solve returns `ψ` as is, with the
//! residuals of the returned orbitals. Per solve of `nb` bands over `k`
//! updates that keep every new direction, with `p = ⌈nb/2⌉` packed grids
//! per block, the potential is applied to `p·(k + 1)` grids and the solve
//! runs `p·(2k + 2)` 3-D FFTs: one forward FFT per packed start pair, two
//! per later packed pair, and one inverse FFT per pair of bands at the
//! end. The preconditioner costs none.

use crate::basis::{local_potential, lowest_g_indices, minus_g_bins, system_g2, HBAR2_OVER_2M};
use crate::pseudo::{add_nonlocal, build_pseudos, Pseudopotential};
use crate::system::SiliconSystem;
use ndft_numerics::{syevd, vecops, CMat, Complex64, EigError, Fft3Plan, Mat};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::f64::consts::{FRAC_1_SQRT_2, SQRT_2, TAU};

/// Converged (or best-effort) ground state.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundState {
    /// Band energies in eV, ascending.
    pub energies_ev: Vec<f64>,
    /// Orbitals, one per row, unit grid 2-norm. They are real (every
    /// imaginary part is zero): the solve runs at Γ, where `H` is real.
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
    /// The bin of `−G` for every bin `G`.
    neg: Vec<usize>,
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
            neg: minus_g_bins(grid),
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

    /// `out = H·c` for every row of the plane-wave coefficient block `c`,
    /// each row a real band (`c(−G) = c(G)*`): the rows are packed two to a
    /// grid into `phi` (at least `⌈rows/2⌉` grids, clobbered), taken to
    /// real space by one batched inverse FFT, through the potential step
    /// and back by one batched forward FFT, split, and given the diagonal
    /// kinetic term. The forward transform is unnormalized and the inverse
    /// carries `1/N`, so this is `H` in the unitary basis `c = Fψ/√N`
    /// without any further scaling.
    fn apply_block(&self, c: &[Complex64], phi: &mut [Complex64], out: &mut [Complex64]) {
        let nr = self.nr;
        let phi = &mut phi[..(c.len() / nr).div_ceil(2) * nr];
        for (grid, pair) in phi.chunks_exact_mut(nr).zip(c.chunks(2 * nr)) {
            let (a, b) = pair.split_at(nr);
            pack(grid, a, (!b.is_empty()).then_some(b));
        }
        self.fft(phi, true);
        self.potential_image(phi, &mut out[..phi.len()]);
        self.split_images(out);
        for (o_row, c_row) in out.chunks_exact_mut(nr).zip(c.chunks_exact(nr)) {
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

    /// Splits the packed images in the first `⌈rows/2⌉` grids of `block`
    /// into one image per row. Grid `k` holds `X = A + iB`, with `A` and `B`
    /// the transforms of real functions, and `A(G) = (X(G) + X(−G)*)/2` and
    /// `B(G) = (X(G) − X(−G)*)/2i` land in rows `2k` and `2k + 1` (an odd
    /// last row keeps `A` alone). Both satisfy `c(−G) = c(G)*` exactly.
    fn split_images(&self, block: &mut [Complex64]) {
        let nr = self.nr;
        let rows = block.len() / nr;
        for k in (0..rows.div_ceil(2)).rev() {
            if k > 0 {
                block.copy_within(k * nr..(k + 1) * nr, 2 * k * nr);
            }
            let (a, rest) = block[2 * k * nr..].split_at_mut(nr);
            let mut b = rest.get_mut(..nr);
            for (g, &m) in self.neg.iter().enumerate() {
                if m < g {
                    continue;
                }
                let (x, y) = (a[g], a[m]);
                let half = Complex64::new(0.5 * (x.re + y.re), 0.5 * (x.im - y.im));
                a[m] = half.conj();
                a[g] = half;
                if let Some(b) = b.as_deref_mut() {
                    let half = Complex64::new(0.5 * (x.im + y.im), 0.5 * (y.re - x.re));
                    b[m] = half.conj();
                    b[g] = half;
                }
            }
        }
    }

    /// `out` row `b` = `H·s` for the start vector `s = starts[b]`. A start
    /// vector's real-space form is a plane wave or its real or imaginary
    /// part, a product of one phase table per axis, so the packed grids are
    /// written into `phi` directly and only the forward FFT runs; the
    /// kinetic term lands on the start bins alone. A cos and sin pair
    /// packs to `√2` times the plane wave of its bin.
    fn unit_images(&self, starts: &[Start], phi: &mut [Complex64], out: &mut [Complex64]) {
        let nr = self.nr;
        let phi = &mut phi[..starts.len().div_ceil(2) * nr];
        for (grid, pair) in phi.chunks_exact_mut(nr).zip(starts.chunks(2)) {
            grid.fill(Complex64::ZERO);
            for (part, &s) in pair.iter().enumerate() {
                self.write_start(s, grid, part == 1);
            }
        }
        self.potential_image(phi, &mut out[..phi.len()]);
        self.split_images(out);
        for (row, s) in out.chunks_exact_mut(nr).zip(starts) {
            s.add_to(row, HBAR2_OVER_2M * self.g2[s.bin()]);
        }
    }

    /// Writes `F⁻¹s` for one start vector `s` into the real part of the
    /// real-space grid `out`, or into its imaginary part with `imag`: the
    /// real part of the plane wave `F⁻¹e_g` for a bin that is its own `−G`,
    /// `√2` times its real or imaginary part for a cos or sin vector.
    fn write_start(&self, s: Start, out: &mut [Complex64], imag: bool) {
        let dims = self.plan.dims();
        let g = s.bin();
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
        let scale = match s {
            Start::Unit(_) => 1.0,
            Start::Cos(..) | Start::Sin(..) => SQRT_2,
        } / self.nr as f64;
        let lines = tz
            .iter()
            .flat_map(|&z| ty.iter().map(move |&y| (z * y).scale(scale)));
        for (line, zy) in out.chunks_exact_mut(dims.nx).zip(lines) {
            for (v, &x) in line.iter_mut().zip(&tx) {
                let wave = zy * x;
                let value = match s {
                    Start::Sin(..) => wave.im,
                    Start::Unit(_) | Start::Cos(..) => wave.re,
                };
                if imag {
                    v.im = value;
                } else {
                    v.re = value;
                }
            }
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
    // every cycle's solve and Poisson step reuses them, and every solve
    // the start vectors and row blocks built here.
    let starts = start_vectors(&h, opts.bands);
    let mut blocks = BandBlocks::new(opts.bands, nr);
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
        None => Cow::Owned(solve_bands(opts, &h, &starts, &mut blocks)?),
    };
    // The bare ground state's density is the first input density.
    let mut rho = charge_density(&gs.orbitals, &occupations, dv);
    for _cycle in 0..cycles {
        let vh = hartree_in(&h.plan, &h.g2, &rho);
        for ((v, b), htr) in h.vloc.iter_mut().zip(&bare_vloc).zip(&vh) {
            *v = *b + *htr;
        }
        gs = Cow::Owned(solve_bands(opts, &h, &starts, &mut blocks)?);
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
    let starts = start_vectors(h, opts.bands);
    solve_bands(opts, h, &starts, &mut BandBlocks::new(opts.bands, h.nr))
}

/// A real start vector of the band solve, in the unitary plane-wave
/// basis. With `m` the bin of `−G`:
#[derive(Debug, Clone, Copy, PartialEq)]
enum Start {
    /// `e_g` at a bin that is its own `−G` (`G = 0` or a Nyquist bin).
    Unit(usize),
    /// `(e_g + e_m)/√2`: `√2·cos(G·r)` in real space.
    Cos(usize, usize),
    /// `−i(e_g − e_m)/√2`: `√2·sin(G·r)` in real space.
    Sin(usize, usize),
}

impl Start {
    /// The bin `g` the vector is built on.
    fn bin(self) -> usize {
        match self {
            Start::Unit(g) | Start::Cos(g, _) | Start::Sin(g, _) => g,
        }
    }

    /// `⟨s|x⟩` for a vector with `x(−G) = x(G)*`: one element read.
    fn dot(self, x: &[Complex64]) -> f64 {
        match self {
            Start::Unit(g) => x[g].re,
            Start::Cos(g, _) => SQRT_2 * x[g].re,
            Start::Sin(g, _) => -SQRT_2 * x[g].im,
        }
    }

    /// `x ← x + a·s`.
    fn add_to(self, x: &mut [Complex64], a: f64) {
        match self {
            Start::Unit(g) => x[g].re += a,
            Start::Cos(g, m) => {
                x[g].re += a * FRAC_1_SQRT_2;
                x[m].re += a * FRAC_1_SQRT_2;
            }
            Start::Sin(g, m) => {
                x[g].im -= a * FRAC_1_SQRT_2;
                x[m].im += a * FRAC_1_SQRT_2;
            }
        }
    }

    /// `x ← x − ⟨s|x⟩·s` for a vector with `x(−G) = x(G)*`, exactly: the
    /// part of `x` at the bins of `s` that `s` spans is zeroed.
    fn project_out(self, x: &mut [Complex64]) {
        match self {
            Start::Unit(g) => x[g] = Complex64::ZERO,
            Start::Cos(g, m) => {
                x[g].re = 0.0;
                x[m].re = 0.0;
            }
            Start::Sin(g, m) => {
                x[g].im = 0.0;
                x[m].im = 0.0;
            }
        }
    }
}

/// The `nb` real start vectors of a band solve. Walking the bins by
/// ascending `|G|²` (ties by bin index): the unit vector of a bin that is
/// its own `−G`, and the cos then the sin vector of a ±G pair at its first
/// member, so the first pair the band count cuts keeps its cos half. A
/// pair's members tie in `|G|²`, and each bin walked yields a vector for
/// itself or its pair, so the lowest `nb` bins are enough.
///
/// # Panics
///
/// Panics if `nb` exceeds the number of grid bins.
fn start_vectors(h: &KsHamiltonian, nb: usize) -> Vec<Start> {
    let mut starts = Vec::with_capacity(nb + 1);
    for g in lowest_g_indices(&h.g2, nb) {
        let m = h.neg[g];
        match m.cmp(&g) {
            Ordering::Equal => starts.push(Start::Unit(g)),
            Ordering::Greater => starts.extend([Start::Cos(g, m), Start::Sin(g, m)]),
            Ordering::Less => {}
        }
    }
    assert!(starts.len() >= nb, "more bands than grid bins");
    starts.truncate(nb);
    starts
}

/// Packs two real bands into one grid, `a + i·b`, or copies a lone `a`.
/// Works alike on coefficients (`F(a + ib) = Fa + i·Fb`) and on real-space
/// rows.
fn pack(grid: &mut [Complex64], a: &[Complex64], b: Option<&[Complex64]>) {
    match b {
        Some(b) => {
            for ((z, x), y) in grid.iter_mut().zip(a).zip(b) {
                *z = Complex64::new(x.re - y.im, x.im + y.re);
            }
        }
        None => grid.copy_from_slice(a),
    }
}

/// `⟨a|b⟩` for two vectors with `c(−G) = c(G)*`, which is real: the real
/// part of the Hermitian product, with no imaginary part computed. Four
/// partial sums keep the adds independent, so they vectorize.
fn real_dot(a: &[Complex64], b: &[Complex64]) -> f64 {
    let mut acc = [0.0f64; 4];
    for (x, y) in a.chunks_exact(2).zip(b.chunks_exact(2)) {
        acc[0] += x[0].re * y[0].re;
        acc[1] += x[0].im * y[0].im;
        acc[2] += x[1].re * y[1].re;
        acc[3] += x[1].im * y[1].im;
    }
    let tail: f64 = a
        .chunks_exact(2)
        .remainder()
        .iter()
        .zip(b.chunks_exact(2).remainder())
        .map(|(x, y)| x.re * y.re + x.im * y.im)
        .sum();
    (acc[0] + acc[2]) + (acc[1] + acc[3]) + tail
}

/// `y ← y + α·x` for a real `α`.
fn real_axpy(alpha: f64, x: &[Complex64], y: &mut [Complex64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        yi.re += alpha * xi.re;
        yi.im += alpha * xi.im;
    }
}

/// `x_b ← Σ_j c(j, b)·x_j + Σ_j c(n + j, b)·y_j` for every row `x_b` of
/// `x` (`n` rows of `nr`), in place, over the rows `y_j` of `y`; with
/// `keep_x` false the old rows of `x` count as zero. The grid is swept in
/// chunks that every source row is read through once, so a chunk of all
/// rows stays in cache while the `n` combinations are formed.
fn rotate_rows(c: &Mat, x: &mut [Complex64], keep_x: bool, y: &[Complex64], nr: usize) {
    const CHUNK: usize = 256;
    let n = x.len() / nr;
    let mut out = vec![Complex64::ZERO; n * CHUNK];
    for start in (0..nr).step_by(CHUNK) {
        let len = CHUNK.min(nr - start);
        for (b, acc) in out.chunks_exact_mut(CHUNK).enumerate() {
            let acc = &mut acc[..len];
            acc.fill(Complex64::ZERO);
            if keep_x {
                for j in 0..n {
                    real_axpy(c[(j, b)], &x[j * nr + start..][..len], acc);
                }
            }
            for j in 0..y.len() / nr {
                real_axpy(c[(n + j, b)], &y[j * nr + start..][..len], acc);
            }
        }
        for (b, acc) in out.chunks_exact(CHUNK).enumerate() {
            x[b * nr + start..][..len].copy_from_slice(&acc[..len]);
        }
    }
}

/// The row blocks of a band solve of `nb` bands, in one allocation: the
/// bands ψ and H·ψ, the new directions W and H·W, and `⌈nb/2⌉` grids for
/// the packed bands of every H application and of the return to real
/// space. A self-consistent run allocates them once for all of its
/// solves.
///
/// One allocation also keeps the pages resident from job to job: when a
/// mapped block is freed, glibc raises its mmap threshold to that block's
/// size and its trim threshold to twice that, so the next buffer this
/// size is recycled from the heap instead of being faulted in afresh. On
/// seeded self-consistent jobs at the sweep shapes, minor page faults per
/// job fell from 460–1500 to under 100 at four of the five shapes.
struct BandBlocks(Vec<Complex64>);

impl BandBlocks {
    fn new(nb: usize, nr: usize) -> Self {
        BandBlocks(vec![Complex64::ZERO; (4 * nb + nb.div_ceil(2)) * nr])
    }

    /// ψ, H·ψ, W, H·W (`nb` rows of `nr` each) and the packed grids.
    fn split(&mut self, nb: usize, nr: usize) -> [&mut [Complex64]; 5] {
        let (psi, rest) = self.0.split_at_mut(nb * nr);
        let (hpsi, rest) = rest.split_at_mut(nb * nr);
        let (w, rest) = rest.split_at_mut(nb * nr);
        let (hw, packed) = rest.split_at_mut(nb * nr);
        [psi, hpsi, w, hw, packed]
    }
}

/// Row `b` of a block of rows `nr` long.
fn row(block: &[Complex64], b: usize, nr: usize) -> &[Complex64] {
    &block[b * nr..(b + 1) * nr]
}

/// Row `b` of a block of rows `nr` long, mutably.
fn row_mut(block: &mut [Complex64], b: usize, nr: usize) -> &mut [Complex64] {
    &mut block[b * nr..(b + 1) * nr]
}

/// The band solve behind [`run_scf_in`], started from the real vectors
/// `starts` (one per band, from [`start_vectors`]) in the row blocks
/// `blocks` (built for as many bands).
///
/// Works on plane-wave coefficients throughout (see the module docs) and
/// returns real-space orbitals.
fn solve_bands(
    opts: &ScfOptions,
    h: &KsHamiltonian,
    starts: &[Start],
    blocks: &mut BandBlocks,
) -> Result<GroundState, EigError> {
    let nr = h.nr;
    let nb = opts.bands;
    let [psi, hpsi, w, hw, packed] = blocks.split(nb, nr);

    // Initial guess: the real start vectors and their H-images. Until the
    // first rotation a product with ψ is an element read (`Start::dot`).
    psi.fill(Complex64::ZERO);
    for (b, s) in starts.iter().enumerate() {
        s.add_to(row_mut(psi, b, nr), 1.0);
    }
    h.unit_images(starts, packed, hpsi);
    let mut unit_start = true;

    let mut energies = vec![0.0f64; nb];
    let mut residuals = vec![0.0f64; nb];
    let mut iterations = 0;
    loop {
        // Rayleigh quotients and residuals from the carried H·ψ; the
        // preconditioned residuals (the preconditioner is diagonal in G)
        // are the new search directions.
        for b in 0..nb {
            let (p, hp) = (row(psi, b, nr), row(hpsi, b, nr));
            let e = if unit_start {
                starts[b].dot(hp)
            } else {
                real_dot(p, hp)
            };
            let mut norm_sqr = 0.0;
            for (((d, hz), z), &g2) in row_mut(w, b, nr).iter_mut().zip(hp).zip(p).zip(&h.g2) {
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
        // directions. Projecting a start vector out of a direction zeroes
        // part of its bins.
        if unit_start {
            for d in w.chunks_exact_mut(nr) {
                for s in starts {
                    s.project_out(d);
                }
            }
        }
        let basis = if unit_start { &[][..] } else { &psi[..] };
        let nw = orthonormalize_against(basis, w, nr);
        let (w_new, hw_new) = (&w[..nw * nr], &mut hw[..nw * nr]);
        // H is applied to the new directions only, as one block.
        h.apply_block(w_new, packed, hw_new);
        // Rayleigh–Ritz in the trial space, computing only the entries of
        // the real symmetric H_sub that are not already known: after a
        // Ritz rotation ψᵀHψ is diag(ε); WᵀHψ gives both off-diagonal
        // blocks; WᵀHW needs one triangle.
        let m = nb + nw;
        let mut hsub = Mat::zeros(m, m);
        for i in 0..nb {
            for j in 0..nb {
                hsub[(i, j)] = if unit_start {
                    starts[i].dot(row(hpsi, j, nr))
                } else if i == j {
                    energies[i]
                } else {
                    0.0
                };
            }
        }
        for i in 0..nw {
            let wi = row(w_new, i, nr);
            for j in 0..nb {
                let x = if unit_start {
                    starts[j].dot(row(hw_new, i, nr))
                } else {
                    real_dot(wi, row(hpsi, j, nr))
                };
                hsub[(nb + i, j)] = x;
                hsub[(j, nb + i)] = x;
            }
            for j in i..nw {
                let x = real_dot(wi, row(hw_new, j, nr));
                hsub[(nb + j, nb + i)] = x;
                hsub[(nb + i, nb + j)] = x;
            }
        }
        let eig = syevd(&hsub)?;
        iterations += 1;
        // Rotate ψ onto the lowest nb Ritz vectors in place, and H·ψ with
        // the same coefficients and normalization. A start ψ is sparse and
        // joins by element writes. The last update needs no H-images: its
        // energies are the Ritz values.
        let last = iterations == opts.max_iterations;
        rotate_rows(&eig.vectors, psi, !unit_start, w_new, nr);
        if unit_start {
            for b in 0..nb {
                for (j, s) in starts.iter().enumerate() {
                    s.add_to(row_mut(psi, b, nr), eig.vectors[(j, b)]);
                }
            }
        }
        if !last {
            rotate_rows(&eig.vectors, hpsi, true, hw_new, nr);
        }
        for b in 0..nb {
            // A unit coefficient vector over an orthonormal basis: the
            // norm is ≈ 1, never 0.
            let inv = 1.0 / vecops::normalize(row_mut(psi, b, nr));
            if !last {
                for z in row_mut(hpsi, b, nr) {
                    *z = z.scale(inv);
                }
            }
        }
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
    // Back to real space in one batch, two bands to a grid: grid k holds
    // bands 2k and 2k + 1 as its real and imaginary parts, and
    // ψ = √N · F⁻¹c keeps the unit grid norm.
    for (grid, pair) in packed.chunks_exact_mut(nr).zip(idx.chunks(2)) {
        pack(
            grid,
            row(psi, pair[0], nr),
            pair.get(1).map(|&j| row(psi, j, nr)),
        );
    }
    h.fft(packed, true);
    let sqrt_n = (nr as f64).sqrt();
    let mut orbitals = CMat::zeros(nb, nr);
    for (grid, rows) in packed
        .chunks_exact(nr)
        .zip(orbitals.as_mut_slice().chunks_mut(2 * nr))
    {
        let (a, b) = rows.split_at_mut(nr);
        for (i, z) in grid.iter().enumerate() {
            a[i] = Complex64::from_real(sqrt_n * z.re);
            if let Some(y) = b.get_mut(i) {
                *y = Complex64::from_real(sqrt_n * z.im);
            }
        }
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
/// Gram–Schmidt, in place. Every row is a real band (`c(−G) = c(G)*`), so
/// the projections are real. A direction whose remainder falls below
/// `1e-12` (the cut of [`vecops::mgs_orthonormalize`]) is dropped; the
/// survivors are packed to the front in their original order, and their
/// count is returned.
///
/// Every direction is projected twice ("twice is enough", Giraud et al.
/// 2005). One pass leaves a remainder about as far from orthogonal as the
/// rounding of what it cancelled, and on a long solve the new directions
/// lie nearly inside the span of `ψ`. A trial basis that skews over the
/// updates lets the Ritz values fall below the spectrum.
fn orthonormalize_against(basis: &[Complex64], dirs: &mut [Complex64], len: usize) -> usize {
    let mut kept = 0;
    for b in 0..dirs.len() / len {
        if b != kept {
            dirs.copy_within(b * len..(b + 1) * len, kept * len);
        }
        let (done, rest) = dirs.split_at_mut(kept * len);
        let d = &mut rest[..len];
        for _pass in 0..2 {
            for q in basis.chunks_exact(len).chain(done.chunks_exact(len)) {
                real_axpy(-real_dot(q, d), q, d);
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
    use crate::basis::{minus_g_bins, plane_wave, sorted_g_indices};
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
    fn hamiltonian_terms_are_symmetric_under_g_inversion() {
        // H is real at Γ because every term is: |G|² is the same at G and
        // −G bit for bit, and V_loc and every projector are real grid
        // functions, so their transforms satisfy X(−G) = X(G)* bin for
        // bin. On the even grids the Nyquist planes map onto themselves.
        for atoms in [8, 16, 24] {
            let sys = SiliconSystem::new(atoms).unwrap();
            let h = KsHamiltonian::new(&sys, &ScfOptions::default());
            let grid = sys.grid();
            let neg = minus_g_bins(grid);
            let mut self_conjugate = 0;
            for (g, &m) in neg.iter().enumerate() {
                assert_eq!(neg[m], g, "Si_{atoms}: −G map is an involution");
                assert_eq!(h.g2[m].to_bits(), h.g2[g].to_bits(), "Si_{atoms}, bin {g}");
                self_conjugate += usize::from(m == g);
            }
            // G = 0 and the Nyquist frequency on every (even) axis.
            let fixed = |n: usize| if n.is_multiple_of(2) { 2 } else { 1 };
            assert_eq!(
                self_conjugate,
                fixed(grid.nx) * fixed(grid.ny) * fixed(grid.nz),
                "Si_{atoms}"
            );
            for (y, z) in [(0, 0), (1, 3), (grid.ny / 2, grid.nz - 1)] {
                let g = grid.index(grid.nx / 2, y, z);
                let m = grid.index(
                    grid.nx / 2,
                    (grid.ny - y) % grid.ny,
                    (grid.nz - z) % grid.nz,
                );
                assert_eq!(neg[g], m, "Si_{atoms}: x Nyquist plane, ({y}, {z})");
            }
            let hermitian = |f: &[f64], what: &str| {
                let mut x: Vec<Complex64> = f.iter().map(|&v| Complex64::from_real(v)).collect();
                h.plan.forward(&mut x);
                let scale = vecops::norm(&x);
                for (g, &m) in neg.iter().enumerate() {
                    let d = (x[m] - x[g].conj()).abs();
                    assert!(d <= 1e-12 * scale, "Si_{atoms}, {what}, bin {g}: {d:e}");
                }
            };
            hermitian(&h.vloc, "V_loc");
            // Each channel over every atom, atoms weighted apart so that no
            // two spheres can cancel.
            for p in 0..crate::pseudo::N_PROJ {
                let mut beta = vec![0.0; grid.len()];
                for (a, sphere) in h.pseudos.spheres.iter().enumerate() {
                    for (&idx, row) in sphere.iter().zip(&h.pseudos.table) {
                        beta[idx as usize] += (1 + a) as f64 * row[p];
                    }
                }
                hermitian(&beta, &format!("projector {p}"));
            }
        }
    }

    #[test]
    fn rotated_h_psi_matches_recomputed() {
        // The solver never re-applies H to a Ritz vector: its energies
        // come from H·ψ rotated alongside ψ. They must match a fresh
        // application, and H must run once per new vector only, two real
        // vectors to a grid: per update, an inverse and a forward FFT of
        // each pair of new directions; at the start, one forward FFT per
        // pair of start vectors; at the end, one inverse FFT per pair of
        // bands. An odd count leaves one vector alone in its grid.
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
                    let (k, grids) = (gs.iterations, bands.div_ceil(2));
                    assert_eq!(applies, grids * (k + 1), "{case}");
                    assert_eq!(ffts, grids * (2 * k + 2), "{case}");
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
    fn long_solve_keeps_its_bands_orthonormal_and_above_the_spectrum() {
        // Twelve bands on Si_8 with a cap of 60 updates once returned a
        // Gram matrix off by 1.0 and a lowest Ritz value 1.9 eV below the
        // lowest eigenvalue, which no orthonormal basis can give.
        let sys = SiliconSystem::new(8).unwrap();
        let lowest = run_scf(&sys, &small_opts(4, 12)).unwrap();
        assert!(lowest.max_residual() < 1e-3);
        let gs = run_scf(&sys, &small_opts(12, 60)).unwrap();
        let nb = gs.orbitals.rows();
        let mut gram_error = 0.0f64;
        for i in 0..nb {
            for j in 0..nb {
                let d = vecops::dot(gs.orbitals.row(i), gs.orbitals.row(j));
                let expect = Complex64::from_real(if i == j { 1.0 } else { 0.0 });
                gram_error = gram_error.max((d - expect).abs());
            }
        }
        assert!(gram_error <= 1e-6, "Gram error {gram_error:e}");
        let floor = lowest.energies_ev[0] - 1e-6;
        for (b, &e) in gs.energies_ev.iter().enumerate() {
            assert!(
                e >= floor,
                "band {b}: {e} eV below the lowest level {floor}"
            );
        }
    }

    #[test]
    fn converged_solve_returns_without_expanding() {
        // Si_8 with 4 bands meets the tolerance after 6 updates: the
        // solve stops there, with no H applications beyond the ones that
        // produced those orbitals, and reports their own residuals. Its 4
        // bands fill 2 grids per application.
        let sys = SiliconSystem::new(8).unwrap();
        let opts = small_opts(4, 12);
        let h = KsHamiltonian::new(&sys, &opts);
        let (applies, ffts) = (APPLY_CALLS.with(Cell::get), FFT_CALLS.with(Cell::get));
        let gs = run_scf_in(&sys, &opts, &h).unwrap();
        assert_eq!(gs.iterations, 6);
        assert_eq!(APPLY_CALLS.with(Cell::get) - applies, 2 * 7);
        assert_eq!(FFT_CALLS.with(Cell::get) - ffts, 2 * 14);
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
    /// occupied, 2 cycles at α = 0.5). The rows with 3 bands, whose start
    /// fills whole ±G pairs, were recorded from the complex solver that
    /// started from plane waves and hold on the real one to 1e-14. The
    /// rows with 2 bands occupy the cos half of the first ±G pair, a
    /// standing wave where the complex solver occupied a travelling one,
    /// and were recorded from the real solver.
    #[rustfmt::skip]
    const SELF_CONSISTENT_PIN: [(usize, usize, &[f64], &[f64]); 5] = [
        (8, 2, &[-2.5575814987373424, 3.0080046531808797], &[0.05127939805143593, 0.018598521917288984]),
        (8, 3, &[-2.537436747678707, 2.8164649129996904, 2.8164649129996913], &[0.060467710373029865, 0.020960649371869814]),
        (16, 2, &[-2.6130442035557264, -0.8796309484375833], &[0.12717139583557052, 0.03876569726399893]),
        (16, 3, &[-2.5627030803800683, -1.2029274796761755, -1.202927479676143], &[0.016903868410140667, 0.007485444150299357]),
        (24, 2, &[-2.6346606046577543, -1.7110588876100046], &[0.36756103095583725, 0.012942152301654285]),
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
        // apply_block(c) ≡ F·apply(F⁻¹c) on seeded random real bands, a
        // packed pair and a lone third.
        for (atoms, seed) in [(8, 0xc0ef_0008u64), (16, 0xc0ef_0016), (24, 0xc0ef_0024)] {
            let sys = SiliconSystem::new(atoms).unwrap();
            let h = KsHamiltonian::new(&sys, &ScfOptions::default());
            let nr = h.len();
            let c = random_real_bands(&h, 3, seed);
            let mut phi = vec![Complex64::ZERO; 2 * nr];
            let mut fast = vec![Complex64::ZERO; 3 * nr];
            h.apply_block(&c, &mut phi, &mut fast);
            for (r, (row, got)) in c.chunks_exact(nr).zip(fast.chunks_exact(nr)).enumerate() {
                let mut psi = row.to_vec();
                h.plan.inverse(&mut psi);
                let mut slow = h.apply(&psi);
                h.plan.forward(&mut slow);
                let diff: Vec<Complex64> = got.iter().zip(&slow).map(|(a, b)| *a - *b).collect();
                let rel = vecops::norm(&diff) / vecops::norm(&slow);
                assert!(
                    rel <= 1e-12,
                    "Si_{atoms}, row {r}: relative difference {rel:e}"
                );
            }
        }
    }

    #[test]
    fn unit_images_match_applied_unit_vectors() {
        // The start never transforms its vectors: their real-space forms
        // come from three per-axis phase tables. The bins cover the lowest
        // shells, a Nyquist bin, negative frequencies on every axis, and
        // both packings: a cos and sin pair of one bin, and vectors of two
        // bins sharing a grid.
        for atoms in [8, 16, 24] {
            let sys = SiliconSystem::new(atoms).unwrap();
            let h = KsHamiltonian::new(&sys, &ScfOptions::default());
            let grid = sys.grid();
            let nr = h.len();
            let mut starts = start_vectors(&h, 7);
            let nyquist = grid.index(grid.nx / 2, 0, 0);
            assert_eq!(h.neg[nyquist], nyquist);
            starts.push(Start::Unit(nyquist));
            for g in [nr - 1, nr / 2 + 3] {
                let m = h.neg[g];
                starts.extend([
                    Start::Sin(g.min(m), g.max(m)),
                    Start::Cos(g.min(m), g.max(m)),
                ]);
            }
            let mut phi = vec![Complex64::ZERO; starts.len().div_ceil(2) * nr];
            let mut images = vec![Complex64::ZERO; starts.len() * nr];
            h.unit_images(&starts, &mut phi, &mut images);
            let mut dense = vec![Complex64::ZERO; starts.len() * nr];
            for (row, s) in dense.chunks_exact_mut(nr).zip(&starts) {
                s.add_to(row, 1.0);
            }
            let mut applied = vec![Complex64::ZERO; starts.len() * nr];
            h.apply_block(&dense, &mut phi, &mut applied);
            for ((image, expect), s) in images
                .chunks_exact(nr)
                .zip(applied.chunks_exact(nr))
                .zip(&starts)
            {
                let diff: Vec<Complex64> = image.iter().zip(expect).map(|(a, b)| *a - *b).collect();
                let rel = vecops::norm(&diff) / vecops::norm(expect);
                assert!(
                    rel <= 1e-12,
                    "Si_{atoms}, {s:?}: relative difference {rel:e}"
                );
            }
        }
    }

    #[test]
    fn block_apply_matches_per_pair_apply_bitwise() {
        // A block is its pairs side by side: each pair of rows (and an odd
        // last row) gets exactly the arithmetic it gets as a block of its
        // own.
        for (atoms, seed) in [(8, 0xb10c_0008u64), (16, 0xb10c_0016), (24, 0xb10c_0024)] {
            let sys = SiliconSystem::new(atoms).unwrap();
            let h = KsHamiltonian::new(&sys, &ScfOptions::default());
            let nr = h.len();
            for k in 1..=5 {
                let c = random_real_bands(&h, k, seed + k as u64);
                let mut phi = vec![Complex64::ZERO; k.div_ceil(2) * nr];
                let mut block = vec![Complex64::ZERO; k * nr];
                h.apply_block(&c, &mut phi, &mut block);
                for (p, (pair, got)) in c.chunks(2 * nr).zip(block.chunks(2 * nr)).enumerate() {
                    let mut expect = vec![Complex64::ZERO; pair.len()];
                    h.apply_block(pair, &mut phi, &mut expect);
                    assert!(
                        got.iter()
                            .zip(&expect)
                            .all(|(a, b)| a.re.to_bits() == b.re.to_bits()
                                && a.im.to_bits() == b.im.to_bits()),
                        "Si_{atoms}, block of {k}, pair {p}"
                    );
                }
            }
        }
    }

    /// `(atoms, bands, cap)` of the `scf_sweep` shapes, two starts and a
    /// few seeded random shapes: the returned orbitals are real, so their
    /// coefficients satisfy c(−G) = c(G)*, and orthonormal.
    #[test]
    fn returned_orbitals_are_real_and_orthonormal() {
        let mut s = 0x7ea1_0b17_u64;
        let mut draw = |n: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % n) as usize
        };
        let mut cases: Vec<(usize, usize, usize)> = [8, 16, 24]
            .into_iter()
            .flat_map(|atoms| (2..=4).map(move |bands| (atoms, bands, 2)))
            .collect();
        // A start returned as is (cap 0), with an odd band alone in its grid.
        cases.extend([(16, 1, 0), (24, 5, 0)]);
        for _ in 0..6 {
            cases.push(([8, 16, 24][draw(3)], 1 + draw(9), draw(9)));
        }
        for (atoms, bands, cap) in cases {
            let sys = SiliconSystem::new(atoms).unwrap();
            let h = KsHamiltonian::new(&sys, &small_opts(bands, cap));
            let gs = run_scf_in(&sys, &small_opts(bands, cap), &h).unwrap();
            let sc = run_scf_selfconsistent(&sys, &small_opts(bands, cap), bands, 1, 0.5, None)
                .unwrap()
                .ground_state;
            let case = format!("Si_{atoms}, {bands} bands, cap {cap}");
            for orbitals in [&gs.orbitals, &sc.orbitals] {
                assert_eq!(orbitals.rows(), bands, "{case}");
                assert_orbitals_real_and_orthonormal(&h, orbitals, &case);
            }
        }
    }

    fn assert_orbitals_real_and_orthonormal(h: &KsHamiltonian, orbitals: &CMat, case: &str) {
        let nb = orbitals.rows();
        for b in 0..nb {
            let psi = orbitals.row(b);
            let norm = vecops::norm(psi);
            let imag = psi.iter().map(|z| z.im * z.im).sum::<f64>().sqrt();
            assert!(
                imag <= 1e-12 * norm,
                "{case}, band {b}: imaginary part {imag:e}"
            );
            let mut c = psi.to_vec();
            h.plan.forward(&mut c);
            let scale = 1.0 / (h.len() as f64).sqrt();
            let worst = h
                .neg
                .iter()
                .enumerate()
                .map(|(g, &m)| (c[m] - c[g].conj()).abs() * scale)
                .fold(0.0f64, f64::max);
            assert!(
                worst <= 1e-12,
                "{case}, band {b}: |c(−G) − c(G)*| = {worst:e}"
            );
            for j in 0..nb {
                let d = vecops::dot(orbitals.row(j), psi);
                let expect = Complex64::from_real(if j == b { 1.0 } else { 0.0 });
                assert!((d - expect).abs() <= 1e-10, "{case}, ⟨{j}|{b}⟩ = {d:?}");
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

    /// `rows` seeded random real bands in the unitary plane-wave basis:
    /// random real grids, transformed and scaled by `1/√N`.
    fn random_real_bands(h: &KsHamiltonian, rows: usize, seed: u64) -> Vec<Complex64> {
        let nr = h.len();
        let mut out = Vec::with_capacity(rows * nr);
        for r in 0..rows {
            let mut row: Vec<Complex64> = random_unit(nr, seed + r as u64)
                .into_iter()
                .map(|z| Complex64::from_real(z.re))
                .collect();
            h.plan.forward(&mut row);
            vecops::normalize(&mut row);
            out.extend(row);
        }
        out
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
