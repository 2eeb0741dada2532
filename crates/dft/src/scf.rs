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
//! `c(G) = (F ψ)(G)/√N` over a sphere of the bins of the `N`-point FFT
//! grid, where the kinetic energy `(ħ²/2m)G²` and the preconditioner
//! `1/(1 + (ħ²/2m)G²)` are both diagonal. The local potential stays
//! pointwise in real space and the nonlocal part goes through the
//! projector machinery of [`crate::pseudo`], so one application of `H` to
//! a coefficient vector is an inverse 3-D FFT, the real-space potential
//! step, a forward 3-D FFT and a diagonal kinetic term — the kernels the
//! paper characterizes.
//!
//! # The wavefunction sphere
//!
//! A band keeps the plane waves with `|G| ≤ G_w = π/(2h)`, half the grid's
//! Nyquist wavenumber `π/h`. This is the density-grid relation of
//! plane-wave codes: the density `|ψ|²`, whose components reach `2·G_w`,
//! still fits on the grid. The sphere holds 515 of Si_8's 8,000 bins,
//! 1,013 of Si_16's 16,000 and 1,527 of Si_24's 24,000 (6.4 %). The solve
//! diagonalizes `P·H·P`, with `P` the projector onto the sphere. That is
//! `H` compressed to a subspace, so each of its eigenvalues lies at or
//! above the matching one of `H` on the whole grid.
//!
//! The solve runs at Γ, where `H` is real: `V_loc` and the projectors are
//! real grid functions and `|G|²` is even in `G`. So every band is kept
//! real in real space, i.e. its coefficients satisfy `c(−G) = c(G)*`, and
//! it is stored on half the sphere, as in the `gamma_only` path of
//! plane-wave codes: one real value per self-conjugate bin and one complex
//! coefficient per ±G pair, ordered by `|G|²`. At this cutoff `G = 0` is
//! the only self-conjugate bin, so a band is about 3 % of `N` coefficients.
//! Inner products read `c₀d₀ + 2·Σ Re(c̄d)`, and every vector operation of
//! the solve runs on these compact rows:
//!
//! - The start vectors are real: the unit vector at `G = 0`, then the cos
//!   and sin combinations of each ±G pair by ascending `|G|²`, and the cos
//!   half of the first pair the band count cuts.
//! - Inner products of such vectors are real, so the Gram–Schmidt
//!   projections, `H_sub` (real symmetric, solved by `syevd`) and the Ritz
//!   rotations all use real coefficients, which keep `c(−G) = c(G)*` exact.
//! - Every application of `H` scatters two real bands, with their mirrors
//!   `c(−G) = c(G)*`, into one zeroed complex grid as `ψ_a + iψ_b`: one
//!   inverse FFT, one pass of the real potential (the projections onto the
//!   real `β` carry both bands at once), one forward FFT, and
//!   `X(G) ± X(−G)*` at the sphere's bins splits the image into `Hψ_a` and
//!   `Hψ_b`. An odd last band rides alone.
//! - Both FFTs are pruned to the sphere's sticks
//!   ([`StickMap`](ndft_numerics::StickMap)). The inverse transforms only
//!   the x-rows whose `(G_y, G_z)` meet the sphere and the y-lines only in
//!   the z-slabs whose `G_z` meets it; the forward computes only those;
//!   the z-pass runs in full. On every system grid the
//!   sphere meets 81 of the 400 `(y, z)` rows and 11 of the 20 slabs, so
//!   one pruned transform runs 701 of the 1,200 1-D transforms of a full
//!   one on Si_8, 1,321 of 2,000 on Si_16 and 1,941 of 2,800 on Si_24:
//!   one per kept row, `n_x` per kept slab and `n_x·n_y` along z.
//!
//! Every Hamiltonian application streams whole grids through the FFT and
//! the projector gather/scatter, so the solver applies `H` only to
//! vectors that are new: the start vectors, then each iteration's
//! surviving residual directions, all of an iteration's directions as one
//! block (one batched inverse FFT, one pass of the potential over the
//! block, one batched forward FFT). It keeps `Hψ` beside every trial
//! vector and rotates it with the same Ritz coefficients and normalization
//! as `ψ`, as LOBPCG/Davidson codes do; residuals and band energies come
//! from those carried pairs.
//!
//! The solve returns its bands as they are: [`GroundState::orbitals`]
//! holds the half-sphere rows, sorted by energy, about 3 % of `N`
//! complex values a band. A band goes back to real space only when
//! something reads it there, two bands to a grid through one pruned
//! inverse FFT: the self-consistent loop sums each density from those
//! grids, and [`GroundState::real_space_orbitals`] expands the rows for a
//! caller that needs grid orbitals.
//!
//! The solver also skips work whose result it already knows:
//!
//! - A start vector is a plane wave or the real or imaginary part of one
//!   (times `√2`), a product of one phase table per axis, so the start
//!   vectors' H-images need only the forward FFT.
//! - While `ψ` is still the start, the product of a start vector with a
//!   vector `x` reads one coefficient of `x`: the Rayleigh quotients, the
//!   projection of the new directions `W` onto `ψ`, the `ψ` rows of
//!   `H_sub` and the `ψ` part of the Ritz rotation are element reads and
//!   writes.
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
//! runs `p·(2k + 1)` 3-D FFTs: one forward FFT per packed start pair and
//! two per later packed pair. Each of them is pruned, so the solve runs
//! `p·(2k + 1)·L` 1-D transforms, with `L` the lines of one pruned
//! transform above (701 on Si_8). The preconditioner costs none. A density
//! or an expansion to real space adds `p` pruned inverse FFTs.

use crate::basis::{half_sphere_dot, local_potential, system_g2, WaveSphere, HBAR2_OVER_2M};
use crate::pseudo::{add_nonlocal, build_pseudos, Pseudopotential};
use crate::system::SiliconSystem;
use ndft_numerics::{syevd, vecops, CMat, Complex64, EigError, Fft3Plan, Mat};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::f64::consts::{FRAC_1_SQRT_2, SQRT_2, TAU};

/// Converged (or best-effort) ground state.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundState {
    /// Band energies in eV, ascending.
    pub energies_ev: Vec<f64>,
    /// Orbitals, one band per row, as the band solve holds them: the
    /// unitary plane-wave coefficients `c(G) = (Fψ)(G)/√N` on half of the
    /// wavefunction sphere `|G| ≤ G_w` (see the module docs). A row holds
    /// the real value at `G = 0` first, then one complex `c(G)` per ±G
    /// pair, ordered by `(|G|², bin)`: 258, 507 and 764 columns on Si_8,
    /// Si_16 and Si_24. Each band is real in real space, so its mirror
    /// coefficient is `c(−G) = c(G)*` and a pair counts twice in an inner
    /// product: `⟨c|d⟩ = c₀d₀ + 2·Σ Re(c̄d)`, and every row has unit norm
    /// in that product. [`real_space_orbitals`](Self::real_space_orbitals)
    /// expands the rows to orbitals on the grid.
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

    /// The orbitals on the real-space grid of `system`, one per row, with
    /// unit grid 2-norm. Every imaginary part is zero, and every plane
    /// wave outside the wavefunction sphere has a zero coefficient, to
    /// rounding. Builds the system's sphere and FFT plan, not a
    /// Hamiltonian, and runs `⌈bands/2⌉` pruned inverse 3-D FFTs, two
    /// bands to a grid.
    ///
    /// # Panics
    ///
    /// Panics if the rows are not as long as `system`'s half-sphere.
    pub fn real_space_orbitals(&self, system: &SiliconSystem) -> CMat {
        let grid = system.grid();
        let sphere = WaveSphere::new(grid, &system_g2(system));
        assert_eq!(
            self.orbitals.cols(),
            sphere.len(),
            "orbitals must be rows of the system's half-sphere"
        );
        let (nb, nr) = (self.orbitals.rows(), grid.len());
        let mut grids = vec![Complex64::ZERO; nb.div_ceil(2) * nr];
        let grids = to_real_space(
            &Fft3Plan::new(grid),
            &sphere,
            self.orbitals.as_slice(),
            &mut grids,
        );
        let mut out = CMat::zeros(nb, nr);
        for (grid, rows) in grids
            .chunks_exact(nr)
            .zip(out.as_mut_slice().chunks_mut(2 * nr))
        {
            let (a, b) = rows.split_at_mut(nr);
            for (i, z) in grid.iter().enumerate() {
                a[i] = Complex64::from_real(z.re);
                if let Some(y) = b.get_mut(i) {
                    *y = Complex64::from_real(z.im);
                }
            }
        }
        out
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

/// The model Kohn–Sham Hamiltonian on a system's grid, with the
/// wavefunction sphere its bands live on.
pub struct KsHamiltonian {
    plan: Fft3Plan,
    /// `|G|²` of every grid bin (the Hartree step's table).
    g2: Vec<f64>,
    sphere: WaveSphere,
    vloc: Vec<f64>,
    pseudos: Pseudopotential,
    dv: f64,
    nr: usize,
}

impl KsHamiltonian {
    /// Builds the Hamiltonian for a system, on its wavefunction sphere.
    pub fn new(system: &SiliconSystem, opts: &ScfOptions) -> Self {
        let g2 = system_g2(system);
        let sphere = WaveSphere::new(system.grid(), &g2);
        Self::on_sphere(system, opts, g2, sphere)
    }

    /// The Hamiltonian on a sphere that holds every grid bin: the
    /// full-grid oracle of the production sphere.
    #[cfg(test)]
    pub(crate) fn full_grid(system: &SiliconSystem, opts: &ScfOptions) -> Self {
        let g2 = system_g2(system);
        let sphere = WaveSphere::full(system.grid(), &g2);
        Self::on_sphere(system, opts, g2, sphere)
    }

    fn on_sphere(
        system: &SiliconSystem,
        opts: &ScfOptions,
        g2: Vec<f64>,
        sphere: WaveSphere,
    ) -> Self {
        let grid = system.grid();
        let nr = grid.len();
        KsHamiltonian {
            plan: Fft3Plan::new(grid),
            g2,
            sphere,
            vloc: local_potential(system, opts.potential_depth_ev, opts.potential_sigma),
            pseudos: build_pseudos(system, 1.8),
            dv: system.volume() / nr as f64,
            nr,
        }
    }

    /// Applies `P·H·P` to an orbital, with `P` the projector onto the
    /// wavefunction sphere: the operator the band solve diagonalizes.
    /// `ψ` is taken to plane waves and cut to the sphere; the kinetic term
    /// acts there and the potential in real space; the sum is cut to the
    /// sphere again and returned to real space.
    ///
    /// # Panics
    ///
    /// Panics if `psi.len()` does not match the grid.
    pub fn apply(&self, psi: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(psi.len(), self.nr, "orbital length mismatch");
        let sphere = self.sphere.bins.iter().zip(&self.sphere.mirrors);
        let sphere = sphere
            .zip(&self.sphere.g2)
            .flat_map(|((&g, &m), &g2)| [(g, g2), (m, g2)]);
        let mut c = psi.to_vec();
        self.plan.forward(&mut c);
        let mut kept = vec![Complex64::ZERO; self.nr];
        for (g, _) in sphere.clone() {
            kept[g] = c[g];
        }
        c.copy_from_slice(&kept);
        self.plan.inverse(&mut c);
        let mut image = vec![Complex64::ZERO; self.nr];
        self.potential(&c, &mut image);
        self.plan.forward(&mut image);
        c.fill(Complex64::ZERO);
        for (g, g2) in sphere {
            c[g] = image[g] + kept[g].scale(HBAR2_OVER_2M * g2);
        }
        self.plan.inverse(&mut c);
        c
    }

    /// Rayleigh quotient `⟨ψ|P·H·P|ψ⟩` for a unit-norm orbital.
    pub fn expectation(&self, psi: &[Complex64]) -> f64 {
        let h = self.apply(psi);
        vecops::dot(psi, &h).re
    }

    /// `out = H·c` for every row of the half-sphere block `c`, each row a
    /// real band: the rows are scattered two to a grid into `grids` (at
    /// least `⌈rows/2⌉` grids, clobbered), taken to real space by one
    /// batched pruned inverse FFT, through the potential step into
    /// `images` (as many grids, clobbered) and back by one batched pruned
    /// forward FFT, split at the sphere's bins, and given the diagonal
    /// kinetic term. The forward transform is unnormalized and the inverse
    /// carries `1/N`, so this is `H` in the unitary basis `c = Fψ/√N`
    /// without any further scaling.
    fn apply_block(
        &self,
        c: &[Complex64],
        grids: &mut [Complex64],
        images: &mut [Complex64],
        out: &mut [Complex64],
    ) {
        let (m, nr) = (self.sphere.len(), self.nr);
        let used = (c.len() / m).div_ceil(2) * nr;
        let (grids, images) = (&mut grids[..used], &mut images[..used]);
        for (grid, pair) in grids.chunks_exact_mut(nr).zip(c.chunks(2 * m)) {
            let (a, b) = pair.split_at(m);
            self.sphere.scatter(grid, a, (!b.is_empty()).then_some(b));
        }
        pruned_fft(&self.plan, &self.sphere, grids, true);
        self.potential_image(grids, images);
        self.split_images(images, out);
        for (o_row, c_row) in out.chunks_exact_mut(m).zip(c.chunks_exact(m)) {
            for ((o, z), &g2) in o_row.iter_mut().zip(c_row).zip(&self.sphere.g2) {
                *o += z.scale(HBAR2_OVER_2M * g2);
            }
        }
    }

    /// `out = F·(V_loc + V_nl)·phi` at the sphere's bins, for every
    /// real-space grid of `phi`: the potential half of `H` in the
    /// plane-wave basis. Every other bin of `out` is left partly
    /// transformed.
    fn potential_image(&self, phi: &[Complex64], out: &mut [Complex64]) {
        self.potential(phi, out);
        pruned_fft(&self.plan, &self.sphere, out, false);
    }

    /// Splits the packed images in the grids of `images` into one
    /// half-sphere row of `out` per band. Grid `k` holds `X = A + iB`, with
    /// `A` and `B` the transforms of real functions, and
    /// `A(G) = (X(G) + X(−G)*)/2` and `B(G) = (X(G) − X(−G)*)/2i` land in
    /// rows `2k` and `2k + 1` (an odd last row keeps `A` alone). Only the
    /// sphere's bins are read, and a self-conjugate bin gets a zero
    /// imaginary part exactly.
    fn split_images(&self, images: &[Complex64], out: &mut [Complex64]) {
        let m = self.sphere.len();
        for (grid, rows) in images.chunks_exact(self.nr).zip(out.chunks_mut(2 * m)) {
            let (a, b) = rows.split_at_mut(m);
            let mut b = (!b.is_empty()).then_some(b);
            let sphere = self.sphere.bins.iter().zip(&self.sphere.mirrors);
            for (j, (&g, &mg)) in sphere.enumerate() {
                let (x, y) = (grid[g], grid[mg]);
                a[j] = Complex64::new(0.5 * (x.re + y.re), 0.5 * (x.im - y.im));
                if let Some(b) = b.as_deref_mut() {
                    b[j] = Complex64::new(0.5 * (x.im + y.im), 0.5 * (y.re - x.re));
                }
            }
        }
    }

    /// `out` row `b` = `H·s` for the start vector `s = starts[b]`. A start
    /// vector's real-space form is a plane wave or its real or imaginary
    /// part, a product of one phase table per axis, so the packed grids are
    /// written into `grids` directly and only the forward FFT runs; the
    /// kinetic term lands on the start coefficients alone. A cos and sin
    /// pair packs to `√2` times the plane wave of its bin.
    fn unit_images(
        &self,
        starts: &[Start],
        grids: &mut [Complex64],
        images: &mut [Complex64],
        out: &mut [Complex64],
    ) {
        let nr = self.nr;
        let used = starts.len().div_ceil(2) * nr;
        let (grids, images) = (&mut grids[..used], &mut images[..used]);
        for (grid, pair) in grids.chunks_exact_mut(nr).zip(starts.chunks(2)) {
            grid.fill(Complex64::ZERO);
            for (part, &s) in pair.iter().enumerate() {
                self.write_start(s, grid, part == 1);
            }
        }
        self.potential_image(grids, images);
        self.split_images(images, out);
        for (row, s) in out.chunks_exact_mut(self.sphere.len()).zip(starts) {
            s.add_to(row, HBAR2_OVER_2M * self.sphere.g2[s.index()]);
        }
    }

    /// Writes `F⁻¹s` for one start vector `s` into the real part of the
    /// real-space grid `out`, or into its imaginary part with `imag`: the
    /// real part of the plane wave `F⁻¹e_g` for a self-conjugate bin, `√2`
    /// times its real or imaginary part for a cos or sin vector.
    fn write_start(&self, s: Start, out: &mut [Complex64], imag: bool) {
        let dims = self.plan.dims();
        let g = self.sphere.bins[s.index()];
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
            Start::Cos(_) | Start::Sin(_) => SQRT_2,
        } / self.nr as f64;
        let lines = tz
            .iter()
            .flat_map(|&z| ty.iter().map(move |&y| (z * y).scale(scale)));
        for (line, zy) in out.chunks_exact_mut(dims.nx).zip(lines) {
            for (v, &x) in line.iter_mut().zip(&tx) {
                let wave = zy * x;
                let value = match s {
                    Start::Sin(_) => wave.im,
                    Start::Unit(_) | Start::Cos(_) => wave.re,
                };
                if imag {
                    v.im = value;
                } else {
                    v.re = value;
                }
            }
        }
    }

    /// `out = (V_loc + V_nl)·φ` on the real-space grid, for every row of
    /// the block `phi`: the potential step [`apply`](Self::apply) (a block
    /// of one) and the coefficient-space applies share.
    fn potential(&self, phi: &[Complex64], out: &mut [Complex64]) {
        #[cfg(test)]
        tests::APPLY_CALLS.with(|c| c.set(c.get() + phi.len() / self.nr));
        // Local potential, pointwise.
        for (o_row, p_row) in out.chunks_exact_mut(self.nr).zip(phi.chunks_exact(self.nr)) {
            for ((o, p), &v) in o_row.iter_mut().zip(p_row).zip(&self.vloc) {
                *o = p.scale(v);
            }
        }
        // Nonlocal: Σ_a V_a φ, every atom projecting the unmodified φ.
        add_nonlocal(phi, self.nr, &self.pseudos, self.dv, out);
    }
}

/// Transforms every grid of `block` on `plan`, pruned to the sticks of
/// `sphere`: the inverse of bands scattered on the sphere, exact at every
/// point, or the forward, exact at the sphere's bins. An empty block is
/// left alone.
fn pruned_fft(plan: &Fft3Plan, sphere: &WaveSphere, block: &mut [Complex64], inverse: bool) {
    #[cfg(test)]
    tests::FFT_CALLS.with(|c| c.set(c.get() + block.len() / plan.dims().len()));
    if block.is_empty() {
        return;
    }
    if inverse {
        plan.inverse_pruned_batch(block, &sphere.sticks);
    } else {
        plan.forward_pruned_batch(block, &sphere.sticks);
    }
}

/// Takes the real bands whose half-sphere rows are `rows` back to real
/// space, two to a grid, in the first `⌈bands/2⌉` grids of `grids`
/// (clobbered), and returns those grids. Grid `k` holds bands `2k` and
/// `2k + 1` as its real and imaginary parts (an odd last band leaves a
/// zero imaginary part), scaled to `ψ = √N·F⁻¹c`, which keeps the unit
/// grid norm: one scatter per grid, one batched pruned inverse FFT.
fn to_real_space<'a>(
    plan: &Fft3Plan,
    sphere: &WaveSphere,
    rows: &[Complex64],
    grids: &'a mut [Complex64],
) -> &'a [Complex64] {
    let (m, nr) = (sphere.len(), plan.dims().len());
    let grids = &mut grids[..(rows.len() / m).div_ceil(2) * nr];
    for (grid, pair) in grids.chunks_exact_mut(nr).zip(rows.chunks(2 * m)) {
        let (a, b) = pair.split_at(m);
        sphere.scatter(grid, a, (!b.is_empty()).then_some(b));
    }
    pruned_fft(plan, sphere, grids, true);
    let sqrt_n = (nr as f64).sqrt();
    for z in grids.iter_mut() {
        *z = Complex64::new(sqrt_n * z.re, sqrt_n * z.im);
    }
    grids
}

/// Electron charge density `ρ(r) = Σ_b f_b |ψ_b(r)|²` of the bands whose
/// half-sphere rows are `orbitals`, normalized so that `Σ_r ρ(r)·dv`
/// equals the electron count (`Σ f_b` for grid-unit-norm orbitals scaled
/// by `1/dv`). The bands go to real space two to a grid in `grids` (at
/// least `⌈bands/2⌉` grids, clobbered), and every point sums them in band
/// order.
///
/// # Panics
///
/// Panics if shapes disagree.
fn charge_density(
    h: &KsHamiltonian,
    orbitals: &CMat,
    occupations: &[f64],
    grids: &mut [Complex64],
) -> Vec<f64> {
    assert_eq!(
        orbitals.rows(),
        occupations.len(),
        "one occupation per band"
    );
    let mut rho = vec![0.0f64; h.nr];
    let grids = to_real_space(&h.plan, &h.sphere, orbitals.as_slice(), grids);
    for (grid, f) in grids.chunks_exact(h.nr).zip(occupations.chunks(2)) {
        for (r, z) in rho.iter_mut().zip(grid) {
            // Grid-unit-norm orbitals: |ψ|² sums to 1 over the grid, so
            // dividing by dv makes ρ integrate (Σ ρ dv) to f per band.
            *r += f[0] * (z.re * z.re) / h.dv;
            if let Some(&f) = f.get(1) {
                *r += f * (z.im * z.im) / h.dv;
            }
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
/// Panics if `occupied > opts.bands`, `opts.bands` exceeds
/// [`SiliconSystem::wave_sphere_len`], `alpha` is not in (0, 1], or the
/// seed's orbital matrix does not have `opts.bands` rows of the system's
/// half-sphere.
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
    let occupations: Vec<f64> = (0..opts.bands)
        .map(|b| if b < occupied { 2.0 } else { 0.0 })
        .collect();

    let mut h = KsHamiltonian::new(system, opts);
    // The Hamiltonian already holds this system's plan and |G|² table;
    // every cycle's solve and Poisson step reuses them, and every solve
    // the start vectors and row blocks built here.
    let starts = start_vectors(&h.sphere, opts.bands);
    let m = h.sphere.len();
    let mut blocks = BandBlocks::new(opts.bands, m, h.nr);
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
                m,
                "seed orbitals must be rows of the system's half-sphere"
            );
            Cow::Borrowed(seed)
        }
        None => Cow::Owned(solve_bands(opts, &h, &starts, &mut blocks)?),
    };
    // The bare ground state's density is the first input density.
    let mut rho = charge_density(&h, &gs.orbitals, &occupations, blocks.grids(opts.bands, m));
    for _cycle in 0..cycles {
        let vh = hartree_in(&h.plan, &h.g2, &rho);
        for ((v, b), htr) in h.vloc.iter_mut().zip(&bare_vloc).zip(&vh) {
            *v = *b + *htr;
        }
        gs = Cow::Owned(solve_bands(opts, &h, &starts, &mut blocks)?);
        let rho_out = charge_density(&h, &gs.orbitals, &occupations, blocks.grids(opts.bands, m));
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
/// # Panics
///
/// Panics if `opts.bands` exceeds [`SiliconSystem::wave_sphere_len`].
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
/// Panics if `h` was built on a grid other than `system`'s, or if
/// `opts.bands` exceeds [`SiliconSystem::wave_sphere_len`].
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
    let starts = start_vectors(&h.sphere, opts.bands);
    let mut blocks = BandBlocks::new(opts.bands, h.sphere.len(), h.nr);
    solve_bands(opts, h, &starts, &mut blocks)
}

/// A real start vector of the band solve, in the unitary plane-wave
/// basis, at a coefficient `j` of the half-sphere.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Start {
    /// `e_g` at a self-conjugate bin (`G = 0` or a Nyquist bin).
    Unit(usize),
    /// `c(G) = 1/√2` at a ±G pair: `√2·cos(G·r)` in real space.
    Cos(usize),
    /// `c(G) = −i/√2` at a ±G pair: `√2·sin(G·r)` in real space.
    Sin(usize),
}

impl Start {
    /// The coefficient `j` the vector is built on.
    fn index(self) -> usize {
        match self {
            Start::Unit(j) | Start::Cos(j) | Start::Sin(j) => j,
        }
    }

    /// `⟨s|x⟩` for a half-sphere row `x`: one element read.
    fn dot(self, x: &[Complex64]) -> f64 {
        match self {
            Start::Unit(j) => x[j].re,
            Start::Cos(j) => SQRT_2 * x[j].re,
            Start::Sin(j) => -SQRT_2 * x[j].im,
        }
    }

    /// `x ← x + a·s`.
    fn add_to(self, x: &mut [Complex64], a: f64) {
        match self {
            Start::Unit(j) => x[j].re += a,
            Start::Cos(j) => x[j].re += a * FRAC_1_SQRT_2,
            Start::Sin(j) => x[j].im -= a * FRAC_1_SQRT_2,
        }
    }

    /// `x ← x − ⟨s|x⟩·s`, exactly: the part of `x` that `s` spans is
    /// zeroed.
    fn project_out(self, x: &mut [Complex64]) {
        match self {
            Start::Unit(j) | Start::Cos(j) => x[j].re = 0.0,
            Start::Sin(j) => x[j].im = 0.0,
        }
    }
}

/// The `nb` real start vectors of a band solve. Walking the sphere's
/// coefficients by ascending `|G|²`: the unit vector of a self-conjugate
/// bin, and the cos then the sin vector of a ±G pair, so the first pair
/// the band count cuts keeps its cos half.
///
/// # Panics
///
/// Panics if `nb` exceeds the real dimension of the sphere.
fn start_vectors(sphere: &WaveSphere, nb: usize) -> Vec<Start> {
    assert!(
        nb <= sphere.dim(),
        "more bands than the wavefunction sphere holds"
    );
    let mut starts = Vec::with_capacity(nb + 1);
    for j in 0..sphere.len() {
        if starts.len() >= nb {
            break;
        }
        if sphere.self_conjugate.contains(&j) {
            starts.push(Start::Unit(j));
        } else {
            starts.extend([Start::Cos(j), Start::Sin(j)]);
        }
    }
    starts.truncate(nb);
    starts
}

/// `y ← y + α·x` for a real `α`.
fn real_axpy(alpha: f64, x: &[Complex64], y: &mut [Complex64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        yi.re += alpha * xi.re;
        yi.im += alpha * xi.im;
    }
}

/// `x_b ← Σ_j c(j, b)·x_j + Σ_j c(n + j, b)·y_j` for every row `x_b` of
/// `x` (`n` rows of `len`), in place, over the rows `y_j` of `y`; with
/// `keep_x` false the old rows of `x` count as zero.
fn rotate_rows(c: &Mat, x: &mut [Complex64], keep_x: bool, y: &[Complex64], len: usize) {
    let n = x.len() / len;
    let mut out = vec![Complex64::ZERO; x.len()];
    for (b, acc) in out.chunks_exact_mut(len).enumerate() {
        if keep_x {
            for (j, xj) in x.chunks_exact(len).enumerate() {
                real_axpy(c[(j, b)], xj, acc);
            }
        }
        for (j, yj) in y.chunks_exact(len).enumerate() {
            real_axpy(c[(n + j, b)], yj, acc);
        }
    }
    x.copy_from_slice(&out);
}

/// Scales the half-sphere row `x` to unit norm and returns its old norm;
/// a zero row is left as is.
fn normalize(self_conjugate: &[usize], x: &mut [Complex64]) -> f64 {
    let n = half_sphere_dot(self_conjugate, x, x).sqrt();
    if n > f64::MIN_POSITIVE {
        let inv = 1.0 / n;
        for z in x.iter_mut() {
            *z = z.scale(inv);
        }
    }
    n
}

/// The row blocks of a band solve of `nb` bands, in one allocation: the
/// bands ψ and H·ψ, the new directions W and H·W (half-sphere rows), and
/// two sets of `⌈nb/2⌉` grids: the packed bands of every H application and
/// of the density's return to real space, and their potential images. A
/// self-consistent run allocates them once for all of its solves and
/// densities.
///
/// One allocation also keeps the pages resident from job to job: when a
/// mapped block is freed, glibc raises its mmap threshold to that block's
/// size and its trim threshold to twice that, so the next buffer this
/// size is recycled from the heap instead of being faulted in afresh. On
/// seeded self-consistent jobs at the sweep shapes, minor page faults per
/// job fell from 460–1500 to under 100 at four of the five shapes.
struct BandBlocks(Vec<Complex64>);

impl BandBlocks {
    fn new(nb: usize, m: usize, nr: usize) -> Self {
        BandBlocks(vec![Complex64::ZERO; 4 * nb * m + 2 * nb.div_ceil(2) * nr])
    }

    /// ψ, H·ψ, W, H·W (`nb` rows of `m` each), the packed grids and their
    /// images (`⌈nb/2⌉` grids of `nr` each).
    fn split(&mut self, nb: usize, m: usize) -> [&mut [Complex64]; 6] {
        let (psi, rest) = self.0.split_at_mut(nb * m);
        let (hpsi, rest) = rest.split_at_mut(nb * m);
        let (w, rest) = rest.split_at_mut(nb * m);
        let (hw, rest) = rest.split_at_mut(nb * m);
        let (grids, images) = rest.split_at_mut(rest.len() / 2);
        [psi, hpsi, w, hw, grids, images]
    }

    /// The packed grids alone.
    fn grids(&mut self, nb: usize, m: usize) -> &mut [Complex64] {
        let [.., grids, _] = self.split(nb, m);
        grids
    }
}

/// Row `b` of a block of rows `len` long.
fn row(block: &[Complex64], b: usize, len: usize) -> &[Complex64] {
    &block[b * len..(b + 1) * len]
}

/// Row `b` of a block of rows `len` long, mutably.
fn row_mut(block: &mut [Complex64], b: usize, len: usize) -> &mut [Complex64] {
    &mut block[b * len..(b + 1) * len]
}

/// The band solve behind [`run_scf_in`], started from the real vectors
/// `starts` (one per band, from [`start_vectors`]) in the row blocks
/// `blocks` (built for as many bands).
///
/// Works on half-sphere plane-wave coefficients throughout (see the module
/// docs) and returns the bands as those rows, sorted by energy.
fn solve_bands(
    opts: &ScfOptions,
    h: &KsHamiltonian,
    starts: &[Start],
    blocks: &mut BandBlocks,
) -> Result<GroundState, EigError> {
    let m = h.sphere.len();
    let nb = opts.bands;
    let sc = &h.sphere.self_conjugate;
    let [psi, hpsi, w, hw, grids, images] = blocks.split(nb, m);

    // Initial guess: the real start vectors and their H-images. Until the
    // first rotation a product with ψ is an element read (`Start::dot`).
    psi.fill(Complex64::ZERO);
    for (b, s) in starts.iter().enumerate() {
        s.add_to(row_mut(psi, b, m), 1.0);
    }
    h.unit_images(starts, grids, images, hpsi);
    let mut unit_start = true;

    let mut energies = vec![0.0f64; nb];
    let mut residuals = vec![0.0f64; nb];
    let mut iterations = 0;
    loop {
        // Rayleigh quotients and residuals from the carried H·ψ; the
        // preconditioned residuals (the preconditioner is diagonal in G)
        // are the new search directions. A pair's coefficient counts twice
        // in the residual norm, a self-conjugate one once.
        for b in 0..nb {
            let (p, hp) = (row(psi, b, m), row(hpsi, b, m));
            let e = if unit_start {
                starts[b].dot(hp)
            } else {
                half_sphere_dot(sc, p, hp)
            };
            let mut norm_sqr = 0.0;
            let dirs = row_mut(w, b, m).iter_mut().zip(hp).zip(p);
            for (((d, hz), z), &g2) in dirs.zip(&h.sphere.g2) {
                let r = *hz - z.scale(e);
                norm_sqr += r.norm_sqr();
                *d = r.scale(1.0 / (1.0 + HBAR2_OVER_2M * g2));
            }
            let once: f64 = sc.iter().map(|&j| (hp[j] - p[j].scale(e)).norm_sqr()).sum();
            energies[b] = e;
            residuals[b] = (2.0 * norm_sqr - once).sqrt();
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
        // part of one coefficient.
        if unit_start {
            for d in w.chunks_exact_mut(m) {
                for s in starts {
                    s.project_out(d);
                }
            }
        }
        let basis = if unit_start { &[][..] } else { &psi[..] };
        let nw = orthonormalize_against(basis, w, m, sc);
        let (w_new, hw_new) = (&w[..nw * m], &mut hw[..nw * m]);
        // H is applied to the new directions only, as one block.
        h.apply_block(w_new, grids, images, hw_new);
        // Rayleigh–Ritz in the trial space, computing only the entries of
        // the real symmetric H_sub that are not already known: after a
        // Ritz rotation ψᵀHψ is diag(ε); WᵀHψ gives both off-diagonal
        // blocks; WᵀHW needs one triangle.
        let dim = nb + nw;
        let mut hsub = Mat::zeros(dim, dim);
        for i in 0..nb {
            for j in 0..nb {
                hsub[(i, j)] = if unit_start {
                    starts[i].dot(row(hpsi, j, m))
                } else if i == j {
                    energies[i]
                } else {
                    0.0
                };
            }
        }
        for i in 0..nw {
            let wi = row(w_new, i, m);
            for j in 0..nb {
                let x = if unit_start {
                    starts[j].dot(row(hw_new, i, m))
                } else {
                    half_sphere_dot(sc, wi, row(hpsi, j, m))
                };
                hsub[(nb + i, j)] = x;
                hsub[(j, nb + i)] = x;
            }
            for j in i..nw {
                let x = half_sphere_dot(sc, wi, row(hw_new, j, m));
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
        rotate_rows(&eig.vectors, psi, !unit_start, w_new, m);
        if unit_start {
            for b in 0..nb {
                for (j, s) in starts.iter().enumerate() {
                    s.add_to(row_mut(psi, b, m), eig.vectors[(j, b)]);
                }
            }
        }
        if !last {
            rotate_rows(&eig.vectors, hpsi, true, hw_new, m);
        }
        for b in 0..nb {
            // A unit coefficient vector over an orthonormal basis: the
            // norm is ≈ 1, never 0.
            let inv = 1.0 / normalize(sc, row_mut(psi, b, m));
            if !last {
                for z in row_mut(hpsi, b, m) {
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
    let mut orbitals = CMat::zeros(nb, m);
    for (out, &i) in orbitals.as_mut_slice().chunks_exact_mut(m).zip(&idx) {
        out.copy_from_slice(row(psi, i, m));
    }
    Ok(GroundState {
        energies_ev: idx.iter().map(|&i| energies[i]).collect(),
        orbitals,
        residuals: idx.iter().map(|&i| residuals[i]).collect(),
        iterations,
    })
}

/// Orthonormalizes the half-sphere rows of `dirs` (each `len` long)
/// against the orthonormal rows of `basis` and against each other by
/// modified Gram–Schmidt, in place, in the inner product whose
/// self-conjugate coefficients sit at `self_conjugate`. Every row is a
/// real band, so the projections are real. A direction whose remainder
/// falls below `1e-12` (the cut of [`ndft_numerics::vecops::mgs_orthonormalize`]) is
/// dropped; the survivors are packed to the front in their original
/// order, and their count is returned.
///
/// Every direction is projected twice ("twice is enough", Giraud et al.
/// 2005). One pass leaves a remainder about as far from orthogonal as the
/// rounding of what it cancelled, and on a long solve the new directions
/// lie nearly inside the span of `ψ`. A trial basis that skews over the
/// updates lets the Ritz values fall below the spectrum.
fn orthonormalize_against(
    basis: &[Complex64],
    dirs: &mut [Complex64],
    len: usize,
    self_conjugate: &[usize],
) -> usize {
    let mut kept = 0;
    for b in 0..dirs.len() / len {
        if b != kept {
            dirs.copy_within(b * len..(b + 1) * len, kept * len);
        }
        let (done, rest) = dirs.split_at_mut(kept * len);
        let d = &mut rest[..len];
        for _pass in 0..2 {
            for q in basis.chunks_exact(len).chain(done.chunks_exact(len)) {
                real_axpy(-half_sphere_dot(self_conjugate, q, d), q, d);
            }
        }
        if normalize(self_conjugate, d) > 1e-12 {
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
        // pair of start vectors. The bands stay in plane waves at the end.
        // An odd count leaves one vector alone in its grid.
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
                    assert_eq!(ffts, grids * (2 * k + 1), "{case}");
                    let orbitals = gs.real_space_orbitals(&sys);
                    for (b, &e) in gs.energies_ev.iter().enumerate() {
                        let fresh = h.expectation(orbitals.row(b));
                        assert!(
                            (e - fresh).abs() <= 1e-10 * fresh.abs(),
                            "{case}, band {b}: rotated {e} vs recomputed {fresh}"
                        );
                    }
                    for i in 0..bands {
                        for j in 0..bands {
                            let d = vecops::dot(orbitals.row(i), orbitals.row(j));
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
        let orbitals = gs.real_space_orbitals(&sys);
        let nb = orbitals.rows();
        let mut gram_error = 0.0f64;
        for i in 0..nb {
            for j in 0..nb {
                let d = vecops::dot(orbitals.row(i), orbitals.row(j));
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
        assert_eq!(FFT_CALLS.with(Cell::get) - ffts, 2 * 13);
        assert!(gs.max_residual() < opts.residual_tolerance);
        let orbitals = gs.real_space_orbitals(&sys);
        for (b, (&e, &res)) in gs.energies_ev.iter().zip(&gs.residuals).enumerate() {
            let psi = orbitals.row(b);
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
        // On a sphere that holds every bin, the solve is the full-grid one
        // the real-space solver matched. A solve that converges before its
        // cap returns the orbitals of its last update: the real-space
        // solve capped at that count.
        let mut converged_early = 0;
        for &(atoms, bands, iters, _) in &REAL_SPACE_ENERGIES {
            let sys = SiliconSystem::new(atoms).unwrap();
            let opts = small_opts(bands, iters);
            let gs = run_scf_in(&sys, &opts, &KsHamiltonian::full_grid(&sys, &opts)).unwrap();
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
    /// occupied, 2 cycles at α = 0.5), recorded from the solve on the
    /// wavefunction sphere. The rows with 2 bands occupy the cos half of
    /// the first ±G pair, a standing wave. The full-grid solve put every
    /// energy 2.1e-5 to 5.8e-5 eV lower and every density residual within
    /// 2.3e-4 of these, relative.
    #[rustfmt::skip]
    const SELF_CONSISTENT_PIN: [(usize, usize, &[f64], &[f64]); 5] = [
        (8, 2, &[-2.5575253388500054, 3.0080269308936316], &[0.05127979644554565, 0.018598539248969353]),
        (8, 3, &[-2.537380122608354, 2.8164863881428146, 2.8164863881428173], &[0.06047066280706457, 0.020962402511413486]),
        (16, 2, &[-2.612988161806659, -0.8795888501508546], &[0.12717204539328505, 0.03876565569589559]),
        (16, 3, &[-2.562647046006068, -1.20288481038715, -1.2028848103871472], &[0.016903951131570196, 0.00748547664881062]),
        (24, 2, &[-2.6346031072368907, -1.711011682678115], &[0.3675666793356404, 0.012945150168496154]),
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

    /// Converged solves (tolerance 1e-7, cap 200) of `bands` bands of
    /// Si_`atoms` on the production sphere and on the full-grid oracle.
    fn converged_on_both(atoms: usize, bands: usize) -> (GroundState, GroundState) {
        let sys = SiliconSystem::new(atoms).unwrap();
        let opts = ScfOptions {
            residual_tolerance: 1e-7,
            ..small_opts(bands, 200)
        };
        let sphere = run_scf(&sys, &opts).unwrap();
        let full = run_scf_in(&sys, &opts, &KsHamiltonian::full_grid(&sys, &opts)).unwrap();
        for gs in [&sphere, &full] {
            assert!(
                gs.max_residual() < opts.residual_tolerance,
                "Si_{atoms}, {bands} bands: max residual {:e}",
                gs.max_residual()
            );
        }
        (sphere, full)
    }

    /// Asserts that every converged sphere energy lies at or above the
    /// full-grid one (a subspace is variational) and returns the largest
    /// shift in eV. Both are Ritz values of converged solves, so each
    /// is within rounding of its operator's eigenvalue.
    fn largest_upward_shift(sphere: &GroundState, full: &GroundState, case: &str) -> f64 {
        let mut worst = 0.0f64;
        for (b, (&e, &x)) in sphere.energies_ev.iter().zip(&full.energies_ev).enumerate() {
            assert!(
                e >= x - 1e-10,
                "{case}, band {b}: {e} eV below the full grid's {x}"
            );
            worst = worst.max(e - x);
        }
        worst
    }

    #[test]
    fn sphere_energies_lie_just_above_the_full_grid_and_converge_as_fast() {
        // Every scf_sweep GroundState shape; the bands of the
        // self-consistent shapes are among them.
        for atoms in [8, 16, 24] {
            for bands in [2, 3, 4] {
                let case = format!("Si_{atoms}, {bands} bands");
                let (sphere, full) = converged_on_both(atoms, bands);
                let shift = largest_upward_shift(&sphere, &full, &case);
                assert!(shift <= 1e-4, "{case}: shift {shift:e} eV");
                assert!(
                    sphere.iterations <= full.iterations,
                    "{case}: {} updates on the sphere, {} on the full grid",
                    sphere.iterations,
                    full.iterations
                );
            }
        }
    }

    #[test]
    fn sphere_energies_never_fall_below_the_full_grid_on_random_shapes() {
        let mut s = 0x5a4e_7e5e_u64;
        let mut draw = |n: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % n) as usize
        };
        for _ in 0..4 {
            let (atoms, bands) = ([8, 16, 24][draw(3)], 1 + draw(8));
            let (sphere, full) = converged_on_both(atoms, bands);
            largest_upward_shift(&sphere, &full, &format!("Si_{atoms}, {bands} bands"));
        }
    }

    #[test]
    fn plane_wave_apply_matches_real_space_apply() {
        // apply_block(c) ≡ F·apply(F⁻¹c) at the sphere's bins, on seeded
        // random real bands: a packed pair and a lone third.
        for (atoms, seed) in [(8, 0xc0ef_0008u64), (16, 0xc0ef_0016), (24, 0xc0ef_0024)] {
            let sys = SiliconSystem::new(atoms).unwrap();
            let h = KsHamiltonian::new(&sys, &ScfOptions::default());
            let (m, nr) = (h.sphere.len(), h.nr);
            let c = random_real_bands(&h, 3, seed);
            let mut grids = vec![Complex64::ZERO; 2 * nr];
            let mut images = grids.clone();
            let mut fast = vec![Complex64::ZERO; 3 * m];
            h.apply_block(&c, &mut grids, &mut images, &mut fast);
            for (r, (row, got)) in c.chunks_exact(m).zip(fast.chunks_exact(m)).enumerate() {
                let mut psi = vec![Complex64::ZERO; nr];
                h.sphere.scatter(&mut psi, row, None);
                h.plan.inverse(&mut psi);
                let mut slow = h.apply(&psi);
                h.plan.forward(&mut slow);
                let mut expect = vec![Complex64::ZERO; m];
                h.split_images(&slow, &mut expect);
                let diff: Vec<Complex64> = got.iter().zip(&expect).map(|(a, b)| *a - *b).collect();
                let rel = vecops::norm(&diff) / vecops::norm(&expect);
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
        // come from three per-axis phase tables. The coefficients cover the
        // lowest shells, the sphere's surface (negative frequencies on
        // every axis among them), a Nyquist bin of the full-grid sphere,
        // and both packings: a cos and sin pair of one coefficient, and
        // vectors of two coefficients sharing a grid.
        for atoms in [8, 16, 24] {
            let sys = SiliconSystem::new(atoms).unwrap();
            let opts = ScfOptions::default();
            let full = KsHamiltonian::full_grid(&sys, &opts);
            for h in [KsHamiltonian::new(&sys, &opts), full] {
                let (m, nr) = (h.sphere.len(), h.nr);
                let mut starts = start_vectors(&h.sphere, 7);
                let sc = &h.sphere.self_conjugate;
                let last_pair = (0..m).rev().find(|j| !sc.contains(j)).unwrap();
                for j in [last_pair, m / 2 + 3] {
                    assert!(!sc.contains(&j));
                    starts.extend([Start::Sin(j), Start::Cos(j)]);
                }
                let grid = sys.grid();
                let nyquist = grid.index(grid.nx / 2, 0, 0);
                if let Some(j) = h.sphere.bins.iter().position(|&g| g == nyquist) {
                    assert!(h.sphere.self_conjugate.contains(&j));
                    starts.push(Start::Unit(j));
                } else {
                    assert_eq!(h.sphere.self_conjugate, [0], "Si_{atoms}");
                }
                let mut grids = vec![Complex64::ZERO; starts.len().div_ceil(2) * nr];
                let mut images = grids.clone();
                let mut got = vec![Complex64::ZERO; starts.len() * m];
                h.unit_images(&starts, &mut grids, &mut images, &mut got);
                let mut dense = vec![Complex64::ZERO; starts.len() * m];
                for (row, s) in dense.chunks_exact_mut(m).zip(&starts) {
                    s.add_to(row, 1.0);
                }
                let mut applied = vec![Complex64::ZERO; starts.len() * m];
                h.apply_block(&dense, &mut grids, &mut images, &mut applied);
                for ((image, expect), s) in got
                    .chunks_exact(m)
                    .zip(applied.chunks_exact(m))
                    .zip(&starts)
                {
                    let diff: Vec<Complex64> =
                        image.iter().zip(expect).map(|(a, b)| *a - *b).collect();
                    let rel = vecops::norm(&diff) / vecops::norm(expect);
                    assert!(
                        rel <= 1e-12,
                        "Si_{atoms}, {m} coefficients, {s:?}: relative difference {rel:e}"
                    );
                }
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
            let (m, nr) = (h.sphere.len(), h.nr);
            for k in 1..=5 {
                let c = random_real_bands(&h, k, seed + k as u64);
                let mut grids = vec![Complex64::ZERO; k.div_ceil(2) * nr];
                let mut images = grids.clone();
                let mut block = vec![Complex64::ZERO; k * m];
                h.apply_block(&c, &mut grids, &mut images, &mut block);
                for (p, (pair, got)) in c.chunks(2 * m).zip(block.chunks(2 * m)).enumerate() {
                    let mut expect = vec![Complex64::ZERO; pair.len()];
                    h.apply_block(pair, &mut grids, &mut images, &mut expect);
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
            for gs in [&gs, &sc] {
                assert_eq!(gs.orbitals.rows(), bands, "{case}");
                let orbitals = gs.real_space_orbitals(&sys);
                assert_orbitals_real_and_orthonormal(&h, &orbitals, &case);
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
            let scale = 1.0 / (h.nr as f64).sqrt();
            let worst = minus_g_bins(h.plan.dims())
                .iter()
                .enumerate()
                .map(|(g, &m)| (c[m] - c[g].conj()).abs() * scale)
                .fold(0.0f64, f64::max);
            assert!(
                worst <= 1e-12,
                "{case}, band {b}: |c(−G) − c(G)*| = {worst:e}"
            );
            // Band-limited to the sphere.
            for &g in h.sphere.bins.iter().chain(&h.sphere.mirrors) {
                c[g] = Complex64::ZERO;
            }
            let outside = vecops::norm(&c) * scale;
            assert!(
                outside <= 1e-12 * norm,
                "{case}, band {b}: weight {outside:e} outside the sphere"
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
        // Every coefficient self-conjugate: the plain real inner product.
        let kept = orthonormalize_against(&e(0), &mut dirs, 4, &[0, 1, 2, 3]);
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
        let orbitals = gs.real_space_orbitals(&sys);
        let nb = orbitals.rows();
        for i in 0..nb {
            for j in 0..nb {
                let d = vecops::dot(orbitals.row(i), orbitals.row(j));
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
        let opts = small_opts(4, 2);
        let h = KsHamiltonian::new(&sys, &opts);
        let gs = run_scf_in(&sys, &opts, &h).unwrap();
        let dv = h.dv;
        let occ = vec![2.0, 2.0, 2.0, 2.0];
        let mut grids = vec![Complex64::ZERO; 2 * h.nr];
        let rho = charge_density(&h, &gs.orbitals, &occ, &mut grids);
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

    /// The real-space orbitals of a ground state of `sys`, one per row.
    fn grid_orbitals(gs: &GroundState, sys: &SiliconSystem) -> CMat {
        gs.real_space_orbitals(sys)
    }

    /// FNV-1a over the bit patterns of every value, real part first.
    fn bit_hash(values: impl IntoIterator<Item = f64>) -> u64 {
        values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            v.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        })
    }

    fn orbital_hash(orbitals: &CMat) -> u64 {
        bit_hash(orbitals.as_slice().iter().flat_map(|z| [z.re, z.im]))
    }

    #[test]
    fn real_space_orbitals_and_density_bits_are_pinned() {
        // The bits of the real-space orbitals of three GroundState sweep
        // shapes (atoms, bands, cap), and of the orbitals and density of
        // the Si_24 self-consistent shape (2 bands, cap 2, 2 cycles at
        // α = 0.5). Whatever path takes the bands back to real space must
        // reproduce them exactly.
        for (atoms, bands, cap, expect) in [
            (8, 2, 2, 0x1b3f_0757_5179_a0acu64),
            (16, 3, 3, 0x2db7_a266_31c4_8d6b),
            (24, 4, 4, 0x6735_723d_a5d5_0b31),
        ] {
            let sys = SiliconSystem::new(atoms).unwrap();
            let gs = run_scf(&sys, &small_opts(bands, cap)).unwrap();
            let orbitals = grid_orbitals(&gs, &sys);
            assert_eq!(
                (orbitals.rows(), orbitals.cols()),
                (bands, sys.grid().len())
            );
            assert_eq!(
                orbital_hash(&orbitals),
                expect,
                "Si_{atoms}, {bands} bands, cap {cap}"
            );
        }
        let sys = SiliconSystem::new(24).unwrap();
        let r = run_scf_selfconsistent(&sys, &small_opts(2, 2), 2, 2, 0.5, None).unwrap();
        assert_eq!(
            orbital_hash(&grid_orbitals(&r.ground_state, &sys)),
            0x84d7_9e43_4a0c_5ef1
        );
        assert_eq!(bit_hash(r.density.iter().copied()), 0x1a0f_e38f_ae0f_02fe);
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
    fn an_expansion_or_a_density_runs_one_inverse_fft_per_pair_of_bands() {
        // A ground state holds each band as its half-sphere row; taking
        // the bands to real space, for the caller or for the density,
        // runs one pruned inverse FFT per pair of bands, an odd last band
        // alone in its grid, and never applies H.
        let sys = SiliconSystem::new(8).unwrap();
        for bands in 1..=5 {
            let opts = small_opts(bands, 1);
            let h = KsHamiltonian::new(&sys, &opts);
            let gs = run_scf_in(&sys, &opts, &h).unwrap();
            assert_eq!((gs.orbitals.rows(), gs.orbitals.cols()), (bands, 258));
            let mut grids = vec![Complex64::ZERO; bands.div_ceil(2) * h.nr];
            let occupations = vec![2.0; bands];
            let (applies, ffts) = (APPLY_CALLS.with(Cell::get), FFT_CALLS.with(Cell::get));
            let orbitals = gs.real_space_orbitals(&sys);
            assert_eq!(FFT_CALLS.with(Cell::get) - ffts, bands.div_ceil(2));
            let rho = charge_density(&h, &gs.orbitals, &occupations, &mut grids);
            assert_eq!(FFT_CALLS.with(Cell::get) - ffts, 2 * bands.div_ceil(2));
            assert_eq!(APPLY_CALLS.with(Cell::get), applies);
            assert_eq!((orbitals.rows(), orbitals.cols()), (bands, h.nr));
            for (r, &x) in rho.iter().enumerate() {
                let sum: f64 = (0..bands)
                    .map(|b| 2.0 * orbitals[(b, r)].norm_sqr() / h.dv)
                    .sum();
                assert_eq!(x.to_bits(), sum.to_bits(), "{bands} bands, point {r}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "seed orbitals must be rows of the system's half-sphere")]
    fn seed_on_the_real_space_grid_is_rejected() {
        let sys = SiliconSystem::new(8).unwrap();
        let mut seed = run_scf(&sys, &small_opts(2, 2)).unwrap();
        seed.orbitals = seed.real_space_orbitals(&sys);
        let _ = run_scf_selfconsistent(&sys, &small_opts(2, 2), 2, 1, 0.5, Some(&seed));
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

    /// `rows` seeded random unit real bands on the half-sphere: random
    /// coefficients, with a zero imaginary part at every self-conjugate
    /// bin.
    fn random_real_bands(h: &KsHamiltonian, rows: usize, seed: u64) -> Vec<Complex64> {
        let (m, sc) = (h.sphere.len(), &h.sphere.self_conjugate);
        let mut out = Vec::with_capacity(rows * m);
        for r in 0..rows {
            let mut row = random_unit(m, seed + r as u64);
            for &j in sc {
                row[j].im = 0.0;
            }
            normalize(sc, &mut row);
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
            let a = random_unit(h.nr, seed);
            let b = random_unit(h.nr, !seed);
            let lhs = vecops::dot(&b, &h.apply(&a));
            let rhs = vecops::dot(&a, &h.apply(&b)).conj();
            assert!(
                (lhs - rhs).abs() <= 1e-12 * lhs.abs(),
                "Si_{atoms}: {lhs:?} vs {rhs:?}"
            );
        }
    }
}
