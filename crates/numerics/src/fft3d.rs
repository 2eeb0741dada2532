//! Three-dimensional complex FFT over row-major grids.
//!
//! Plane-wave DFT codes transform wavefunctions between real space and
//! reciprocal space with 3-D FFTs on the simulation grid. The transform is
//! separable: one 1-D FFT along each axis. Data is stored row-major with
//! `x` fastest: `index = (z * ny + y) * nx + x`.
//!
//! All three axes run the multi-lane Stockham kernel of [`crate::fft`].
//! The x-lines are a z-slab's `ny` contiguous rows: the slab is transposed
//! into scratch so that they become `ny` interleaved lanes of length `nx`,
//! transformed together, and transposed back. Each butterfly then works
//! on a run of `ny` values instead of a lone value (`lanes = 1`), and each
//! lane does exactly the arithmetic of a lone row, so the result is
//! bit-identical to transforming the rows one at a time. The y- and
//! z-passes need no gather: within a z-slab, the y-lines are the slab's
//! `nx` columns, so the slab is transformed as `ny` rows of `nx` lanes and
//! every butterfly operand is a whole row; the z-lines are the grid's
//! `nx·ny` columns, so the grid is transformed as `nz` planes of `nx·ny`
//! lanes. One scratch buffer of one grid, and never less than two slabs
//! (the transposed slab plus the kernel's ping-pong half), serves every
//! pass of a transform and every grid of a batch. The inverse is the
//! forward transform of the conjugate (taken as the x-pass gathers its
//! rows), then a conjugate-and-`1/(nx·ny·nz)` pass.
//!
//! A [`StickMap`] prunes a transform to the x-rows a set of bins meets, as
//! plane-wave codes do for a wavefunction cutoff sphere: the pruned
//! inverse skips the rows and slabs that are zero, and the pruned forward
//! computes only the map's rows. Each pass skips whole rows or slabs, so
//! the lane layout is unchanged.

use crate::counters::{KernelCost, C64_BYTES};
use crate::fft::{conj_scale_all, FftPlan};
use crate::Complex64;
use std::ops::Range;

/// Dimensions of a 3-D grid.
///
/// # Examples
///
/// ```
/// use ndft_numerics::GridDims;
/// let dims = GridDims::new(4, 6, 8);
/// assert_eq!(dims.len(), 192);
/// assert_eq!(dims.index(1, 2, 3), (3 * 6 + 2) * 4 + 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridDims {
    /// Points along x (fastest-varying).
    pub nx: usize,
    /// Points along y.
    pub ny: usize,
    /// Points along z (slowest-varying).
    pub nz: usize,
}

impl GridDims {
    /// Creates grid dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "grid dimensions must be positive"
        );
        GridDims { nx, ny, nz }
    }

    /// Total number of grid points.
    #[inline]
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// True when the grid holds no points (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear index of grid point `(x, y, z)`.
    #[inline]
    pub fn index(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        (z * self.ny + y) * self.nx + x
    }
}

/// The sticks of a set of bins on a 3-D grid, as plane-wave codes keep
/// them for a cutoff sphere: the x-rows `(y, z)` that hold at least one
/// bin, grouped by z-slab. A transform pruned to the map
/// ([`Fft3Plan::inverse_pruned_batch`], [`Fft3Plan::forward_pruned_batch`])
/// skips every other x-row and every slab the map does not meet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StickMap {
    dims: GridDims,
    /// The y of every row that holds a bin, slab by slab, ascending.
    rows: Vec<usize>,
    /// Every slab that holds a bin: its z and the range of its rows in
    /// `rows`.
    slabs: Vec<(usize, Range<usize>)>,
}

impl StickMap {
    /// The map of the linear bin indices `bins` on a grid of `dims`.
    ///
    /// # Panics
    ///
    /// Panics if a bin lies outside the grid.
    pub fn new(dims: GridDims, bins: impl IntoIterator<Item = usize>) -> Self {
        let GridDims { nx, ny, nz } = dims;
        let mut hit = vec![false; ny * nz];
        for g in bins {
            assert!(g < dims.len(), "bin {g} outside the grid");
            hit[g / nx] = true;
        }
        let mut rows = Vec::new();
        let mut slabs = Vec::new();
        for (z, slab) in hit.chunks_exact(ny).enumerate() {
            let start = rows.len();
            rows.extend((0..ny).filter(|&y| slab[y]));
            if rows.len() > start {
                slabs.push((z, start..rows.len()));
            }
        }
        StickMap { dims, rows, slabs }
    }

    /// 1-D transforms one pruned 3-D transform runs: one per row of the
    /// map, `nx` per slab of the map, and `nx·ny` along z. A full transform
    /// runs `ny·nz + nx·nz + nx·ny`.
    #[cfg(test)]
    fn lines(&self) -> usize {
        let GridDims { nx, ny, .. } = self.dims;
        self.rows.len() + nx * self.slabs.len() + nx * ny
    }

    /// Every slab of the map: its z and the ys of its rows.
    fn slabs(&self) -> impl Iterator<Item = (usize, &[usize])> {
        self.slabs
            .iter()
            .map(|(z, range)| (*z, &self.rows[range.clone()]))
    }
}

/// A reusable 3-D FFT plan.
///
/// # Examples
///
/// ```
/// use ndft_numerics::{Complex64, Fft3Plan, GridDims};
///
/// let plan = Fft3Plan::new(GridDims::new(4, 4, 4));
/// let mut field = vec![Complex64::ONE; 64];
/// plan.forward(&mut field);
/// assert!((field[0].re - 64.0).abs() < 1e-9); // DC bin carries everything
/// plan.inverse(&mut field);
/// assert!((field[5].re - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Fft3Plan {
    dims: GridDims,
    plan_x: FftPlan,
    plan_y: FftPlan,
    plan_z: FftPlan,
}

impl Fft3Plan {
    /// Creates a plan for the given grid dimensions.
    pub fn new(dims: GridDims) -> Self {
        Fft3Plan {
            dims,
            plan_x: FftPlan::new(dims.nx),
            plan_y: FftPlan::new(dims.ny),
            plan_z: FftPlan::new(dims.nz),
        }
    }

    /// Grid dimensions this plan was built for.
    #[inline]
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// In-place forward (unnormalized) 3-D DFT.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.dims().len()`.
    pub fn forward(&self, data: &mut [Complex64]) {
        self.transform(data, false);
    }

    /// In-place inverse 3-D DFT, normalized by `1/(nx·ny·nz)`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.dims().len()`.
    pub fn inverse(&self, data: &mut [Complex64]) {
        self.transform(data, true);
    }

    fn transform(&self, data: &mut [Complex64], inverse: bool) {
        assert_eq!(
            data.len(),
            self.dims.len(),
            "3-D FFT buffer length mismatch"
        );
        let mut scratch = self.scratch();
        self.transform_in(data, inverse, &mut scratch);
    }

    /// Scratch for [`transform_in`](Self::transform_in): one grid, and no
    /// less than two z-slabs.
    fn scratch(&self) -> Vec<Complex64> {
        let GridDims { nx, ny, .. } = self.dims;
        vec![Complex64::ZERO; self.dims.len().max(2 * nx * ny)]
    }

    /// One 3-D transform of a single grid, reusing `scratch` (from
    /// [`scratch`](Self::scratch)).
    fn transform_in(&self, data: &mut [Complex64], inverse: bool, scratch: &mut [Complex64]) {
        let GridDims { nx, ny, .. } = self.dims;
        // x: the slab's rows, conjugated on the way in for the inverse.
        for slab in data.chunks_exact_mut(nx * ny) {
            self.x_pass(slab, 0..ny, inverse, scratch);
        }
        // y: within each z-slab, the nx columns are interleaved lanes.
        for slab in data.chunks_exact_mut(nx * ny) {
            self.plan_y.forward_lanes(slab, nx, scratch);
        }
        // z: every (x, y) column of the grid is a lane.
        self.plan_z.forward_lanes(data, nx * ny, scratch);
        if inverse {
            conj_scale_all(data, 1.0 / data.len() as f64);
        }
    }

    /// The x-pass over the rows `ys` of one z-slab: the rows are gathered
    /// into interleaved lanes of `scratch` (conjugated on the way in with
    /// `conj`), transformed together and scattered back. Each lane does
    /// exactly the arithmetic of a lone row, whichever rows share the pass.
    fn x_pass<I>(&self, slab: &mut [Complex64], ys: I, conj: bool, scratch: &mut [Complex64])
    where
        I: ExactSizeIterator<Item = usize> + Clone,
    {
        let nx = self.dims.nx;
        let n = ys.len();
        let (lanes, kernel_scratch) = scratch.split_at_mut(nx * n);
        for (x, column) in lanes.chunks_exact_mut(n).enumerate() {
            for (v, y) in column.iter_mut().zip(ys.clone()) {
                let z = slab[y * nx + x];
                *v = if conj { z.conj() } else { z };
            }
        }
        self.plan_x.forward_lanes(lanes, n, kernel_scratch);
        for (x, column) in lanes.chunks_exact(n).enumerate() {
            for (&v, y) in column.iter().zip(ys.clone()) {
                slab[y * nx + x] = v;
            }
        }
    }

    /// Inverse 3-D DFT, normalized by `1/(nx·ny·nz)`, of every grid of
    /// `data` whose bins all lie in the rows of `sticks`: every bin outside
    /// them must be zero. The x-pass transforms only the map's rows and the
    /// y-pass only its slabs, since every other line is zero and stays
    /// zero; the z-pass runs in full. Every point of real space is valid,
    /// and bit-identical to [`inverse_batch`](Self::inverse_batch).
    ///
    /// # Panics
    ///
    /// Panics if `sticks` was built for other dimensions, or if
    /// `data.len()` is not a positive multiple of `dims().len()`.
    pub fn inverse_pruned_batch(&self, data: &mut [Complex64], sticks: &StickMap) {
        self.pruned_batch(data, sticks, true);
    }

    /// Forward (unnormalized) 3-D DFT of every grid of `data`, computed only
    /// at the bins of the rows of `sticks`: the z-pass runs in full, then the
    /// y-pass on the map's slabs and the x-pass on its rows. Every bin
    /// outside the map's rows is left partly transformed, and must not be
    /// read. The kept bins match [`forward_batch`](Self::forward_batch) to
    /// rounding (the passes run in the other order).
    ///
    /// # Panics
    ///
    /// As [`inverse_pruned_batch`](Self::inverse_pruned_batch).
    pub fn forward_pruned_batch(&self, data: &mut [Complex64], sticks: &StickMap) {
        self.pruned_batch(data, sticks, false);
    }

    fn pruned_batch(&self, data: &mut [Complex64], sticks: &StickMap, inverse: bool) {
        assert_eq!(sticks.dims, self.dims, "stick map built for another grid");
        let GridDims { nx, ny, .. } = self.dims;
        let len = self.dims.len();
        assert!(
            !data.is_empty() && data.len().is_multiple_of(len),
            "batched 3-D FFT buffer must hold a positive whole number of grids"
        );
        let mut scratch = self.scratch();
        for grid in data.chunks_exact_mut(len) {
            if !inverse {
                self.plan_z.forward_lanes(grid, nx * ny, &mut scratch);
            }
            for (z, ys) in sticks.slabs() {
                let slab = &mut grid[z * nx * ny..(z + 1) * nx * ny];
                if inverse {
                    self.x_pass(slab, ys.iter().copied(), true, &mut scratch);
                    self.plan_y.forward_lanes(slab, nx, &mut scratch);
                } else {
                    self.plan_y.forward_lanes(slab, nx, &mut scratch);
                    self.x_pass(slab, ys.iter().copied(), false, &mut scratch);
                }
            }
            if inverse {
                self.plan_z.forward_lanes(grid, nx * ny, &mut scratch);
                conj_scale_all(grid, 1.0 / len as f64);
            }
        }
    }

    /// Transforms `count = data.len() / dims.len()` stacked grids forward,
    /// reusing this plan (and its twiddle tables) for every grid.
    ///
    /// Each grid is transformed by the exact same [`forward`](Self::forward)
    /// code path, so every output grid is **bit-identical** to a solo call —
    /// plan reuse changes which bytes stay cache-resident, never the
    /// arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a positive multiple of `dims().len()`.
    pub fn forward_batch(&self, data: &mut [Complex64]) {
        self.batch(data, false);
    }

    /// Inverse counterpart of [`forward_batch`](Self::forward_batch).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a positive multiple of `dims().len()`.
    pub fn inverse_batch(&self, data: &mut [Complex64]) {
        self.batch(data, true);
    }

    fn batch(&self, data: &mut [Complex64], inverse: bool) {
        let len = self.dims.len();
        assert!(
            !data.is_empty() && data.len().is_multiple_of(len),
            "batched 3-D FFT buffer must hold a positive whole number of grids"
        );
        let mut scratch = self.scratch();
        for grid in data.chunks_exact_mut(len) {
            self.transform_in(grid, inverse, &mut scratch);
        }
    }

    /// Analytic cost of one 3-D transform: `ny·nz` x-lines plus `nx·nz`
    /// y-lines plus `nx·ny` z-lines.
    pub fn cost(&self) -> KernelCost {
        let GridDims { nx, ny, nz } = self.dims;
        self.plan_x.cost() * (ny * nz) as u64
            + self.plan_y.cost() * (nx * nz) as u64
            + self.plan_z.cost() * (nx * ny) as u64
    }

    /// Bytes of per-axis twiddle/plan tables a transform reads — the operand
    /// shared across grids when [`forward_batch`](Self::forward_batch)
    /// executes `count` grids on one plan.
    pub fn shared_table_bytes(&self) -> u64 {
        let GridDims { nx, ny, nz } = self.dims;
        C64_BYTES * (nx + ny + nz) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{conj_all, dft_naive};

    fn random_field(n: usize, seed: u64) -> Vec<Complex64> {
        let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(99);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let re = (s as f64 / u64::MAX as f64) * 2.0 - 1.0;
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let im = (s as f64 / u64::MAX as f64) * 2.0 - 1.0;
                Complex64::new(re, im)
            })
            .collect()
    }

    /// Brute-force 3-D DFT through repeated 1-D naive DFTs.
    fn dft3_naive(dims: GridDims, data: &[Complex64]) -> Vec<Complex64> {
        let mut out = data.to_vec();
        // x lines
        for z in 0..dims.nz {
            for y in 0..dims.ny {
                let line: Vec<Complex64> = (0..dims.nx).map(|x| out[dims.index(x, y, z)]).collect();
                let t = dft_naive(&line);
                for x in 0..dims.nx {
                    out[dims.index(x, y, z)] = t[x];
                }
            }
        }
        // y lines
        for z in 0..dims.nz {
            for x in 0..dims.nx {
                let line: Vec<Complex64> = (0..dims.ny).map(|y| out[dims.index(x, y, z)]).collect();
                let t = dft_naive(&line);
                for y in 0..dims.ny {
                    out[dims.index(x, y, z)] = t[y];
                }
            }
        }
        // z lines
        for y in 0..dims.ny {
            for x in 0..dims.nx {
                let line: Vec<Complex64> = (0..dims.nz).map(|z| out[dims.index(x, y, z)]).collect();
                let t = dft_naive(&line);
                for z in 0..dims.nz {
                    out[dims.index(x, y, z)] = t[z];
                }
            }
        }
        out
    }

    /// The 3-D transform with every x-line transformed on its own
    /// (`lanes = 1`), then the plan's y and z passes.
    fn row_by_row_reference(plan: &Fft3Plan, data: &mut [Complex64], inverse: bool) {
        let GridDims { nx, ny, .. } = plan.dims;
        let mut scratch = vec![Complex64::ZERO; data.len()];
        if inverse {
            conj_all(data);
        }
        for line in data.chunks_exact_mut(nx) {
            plan.plan_x.forward_lanes(line, 1, &mut scratch);
        }
        for slab in data.chunks_exact_mut(nx * ny) {
            plan.plan_y.forward_lanes(slab, nx, &mut scratch);
        }
        plan.plan_z.forward_lanes(data, nx * ny, &mut scratch);
        if inverse {
            conj_scale_all(data, 1.0 / data.len() as f64);
        }
    }

    fn same_bits(a: &[Complex64], b: &[Complex64]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }

    #[test]
    fn x_pass_matches_row_by_row_reference_bitwise() {
        // Cubic, non-cubic, Bluestein lengths on x (7) and z (7), and
        // grids with a single z-slab or a single row per slab.
        for dims in [
            GridDims::new(8, 8, 8),
            GridDims::new(20, 6, 7),
            GridDims::new(7, 4, 3),
            GridDims::new(12, 10, 1),
            GridDims::new(10, 1, 6),
        ] {
            let plan = Fft3Plan::new(dims);
            let grids = 3;
            let x = random_field(dims.len() * grids, dims.len() as u64 + 5);
            for inverse in [false, true] {
                let mut expect = x.clone();
                for grid in expect.chunks_exact_mut(dims.len()) {
                    row_by_row_reference(&plan, grid, inverse);
                }
                let mut solo = x.clone();
                for grid in solo.chunks_exact_mut(dims.len()) {
                    if inverse {
                        plan.inverse(grid);
                    } else {
                        plan.forward(grid);
                    }
                }
                let mut batch = x.clone();
                if inverse {
                    plan.inverse_batch(&mut batch);
                } else {
                    plan.forward_batch(&mut batch);
                }
                assert!(
                    same_bits(&solo, &expect),
                    "{dims:?}, inverse {inverse}: solo"
                );
                assert!(
                    same_bits(&batch, &expect),
                    "{dims:?}, inverse {inverse}: batch"
                );
            }
        }
    }

    #[test]
    fn matches_naive_3d() {
        let dims = GridDims::new(4, 3, 5);
        let x = random_field(dims.len(), 17);
        let expect = dft3_naive(dims, &x);
        let mut got = x;
        Fft3Plan::new(dims).forward(&mut got);
        let err = got
            .iter()
            .zip(&expect)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max);
        assert!(err < 1e-9, "err = {err}");
    }

    #[test]
    fn matches_naive_3d_on_non_cubic_grids() {
        // 20 = 5·4, 6 = 3·2, 40 = 5·4·2 and 3 cover every radix on the
        // single-line (x) and multi-lane (y, z) passes; 7 takes Bluestein.
        for dims in [GridDims::new(20, 6, 7), GridDims::new(40, 20, 3)] {
            let x = random_field(dims.len(), dims.len() as u64);
            let expect = dft3_naive(dims, &x);
            let mut got = x;
            Fft3Plan::new(dims).forward(&mut got);
            let err = got
                .iter()
                .zip(&expect)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0f64, f64::max);
            assert!(err < 1e-9 * dims.len() as f64, "{dims:?}: err = {err}");
        }
    }

    #[test]
    fn round_trip() {
        let dims = GridDims::new(8, 6, 10);
        let x = random_field(dims.len(), 3);
        let plan = Fft3Plan::new(dims);
        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse(&mut y);
        let err = y
            .iter()
            .zip(&x)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max);
        assert!(err < 1e-9);
    }

    #[test]
    fn parseval_3d() {
        let dims = GridDims::new(6, 6, 6);
        let x = random_field(dims.len(), 8);
        let te: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut y = x;
        Fft3Plan::new(dims).forward(&mut y);
        let fe: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / dims.len() as f64;
        assert!((te - fe).abs() < 1e-8 * te.max(1.0));
    }

    #[test]
    fn plane_wave_maps_to_single_bin() {
        // x_j = e^{-2πi (kx·jx/nx)} should land all energy in bin (kx, 0, 0).
        let dims = GridDims::new(8, 4, 4);
        let kx = 3;
        let mut data = vec![Complex64::ZERO; dims.len()];
        for z in 0..dims.nz {
            for y in 0..dims.ny {
                for x in 0..dims.nx {
                    let phase = 2.0 * std::f64::consts::PI * (kx * x) as f64 / dims.nx as f64;
                    data[dims.index(x, y, z)] = Complex64::cis(phase);
                }
            }
        }
        Fft3Plan::new(dims).forward(&mut data);
        let peak = data[dims.index(kx, 0, 0)];
        assert!((peak.re - dims.len() as f64).abs() < 1e-6);
        let other: f64 = data
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != dims.index(kx, 0, 0))
            .map(|(_, z)| z.abs())
            .fold(0.0, f64::max);
        assert!(other < 1e-6);
    }

    #[test]
    fn cost_counts_all_three_axes() {
        let plan = Fft3Plan::new(GridDims::new(8, 8, 8));
        let c = plan.cost();
        // 3 axes × 64 lines × cost(8-point FFT)
        let one = FftPlan::new(8).cost();
        assert_eq!(c.flops, one.flops * 64 * 3);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_buffer_length_panics() {
        let plan = Fft3Plan::new(GridDims::new(4, 4, 4));
        let mut buf = vec![Complex64::ZERO; 63];
        plan.forward(&mut buf);
    }

    #[test]
    fn batch_round_trip_matches_solo() {
        let dims = GridDims::new(4, 3, 2);
        let plan = Fft3Plan::new(dims);
        let grids = 3;
        let mut stacked = random_field(dims.len() * grids, 42);
        let solo: Vec<Vec<Complex64>> = stacked
            .chunks_exact(dims.len())
            .map(|g| {
                let mut one = g.to_vec();
                plan.forward(&mut one);
                one
            })
            .collect();
        plan.forward_batch(&mut stacked);
        for (g, expect) in stacked.chunks_exact(dims.len()).zip(&solo) {
            for (a, b) in g.iter().zip(expect) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole number of grids")]
    fn ragged_batch_panics() {
        let plan = Fft3Plan::new(GridDims::new(4, 4, 4));
        let mut buf = vec![Complex64::ZERO; 100];
        plan.forward_batch(&mut buf);
    }

    /// The bins of the ball `Σ (k_a/n_a)² ≤ 1/16` of signed frequencies
    /// `k_a`: a cutoff sphere at half the Nyquist wavenumber on a grid with
    /// the same spacing along every axis.
    fn ball(dims: GridDims) -> Vec<usize> {
        let p = dims.len() as i64;
        let term = |i: usize, n: usize| {
            let k = if i <= n / 2 {
                i as i64
            } else {
                i as i64 - n as i64
            };
            (k * p / n as i64).pow(2)
        };
        (0..dims.len())
            .filter(|&g| {
                let (x, y, z) = (
                    g % dims.nx,
                    (g / dims.nx) % dims.ny,
                    g / (dims.nx * dims.ny),
                );
                16 * (term(x, dims.nx) + term(y, dims.ny) + term(z, dims.nz)) <= p * p
            })
            .collect()
    }

    /// The grids of Si_8, Si_16 and Si_24, and two with a Bluestein axis.
    const PRUNED_GRIDS: [(usize, usize, usize); 5] = [
        (20, 20, 20),
        (40, 20, 20),
        (60, 20, 20),
        (14, 20, 7),
        (20, 14, 21),
    ];

    #[test]
    fn pruned_transforms_match_the_full_ones() {
        for (nx, ny, nz) in PRUNED_GRIDS {
            let dims = GridDims::new(nx, ny, nz);
            let plan = Fft3Plan::new(dims);
            let bins = ball(dims);
            let sticks = StickMap::new(dims, bins.iter().copied());
            let grids = 3;
            // Inverse: random coefficients on the ball, zero elsewhere.
            let noise = random_field(dims.len() * grids, dims.len() as u64 + 11);
            let mut coeffs = vec![Complex64::ZERO; noise.len()];
            for (grid, src) in coeffs
                .chunks_exact_mut(dims.len())
                .zip(noise.chunks_exact(dims.len()))
            {
                for &g in &bins {
                    grid[g] = src[g];
                }
            }
            let mut full = coeffs.clone();
            plan.inverse_batch(&mut full);
            let mut pruned = coeffs;
            plan.inverse_pruned_batch(&mut pruned, &sticks);
            for (got, expect) in pruned
                .chunks_exact(dims.len())
                .zip(full.chunks_exact(dims.len()))
            {
                let scale = expect.iter().map(|z| z.abs()).fold(0.0f64, f64::max);
                for (r, (a, b)) in got.iter().zip(expect).enumerate() {
                    let d = (*a - *b).abs();
                    assert!(d <= 1e-12 * scale, "{dims:?}: inverse, point {r}: {d:e}");
                }
            }
            // Forward: random real-space grids, compared at every kept bin.
            let mut full = noise.clone();
            plan.forward_batch(&mut full);
            let mut pruned = noise;
            plan.forward_pruned_batch(&mut pruned, &sticks);
            for (got, expect) in pruned
                .chunks_exact(dims.len())
                .zip(full.chunks_exact(dims.len()))
            {
                let scale = expect.iter().map(|z| z.abs()).fold(0.0f64, f64::max);
                for &g in &bins {
                    let d = (got[g] - expect[g]).abs();
                    assert!(d <= 1e-12 * scale, "{dims:?}: forward, bin {g}: {d:e}");
                }
            }
        }
    }

    #[test]
    fn pruned_inverse_is_bitwise_the_full_one() {
        // The pruned inverse skips only lines that are zero: every line it
        // runs gets the arithmetic the full transform gives it.
        for (nx, ny, nz) in PRUNED_GRIDS {
            let dims = GridDims::new(nx, ny, nz);
            let plan = Fft3Plan::new(dims);
            let bins = ball(dims);
            let noise = random_field(dims.len(), 77);
            let mut coeffs = vec![Complex64::ZERO; dims.len()];
            for &g in &bins {
                coeffs[g] = noise[g];
            }
            let mut full = coeffs.clone();
            plan.inverse(&mut full);
            plan.inverse_pruned_batch(&mut coeffs, &StickMap::new(dims, bins));
            for (a, b) in coeffs.iter().zip(&full) {
                // Equal values; a skipped zero line may differ in the sign
                // of a zero.
                assert!(a.re == b.re && a.im == b.im, "{dims:?}: {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn stick_map_line_counts_are_pinned() {
        // (rows, slabs, 1-D transforms per pruned transform, per full one):
        // the ball meets 81 of the 400 (y, z) rows and 11 of the 20 slabs
        // of every Si grid, so Si_8 runs 701 of 1,200 lines (58 %).
        let expect = [
            (81, 11, 701, 1_200),
            (81, 11, 1_321, 2_000),
            (81, 11, 1_941, 2_800),
            (29, 3, 351, 518),
            (61, 11, 561, 994),
        ];
        for ((nx, ny, nz), (rows, slabs, lines, full)) in PRUNED_GRIDS.into_iter().zip(expect) {
            let dims = GridDims::new(nx, ny, nz);
            let sticks = StickMap::new(dims, ball(dims));
            assert_eq!(sticks.rows.len(), rows, "{dims:?}");
            assert_eq!(sticks.slabs.len(), slabs, "{dims:?}");
            assert_eq!(sticks.lines(), lines, "{dims:?}");
            assert_eq!(ny * nz + nx * nz + nx * ny, full, "{dims:?}");
            let every = StickMap::new(dims, 0..dims.len());
            assert_eq!(every.lines(), full, "{dims:?}: a map of every bin");
        }
    }

    #[test]
    #[should_panic(expected = "stick map built for another grid")]
    fn stick_map_of_another_grid_panics() {
        let plan = Fft3Plan::new(GridDims::new(4, 4, 4));
        let sticks = StickMap::new(GridDims::new(4, 4, 2), [0]);
        plan.forward_pruned_batch(&mut vec![Complex64::ZERO; 64], &sticks);
    }
}
