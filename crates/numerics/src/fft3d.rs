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
//! pass of a transform and every grid of a batch. The inverse is a
//! conjugate pass, the forward transform, then a
//! conjugate-and-`1/(nx·ny·nz)` pass.

use crate::counters::{KernelCost, C64_BYTES};
use crate::fft::{conj_all, conj_scale_all, FftPlan};
use crate::Complex64;

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

    /// Creates a cubic grid `n × n × n`.
    pub fn cubic(n: usize) -> Self {
        GridDims::new(n, n, n)
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

/// A reusable 3-D FFT plan.
///
/// # Examples
///
/// ```
/// use ndft_numerics::{Complex64, Fft3Plan, GridDims};
///
/// let plan = Fft3Plan::new(GridDims::cubic(4));
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
        if inverse {
            conj_all(data);
        }
        // x: the slab's rows, transposed into interleaved lanes.
        let (lanes, kernel_scratch) = scratch.split_at_mut(nx * ny);
        for slab in data.chunks_exact_mut(nx * ny) {
            for (x, column) in lanes.chunks_exact_mut(ny).enumerate() {
                for (v, row) in column.iter_mut().zip(slab.chunks_exact(nx)) {
                    *v = row[x];
                }
            }
            self.plan_x.forward_lanes(lanes, ny, kernel_scratch);
            for (x, column) in lanes.chunks_exact(ny).enumerate() {
                for (&v, row) in column.iter().zip(slab.chunks_exact_mut(nx)) {
                    row[x] = v;
                }
            }
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
    use crate::fft::dft_naive;

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
            GridDims::cubic(8),
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
        let dims = GridDims::cubic(6);
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
        let plan = Fft3Plan::new(GridDims::cubic(4));
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
        let plan = Fft3Plan::new(GridDims::cubic(4));
        let mut buf = vec![Complex64::ZERO; 100];
        plan.forward_batch(&mut buf);
    }
}
