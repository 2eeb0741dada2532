//! One-dimensional complex FFT and the multi-lane Stockham kernel.
//!
//! Lengths whose prime factors are all 2, 3 or 5 run an iterative,
//! self-sorting Stockham decimation-in-frequency transform built from
//! radix-2/3/4/5 passes. Plane-wave DFT codes size their grids 2/3/5-smooth
//! precisely so this path applies; lengths with a larger prime factor fall
//! back to Bluestein's chirp-z transform, which keeps the API total.
//!
//! The kernel transforms `lanes` interleaved signals at once: element `j`
//! of lane `l` lives at `data[j·lanes + l]`. Every butterfly operand is
//! then a run of `lanes` contiguous values sharing one twiddle, so each
//! pass streams memory in order. A plain 1-D transform is the `lanes = 1`
//! case; [`crate::Fft3Plan`] hands whole rows and whole planes to the same
//! kernel as lanes, and the x-lines as the lanes of a transposed z-slab,
//! so no axis runs one signal at a time. A pass of radix `p`
//! over sub-transforms of length `p·m`, after passes whose radices
//! multiply to `s`, reads operand `k` of butterfly `q` at `(q + k·m)·s`,
//! writes output `j` at `(p·q + j)·s`, and scales it by the twiddle
//! `root[j·q·s]` (`j·q·s < n`, so the table needs no modulo). Passes
//! ping-pong between the data and one scratch buffer, so the output lands
//! in natural order with no bit-reversal step.
//!
//! Conventions: [`FftPlan::forward`] computes the unnormalized DFT
//! `X[k] = sum_j x[j]·e^{-2πi jk/n}`; [`FftPlan::inverse`] applies the
//! conjugate transform scaled by `1/n`, so `inverse(forward(x)) == x`.

use crate::counters::KernelCost;
use crate::Complex64;

/// A reusable FFT plan for a fixed transform length.
///
/// Building a plan precomputes the factorization and the full twiddle table
/// (`n` roots of unity), so repeated transforms only pay the butterfly work.
///
/// # Examples
///
/// ```
/// use ndft_numerics::{Complex64, FftPlan};
///
/// let plan = FftPlan::new(8);
/// let mut data = vec![Complex64::ONE; 8];
/// plan.forward(&mut data);
/// // The DFT of an all-ones vector is an impulse of height n at k = 0.
/// assert!((data[0].re - 8.0).abs() < 1e-12);
/// assert!(data[1].abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Radix of each Stockham pass, in pass order (empty for Bluestein).
    factors: Vec<usize>,
    /// `root[k] = e^{-2πi k / n}` for the forward transform.
    root: Vec<Complex64>,
    /// Chirp-z machinery for lengths that are not 2/3/5-smooth.
    bluestein: Option<Box<Bluestein>>,
}

#[derive(Debug, Clone)]
struct Bluestein {
    /// Power-of-two convolution length, `>= 2n - 1`.
    m: usize,
    /// Inner power-of-two plan.
    inner: FftPlan,
    /// Forward FFT of the chirp sequence, premultiplied for the convolution.
    chirp_fft: Vec<Complex64>,
    /// `chirp[k] = e^{-iπ k²/n}` for `k < n`.
    chirp: Vec<Complex64>,
}

impl FftPlan {
    /// Creates a plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be positive");
        let factors = factorize_smooth(n);
        let root = (0..n)
            .map(|k| Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        let bluestein = if factors.is_empty() && n > 1 {
            Some(Box::new(Bluestein::new(n)))
        } else {
            None
        };
        FftPlan {
            n,
            factors,
            root,
            bluestein,
        }
    }

    /// Transform length this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the plan length is zero (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward (unnormalized) DFT.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn forward(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "FFT buffer length mismatch");
        let mut scratch = vec![Complex64::ZERO; self.n];
        self.forward_lanes(data, 1, &mut scratch);
    }

    /// Transforms `count` contiguous signals of length `self.len()` stored
    /// back to back (the batched shape LR-TDDFT uses: one row per
    /// transition density).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != count * self.len()`.
    pub fn forward_batch(&self, data: &mut [Complex64], count: usize) {
        assert_eq!(
            data.len(),
            count * self.n,
            "batched FFT buffer length mismatch"
        );
        let mut scratch = vec![Complex64::ZERO; self.n];
        for row in data.chunks_exact_mut(self.n) {
            self.forward_lanes(row, 1, &mut scratch);
        }
    }

    /// Batched inverse counterpart of [`Self::forward_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != count * self.len()`.
    pub fn inverse_batch(&self, data: &mut [Complex64], count: usize) {
        conj_all(data);
        self.forward_batch(data, count);
        conj_scale_all(data, 1.0 / self.n as f64);
    }

    /// In-place inverse DFT, normalized by `1/n`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn inverse(&self, data: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "FFT buffer length mismatch");
        conj_all(data);
        self.forward(data);
        conj_scale_all(data, 1.0 / self.n as f64);
    }

    /// In-place forward DFT of `lanes` interleaved signals: element `j` of
    /// lane `l` is `data[j·lanes + l]`. `scratch` must hold at least
    /// `data.len()` values; its contents are clobbered.
    pub(crate) fn forward_lanes(
        &self,
        data: &mut [Complex64],
        lanes: usize,
        scratch: &mut [Complex64],
    ) {
        debug_assert_eq!(data.len(), self.n * lanes);
        if self.n == 1 {
            return;
        }
        if let Some(b) = &self.bluestein {
            b.run(data, lanes);
            return;
        }
        let scratch = &mut scratch[..data.len()];
        let mut s = 1;
        let mut in_data = true;
        for &p in &self.factors {
            let (src, dst) = if in_data {
                (&*data, &mut *scratch)
            } else {
                (&*scratch, &mut *data)
            };
            match p {
                2 => pass::<2>(src, dst, s, lanes, &self.root),
                3 => pass::<3>(src, dst, s, lanes, &self.root),
                4 => pass::<4>(src, dst, s, lanes, &self.root),
                5 => pass::<5>(src, dst, s, lanes, &self.root),
                r => unreachable!("unsupported radix {r}"),
            }
            s *= p;
            in_data = !in_data;
        }
        if !in_data {
            data.copy_from_slice(scratch);
        }
    }

    /// Analytic operation/byte cost of one transform of this length.
    ///
    /// Uses the standard `5·n·log2(n)` FLOP estimate for smooth sizes; the
    /// Bluestein path counts its three inner transforms plus the chirp
    /// multiplies. Bytes assume one streaming read and write of the buffer
    /// per pass over the data (one pass per factor).
    pub fn cost(&self) -> KernelCost {
        let n = self.n as u64;
        if let Some(b) = &self.bluestein {
            let inner = b.inner.cost();
            return KernelCost {
                flops: 3 * inner.flops + 2 * 6 * n,
                bytes_read: 3 * inner.bytes_read + 2 * 16 * n,
                bytes_written: 3 * inner.bytes_written + 2 * 16 * n,
            };
        }
        let log2n = (self.n.max(2) as f64).log2();
        let passes = self.factors.len().max(1) as u64;
        KernelCost {
            flops: (5.0 * n as f64 * log2n).round() as u64,
            bytes_read: 16 * n * passes,
            bytes_written: 16 * n * passes,
        }
    }
}

/// One Stockham pass of radix `P` over `lanes` interleaved signals, after
/// earlier passes whose radices multiply to `s`: reads `src`, writes the
/// twiddled butterflies to `dst` (see the module docs for the indexing).
fn pass<const P: usize>(
    src: &[Complex64],
    dst: &mut [Complex64],
    s: usize,
    lanes: usize,
    root: &[Complex64],
) {
    // Operand runs are `s` sub-transforms times `lanes` signals long.
    let run = s * lanes;
    let m = src.len() / (P * run);
    for (q, out) in dst.chunks_exact_mut(P * run).enumerate() {
        let x: [&[Complex64]; P] = std::array::from_fn(|k| &src[(q + k * m) * run..][..run]);
        let mut rows = out.chunks_exact_mut(run);
        let y: [&mut [Complex64]; P] = std::array::from_fn(|_| rows.next().unwrap());
        if q == 0 {
            // Every twiddle is 1 here, and the last pass (m = 1) has no
            // other butterfly, so skip the multiplies.
            for i in 0..run {
                let b = butterfly::<P>(std::array::from_fn(|k| x[k][i]));
                for j in 0..P {
                    y[j][i] = b[j];
                }
            }
            continue;
        }
        let w: [Complex64; P] = std::array::from_fn(|j| root[j * q * s]);
        for i in 0..run {
            let b = butterfly::<P>(std::array::from_fn(|k| x[k][i]));
            y[0][i] = b[0];
            for j in 1..P {
                y[j][i] = b[j] * w[j];
            }
        }
    }
}

/// Hard-coded small-radix DFT butterflies (`P` in 2..=5):
/// `out[j] = Σ_k x[k]·e^{-2πi jk/P}`.
#[inline(always)]
fn butterfly<const P: usize>(x: [Complex64; P]) -> [Complex64; P] {
    let mut out = [Complex64::ZERO; P];
    match P {
        2 => {
            out[0] = x[0] + x[1];
            out[1] = x[0] - x[1];
        }
        3 => {
            // w = e^{-2πi/3} = -1/2 - i·√3/2
            const HALF_SQRT3: f64 = 0.866_025_403_784_438_6;
            let t1 = x[1] + x[2];
            let t2 = (x[1] - x[2]).scale(HALF_SQRT3);
            let m = x[0] - t1.scale(0.5);
            out[0] = x[0] + t1;
            out[1] = Complex64::new(m.re + t2.im, m.im - t2.re);
            out[2] = Complex64::new(m.re - t2.im, m.im + t2.re);
        }
        4 => {
            let t0 = x[0] + x[2];
            let t1 = x[0] - x[2];
            let t2 = x[1] + x[3];
            let t3 = x[1] - x[3];
            // -i · t3
            let it3 = Complex64::new(t3.im, -t3.re);
            out[0] = t0 + t2;
            out[1] = t1 + it3;
            out[2] = t0 - t2;
            out[3] = t1 - it3;
        }
        5 => {
            // Winograd-style radix-5 with real rotation constants.
            const C1: f64 = 0.309_016_994_374_947_45; // cos(2π/5)
            const C2: f64 = -0.809_016_994_374_947_5; // cos(4π/5)
            const S1: f64 = 0.951_056_516_295_153_5; // sin(2π/5)
            const S2: f64 = 0.587_785_252_292_473_1; // sin(4π/5)
            let a1 = x[1] + x[4];
            let a2 = x[2] + x[3];
            let b1 = x[1] - x[4];
            let b2 = x[2] - x[3];
            out[0] = x[0] + a1 + a2;
            let m1 = x[0] + a1.scale(C1) + a2.scale(C2);
            let m2 = x[0] + a1.scale(C2) + a2.scale(C1);
            // v1 = -i·(S1·b1 + S2·b2), v2 = -i·(S2·b1 - S1·b2)
            let v1 = b1.scale(S1) + b2.scale(S2);
            let v2 = b1.scale(S2) - b2.scale(S1);
            let iv1 = Complex64::new(v1.im, -v1.re);
            let iv2 = Complex64::new(v2.im, -v2.re);
            out[1] = m1 + iv1;
            out[4] = m1 - iv1;
            out[2] = m2 + iv2;
            out[3] = m2 - iv2;
        }
        r => unreachable!("unsupported radix {r}"),
    }
    out
}

/// Conjugates every value in place (the first step of an inverse
/// transform done with the forward kernel).
pub(crate) fn conj_all(data: &mut [Complex64]) {
    for z in data.iter_mut() {
        *z = z.conj();
    }
}

/// Conjugates and scales every value in place (the last step of an
/// inverse transform done with the forward kernel).
pub(crate) fn conj_scale_all(data: &mut [Complex64], s: f64) {
    for z in data.iter_mut() {
        *z = z.conj().scale(s);
    }
}

/// Factorizes `n` over {2,3,4,5}, preferring radix 4 over two radix-2 passes.
/// Returns an empty vector when `n` has prime factors larger than 5.
fn factorize_smooth(n: usize) -> Vec<usize> {
    let mut rem = n;
    let mut factors = Vec::new();
    for &p in &[5usize, 3] {
        while rem.is_multiple_of(p) {
            factors.push(p);
            rem /= p;
        }
    }
    while rem.is_multiple_of(4) {
        factors.push(4);
        rem /= 4;
    }
    while rem.is_multiple_of(2) {
        factors.push(2);
        rem /= 2;
    }
    if rem == 1 {
        factors
    } else {
        Vec::new()
    }
}

impl Bluestein {
    fn new(n: usize) -> Self {
        let m = (2 * n - 1).next_power_of_two();
        let inner = FftPlan::new(m);
        // chirp[k] = e^{-iπ k²/n}; reduce k² mod 2n to keep the angle exact.
        let chirp: Vec<Complex64> = (0..n)
            .map(|k| {
                let k2 = ((k as u128 * k as u128) % (2 * n as u128)) as f64;
                Complex64::cis(-std::f64::consts::PI * k2 / n as f64)
            })
            .collect();
        let mut b = vec![Complex64::ZERO; m];
        b[0] = chirp[0].conj();
        for k in 1..n {
            b[k] = chirp[k].conj();
            b[m - k] = chirp[k].conj();
        }
        inner.forward(&mut b);
        Bluestein {
            m,
            inner,
            chirp_fft: b,
            chirp,
        }
    }

    /// Runs the chirp-z transform `X = chirp ⊙ IFFT(FFT(chirp ⊙ x) ⊙ B)`
    /// on `lanes` interleaved signals.
    fn run(&self, data: &mut [Complex64], lanes: usize) {
        let mut a = vec![Complex64::ZERO; self.m * lanes];
        for ((dst, src), &c) in a
            .chunks_exact_mut(lanes)
            .zip(data.chunks_exact(lanes))
            .zip(&self.chirp)
        {
            for (d, x) in dst.iter_mut().zip(src) {
                *d = *x * c;
            }
        }
        let mut scratch = vec![Complex64::ZERO; self.m * lanes];
        self.inner.forward_lanes(&mut a, lanes, &mut scratch);
        // Multiply by B and conjugate: the inverse transform is the
        // conjugate of the forward transform of the conjugate.
        for (row, &b) in a.chunks_exact_mut(lanes).zip(&self.chirp_fft) {
            for z in row {
                *z = (*z * b).conj();
            }
        }
        self.inner.forward_lanes(&mut a, lanes, &mut scratch);
        let s = 1.0 / self.m as f64;
        for ((dst, src), &c) in data
            .chunks_exact_mut(lanes)
            .zip(a.chunks_exact(lanes))
            .zip(&self.chirp)
        {
            for (d, x) in dst.iter_mut().zip(src) {
                *d = x.conj().scale(s) * c;
            }
        }
    }
}

/// Naive `O(n²)` DFT used as a test oracle.
///
/// # Examples
///
/// ```
/// use ndft_numerics::{dft_naive, Complex64};
/// let x = vec![Complex64::ONE, Complex64::ZERO];
/// let y = dft_naive(&x);
/// assert!((y[0] - Complex64::ONE).abs() < 1e-12);
/// assert!((y[1] - Complex64::ONE).abs() < 1e-12);
/// ```
pub fn dft_naive(x: &[Complex64]) -> Vec<Complex64> {
    let n = x.len();
    (0..n)
        .map(|k| {
            (0..n)
                .map(|j| {
                    let angle = -2.0 * std::f64::consts::PI * ((j * k) % n) as f64 / n as f64;
                    x[j] * Complex64::cis(angle)
                })
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    fn random_signal(n: usize, seed: u64) -> Vec<Complex64> {
        // Simple xorshift so the test does not need the rand crate here.
        let mut s = seed.wrapping_mul(2685821657736338717).wrapping_add(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        (0..n).map(|_| Complex64::new(next(), next())).collect()
    }

    #[test]
    fn matches_naive_dft_smooth_sizes() {
        for &n in &[
            1usize, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 20, 24, 25, 27, 30, 32, 36, 40, 45, 48,
            60, 64, 72, 80, 81, 90, 100, 120, 125, 128, 135, 144, 150, 180, 240, 243,
        ] {
            let plan = FftPlan::new(n);
            assert!(plan.bluestein.is_none(), "{n} should be smooth");
            let x = random_signal(n, n as u64 + 7);
            let expect = dft_naive(&x);
            let mut got = x.clone();
            plan.forward(&mut got);
            assert!(max_err(&got, &expect) < 1e-9 * (n as f64), "n = {n}");
        }
    }

    #[test]
    fn matches_naive_dft_bluestein_sizes() {
        for &n in &[
            7usize, 11, 13, 14, 17, 19, 21, 23, 29, 31, 33, 37, 49, 53, 77, 97, 101,
        ] {
            let plan = FftPlan::new(n);
            assert!(
                plan.bluestein.is_some(),
                "{n} should take the Bluestein path"
            );
            let x = random_signal(n, n as u64 + 13);
            let expect = dft_naive(&x);
            let mut got = x.clone();
            plan.forward(&mut got);
            assert!(max_err(&got, &expect) < 1e-8 * (n as f64), "n = {n}");
        }
    }

    #[test]
    fn round_trip_identity() {
        for &n in &[4usize, 12, 30, 64, 75, 97, 180, 360] {
            let plan = FftPlan::new(n);
            let x = random_signal(n, 42 + n as u64);
            let mut y = x.clone();
            plan.forward(&mut y);
            plan.inverse(&mut y);
            assert!(max_err(&y, &x) < 1e-10 * (n as f64), "n = {n}");
        }
    }

    #[test]
    fn parseval_theorem() {
        let n = 120;
        let plan = FftPlan::new(n);
        let x = random_signal(n, 5);
        let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut y = x;
        plan.forward(&mut y);
        let freq_energy: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy.max(1.0));
    }

    #[test]
    fn linearity() {
        let n = 90;
        let plan = FftPlan::new(n);
        let x = random_signal(n, 1);
        let y = random_signal(n, 2);
        let alpha = Complex64::new(0.7, -0.3);
        let mut lhs: Vec<Complex64> = x.iter().zip(&y).map(|(a, b)| *a * alpha + *b).collect();
        plan.forward(&mut lhs);
        let mut fx = x.clone();
        let mut fy = y.clone();
        plan.forward(&mut fx);
        plan.forward(&mut fy);
        let rhs: Vec<Complex64> = fx.iter().zip(&fy).map(|(a, b)| *a * alpha + *b).collect();
        assert!(max_err(&lhs, &rhs) < 1e-9 * n as f64);
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 60;
        let plan = FftPlan::new(n);
        let mut x = vec![Complex64::ZERO; n];
        x[0] = Complex64::ONE;
        plan.forward(&mut x);
        for z in &x {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn shift_theorem() {
        // Delaying the input by one sample multiplies bin k by w^k.
        let n = 48;
        let plan = FftPlan::new(n);
        let x = random_signal(n, 9);
        let mut shifted = vec![Complex64::ZERO; n];
        for j in 0..n {
            shifted[(j + 1) % n] = x[j];
        }
        let mut fx = x;
        let mut fs = shifted;
        plan.forward(&mut fx);
        plan.forward(&mut fs);
        for k in 0..n {
            let w = Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64);
            assert!((fs[k] - fx[k] * w).abs() < 1e-9, "bin {k}");
        }
    }

    #[test]
    fn cost_is_positive_and_scales() {
        let small = FftPlan::new(64).cost();
        let big = FftPlan::new(4096).cost();
        assert!(small.flops > 0);
        assert!(
            big.flops > 50 * small.flops,
            "4096-point FFT should cost much more"
        );
        assert!(small.arithmetic_intensity() > 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn forward_rejects_wrong_length() {
        let plan = FftPlan::new(8);
        let mut data = vec![Complex64::ZERO; 4];
        plan.forward(&mut data);
    }

    #[test]
    fn length_one_is_identity() {
        let plan = FftPlan::new(1);
        let mut data = vec![Complex64::new(3.0, -2.0)];
        plan.forward(&mut data);
        assert_eq!(data[0], Complex64::new(3.0, -2.0));
        plan.inverse(&mut data);
        assert_eq!(data[0], Complex64::new(3.0, -2.0));
    }

    #[test]
    fn batch_matches_row_by_row() {
        let n = 24;
        let rows = 5;
        let plan = FftPlan::new(n);
        let flat = random_signal(n * rows, 77);
        let mut batched = flat.clone();
        plan.forward_batch(&mut batched, rows);
        for r in 0..rows {
            let mut single = flat[r * n..(r + 1) * n].to_vec();
            plan.forward(&mut single);
            assert_eq!(&batched[r * n..(r + 1) * n], &single[..], "row {r}");
        }
        plan.inverse_batch(&mut batched, rows);
        let err = max_err(&batched, &flat);
        assert!(err < 1e-10 * n as f64);
    }

    #[test]
    fn lane_kernel_matches_per_line_forward() {
        // Every radix (2, 3, 4, 5) and one Bluestein length; lane l of the
        // interleaved buffer must equal FftPlan::forward of that signal,
        // bit for bit.
        for &n in &[2usize, 3, 4, 5, 8, 20, 40, 60, 90, 7] {
            let plan = FftPlan::new(n);
            for lanes in [1usize, 3, 20] {
                let signals: Vec<Vec<Complex64>> = (0..lanes)
                    .map(|l| random_signal(n, (n * 31 + l) as u64))
                    .collect();
                let mut interleaved: Vec<Complex64> = (0..n * lanes)
                    .map(|i| signals[i % lanes][i / lanes])
                    .collect();
                let mut scratch = vec![Complex64::ZERO; n * lanes];
                plan.forward_lanes(&mut interleaved, lanes, &mut scratch);
                for (l, signal) in signals.iter().enumerate() {
                    let mut expect = signal.clone();
                    plan.forward(&mut expect);
                    for (j, e) in expect.iter().enumerate() {
                        let got = interleaved[j * lanes + l];
                        assert_eq!(got.re.to_bits(), e.re.to_bits(), "n {n} lanes {lanes}");
                        assert_eq!(got.im.to_bits(), e.im.to_bits(), "n {n} lanes {lanes}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "batched FFT buffer length mismatch")]
    fn batch_rejects_wrong_shape() {
        let plan = FftPlan::new(8);
        let mut data = vec![Complex64::ZERO; 20];
        plan.forward_batch(&mut data, 3);
    }
}
