//! Property-based tests for the numerical kernels.

use ndft_numerics::{
    dft_naive, face_splitting, gemm_f64, gemm_f64_naive, syevd, vecops, CMat, Complex64, Fft3Plan,
    FftPlan, GridDims, Mat,
};
use proptest::prelude::*;

/// Sizes with prime factors in {2, 3, 5} only, up to 120.
fn smooth_size() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![
        2usize, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 30, 32, 36, 40, 45, 48, 50,
        54, 60, 64, 72, 75, 80, 81, 90, 96, 100, 108, 120,
    ])
}

/// 3-D grid axis lengths: 1 to 6 plus the SCF grid axes 20, 40 and 60.
fn axis_size() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![1usize, 2, 3, 4, 5, 6, 20, 40, 60])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fft_round_trip_recovers_input(n in smooth_size(), seed in 0u64..1000) {
        let data = pseudo_random(n, seed);
        let plan = FftPlan::new(n);
        let mut buf = data.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        let err = max_err(&buf, &data);
        prop_assert!(err < 1e-9 * n as f64, "err = {err}");
    }

    #[test]
    fn fft_matches_naive_oracle(n in 1usize..40, seed in 0u64..1000) {
        let data = pseudo_random(n, seed);
        let plan = FftPlan::new(n);
        let mut buf = data.clone();
        plan.forward(&mut buf);
        let oracle = dft_naive(&data);
        prop_assert!(max_err(&buf, &oracle) < 1e-8 * (n.max(1) as f64));
    }

    #[test]
    fn fft_preserves_energy(n in smooth_size(), seed in 0u64..1000) {
        let data = pseudo_random(n, seed);
        let te: f64 = data.iter().map(|z| z.norm_sqr()).sum();
        let mut buf = data;
        FftPlan::new(n).forward(&mut buf);
        let fe: f64 = buf.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((te - fe).abs() < 1e-8 * te.max(1.0));
    }

    #[test]
    fn fft3_round_trip(nx in axis_size(), ny in axis_size(), nz in axis_size(), seed in 0u64..500) {
        let dims = GridDims::new(nx, ny, nz);
        let data = pseudo_random(dims.len(), seed);
        let plan = Fft3Plan::new(dims);
        let mut buf = data.clone();
        plan.forward(&mut buf);
        plan.inverse(&mut buf);
        prop_assert!(max_err(&buf, &data) < 1e-9 * dims.len() as f64);
    }

    #[test]
    fn gemm_distributes_over_addition(
        m in 1usize..12, k in 1usize..12, n in 1usize..12, seed in 0u64..500
    ) {
        let a = rand_mat(m, k, seed);
        let b = rand_mat(k, n, seed + 1);
        let c = rand_mat(k, n, seed + 2);
        let bc = Mat::from_fn(k, n, |i, j| b[(i, j)] + c[(i, j)]);
        let lhs = gemm_f64(&a, &bc);
        let ab = gemm_f64(&a, &b);
        let ac = gemm_f64(&a, &c);
        let rhs = Mat::from_fn(m, n, |i, j| ab[(i, j)] + ac[(i, j)]);
        let err = lhs
            .as_slice()
            .iter()
            .zip(rhs.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max);
        prop_assert!(err < 1e-10);
    }

    #[test]
    fn gemm_blocked_equals_naive(m in 1usize..20, k in 1usize..20, n in 1usize..20, seed in 0u64..500) {
        let a = rand_mat(m, k, seed);
        let b = rand_mat(k, n, seed ^ 0xABCD);
        let fast = gemm_f64(&a, &b);
        let slow = gemm_f64_naive(&a, &b);
        let err = fast
            .as_slice()
            .iter()
            .zip(slow.as_slice())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max);
        prop_assert!(err < 1e-10);
    }

    #[test]
    fn syevd_invariants(n in 1usize..16, seed in 0u64..500) {
        let raw = rand_mat(n, n, seed);
        let a = Mat::from_fn(n, n, |i, j| 0.5 * (raw[(i, j)] + raw[(j, i)]));
        let eig = syevd(&a).unwrap();
        // Ascending eigenvalues.
        for w in eig.values.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
        // Trace preservation.
        let sum: f64 = eig.values.iter().sum();
        prop_assert!((sum - a.trace()).abs() < 1e-8 * (n as f64).max(1.0));
        // Eigenvector residual ‖A v - λ v‖ small.
        for j in 0..n {
            let mut worst = 0.0f64;
            for i in 0..n {
                let mut av = 0.0;
                for k in 0..n {
                    av += a[(i, k)] * eig.vectors[(k, j)];
                }
                worst = worst.max((av - eig.values[j] * eig.vectors[(i, j)]).abs());
            }
            prop_assert!(worst < 1e-8, "column {j} residual {worst}");
        }
    }

    #[test]
    fn face_splitting_is_bilinear(nr in 1usize..20, seed in 0u64..500) {
        let v1 = crand(1, nr, seed);
        let v2 = crand(1, nr, seed + 1);
        let c = crand(1, nr, seed + 2);
        let vsum = CMat::from_fn(1, nr, |i, j| v1[(i, j)] + v2[(i, j)]);
        let lhs = face_splitting(&vsum, &c);
        let p1 = face_splitting(&v1, &c);
        let p2 = face_splitting(&v2, &c);
        for r in 0..nr {
            let rhs = p1[(0, r)] + p2[(0, r)];
            prop_assert!((lhs[(0, r)] - rhs).abs() < 1e-12);
        }
    }

    #[test]
    fn dot_cauchy_schwarz(n in 1usize..32, seed in 0u64..500) {
        let a = pseudo_random(n, seed);
        let b = pseudo_random(n, seed + 7);
        let lhs = vecops::dot(&a, &b).abs();
        let rhs = vecops::norm(&a) * vecops::norm(&b);
        prop_assert!(lhs <= rhs + 1e-10);
    }

    #[test]
    fn mgs_output_is_orthonormal(rows in 1usize..6, len in 6usize..12, seed in 0u64..500) {
        let rows = rows.min(len);
        let mut data: Vec<Complex64> = (0..rows)
            .flat_map(|r| pseudo_random(len, seed + r as u64))
            .collect();
        let rank = vecops::mgs_orthonormalize(&mut data, rows, len);
        prop_assert_eq!(rank, rows); // random vectors: full rank w.h.p.
        for i in 0..rows {
            for j in 0..rows {
                let d = vecops::dot(&data[i * len..(i + 1) * len], &data[j * len..(j + 1) * len]);
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((d - Complex64::from_real(expect)).abs() < 1e-9);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `forward_batch`/`inverse_batch` on stacked grids equal per-grid
    /// `forward`/`inverse` calls bit for bit (denormals and signed zeros
    /// included, which any reassociation would scramble).
    #[test]
    fn batched_fft3_bit_identical_to_sequential(
        nx in 1usize..9, ny in 1usize..9, nz in 1usize..9,
        members in 1usize..5, seed in 0u64..1000,
    ) {
        let dims = GridDims::new(nx, ny, nz);
        let plan = Fft3Plan::new(dims);
        let mut s = seed.wrapping_mul(0x1234_5678_9ABC_DEF1).wrapping_add(3);
        let stacked: Vec<Complex64> = (0..members * dims.len())
            .map(|_| {
                let re = hostile_f64(&mut s);
                // Keep magnitudes finite for FFT (NaN/Inf would poison whole
                // lines identically in both paths, which proves nothing).
                let re = if re.is_finite() { re } else { 0.5 };
                let im = hostile_f64(&mut s);
                let im = if im.is_finite() { im } else { -0.25 };
                Complex64::new(re, im)
            })
            .collect();

        let mut forward = stacked.clone();
        plan.forward_batch(&mut forward);
        let mut inverse = stacked.clone();
        plan.inverse_batch(&mut inverse);

        for g in 0..members {
            let span = g * dims.len()..(g + 1) * dims.len();
            let mut solo_f = stacked[span.clone()].to_vec();
            plan.forward(&mut solo_f);
            let mut solo_i = stacked[span.clone()].to_vec();
            plan.inverse(&mut solo_i);
            for (a, b) in forward[span.clone()].iter().zip(&solo_f) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
            for (a, b) in inverse[span.clone()].iter().zip(&solo_i) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }
}

/// Deterministic f64 stream that occasionally emits "hostile" payloads:
/// NaNs with distinct payload bits, denormals, signed zeros and huge
/// magnitudes. Bit-exact differential testing must survive all of them.
fn hostile_f64(s: &mut u64) -> f64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    match *s % 16 {
        0 => f64::from_bits(0x7FF8_0000_0000_0000 | (*s & 0xFFFF)), // NaN, varying payload
        1 => f64::from_bits(*s & 0x000F_FFFF_FFFF_FFFF),            // denormal
        2 => -0.0,
        3 => 0.0,
        4 => 1e300,
        _ => (*s as f64 / u64::MAX as f64) * 2.0 - 1.0,
    }
}

fn pseudo_random(n: usize, seed: u64) -> Vec<Complex64> {
    let mut s = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(0x1234_5678);
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let re = (s as f64 / u64::MAX as f64) * 2.0 - 1.0;
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            Complex64::new(re, (s as f64 / u64::MAX as f64) * 2.0 - 1.0)
        })
        .collect()
}

fn rand_mat(r: usize, c: usize, seed: u64) -> Mat {
    let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(1);
    Mat::from_fn(r, c, |_, _| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s as f64 / u64::MAX as f64) * 2.0 - 1.0
    })
}

fn crand(r: usize, c: usize, seed: u64) -> CMat {
    let re = rand_mat(r, c, seed);
    let im = rand_mat(r, c, seed + 1000);
    CMat::from_fn(r, c, |i, j| Complex64::new(re[(i, j)], im[(i, j)]))
}

fn max_err(a: &[Complex64], b: &[Complex64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

// --- Davidson eigensolver properties. ---

mod davidson_props {
    use ndft_numerics::davidson::{davidson, DavidsonOptions};
    use ndft_numerics::{syevd, Mat};
    use proptest::prelude::*;

    /// Random symmetric matrix with a spread diagonal (well-separated
    /// lowest eigenvalues, the regime Davidson is built for).
    fn arb_sym(n: usize) -> impl Strategy<Value = Mat> {
        prop::collection::vec(-0.5f64..0.5, n * (n + 1) / 2).prop_map(move |tri| {
            let mut a = Mat::zeros(n, n);
            let mut it = tri.into_iter();
            for i in 0..n {
                for j in 0..=i {
                    let v = it.next().expect("triangle sized to n(n+1)/2");
                    a[(i, j)] = v;
                    a[(j, i)] = v;
                }
                a[(i, i)] += 1.5 * i as f64;
            }
            a
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn davidson_matches_dense_lowest_pairs(a in arb_sym(24), k in 1usize..5) {
            let dense = syevd(&a).expect("dense solve");
            let res = davidson(&a, &DavidsonOptions::lowest(k)).expect("converges");
            for j in 0..k {
                prop_assert!(
                    (res.values[j] - dense.values[j]).abs() < 1e-6,
                    "pair {}: {} vs {}", j, res.values[j], dense.values[j]
                );
            }
            // Returned values ascending.
            for w in res.values.windows(2) {
                prop_assert!(w[0] <= w[1] + 1e-12);
            }
            // Residual tolerance honored.
            for &r in &res.residual_norms {
                prop_assert!(r < 1e-8);
            }
        }

        #[test]
        fn davidson_vectors_diagonalize_the_operator(a in arb_sym(20)) {
            let res = davidson(&a, &DavidsonOptions::lowest(3)).expect("converges");
            // ‖A v − λ v‖ small for every returned pair.
            for j in 0..3 {
                let v: Vec<f64> = (0..20).map(|i| res.vectors[(i, j)]).collect();
                let mut av = [0.0; 20];
                for (i, out) in av.iter_mut().enumerate() {
                    *out = (0..20).map(|c| a[(i, c)] * v[c]).sum();
                }
                let resid: f64 = av
                    .iter()
                    .zip(&v)
                    .map(|(x, y)| (x - res.values[j] * y).powi(2))
                    .sum::<f64>()
                    .sqrt();
                prop_assert!(resid < 1e-7, "pair {} residual {}", j, resid);
            }
        }
    }
}
