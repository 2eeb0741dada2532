//! `ndft-numerics` kernels timed at the sizes `scf_sweep` jobs use, and
//! the host ceilings they are compared against (the paper's Fig. 4
//! roofline, applied to the machine the code runs on).
//!
//! Operation counts and bytes come from each kernel's analytic
//! `KernelCost`; bytes are computed from operand sizes, not measured.

use crate::stats::median;
use crate::Metrics;
use ndft_dft::{build_response_hamiltonian, model_orbitals, SiliconSystem};
use ndft_numerics::{
    davidson, face_splitting, face_splitting_cost_for, gemm_adjoint_c64, gemm_cost_c64, heevd,
    syevd, syevd_cost, CMat, Complex64, DavidsonOptions, Fft3Plan, KernelCost, Mat,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Measured single-thread ceilings of this host.
pub struct Ceilings {
    /// STREAM-triad bandwidth, bytes/s.
    pub bandwidth: f64,
    /// Multiply-add rate, FLOP/s.
    pub peak_flops: f64,
}

impl Ceilings {
    /// Achieved rate over the roofline bound min(peak, bandwidth × AI).
    fn roofline_fraction(&self, cost: KernelCost, seconds: f64) -> f64 {
        let bound = self
            .peak_flops
            .min(self.bandwidth * cost.arithmetic_intensity());
        cost.flops as f64 / seconds / bound
    }
}

/// Size of the largest cache level cpu0 reports, bytes.
fn last_level_cache_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().ok()?;
        let size = size.trim();
        let (digits, scale) = match size.strip_suffix('K') {
            Some(d) => (d, 1 << 10),
            None => match size.strip_suffix('M') {
                Some(d) => (d, 1 << 20),
                None => (size, 1),
            },
        };
        let bytes = digits.parse::<u64>().ok()? * scale;
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// Measures the ceilings: a STREAM triad `a = b + s·c` whose three
/// arrays together hold four times the last-level cache, and a
/// register-resident multiply-add loop compiled for the same target as
/// the kernels. Best of five passes each.
pub fn host_ceilings(out: &mut Metrics) -> Ceilings {
    let llc = last_level_cache_bytes().unwrap_or(32 << 20);
    let n = (4 * llc).div_ceil(3 * 8) as usize;
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let s = black_box(3.0f64);
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    drop((a, b, c));
    let bandwidth = 24.0 * n as f64 / best;

    const LANES: usize = 32;
    const ITERS: usize = 20_000_000;
    let m = black_box(0.999_999_9f64);
    let add = black_box(1e-9f64);
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let mut acc = black_box([1.0f64; LANES]);
        let t = Instant::now();
        for _ in 0..ITERS {
            for x in acc.iter_mut() {
                *x = *x * m + add;
            }
        }
        black_box(&acc);
        best = best.min(t.elapsed().as_secs_f64());
    }
    let peak_flops = (2 * LANES * ITERS) as f64 / best;

    out.push("host.triad_gbps", bandwidth * 1e-9, "GB/s");
    out.push("host.fma_gflops", peak_flops * 1e-9, "GFLOP/s");
    out.note(format!(
        "host ceilings: last-level cache {} MiB, triad arrays 3 x {} MiB, one thread",
        llc >> 20,
        (n * 8) >> 20
    ));
    Ceilings {
        bandwidth,
        peak_flops,
    }
}

/// Median seconds of `f`, which times one call itself. Runs at least
/// five calls and keeps going until a quarter second has passed.
fn time_median(mut f: impl FnMut() -> Duration) -> f64 {
    f();
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 5 || (start.elapsed() < Duration::from_millis(250) && times.len() < 5000) {
        times.push(f().as_secs_f64());
    }
    median(&times)
}

fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let t = Instant::now();
    black_box(f());
    t.elapsed()
}

/// Real symmetric part of a response Hamiltonian, the matrix the
/// Casida and Davidson solvers take.
fn symmetric_part(h: &CMat) -> Mat {
    let n = h.rows();
    Mat::from_fn(n, n, |i, j| 0.5 * (h[(i, j)].re + h[(j, i)].re))
}

/// Times each kernel on the operands an `scf_sweep` job builds: the
/// Si_16 grid, orbitals and response matrices, and the Si_24 TDA
/// Hamiltonian for `heevd` (the largest Hermitian solve in the sweep).
pub fn kernel_probes(ceil: &Ceilings, out: &mut Metrics) {
    let si16 = SiliconSystem::new(16).expect("Si_16 is valid");
    let (valence, conduction, eps_v, eps_c) = model_orbitals(&si16);

    let plan = Fft3Plan::new(si16.grid());
    let source = valence.row(0).to_vec();
    let mut buf = source.clone();
    let fft_s = time_median(|| {
        buf.copy_from_slice(&source);
        timed(|| plan.forward(&mut buf))
    });
    out.push("numerics.fft3d_us", fft_s * 1e6, "us");
    out.push(
        "numerics.fft3d_gflops",
        plan.cost().flops as f64 / fft_s * 1e-9,
        "GFLOP/s",
    );
    out.push(
        "numerics.fft3d_roofline_fraction",
        ceil.roofline_fraction(plan.cost(), fft_s),
        "ratio",
    );

    let si24 = SiliconSystem::new(24).expect("Si_24 is valid");
    let (v24, c24, ev24, ec24) = model_orbitals(&si24);
    let h24 = build_response_hamiltonian(&si24, &v24, &c24, &ev24, &ec24);
    let heevd_s = time_median(|| timed(|| heevd(&h24).expect("Hermitian solve")));
    out.push("numerics.heevd_us", heevd_s * 1e6, "us");

    let h16 = build_response_hamiltonian(&si16, &valence, &conduction, &eps_v, &eps_c);
    let sym = symmetric_part(&h16);
    let syevd_s = time_median(|| timed(|| syevd(&sym).expect("symmetric solve")));
    out.push("numerics.syevd_us", syevd_s * 1e6, "us");
    out.push(
        "numerics.syevd_roofline_fraction",
        ceil.roofline_fraction(syevd_cost(sym.rows()), syevd_s),
        "ratio",
    );
    let opts = DavidsonOptions {
        n_eig: 4,
        tol: 1e-9,
        max_subspace: 24.min(sym.rows()),
        max_iters: 500,
    };
    let davidson_s = time_median(|| timed(|| davidson(&sym, &opts).expect("Davidson converges")));
    out.push("numerics.davidson_us", davidson_s * 1e6, "us");

    // The response kernel's A†A product: ng G-vectors by npair pairs.
    let (ng, npair) = (si16.gsphere_len(), si16.pair_count());
    let weighted = CMat::from_fn(ng, npair, |i, j| {
        Complex64::new(
            ((i * 7 + j) % 13) as f64 * 0.1,
            ((i + 3 * j) % 5) as f64 * 0.2,
        )
    });
    let gemm_cost = gemm_cost_c64(npair, npair, ng);
    let gemm_s = time_median(|| timed(|| gemm_adjoint_c64(&weighted, &weighted)));
    out.push(
        "numerics.gemm_c64_gflops",
        gemm_cost.flops as f64 / gemm_s * 1e-9,
        "GFLOP/s",
    );
    out.push(
        "numerics.gemm_c64_roofline_fraction",
        ceil.roofline_fraction(gemm_cost, gemm_s),
        "ratio",
    );

    let fs_cost = face_splitting_cost_for(&valence, &conduction);
    let fs_s = time_median(|| timed(|| face_splitting(&valence, &conduction)));
    out.push(
        "numerics.facesplit_gbps",
        fs_cost.bytes_total() as f64 / fs_s * 1e-9,
        "GB/s",
    );
    out.push(
        "numerics.facesplit_roofline_fraction",
        ceil.roofline_fraction(fs_cost, fs_s),
        "ratio",
    );
}
