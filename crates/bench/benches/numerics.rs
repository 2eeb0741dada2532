//! Criterion microbenchmarks of the numerical kernels — the real Rust
//! implementations behind the workload descriptors.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ndft_dft::{run_scf_selfconsistent, KsHamiltonian, ScfOptions, SiliconSystem};
use ndft_numerics::{
    face_splitting, gemm_c64, gemm_f64, heevd, syevd, CMat, Complex64, Fft3Plan, FftPlan, GridDims,
    Mat,
};
use std::hint::black_box;

fn signal(n: usize) -> Vec<Complex64> {
    (0..n).map(|i| Complex64::cis(0.1 * i as f64)).collect()
}

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft1d");
    group.sample_size(20);
    for &n in &[240usize, 1024, 4096, 12_000] {
        let plan = FftPlan::new(n);
        let data = signal(n);
        let mut buf = data.clone();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                buf.copy_from_slice(&data);
                plan.forward(&mut buf);
                black_box(buf[0])
            })
        });
    }
    group.finish();

    let mut group3 = c.benchmark_group("fft3d");
    group3.sample_size(10);
    // Cubic grids, then the Si_8/16/24 grids of the scf_sweep workload
    // (20³, 20×20×40 and 20×20×60).
    let scf = [8usize, 16, 24].map(|atoms| ("scf", SiliconSystem::new(atoms).unwrap().grid()));
    let cubic = [20usize, 40].map(|n| ("cubic", GridDims::cubic(n)));
    for (kind, dims) in cubic.into_iter().chain(scf) {
        let plan = Fft3Plan::new(dims);
        let data = signal(dims.len());
        let mut buf = data.clone();
        let id = format!("{}x{}x{}", dims.nx, dims.ny, dims.nz);
        group3.bench_with_input(BenchmarkId::new(kind, id), &dims, |b, _| {
            b.iter(|| {
                buf.copy_from_slice(&data);
                plan.forward(&mut buf);
                black_box(buf[0])
            })
        });
    }
    group3.finish();
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    group.sample_size(10);
    for &n in &[64usize, 128, 256] {
        let a = Mat::from_fn(n, n, |i, j| (i * 7 + j) as f64 * 1e-3);
        let b_mat = Mat::from_fn(n, n, |i, j| (i + j * 3) as f64 * 1e-3);
        group.bench_with_input(BenchmarkId::new("f64", n), &n, |b, _| {
            b.iter(|| black_box(gemm_f64(&a, &b_mat)))
        });
    }
    for &n in &[32usize, 64, 128] {
        let a = CMat::from_fn(n, n, |i, j| Complex64::cis((i * j) as f64 * 1e-2));
        let b_mat = CMat::from_fn(n, n, |i, j| Complex64::cis((i + j) as f64 * 1e-2));
        group.bench_with_input(BenchmarkId::new("c64", n), &n, |b, _| {
            b.iter(|| black_box(gemm_c64(&a, &b_mat)))
        });
    }
    group.finish();
}

fn bench_eig(c: &mut Criterion) {
    let mut group = c.benchmark_group("syevd");
    group.sample_size(10);
    for &n in &[32usize, 64, 128] {
        let a = Mat::from_fn(n, n, |i, j| {
            if i == j {
                2.0
            } else {
                1.0 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        group.bench_with_input(BenchmarkId::new("sym", n), &n, |b, _| {
            b.iter(|| black_box(syevd(&a).expect("converges")))
        });
    }
    for &n in &[16usize, 32] {
        let h = CMat::from_fn(n, n, |i, j| {
            if i == j {
                Complex64::from_real(i as f64)
            } else if i < j {
                Complex64::new(0.3, 0.1)
            } else {
                Complex64::new(0.3, -0.1)
            }
        });
        group.bench_with_input(BenchmarkId::new("herm", n), &n, |b, _| {
            b.iter(|| black_box(heevd(&h).expect("converges")))
        });
    }
    group.finish();
}

fn bench_face_splitting(c: &mut Criterion) {
    let mut group = c.benchmark_group("face_splitting");
    group.sample_size(10);
    for &(bands, nr) in &[(8usize, 8000usize), (12, 16_000)] {
        let v = CMat::from_fn(bands, nr, |i, r| Complex64::cis((i * r) as f64 * 1e-4));
        let cond = CMat::from_fn(bands, nr, |i, r| Complex64::cis((i + r) as f64 * 1e-4));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{bands}x{nr}")),
            &bands,
            |b, _| b.iter(|| black_box(face_splitting(&v, &cond))),
        );
    }
    group.finish();
}

fn bench_hamiltonian(c: &mut Criterion) {
    let mut group = c.benchmark_group("hamiltonian");
    group.sample_size(10);
    // Setup (grid tables, local potential, shared projector table) and
    // one real-space application on the scf_sweep systems, so the two
    // costs sit next to the scf rows below.
    let opts = ScfOptions::default();
    for atoms in [8usize, 16, 24] {
        let sys = SiliconSystem::new(atoms).unwrap();
        let id = format!("si{atoms}");
        group.bench_with_input(BenchmarkId::new("new", &id), &sys, |b, sys| {
            b.iter(|| black_box(KsHamiltonian::new(sys, &opts)))
        });
        let h = KsHamiltonian::new(&sys, &opts);
        let psi = signal(h.len());
        group.bench_with_input(BenchmarkId::new("apply", &id), &psi, |b, psi| {
            b.iter(|| black_box(h.apply(psi)))
        });
    }
    group.finish();
}

fn bench_scf(c: &mut Criterion) {
    let mut group = c.benchmark_group("scf");
    group.sample_size(10);
    // The ScfSelfConsistent (atoms, bands) shapes of the scf_sweep
    // workload, at its 2 subspace iterations × 2 density cycles, so
    // solver-level cost sits next to the kernel rows above.
    for &(atoms, bands) in &[(8usize, 2usize), (8, 3), (16, 2), (16, 3), (24, 2)] {
        let sys = SiliconSystem::new(atoms).unwrap();
        let opts = ScfOptions {
            bands,
            max_iterations: 2,
            ..Default::default()
        };
        let id = format!("si{atoms}_b{bands}");
        group.bench_with_input(BenchmarkId::new("selfconsistent", id), &opts, |b, opts| {
            b.iter(|| black_box(run_scf_selfconsistent(&sys, opts, bands, 2, 0.5).expect("solves")))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fft,
    bench_gemm,
    bench_eig,
    bench_face_splitting,
    bench_hamiltonian,
    bench_scf
);
criterion_main!(benches);
