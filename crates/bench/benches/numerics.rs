//! Criterion microbenchmarks of the numerical kernels — the real Rust
//! implementations behind the workload descriptors.
//!
//! Only kernels no other timer covers live here: the 1-D FFT, the
//! Kohn–Sham Hamiltonian's setup and apply, and the self-consistent
//! solver. The 3-D FFT, GEMM, SYEVD/HEEVD and face-splitting kernels
//! are timed by perfbench's kernel probes (`perfbench/src/kernels.rs`),
//! against this host's measured roofline ceilings.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ndft_dft::{run_scf_selfconsistent, KsHamiltonian, ScfOptions, SiliconSystem};
use ndft_numerics::{Complex64, FftPlan};
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

criterion_group!(benches, bench_fft, bench_hamiltonian, bench_scf);
criterion_main!(benches);
