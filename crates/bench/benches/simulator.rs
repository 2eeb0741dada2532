//! Criterion benchmarks of the architecture-simulator substrate: DRAM
//! batch service, NoC routing under contention, cache hierarchy walks,
//! and the full platform calibration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ndft_sim::{
    Cache, CacheConfig, Calibration, DramModel, DramTimings, Hierarchy, MemRequest, MeshNoc,
    SystemConfig,
};
use std::hint::black_box;

fn bench_dram(c: &mut Criterion) {
    let mut group = c.benchmark_group("dram");
    group.sample_size(10);
    for &n in &[4096usize, 16_384] {
        let stream: Vec<MemRequest> = (0..n as u64)
            .map(|i| MemRequest {
                addr: i * 32,
                is_write: false,
                arrival: 0,
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("hbm2_stream", n), &n, |b, _| {
            b.iter(|| {
                let mut dram = DramModel::new(DramTimings::hbm2(), 8, 16, 2048);
                black_box(dram.service_batch(&stream))
            })
        });
        let mut x = 0x2545F4914F6CDD1Du64;
        let random: Vec<MemRequest> = (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                MemRequest {
                    addr: (x >> 8) % (1 << 30),
                    is_write: false,
                    arrival: 0,
                }
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("hbm2_random", n), &n, |b, _| {
            b.iter(|| {
                let mut dram = DramModel::new(DramTimings::hbm2(), 8, 16, 2048);
                black_box(dram.service_batch(&random))
            })
        });
    }
    group.finish();
}

fn bench_noc(c: &mut Criterion) {
    let mesh = SystemConfig::paper_table3().mesh;
    c.bench_function("noc_1k_contended_transfers", |b| {
        b.iter(|| {
            let mut noc = MeshNoc::new(mesh);
            let mut done = 0u64;
            for i in 0..1000u64 {
                let from = (i % 16) as usize;
                let to = ((i * 7 + 3) % 16) as usize;
                done = done.max(noc.transfer(from, to, 4096, i).done);
            }
            black_box(done)
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    let cfg = CacheConfig {
        size_bytes: 32 * 1024,
        ways: 8,
        line_bytes: 64,
        hit_latency: 4,
    };
    c.bench_function("cache_100k_accesses", |b| {
        b.iter(|| {
            let mut cache = Cache::new(cfg);
            let mut hits = 0u64;
            for i in 0..100_000u64 {
                if matches!(
                    cache.access((i * 64) % (1 << 20), false),
                    ndft_sim::CacheOutcome::Hit
                ) {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    let sys = SystemConfig::paper_table3();
    c.bench_function("hierarchy_50k_accesses", |b| {
        b.iter(|| {
            let mut h = Hierarchy::new(sys.cpu.l1d, sys.cpu.l2, sys.cpu.l3);
            let mut fills = 0u64;
            for i in 0..50_000u64 {
                if h.access((i * 64) % (8 << 20), i % 3 == 0).dram_fill {
                    fills += 1;
                }
            }
            black_box(fills)
        })
    });
}

fn bench_calibration(c: &mut Criterion) {
    let mut group = c.benchmark_group("calibration");
    group.sample_size(10);
    group.bench_function("full_platform_measure", |b| {
        b.iter(|| black_box(Calibration::measure_paper_table3()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dram,
    bench_noc,
    bench_cache,
    bench_calibration
);
criterion_main!(benches);
