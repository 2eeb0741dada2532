//! Core-microarchitecture study behind the Fig. 4 kernel classes.
//!
//! The roofline (Fig. 4) classifies kernels by arithmetic intensity; this
//! harness shows the *mechanism*: the same four instruction mixes run on
//! a Table III host core (4-wide OOO, 3 caches, deep window) and on an
//! NDP core (2-wide in-order, L1 only, stream prefetcher), and the cycle
//! breakdown shows who stalls where.
//!
//! Run with: `cargo run --release -p ndft-bench --bin core_model`

use ndft_sim::timing::{CoreModel, KernelTrace, MemPort};
use ndft_sim::{AccessPattern, Calibration, SystemConfig};

struct Mix {
    name: &'static str,
    pattern: AccessPattern,
    flops_per_access: f64,
    note: &'static str,
}

fn main() {
    ndft_bench::print_header("Core timing model: where the cycles go per kernel class");
    let sys = SystemConfig::paper_table3();
    let cal = Calibration::PAPER_TABLE3;

    // Fill latencies and per-core bandwidth shares from the measured
    // calibration: the host core reaches the stacks over the off-chip
    // link; the NDP core sits on its own stack.
    let cpu_port = MemPort {
        fill_latency_s: cal.host_to_stack.idle_latency,
        bandwidth_bps: cal.host_to_stack.stream_bw / sys.cpu.cores as f64,
    };
    let ndp_port = MemPort {
        fill_latency_s: cal.ndp_stack.idle_latency,
        bandwidth_bps: cal.ndp_stack.stream_bw
            / (sys.ndp.units_per_stack * sys.ndp.cores_per_unit) as f64,
    };

    let mixes = [
        Mix {
            name: "FFT",
            pattern: AccessPattern::Strided { stride_bytes: 4096 },
            flops_per_access: 4.0,
            note: "transpose passes, AI ≈ 0.5",
        },
        Mix {
            name: "Face-splitting",
            pattern: AccessPattern::Stream,
            flops_per_access: 1.0,
            note: "pure streaming, AI ≈ 0.125",
        },
        Mix {
            name: "GEMM (blocked)",
            pattern: AccessPattern::Random {
                range_bytes: 24 << 10,
            },
            flops_per_access: 192.0,
            note: "cache-resident tiles, AI ≈ 24",
        },
        Mix {
            name: "SYEVD (panel)",
            pattern: AccessPattern::Random {
                range_bytes: 8 << 20,
            },
            flops_per_access: 43.0,
            note: "panel updates over the matrix, AI ≈ 5",
        },
    ];

    let cpu_cores = sys.cpu.cores as f64;
    let ndp_cores = sys.ndp.total_cores() as f64;
    println!(
        "{:<16} {:<6} {:>8} {:>9} {:>10} {:>10} {:>11} {:>10}",
        "kernel mix", "core", "IPC", "stall %", "fills", "pf hits", "core µs", "agg µs"
    );
    for mix in &mixes {
        let trace = KernelTrace::from_mix(16_384, mix.flops_per_access, mix.pattern, 11);
        let mut rows = Vec::new();
        let mut cpu_core = CoreModel::cpu_core(&sys.cpu, cpu_port);
        let r = cpu_core.run(&trace);
        rows.push(("CPU", r, r.seconds(sys.cpu.clock_hz), cpu_cores));
        let mut ndp_core = CoreModel::ndp_core(&sys.ndp, ndp_port);
        let r = ndp_core.run(&trace);
        rows.push(("NDP", r, r.seconds(sys.ndp.clock_hz), ndp_cores));
        for (label, r, secs, cores) in &rows {
            println!(
                "{:<16} {:<6} {:>8.2} {:>8.1}% {:>10} {:>10} {:>11.1} {:>10.2}",
                mix.name,
                label,
                r.ipc(),
                100.0 * r.mem_stall_fraction(),
                r.dram_fills,
                r.prefetch_hits,
                secs * 1e6,
                secs / cores * 1e6
            );
        }
        let (_, _, cpu_s, _) = rows[0];
        let (_, _, ndp_s, _) = rows[1];
        println!(
            "{:<16} → per-core CPU wins {:.1}×; ×cores NDP wins {:.1}×  ({})\n",
            "",
            ndp_s / cpu_s,
            (cpu_s / cpu_cores) / (ndp_s / ndp_cores),
            mix.note
        );
    }
    println!(
        "Reading: a lone NDP core loses every mix — it is a wimpy in-order\n\
         core. What flips the memory-bound mixes (FFT, face-splitting) is 256\n\
         prefetching cores each owning a slice of in-stack bandwidth: the\n\
         'agg µs' column divides by core count with per-core bandwidth shares\n\
         already taken from the measured calibration, so it is bandwidth-\n\
         honest. For GEMM/SYEVD the naive ÷cores column over-promises: real\n\
         blocked GEMM needs an L2 the NDP cores lack (the 24 KiB-resident mix\n\
         here is the best case) and SYEVD parallelism is panel-limited — the\n\
         fig4/fig7 harnesses carry those effects; placement is decided there."
    );
}
