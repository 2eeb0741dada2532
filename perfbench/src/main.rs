//! Closed-loop benchmark of the `ndft-serve` engine, end to end and
//! layer by layer.
//!
//! ```text
//! ndft-perfbench --workload <scf_sweep|md_flood|repeat_hits> --seed <n> \
//!                --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload once through `DftService` +
//! `ClientSession` with tracing off and reports the end-to-end metrics.
//! `--trace 1` reports per-layer metrics instead: the engine's telemetry
//! after an untraced run, a second run with a `TraceCollector` attached,
//! a single-thread replay that times each layer's public function, the
//! `ndft-numerics` kernels, and the host ceilings. Every line but the
//! last is for people; the last is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
//! only when every output passed the check.

mod closed_loop;
mod kernels;
mod layers;
mod stats;
mod workload;

use closed_loop::{serve_run, Observed};
use ndft_serve::{DftService, ServeConfig};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;
use workload::Workload;

/// Set-up runs per invocation; `setup_s` is their median.
const SETUP_PROBES: usize = 31;

/// Metrics in the order they were taken, plus notes for the log.
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    fn print(&self) {
        for (name, value, unit) in &self.entries {
            println!("{name:<40} {value:>18.6} {unit}");
        }
        for note in &self.notes {
            println!("# {note}");
        }
    }

    fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a non-finite reading is 0.
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The set-up child: calibrate, start the engine, report, shut down.
fn setup_probe() {
    let t = Instant::now();
    ndft_core::calib::measured();
    let calib_ms = t.elapsed().as_secs_f64() * 1e3;
    let svc = DftService::start(ServeConfig::default());
    println!("ready {calib_ms}");
    std::io::stdout().flush().expect("flush set-up report");
    svc.shutdown();
}

/// Starts this program `SETUP_PROBES` times in set-up mode and returns,
/// per start, the seconds from spawning the process to its engine being
/// ready, and the milliseconds its calibration took.
fn measure_setup() -> (Vec<f64>, Vec<f64>) {
    let exe = std::env::current_exe().expect("path of this program");
    let mut setup_s = Vec::new();
    let mut calib_ms = Vec::new();
    for _ in 0..SETUP_PROBES {
        let t0 = Instant::now();
        let mut child = Command::new(&exe)
            .arg("--setup-probe")
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn set-up probe");
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut line)
            .expect("read set-up report");
        setup_s.push(t0.elapsed().as_secs_f64());
        let status = child.wait().expect("wait for set-up probe");
        let calib = line
            .strip_prefix("ready ")
            .and_then(|v| v.trim().parse::<f64>().ok());
        match calib {
            Some(ms) if status.success() => calib_ms.push(ms),
            _ => panic!("set-up probe failed: {status}, said {line:?}"),
        }
    }
    (setup_s, calib_ms)
}

fn run(args: &Args) -> bool {
    let cfg = ServeConfig::default();
    let w = args.workload;
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# workload {}: {}",
        w.name(),
        w.describe(&cfg, args.seconds)
    );
    println!(
        "# engine: ServeConfig::default() ({} workers, {} shards); host parallelism {threads}; \
         seed {}; {} s",
        cfg.workers, cfg.shards, args.seed, args.seconds
    );
    let (setup_s, calib_ms) = measure_setup();
    ndft_core::calib::measured();

    let mut obs = Observed::default();
    let mut m = Metrics {
        entries: Vec::new(),
        notes: Vec::new(),
    };
    // A traced invocation makes two engine runs; each gets half the time.
    let seconds = if args.trace {
        args.seconds.div_ceil(2)
    } else {
        args.seconds
    };
    let run = serve_run(w, args.seed, seconds, &cfg, false, &mut obs);
    let timed = &run.timed;
    let throughput = timed.completed as f64 / timed.wall_s;
    let mut attempted = run.attempted();
    let mut errors = run.errors();

    if !args.trace {
        // Each figure is the median over the timed phase's blocks.
        let tail = w.tail_quantile();
        let blocks = &timed.blocks;
        let over = |f: &dyn Fn(&closed_loop::Block) -> f64| {
            stats::median(&blocks.iter().map(f).collect::<Vec<_>>())
        };
        m.push(
            "throughput_jobs_per_s",
            over(&|b| b.completions as f64 / b.wall_s),
            "1/s",
        );
        m.push("latency_p50_ms", over(&|b| b.latency_p50_ms), "ms");
        let (tail_ms, tail_samples) = if w.tail_per_block() {
            (over(&|b| b.latency_tail_ms), w.block_jobs())
        } else {
            (timed.latency.quantile_ms(tail), timed.latency.count())
        };
        m.push("latency_tail_ms", tail_ms, "ms");
        m.push(
            "cpu_ms_per_job",
            over(&|b| b.cpu_s * 1e3 / b.completions as f64),
            "ms",
        );
        m.push("setup_s", stats::median(&setup_s), "s");
        m.push("peak_rss_mb", run.peak_rss_mb, "MB");
        m.note(format!(
            "per block: jobs/s {:.1?}; CPU ms/job {:.4?}",
            blocks
                .iter()
                .map(|b| b.completions as f64 / b.wall_s)
                .collect::<Vec<_>>(),
            blocks
                .iter()
                .map(|b| b.cpu_s * 1e3 / b.completions as f64)
                .collect::<Vec<_>>()
        ));
        let (a, b) = (&run.after.report, &run.before.report);
        m.note(format!(
            "engine over the timed phase: {} plans, {} fused jobs, {} stolen jobs, {} cache hits",
            a.planner_calls - b.planner_calls,
            a.fused_jobs - b.fused_jobs,
            a.stolen_jobs - b.stolen_jobs,
            a.cache.hits - b.cache.hits
        ));
        m.note(format!(
            "throughput, latency_p50_ms and cpu_ms_per_job are medians over {} blocks of {} \
             completions",
            blocks.len(),
            w.block_jobs()
        ));
        m.note(format!(
            "latency_tail_ms is p{} {}, {tail_samples} samples ({:.0} beyond it)",
            tail * 100.0,
            if w.tail_per_block() {
                "per block, median over blocks"
            } else {
                "over the whole timed phase"
            },
            tail_samples as f64 * (1.0 - tail)
        ));
        m.note(format!(
            "whole timed phase: {} jobs in {:.3} s = {throughput:.3} jobs/s, p50 {:.6} ms, \
             {:.6} CPU ms/job; setup_s is the median of {SETUP_PROBES} process starts",
            timed.completed,
            timed.wall_s,
            timed.latency.quantile_ms(0.5),
            timed.cpu_s * 1e3 / timed.completed.max(1) as f64
        ));
    } else {
        layers::serve_layers(&run, &cfg, &mut m);
        m.push("sim.calibration_ms", stats::median(&calib_ms), "ms");
        layers::scf_quality(&obs, &mut m);
        let traced = serve_run(w, args.seed, seconds, &cfg, true, &mut obs);
        attempted += traced.attempted();
        errors += traced.errors();
        let traced_throughput = traced.timed.completed as f64 / traced.timed.wall_s;
        m.push(
            "trace.overhead_ratio",
            traced_throughput / throughput,
            "ratio",
        );
        m.push("trace.events_recorded", traced.trace_events as f64, "count");
        m.push("trace.events_dropped", traced.trace_dropped as f64, "count");
        let spans = PathBuf::from(format!(
            "perfbench/out/{}-seed{}-replay.json",
            w.name(),
            args.seed
        ));
        let rate = layers::replay(w, args.seed, seconds, &cfg, &spans, &mut obs, &mut m);
        m.push(
            "serve.parallel_efficiency",
            throughput / (cfg.workers as f64 * rate),
            "ratio",
        );
        let ceilings = kernels::host_ceilings(&mut m);
        kernels::kernel_probes(&ceilings, &mut m);
    }

    obs.verify_samples();
    let failed = errors + obs.check_failures;
    let correct = failed == 0;
    m.note(format!(
        "error_rate = {} ({errors} failed or rejected + {} failed the output check, of \
         {attempted} attempted); {} workload classes re-run and compared bit for bit",
        failed as f64 / attempted.max(1) as f64,
        obs.check_failures,
        obs.samples.len()
    ));
    for note in &obs.notes {
        m.note(format!("check: {note}"));
    }
    m.print();
    println!("{}", m.json(correct, attempted, failed));
    correct
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--setup-probe") {
        setup_probe();
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: ndft-perfbench --workload <scf_sweep|md_flood|repeat_hits> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let correct = run(&args);
    std::process::exit(if correct { 0 } else { 1 });
}
