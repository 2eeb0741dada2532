//! Per-layer measurements, taken from outside the program: the
//! engine's own telemetry after an untraced run, and a single-thread
//! replay that calls each layer's public function in worker order and
//! records one span per call.

use crate::closed_loop::{Observed, ServeRun};
use crate::stats::{mean, median};
use crate::workload::{Item, Workload};
use crate::Metrics;
use ndft_core::{calib, run_ndft_with, NdftOptions};
use ndft_dft::{atom_block_bytes, KsHamiltonian};
use ndft_serve::{
    execute_payload, plan_placement, DftJob, Fingerprint, JobKind, JobOutcome, ResultCache,
    ServeConfig, Stage,
};
use ndft_shmem::simulate_block_gather;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `ndft-serve` layer metrics from an untraced run. Stage percentiles
/// come from the engine's lifetime histograms (warm-up included);
/// counts and ratios cover the timed phase alone.
pub fn serve_layers(run: &ServeRun, cfg: &ServeConfig, out: &mut Metrics) {
    let (t0, t1) = (&run.before.telemetry, &run.after.telemetry);
    let p50_ns = |stage: Stage| t1.stage_total(stage).p50_ns() as f64;
    out.push(
        "serve.submit_us_p50",
        run.timed.submit.quantile_ms(0.5) * 1e3,
        "us",
    );
    out.push(
        "serve.queue_wait_ms_p50",
        p50_ns(Stage::QueueWait) * 1e-6,
        "ms",
    );
    out.push("serve.plan_stage_us_p50", p50_ns(Stage::Plan) * 1e-3, "us");
    out.push("serve.execute_ms_p50", p50_ns(Stage::Execute) * 1e-6, "ms");
    let execute_s = (t1.stage_total(Stage::Execute).sum_ns()
        - t0.stage_total(Stage::Execute).sum_ns()) as f64
        * 1e-9;
    out.push(
        "serve.execute_busy_fraction",
        execute_s / (cfg.workers as f64 * run.timed.wall_s),
        "ratio",
    );
    out.push("serve.fulfill_us_p50", p50_ns(Stage::Fulfill) * 1e-3, "us");

    let (a, b) = (&run.after.report, &run.before.report);
    let executed = (a.completed - a.served_from_cache) - (b.completed - b.served_from_cache);
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    out.push(
        "serve.jobs_per_plan",
        ratio(executed, a.planner_calls - b.planner_calls),
        "jobs",
    );
    out.push(
        "serve.fused_job_fraction",
        ratio(a.fused_jobs - b.fused_jobs, executed),
        "ratio",
    );
    out.push(
        "serve.cache_evictions",
        (a.cache.evictions - b.cache.evictions) as f64,
        "count",
    );
    let dispatched = |r: &ndft_serve::ServeReport| r.shard_dispatched.iter().sum::<u64>();
    out.push(
        "serve.steal_fraction",
        ratio(a.stolen_jobs - b.stolen_jobs, dispatched(a) - dispatched(b)),
        "ratio",
    );
    let (hits, misses) = (a.cache.hits - b.cache.hits, a.cache.misses - b.cache.misses);
    out.push("serve.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
    out.note(format!(
        "serve.cache_hit_ratio = {hits} hits / ({hits} hits + {misses} misses) at submit"
    ));
}

/// One recorded call.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// Index of the replayed job the span belongs to.
    job: usize,
    start_ns: u64,
    dur_ns: u64,
}

/// Spans of the layers a job crosses, in worker order.
const CHAIN: [&str; 7] = [
    "serve.fingerprint",
    "serve.cache",
    "dft.task_graph",
    "sched.plan",
    "core.model",
    "dft.solve",
    "serve.store",
];

/// Stop replaying timed-stream jobs once their chains took this long.
const REPLAY_BUDGET: Duration = Duration::from_secs(3);

/// A single-thread replay of a workload's jobs. Spans stay in memory
/// until the end of the run.
struct Replay {
    origin: Instant,
    spans: Vec<Span>,
    /// Root spans of jobs from the timed stream (not warm-up).
    timed_roots: Vec<usize>,
}

impl Replay {
    fn open(&mut self, name: &'static str, parent: Option<usize>, job: usize) -> usize {
        self.spans.push(Span {
            name,
            parent,
            job,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        let end = self.origin.elapsed().as_nanos() as u64;
        let s = &mut self.spans[span];
        s.dur_ns = end - s.start_ns;
    }

    fn call<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        job: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, Some(parent), job);
        let value = f();
        self.close(span);
        value
    }

    /// fingerprint → cache → task_graph → plan → run_ndft_with →
    /// execute_payload → store, as a worker runs a singleton batch.
    /// Returns the root span.
    fn job(
        &mut self,
        job_index: usize,
        item: &Item,
        cache: &ResultCache<Arc<JobOutcome>>,
        cfg: &ServeConfig,
        obs: &mut Observed,
    ) -> usize {
        let job = &item.job;
        let root = self.open("replay.job", None, job_index);
        let fingerprint = self.call(CHAIN[0], root, job_index, || job.fingerprint());
        if fingerprint != item.fingerprint {
            obs.fail(|| format!("replay fingerprint of {job} differs"));
        }
        if let Some(hit) = self.call(CHAIN[1], root, job_index, || cache.get(&fingerprint)) {
            if hit.job != *job {
                obs.fail(|| format!("replay cache returned another job for {job}"));
            }
            self.close(root);
            return root;
        }
        let graph = self
            .call(CHAIN[2], root, job_index, || job.task_graph())
            .expect("generated jobs are valid");
        let placement = self.call(CHAIN[3], root, job_index, || {
            plan_placement(&graph, cfg.policy)
        });
        let modeled = self.call(CHAIN[4], root, job_index, || {
            run_ndft_with(&graph, NdftOptions::default())
        });
        match self.call(CHAIN[5], root, job_index, || execute_payload(job)) {
            Ok((payload, wall_numeric)) => self.call(CHAIN[6], root, job_index, || {
                let cost = placement.modeled_cost_s(modeled.iterations);
                let outcome = JobOutcome {
                    job: job.clone(),
                    fingerprint,
                    payload,
                    placement,
                    modeled,
                    wall_numeric,
                };
                cache.store(fingerprint, Arc::new(outcome), cost);
            }),
            Err(e) => obs.fail(|| format!("replay of {job} failed: {e}")),
        }
        self.close(root);
        // Two layers run inside the calls above and have no public seam
        // there; time them with the same inputs under a separate root.
        let probe = self.open("replay.probe", None, job_index);
        let atoms = job.atoms();
        self.call("shmem.block_gather", probe, job_index, || {
            simulate_block_gather(
                calib::system_config(),
                atoms,
                atom_block_bytes(),
                NdftOptions::default().comm_scheme,
            )
        });
        if let Some(opts) = job.scf_options() {
            let system = job.system().expect("generated jobs are valid");
            self.call("dft.hamiltonian", probe, job_index, || {
                KsHamiltonian::new(&system, &opts)
            });
        }
        self.close(probe);
        root
    }

    /// Durations of every span named `name`, ascending.
    fn durations_ms(&self, name: &str, only_kind: Option<JobKind>, items: &[Item]) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| only_kind.is_none_or(|k| items[s.job].job.kind() == k))
            .map(|s| s.dur_ns as f64 * 1e-6)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Mean self time per timed-stream job of each chain layer, µs: the
    /// span's duration minus the part its children cover.
    fn self_time_us(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let timed: std::collections::HashSet<usize> = self.timed_roots.iter().copied().collect();
        let jobs = self.timed_roots.len().max(1) as f64;
        std::iter::once("replay.job")
            .chain(CHAIN)
            .map(|name| {
                let total: u64 = self
                    .spans
                    .iter()
                    .enumerate()
                    .filter(|(i, s)| s.name == name && timed.contains(&s.parent.unwrap_or(*i)))
                    .map(|(i, s)| s.dur_ns - child_ns[i].min(s.dur_ns))
                    .sum();
                (name, total as f64 * 1e-3 / jobs)
            })
            .collect()
    }

    /// Writes the spans as Chrome-trace JSON.
    fn write(&self, path: &Path, items: &[Item]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"job\":\"{}\"}}}}{sep}",
                s.name,
                s.start_ns as f64 * 1e-3,
                s.dur_ns as f64 * 1e-3,
                items[s.job].job,
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// Per-kind solve spans reported as `dft.solve_ms_p50.<kind>`.
const KINDS: [JobKind; 6] = [
    JobKind::GroundState,
    JobKind::MdSegment,
    JobKind::TdaSpectrum,
    JobKind::CasidaSpectrum,
    JobKind::BandStructure,
    JobKind::ScfSelfConsistent,
];

/// Jobs that differ only in a seed-drawn mixing factor share a shape.
fn shape(job: &DftJob) -> Fingerprint {
    match job {
        DftJob::ScfSelfConsistent { .. } => {
            let mut job = job.clone();
            if let DftJob::ScfSelfConsistent { alpha, .. } = &mut job {
                *alpha = 0.5;
            }
            job.fingerprint()
        }
        _ => job.fingerprint(),
    }
}

/// Replays a seeded sample of `workload` on this thread: first the
/// jobs that warm the engine's cache in the real run (for
/// `repeat_hits`), then a sample of the timed stream (see
/// [`Workload::replay_jobs`]). Pushes the per-layer metrics and returns
/// the single-thread rate, jobs/s.
pub fn replay(
    workload: Workload,
    seed: u64,
    seconds: u64,
    cfg: &ServeConfig,
    spans_path: &Path,
    obs: &mut Observed,
    out: &mut Metrics,
) -> f64 {
    let cache = ResultCache::new(cfg.cache_capacity, cfg.cache_policy);
    let mut r = Replay {
        origin: Instant::now(),
        spans: Vec::new(),
        timed_roots: Vec::new(),
    };
    let mut items: Vec<Item> = Vec::new();
    if workload == Workload::RepeatHits {
        let mut warm = workload.warmup(seed, cfg);
        while let Some(item) = warm.next_item() {
            r.job(items.len(), &item, &cache, cfg, obs);
            items.push(item);
        }
    }
    let mut timed = workload.timed(seed, seconds, cfg);
    let rate = match workload.replay_jobs() {
        // An endless stream draws jobs independently, so its head is a
        // fair sample.
        Some(max_jobs) => {
            let mut chain_ns = 0u64;
            while r.timed_roots.len() < max_jobs && chain_ns < REPLAY_BUDGET.as_nanos() as u64 {
                let Some(item) = timed.next_item() else {
                    break;
                };
                let root = r.job(items.len(), &item, &cache, cfg, obs);
                chain_ns += r.spans[root].dur_ns;
                r.timed_roots.push(root);
                items.push(item);
            }
            r.timed_roots.len() as f64 / (chain_ns as f64 * 1e-9)
        }
        // A fixed set: replay one job in eight of each shape (at least
        // one) and weight the shape's mean chain time by how often it
        // occurs in the set.
        None => {
            let mut set = Vec::new();
            while let Some(item) = timed.next_item() {
                set.push(item);
            }
            // Per shape: (jobs in the set, jobs replayed, chain ns).
            let mut shapes: HashMap<Fingerprint, (u64, u64, u64)> = HashMap::new();
            for item in &set {
                shapes.entry(shape(&item.job)).or_default().0 += 1;
            }
            for item in set {
                let (count, replayed, chain_ns) =
                    shapes.get_mut(&shape(&item.job)).expect("counted above");
                if *replayed < count.div_ceil(8) {
                    let root = r.job(items.len(), &item, &cache, cfg, obs);
                    *replayed += 1;
                    *chain_ns += r.spans[root].dur_ns;
                    r.timed_roots.push(root);
                    items.push(item);
                }
            }
            let set_jobs: u64 = shapes.values().map(|s| s.0).sum();
            let set_s: f64 = shapes
                .values()
                .map(|&(count, replayed, ns)| count as f64 * ns as f64 * 1e-9 / replayed as f64)
                .sum();
            set_jobs as f64 / set_s
        }
    };

    let p50 = |v: Vec<f64>| median(&v);
    out.push(
        "sched.plan_us_p50",
        p50(r.durations_ms("sched.plan", None, &items)) * 1e3,
        "us",
    );
    out.push(
        "core.model_us_p50",
        p50(r.durations_ms("core.model", None, &items)) * 1e3,
        "us",
    );
    out.push(
        "shmem.block_gather_us_p50",
        p50(r.durations_ms("shmem.block_gather", None, &items)) * 1e3,
        "us",
    );
    out.push(
        "dft.task_graph_us_p50",
        p50(r.durations_ms("dft.task_graph", None, &items)) * 1e3,
        "us",
    );
    out.push(
        "dft.hamiltonian_ms_p50",
        p50(r.durations_ms("dft.hamiltonian", None, &items)),
        "ms",
    );
    for kind in KINDS {
        out.push(
            format!("dft.solve_ms_p50.{}", kind.label()),
            p50(r.durations_ms("dft.solve", Some(kind), &items)),
            "ms",
        );
    }
    for (name, us) in r.self_time_us() {
        out.push(
            format!("replay.self_us.{}", name.rsplit('.').next().unwrap_or(name)),
            us,
            "us",
        );
    }
    out.push("replay.single_thread_jobs_per_s", rate, "1/s");
    out.note(format!(
        "replay: {} timed-stream jobs ({} spans) on one thread; a layer that never ran reads 0",
        r.timed_roots.len(),
        r.spans.len()
    ));
    match r.write(spans_path, &items) {
        Ok(()) => out.note(format!("replay spans written to {}", spans_path.display())),
        Err(e) => out.note(format!("could not write {}: {e}", spans_path.display())),
    }
    rate
}

/// Mean SCF iterations and median largest residual of the SCF solves
/// the engine returned; 0 when the workload runs none.
pub fn scf_quality(obs: &Observed, out: &mut Metrics) {
    out.push(
        "dft.scf_iterations_mean",
        mean(&obs.scf_iterations),
        "iterations",
    );
    out.push(
        "dft.scf_max_residual_p50",
        median(&obs.scf_residuals),
        "residual",
    );
}
