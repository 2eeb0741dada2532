//! The closed-loop load generator and the output check.
//!
//! One thread submits through a [`ClientSession`], keeps a fixed window
//! of jobs in flight, and submits the next job only when a completion
//! arrives on the session's [`CompletionStream`]. Every completion is
//! checked as it arrives.

use crate::stats::{self, LatencyRecorder};
use crate::workload::{Item, Source, Workload};
use ndft_dft::GroundState;
use ndft_serve::{
    execute_payload, ClientSession, CompletionStream, DftJob, DftService, JobOutcome, JobPayload,
    ServeConfig, ServeReport, SessionCompletion, TelemetrySnapshot, WorkloadClass,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the generator waits for one completion before it declares
/// the engine stalled.
const STALL: Duration = Duration::from_secs(120);

/// Whether every float of a payload is finite.
pub fn payload_is_finite(payload: &JobPayload) -> bool {
    fn all(v: &[f64]) -> bool {
        v.iter().all(|x| x.is_finite())
    }
    fn ground_state(gs: &GroundState) -> bool {
        all(&gs.energies_ev)
            && all(&gs.residuals)
            && gs
                .orbitals
                .as_slice()
                .iter()
                .all(|z| z.re.is_finite() && z.im.is_finite())
    }
    match payload {
        JobPayload::GroundState(gs) => ground_state(gs),
        JobPayload::Md(t) => {
            t.final_mean_displacement.is_finite()
                && t.samples.iter().all(|s| {
                    s.kinetic_ev.is_finite()
                        && s.potential_ev.is_finite()
                        && s.rebuild_fraction.is_finite()
                })
        }
        JobPayload::Tda(s) => all(&s.energies_ev) && s.hermiticity_error.is_finite(),
        JobPayload::Casida(c) => all(&c.energies_ev) && all(&c.tda_energies_ev),
        JobPayload::Bands(b) => {
            b.energies.iter().all(|e| all(e))
                && b.path
                    .iter()
                    .all(|p| p.distance.is_finite() && all(&p.frac))
        }
        JobPayload::SelfConsistent(sc) => {
            ground_state(&sc.ground_state) && all(&sc.density_residuals) && all(&sc.density)
        }
    }
}

/// Everything the output check saw across a run's phases.
#[derive(Default)]
pub struct Observed {
    /// Outputs that failed a check.
    pub check_failures: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
    /// The first outcome of each workload class, re-run directly at the
    /// end of the run and compared bit for bit.
    pub samples: BTreeMap<WorkloadClass, (DftJob, Arc<JobOutcome>)>,
    /// Iterations of every SCF solve returned.
    pub scf_iterations: Vec<f64>,
    /// Largest band residual of every SCF solve returned.
    pub scf_residuals: Vec<f64>,
    /// Per working-set slot, the outcome already checked: a cache serve
    /// hands back the same shared outcome, which needs no second scan.
    checked: Vec<Option<Arc<JobOutcome>>>,
}

impl Observed {
    /// Counts an output that failed the check.
    pub fn fail(&mut self, note: impl FnOnce() -> String) {
        self.check_failures += 1;
        self.note(note);
    }

    /// Keeps the first few notes for the log.
    fn note(&mut self, note: impl FnOnce() -> String) {
        if self.notes.len() < 8 {
            self.notes.push(note());
        }
    }

    fn check_outcome(&mut self, item: &Item, outcome: &Arc<JobOutcome>) {
        if let Some(slot) = item.slot {
            if self.checked.len() <= slot {
                self.checked.resize(slot + 1, None);
            }
            if self.checked[slot]
                .as_ref()
                .is_some_and(|seen| Arc::ptr_eq(seen, outcome))
            {
                return;
            }
        }
        if outcome.fingerprint != item.fingerprint || outcome.job != item.job {
            self.fail(|| format!("outcome of {} carries another job's identity", item.job));
        }
        if !payload_is_finite(&outcome.payload) {
            self.fail(|| format!("payload of {} is not finite", item.job));
        }
        self.samples
            .entry(item.job.workload_class())
            .or_insert_with(|| (item.job.clone(), Arc::clone(outcome)));
        let gs = match &outcome.payload {
            JobPayload::GroundState(gs) => Some(gs),
            JobPayload::SelfConsistent(sc) => Some(&sc.ground_state),
            _ => None,
        };
        if let Some(gs) = gs {
            self.scf_iterations.push(gs.iterations as f64);
            self.scf_residuals.push(gs.max_residual());
        }
        if let Some(slot) = item.slot {
            self.checked[slot] = Some(Arc::clone(outcome));
        }
    }

    /// Re-runs each sampled job through `execute_payload` and compares
    /// the engine's payload with the direct one.
    pub fn verify_samples(&mut self) {
        let samples = std::mem::take(&mut self.samples);
        for (class, (job, outcome)) in &samples {
            match execute_payload(job) {
                Ok((direct, _)) if direct == outcome.payload => {}
                Ok(_) => self.fail(|| format!("{class}: engine payload differs from direct run")),
                Err(e) => self.fail(|| format!("{class}: direct run failed: {e}")),
            }
        }
        self.samples = samples;
    }
}

/// A run of consecutive completions: how long it took, the process CPU
/// time spent meanwhile, and its jobs' latency percentiles.
pub struct Block {
    pub completions: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub latency_p50_ms: f64,
    /// At the percentile `run_phase` was given.
    pub latency_tail_ms: f64,
}

/// Counters and timings of one phase of the closed loop.
pub struct Phase {
    pub attempted: u64,
    pub accepted: u64,
    pub completed: u64,
    /// Completions that carried an error.
    pub failed: u64,
    /// Submissions the engine refused.
    pub rejected: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Per job, from the `submit` call to its completion's arrival.
    pub latency: LatencyRecorder,
    /// Per job, the `submit` call alone.
    pub submit: LatencyRecorder,
    /// Consecutive blocks of completions from the phase start, each
    /// ending before the phase stopped submitting (so none includes the
    /// final drain).
    pub blocks: Vec<Block>,
}

struct Entry {
    id: u64,
    t0: Instant,
    item: Item,
}

/// Jobs in flight, by session id. Ids are dense and the window is
/// small, so a ring indexed by the id's low bits holds them; an entry
/// overtaken by a whole ring of later ids moves to a map.
struct InFlight {
    ring: Vec<Option<Entry>>,
    overflow: HashMap<u64, Entry>,
}

impl InFlight {
    const SLOTS: usize = 4096;

    fn new() -> Self {
        InFlight {
            ring: (0..Self::SLOTS).map(|_| None).collect(),
            overflow: HashMap::new(),
        }
    }

    fn insert(&mut self, entry: Entry) {
        let slot = &mut self.ring[entry.id as usize % Self::SLOTS];
        if let Some(old) = slot.replace(entry) {
            self.overflow.insert(old.id, old);
        }
    }

    fn take(&mut self, id: u64) -> Option<Entry> {
        let slot = &mut self.ring[id as usize % Self::SLOTS];
        if slot.as_ref().is_some_and(|e| e.id == id) {
            slot.take()
        } else {
            self.overflow.remove(&id)
        }
    }
}

struct Generator<'a> {
    phase: Phase,
    table: InFlight,
    inflight: usize,
    obs: &'a mut Observed,
    /// Latencies of the block being filled (one recorder, reused, so
    /// the benchmark's own memory does not grow with the block count),
    /// when and at what process CPU time the block started, the
    /// completions that close it, and the tail percentile to take.
    block_latency: LatencyRecorder,
    block_start: Instant,
    block_cpu: f64,
    block_jobs: u64,
    tail: f64,
    /// When each closed block ended.
    block_ends: Vec<Instant>,
}

impl Generator<'_> {
    fn on_completion(&mut self, c: SessionCompletion) {
        let arrived = Instant::now();
        let Some(entry) = self.table.take(c.id.0) else {
            self.obs
                .fail(|| format!("completion for {} which is not in flight", c.id));
            return;
        };
        self.inflight -= 1;
        let latency = arrived - entry.t0;
        self.phase.latency.record(latency);
        self.block_latency.record(latency);
        if self.block_latency.count() == self.block_jobs {
            let cpu = stats::process_cpu_seconds();
            self.phase.blocks.push(Block {
                completions: self.block_jobs,
                wall_s: (arrived - self.block_start).as_secs_f64(),
                cpu_s: cpu - self.block_cpu,
                latency_p50_ms: self.block_latency.quantile_ms(0.5),
                latency_tail_ms: self.block_latency.quantile_ms(self.tail),
            });
            self.block_latency.clear();
            self.block_ends.push(arrived);
            self.block_start = arrived;
            self.block_cpu = cpu;
        }
        if c.fingerprint != entry.item.fingerprint {
            self.obs
                .fail(|| format!("completion of {} has another fingerprint", entry.item.job));
        }
        match c.result {
            Ok(outcome) => {
                self.phase.completed += 1;
                self.obs.check_outcome(&entry.item, &outcome);
            }
            Err(e) => {
                self.phase.failed += 1;
                self.obs.note(|| format!("{} failed: {e}", entry.item.job));
            }
        }
    }

    fn drain_ready(&mut self, stream: &CompletionStream) {
        while let Some(c) = stream.try_next() {
            self.on_completion(c);
        }
    }
}

/// Runs one phase: submits from `source` with at most `window` jobs in
/// flight until the source ends (or, for an endless source, until
/// `duration`), then waits for the jobs still in flight. Completions
/// are also grouped in blocks of `block_jobs`, with each block's median
/// and `tail` percentile latency.
#[allow(clippy::too_many_arguments)]
pub fn run_phase(
    session: &ClientSession<'_>,
    stream: &CompletionStream,
    source: &mut Source,
    window: usize,
    duration: Option<Duration>,
    block_jobs: u64,
    tail: f64,
    obs: &mut Observed,
) -> Phase {
    let cpu0 = stats::process_cpu_seconds();
    let start = Instant::now();
    let deadline = duration.filter(|_| source.is_endless()).map(|d| start + d);
    let mut g = Generator {
        phase: Phase {
            attempted: 0,
            accepted: 0,
            completed: 0,
            failed: 0,
            rejected: 0,
            wall_s: 0.0,
            cpu_s: 0.0,
            latency: LatencyRecorder::new(),
            submit: LatencyRecorder::new(),
            blocks: Vec::new(),
        },
        table: InFlight::new(),
        inflight: 0,
        obs,
        block_latency: LatencyRecorder::new(),
        block_start: start,
        block_cpu: cpu0,
        block_jobs,
        tail,
        block_ends: Vec::new(),
    };
    let mut open = true;
    let mut submitting_until = start;
    loop {
        while open && g.inflight < window {
            let Some(item) = source.next_item() else {
                open = false;
                break;
            };
            let t0 = Instant::now();
            if deadline.is_some_and(|d| t0 >= d) {
                open = false;
                break;
            }
            submitting_until = t0;
            g.phase.attempted += 1;
            match session.submit(item.job.clone()) {
                Ok(id) => {
                    g.phase.submit.record(t0.elapsed());
                    g.phase.accepted += 1;
                    g.table.insert(Entry { id: id.0, t0, item });
                    g.inflight += 1;
                }
                Err(e) => {
                    g.phase.rejected += 1;
                    g.obs.note(|| format!("{} rejected: {e:?}", item.job));
                }
            }
            g.drain_ready(stream);
        }
        if g.inflight == 0 {
            if open {
                continue;
            }
            break;
        }
        match stream.next_timeout(STALL) {
            Some(c) => g.on_completion(c),
            None => {
                let stuck = g.inflight;
                g.obs
                    .fail(|| format!("no completion within {STALL:?}; {stuck} jobs in flight"));
                break;
            }
        }
        g.drain_ready(stream);
    }
    g.phase.wall_s = start.elapsed().as_secs_f64();
    g.phase.cpu_s = stats::process_cpu_seconds() - cpu0;
    // Keep the blocks that ended while jobs were still being submitted:
    // the final drain runs below the window's load.
    let submit_end = deadline.unwrap_or(submitting_until);
    let complete = g
        .block_ends
        .iter()
        .filter(|&&end| end <= submit_end)
        .count();
    g.phase.blocks.truncate(complete);
    g.phase
}

/// Engine-side state captured around the timed phase.
pub struct Snapshot {
    pub report: ServeReport,
    pub telemetry: TelemetrySnapshot,
}

impl Snapshot {
    fn of(svc: &DftService) -> Self {
        Snapshot {
            report: svc.report(),
            telemetry: svc.telemetry(),
        }
    }
}

/// One engine's run of a workload: warm-up, then the timed phase.
pub struct ServeRun {
    pub warmup: Phase,
    pub timed: Phase,
    pub before: Snapshot,
    pub after: Snapshot,
    /// `VmHWM` at the end of the timed phase, MiB.
    pub peak_rss_mb: f64,
    /// Span events drained from an attached `TraceCollector`.
    pub trace_events: u64,
    /// Span events the engine's ring dropped before they were drained.
    pub trace_dropped: u64,
}

impl ServeRun {
    pub fn attempted(&self) -> u64 {
        self.warmup.attempted + self.timed.attempted
    }

    /// Failed plus rejected submissions of both phases.
    pub fn errors(&self) -> u64 {
        self.warmup.failed + self.warmup.rejected + self.timed.failed + self.timed.rejected
    }
}

/// Starts a fresh engine, runs `workload` through one session, and
/// shuts the engine down. With `traced`, a `TraceCollector` stays
/// attached and a second thread drains it while the run goes.
pub fn serve_run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    cfg: &ServeConfig,
    traced: bool,
    obs: &mut Observed,
) -> ServeRun {
    let svc = DftService::start(cfg.clone());
    let window = workload.window(cfg);
    let stop = AtomicBool::new(false);
    let collector = traced.then(|| svc.trace());
    let run = std::thread::scope(|scope| {
        let drainer = collector.as_ref().map(|col| {
            let stop = &stop;
            scope.spawn(move || {
                let mut events = 0u64;
                while !stop.load(Ordering::Acquire) {
                    events += col.drain().len() as u64;
                    std::thread::sleep(Duration::from_millis(1));
                }
                events + col.drain().len() as u64
            })
        });
        let (session, stream) = svc.session();
        let warmup = run_phase(
            &session,
            &stream,
            &mut workload.warmup(seed, cfg),
            window,
            None,
            workload.block_jobs(),
            workload.tail_quantile(),
            obs,
        );
        let before = Snapshot::of(&svc);
        let timed = run_phase(
            &session,
            &stream,
            &mut workload.timed(seed, seconds, cfg),
            window,
            Some(Duration::from_secs(seconds)),
            workload.block_jobs(),
            workload.tail_quantile(),
            obs,
        );
        let after = Snapshot::of(&svc);
        let peak_rss_mb = stats::peak_rss_mb();
        drop(session);
        // Every job resolved exactly once, so nothing may still arrive.
        while let Some(extra) = stream.try_next() {
            obs.fail(|| format!("second completion for {}", extra.id));
        }
        stop.store(true, Ordering::Release);
        let trace_events = drainer.map_or(0, |h| h.join().expect("trace drainer thread"));
        let trace_dropped = collector.as_ref().map_or(0, |c| c.dropped());
        ServeRun {
            warmup,
            timed,
            before,
            after,
            peak_rss_mb,
            trace_events,
            trace_dropped,
        }
    });
    drop(collector);
    let report = svc.shutdown();
    let accepted = run.warmup.accepted + run.timed.accepted;
    if !report.conservation_holds() || report.tickets_outstanding != 0 {
        obs.fail(|| "engine report breaks job conservation".to_string());
    }
    if report.submitted != accepted {
        obs.fail(|| {
            format!(
                "engine counted {} submissions, the session {accepted}",
                report.submitted
            )
        });
    }
    run
}
