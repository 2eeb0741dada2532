//! Serving-layer study: placement policies, a live stream, and the nine
//! CI gates (A/B sweeps and one-engine checks) over the `ndft-serve`
//! engine. `serve_study --help` describes every part, the statistic each
//! gate reads and its bound.

use ndft_bench::print_header;
use ndft_dft::{build_task_graph, SiliconSystem};
use ndft_serve::{
    execute_payload, plan_placement, CachePolicy, DftJob, DftService, FaultPlan, FederatedService,
    FederationConfig, Fingerprint, JobRequest, JobTicket, PlacementPolicy, Priority, ServeConfig,
    ServeReport, Stage, TelemetrySnapshot, WorkflowSpec,
};
use std::fmt;
use std::ops::RangeBounds;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Jobs in the fixed smoke mix.
const MIX_JOBS: usize = 100;
/// Jobs in the contention mix (one workload class, distinct seeds) —
/// sized so one run takes a few hundred ms of wall clock, long enough
/// that the four workers' batches overlap many times.
const CONTENTION_JOBS: usize = 256;
/// Paired rounds per A/B sweep (absorbs scheduler noise).
const REPEATS: usize = 3;
/// Paired rounds of the shard and multiplex sweeps (gates #1 and #3).
/// Their legs are short wall-clock throughput runs that three rounds
/// left flaky on 2-vCPU hosts; two more rounds give each leg's best
/// round more chances to land in a quiet window, with the statistic
/// and bound unchanged.
const WALL_REPEATS: usize = 5;
/// Fresh-engine passes of the demo mix in one shard-sweep leg (gate #1).
/// One pass executes about a dozen distinct solves in ~0.1 s, so its
/// throughput swings with where those few solves land, and a lucky
/// single-queue round sank the ratio of bests about once in twenty
/// runs. Eight passes per leg average that out; the cache starts cold
/// each pass, so every pass runs the same work.
const SHARD_PASSES: usize = 8;
/// Allowed fractional regression before the shard-sweep gate fails —
/// shared CI runners jitter a few percent run-to-run; a real sharding
/// regression (a lost steal path, a serialized hot lock) costs far
/// more.
const GATE_TOLERANCE: f64 = 0.05;
/// Jobs in the multiplex mix (one `ClientSession`, one drainer thread).
const MULTIPLEX_JOBS: usize = 10_000;
/// Distinct fingerprints in the multiplex mix; the rest are cache
/// serves, so the sweep stresses the client API (submission, completion
/// forwarding, draining) rather than the solvers.
const MULTIPLEX_UNIQUE: u64 = 512;
/// Threads in the per-ticket `wait` baseline's pool.
const MULTIPLEX_WAITERS: usize = 4;
/// Tolerance for the multiplex gate: both paths run the same submission
/// loop and numerics, so the delta under test is pure completion-drain
/// overhead — small, and easily swamped by runner jitter. A real
/// regression (e.g. a lock convoy on the completion-hook path) costs far more.
const MULTIPLEX_GATE_TOLERANCE: f64 = 0.10;
/// Memory-tier capacity for the cache-policy sweep — small enough that
/// the cheap-segment flood overflows it every round.
const CACHE_CAPACITY: usize = 32;
/// Distinct expensive jobs in the cache sweep (long MD segments; ~120×
/// the modeled cost of a flood segment).
const CACHE_EXPENSIVE: u64 = 8;
/// Flood rounds in the cache sweep; each inserts `CACHE_FLOOD_PER_ROUND`
/// unique cheap segments, then resubmits every expensive job, then a
/// few long-evicted cheap ones (the disk tier's promotion fodder).
const CACHE_ROUNDS: u64 = 6;
/// Unique cheap segments per flood round (≈ the whole memory tier).
const CACHE_FLOOD_PER_ROUND: u64 = 30;
/// Jobs in the telemetry overhead mix — the multiplex mix's shape at
/// double its length, so most of the wall time is per-job bookkeeping
/// rather than solver work (exactly where telemetry overhead would
/// show). Legs are kept short on purpose: the best-round estimator
/// needs legs that fit inside the quiet windows between a shared
/// runner's interference bursts.
const TELEMETRY_JOBS: usize = 2 * MULTIPLEX_JOBS;
/// Span-ring capacity for the telemetry sweep's engine. Deliberately a
/// *bounded retained window*, not "big enough for the whole run": an
/// attached collector that never drains keeps the newest
/// `trace_capacity` events by design (drop-oldest, counted), and a
/// ring this size stays cache-resident — publishes recycle warm lines
/// instead of streaming every event through cold memory, which is
/// what any latency-sensitive deployment would configure. (A
/// run-sized ring inflates the traced leg's cost several-fold on this
/// mix: ~13 MB of event traffic turns every publish into write
/// misses.)
const TELEMETRY_TRACE_CAPACITY: usize = 1 << 13;
/// Paired rounds of the telemetry sweep. The gate compares a few
/// percent on a sub-second wall, so it takes more rounds than the other
/// sweeps for a witness round to turn up.
const TELEMETRY_REPEATS: usize = 7;
/// Tolerance for the telemetry overhead gate (gate #5). The latency
/// histograms are always on, in both rows; the A/B isolates the
/// subscriber-gated span path — with a `TraceCollector` attached every
/// job pays its publishes into the trace ring, and that must stay
/// within a few percent of the unwatched engine.
const TELEMETRY_GATE_TOLERANCE: f64 = 0.05;

/// Bulk-priority jobs in the QoS flood (distinct seeds, so the cache
/// absorbs nothing and every job genuinely occupies a worker).
const QOS_BULK_JOBS: u64 = 64;
/// Interactive jobs trickled in behind the whole bulk flood.
const QOS_INTERACTIVE_JOBS: u64 = 8;
/// Wall-clock MD steps per bulk flood job — sized so one job runs for
/// several milliseconds and the flood keeps both workers busy for a few
/// hundred, long enough that queue position dominates interactive
/// latency.
const QOS_BULK_STEPS: usize = 10_000;
/// Gate #6: interactive p99 must be at most this fraction of bulk p99
/// in the same run. Lane 0 jumps a ~60-deep backlog to wait out only
/// the in-flight batch, so the ratio reads 1e-3 to 0.1 with working
/// lanes; a FIFO dispatch (every job in one lane) reads ~1.0, because
/// the interactive trickle queues behind the whole flood. 0.7 leaves
/// wide headroom for runner jitter while catching a broken lane order
/// outright.
const QOS_GATE_RATIO: f64 = 0.7;

/// Jobs per leg in the federated sweep's uniform and skewed mixes.
const FED_JOBS: usize = 160;
/// Distinct hot fingerprints in the skewed federated mix; every other
/// submission is one of these, so each is resubmitted ~10 times.
const FED_HOT: u64 = 8;
/// Gate #7: on the uniform mix, a 4-replica federation (1 worker each)
/// must hold at least this fraction of a single 4-worker engine's
/// throughput. Routing adds one fingerprint hash and a read-locked ring
/// walk per submission — a real regression (a write-locked router, a
/// convoyed routing log, completion-hook overhead per completion) costs far
/// more than the 10% this leaves for runner jitter.
const FED_GATE_RATIO: f64 = 0.9;
/// Submission tick at which the failover leg's seeded fault plan kills
/// replica 0 — mid-flood by construction (the flood occupies ticks
/// 2..=61; tick 1 is the wedge blocker).
const FED_KILL_TICK: u64 = 30;

/// Concurrent SCF fan-out workflows in the DAG sweep. Four make each
/// leg 0.3–0.6 s on 2 vCPUs, long enough that one scheduling hiccup
/// does not decide gate #8's ratio. More lower the ratio instead (ten
/// read 1.23–1.44x): the pipelined leg's same-class refinements queue
/// behind one another, while the cold leg stays evenly spread over its
/// threads.
const DAG_WORKFLOWS: usize = 4;
/// `ScfSelfConsistent` refinements fanning out of each workflow's
/// `GroundState` seed (a k-point sweep over mixing factors).
const DAG_FANOUT: usize = 3;
/// Jobs per DAG leg: every workflow's seed plus its refinements.
const DAG_JOBS: usize = DAG_WORKFLOWS * (1 + DAG_FANOUT);
/// SCF iteration budget of workflow `w`'s seed (and, because
/// `DftJob::bootstrap` pairs them, of each of its refinements) —
/// offset per workflow so no two workflows share a fingerprint and no
/// job is served whole from cache.
const DAG_SCF_ITERS: usize = 12;
/// Gate #8: in the best paired round, pipelined `submit_workflow`
/// throughput must be at least this multiple of the cold baseline's
/// (the same jobs through `execute_payload` on as many threads, with
/// no engine). Every refinement the engine runs finds its workflow's
/// ground state in the result cache and skips its own SCF bootstrap,
/// which the cold baseline redoes per refinement (7 solves cold
/// against 4 seeded per workflow, so at most ~1.75x). It read 1.4–1.8x
/// on 2 vCPUs, so 1.2 catches an engine that quietly re-executes the
/// bootstrap outright while leaving room for runner jitter.
const DAG_GATE_RATIO: f64 = 1.2;

/// MD segments in the fused **amortization flood** (one `MdSegment`
/// class at Si_8, distinct seeds). Si_8 is where shared-operand
/// amortization bites hardest in the machine model: the
/// geometry-only pseudopotential projector tables are the largest
/// slice of modeled DRAM traffic at small atom counts, so charging
/// them once per fused batch (`build_task_graph_fused`) moves the
/// modeled makespan from the NDP stack to the (unamortized) CPU
/// stack — a ~1.2x modeled-throughput gain that saturates from
/// 4-member batches up.
const FUSED_AMORT_MD_JOBS: usize = 224;
/// `GroundState` contingent of the amortization flood: one Si_8 SCF
/// class, distinct band counts (bands are not part of the
/// `WorkloadClass`), so the batch executes through one shared
/// Kohn–Sham Hamiltonian.
const FUSED_SCF_JOBS: usize = 5;
/// MD steps per amortization-flood segment — cheap on purpose; this
/// leg gates *modeled* throughput, so wall time only has to stay
/// small enough that the paired rounds are quick.
const FUSED_AMORT_MD_STEPS: usize = 6;
/// Jobs in the fused **kernel flood** (one `MdSegment` class at
/// Si_256, distinct seeds). Si_256 is where fused execution bites
/// hardest in *wall clock*: the O(n²) neighbor scan dominates a
/// short segment (~0.16 ms of ~0.19 ms), and the fused path builds
/// it once per batch instead of once per job.
const FUSED_KERNEL_JOBS: usize = 256;
/// Wall-clock MD steps per kernel-flood segment — short, so the
/// shared bond scan stays the dominant per-job cost.
const FUSED_KERNEL_MD_STEPS: usize = 2;
/// Batch ceiling for both fused floods. The modeled amortization
/// saturates by 4 members; 16 keeps the average batch far above
/// that even with ragged first/last drains.
const FUSED_MAX_BATCH: usize = 16;
/// Gate #9: in the best paired round, the fused engine must hold at
/// least this multiple of the per-job engine's throughput — modeled
/// (amortization flood) and wall-clock (kernel flood). The
/// structural effects measure ~1.2x modeled and ~2.5x wall, so 1.15
/// leaves headroom for ragged batch formation and runner jitter
/// while catching a fused path that stops amortizing (or silently
/// falls back to per-job execution) outright.
const FUSED_GATE_RATIO: f64 = 1.15;

/// The leg row most gates compare.
const THROUGHPUT: &str = "throughput_jobs_per_s";

// The statistic each A/B gate reads. Gates #1 and #3 compare each leg's
// best round; the rest take an existence witness — one paired round where
// the effect shows is direct evidence for it, while a real regression
// pins every round's ratio on the wrong side of the bound. The
// estimator tests below pin each choice: best-round max is never below
// the ratio of bests, so moving #1 and #3 to it would loosen them.
const SHARD_STAT: Stat = Stat::RatioOfBests(THROUGHPUT);
const MULTIPLEX_STAT: Stat = Stat::RatioOfBests(THROUGHPUT);
const TELEMETRY_STAT: Stat = Stat::MaxRound(THROUGHPUT);
const FED_STAT: Stat = Stat::MaxRound(THROUGHPUT);
const DAG_STAT: Stat = Stat::MaxRound(THROUGHPUT);
/// Modeled throughput is the inverse of makespan, so this pair runs the
/// fused leg as A: its ratio is per-job over fused makespan.
const FUSED_MODELED_STAT: Stat = Stat::MaxRound("modeled_makespan_s");
const FUSED_WALL_STAT: Stat = Stat::MaxRound(THROUGHPUT);

/// One cell of a leg: rendered identically to JSON, the console and
/// markdown.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Val {
    Int(u64),
    Bool(bool),
    Str(&'static str),
    /// A float and the decimals it prints with.
    Float(f64, usize),
}

impl Val {
    fn json(self) -> String {
        match self {
            Val::Str(s) => format!("\"{s}\""),
            v => v.to_string(),
        }
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Val::Int(n) => write!(f, "{n}"),
            Val::Bool(b) => write!(f, "{b}"),
            Val::Str(s) => f.write_str(s),
            Val::Float(x, decimals) => write!(f, "{x:.decimals$}"),
        }
    }
}

macro_rules! val_from {
    ($($t:ty => $make:expr),*) => {
        $(impl From<$t> for Val {
            fn from(x: $t) -> Self {
                $make(x)
            }
        })*
    };
}
val_from!(u64 => Val::Int, bool => Val::Bool, &'static str => Val::Str);
val_from!(usize => |n| Val::Int(n as u64), f64 => |x| Val::Float(x, 6));

/// One measured leg of a sweep: its name (the JSON key, and the column
/// head in the console and markdown tables) and the ordered rows every
/// renderer and gate reads.
struct Leg {
    key: String,
    rows: Vec<(&'static str, Val)>,
    /// The engine's telemetry, for the telemetry sweep's legs.
    snapshot: Option<TelemetrySnapshot>,
}

impl Leg {
    fn new(key: impl Into<String>) -> Self {
        Leg {
            key: key.into(),
            rows: Vec::new(),
            snapshot: None,
        }
    }

    fn row(mut self, name: &'static str, value: impl Into<Val>) -> Self {
        self.rows.push((name, value.into()));
        self
    }

    /// Wall time and the throughput of `jobs` over it.
    fn timed(self, wall_s: f64, jobs: usize) -> Self {
        self.row("wall_s", wall_s)
            .row(THROUGHPUT, Val::Float(jobs as f64 / wall_s, 3))
    }

    /// Modeled busy time per target and the cluster makespan: the
    /// busiest target's total reserved time.
    fn modeled(self, r: &ServeReport) -> Self {
        self.row("modeled_cpu_busy_s", r.modeled_cpu_busy_s)
            .row("modeled_ndp_busy_s", r.modeled_ndp_busy_s)
            .row(
                "modeled_makespan_s",
                r.modeled_cpu_busy_s.max(r.modeled_ndp_busy_s),
            )
    }

    fn get(&self, name: &str) -> Option<Val> {
        self.rows.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    fn num(&self, name: &str) -> f64 {
        match self.get(name) {
            Some(Val::Int(n)) => n as f64,
            Some(Val::Float(x, _)) => x,
            other => panic!("leg {} row {name} is not numeric: {other:?}", self.key),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.get(name) == Some(Val::Bool(true))
    }
}

/// How a gate reduces its paired rounds to one `b / a` ratio of a row.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Stat {
    /// Each leg keeps its highest-row round; the ratio of those bests.
    RatioOfBests(&'static str),
    /// The paired round with the highest ratio.
    MaxRound(&'static str),
}

impl Stat {
    fn row(self) -> &'static str {
        match self {
            Stat::RatioOfBests(row) | Stat::MaxRound(row) => row,
        }
    }

    fn ratio(self, a: &Leg, b: &Leg) -> f64 {
        b.num(self.row()) / a.num(self.row()).max(1e-12)
    }
}

impl fmt::Display for Stat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stat::RatioOfBests(row) => write!(f, "ratio of bests of {row}"),
            Stat::MaxRound(row) => write!(f, "max round of {row}"),
        }
    }
}

/// The outcome of an A/B sweep: the legs the statistic came from and
/// their ratio, so a reported ratio always matches the legs beside it.
struct Pair {
    a: Leg,
    b: Leg,
    ratio: f64,
    stat: Stat,
    rounds: usize,
    /// The round both legs came from, for a statistic that picks one
    /// (`MaxRound`).
    round: Option<usize>,
}

/// Runs `repeats` rounds of leg A (`run(false)`) then leg B
/// (`run(true)`) — interleaved, so drift in background load lands on
/// both sides of a round — and reduces them with `stat`.
fn paired(repeats: usize, stat: Stat, mut run: impl FnMut(bool) -> Leg) -> Pair {
    let rounds = (0..repeats).map(|_| {
        let a = run(false);
        (a, run(true))
    });
    let (round, (a, b)) = match stat {
        Stat::RatioOfBests(row) => {
            let (a_legs, b_legs): (Vec<Leg>, Vec<Leg>) = rounds.unzip();
            let best = |legs: Vec<Leg>| {
                legs.into_iter()
                    .max_by(|x, y| x.num(row).total_cmp(&y.num(row)))
                    .expect("at least one round")
            };
            (None, (best(a_legs), best(b_legs)))
        }
        Stat::MaxRound(_) => {
            let (round, legs) = rounds
                .enumerate()
                .max_by(|(_, x), (_, y)| stat.ratio(&x.0, &x.1).total_cmp(&stat.ratio(&y.0, &y.1)))
                .expect("at least one round");
            (Some(round), legs)
        }
    };
    Pair {
        ratio: stat.ratio(&a, &b),
        a,
        b,
        stat,
        rounds: repeats,
        round,
    }
}

/// A plain table: a header row and body rows of cells.
struct Table {
    head: Vec<String>,
    body: Vec<Vec<String>>,
}

impl Table {
    /// Fixed-width text: first column left-aligned, the rest right.
    fn console(&self) -> String {
        let rows: Vec<&Vec<String>> = std::iter::once(&self.head).chain(&self.body).collect();
        let widths: Vec<usize> = (0..self.head.len())
            .map(|c| rows.iter().map(|r| r[c].chars().count()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for row in rows {
            for (c, cell) in row.iter().enumerate() {
                let w = widths[c];
                out += &if c == 0 {
                    format!("{cell:<w$}")
                } else {
                    format!("  {cell:>w$}")
                };
            }
            out.push('\n');
        }
        out
    }

    fn markdown(&self) -> String {
        let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
        let rule: Vec<String> = (0..self.head.len())
            .map(|c| if c == 0 { "---" } else { "---:" }.to_string())
            .collect();
        std::iter::once(line(&self.head))
            .chain([line(&rule)])
            .chain(self.body.iter().map(|r| line(r)))
            .collect()
    }
}

/// One section of the report: its parameters, its legs and the ratios
/// read from them, in JSON order.
struct Sweep<'a> {
    title: String,
    params: Vec<(&'static str, Val)>,
    legs: Vec<&'a Leg>,
    ratios: Vec<(&'static str, Val)>,
}

impl<'a> Sweep<'a> {
    fn new(title: impl Into<String>, legs: Vec<&'a Leg>) -> Self {
        Sweep {
            title: title.into(),
            params: Vec::new(),
            legs,
            ratios: Vec::new(),
        }
    }

    /// A sweep over one A/B pair, titled with the statistic it read and
    /// reporting the pair's ratio under `ratio_key`.
    fn of(title: &str, pair: &'a Pair, ratio_key: &'static str) -> Self {
        let title = format!("{title}; {} over {} rounds", pair.stat, pair.rounds);
        Self::new(title, vec![&pair.a, &pair.b]).ratio(ratio_key, pair.ratio)
    }

    fn param(mut self, key: &'static str, value: impl Into<Val>) -> Self {
        self.params.push((key, value.into()));
        self
    }

    fn ratio(mut self, key: &'static str, ratio: f64) -> Self {
        self.ratios.push((key, Val::Float(ratio, 4)));
        self
    }

    /// One row per leg row, one column per leg.
    fn table(&self) -> Table {
        let mut head = vec![String::new()];
        head.extend(self.legs.iter().map(|l| l.key.clone()));
        let body = self.legs[0]
            .rows
            .iter()
            .map(|&(name, _)| {
                let cells = self.legs.iter().map(|l| {
                    let v = l.get(name).expect("the legs of a sweep share their rows");
                    v.to_string()
                });
                std::iter::once(name.to_string()).chain(cells).collect()
            })
            .collect();
        Table { head, body }
    }

    /// Title, parameters, leg table and ratios, for the console or as
    /// markdown.
    fn render(&self, markdown: bool) -> String {
        let scalars = |s: &[(&str, Val)]| {
            let cells: Vec<String> = s.iter().map(|(key, v)| format!("{key} = {v}")).collect();
            cells.join(", ")
        };
        let (title, table) = if markdown {
            (format!("### {}", self.title), self.table().markdown())
        } else {
            (self.title.clone(), self.table().console())
        };
        [title, scalars(&self.params), table, scalars(&self.ratios)]
            .iter()
            .filter(|part| !part.is_empty())
            .map(|part| format!("{}\n\n", part.trim_end()))
            .collect()
    }

    fn json_entries(&self) -> Vec<String> {
        let scalar = |(key, v): &(&str, Val)| format!("  \"{key}\": {}", v.json());
        let legs = self.legs.iter().map(|leg| {
            let rows: Vec<String> = leg
                .rows
                .iter()
                .map(|(name, v)| format!("    \"{name}\": {}", v.json()))
                .collect();
            format!("  \"{}\": {{\n{}\n  }}", leg.key, rows.join(",\n"))
        });
        let params = self.params.iter().map(scalar);
        params
            .chain(legs)
            .chain(self.ratios.iter().map(scalar))
            .collect()
    }
}

/// The JSON trajectory point: every sweep's entries in order, then the
/// traced run's telemetry surface.
fn to_json(sweeps: &[Sweep], telemetry: &TelemetrySnapshot) -> String {
    let mut entries = vec!["  \"bench\": \"serve_study\"".to_string()];
    entries.extend(sweeps.iter().flat_map(Sweep::json_entries));
    entries.push(format!("  \"telemetry\": {}", telemetry.to_json()));
    format!("{{\n{}\n}}\n", entries.join(",\n"))
}

/// Per-class per-stage latency percentiles, in ms.
fn percentile_table(snapshot: &TelemetrySnapshot) -> Table {
    let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
    let head = ["class", "stage", "count", "p50", "p90", "p99", "max"];
    let body = snapshot
        .classes
        .iter()
        .flat_map(|class| Stage::ALL.into_iter().map(move |stage| (class, stage)))
        .filter(|(class, stage)| !class.stage(*stage).is_empty())
        .map(|(class, stage)| {
            let h = class.stage(stage);
            vec![
                class.class.to_string(),
                stage.label().to_string(),
                h.count().to_string(),
                ms(h.p50_ns()),
                ms(h.p90_ns()),
                ms(h.p99_ns()),
                ms(h.max_ns()),
            ]
        })
        .collect();
    Table {
        head: head.map(String::from).to_vec(),
        body,
    }
}

/// Starts a fresh engine, runs `drive` against it and shuts it down,
/// timing the whole (start → `drive` returns → shutdown).
fn run_with(config: &ServeConfig, drive: impl FnOnce(&DftService)) -> (f64, ServeReport) {
    let start = Instant::now();
    let svc = DftService::start(config.clone());
    drive(&svc);
    let report = svc.shutdown();
    (start.elapsed().as_secs_f64(), report)
}

/// Submits every job, then waits for all of them.
fn submit_all(svc: &DftService, jobs: Vec<DftJob>) {
    let tickets: Vec<_> = jobs
        .into_iter()
        .map(|job| svc.submit_blocking(job).expect("submit"))
        .collect();
    for t in &tickets {
        t.wait().expect("job completes");
    }
}

/// Times `jobs` through a fresh engine; every job must complete.
fn run_jobs(config: &ServeConfig, jobs: Vec<DftJob>) -> (f64, ServeReport) {
    let n = jobs.len() as u64;
    let (wall_s, report) = run_with(config, |svc| submit_all(svc, jobs));
    assert_eq!((report.completed, report.failed), (n, 0));
    (wall_s, report)
}

/// One shard-sweep leg: [`SHARD_PASSES`] runs of the demo mix, each
/// through a fresh engine on one queue shard, or on one per worker.
fn shard_leg(sharded: bool) -> Leg {
    let shards = if sharded { 4 } else { 1 };
    let config = ServeConfig {
        workers: 4,
        shards,
        queue_capacity: 32,
        max_batch: 8,
        ..ServeConfig::default()
    };
    let passes: Vec<_> = (0..SHARD_PASSES)
        .map(|_| run_jobs(&config, DftJob::demo_mix(MIX_JOBS)))
        .collect();
    let wall_s = passes.iter().map(|(pass_s, _)| pass_s).sum();
    let r = ServeReport::merged(passes.iter().map(|(_, report)| report)).expect("a pass ran");
    Leg::new(["single_queue", "sharded"][sharded as usize])
        .row("shards", shards)
        .row("workers", config.workers)
        .timed(wall_s, SHARD_PASSES * MIX_JOBS)
        .row("planner_calls", r.planner_calls)
        .row("plans_reused", r.plans_reused)
        .row("steals", r.steals)
        .row("stolen_jobs", r.stolen_jobs)
        .row("served_from_cache", r.served_from_cache)
}

/// The contention mix: one `WorkloadClass` (so every batch consults the
/// planner for the same NDP-leaning graph), distinct fingerprints (so
/// the cache can't absorb the work).
fn contention_mix() -> Vec<DftJob> {
    (0..CONTENTION_JOBS as u64)
        .map(|seed| DftJob::MdSegment {
            atoms: 128,
            steps: 200, // heavy enough that batches genuinely overlap
            temperature_k: 300.0,
            seed,
        })
        .collect()
}

/// The contention run: four workers planning concurrent batches of the
/// contention mix against the shared cluster view.
fn contention_leg() -> Leg {
    let config = ServeConfig {
        workers: 4,
        shards: 4,
        queue_capacity: 64,
        max_batch: 8,
        ..ServeConfig::default()
    };
    let (wall_s, r) = run_jobs(&config, contention_mix());
    Leg::new("contention")
        .row("workers", config.workers)
        .timed(wall_s, CONTENTION_JOBS)
        .row("planner_calls", r.planner_calls)
        .row("plans_contended", r.plans_contended)
        .row("plans_shifted", r.plans_shifted)
        .modeled(&r)
}

/// Engine configuration shared by both multiplex paths. The cache must
/// hold every unique fingerprint (the mix cycles seeds, which would
/// thrash a smaller FIFO cache into re-executing everything).
fn multiplex_config() -> ServeConfig {
    ServeConfig {
        workers: 4,
        shards: 4,
        queue_capacity: 64,
        max_batch: 8,
        cache_capacity: 4096,
        ..ServeConfig::default()
    }
}

/// `n` jobs of the multiplex seed cycle: mostly cache-served MD
/// segments, so the measured wall time is dominated by the client API
/// rather than the solvers.
fn multiplex_mix(n: usize) -> Vec<DftJob> {
    (0..n as u64)
        .map(|n| {
            // Atoms keyed off the seed (not n), so the fingerprint count
            // really is MULTIPLEX_UNIQUE — an independent atom cycle
            // would silently double the distinct-job population.
            let seed = n % MULTIPLEX_UNIQUE;
            DftJob::MdSegment {
                atoms: if seed.is_multiple_of(3) { 128 } else { 64 },
                steps: 20,
                temperature_k: 300.0,
                seed,
            }
        })
        .collect()
}

/// Stream-drain path: one `ClientSession`, submissions from the main
/// thread while ONE spawned drainer consumes the `CompletionStream` in
/// finish order — completions are pushed to the client as they happen,
/// so draining fully overlaps submission. Total OS threads: workers + 2,
/// independent of how many jobs are outstanding.
fn run_multiplex_stream(svc: &DftService) {
    let (session, completions) = svc.session();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for _ in 0..MULTIPLEX_JOBS {
                // Bounded wait: if a job ever fails (its completion still
                // arrives) or a submit regression strands the drainer,
                // panic with a message instead of hanging the CI job —
                // the session outlives this scope, so recv() alone would
                // never observe a closed channel.
                completions
                    .next_timeout(Duration::from_secs(120))
                    .expect("completion within timeout")
                    .result
                    .expect("job completes");
            }
        });
        for job in multiplex_mix(MULTIPLEX_JOBS) {
            session.submit_blocking(job).expect("session submit");
        }
    });
    assert_eq!(session.in_flight(), 0);
}

/// Thread-pool `wait` baseline: what a frontend must build WITHOUT the
/// session API to handle completions concurrently with submission —
/// the main thread submits and hands each `JobTicket` to a pool of
/// waiter threads that block in per-ticket `wait`. Structurally
/// symmetric with the stream path (submission overlaps completion
/// handling in both), so the A/B isolates the completion mechanism:
/// hook-pushed channel vs ticket hand-off + parked `wait`.
fn run_multiplex_waitpool(svc: &DftService) {
    let (tx, rx) = std::sync::mpsc::channel::<JobTicket>();
    let rx = Mutex::new(rx);
    std::thread::scope(|scope| {
        for _ in 0..MULTIPLEX_WAITERS {
            scope.spawn(|| loop {
                let next = rx.lock().expect("waiter pool lock").recv();
                let Ok(ticket) = next else {
                    break;
                };
                ticket.wait().expect("job completes");
            });
        }
        for job in multiplex_mix(MULTIPLEX_JOBS) {
            tx.send(svc.submit_blocking(job).expect("submit"))
                .expect("waiter pool alive");
        }
        drop(tx);
    });
}

/// One multiplex-sweep leg: the session stream drain or the wait pool.
fn multiplex_leg(stream: bool) -> Leg {
    let config = multiplex_config();
    let drive = if stream {
        run_multiplex_stream
    } else {
        run_multiplex_waitpool
    };
    let (wall_s, r) = run_with(&config, drive);
    assert_eq!(r.completed, MULTIPLEX_JOBS as u64);
    assert_eq!(r.failed, 0);
    assert_eq!(r.tickets_outstanding, 0);
    let (key, drain) = [
        ("multiplex_waitpool", "thread_pool_wait"),
        ("multiplex_stream", "completion_stream"),
    ][stream as usize];
    Leg::new(key)
        .row("drain", drain)
        .row("workers", config.workers)
        .timed(wall_s, MULTIPLEX_JOBS)
        .row("served_from_cache", r.served_from_cache)
        .row("planner_calls", r.planner_calls)
        .row("tickets_outstanding_end", r.tickets_outstanding)
        .row("progress_events_dropped", r.progress_events_dropped)
}

/// One expensive cache-sweep job: a long MD segment whose modeled
/// re-creation cost (~0.9 modeled s, plan time × 50 steps) is ~120×
/// a flood segment's — the asymmetry the cost-weighted tier exists to
/// respect. MD keeps the *wall* cost of re-executions negligible, so
/// the sweep measures cache policy, not solver time.
fn cache_expensive(seed: u64) -> DftJob {
    DftJob::MdSegment {
        atoms: 128,
        steps: 50,
        temperature_k: 300.0,
        seed,
    }
}

/// One cheap flood job (~0.008 modeled s); unique seeds make most of
/// the flood genuinely new work.
fn cache_cheap(seed: u64) -> DftJob {
    DftJob::MdSegment {
        atoms: 64,
        steps: 1,
        temperature_k: 300.0,
        seed,
    }
}

/// The skewed repeat mix: every expensive job runs once up front, then
/// each round floods the cache with unique cheap segments (overflowing
/// the memory tier), resubmits every expensive job, and resubmits a
/// few cheap segments from two rounds ago (evicted from memory long
/// since — only the disk tier can still serve them). A final oversized
/// cheap flood closes the run, so a FIFO tier ends holding almost
/// nothing but flood entries while the cost-weighted tier still holds
/// the expensive population.
fn cache_mix() -> Vec<DftJob> {
    let mut jobs = Vec::new();
    for s in 0..CACHE_EXPENSIVE {
        jobs.push(cache_expensive(s));
    }
    let mut next_cheap = 0u64;
    for round in 0..CACHE_ROUNDS {
        for _ in 0..CACHE_FLOOD_PER_ROUND {
            jobs.push(cache_cheap(next_cheap));
            next_cheap += 1;
        }
        for s in 0..CACHE_EXPENSIVE {
            jobs.push(cache_expensive(s));
        }
        // Resubmit a few cheap segments from the flood of two rounds
        // ago (rounds 0 and 1 reach back to round 0): long evicted
        // from memory, so only the disk tier can still answer them.
        for k in 0..6 {
            jobs.push(cache_cheap(
                round.saturating_sub(2) * CACHE_FLOOD_PER_ROUND + k,
            ));
        }
    }
    for _ in 0..40 {
        jobs.push(cache_cheap(next_cheap));
        next_cheap += 1;
    }
    jobs
}

/// Runs the cache mix through one cache configuration. Single worker,
/// single shard: insertions then happen in near-submission order, so
/// the FIFO-vs-cost-weighted comparison reflects policy, not dispatch
/// interleaving. With `disk_tier`, a fresh persistent tier in a
/// temporary directory backs the memory tier.
fn cache_leg(policy: CachePolicy, disk_tier: bool) -> Leg {
    let dir = std::env::temp_dir().join(format!("ndft-serve-study-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        workers: 1,
        shards: 1,
        queue_capacity: 16,
        max_batch: 8,
        cache_capacity: CACHE_CAPACITY,
        cache_policy: policy,
        cache_dir: disk_tier.then(|| dir.clone()),
        ..ServeConfig::default()
    };
    let (wall_s, r) = run_jobs(&config, cache_mix());
    let _ = std::fs::remove_dir_all(&dir);
    let disk = if disk_tier { "_disk" } else { "" };
    Leg::new(format!("cache_{}{disk}", policy.label().replace('-', "_")))
        .row("policy", policy.label())
        .row("disk_tier", disk_tier)
        .row("wall_s", wall_s)
        .row("served_from_cache", r.served_from_cache)
        .row("cache_hits", r.cache.hits)
        .row("cache_misses", r.cache.misses)
        .row("evictions", r.cache.evictions)
        .row("cost_retained_s", r.cache.cost_retained_s)
        .row("disk_hits", r.cache.disk_hits)
        .row("disk_entries", r.cache.disk_len)
        .row("bytes_persisted", r.cache.bytes_persisted)
}

/// One telemetry-sweep leg: the telemetry mix through a fresh engine,
/// with or without a `TraceCollector` subscribed. Untraced, the
/// subscriber gate keeps the span path to one relaxed load per
/// would-be event; traced, every job publishes its full span chain
/// into the ring. The leg keeps the telemetry snapshot taken once every
/// ticket resolved, so the end-to-end histogram is complete.
fn telemetry_leg(traced: bool) -> Leg {
    let config = ServeConfig {
        trace_capacity: TELEMETRY_TRACE_CAPACITY,
        ..multiplex_config()
    };
    let svc = DftService::start(config.clone());
    let collector = if traced { Some(svc.trace()) } else { None };
    // Clock starts after engine spawn and collector attach: the A/B
    // compares the per-job serving cost of the span path, not one-time
    // setup (the attach pre-faults the trace ring's backing store).
    let start = Instant::now();
    submit_all(&svc, multiplex_mix(TELEMETRY_JOBS));
    // Clock stops when the last ticket resolves: the A/B measures the
    // engine-side publish path, not this harness draining the ring.
    let wall_s = start.elapsed().as_secs_f64();
    let snapshot = svc.telemetry();
    let (trace_events, trace_dropped) = collector
        .map(|c| (c.drain().len(), c.dropped()))
        .unwrap_or((0, 0));
    let report = svc.shutdown();
    assert_eq!(report.completed, TELEMETRY_JOBS as u64);
    assert_eq!(report.failed, 0);
    let e2e = snapshot.stage_total(Stage::EndToEnd);
    let ms = |ns: u64| ns as f64 / 1e6;
    let leg = Leg::new(["telemetry_unwatched", "telemetry_traced"][traced as usize])
        .row("traced", traced)
        .row("workers", config.workers)
        .timed(wall_s, TELEMETRY_JOBS)
        .row("jobs_recorded", snapshot.jobs_recorded())
        .row("trace_events", trace_events)
        .row("trace_events_dropped", trace_dropped)
        .row("e2e_p50_ms", ms(e2e.p50_ns()))
        .row("e2e_p90_ms", ms(e2e.p90_ns()))
        .row("e2e_p99_ms", ms(e2e.p99_ns()))
        .row("e2e_p999_ms", ms(e2e.p999_ns()))
        .row("e2e_max_ms", ms(e2e.max_ns()));
    Leg {
        snapshot: Some(snapshot),
        ..leg
    }
}

/// The QoS run. The whole bulk flood is submitted first, then the
/// interactive trickle lands behind it — the adversarial ordering for a
/// FIFO engine, and exactly the case priority lanes exist for. Every
/// job runs to completion (the shutdown drain finishes the flood), so
/// the run also witnesses that no class starves.
fn qos_leg() -> Leg {
    let total = QOS_BULK_JOBS + QOS_INTERACTIVE_JOBS;
    let config = ServeConfig {
        workers: 2,
        shards: 1,
        // The whole mix fits the queue: latency separation comes from
        // lane order, not backpressure.
        queue_capacity: total as usize,
        // Small batches keep dispatch decisions frequent, so lane
        // selection (not batch residency) dominates interactive wait.
        max_batch: 2,
        ..ServeConfig::default()
    };
    let mut snapshot = None;
    let (wall_s, r) = run_with(&config, |svc| {
        let submit = |priority, atoms, steps, seed| {
            let job = DftJob::MdSegment {
                atoms,
                steps,
                temperature_k: 300.0,
                seed,
            };
            let request = JobRequest::new(job).priority(priority);
            svc.submit_blocking(request).expect("submit")
        };
        let bulk: Vec<_> = (0..QOS_BULK_JOBS)
            .map(|seed| submit(Priority::Bulk, 96, QOS_BULK_STEPS, seed))
            .collect();
        let interactive: Vec<_> = (0..QOS_INTERACTIVE_JOBS)
            .map(|seed| submit(Priority::Interactive, 16, 8, seed))
            .collect();
        for t in interactive.iter().chain(&bulk) {
            t.wait().expect("job completes");
        }
        // Every ticket resolved, so the histograms cover the whole flood.
        snapshot = Some(svc.telemetry());
    });
    let snapshot = snapshot.expect("snapshot taken after the drain");
    // Zero starved jobs: the flood's tail drained to completion, nothing
    // was cancelled, dropped, or denied...
    assert_eq!(r.completed, total, "a job starved");
    assert_eq!(r.failed, 0);
    // ...and the terminal accounting balances exactly.
    assert!(r.conservation_holds(), "QOS GATE FAILED: conservation");
    // The p99 end-to-end latency one priority class saw (0.0 when the
    // class ran no jobs).
    let p99 = |p| snapshot.priority(p).quantile_s(0.99);
    Leg::new("qos")
        .row("workers", config.workers)
        .row("wall_s", wall_s)
        .row("completed", r.completed)
        .row("cancelled", r.cancelled)
        .row("deadline_dropped", r.deadline_dropped)
        .row("admission_denied", r.admission_denied)
        .row("interactive_p99_s", p99(Priority::Interactive))
        .row("bulk_p99_s", p99(Priority::Bulk))
}

/// The per-replica engine template every federated leg shares. One
/// shard per replica: the federation's ring *is* the sharding layer.
fn fed_engine_template(workers: usize) -> ServeConfig {
    ServeConfig {
        workers,
        shards: 1,
        queue_capacity: 512,
        max_batch: 8,
        ..ServeConfig::default()
    }
}

/// One federated-sweep leg: the uniform or skewed mix through a fresh
/// single engine or 4-replica ring, timed end-to-end. Total worker count
/// is held at 4 across leg shapes (1×4 vs 4×1), so the A/B isolates
/// routing + forwarding overhead, not parallelism. The uniform mix is
/// the canonical demo stream (the shard sweep's mix) — the
/// apples-to-apples throughput leg gate #7 compares.
fn fed_leg(skew: bool, ring: bool) -> Leg {
    let jobs = if skew {
        fed_skew_mix()
    } else {
        DftJob::demo_mix(FED_JOBS)
    };
    let n = jobs.len();
    let replicas = if ring { 4 } else { 1 };
    let workers_per_replica = 4 / replicas;
    let start = Instant::now();
    let fed = FederatedService::start(FederationConfig {
        replicas,
        engine: fed_engine_template(workers_per_replica),
        ..FederationConfig::default()
    });
    let tickets: Vec<_> = jobs
        .into_iter()
        .map(|job| fed.submit_blocking(job).expect("submit"))
        .collect();
    for t in &tickets {
        t.wait().expect("job completes");
    }
    let r = fed.shutdown();
    let wall_s = start.elapsed().as_secs_f64();
    assert_eq!(r.completed, n as u64);
    assert!(r.conservation_holds(), "federated conservation");
    let mix = if skew { "skew_" } else { "" };
    Leg::new(format!(
        "federated_{mix}{}",
        ["single", "ring4"][ring as usize]
    ))
    .row("replicas", r.replicas)
    .row("workers_per_replica", workers_per_replica)
    .timed(wall_s, n)
    .row("completed", r.completed)
    .row("served_from_cache", r.engines.served_from_cache)
    .row("conservation_holds", r.conservation_holds())
}

/// The skewed fingerprint-repeat mix: every other submission is one of
/// `FED_HOT` hot segments (each resubmitted ~10×), interleaved through
/// unique cheap segments. Consistent-hash routing sends every repeat
/// back to the replica whose cache already holds it, so the federation
/// serves the hot half without re-execution — the locality story the
/// ring exists for.
fn fed_skew_mix() -> Vec<DftJob> {
    (0..FED_JOBS)
        .map(|i| {
            if i % 2 == 0 {
                DftJob::MdSegment {
                    atoms: 64,
                    steps: 400,
                    temperature_k: 300.0,
                    seed: (i as u64 / 2) % FED_HOT,
                }
            } else {
                DftJob::MdSegment {
                    atoms: 64,
                    steps: 50,
                    temperature_k: 300.0,
                    seed: 1_000_000 + i as u64,
                }
            }
        })
        .collect()
}

/// The failover leg (the deterministic wedge the integration harness
/// proves out): replica 0's single worker is pinned by a long blocker,
/// ten victim-homed jobs queue behind it, and the seeded [`FaultPlan`]
/// kills the replica mid-flood — so those jobs *must* fail over. Every
/// client ticket still resolves Ok; the replayed jobs' end-to-end
/// latency (submission → result, across both queues) is the number a
/// capacity planner wants from this leg.
fn failover_leg() -> Leg {
    let victim = 0usize;
    let fed = FederatedService::start(FederationConfig {
        replicas: 4,
        engine: fed_engine_template(1),
        fault_plan: FaultPlan::new().kill_at(FED_KILL_TICK, victim),
    });
    let homed = |steps: usize, seed0: u64| -> DftJob {
        (seed0..)
            .map(|seed| DftJob::MdSegment {
                atoms: 64,
                steps,
                temperature_k: 300.0,
                seed,
            })
            .find(|j| fed.home_of(j) == Some(victim))
            .expect("some fingerprint homes on the victim")
    };
    let start = Instant::now();
    // Tick 1: the wedge — ~600 ms on the victim's only worker.
    let blocker = fed
        .submit_blocking(homed(400_000, 1 << 40))
        .expect("submit");
    while fed.replica_queue_depth(victim) != Some(0) {
        std::thread::yield_now();
    }
    // Ticks 2..=11: victim-homed jobs that will die queued and replay.
    // Ticks 12..=61: a mixed flood; the kill fires at tick FED_KILL_TICK.
    let victims = (0..10u64).map(|i| homed(50, (1 << 41) + i * (1 << 20)));
    let flood = (0..50u64).map(|seed| DftJob::MdSegment {
        atoms: 64,
        steps: 50,
        temperature_k: 300.0,
        seed,
    });
    let tickets: Vec<(Fingerprint, Instant, JobTicket)> = victims
        .chain(flood)
        .map(|job| {
            let fp = job.fingerprint();
            (
                fp,
                Instant::now(),
                fed.submit_blocking(job).expect("submit"),
            )
        })
        .collect();
    let latencies: Vec<(Fingerprint, f64)> = tickets
        .iter()
        .map(|(fp, submitted, ticket)| {
            ticket.wait().expect("every flooded job completes");
            (*fp, submitted.elapsed().as_secs_f64())
        })
        .collect();
    blocker
        .wait()
        .expect("in-flight blocker finishes during kill");
    let replayed: std::collections::HashSet<Fingerprint> =
        fed.replayed_fingerprints().into_iter().collect();
    let mut replayed_lat: Vec<f64> = latencies
        .iter()
        .filter(|(fp, _)| replayed.contains(fp))
        .map(|&(_, s)| s)
        .collect();
    replayed_lat.sort_by(f64::total_cmp);
    let rank = ((replayed_lat.len() as f64 * 0.99).ceil() as usize).saturating_sub(1);
    let replayed_p99_s = replayed_lat.get(rank).copied().unwrap_or(0.0);
    let r = fed.shutdown();
    let wall_s = start.elapsed().as_secs_f64();
    assert!(r.conservation_holds(), "failover conservation");
    Leg::new("federated_failover")
        .row("replicas", r.replicas)
        .row("kill_tick", FED_KILL_TICK)
        .row("kills", r.kills)
        .row("submitted", r.submitted)
        .row("completed", r.completed)
        .row("replayed", r.replayed)
        .row("tombstoned_replays", r.tombstoned_replays)
        .row("replayed_p99_s", replayed_p99_s)
        .row("wall_s", wall_s)
        .row("conservation_holds", r.conservation_holds())
}

/// Workflow `w`'s `GroundState` seed. The per-workflow iteration
/// offset keeps every workflow's jobs fingerprint-distinct (the kinds
/// carry no RNG seed), so no leg serves a whole job from cache.
fn dag_seed_job(w: usize) -> DftJob {
    DftJob::GroundState {
        atoms: 8,
        bands: 4,
        max_iterations: DAG_SCF_ITERS + w,
    }
}

/// Refinement `k` of workflow `w`'s sweep: same system/bands/iteration
/// budget as the seed (so the seed is its bootstrap — see
/// `DftJob::bootstrap`), distinct mixing factor per branch so the
/// fan-out shares no fingerprints either.
fn dag_sweep_job(w: usize, k: usize) -> DftJob {
    DftJob::ScfSelfConsistent {
        atoms: 8,
        bands: 4,
        max_iterations: DAG_SCF_ITERS + w,
        occupied: 2,
        cycles: 1,
        alpha: 0.30 + 0.05 * k as f64,
    }
}

/// Every job of the DAG sweep: each workflow's seed, then its
/// refinements.
fn dag_jobs() -> Vec<DftJob> {
    let seeds = (0..DAG_WORKFLOWS).map(dag_seed_job);
    let sweeps = (0..DAG_WORKFLOWS).flat_map(|w| (0..DAG_FANOUT).map(move |k| dag_sweep_job(w, k)));
    seeds.chain(sweeps).collect()
}

/// Pipelined leg: every sweep goes in as one `WorkflowSpec` up front;
/// the coordinator releases each refinement the moment its seed
/// fulfills, by which time the seed's ground state is in the result
/// cache, so no refinement ever runs its own SCF bootstrap.
fn run_dag_pipelined(svc: &DftService) {
    let workflows: Vec<_> = (0..DAG_WORKFLOWS)
        .map(|w| {
            let mut spec = WorkflowSpec::new();
            let root = spec.add_node(dag_seed_job(w));
            for k in 0..DAG_FANOUT {
                let child = spec.add_node(dag_sweep_job(w, k));
                spec.add_edge(root, child);
            }
            svc.submit_workflow(spec).expect("valid sweep spec")
        })
        .collect();
    for workflow in &workflows {
        for result in workflow.wait_all() {
            result.expect("sweep node completes");
        }
    }
}

/// Level-synchronous leg: the client orchestrates the same graph
/// itself — submit every seed, wait for all of them, then submit every
/// refinement. Each refinement finds its seed's ground state in the
/// result cache as in the pipelined leg; what this leg adds is the
/// barrier between the levels.
fn run_dag_level_synchronous(svc: &DftService) {
    let jobs = dag_jobs();
    let (seeds, sweeps) = jobs.split_at(DAG_WORKFLOWS);
    for level in [seeds, sweeps] {
        let tickets: Vec<_> = level
            .iter()
            .map(|job| svc.submit_blocking(job.clone()).expect("submit"))
            .collect();
        for ticket in &tickets {
            ticket.wait().expect("dag job completes");
        }
    }
}

/// Cold leg: the same jobs through `execute_payload` on `workers`
/// threads, with no engine or cache — every refinement solves
/// its own bootstrap.
fn run_dag_cold(workers: usize) -> f64 {
    let jobs = dag_jobs();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                    execute_payload(job).expect("dag job executes");
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}

/// How a DAG-sweep leg runs the sweep's jobs.
#[derive(Clone, Copy)]
enum Dag {
    Cold,
    LevelSynchronous,
    Pipelined,
}

/// One DAG-sweep leg; each engine leg starts a fresh engine, so nothing
/// carries over between legs or rounds.
fn dag_leg(mode: Dag) -> Leg {
    let config = ServeConfig {
        workers: 4,
        shards: 4,
        queue_capacity: 64,
        ..ServeConfig::default()
    };
    let (key, orchestration) = match mode {
        Dag::Cold => ("dag_cold", "execute_payload"),
        Dag::LevelSynchronous => ("dag_sequential", "level_synchronous"),
        Dag::Pipelined => ("dag_pipelined", "workflow_dag"),
    };
    let (wall_s, counts) = match mode {
        Dag::Cold => (run_dag_cold(config.workers), [DAG_JOBS as u64, 0, 0, 0, 0]),
        Dag::LevelSynchronous | Dag::Pipelined => {
            let pipelined = matches!(mode, Dag::Pipelined);
            let drive = if pipelined {
                run_dag_pipelined
            } else {
                run_dag_level_synchronous
            };
            let (wall_s, r) = run_with(&config, drive);
            assert_eq!(r.completed, DAG_JOBS as u64);
            assert!(r.conservation_holds(), "dag conservation");
            assert_eq!(
                r.warm_injected,
                (DAG_WORKFLOWS * DAG_FANOUT) as u64,
                "every refinement must start from its seed's ground state"
            );
            if pipelined {
                assert_eq!(r.workflow_released, DAG_JOBS as u64);
                assert_eq!(r.orphaned, 0);
            }
            let counts = [
                r.completed,
                r.workflows,
                r.workflow_released,
                r.warm_injected,
                r.orphaned,
            ];
            (wall_s, counts)
        }
    };
    let [completed, workflows, workflow_released, warm_injected, orphaned] = counts;
    Leg::new(key)
        .row("orchestration", orchestration)
        .row("workers", config.workers)
        .timed(wall_s, DAG_JOBS)
        .row("completed", completed)
        .row("workflows", workflows)
        .row("workflow_released", workflow_released)
        .row("warm_injected", warm_injected)
        .row("orphaned", orphaned)
}

/// Gate #8's rounds: each runs the cold, level-synchronous and
/// pipelined legs in turn, so drift in background load lands on all
/// three. The gate reads pipelined over cold; the level-synchronous
/// leg returned is the one from the round the statistic picked.
fn dag_sweep() -> (Pair, Leg) {
    let mut level_synchronous = Vec::new();
    let pair = paired(REPEATS, DAG_STAT, |pipelined| {
        if pipelined {
            dag_leg(Dag::Pipelined)
        } else {
            let cold = dag_leg(Dag::Cold);
            level_synchronous.push(dag_leg(Dag::LevelSynchronous));
            cold
        }
    });
    let round = pair.round.expect("the dag statistic picks one round");
    (pair, level_synchronous.swap_remove(round))
}

/// The amortization flood: one Si_8 SCF class executing through a
/// shared Kohn–Sham Hamiltonian (bands differ, so fingerprints do
/// too), then one Si_8 MD class (distinct seeds) sharing the modeled
/// Si_8 task graph — the system size where the fused machine model's
/// shared-operand amortization is strongest.
fn fused_amortization_mix() -> Vec<DftJob> {
    let mut jobs: Vec<DftJob> = (0..FUSED_SCF_JOBS)
        .map(|i| DftJob::GroundState {
            atoms: 8,
            bands: 2 + i,
            max_iterations: 1,
        })
        .collect();
    jobs.extend(
        (0..FUSED_AMORT_MD_JOBS as u64).map(|seed| DftJob::MdSegment {
            atoms: 8,
            steps: FUSED_AMORT_MD_STEPS,
            temperature_k: 300.0,
            seed,
        }),
    );
    jobs
}

/// The kernel flood: one Si_256 MD class, distinct seeds. Short
/// segments on a big cell, so each solo job is dominated by the
/// O(n²) neighbor scan the fused path hoists out and shares.
fn fused_kernel_mix() -> Vec<DftJob> {
    (0..FUSED_KERNEL_JOBS as u64)
        .map(|seed| DftJob::MdSegment {
            atoms: 256,
            steps: FUSED_KERNEL_MD_STEPS,
            temperature_k: 300.0,
            seed,
        })
        .collect()
}

/// One fused-sweep leg. A single worker drains a single shard, so the
/// queue builds up behind the in-flight batch and drains in
/// near-`FUSED_MAX_BATCH` chunks — the regime fused execution exists
/// for. `fused` is the A/B knob: off reproduces the per-job engine bit
/// for bit.
fn fused_leg(kernel: bool, fused: bool) -> Leg {
    let jobs = if kernel {
        fused_kernel_mix()
    } else {
        fused_amortization_mix()
    };
    let n = jobs.len();
    let config = ServeConfig {
        workers: 1,
        shards: 1,
        queue_capacity: 512,
        max_batch: FUSED_MAX_BATCH,
        fused_execution: fused,
        ..ServeConfig::default()
    };
    let (wall_s, r) = run_jobs(&config, jobs);
    let flood = if kernel { "kernel" } else { "amortization" };
    Leg::new(format!(
        "fused_{flood}_{}",
        ["per_job", "fused"][fused as usize]
    ))
    .row("fused_execution", fused)
    .row("workers", config.workers)
    .row("max_batch", FUSED_MAX_BATCH)
    .timed(wall_s, n)
    .row("completed", r.completed)
    .row("fused_jobs", r.fused_jobs)
    .row("fused_batches", r.fused_batches)
    .row("fused_amortized_s", r.fused_amortized_s)
    .modeled(&r)
}

/// Asserts that a pair's ratio lies within `bound`, naming the statistic
/// and the two legs it was read from.
fn gate(pair: &Pair, bound: impl RangeBounds<f64> + fmt::Debug) {
    let (a, b, row) = (&pair.a, &pair.b, pair.stat.row());
    assert!(
        bound.contains(&pair.ratio),
        "PERF GATE FAILED: {} / {} = {:.3}, outside {bound:?} ({}: {} vs {})",
        b.key,
        a.key,
        pair.ratio,
        pair.stat,
        b.num(row),
        a.num(row)
    );
}

/// `--help` text: every part of this binary, and for each CI gate the
/// statistic it reads and its bound.
const HELP: &str = "\
serve_study — serving-layer study over the ndft-serve engine

USAGE:
    cargo run --release -p ndft-bench --bin serve_study [-- FLAGS]

FLAGS:
    --json <path>   write the JSON trajectory point to <path> (default:
                    BENCH_serve.json) and a markdown rendering of the
                    same rows to <path> with an .md extension
    -h, --help      print this help and exit

Each A/B sweep runs leg A then leg B per round and reduces the rounds to
one b/a ratio with one statistic; the reported ratio is always the ratio
of the two legs printed beside it.
    ratio of bests   each leg's best-throughput round
    max round        the paired round with the highest ratio
A best round is an existence witness: one round that shows the effect
is evidence for it, while a real regression puts every round on the
wrong side of the bound. The max round never reads below the ratio of
bests, so it is the looser of the two.

PARTS (in order; the gates assert after both files are written):
    1  policy sweep  modeled seconds per placement policy, paper suite
    2  live stream   40 demo-mix jobs, 4 workers; prints the ServeReport
    3  shard         gate #1: 100-job demo mix, shards=1 vs shards=4,
                     8 fresh-engine passes per leg; ratio of bests of
                     5, sharded throughput >= 0.95x
    4  contention    gate #2: 256 same-class MD jobs on 4 workers, one
                     run; some plan saw a concurrent batch's
                     reservation (plans_contended > 0)
    5  multiplex     gate #3: 10 000 jobs, per-ticket wait pool vs one
                     ClientSession stream drain; ratio of bests of 5,
                     stream throughput >= 0.90x
    6  cache         gate #4: skewed repeat mix, one run each of FIFO,
                     cost-weighted, cost-weighted + disk tier; cost-
                     weighted retains strictly more modeled seconds
                     than FIFO, the disk tier promotes an evicted entry
    7  telemetry     gate #5: 20 000 jobs, unwatched vs TraceCollector
                     attached; max round of 7, traced throughput >=
                     0.95x; that round's traced leg records every job
                     with a nonzero tail per class and captures spans,
                     its unwatched leg none; its per-class per-stage
                     percentiles are printed and kept in the JSON point
    8  qos           gate #6: 8 interactive jobs behind a 64-job bulk
                     flood, one run; interactive p99 <= 0.7x bulk p99
                     in the same run; no job starves and the
                     conservation invariant holds
    9  federated     gate #7: 160-job mix, one 4-worker engine vs 4
                     replicas x 1 worker; max round of 3, ring
                     throughput >= 0.9x; a hot-fingerprint mix is
                     reported ungated; a seeded mid-flood kill of one
                     replica must replay a job and resolve every ticket
                     exactly once
   10  dag           gate #8: 4 SCF fan-out workflows (16 jobs), cold
                     execute_payload on 4 threads vs WorkflowSpecs
                     whose refinements find their seed's ground state
                     in the result cache; max round of 3, pipelined
                     throughput >= 1.2x. A client-side level-synchronous
                     leg runs in each round and is reported against the
                     cold leg, ungated; in both engine legs the cache
                     serves every refinement's bootstrap
   11  fused         gate #9: per-job vs fused execution, 1 worker. Si_8
                     amortization flood: max round of 3 of per-job over
                     fused modeled makespan (the modeled throughput
                     ratio) >= 1.15x. Si_256 kernel flood: max round of
                     3, wall throughput >= 1.15x. Fused legs bank
                     fused_amortized_s > 0, per-job legs a zero trio.

Schema: crates/serve/src/README.md. Exits non-zero when any gate fails.";

fn main() {
    if std::env::args().skip(1).any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return;
    }
    let mut args = std::env::args().skip_while(|a| a != "--json");
    let json_path = match args.next() {
        Some(_) => args.next().expect("--json needs a path"),
        None => "BENCH_serve.json".to_string(),
    };
    print_header("serving-layer policy, batching, sharding, contention, and cache study");

    // --- Part 1: policy sweep over the paper suite (modeled). ---
    println!("modeled end-to-end seconds per placement policy:\n");
    let mut head = vec!["system".to_string()];
    head.extend(PlacementPolicy::all().map(|p| p.label().to_string()));
    let body = SiliconSystem::paper_suite()
        .into_iter()
        .map(|system| {
            let graph = build_task_graph(&system, 1);
            let times = PlacementPolicy::all()
                .map(|policy| format!("{:.4}", plan_placement(&graph, policy).modeled_time()));
            std::iter::once(system.label()).chain(times).collect()
        })
        .collect();
    print!("{}", Table { head, body }.console());

    // --- Part 2: a live mixed stream through the engine. ---
    println!("\nlive stream: 40 jobs of the demo mix (SCF / MD / spectra), 4 workers\n");
    let config = ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    };
    println!("{}", run_jobs(&config, DftJob::demo_mix(40)).1);

    // --- Parts 3–11: the gated sweeps. ---
    println!("\nrunning the gated sweeps (see --help)...\n");
    let shard = paired(WALL_REPEATS, SHARD_STAT, shard_leg);
    let contention = contention_leg();
    let multiplex = paired(WALL_REPEATS, MULTIPLEX_STAT, multiplex_leg);
    let cache = [
        cache_leg(CachePolicy::Fifo, false),
        cache_leg(CachePolicy::CostWeighted, false),
        cache_leg(CachePolicy::CostWeighted, true),
    ];
    let [cache_fifo, cache_cw, cache_cw_disk] = &cache;
    let telemetry = paired(TELEMETRY_REPEATS, TELEMETRY_STAT, telemetry_leg);
    let qos = qos_leg();
    let qos_ratio = qos.num("interactive_p99_s") / qos.num("bulk_p99_s").max(1e-12);
    let fed = paired(REPEATS, FED_STAT, |ring| fed_leg(false, ring));
    let fed_skew = paired(REPEATS, FED_STAT, |ring| fed_leg(true, ring));
    let failover = failover_leg();
    let (dag, dag_level_synchronous) = dag_sweep();
    let amort = paired(REPEATS, FUSED_MODELED_STAT, |per_job| {
        fused_leg(false, !per_job)
    });
    let kernel = paired(REPEATS, FUSED_WALL_STAT, |fused| fused_leg(true, fused));

    let mut multiplex_sweep = Sweep::of(
        "multiplex sweep (gate #3)",
        &multiplex,
        "stream_over_waitpool",
    )
    .param("multiplex_jobs", MULTIPLEX_JOBS)
    .param("multiplex_unique", MULTIPLEX_UNIQUE);
    multiplex_sweep.legs.reverse(); // the stream leg comes first
    let skew_title = format!(
        "federated hot-fingerprint mix (not gated); {} over {REPEATS} rounds",
        fed_skew.stat
    );
    let fused_title = format!(
        "fused-execution sweep (gate #9): amortization flood by {}, kernel flood by {}, \
         {REPEATS} rounds each",
        amort.stat, kernel.stat
    );
    let sweeps = [
        Sweep::of("shard sweep (gate #1)", &shard, "sharded_over_single_queue")
            .param("jobs", MIX_JOBS)
            .param("passes", SHARD_PASSES)
            .param("repeats", WALL_REPEATS),
        Sweep::new("contention (gate #2): one run", vec![&contention])
            .param("contention_jobs", CONTENTION_JOBS),
        multiplex_sweep,
        Sweep::new(
            "cache sweep (gate #4): one run per config",
            cache.iter().collect(),
        )
        .param("cache_jobs", cache_mix().len())
        .param("cache_capacity", CACHE_CAPACITY)
        .ratio(
            "cost_retained_cw_over_fifo",
            cache_cw.num("cost_retained_s") / cache_fifo.num("cost_retained_s").max(1e-12),
        ),
        Sweep::of(
            "telemetry sweep (gate #5)",
            &telemetry,
            "traced_over_unwatched",
        )
        .param("telemetry_jobs", TELEMETRY_JOBS),
        Sweep::new("qos (gate #6): one run", vec![&qos])
            .param("qos_bulk_jobs", QOS_BULK_JOBS)
            .param("qos_interactive_jobs", QOS_INTERACTIVE_JOBS)
            .ratio("qos_interactive_over_bulk_p99", qos_ratio),
        Sweep::of("federated sweep (gate #7)", &fed, "fed4_over_single")
            .param("fed_jobs", FED_JOBS),
        Sweep::new(skew_title, vec![&fed_skew.a, &fed_skew.b]),
        Sweep::new("federated failover (gate #7): one run", vec![&failover]),
        Sweep::new(
            format!(
                "workflow dag sweep (gate #8); {} over {REPEATS} rounds",
                dag.stat
            ),
            vec![&dag.a, &dag_level_synchronous, &dag.b],
        )
        .param("dag_jobs", DAG_JOBS)
        .ratio("dag_pipelined_over_cold", dag.ratio)
        .ratio(
            "dag_sequential_over_cold",
            dag_level_synchronous.num(THROUGHPUT) / dag.a.num(THROUGHPUT).max(1e-12),
        ),
        Sweep::new(fused_title, vec![&amort.b, &amort.a, &kernel.a, &kernel.b])
            .param(
                "fused_amortization_jobs",
                FUSED_SCF_JOBS + FUSED_AMORT_MD_JOBS,
            )
            .param("fused_kernel_jobs", FUSED_KERNEL_JOBS)
            .ratio("fused_modeled_speedup", amort.ratio)
            .ratio("fused_wall_speedup", kernel.ratio),
    ];
    let traced = telemetry
        .b
        .snapshot
        .as_ref()
        .expect("telemetry legs keep their snapshot");
    let percentiles = percentile_table(traced);
    for sweep in &sweeps {
        print!("{}", sweep.render(false));
    }
    let percentile_title = "per-class per-stage latency percentiles (traced leg, ms)";
    print!("{percentile_title}:\n\n{}", percentiles.console());

    // Both files are written before any gate asserts: the numbers matter
    // most on exactly the runs that fail one.
    std::fs::write(&json_path, to_json(&sweeps, traced)).expect("write bench json");
    let md_path = Path::new(&json_path).with_extension("md");
    let markdown: String = sweeps.iter().map(|s| s.render(true)).collect();
    let markdown = format!(
        "## serve_study\n\n{markdown}### {percentile_title}\n\n{}",
        percentiles.markdown()
    );
    std::fs::write(&md_path, markdown).expect("write bench markdown");
    println!("\nwrote {json_path} and {}", md_path.display());

    gate(&shard, 1.0 - GATE_TOLERANCE..);
    // Gate #2: four workers' batches overlap, so some plan must see
    // another batch's reservation. The one-worker engine test in
    // `serve_integration` is the other half: with no overlap, none
    // does.
    assert!(
        contention.num("plans_contended") > 0.0,
        "CONTENTION GATE FAILED: no plan ever saw a concurrent reservation \
         ({} planner calls) — the ClusterView is not being consulted",
        contention.num("planner_calls")
    );
    gate(&multiplex, 1.0 - MULTIPLEX_GATE_TOLERANCE..);
    // Gate #4a: the whole point of cost-weighted eviction — at the end
    // of the skewed repeat mix it must hold strictly more modeled
    // compute-seconds than FIFO did on the identical schedule.
    assert!(
        cache_cw.num("cost_retained_s") > cache_fifo.num("cost_retained_s"),
        "CACHE GATE FAILED: cost-weighted retained {:.4}s of modeled compute, \
         not strictly more than FIFO's {:.4}s",
        cache_cw.num("cost_retained_s"),
        cache_fifo.num("cost_retained_s")
    );
    // Gate #4b: the disk tier must actually serve — the mix resubmits
    // entries the memory tier evicted rounds ago, and only a working
    // spill → promote path answers them without re-execution.
    assert!(
        cache_cw_disk.num("disk_hits") > 0.0,
        "CACHE GATE FAILED: the persistent tier never promoted an evicted entry \
         ({} bytes persisted)",
        cache_cw_disk.num("bytes_persisted")
    );
    // Gate #5a: tracing must be close to free. The histograms run in
    // both legs; attaching a collector turns on the span path, and that
    // cannot cost more than a few percent of throughput.
    gate(&telemetry, 1.0 - TELEMETRY_GATE_TOLERANCE..);
    // Gate #5b: the percentile surface is complete — every job of the
    // run has an end-to-end record and every reported class carries a
    // nonzero tail, and the traced leg actually captured span events.
    assert_eq!(
        traced.jobs_recorded(),
        TELEMETRY_JOBS as u64,
        "TELEMETRY GATE FAILED: end-to-end histogram lost jobs"
    );
    assert!(
        !traced.classes.is_empty()
            && traced
                .classes
                .iter()
                .all(|c| c.stage(Stage::EndToEnd).p99_ns() > 0),
        "TELEMETRY GATE FAILED: a class reported an empty end-to-end tail"
    );
    assert!(
        telemetry.b.num("trace_events") > 0.0 && telemetry.a.num("trace_events") == 0.0,
        "TELEMETRY GATE FAILED: span capture did not follow the subscriber gate \
         (traced {} events, unwatched {})",
        telemetry.b.num("trace_events"),
        telemetry.a.num("trace_events")
    );
    // Gate #6: priority lanes must actually buy interactive latency —
    // behind a bulk flood, the interactive tail must be a fraction of
    // the bulk tail it jumped. (Starvation-freedom and the conservation
    // invariant are asserted inside the qos leg.)
    assert!(
        qos_ratio <= QOS_GATE_RATIO,
        "QOS GATE FAILED: interactive p99 {:.6}s / bulk p99 {:.6}s = {qos_ratio:.3}, \
         above {QOS_GATE_RATIO}",
        qos.num("interactive_p99_s"),
        qos.num("bulk_p99_s")
    );
    // Gate #7a: federation overhead. On a uniform mix with the same
    // total worker count, the 4-replica ring must hold ≥ 90% of the
    // single engine's throughput — routing and replay bookkeeping must
    // stay cheap.
    gate(&fed, FED_GATE_RATIO..);
    // Gate #7b: the failover leg must actually fail over — the seeded
    // kill must replay the wedged jobs onto the surviving ring, and the
    // client-level books must close exactly (every submission reached
    // exactly one terminal, across the kill).
    assert!(
        failover.num("kills") == 1.0 && failover.num("replayed") >= 1.0,
        "FAILOVER GATE FAILED: {} kills, {} jobs replayed — the seeded fault plan \
         did not exercise replay",
        failover.num("kills"),
        failover.num("replayed")
    );
    assert!(
        failover.flag("conservation_holds"),
        "FAILOVER GATE FAILED: conservation violated across the kill"
    );
    // Gate #8: reusing the seed's ground state must actually pay for
    // itself. Every refinement the engine runs finds its seed's ground
    // state in the result cache and skips its SCF bootstrap; the cold
    // baseline redoes that bootstrap per refinement. An engine that
    // re-executes the bootstrap anyway collapses the gap. (Both engine
    // legs also assert that the cache served every refinement's
    // bootstrap.)
    gate(&dag, DAG_GATE_RATIO..);
    // Gate #9a: the fused machine model must actually amortize. On the
    // Si_8 amortization flood, charging the shared projector tables
    // once per batch must cut the modeled cluster makespan — modeled
    // throughput >= 1.15x the per-job engine's in the best paired
    // round.
    gate(&amort, FUSED_GATE_RATIO..);
    // Gate #9b: fused kernels must pay in wall clock. On the Si_256
    // kernel flood each solo job is dominated by the O(n²) neighbor
    // scan; building it once per fused batch must buy >= 1.15x
    // wall-clock throughput in the best paired round.
    gate(&kernel, FUSED_GATE_RATIO..);
    // Gate #9c: the accounting trio must witness the path taken. Every
    // fused leg must have routed real batches through the fused path
    // and banked modeled savings; every per-job leg must report a zero
    // trio (fused_execution: false reproduces the per-job engine).
    for leg in [&amort.a, &amort.b, &kernel.a, &kernel.b] {
        let [batches, jobs, amortized] =
            ["fused_batches", "fused_jobs", "fused_amortized_s"].map(|r| leg.num(r));
        let engaged = batches > 0.0 && jobs > batches && amortized > 0.0;
        let zero = [batches, jobs, amortized] == [0.0; 3];
        assert!(
            if leg.flag("fused_execution") {
                engaged
            } else {
                zero
            },
            "FUSED GATE FAILED: {} reports {batches} batches / {jobs} jobs / {amortized:.6}s \
             amortized — fused legs must engage the fused path, per-job legs must not",
            leg.key
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-round values of the compared row, leg A then leg B, on which
    /// the statistics disagree: the ratio of bests is 12/12 = 1.0, the
    /// round ratios 1.1, 0.917 and 1.5.
    const A: [f64; 3] = [10.0, 12.0, 8.0];
    const B: [f64; 3] = [11.0, 11.0, 12.0];

    /// Runs `stat` over fixed per-round values of its row.
    fn run(stat: Stat, a: [f64; 3], b: [f64; 3]) -> Pair {
        let (mut a, mut b) = (a.into_iter(), b.into_iter());
        paired(3, stat, |is_b| {
            let (key, x) = if is_b {
                ("b", b.next())
            } else {
                ("a", a.next())
            };
            Leg::new(key).row(stat.row(), Val::Float(x.expect("one value per round"), 3))
        })
    }

    #[test]
    fn each_gate_reads_its_statistic() {
        let gates = [
            (SHARD_STAT, 1.0),
            (MULTIPLEX_STAT, 1.0),
            (TELEMETRY_STAT, 1.5),
            (FED_STAT, 1.5),
            (DAG_STAT, 1.5),
            (FUSED_MODELED_STAT, 1.5),
            (FUSED_WALL_STAT, 1.5),
        ];
        for (stat, want) in gates {
            let got = run(stat, A, B).ratio;
            assert!((got - want).abs() < 1e-12, "{stat} read {got}, want {want}");
        }
    }

    #[test]
    fn max_round_names_the_round_it_picked() {
        // Round ratios 1.1, 0.917 and 1.5: the third round is the max.
        assert_eq!(run(Stat::MaxRound(THROUGHPUT), A, B).round, Some(2));
        assert_eq!(run(Stat::RatioOfBests(THROUGHPUT), A, B).round, None);
    }

    #[test]
    fn max_round_never_reads_below_the_ratio_of_bests() {
        let sequences = [
            (A, B),
            ([5.0, 9.0, 7.0], [6.0, 8.0, 10.0]),
            ([3.0; 3], [2.0, 4.0, 1.0]),
        ];
        for (a, b) in sequences {
            let bests = run(Stat::RatioOfBests(THROUGHPUT), a, b).ratio;
            let max = run(Stat::MaxRound(THROUGHPUT), a, b).ratio;
            assert!(max >= bests, "{a:?} {b:?}");
        }
    }

    #[test]
    fn reported_ratio_matches_its_legs() {
        let stats = [Stat::RatioOfBests, Stat::MaxRound].map(|s| s(THROUGHPUT));
        for stat in stats {
            let pair = run(stat, A, B);
            let sweep = Sweep::of("", &pair, "b_over_a");
            // Read both legs and the ratio back from the rendered JSON.
            let entries = sweep.json_entries();
            let value = |line: &str| -> f64 {
                let (_, v) = line.rsplit_once(": ").expect("a key: value line");
                v.parse().expect("a number")
            };
            let row = |leg: &str| value(leg.lines().nth(1).expect("the leg's one row"));
            let (a, b, ratio) = (row(&entries[0]), row(&entries[1]), value(&entries[2]));
            assert!(
                (ratio - b / a).abs() < 1e-4,
                "{stat}: reported {ratio} next to legs {a} and {b}"
            );
        }
    }
}
