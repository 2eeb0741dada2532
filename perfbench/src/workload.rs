//! The three workloads: seeded job generators and the shape of each mix.
//!
//! Every job the engine receives comes from here, and every choice is
//! drawn from the `--seed` generator, so one seed always produces the
//! same jobs in the same order.

use ndft_serve::{DftJob, Fingerprint, ServeConfig};

/// SplitMix64: small, fast and seedable.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (modulo bias is below 2^-50 here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Salts that give each generator of one run its own stream.
const SALT_WARMUP: u64 = 0x5741_524D;
const SALT_DRAWS: u64 = 0x4452_4157;

/// One job as generated: the job, the fingerprint the benchmark expects
/// its outcome to carry, and its index in the working set when it is a
/// resubmission of a working-set job.
pub struct Item {
    pub job: DftJob,
    pub fingerprint: Fingerprint,
    pub slot: Option<usize>,
}

impl Item {
    fn new(job: DftJob) -> Self {
        Item {
            fingerprint: job.fingerprint(),
            job,
            slot: None,
        }
    }
}

/// A stream of jobs for one phase of a run.
pub enum Source {
    /// A fixed list, run to its end whatever the deadline.
    List(std::vec::IntoIter<Item>),
    /// Unique-seed MD segments, until the deadline.
    MdFlood { rng: Rng, next_seed: u64 },
    /// Zipf-skewed resubmissions from a fixed working set, until the
    /// deadline. `table` maps uniform draws to working-set indices.
    Zipf {
        rng: Rng,
        set: Vec<Item>,
        table: Vec<u16>,
    },
}

impl Source {
    pub fn next_item(&mut self) -> Option<Item> {
        match self {
            Source::List(items) => items.next(),
            Source::MdFlood { rng, next_seed } => {
                let seed = *next_seed;
                *next_seed = next_seed.wrapping_add(1);
                Some(Item::new(md_job(rng, seed)))
            }
            Source::Zipf { rng, set, table } => {
                let i = usize::from(table[rng.next_u64() as usize & (table.len() - 1)]);
                let it = &set[i];
                Some(Item {
                    job: it.job.clone(),
                    fingerprint: it.fingerprint,
                    slot: Some(i),
                })
            }
        }
    }

    /// Whether the stream only ends at the deadline.
    pub fn is_endless(&self) -> bool {
        !matches!(self, Source::List(_))
    }
}

/// MD segment sizes of `md_flood`, drawn uniformly per job.
const MD_ATOMS: [usize; 3] = [64, 128, 256];
/// MD jobs in `md_flood`'s warm-up, enough to fill the result cache.
const MD_WARMUP_JOBS: usize = 2048;
/// `ScfSelfConsistent` jobs per second of `--seconds` in `scf_sweep`.
const SCF_SC_PER_SECOND: usize = 16;
/// The `ScfSelfConsistent` shapes `scf_sweep` cycles through: (atoms, bands).
const SCF_SC_SHAPES: [(usize, usize); 5] = [(8, 2), (8, 3), (16, 2), (16, 3), (24, 2)];
/// Entries of the Zipf lookup table (a power of two).
const ZIPF_TABLE: usize = 1 << 16;

fn md_job(rng: &mut Rng, seed: u64) -> DftJob {
    DftJob::MdSegment {
        atoms: MD_ATOMS[rng.below(MD_ATOMS.len())],
        steps: 10,
        temperature_k: 300.0,
        seed,
    }
}

fn scf_sc_job(atoms: usize, bands: usize, alpha: f64) -> DftJob {
    DftJob::ScfSelfConsistent {
        atoms,
        bands,
        max_iterations: 2,
        occupied: bands,
        cycles: 2,
        alpha,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScfSweep,
    MdFlood,
    RepeatHits,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ScfSweep, Workload::MdFlood, Workload::RepeatHits];

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScfSweep => "scf_sweep",
            Workload::MdFlood => "md_flood",
            Workload::RepeatHits => "repeat_hits",
        }
    }

    /// Jobs the closed loop keeps in flight.
    pub fn window(self, cfg: &ServeConfig) -> usize {
        match self {
            Workload::ScfSweep => 2 * cfg.workers,
            Workload::MdFlood | Workload::RepeatHits => 2 * cfg.max_batch * cfg.workers,
        }
    }

    /// Completions per block of the timed phase. Each end-to-end figure
    /// is the median over blocks, which keeps a few seconds of
    /// contention from another tenant of the host out of the result; a
    /// block spans roughly a second, or a tenth of the `scf_sweep` set.
    pub fn block_jobs(self) -> u64 {
        match self {
            Workload::ScfSweep => 32,
            Workload::MdFlood => 8192,
            Workload::RepeatHits => 1 << 21,
        }
    }

    /// The tail percentile reported: the highest of p90/p99 with at
    /// least ten samples beyond it at the workload's sample count.
    pub fn tail_quantile(self) -> f64 {
        match self {
            Workload::ScfSweep => 0.90,
            Workload::MdFlood | Workload::RepeatHits => 0.99,
        }
    }

    /// Whether the tail percentile is taken per block (enough samples
    /// in each) or over the whole timed phase.
    pub fn tail_per_block(self) -> bool {
        self != Workload::ScfSweep
    }

    /// Jobs run before timing starts: they let lazy set-up finish and
    /// bring the result cache to the state the timed phase expects.
    pub fn warmup(self, seed: u64, cfg: &ServeConfig) -> Source {
        let mut rng = Rng::new(seed ^ SALT_WARMUP);
        let items: Vec<Item> = match self {
            // Alphas below 0.3 never collide with the timed set's.
            Workload::ScfSweep => (0..2 * cfg.workers)
                .map(|_| Item::new(scf_sc_job(8, 2, 0.1 + 0.2 * rng.unit())))
                .collect(),
            // Seeds with the top bit set never collide with the timed
            // flood's, whose top bit is clear.
            Workload::MdFlood => {
                let base = (rng.next_u64() >> 1) | (1 << 63);
                (0..MD_WARMUP_JOBS as u64)
                    .map(|i| Item::new(md_job(&mut rng, base.wrapping_add(i))))
                    .collect()
            }
            Workload::RepeatHits => working_set(seed, cfg),
        };
        Source::List(items.into_iter())
    }

    /// The timed phase's jobs. `scf_sweep` is a fixed set sized to take
    /// about `seconds` on a 2-core host; the others run until the
    /// deadline.
    pub fn timed(self, seed: u64, seconds: u64, cfg: &ServeConfig) -> Source {
        let mut rng = Rng::new(seed);
        match self {
            Workload::ScfSweep => {
                let mut items = Vec::new();
                for atoms in [8, 16, 24] {
                    for bands in [2, 3, 4] {
                        for max_iterations in [2, 3, 4] {
                            items.push(Item::new(DftJob::GroundState {
                                atoms,
                                bands,
                                max_iterations,
                            }));
                        }
                    }
                }
                for (atoms, full_casida) in
                    [(8, false), (16, false), (24, false), (8, true), (16, true)]
                {
                    items.push(Item::new(DftJob::Spectrum { atoms, full_casida }));
                }
                let sc_jobs = SCF_SC_PER_SECOND * seconds as usize;
                for i in 0..sc_jobs {
                    let (atoms, bands) = SCF_SC_SHAPES[i % SCF_SC_SHAPES.len()];
                    items.push(Item::new(scf_sc_job(atoms, bands, 0.3 + 0.6 * rng.unit())));
                }
                rng.shuffle(&mut items);
                Source::List(items.into_iter())
            }
            Workload::MdFlood => Source::MdFlood {
                next_seed: rng.next_u64() >> 1,
                rng,
            },
            Workload::RepeatHits => {
                let set = working_set(seed, cfg);
                // Zipf(1): the job at rank k is drawn with weight 1/(k+1).
                let weights: Vec<f64> = (0..set.len()).map(|k| 1.0 / (k + 1) as f64).collect();
                let total: f64 = weights.iter().sum();
                let mut cdf = Vec::with_capacity(set.len());
                let mut acc = 0.0;
                for w in &weights {
                    acc += w / total;
                    cdf.push(acc);
                }
                let table = (0..ZIPF_TABLE)
                    .map(|t| {
                        let u = (t as f64 + 0.5) / ZIPF_TABLE as f64;
                        let k = cdf.partition_point(|&c| c < u).min(set.len() - 1);
                        u16::try_from(k).expect("working set fits u16")
                    })
                    .collect();
                Source::Zipf {
                    rng: Rng::new(seed ^ SALT_DRAWS),
                    set,
                    table,
                }
            }
        }
    }

    /// Most jobs the single-thread replay takes from the head of an
    /// endless timed stream; `None` for the fixed set, whose replay runs
    /// a stratified sample instead.
    pub fn replay_jobs(self) -> Option<usize> {
        match self {
            Workload::ScfSweep => None,
            Workload::MdFlood => Some(2_000),
            Workload::RepeatHits => Some(50_000),
        }
    }

    /// One line on the window, the job mix and what the seed draws.
    pub fn describe(self, cfg: &ServeConfig, seconds: u64) -> String {
        let window = self.window(cfg);
        match self {
            Workload::ScfSweep => format!(
                "window {window} (2 x workers); 27 GroundState (atoms {{8,16,24}} x bands {{2,3,4}} \
                 x iteration cap {{2,3,4}}) + 5 spectra (TDA Si_8/16/24, Casida Si_8/16) + {} \
                 ScfSelfConsistent (cycling {:?} as (atoms, bands), 2 cycles); the seed sets the \
                 order and draws each alpha",
                SCF_SC_PER_SECOND * seconds as usize,
                SCF_SC_SHAPES
            ),
            Workload::MdFlood => format!(
                "window {window} (2 x max_batch x workers); MdSegment with a unique seed, atoms \
                 drawn uniformly from {MD_ATOMS:?}, 10 steps at 300 K; {MD_WARMUP_JOBS} warm-up \
                 jobs fill the cache first; the seed draws sizes and the seed range"
            ),
            Workload::RepeatHits => format!(
                "window {window}; Zipf(1) resubmissions of a {}-job working set (3/4 of the \
                 {}-entry cache): 2/3 MdSegment Si_64 with 2-3 steps, 1/3 BandStructure Si_8; \
                 every working-set job runs once in warm-up; the seed draws the set's seeds, \
                 its rank order and every draw",
                cfg.cache_capacity * 3 / 4,
                cfg.cache_capacity
            ),
        }
    }
}

/// `repeat_hits`' working set: cheap MD and band-structure jobs, 3/4 of
/// the default cache capacity, in a seeded rank order.
pub fn working_set(seed: u64, cfg: &ServeConfig) -> Vec<Item> {
    let mut rng = Rng::new(seed);
    let size = cfg.cache_capacity * 3 / 4;
    let md_seed = rng.next_u64() >> 1;
    let mut jobs: Vec<DftJob> = (0..size)
        .map(|i| {
            if i % 3 < 2 {
                DftJob::MdSegment {
                    atoms: 64,
                    steps: 2 + i % 3,
                    temperature_k: 300.0,
                    seed: md_seed.wrapping_add(i as u64),
                }
            } else {
                DftJob::BandStructure {
                    atoms: 8,
                    segments: 1 + i % 2,
                    n_bands: 4 + i % 5,
                    scissor_ev: 0.5 + 0.001 * i as f64,
                }
            }
        })
        .collect();
    rng.shuffle(&mut jobs);
    jobs.into_iter()
        .enumerate()
        .map(|(i, job)| Item {
            slot: Some(i),
            ..Item::new(job)
        })
        .collect()
}
