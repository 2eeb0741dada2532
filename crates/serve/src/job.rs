//! Job descriptions and results.
//!
//! A [`DftJob`] is one calculation request: a ground-state SCF solve, a
//! short MD segment, an excitation spectrum (TDA or full Casida), a
//! band structure along a k-path, or a density-mixing self-consistent
//! SCF. Jobs are pure values — everything the engine needs (fingerprint,
//! workload class, task graph) derives from the job alone, which is what
//! makes result caching and batch formation sound.

use ndft_dft::{
    build_task_graph, BandStructure, CasidaResult, GroundState, MdOptions, MdTrajectory,
    ScfOptions, SelfConsistentResult, SiliconSystem, Spectrum, SystemError, TaskGraph,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::Duration;

use crate::fingerprint::Fingerprint;
use crate::persist::{Enc, PersistValue};

/// Kind of calculation a job requests.
///
/// The `Ord` is the stable reporting order telemetry snapshots and
/// report tables sort classes by (enum declaration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum JobKind {
    /// Ground-state SCF solve ([`ndft_dft::run_scf`]).
    GroundState,
    /// Molecular-dynamics segment ([`ndft_dft::run_md`]).
    MdSegment,
    /// LR-TDDFT spectrum in the Tamm–Dancoff approximation
    /// ([`ndft_dft::run_lr_tddft`]).
    TdaSpectrum,
    /// Full Casida spectrum ([`ndft_dft::run_casida`]).
    CasidaSpectrum,
    /// Empty-lattice band structure over a high-symmetry k-path
    /// ([`ndft_dft::band_structure`]).
    BandStructure,
    /// Density-mixing self-consistent SCF
    /// ([`ndft_dft::run_scf_selfconsistent`]).
    ScfSelfConsistent,
}

impl JobKind {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::GroundState => "scf",
            JobKind::MdSegment => "md",
            JobKind::TdaSpectrum => "tda",
            JobKind::CasidaSpectrum => "casida",
            JobKind::BandStructure => "bands",
            JobKind::ScfSelfConsistent => "scf-sc",
        }
    }
}

impl fmt::Display for JobKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One DFT calculation request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DftJob {
    /// Ground-state SCF on Si_`atoms`.
    GroundState {
        /// Atom count (multiple of 8).
        atoms: usize,
        /// Bands to converge.
        bands: usize,
        /// Subspace-iteration cap.
        max_iterations: usize,
    },
    /// MD segment on Si_`atoms`.
    MdSegment {
        /// Atom count (multiple of 8).
        atoms: usize,
        /// Steps to integrate.
        steps: usize,
        /// Initial temperature, K (bit pattern is part of the fingerprint).
        temperature_k: f64,
        /// Velocity seed.
        seed: u64,
    },
    /// Excitation spectrum on Si_`atoms`.
    Spectrum {
        /// Atom count (multiple of 8).
        atoms: usize,
        /// Solve the full Casida problem instead of TDA.
        full_casida: bool,
    },
    /// Band structure along the silicon L–Γ–X–W–Γ path
    /// ([`ndft_dft::si_path`] with `segments` points per leg).
    BandStructure {
        /// Atom count (multiple of 8); sizes the modeled workload the
        /// planner sees (the k-path itself is cell-independent).
        atoms: usize,
        /// Sample points per path leg (≥ 1).
        segments: usize,
        /// Bands per k-point (2 ..= 343 — the empty-lattice G-shell cap,
        /// and at least one conduction band so the gap is defined).
        n_bands: usize,
        /// Rigid conduction-band shift, eV (bit pattern is part of the
        /// fingerprint).
        scissor_ev: f64,
    },
    /// Density-mixing self-consistent SCF on Si_`atoms`. Its first
    /// inner solve is its *bootstrap*: the [`DftJob::GroundState`] with
    /// the same `atoms`, `bands` and `max_iterations`. A worker takes
    /// that ground state from the result cache when it is there (left
    /// by a workflow parent, a submission or an earlier job), and
    /// otherwise solves and caches it itself.
    ScfSelfConsistent {
        /// Atom count (multiple of 8).
        atoms: usize,
        /// Bands to converge.
        bands: usize,
        /// Subspace-iteration cap per cycle.
        max_iterations: usize,
        /// Spin-paired occupied bands (1 ..= `bands`).
        occupied: usize,
        /// Density-mixing outer cycles (≥ 1).
        cycles: usize,
        /// Linear mixing factor in (0, 1] (bit pattern is part of the
        /// fingerprint).
        alpha: f64,
    },
}

impl DftJob {
    /// The job's kind.
    pub fn kind(&self) -> JobKind {
        match self {
            DftJob::GroundState { .. } => JobKind::GroundState,
            DftJob::MdSegment { .. } => JobKind::MdSegment,
            DftJob::Spectrum {
                full_casida: false, ..
            } => JobKind::TdaSpectrum,
            DftJob::Spectrum {
                full_casida: true, ..
            } => JobKind::CasidaSpectrum,
            DftJob::BandStructure { .. } => JobKind::BandStructure,
            DftJob::ScfSelfConsistent { .. } => JobKind::ScfSelfConsistent,
        }
    }

    /// Atom count the job runs on.
    pub fn atoms(&self) -> usize {
        match *self {
            DftJob::GroundState { atoms, .. }
            | DftJob::MdSegment { atoms, .. }
            | DftJob::Spectrum { atoms, .. }
            | DftJob::BandStructure { atoms, .. }
            | DftJob::ScfSelfConsistent { atoms, .. } => atoms,
        }
    }

    /// Builds the physical system, validating the atom count.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] when `atoms` is not a positive multiple
    /// of 8.
    pub fn system(&self) -> Result<SiliconSystem, SystemError> {
        SiliconSystem::new(self.atoms())
    }

    /// Full admission validation: the system check plus the parameter
    /// bounds the numeric entry points would otherwise panic on
    /// (band-count caps, occupation vs solved bands, mixing range).
    /// Every submit path runs this so a worker never sees a job its
    /// driver asserts reject.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::InvalidSystem`] describing the first
    /// violated bound.
    pub fn validate(&self) -> Result<(), JobError> {
        let system = self
            .system()
            .map_err(|e| JobError::InvalidSystem(e.to_string()))?;
        if let DftJob::GroundState { bands, .. } | DftJob::ScfSelfConsistent { bands, .. } = *self {
            // A band solve holds at most as many bands as its basis has
            // plane waves.
            let most = system.wave_sphere_len();
            if !(1..=most).contains(&bands) {
                return Err(JobError::InvalidSystem(format!(
                    "bands must be in 1..={most} for Si_{}, got {bands}",
                    system.atoms()
                )));
            }
        }
        match *self {
            DftJob::BandStructure {
                segments,
                n_bands,
                scissor_ev,
                ..
            } => {
                if segments == 0 {
                    return Err(JobError::InvalidSystem(
                        "band path needs at least one point per leg".into(),
                    ));
                }
                if !(2..=343).contains(&n_bands) {
                    return Err(JobError::InvalidSystem(format!(
                        "n_bands must be in 2..=343, got {n_bands}"
                    )));
                }
                if !scissor_ev.is_finite() {
                    return Err(JobError::InvalidSystem(
                        "scissor shift must be finite".into(),
                    ));
                }
            }
            DftJob::ScfSelfConsistent {
                bands,
                occupied,
                cycles,
                alpha,
                ..
            } => {
                if occupied == 0 || occupied > bands {
                    return Err(JobError::InvalidSystem(format!(
                        "occupied must be in 1..={bands}, got {occupied}"
                    )));
                }
                if cycles == 0 {
                    return Err(JobError::InvalidSystem(
                        "self-consistency needs at least one cycle".into(),
                    ));
                }
                if !(alpha.is_finite() && alpha > 0.0 && alpha <= 1.0) {
                    return Err(JobError::InvalidSystem(format!(
                        "mixing factor must be in (0, 1], got {alpha}"
                    )));
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Iteration count used for the modeled task graph: SCF iterations,
    /// MD steps, one response solve for spectra, k-points for a band
    /// structure, or inner solves for self-consistency.
    pub fn modeled_iterations(&self) -> usize {
        match *self {
            DftJob::GroundState { max_iterations, .. } => max_iterations.max(1),
            DftJob::MdSegment { steps, .. } => steps.max(1),
            DftJob::Spectrum { .. } => 1,
            // The si_path has 4 legs of `segments` points plus the
            // closing vertex — one plane-wave diagonalization each.
            DftJob::BandStructure { segments, .. } => 4 * segments.max(1) + 1,
            DftJob::ScfSelfConsistent {
                max_iterations,
                cycles,
                ..
            } => max_iterations.max(1) * (cycles.max(1) + 1),
        }
    }

    /// The workload descriptor graph the planner and machine models
    /// consume for this job.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] for invalid atom counts.
    pub fn task_graph(&self) -> Result<TaskGraph, SystemError> {
        Ok(build_task_graph(&self.system()?, self.modeled_iterations()))
    }

    /// Content-addressed identity: the digest of the job's WAL encoding
    /// (its [`PersistValue`] bytes), so equal jobs hash equal and any
    /// parameter change (including the MD seed or a float's bit
    /// pattern) changes the fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        Enc::digest_with(|enc| self.encode(enc))
    }

    /// Coarse batching key: jobs in the same class share a task-graph
    /// shape, hence a placement plan. Distinct fingerprints (e.g. MD
    /// seeds) can still share a class.
    pub fn workload_class(&self) -> WorkloadClass {
        WorkloadClass {
            kind: self.kind(),
            atoms: self.atoms(),
            iterations: self.modeled_iterations(),
        }
    }

    /// SCF options encoded by a [`DftJob::GroundState`] or
    /// [`DftJob::ScfSelfConsistent`] job.
    pub fn scf_options(&self) -> Option<ScfOptions> {
        match *self {
            DftJob::GroundState {
                bands,
                max_iterations,
                ..
            }
            | DftJob::ScfSelfConsistent {
                bands,
                max_iterations,
                ..
            } => Some(ScfOptions {
                bands,
                max_iterations,
                ..ScfOptions::default()
            }),
            _ => None,
        }
    }

    /// The job whose completed outcome is this one's first inner solve:
    /// the [`DftJob::GroundState`] with a [`DftJob::ScfSelfConsistent`]
    /// job's `atoms`, `bands` and `max_iterations`, and `None` for every
    /// other kind. That ground state *is* a self-consistent job's first
    /// inner solve (see [`ndft_dft::run_scf_selfconsistent`]'s `seed`),
    /// so the worker looks it up in the result cache under the
    /// bootstrap's own fingerprint before solving it, and a seeded run
    /// is bit-identical to a cold one. This is the one definition of
    /// which outcome may seed which job.
    pub(crate) fn bootstrap(&self) -> Option<DftJob> {
        match *self {
            DftJob::ScfSelfConsistent {
                atoms,
                bands,
                max_iterations,
                ..
            } => Some(DftJob::GroundState {
                atoms,
                bands,
                max_iterations,
            }),
            _ => None,
        }
    }

    /// The canonical demo/benchmark stream: `n` mixed jobs — repeated
    /// SCF configurations, MD segments with cycling seeds, TDA and full
    /// Casida spectra — with realistic repetition (users resubmit
    /// identical calculations). Shared by the `service_throughput`
    /// example and the `serve_study` bench so the CI smoke gate and the
    /// demo measure the same fixed mix.
    pub fn demo_mix(n: usize) -> Vec<DftJob> {
        let mut jobs = Vec::with_capacity(n);
        for i in 0..n as u64 {
            jobs.push(match i % 10 {
                // Repeated SCF configurations — the cache's bread and butter.
                0 | 1 => DftJob::GroundState {
                    atoms: 8,
                    bands: 4,
                    max_iterations: 4,
                },
                2 => DftJob::GroundState {
                    atoms: 16,
                    bands: 4,
                    max_iterations: 4,
                },
                // MD segments: seeds vary, so most are genuinely new work,
                // but each 20-job cycle repeats a seed.
                3..=5 => DftJob::MdSegment {
                    atoms: 64,
                    steps: 10,
                    temperature_k: 300.0,
                    seed: (i / 10) % 2 * 100 + i % 10,
                },
                6 => DftJob::MdSegment {
                    atoms: 128,
                    steps: 10,
                    temperature_k: 600.0,
                    seed: 42, // identical every cycle — always cached after the first
                },
                // Spectra: two sizes of TDA plus the full Casida solve.
                7 => DftJob::Spectrum {
                    atoms: 8,
                    full_casida: false,
                },
                8 => DftJob::Spectrum {
                    atoms: 16,
                    full_casida: false,
                },
                _ => DftJob::Spectrum {
                    atoms: 16,
                    full_casida: true,
                },
            });
        }
        jobs
    }

    /// MD options encoded by a [`DftJob::MdSegment`] job.
    pub fn md_options(&self) -> Option<MdOptions> {
        match *self {
            DftJob::MdSegment {
                steps,
                temperature_k,
                seed,
                ..
            } => Some(MdOptions {
                steps,
                temperature_k,
                seed,
                ..MdOptions::default()
            }),
            _ => None,
        }
    }
}

impl fmt::Display for DftJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(Si_{})", self.kind(), self.atoms())
    }
}

/// Coarse equivalence class used by the batcher: same kind, system size,
/// and iteration count ⇒ same task-graph shape ⇒ same placement plan.
///
/// Classes order by kind, then atoms, then iterations — the row order
/// of every per-class telemetry table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct WorkloadClass {
    /// Calculation kind.
    pub kind: JobKind,
    /// Atom count.
    pub atoms: usize,
    /// Modeled iterations.
    pub iterations: usize,
}

impl WorkloadClass {
    /// Stable shard-routing key: equal classes always hash equal, so a
    /// wave of same-class jobs lands on one queue shard and one planner
    /// consultation still covers the whole run.
    pub fn shard_key(&self) -> u64 {
        // Kind words run 0x11 (`GroundState`) ..= 0x16 in declaration order.
        let Fingerprint(d) = Enc::digest_with(|enc| {
            enc.u64(0x11 + self.kind as u64);
            enc.count(self.atoms);
            enc.count(self.iterations);
        });
        (d >> 64) as u64 ^ d as u64
    }
}

impl fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/Si_{}x{}", self.kind, self.atoms, self.iterations)
    }
}

/// Scheduling priority class carried by every [`JobRequest`].
///
/// Priorities order shard dispatch: each queue shard keeps one lane per
/// priority, workers serve the highest-priority nonempty lane first, and
/// an aging counter guarantees a passed-over lane is served within a
/// bounded number of dispatches (no class can starve). The declaration
/// order is the service order and the stable row order of per-priority
/// latency tables.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub enum Priority {
    /// Latency-sensitive work (a person is waiting on the answer).
    Interactive,
    /// The default class for unannotated submissions.
    #[default]
    Standard,
    /// Throughput work (parameter sweeps, MD floods) that should yield
    /// to everything else.
    Bulk,
}

impl Priority {
    /// All priorities in service order (highest first).
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Standard, Priority::Bulk];

    /// Dense index into per-priority tables and queue lanes.
    pub fn index(&self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Standard => 1,
            Priority::Bulk => 2,
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Standard => "standard",
            Priority::Bulk => "bulk",
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Opaque tenant identity used for fair-share accounting.
///
/// Jobs submitted without an explicit tenant all share the default
/// tenant `TenantId(0)`. When [`crate::ServeConfig::tenant_quota`] is
/// set, each tenant may hold at most that many jobs in flight (queued or
/// executing) at once.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct TenantId(pub u64);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// A submission: the job plus its quality-of-service envelope.
///
/// This is the argument every submit entry point accepts. A bare
/// [`DftJob`] converts into a plain-default request (standard priority,
/// no deadline, default tenant), so pre-QoS call sites keep compiling:
///
/// ```
/// use std::time::Duration;
/// use ndft_serve::{DftJob, JobRequest, Priority, TenantId};
///
/// let job = DftJob::Spectrum { atoms: 8, full_casida: false };
/// let request = JobRequest::new(job)
///     .priority(Priority::Interactive)
///     .deadline(Duration::from_secs(30))
///     .tenant(TenantId(7));
/// assert_eq!(request.priority, Priority::Interactive);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// The calculation to run.
    pub job: DftJob,
    /// Scheduling class (defaults to [`Priority::Standard`]).
    pub priority: Priority,
    /// Wall-clock budget measured from submission. Admission control
    /// rejects the request up front when the modeled queue wait plus
    /// modeled run time already overruns it, and workers drop the job
    /// (resolving its ticket with [`JobError::DeadlineExceeded`]) if the
    /// budget expires while it is still queued.
    pub deadline: Option<Duration>,
    /// Fair-share accounting identity (defaults to `TenantId(0)`).
    pub tenant: TenantId,
}

impl JobRequest {
    /// A plain-default request: standard priority, no deadline, default
    /// tenant.
    pub fn new(job: DftJob) -> Self {
        JobRequest {
            job,
            priority: Priority::Standard,
            deadline: None,
            tenant: TenantId::default(),
        }
    }

    /// Sets the scheduling priority.
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the wall-clock deadline, measured from submission.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the tenant the job is accounted against.
    #[must_use]
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }
}

impl From<DftJob> for JobRequest {
    fn from(job: DftJob) -> Self {
        JobRequest::new(job)
    }
}

/// The physics payload a completed job carries.
#[derive(Debug, Clone, PartialEq)]
pub enum JobPayload {
    /// Converged ground state.
    GroundState(GroundState),
    /// MD trajectory.
    Md(MdTrajectory),
    /// TDA spectrum.
    Tda(Spectrum),
    /// Full Casida + TDA spectra.
    Casida(CasidaResult),
    /// Band energies along a k-path.
    Bands(BandStructure),
    /// Self-consistent ground state with its density history.
    SelfConsistent(SelfConsistentResult),
}

impl JobPayload {
    /// A scalar "headline" observable per payload, used by examples and
    /// smoke tests: lowest band energy, equilibrium temperature,
    /// optical gap, or direct band gap.
    pub fn headline(&self) -> f64 {
        match self {
            JobPayload::GroundState(gs) => gs.energies_ev.first().copied().unwrap_or(f64::NAN),
            JobPayload::Md(t) => t.equilibrium_temperature(),
            JobPayload::Tda(s) => s.optical_gap(),
            JobPayload::Casida(c) => c.optical_gap(),
            JobPayload::Bands(b) => b.direct_gap(),
            JobPayload::SelfConsistent(sc) => sc
                .ground_state
                .energies_ev
                .first()
                .copied()
                .unwrap_or(f64::NAN),
        }
    }
}

/// Why a job failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The atom count is not a whole number of diamond cells.
    InvalidSystem(String),
    /// The numeric pipeline failed (eigensolver breakdown etc.).
    Numerics(String),
    /// The engine shut down before the job ran.
    ShutDown,
    /// The job was cancelled while it was still queued.
    Cancelled,
    /// The job's wall-clock deadline passed while it waited in the
    /// queue, so the worker dropped it instead of running it.
    DeadlineExceeded,
    /// A workflow node was orphaned before release: an upstream node in
    /// its DAG failed (or could not be submitted), so this node's
    /// dependencies can never be satisfied. The message names the
    /// upstream failure.
    DependencyFailed(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::InvalidSystem(m) => write!(f, "invalid system: {m}"),
            JobError::Numerics(m) => write!(f, "numerics failure: {m}"),
            JobError::ShutDown => f.write_str("engine shut down before execution"),
            JobError::Cancelled => f.write_str("job cancelled before execution"),
            JobError::DeadlineExceeded => f.write_str("deadline passed while the job was queued"),
            JobError::DependencyFailed(m) => write!(f, "workflow dependency failed: {m}"),
        }
    }
}

impl std::error::Error for JobError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_separate_parameters() {
        let a = DftJob::GroundState {
            atoms: 8,
            bands: 4,
            max_iterations: 6,
        };
        let b = DftJob::GroundState {
            atoms: 8,
            bands: 5,
            max_iterations: 6,
        };
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }

    #[test]
    fn md_seed_is_part_of_identity_but_not_class() {
        let a = DftJob::MdSegment {
            atoms: 64,
            steps: 10,
            temperature_k: 300.0,
            seed: 1,
        };
        let b = DftJob::MdSegment {
            atoms: 64,
            steps: 10,
            temperature_k: 300.0,
            seed: 2,
        };
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.workload_class(), b.workload_class());
    }

    #[test]
    fn spectrum_flavours_are_distinct_kinds() {
        let tda = DftJob::Spectrum {
            atoms: 16,
            full_casida: false,
        };
        let casida = DftJob::Spectrum {
            atoms: 16,
            full_casida: true,
        };
        assert_ne!(tda.fingerprint(), casida.fingerprint());
        assert_ne!(tda.workload_class(), casida.workload_class());
        assert_eq!(tda.kind(), JobKind::TdaSpectrum);
        assert_eq!(casida.kind(), JobKind::CasidaSpectrum);
    }

    #[test]
    fn task_graph_matches_modeled_iterations() {
        let job = DftJob::MdSegment {
            atoms: 16,
            steps: 7,
            temperature_k: 250.0,
            seed: 3,
        };
        let g = job.task_graph().unwrap();
        assert_eq!(g.iterations, 7);
        assert!(!g.stages.is_empty());
    }

    #[test]
    fn shard_key_is_stable_per_class() {
        let a = DftJob::MdSegment {
            atoms: 64,
            steps: 10,
            temperature_k: 300.0,
            seed: 1,
        };
        let b = DftJob::MdSegment {
            atoms: 64,
            steps: 10,
            temperature_k: 350.0, // different job, same class
            seed: 9,
        };
        assert_eq!(
            a.workload_class().shard_key(),
            b.workload_class().shard_key()
        );
        let other = DftJob::Spectrum {
            atoms: 64,
            full_casida: false,
        };
        assert_ne!(
            a.workload_class().shard_key(),
            other.workload_class().shard_key()
        );
    }

    /// One job per variant (both `Spectrum` flavours), with `-0.0`, `0.0`
    /// and a NaN payload in each float-carrying variant.
    fn pinned_jobs() -> Vec<DftJob> {
        let md = |temperature_k| DftJob::MdSegment {
            atoms: 64,
            steps: 10,
            temperature_k,
            seed: u64::MAX,
        };
        let bands = |scissor_ev| DftJob::BandStructure {
            atoms: 8,
            segments: 3,
            n_bands: 8,
            scissor_ev,
        };
        let self_consistent = |alpha| DftJob::ScfSelfConsistent {
            atoms: 8,
            bands: 4,
            max_iterations: 4,
            occupied: 2,
            cycles: 2,
            alpha,
        };
        let floats = [-0.0, 0.0, f64::from_bits(0x7FF8_0000_0000_1234)];
        let mut jobs = vec![
            DftJob::GroundState {
                atoms: 8,
                bands: 4,
                max_iterations: 6,
            },
            DftJob::Spectrum {
                atoms: 16,
                full_casida: false,
            },
            DftJob::Spectrum {
                atoms: 16,
                full_casida: true,
            },
        ];
        jobs.extend(floats.map(md));
        jobs.extend(floats.map(bands));
        jobs.extend(floats.map(self_consistent));
        jobs
    }

    /// A fingerprint is the key of every WAL record and the ring
    /// position a federation routes the job to, so its value must never
    /// move. A failure here is a bug to fix, not a value to re-record.
    #[test]
    fn fingerprints_are_pinned() {
        const PINNED: [u128; 12] = [
            0x928638905e022d68ba4efa858b2b63ee,
            0x33ce36bac37abea8985b4593eef79176,
            0x3bf7fe726c006da0b7560c9cf9e6db97,
            0x544ba94e89f9d41e204c5e18ad26f605,
            0x6cd4bbbbbf5ae26ac7b4ed91323b0e85,
            0xdf7bd3972c98c6e548435c15e34adb8a,
            0xd0fa03b10dee2cd49fe38d13621ff7a2,
            0xd0f9ffb10dee26089fe30d13621f1e22,
            0x4c005f2ef658447bf98299375aecf0a5,
            0x013e6bb67f7e5d2462461aa68451cb68,
            0x013e67b67f7e565862459aa68450f1e8,
            0xce90b5ea2a8d468b2379d7a98710e3d3,
        ];
        let got: Vec<u128> = pinned_jobs().iter().map(|j| j.fingerprint().0).collect();
        assert_eq!(got, PINNED);
    }

    /// Shard keys route a class's jobs to one queue shard; moving them
    /// reshuffles every queue. A failure here is a bug, not a re-record.
    #[test]
    fn shard_keys_are_pinned() {
        const PINNED: [u64; 6] = [
            0xd8461fbe33eaaed4,
            0x1153c2d54370af2f,
            0xdac17f6e17aa4706,
            0x9f8a894b6e1d2f59,
            0xadece85784c00470,
            0xd53fc44e0c4bb88b,
        ];
        let kinds = [
            JobKind::GroundState,
            JobKind::MdSegment,
            JobKind::TdaSpectrum,
            JobKind::CasidaSpectrum,
            JobKind::BandStructure,
            JobKind::ScfSelfConsistent,
        ];
        let key = |kind| {
            WorkloadClass {
                kind,
                atoms: 64,
                iterations: 10,
            }
            .shard_key()
        };
        assert_eq!(kinds.map(key), PINNED);
    }

    #[test]
    fn job_request_builder_defaults_and_overrides() {
        let job = DftJob::Spectrum {
            atoms: 8,
            full_casida: false,
        };
        let plain: JobRequest = job.clone().into();
        assert_eq!(plain.priority, Priority::Standard);
        assert_eq!(plain.deadline, None);
        assert_eq!(plain.tenant, TenantId(0));

        let tuned = JobRequest::new(job)
            .priority(Priority::Bulk)
            .deadline(Duration::from_millis(250))
            .tenant(TenantId(3));
        assert_eq!(tuned.priority, Priority::Bulk);
        assert_eq!(tuned.deadline, Some(Duration::from_millis(250)));
        assert_eq!(tuned.tenant, TenantId(3));
    }

    #[test]
    fn priority_order_is_service_order() {
        assert!(Priority::Interactive < Priority::Standard);
        assert!(Priority::Standard < Priority::Bulk);
        for (i, p) in Priority::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn invalid_atoms_rejected() {
        let job = DftJob::Spectrum {
            atoms: 12,
            full_casida: false,
        };
        assert!(job.system().is_err());
        assert!(matches!(job.validate(), Err(JobError::InvalidSystem(_))));
    }

    #[test]
    fn new_kinds_have_distinct_identities() {
        let bands = DftJob::BandStructure {
            atoms: 8,
            segments: 3,
            n_bands: 8,
            scissor_ev: 0.7,
        };
        let sc = DftJob::ScfSelfConsistent {
            atoms: 8,
            bands: 4,
            max_iterations: 4,
            occupied: 4,
            cycles: 2,
            alpha: 0.5,
        };
        assert_eq!(bands.kind(), JobKind::BandStructure);
        assert_eq!(sc.kind(), JobKind::ScfSelfConsistent);
        assert_ne!(bands.fingerprint(), sc.fingerprint());
        assert_ne!(
            bands.workload_class().shard_key(),
            sc.workload_class().shard_key()
        );
        // Parameter changes (incl. float bit patterns) change identity.
        let shifted = DftJob::BandStructure {
            atoms: 8,
            segments: 3,
            n_bands: 8,
            scissor_ev: 0.8,
        };
        assert_ne!(bands.fingerprint(), shifted.fingerprint());
        let remixed = DftJob::ScfSelfConsistent {
            atoms: 8,
            bands: 4,
            max_iterations: 4,
            occupied: 4,
            cycles: 2,
            alpha: 0.6,
        };
        assert_ne!(sc.fingerprint(), remixed.fingerprint());
        assert!(bands.validate().is_ok());
        assert!(sc.validate().is_ok());
    }

    #[test]
    fn validate_rejects_driver_panicking_parameters() {
        let too_many_bands = DftJob::BandStructure {
            atoms: 8,
            segments: 2,
            n_bands: 400,
            scissor_ev: 0.0,
        };
        assert!(matches!(
            too_many_bands.validate(),
            Err(JobError::InvalidSystem(_))
        ));
        let over_occupied = DftJob::ScfSelfConsistent {
            atoms: 8,
            bands: 4,
            max_iterations: 4,
            occupied: 5,
            cycles: 2,
            alpha: 0.5,
        };
        assert!(matches!(
            over_occupied.validate(),
            Err(JobError::InvalidSystem(_))
        ));
        let bad_alpha = DftJob::ScfSelfConsistent {
            atoms: 8,
            bands: 4,
            max_iterations: 4,
            occupied: 4,
            cycles: 2,
            alpha: 1.5,
        };
        assert!(matches!(
            bad_alpha.validate(),
            Err(JobError::InvalidSystem(_))
        ));
    }

    #[test]
    fn validate_bounds_bands_by_the_wave_sphere() {
        // Si_8's wavefunction sphere holds 515 plane waves, Si_16's 1,013.
        for (atoms, most) in [(8, 515), (16, 1_013)] {
            for bands in [0, 1, most, most + 1] {
                let ground = DftJob::GroundState {
                    atoms,
                    bands,
                    max_iterations: 4,
                };
                let sc = DftJob::ScfSelfConsistent {
                    atoms,
                    bands,
                    max_iterations: 4,
                    occupied: 1,
                    cycles: 2,
                    alpha: 0.5,
                };
                for job in [ground, sc] {
                    let ok = (1..=most).contains(&bands);
                    match job.validate() {
                        Ok(()) => assert!(ok, "{job:?} passed"),
                        Err(JobError::InvalidSystem(_)) => assert!(!ok, "{job:?} refused"),
                        Err(e) => panic!("{job:?}: {e:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn warm_seed_requires_exactly_matching_scf_options() {
        let child = DftJob::ScfSelfConsistent {
            atoms: 16,
            bands: 4,
            max_iterations: 4,
            occupied: 4,
            cycles: 2,
            alpha: 0.5,
        };
        let parent = DftJob::GroundState {
            atoms: 16,
            bands: 4,
            max_iterations: 4,
        };
        assert_eq!(child.bootstrap(), Some(parent.clone()));
        let other_bands = DftJob::GroundState {
            atoms: 16,
            bands: 5,
            max_iterations: 4,
        };
        assert_ne!(child.bootstrap(), Some(other_bands));
        // Only self-consistent children are seedable at all.
        let md = DftJob::MdSegment {
            atoms: 16,
            steps: 3,
            temperature_k: 300.0,
            seed: 0,
        };
        assert_eq!(parent.bootstrap(), None);
        assert_eq!(md.bootstrap(), None);
    }
}
