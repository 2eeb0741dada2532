//! The persistent on-disk cache tier: a write-ahead result log.
//!
//! DFT-as-a-Service deployments reuse expensive solves *across engine
//! restarts* — a Casida spectrum computed yesterday should answer
//! today's identical submission without touching a worker. This module
//! gives [`crate::ResultCache`] that durability:
//!
//! * [`Enc`] / [`Dec`] — a hand-rolled little-endian binary codec
//!   (the vendored `serde` is an offline stub, so derives cannot
//!   serialize; every number is written as explicit `to_le_bytes`
//!   and floats as raw IEEE-754 bits, which is what makes round-trips
//!   **bit-exact**).
//! * [`PersistValue`] — the encode/decode contract a cache value must
//!   implement to be spillable; implemented here for
//!   `Arc<JobOutcome>` (the engine's value type). An outcome record
//!   keeps the result: job, payload, placement policy and wall time.
//!   Decode re-plans the placement and modeled run on the job's kept
//!   machine, so a disk hit reports the idle, one-member plan under the
//!   policy that stored it. The job's encoding doubles as its identity:
//!   [`DftJob::fingerprint`] is the digest of exactly those bytes.
//! * [`DiskTier`] — an append-only write-ahead file
//!   (`<cache_dir>/results.wal`) plus an in-memory index from
//!   [`Fingerprint`] to record location, rebuilt by scanning at open.
//!
//! ## On-disk format
//!
//! ```text
//! file   := header record*
//! header := b"NDFTWAL6"                      (8 bytes, format version)
//! record := marker   u32  = 0x4352444E ("NDRC", little-endian)
//!           fp       u128                    (Fingerprint::to_le_bytes)
//!           cost     f64                     (modeled compute cost, bits)
//!           len      u32                     (payload byte count)
//!           payload  [u8; len]               (PersistValue encoding)
//!           check    u64                     (FNV-1a over fp‖cost‖payload)
//! outcome payload := job payload policy wall
//! policy := u8 (index in PlacementPolicy::all(); 5 and up is malformed)
//! wall   := secs u64, nanos u32 (< 10⁹)
//! job    := tag u64 (1..=5, the DftJob variant) then one u64 word per
//!           parameter in declaration order: counts as u64, floats as
//!           raw bits, `full_casida` as 0/1 — the bytes the
//!           fingerprint hashes, so `fp` is the digest of `job`
//! orbitals := rows u64, cols u64, then rows × cols values (re, im bits):
//!           a ground state's bands as half-sphere rows, so `bands` rows
//!           of `⌈wave_sphere_len/2⌉` for its job's system
//! ```
//!
//! Appends are atomic at record granularity in the WAL sense: a crash
//! mid-append leaves a truncated tail, and the open-time scan stops at
//! the first malformed or checksum-failing record (for a cache's log,
//! also at the first whose payload does not decode: a policy tag of 5
//! or more, a job with no valid system, or orbitals that are not its
//! job's half-sphere rows, say) and **truncates the
//! file back to the last good boundary** — corruption costs the tail of
//! the cache, never a panic and never a poisoned index. A later record for the same fingerprint
//! shadows an earlier one (last write wins), so refreshing an entry
//! never needs in-place rewrites.
//!
//! [`DiskTier::append`] writes each record with one `write_all` and
//! never calls `sync_data`. Every record an `append` returned from
//! survives a process crash, since the kernel already holds its bytes.
//! A host crash (power loss, kernel panic) can lose an unsynced tail
//! of records, and the next open's scan truncates whatever partial
//! record that leaves.
//!
//! Reads verify the record checksum again (the file may have been
//! damaged after open); a failing record is dropped from the index and
//! reported as a miss.
//!
//! ## Single writer
//!
//! The tier assumes **one live engine per directory**: offsets and the
//! index are tracked by the opener, so two concurrent engines sharing
//! a `cache_dir` would append at stale offsets and clobber each
//! other's records (the damage is contained — checksums catch it and
//! the next open truncates to the last good record — but everything
//! after the clobber point is lost). Reuse across *sequential* engine
//! instances is the supported restart story; give concurrent engines
//! distinct directories.

use crate::cluster::ClusterSnapshot;
use crate::fingerprint::{digest, Fingerprint, Hasher};
use crate::job::{DftJob, JobPayload};
use crate::placement::{plan_batch, PlacementPolicy};
use crate::worker::JobOutcome;
use ndft_dft::{
    BandPathPoint, BandStructure, CasidaResult, GroundState, MdSample, MdTrajectory,
    SelfConsistentResult, Spectrum,
};
use ndft_numerics::{CMat, Complex64};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The per-replica cache directory a federated deployment gives replica
/// `replica` under a shared root: `<root>/replica-<replica>`.
///
/// The disk tier's single-writer rule (see the [module docs](self))
/// survives federation because each replica owns a distinct
/// subdirectory — N engines never share a WAL. The mapping is **stable
/// across kill/revive**: a revived replica reopens the same
/// subdirectory, scans its WAL, and rejoins the ring with every result
/// it persisted before dying already warm — the federated failover
/// test's warm-rejoin leg rides on exactly this.
pub fn replica_cache_dir(root: impl AsRef<Path>, replica: usize) -> PathBuf {
    root.as_ref().join(format!("replica-{replica}"))
}

/// File-format magic + version. Bump the trailing digit when the codec
/// or what a field means changes (2: placements are planned on the
/// gather-charging machine; 3: the job is the fingerprint's `u64` words
/// and outcomes no longer repeat the fingerprint; 4: outcomes keep only
/// the placement policy, and decode re-plans the placement and modeled
/// run; 5: ground states are solved on the wavefunction sphere, so the
/// same fingerprint names another answer than a full-grid one; 6: a
/// ground state's orbitals are its bands' half-sphere rows, not grid
/// orbitals): an old file then fails the header check and is reset
/// rather than misdecoded or misread.
const HEADER: &[u8; 8] = b"NDFTWAL6";
/// Per-record marker ("NDRC" little-endian). The open-time scan
/// treats anything else where a record should start as corruption and
/// truncates from there — it does not skip ahead looking for the next
/// marker (see [`DiskTier::open`]'s recovery rules).
const RECORD_MARKER: u32 = 0x4352_444E;
/// Name of the write-ahead file inside `ServeConfig::cache_dir`.
const WAL_FILE: &str = "results.wal";

// ---------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------

/// Append-only binary encoder (little-endian throughout).
#[derive(Debug, Default)]
pub struct Enc {
    sink: Sink,
}

/// Where an [`Enc`] puts what it writes.
#[derive(Debug)]
enum Sink {
    /// Kept, for [`Enc::into_bytes`].
    Bytes(Vec<u8>),
    /// Hashed as written and never kept ([`Enc::digest_with`]).
    Digest(Hasher),
}

impl Default for Sink {
    fn default() -> Self {
        Sink::Bytes(Vec::new())
    }
}

impl Enc {
    /// Fresh empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// The digest of what `write` encodes, streamed into the hasher as
    /// it is written: the same fingerprint as hashing
    /// [`Enc::into_bytes`], without a buffer.
    pub(crate) fn digest_with(write: impl FnOnce(&mut Enc)) -> Fingerprint {
        let mut enc = Enc {
            sink: Sink::Digest(Hasher::new()),
        };
        write(&mut enc);
        match enc.sink {
            Sink::Digest(hasher) => hasher.finish(),
            Sink::Bytes(bytes) => digest(&bytes),
        }
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        match self.sink {
            Sink::Bytes(bytes) => bytes,
            Sink::Digest(_) => unreachable!("a digesting encoder never leaves `digest_with`"),
        }
    }

    fn put(&mut self, bytes: &[u8]) {
        match &mut self.sink {
            Sink::Bytes(buf) => buf.extend_from_slice(bytes),
            Sink::Digest(hasher) => hasher.write_bytes(bytes),
        }
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// Writes a `usize` count as `u64` (the encoding is 64-bit
    /// regardless of host width, so files move between machines).
    pub fn count(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its raw IEEE-754 bit pattern — the encoding
    /// is bit-exact, NaN payloads and signed zeros included.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.count(s.len());
        self.put(s.as_bytes());
    }

    /// Writes a length-prefixed `f64` slice.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.count(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }
}

/// Bounds-checked binary decoder over an encoded byte slice.
///
/// Every read returns `Option`: running off the end of the buffer (or
/// any malformed field) yields `None`, never a panic — the contract
/// the disk tier's corruption handling is built on.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decoder over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    /// Reads a count written by [`Enc::count`], refusing values that
    /// could not possibly fit in the remaining bytes assuming at least
    /// `elem_bytes` per element — the guard that keeps a corrupt
    /// length field from triggering a huge allocation.
    pub fn count(&mut self, elem_bytes: usize) -> Option<usize> {
        let n = self.usize()?;
        if n.checked_mul(elem_bytes.max(1))? > self.remaining() {
            return None;
        }
        Some(n)
    }

    /// Reads a `usize` written by [`Enc::count`] as a plain value (no
    /// bound against the remaining bytes; use [`Dec::count`] for
    /// lengths).
    pub(crate) fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// Reads an `f64` from its raw bit pattern (bit-exact).
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn f64s(&mut self) -> Option<Vec<f64>> {
        let n = self.count(8)?;
        (0..n).map(|_| self.f64()).collect()
    }
}

/// A value the disk tier can spill and reload.
///
/// Implementations must round-trip **bit-exactly**: `decode(encode(v))
/// == v`, including float bit patterns (encode floats via their raw
/// bits, not through text). `decode` must treat any malformed input as
/// `None` and must never panic — corrupt bytes reach it only after a
/// checksum pass, but the contract is defense in depth.
pub trait PersistValue: Sized {
    /// Appends this value's encoding to `enc`.
    fn encode(&self, enc: &mut Enc);
    /// Decodes one value, consuming exactly what [`encode`](Self::encode)
    /// wrote; `None` on any malformation.
    fn decode(dec: &mut Dec<'_>) -> Option<Self>;
}

// ---------------------------------------------------------------------
// PersistValue for the engine's value graph
// ---------------------------------------------------------------------

/// The job encoding is also the job's identity: [`DftJob::fingerprint`]
/// hashes exactly these bytes. Every field is one little-endian `u64`
/// word, and decode rejects a non-canonical word (tag outside 1..=5,
/// `full_casida` outside {0, 1}), so one job has one byte string.
impl PersistValue for DftJob {
    fn encode(&self, enc: &mut Enc) {
        match *self {
            DftJob::GroundState {
                atoms,
                bands,
                max_iterations,
            } => {
                enc.u64(1);
                enc.count(atoms);
                enc.count(bands);
                enc.count(max_iterations);
            }
            DftJob::MdSegment {
                atoms,
                steps,
                temperature_k,
                seed,
            } => {
                enc.u64(2);
                enc.count(atoms);
                enc.count(steps);
                enc.f64(temperature_k);
                enc.u64(seed);
            }
            DftJob::Spectrum { atoms, full_casida } => {
                enc.u64(3);
                enc.count(atoms);
                enc.u64(full_casida as u64);
            }
            DftJob::BandStructure {
                atoms,
                segments,
                n_bands,
                scissor_ev,
            } => {
                enc.u64(4);
                enc.count(atoms);
                enc.count(segments);
                enc.count(n_bands);
                enc.f64(scissor_ev);
            }
            DftJob::ScfSelfConsistent {
                atoms,
                bands,
                max_iterations,
                occupied,
                cycles,
                alpha,
            } => {
                enc.u64(5);
                enc.count(atoms);
                enc.count(bands);
                enc.count(max_iterations);
                enc.count(occupied);
                enc.count(cycles);
                enc.f64(alpha);
            }
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Option<Self> {
        match dec.u64()? {
            1 => Some(DftJob::GroundState {
                atoms: dec.usize()?,
                bands: dec.usize()?,
                max_iterations: dec.usize()?,
            }),
            2 => Some(DftJob::MdSegment {
                atoms: dec.usize()?,
                steps: dec.usize()?,
                temperature_k: dec.f64()?,
                seed: dec.u64()?,
            }),
            3 => Some(DftJob::Spectrum {
                atoms: dec.usize()?,
                full_casida: match dec.u64()? {
                    0 => false,
                    1 => true,
                    _ => return None,
                },
            }),
            4 => Some(DftJob::BandStructure {
                atoms: dec.usize()?,
                segments: dec.usize()?,
                n_bands: dec.usize()?,
                scissor_ev: dec.f64()?,
            }),
            5 => Some(DftJob::ScfSelfConsistent {
                atoms: dec.usize()?,
                bands: dec.usize()?,
                max_iterations: dec.usize()?,
                occupied: dec.usize()?,
                cycles: dec.usize()?,
                alpha: dec.f64()?,
            }),
            _ => None,
        }
    }
}

fn encode_ground_state(enc: &mut Enc, gs: &GroundState) {
    enc.f64s(&gs.energies_ev);
    enc.count(gs.orbitals.rows());
    enc.count(gs.orbitals.cols());
    for c in gs.orbitals.as_slice() {
        enc.f64(c.re);
        enc.f64(c.im);
    }
    enc.f64s(&gs.residuals);
    enc.count(gs.iterations);
}

fn decode_ground_state(dec: &mut Dec<'_>) -> Option<GroundState> {
    let energies_ev = dec.f64s()?;
    let rows = dec.count(0)?;
    let cols = dec.count(0)?;
    let n = rows.checked_mul(cols)?;
    // 16 bytes per complex element must still fit.
    if n.checked_mul(16)? > dec.remaining() {
        return None;
    }
    let data = (0..n)
        .map(|_| {
            Some(Complex64 {
                re: dec.f64()?,
                im: dec.f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(GroundState {
        energies_ev,
        orbitals: CMat::from_vec(rows, cols, data),
        residuals: dec.f64s()?,
        iterations: dec.usize()?,
    })
}

impl PersistValue for JobPayload {
    fn encode(&self, enc: &mut Enc) {
        match self {
            JobPayload::GroundState(gs) => {
                enc.u8(1);
                encode_ground_state(enc, gs);
            }
            JobPayload::Md(t) => {
                enc.u8(2);
                enc.count(t.samples.len());
                for s in &t.samples {
                    enc.f64(s.kinetic_ev);
                    enc.f64(s.potential_ev);
                    enc.f64(s.rebuild_fraction);
                }
                enc.count(t.atoms);
                enc.f64(t.final_mean_displacement);
                enc.u64(t.total_rebuilds);
            }
            JobPayload::Tda(s) => {
                enc.u8(3);
                enc.f64s(&s.energies_ev);
                enc.count(s.hamiltonian_dim);
                enc.f64(s.hermiticity_error);
            }
            JobPayload::Casida(c) => {
                enc.u8(4);
                enc.f64s(&c.energies_ev);
                enc.f64s(&c.tda_energies_ev);
                enc.count(c.dim);
            }
            JobPayload::Bands(b) => {
                enc.u8(5);
                enc.count(b.path.len());
                for p in &b.path {
                    enc.f64(p.frac[0]);
                    enc.f64(p.frac[1]);
                    enc.f64(p.frac[2]);
                    enc.f64(p.distance);
                    enc.str(&p.label);
                }
                enc.count(b.energies.len());
                for band in &b.energies {
                    enc.f64s(band);
                }
                enc.count(b.occupied);
            }
            JobPayload::SelfConsistent(sc) => {
                enc.u8(6);
                encode_ground_state(enc, &sc.ground_state);
                enc.f64s(&sc.density_residuals);
                enc.f64s(&sc.density);
            }
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Option<Self> {
        match dec.u8()? {
            1 => Some(JobPayload::GroundState(decode_ground_state(dec)?)),
            2 => {
                let n = dec.count(24)?;
                let samples = (0..n)
                    .map(|_| {
                        Some(MdSample {
                            kinetic_ev: dec.f64()?,
                            potential_ev: dec.f64()?,
                            rebuild_fraction: dec.f64()?,
                        })
                    })
                    .collect::<Option<Vec<_>>>()?;
                Some(JobPayload::Md(MdTrajectory {
                    samples,
                    atoms: dec.usize()?,
                    final_mean_displacement: dec.f64()?,
                    total_rebuilds: dec.u64()?,
                }))
            }
            3 => Some(JobPayload::Tda(Spectrum {
                energies_ev: dec.f64s()?,
                hamiltonian_dim: dec.usize()?,
                hermiticity_error: dec.f64()?,
            })),
            4 => Some(JobPayload::Casida(CasidaResult {
                energies_ev: dec.f64s()?,
                tda_energies_ev: dec.f64s()?,
                dim: dec.usize()?,
            })),
            5 => {
                // Each path point carries at least 4 f64s plus a length byte.
                let np = dec.count(33)?;
                let path = (0..np)
                    .map(|_| {
                        Some(BandPathPoint {
                            frac: [dec.f64()?, dec.f64()?, dec.f64()?],
                            distance: dec.f64()?,
                            label: dec.str()?,
                        })
                    })
                    .collect::<Option<Vec<_>>>()?;
                let nb = dec.count(8)?;
                let energies = (0..nb).map(|_| dec.f64s()).collect::<Option<Vec<_>>>()?;
                Some(JobPayload::Bands(BandStructure {
                    path,
                    energies,
                    occupied: dec.usize()?,
                }))
            }
            6 => Some(JobPayload::SelfConsistent(SelfConsistentResult {
                ground_state: decode_ground_state(dec)?,
                density_residuals: dec.f64s()?,
                density: dec.f64s()?,
            })),
            _ => None,
        }
    }
}

/// The record keeps the result: the job, its payload, the placement
/// policy (its index in [`PlacementPolicy::all`]) and the wall time.
/// The fingerprint is the digest of the job's encoding, and decode
/// re-plans the placement and modeled run as the idle, one-member plan
/// under the stored policy on the job's kept machine. The load and
/// fusion width the result was first planned under described another
/// process's cluster, so they are not kept.
impl PersistValue for JobOutcome {
    fn encode(&self, enc: &mut Enc) {
        self.job.encode(enc);
        self.payload.encode(enc);
        let policy = PlacementPolicy::all()
            .iter()
            .position(|&p| p == self.placement.policy)
            .expect("`all` lists every policy");
        enc.u8(policy as u8);
        enc.u64(self.wall_numeric.as_secs());
        enc.u32(self.wall_numeric.subsec_nanos());
    }

    fn decode(dec: &mut Dec<'_>) -> Option<Self> {
        let job = DftJob::decode(dec)?;
        let payload = JobPayload::decode(dec)?;
        if !orbitals_fit(&job, &payload) {
            return None;
        }
        let policy = *PlacementPolicy::all().get(usize::from(dec.u8()?))?;
        let secs = dec.u64()?;
        let nanos = dec.u32()?;
        if nanos >= 1_000_000_000 {
            return None;
        }
        let graph = job.task_graph().ok()?;
        let (placement, modeled, _) = plan_batch(&graph, policy, &ClusterSnapshot::idle(), 1);
        Some(JobOutcome {
            fingerprint: job.fingerprint(),
            job,
            payload,
            placement,
            modeled,
            wall_numeric: Duration::new(secs, nanos),
        })
    }
}

/// Whether a ground state in `payload` holds what `job`'s solve returns:
/// `bands` rows of its system's half-sphere. That sphere holds `G = 0`
/// and both members of each ±G pair, so a row is `⌈wave_sphere_len/2⌉`
/// long. A payload without orbitals fits any job.
fn orbitals_fit(job: &DftJob, payload: &JobPayload) -> bool {
    let gs = match payload {
        JobPayload::GroundState(gs) => gs,
        JobPayload::SelfConsistent(sc) => &sc.ground_state,
        _ => return true,
    };
    let (Ok(system), Some(opts)) = (job.system(), job.scf_options()) else {
        return false;
    };
    (gs.orbitals.rows(), gs.orbitals.cols()) == (opts.bands, system.wave_sphere_len().div_ceil(2))
}

impl PersistValue for Arc<JobOutcome> {
    fn encode(&self, enc: &mut Enc) {
        JobOutcome::encode(self, enc);
    }

    fn decode(dec: &mut Dec<'_>) -> Option<Self> {
        JobOutcome::decode(dec).map(Arc::new)
    }
}

// ---------------------------------------------------------------------
// The disk tier
// ---------------------------------------------------------------------

/// Location of one live record's payload inside the WAL.
#[derive(Debug, Clone, Copy)]
struct RecordLoc {
    /// Byte offset of the payload (past the record header fields).
    payload_at: u64,
    /// Payload byte count.
    len: u32,
    /// Modeled compute cost stored with the record, seconds.
    cost: f64,
    /// Checksum stored with the record (re-verified on read).
    check: u64,
}

#[derive(Debug)]
struct DiskInner {
    file: File,
    index: HashMap<Fingerprint, RecordLoc>,
    /// Current logical end of the file (next append offset).
    file_len: u64,
}

/// The persistent tier: an append-only record log plus a fingerprint
/// index, shared behind one mutex (the tier is touched only on memory
/// misses and inserts, never on the memory-hit fast path).
#[derive(Debug)]
pub struct DiskTier {
    inner: Mutex<DiskInner>,
    path: PathBuf,
}

/// Checksum over one record's identity + payload: both FNV lanes of
/// the repo's [`Hasher`] folded to 64 bits.
fn record_check(fp: Fingerprint, cost: f64, payload: &[u8]) -> u64 {
    let mut h = Hasher::new();
    h.write_bytes(&fp.to_le_bytes());
    h.write_u64(cost.to_bits());
    h.write_bytes(payload);
    let Fingerprint(d) = h.finish();
    (d >> 64) as u64 ^ d as u64
}

impl DiskTier {
    /// Opens (or creates) the write-ahead file under `dir`, scanning it
    /// to rebuild the fingerprint index.
    ///
    /// Recovery rules, in order:
    /// * missing or empty file → write a fresh header;
    /// * unrecognized header (foreign file, older format version) →
    ///   reset the file (it is a cache — regenerable by definition);
    /// * malformed / checksum-failing / truncated record (or, for a
    ///   result cache's log, one whose payload does not decode) → stop
    ///   the scan and truncate back to the last good record
    ///   boundary, so subsequent appends never interleave with garbage.
    ///
    /// No content ever makes this function panic.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory cannot be
    /// created or the file cannot be opened/read — misconfiguration,
    /// as opposed to corruption, is surfaced to the caller.
    pub fn open(dir: &Path) -> std::io::Result<Self> {
        DiskTier::open_checked(dir, |_| true)
    }

    /// [`DiskTier::open`] for a log of typed values: a record whose
    /// checksum holds but whose payload `valid` refuses is malformed
    /// too, so the scan truncates the file there as well.
    pub(crate) fn open_checked(dir: &Path, valid: impl Fn(&[u8]) -> bool) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(WAL_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let file_len = file.metadata()?.len();
        let (index, good_len) = scan(&mut file, file_len, &valid)?;
        let good_len = match good_len {
            Some(len) => len,
            None => {
                // Bad or missing header: reset to a fresh, valid file.
                file.set_len(0)?;
                file.seek(SeekFrom::Start(0))?;
                file.write_all(HEADER)?;
                HEADER.len() as u64
            }
        };
        if good_len < file_len {
            file.set_len(good_len)?;
        }
        file.seek(SeekFrom::Start(good_len))?;
        Ok(DiskTier {
            inner: Mutex::new(DiskInner {
                file,
                index,
                file_len: good_len,
            }),
            path,
        })
    }

    /// Path of the write-ahead file this tier appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Live records in the index.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().index.len()
    }

    /// True when no record is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the write-ahead file currently holds (header + records;
    /// shadowed duplicates included — the file is append-only).
    pub fn bytes_persisted(&self) -> u64 {
        self.inner.lock().unwrap().file_len
    }

    /// Appends one record (last write for a fingerprint wins on
    /// reload). I/O errors drop the record — the disk tier degrades to
    /// a smaller cache, it never takes the engine down.
    pub fn append(&self, fp: Fingerprint, cost: f64, payload: &[u8]) {
        let mut rec = Vec::with_capacity(34 + payload.len() + 8);
        rec.extend_from_slice(&RECORD_MARKER.to_le_bytes());
        rec.extend_from_slice(&fp.to_le_bytes());
        rec.extend_from_slice(&cost.to_bits().to_le_bytes());
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(payload);
        let check = record_check(fp, cost, payload);
        rec.extend_from_slice(&check.to_le_bytes());
        let mut inner = self.inner.lock().unwrap();
        let at = inner.file_len;
        if inner.file.seek(SeekFrom::Start(at)).is_err() {
            return;
        }
        if inner.file.write_all(&rec).is_err() {
            // A partial append leaves a malformed tail; the next open's
            // scan truncates it away. Forget the record now.
            return;
        }
        inner.file_len = at + rec.len() as u64;
        inner.index.insert(
            fp,
            RecordLoc {
                payload_at: at + 32,
                len: payload.len() as u32,
                cost,
                check,
            },
        );
    }

    /// Reads one record's payload (re-verifying its checksum),
    /// returning it with the stored modeled cost. Any failure —
    /// unindexed fingerprint, I/O error, checksum mismatch — is a
    /// miss; a record that fails verification is dropped from the
    /// index so it is not retried.
    pub fn get(&self, fp: &Fingerprint) -> Option<(Vec<u8>, f64)> {
        let mut inner = self.inner.lock().unwrap();
        let loc = *inner.index.get(fp)?;
        let mut payload = vec![0u8; loc.len as usize];
        let ok = inner
            .file
            .seek(SeekFrom::Start(loc.payload_at))
            .is_ok_and(|_| inner.file.read_exact(&mut payload).is_ok());
        if !ok || record_check(*fp, loc.cost, &payload) != loc.check {
            inner.index.remove(fp);
            return None;
        }
        Some((payload, loc.cost))
    }
}

/// Streaming scan of the WAL: one buffered pass, holding at most one
/// record's payload in memory at a time (startup cost is O(largest
/// record), not O(file size)). Returns the rebuilt index plus the
/// offset of the last good record boundary, or `None` when the header
/// itself is unusable (caller resets the file).
///
/// The scan stops at the first malformed, out-of-bounds,
/// checksum-failing or `valid`-refused record; everything after that
/// offset is treated as lost (the caller truncates it away). I/O errors propagate —
/// unlike corruption, a failing disk is the caller's problem.
fn scan(
    file: &mut File,
    file_len: u64,
    valid: &dyn Fn(&[u8]) -> bool,
) -> std::io::Result<(HashMap<Fingerprint, RecordLoc>, Option<u64>)> {
    let mut index = HashMap::new();
    if file_len < HEADER.len() as u64 {
        return Ok((index, None));
    }
    file.seek(SeekFrom::Start(0))?;
    let mut reader = std::io::BufReader::new(file);
    let mut header = [0u8; 8];
    if !read_full(&mut reader, &mut header)? || &header != HEADER {
        return Ok((index, None));
    }
    let mut good = HEADER.len() as u64;
    let mut payload = Vec::new();
    loop {
        // Record head: marker u32 ‖ fp u128 ‖ cost f64 ‖ len u32.
        let mut head = [0u8; 32];
        if !read_full(&mut reader, &mut head)? {
            break;
        }
        if u32::from_le_bytes(head[0..4].try_into().unwrap()) != RECORD_MARKER {
            break;
        }
        let fp = Fingerprint(u128::from_le_bytes(head[4..20].try_into().unwrap()));
        let cost = f64::from_bits(u64::from_le_bytes(head[20..28].try_into().unwrap()));
        let len = u32::from_le_bytes(head[28..32].try_into().unwrap());
        // The whole record must fit in the file — the guard that keeps
        // a corrupt length field from allocating past the data we have.
        if good + 32 + len as u64 + 8 > file_len {
            break;
        }
        payload.resize(len as usize, 0);
        if !read_full(&mut reader, &mut payload)? {
            break;
        }
        let mut check_bytes = [0u8; 8];
        if !read_full(&mut reader, &mut check_bytes)? {
            break;
        }
        let check = u64::from_le_bytes(check_bytes);
        if record_check(fp, cost, &payload) != check || !valid(&payload) {
            break;
        }
        index.insert(
            fp,
            RecordLoc {
                payload_at: good + 32,
                len,
                cost,
                check,
            },
        );
        good += 32 + len as u64 + 8;
    }
    Ok((index, Some(good)))
}

/// `read_exact` that reports EOF / short reads as `Ok(false)` (the
/// scan's truncation signal) instead of an error.
fn read_full(reader: &mut impl Read, buf: &mut [u8]) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = reader.read(&mut buf[filled..])?;
        if n == 0 {
            return Ok(false);
        }
        filled += n;
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::plan_batch;
    use crate::worker::execute_payload;
    use proptest::prelude::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ndft-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn outcome_for(job: DftJob) -> JobOutcome {
        let graph = job.task_graph().unwrap();
        let (placement, modeled, _) = plan_batch(
            &graph,
            PlacementPolicy::CostAware,
            &crate::ClusterSnapshot::idle(),
            1,
        );
        let (payload, wall_numeric) = execute_payload(&job).unwrap();
        JobOutcome {
            fingerprint: job.fingerprint(),
            job,
            payload,
            placement,
            modeled,
            wall_numeric,
        }
    }

    #[test]
    fn outcome_roundtrips_bit_exactly_for_every_kind() {
        let jobs = [
            DftJob::GroundState {
                atoms: 8,
                bands: 4,
                max_iterations: 4,
            },
            DftJob::MdSegment {
                atoms: 64,
                steps: 3,
                temperature_k: 300.0,
                seed: 7,
            },
            DftJob::Spectrum {
                atoms: 16,
                full_casida: false,
            },
            DftJob::Spectrum {
                atoms: 16,
                full_casida: true,
            },
            DftJob::BandStructure {
                atoms: 8,
                segments: 2,
                n_bands: 4,
                scissor_ev: 0.65,
            },
            DftJob::ScfSelfConsistent {
                atoms: 8,
                bands: 4,
                max_iterations: 4,
                occupied: 2,
                cycles: 2,
                alpha: 0.5,
            },
        ];
        for job in jobs {
            let out = outcome_for(job);
            let mut enc = Enc::new();
            out.encode(&mut enc);
            let bytes = enc.into_bytes();
            let mut dec = Dec::new(&bytes);
            let back = JobOutcome::decode(&mut dec).expect("decodes");
            assert_eq!(dec.remaining(), 0, "decode consumed everything");
            // PartialEq compares every f64 exactly, so equality here is
            // the bit-exactness claim (no payload holds a NaN).
            assert_eq!(back, out);
        }
    }

    #[test]
    fn floats_roundtrip_raw_bits() {
        let mut enc = Enc::new();
        for v in [0.0f64, -0.0, f64::NAN, f64::INFINITY, 1e-300, -3.25] {
            enc.f64(v);
        }
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        for v in [0.0f64, -0.0, f64::NAN, f64::INFINITY, 1e-300, -3.25] {
            assert_eq!(dec.f64().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn wal_survives_reopen() {
        let dir = tmp_dir("reopen");
        {
            let tier = DiskTier::open(&dir).unwrap();
            tier.append(Fingerprint(1), 2.5, b"alpha");
            tier.append(Fingerprint(2), 0.5, b"beta");
            tier.append(Fingerprint(1), 3.0, b"alpha-v2"); // shadows
        }
        let tier = DiskTier::open(&dir).unwrap();
        assert_eq!(tier.len(), 2);
        let (bytes, cost) = tier.get(&Fingerprint(1)).unwrap();
        assert_eq!((bytes.as_slice(), cost), (b"alpha-v2".as_slice(), 3.0));
        assert_eq!(tier.get(&Fingerprint(2)).unwrap().0, b"beta");
        assert!(tier.get(&Fingerprint(9)).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_is_dropped_not_fatal() {
        let dir = tmp_dir("trunc");
        let path = {
            let tier = DiskTier::open(&dir).unwrap();
            tier.append(Fingerprint(1), 1.0, b"keep me");
            tier.append(Fingerprint(2), 1.0, b"lose my tail");
            tier.path().to_path_buf()
        };
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap(); // rip bytes off the last record
        drop(f);
        let tier = DiskTier::open(&dir).unwrap();
        assert_eq!(tier.len(), 1, "only the intact record survives");
        assert!(tier.get(&Fingerprint(1)).is_some());
        assert!(tier.get(&Fingerprint(2)).is_none());
        // The file was truncated to the good boundary: appends work.
        tier.append(Fingerprint(3), 1.0, b"fresh");
        drop(tier);
        let tier = DiskTier::open(&dir).unwrap();
        assert_eq!(tier.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Canonical job bytes: a tag in 1..=5, then that variant's
    /// parameter words over their whole domain (float bit patterns
    /// included), with the `Spectrum` flag word reduced to 0 or 1.
    fn canonical_job_bytes(tag: u64, mut words: Vec<u64>) -> Vec<u8> {
        let arity = [3, 4, 2, 4, 6][tag as usize - 1];
        if tag == 3 {
            words[1] &= 1;
        }
        let mut enc = Enc::new();
        enc.u64(tag);
        words[..arity].iter().for_each(|&w| enc.u64(w));
        enc.into_bytes()
    }

    fn decode_job(bytes: &[u8]) -> Option<DftJob> {
        let mut dec = Dec::new(bytes);
        let job = DftJob::decode(&mut dec)?;
        assert_eq!(dec.remaining(), 0, "decode consumed everything");
        Some(job)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The job encoding is canonical and is what the fingerprint
        /// hashes. Re-encoding a decoded job reproduces its bytes, so
        /// `decode(encode(j))` is `j` bit for bit (which `PartialEq`
        /// cannot state for a NaN), and a word outside its domain
        /// decodes to nothing.
        #[test]
        fn job_encoding_is_canonical_and_is_what_the_fingerprint_hashes(
            tag in 1u64..6,
            words in prop::collection::vec(any::<u64>(), 6),
        ) {
            let bytes = canonical_job_bytes(tag, words);
            let job = decode_job(&bytes).expect("canonical bytes decode");
            let mut enc = Enc::new();
            job.encode(&mut enc);
            prop_assert_eq!(&enc.into_bytes(), &bytes);
            prop_assert_eq!(job.fingerprint(), digest(&bytes));

            let mut bad_tag = bytes.clone();
            bad_tag[..8].copy_from_slice(&6u64.to_le_bytes());
            prop_assert!(decode_job(&bad_tag).is_none());
            if tag == 3 {
                let mut bad_flag = bytes.clone();
                bad_flag[16..].copy_from_slice(&2u64.to_le_bytes());
                prop_assert!(decode_job(&bad_flag).is_none());
            }
        }
    }

    fn encode(value: &dyn Fn(&mut Enc)) -> Vec<u8> {
        let mut enc = Enc::new();
        value(&mut enc);
        enc.into_bytes()
    }

    #[test]
    fn malformed_outcome_is_corruption_on_open() {
        // A record whose checksum holds but whose outcome does not
        // decode is malformed: opening the cache truncates the log
        // there, so the record is never served, while the one before it
        // is. Two such outcomes: a policy tag past `PlacementPolicy::all`
        // and a job whose task graph cannot be built (Si_7 is no whole
        // number of cells), which leaves nothing to re-plan.
        let md = |seed| DftJob::MdSegment {
            atoms: 8,
            steps: 2,
            temperature_k: 300.0,
            seed,
        };
        let (good, bad) = (outcome_for(md(1)), outcome_for(md(2)));
        let policy_at = encode(&|enc| {
            bad.job.encode(enc);
            bad.payload.encode(enc);
        })
        .len();
        let mut bad_policy = encode(&|enc| bad.encode(enc));
        assert_eq!(bad_policy[policy_at], 0, "stored under CostAware");
        bad_policy[policy_at] = PlacementPolicy::all().len() as u8;
        let no_graph = DftJob::GroundState {
            atoms: 7,
            bands: 4,
            max_iterations: 4,
        };
        assert!(no_graph.task_graph().is_err());
        let bad_graph = encode(&|enc| {
            no_graph.encode(enc);
            bad.payload.encode(enc);
            enc.u8(0);
            enc.u64(0);
            enc.u32(0);
        });
        for (tag, fingerprint, bytes) in [
            ("policy", bad.fingerprint, bad_policy),
            ("graph", no_graph.fingerprint(), bad_graph),
        ] {
            let dir = tmp_dir(tag);
            let (path, kept) = {
                let tier = DiskTier::open(&dir).unwrap();
                tier.append(good.fingerprint, 1.0, &encode(&|enc| good.encode(enc)));
                let kept = tier.bytes_persisted();
                tier.append(fingerprint, 1.0, &bytes);
                (tier.path().to_path_buf(), kept)
            };
            let cache = crate::ResultCache::<Arc<JobOutcome>>::with_disk(
                4,
                crate::CachePolicy::CostWeighted,
                &dir,
            )
            .unwrap();
            assert!(cache.get(&fingerprint).is_none(), "{tag}");
            assert_eq!(cache.get(&good.fingerprint).as_deref(), Some(&good));
            assert_eq!(std::fs::metadata(&path).unwrap().len(), kept, "{tag}");
            assert_eq!(cache.stats().disk_len, 1);
            drop(cache);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn orbitals_off_the_half_sphere_are_never_served() {
        // A ground state whose orbital matrix is not `bands` rows of its
        // system's half-sphere does not decode: grid orbitals, as an
        // `NDFTWAL5` record held them, and a band too many or too few. A
        // log holding such a record keeps the one before it and never
        // serves it.
        let ground = outcome_for(DftJob::GroundState {
            atoms: 8,
            bands: 2,
            max_iterations: 2,
        });
        let sc = outcome_for(DftJob::ScfSelfConsistent {
            atoms: 8,
            bands: 2,
            max_iterations: 2,
            occupied: 2,
            cycles: 1,
            alpha: 0.5,
        });
        fn ground_state(out: &mut JobOutcome) -> &mut GroundState {
            match &mut out.payload {
                JobPayload::GroundState(gs) => gs,
                JobPayload::SelfConsistent(sc) => &mut sc.ground_state,
                _ => unreachable!("a ground-state payload"),
            }
        }
        let system = ground.job.system().unwrap();
        let mut bad = Vec::new();
        for out in [&ground, &sc] {
            let mut out = out.clone();
            let gs = ground_state(&mut out);
            assert_eq!((gs.orbitals.rows(), gs.orbitals.cols()), (2, 258));
            let bytes = encode(&|enc| out.encode(enc));
            let back = JobOutcome::decode(&mut Dec::new(&bytes));
            assert_eq!(back.as_ref(), Some(&out));
            for rows in [1, 2, 3] {
                let mut off = out.clone();
                let gs = ground_state(&mut off);
                gs.orbitals = if rows == 2 {
                    gs.real_space_orbitals(&system)
                } else {
                    let data = gs.orbitals.as_slice().iter().copied().cycle();
                    CMat::from_vec(rows, 258, data.take(rows * 258).collect())
                };
                bad.push(off);
            }
        }
        for (case, out) in bad.iter().enumerate() {
            let bytes = encode(&|enc| out.encode(enc));
            assert!(
                JobOutcome::decode(&mut Dec::new(&bytes)).is_none(),
                "case {case}"
            );
            let dir = tmp_dir(&format!("off-sphere-{case}"));
            {
                let tier = DiskTier::open(&dir).unwrap();
                tier.append(ground.fingerprint, 1.0, &encode(&|enc| ground.encode(enc)));
                tier.append(out.fingerprint, 1.0, &bytes);
            }
            let cache = crate::ResultCache::<Arc<JobOutcome>>::with_disk(
                4,
                crate::CachePolicy::CostWeighted,
                &dir,
            )
            .unwrap();
            // A reshaped `GroundState` shares the good record's
            // fingerprint, and that record still answers for it.
            let served = (out.fingerprint == ground.fingerprint).then_some(&ground);
            assert_eq!(
                cache.get(&out.fingerprint).as_deref(),
                served,
                "case {case}"
            );
            assert_eq!(
                cache.get(&ground.fingerprint).as_deref(),
                Some(&ground),
                "case {case}"
            );
            assert_eq!(cache.stats().disk_len, 1, "case {case}");
            drop(cache);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_disk_hit_reports_the_idle_solo_plan_of_its_policy() {
        // Stored from a fused batch of four under load and a
        // non-default policy, an outcome comes back off the disk with
        // its result intact and the plan re-made on an idle cluster
        // for one member under that policy, at the cost it was stored
        // with.
        let dir = tmp_dir("replan");
        let job = DftJob::MdSegment {
            atoms: 64,
            steps: 3,
            temperature_k: 300.0,
            seed: 11,
        };
        let graph = job.task_graph().unwrap();
        let policy = PlacementPolicy::Greedy;
        let busy = ClusterSnapshot {
            cpu_reserved_s: 0.5,
            ndp_reserved_s: 2.0,
            shard_inflight: vec![1],
        };
        let (placement, modeled, _) = plan_batch(&graph, policy, &busy, 4);
        let (payload, wall_numeric) = execute_payload(&job).unwrap();
        let stored = JobOutcome {
            fingerprint: job.fingerprint(),
            job,
            payload,
            placement,
            modeled,
            wall_numeric,
        };
        let cost = stored.placement.modeled_cost_s(stored.modeled.iterations);
        let open = || {
            crate::ResultCache::<Arc<JobOutcome>>::with_disk(
                4,
                crate::CachePolicy::CostWeighted,
                &dir,
            )
            .unwrap()
        };
        open().store(stored.fingerprint, Arc::new(stored.clone()), cost);
        let cache = open();
        let hit = cache.get(&stored.fingerprint).expect("served from disk");
        assert_eq!(cache.stats().disk_hits, 1);
        assert_eq!(hit.job, stored.job);
        assert_eq!(hit.fingerprint, stored.fingerprint);
        assert_eq!(hit.payload, stored.payload);
        assert_eq!(hit.wall_numeric, stored.wall_numeric);
        let (idle, idle_modeled, _) = plan_batch(&graph, policy, &ClusterSnapshot::idle(), 1);
        assert_ne!(stored.placement, idle, "the stored plan saw load");
        assert_eq!(hit.placement, idle);
        assert_eq!(hit.modeled, idle_modeled);
        crate::placement::assert_one_plan(&hit.placement, &hit.modeled);
        assert_eq!(cache.stats().cost_retained_s, cost);
        drop(cache);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn previous_wal_version_is_reset() {
        // NDFTWAL3 is the previous codec; NDFTWAL4 is this codec, but its
        // ground states were solved on the full grid, not the sphere;
        // NDFTWAL5 holds the sphere's answer as grid orbitals.
        for old in [b"NDFTWAL3", b"NDFTWAL4", b"NDFTWAL5"] {
            let dir = tmp_dir(std::str::from_utf8(old).unwrap());
            let path = {
                let tier = DiskTier::open(&dir).unwrap();
                tier.append(Fingerprint(5), 1.0, b"an older outcome");
                tier.path().to_path_buf()
            };
            // The record stays well-formed; only the version says its
            // payload is an older answer, so it must never be served.
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[..HEADER.len()].copy_from_slice(old);
            std::fs::write(&path, bytes).unwrap();
            let tier = DiskTier::open(&dir).unwrap();
            assert_eq!(
                (tier.len(), tier.bytes_persisted()),
                (0, HEADER.len() as u64)
            );
            assert!(tier.get(&Fingerprint(5)).is_none());
            tier.append(Fingerprint(6), 1.0, b"usable again");
            drop(tier);
            let tier = DiskTier::open(&dir).unwrap();
            assert_eq!(tier.len(), 1);
            assert!(tier.get(&Fingerprint(5)).is_none());
            assert_eq!(tier.get(&Fingerprint(6)).unwrap().0, b"usable again");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn foreign_file_is_reset_not_fatal() {
        let dir = tmp_dir("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(WAL_FILE), b"definitely not a WAL").unwrap();
        let tier = DiskTier::open(&dir).unwrap();
        assert_eq!(tier.len(), 0);
        tier.append(Fingerprint(4), 1.0, b"usable again");
        drop(tier);
        assert_eq!(DiskTier::open(&dir).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
