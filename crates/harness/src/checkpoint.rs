//! The checkpoint journal: what makes campaigns resumable with
//! byte-identical final reports (`DESIGN.md` §9).
//!
//! [`crate::Campaign::run_journaled`] runs the work-stealing campaign
//! while each worker periodically appends its (file, shard) progress —
//! the emission-index high-water mark plus the candidate [`Finding`]s
//! and counters accrued since the last checkpoint — as a checksummed,
//! fsync'd record frame in an [`spe_persist::Journal`]. The journal's
//! manifest pins the corpus, the configuration, the decomposition and
//! the oracle's backend identity, so [`crate::Campaign::resume`] needs
//! only the path: it rebuilds the per-job state by **streaming** the
//! valid prefix through [`spe_persist::JournalIter`] (a torn tail frame
//! from the crash is detected and dropped; memory is bounded by the live
//! per-job state, not the journal size), re-deals only unfinished jobs,
//! and **re-seeds each shard at its recorded high-water mark** through
//! [`spe_core::ShardedEnumerator::enumerate_shard_resumed_prepared`] —
//! the exact-unranking `skip_to` machinery, so no variant before the
//! mark is ever re-enumerated. [`crate::Campaign::reduce`] extends the
//! same journal through the post-campaign reduction stage, one witness
//! per finding, so a resumed pipeline re-reduces only what was lost.
//!
//! This module holds the record schema, the replay that folds a
//! journal into live state, [`compact_journal`] — which folds a long
//! journal's superseded `Progress` frames into one frame per job via a
//! crash-safe write-new → fsync → atomic-rename rewrite
//! ([`spe_persist::journal::promote`]; `DESIGN.md` §11) — and the
//! [`run_campaign_checkpointed`], [`resume_campaign`] and
//! [`reduce_findings_checkpointed`] shorthands.
//!
//! **Resume determinism.** Enumeration order is globally fixed
//! (file-major, emission-index order), every per-variant computation is
//! a pure function of `(file, variant, config)`, and a `Progress` record
//! commits a high-water mark *together with* exactly the candidates of
//! the variants it covers — one atomic frame. Replayed prefix +
//! recomputed suffix therefore reproduces precisely the uninterrupted
//! per-job outputs, and the deterministic (file, shard)-ordered merge
//! does the rest: the final report is byte-identical to a
//! never-interrupted run, at any worker count, no matter where (or how
//! often) the campaign was killed. `DESIGN.md` §9 spells the argument
//! out.

use crate::reduction::{ReducedWitness, ReductionOptions, Slot};
use crate::{Campaign, CampaignConfig, CampaignReport, Finding, FindingKind, ShardOutput};
use spe_core::Algorithm;
use spe_corpus::TestFile;
use spe_persist::{DecodeError, Decoder, Encoder, Journal, JournalError, JournalIter};
use spe_simcc::backend::CompilerBackend;
use spe_simcc::{bugs, Compiler, CompilerId};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::OnceLock;

/// Errors of checkpointed runs and resumes.
#[derive(Debug)]
pub enum CheckpointError {
    /// The journal could not be created, appended, or read.
    Journal(JournalError),
    /// A record or the manifest failed to decode (foreign or damaged
    /// journal whose frames are nonetheless checksum-valid).
    Decode(DecodeError),
    /// The journal is internally consistent but names entities this
    /// build does not know (compiler family, bug id, algorithm tag) or
    /// violates the campaign schema (job index out of range).
    Foreign(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Journal(e) => write!(f, "{e}"),
            CheckpointError::Decode(e) => write!(f, "journal record: {e}"),
            CheckpointError::Foreign(what) => write!(f, "foreign journal: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<JournalError> for CheckpointError {
    fn from(e: JournalError) -> CheckpointError {
        CheckpointError::Journal(e)
    }
}

impl From<DecodeError> for CheckpointError {
    fn from(e: DecodeError) -> CheckpointError {
        CheckpointError::Decode(e)
    }
}

/// Options of a checkpointed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointOptions {
    /// Variants a worker processes on one shard between `Progress`
    /// records. Smaller = less recomputation after a crash, more fsync
    /// traffic; `DESIGN.md` §9 discusses the cadence trade-off. (A
    /// wall-clock cadence bound rides alongside this count in
    /// [`crate::FaultPolicy::checkpoint_interval`].)
    pub every: u64,
    /// Simulated preemption for tests and demos: once this many variants
    /// have been processed across all workers *in this run*, workers
    /// abort without flushing their in-memory tail — exactly what a
    /// `SIGKILL` between checkpoints leaves behind. `None` runs to
    /// completion.
    pub stop_after: Option<u64>,
}

impl Default for CheckpointOptions {
    fn default() -> Self {
        CheckpointOptions {
            every: 512,
            stop_after: None,
        }
    }
}

/// How a journaled run ended: a finished report or an interruption
/// whose state lives in the journal.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignStatus {
    /// The campaign ran to completion; the report is byte-identical to
    /// the equivalent uninterrupted in-memory [`crate::Campaign::run`].
    Complete(CampaignReport),
    /// [`CheckpointOptions::stop_after`] fired mid-campaign. Resume from
    /// the journal with [`crate::Campaign::resume`].
    Interrupted,
}

impl CampaignStatus {
    /// The completed report, `None` when interrupted.
    pub fn into_report(self) -> Option<CampaignReport> {
        match self {
            CampaignStatus::Complete(r) => Some(r),
            CampaignStatus::Interrupted => None,
        }
    }

    /// Whether the run was cut short.
    pub fn is_interrupted(&self) -> bool {
        matches!(self, CampaignStatus::Interrupted)
    }
}

// ---------------------------------------------------------------------
// Record schema (payloads inside `spe-persist` frames; DESIGN.md §9).
// ---------------------------------------------------------------------

const REC_PROGRESS: u8 = 1;
const REC_JOB_DONE: u8 = 2;
const REC_CAMPAIGN_DONE: u8 = 3;
const REC_REDUCED: u8 = 4;
const REC_REDUCTION_OPTIONS: u8 = 5;

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Paper,
    Algorithm::Canonical,
    Algorithm::Orbit,
    Algorithm::Naive,
];

fn algorithm_tag(a: Algorithm) -> u8 {
    ALGORITHMS.iter().position(|&x| x == a).expect("known") as u8
}

/// Re-interns a journal bug id: against the seeded-defect registry when
/// it names a known defect (the in-memory type is `&'static str`),
/// otherwise through the process-wide interner — external backends
/// record triage classes (crash-signature lines, signal names) as bug
/// ids, which no registry can enumerate up front.
fn intern_bug_id(id: &str) -> Result<&'static str, CheckpointError> {
    static IDS: OnceLock<Vec<&'static str>> = OnceLock::new();
    Ok(IDS
        .get_or_init(|| bugs::registry().iter().map(|b| b.id).collect())
        .iter()
        .copied()
        .find(|&known| known == id)
        .unwrap_or_else(|| spe_simcc::backend::intern(id)))
}

/// As [`intern_bug_id`]: the built-in simulator families keep their
/// canonical statics, external families go through the interner.
fn intern_family(family: &str, version: u32) -> Result<CompilerId, CheckpointError> {
    match family {
        "gcc-sim" => Ok(CompilerId::gcc(version)),
        "clang-sim" => Ok(CompilerId::clang(version)),
        other => Ok(CompilerId {
            family: spe_simcc::backend::intern(other),
            version,
        }),
    }
}

fn encode_finding(enc: &mut Encoder, f: &Finding) {
    enc.u8(match f.kind {
        FindingKind::Crash => 0,
        FindingKind::WrongCode => 1,
        FindingKind::Performance => 2,
        FindingKind::BackendDegraded => 3,
        FindingKind::JobPanicked => 4,
    });
    enc.str(f.compiler.family).u32(f.compiler.version).u8(f.opt);
    enc.str(&f.signature).opt_str(f.bug_id);
    enc.str(&f.file).str(&f.reproducer);
}

/// Decodes an optimization level, refusing one [`Compiler::new`] would
/// reject: a journal's bytes are untrusted.
fn decode_opt(dec: &mut Decoder) -> Result<u8, CheckpointError> {
    match dec.u8()? {
        opt @ 0..=3 => Ok(opt),
        opt => Err(CheckpointError::Foreign(format!(
            "optimization level -O{opt} (levels are 0..=3)"
        ))),
    }
}

fn decode_finding(dec: &mut Decoder) -> Result<Finding, CheckpointError> {
    let kind = match dec.u8()? {
        0 => FindingKind::Crash,
        1 => FindingKind::WrongCode,
        2 => FindingKind::Performance,
        3 => FindingKind::BackendDegraded,
        4 => FindingKind::JobPanicked,
        _ => return Err(CheckpointError::Foreign("finding kind tag".into())),
    };
    let family = dec.str()?;
    let compiler = intern_family(&family, dec.u32()?)?;
    let opt = decode_opt(dec)?;
    let signature = dec.str()?;
    let bug_id = match dec.opt_str()? {
        Some(id) => Some(intern_bug_id(&id)?),
        None => None,
    };
    // Candidates are checkpointed pre-merge: dedup links and reduced
    // witnesses are recomputed deterministically downstream.
    Ok(Finding::new(
        kind,
        compiler,
        opt,
        signature,
        bug_id,
        dec.str()?,
        dec.str()?,
    ))
}

/// One `Progress` frame: the job's new high-water mark plus exactly the
/// output delta of the variants it covers, in one atomic payload.
pub(crate) fn encode_progress(job: usize, emitted: u64, delta: &ShardOutput) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.u8(REC_PROGRESS)
        .u32(job as u32)
        .u64(emitted)
        .bool(delta.file_processed)
        .u64(delta.variants_tested)
        .u64(delta.variants_ub_skipped)
        .usize(delta.candidates.len());
    for f in &delta.candidates {
        encode_finding(&mut enc, f);
    }
    enc.finish()
}

/// One `JobDone` frame.
pub(crate) fn encode_job_done(job: usize) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.u8(REC_JOB_DONE).u32(job as u32);
    enc.finish()
}

/// One `CampaignDone` frame.
pub(crate) fn encode_campaign_done() -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.u8(REC_CAMPAIGN_DONE);
    enc.finish()
}

/// Flat encoding of the full [`ReductionOptions`], pinned in the journal
/// before the first `Reduced` record: witnesses depend on the oracle
/// fuel and the reducer limits, so a resumed pass must run under the
/// options that produced the replayed witnesses or the mixed result
/// would match *no* uninterrupted run.
fn encode_reduction_options(options: &ReductionOptions) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.u8(REC_REDUCTION_OPTIONS)
        .u64(options.fuel)
        .usize(options.reduce.max_oracle_calls)
        .usize(options.reduce.max_rounds)
        .bool(options.reduce.canonicalize);
    enc.finish()
}

/// One `Reduced` frame: the finding's index and signature plus its
/// witness (`None` when the finding proved irreducible).
pub(crate) fn encode_reduced(
    finding: usize,
    signature: &str,
    witness: &Option<ReducedWitness>,
) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.u8(REC_REDUCED).u32(finding as u32).str(signature);
    match witness {
        Some(w) => {
            enc.bool(true);
            encode_witness(&mut enc, w);
        }
        None => {
            enc.bool(false);
        }
    }
    enc.finish()
}

fn encode_witness(enc: &mut Encoder, w: &ReducedWitness) {
    enc.str(&w.source)
        .str(&w.fingerprint)
        .str(&w.trigger)
        .usize(w.original_bytes)
        .usize(w.reduced_bytes)
        .usize(w.oracle_calls);
}

fn decode_witness(dec: &mut Decoder) -> Result<ReducedWitness, CheckpointError> {
    Ok(ReducedWitness {
        source: dec.str()?,
        fingerprint: dec.str()?,
        trigger: dec.str()?,
        original_bytes: dec.usize()?,
        reduced_bytes: dec.usize()?,
        oracle_calls: dec.usize()?,
    })
}

/// Fleet provenance pinned by a multi-host journal's manifest
/// (`DESIGN.md` §14): which fleet campaign the journal belongs to, how
/// many hosts the (file × shard) job space was dealt across, and which
/// of those slices this journal's host owns. `None` on single-host
/// journals; [`crate::fleet::merge_journals`] refuses to fold journals
/// whose stamps disagree on anything but `host_id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FleetStamp {
    /// Caller-chosen campaign identity shared by every host journal.
    pub(crate) fleet_id: u64,
    /// Hosts the job space was dealt across (fixes every slice).
    pub(crate) n_hosts: u32,
    /// This journal's slice: `even_ranges(jobs, n_hosts)[host_id]`.
    pub(crate) host_id: u32,
}

/// The journal header: everything needed to resume with **no inputs
/// besides the journal path and the oracle backend** — the full corpus,
/// the campaign configuration, the job decomposition, and the identity
/// (id + configuration hash) of the backend that produced the recorded
/// observations. Resume compares that identity against the backend it
/// is handed and **refuses a mismatch**: replayed frames mixed with a
/// different oracle's recomputed suffix would match *no* uninterrupted
/// run.
pub(crate) struct Manifest {
    pub(crate) config: CampaignConfig,
    pub(crate) shards_per_file: usize,
    pub(crate) files: Vec<TestFile>,
    /// [`spe_simcc::backend::CompilerBackend::id`] of the recording oracle.
    pub(crate) backend_id: String,
    /// [`spe_simcc::backend::CompilerBackend::config_hash`] of the same.
    pub(crate) backend_hash: u64,
    /// Fleet provenance trailer; `None` on single-host journals.
    pub(crate) fleet: Option<FleetStamp>,
}

impl Manifest {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.usize(self.config.compilers.len());
        for cc in &self.config.compilers {
            enc.str(cc.id().family).u32(cc.id().version).u8(cc.opt());
        }
        enc.usize(self.config.budget)
            .u8(algorithm_tag(self.config.algorithm))
            .bool(self.config.check_wrong_code)
            .u64(self.config.fuel)
            .str(&self.backend_id)
            .u64(self.backend_hash)
            .usize(self.shards_per_file)
            .usize(self.files.len());
        for f in &self.files {
            enc.str(&f.name).str(&f.source);
        }
        // Fleet trailer, after every historical field: single-host
        // journals written before the fleet layer decode unchanged
        // (`decode` only reads the trailer when bytes remain).
        match &self.fleet {
            Some(s) => {
                enc.bool(true).u64(s.fleet_id).u32(s.n_hosts).u32(s.host_id);
            }
            None => {
                enc.bool(false);
            }
        }
        enc.finish()
    }

    pub(crate) fn decode(bytes: &[u8]) -> Result<Manifest, CheckpointError> {
        let mut dec = Decoder::new(bytes);
        let mut compilers = Vec::new();
        for _ in 0..dec.usize()? {
            let family = dec.str()?;
            let id = intern_family(&family, dec.u32()?)?;
            compilers.push(Compiler::new(id, decode_opt(&mut dec)?));
        }
        let budget = dec.usize()?;
        let algorithm = *ALGORITHMS
            .get(dec.u8()? as usize)
            .ok_or_else(|| CheckpointError::Foreign("algorithm tag".into()))?;
        let check_wrong_code = dec.bool()?;
        let fuel = dec.u64()?;
        let backend_id = dec.str()?;
        let backend_hash = dec.u64()?;
        let shards_per_file = dec.usize()?;
        let mut files = Vec::new();
        for _ in 0..dec.usize()? {
            files.push(TestFile {
                name: dec.str()?,
                source: dec.str()?,
            });
        }
        // Pre-fleet journals end here; the trailer is decoded only when
        // bytes remain, so both generations replay under one schema.
        let fleet = if dec.is_empty() {
            None
        } else if dec.bool()? {
            let stamp = FleetStamp {
                fleet_id: dec.u64()?,
                n_hosts: dec.u32()?,
                host_id: dec.u32()?,
            };
            if stamp.n_hosts == 0 || stamp.host_id >= stamp.n_hosts {
                return Err(CheckpointError::Foreign(format!(
                    "fleet stamp names host {} of {} hosts",
                    stamp.host_id, stamp.n_hosts
                )));
            }
            Some(stamp)
        } else {
            None
        };
        dec.expect_empty()?;
        Ok(Manifest {
            config: CampaignConfig {
                compilers,
                budget,
                algorithm,
                check_wrong_code,
                fuel,
            },
            shards_per_file,
            files,
            backend_id,
            backend_hash,
            fleet,
        })
    }

    /// Fails with a clear [`CheckpointError::Foreign`] when the journal
    /// was written under a different backend id or configuration hash
    /// than `backend` — the "refuse, don't silently diverge" gate of
    /// every resume path (campaign and reduction).
    pub(crate) fn check_backend(
        &self,
        backend: &dyn CompilerBackend,
    ) -> Result<(), CheckpointError> {
        let (id, hash) = (backend.id(), backend.config_hash());
        if self.backend_id != id {
            return Err(CheckpointError::Foreign(format!(
                "journal was recorded under backend {:?}, resume was handed {:?}; \
                 resume with a Campaign whose oracle is the matching backend \
                 (Oracle::Backend)",
                self.backend_id, id
            )));
        }
        if self.backend_hash != hash {
            return Err(CheckpointError::Foreign(format!(
                "journal was recorded under backend {:?} with config hash {:#018x}, \
                 the handed backend hashes {:#018x}; its configuration differs",
                self.backend_id, self.backend_hash, hash
            )));
        }
        Ok(())
    }
}

/// Replayed per-(file, shard) state: the committed high-water mark and
/// the accumulated partial output.
#[derive(Debug, Default)]
pub(crate) struct JobState {
    /// Variants of this shard already covered by committed checkpoints.
    pub(crate) emitted: u64,
    /// Accumulated output of those variants, in emission order.
    pub(crate) partial: ShardOutput,
    /// Whether the job finished in an earlier run.
    pub(crate) done: bool,
}

impl JobState {
    /// Whether this job carries no replayed state at all — nothing a
    /// compaction `Progress` frame would need to preserve.
    pub(crate) fn is_empty(&self) -> bool {
        self.emitted == 0
            && !self.done
            && !self.partial.file_processed
            && self.partial.variants_tested == 0
            && self.partial.variants_ub_skipped == 0
            && self.partial.candidates.is_empty()
    }
}

/// Incremental journal replay: the manifest plus the live state folded
/// from records **one frame at a time** — superseded `Progress` deltas
/// are absorbed as they stream past, so replay memory is bounded by the
/// per-job live state (high-water marks, partial outputs), never by the
/// journal's frame count.
pub(crate) struct Replay {
    pub(crate) manifest: Manifest,
    pub(crate) jobs: Vec<JobState>,
    pub(crate) campaign_done: bool,
    /// Record frames folded so far.
    pub(crate) frames: u64,
    /// Per-finding reduction results recorded so far, keyed by finding
    /// index and carrying the finding's signature (verified on replay so
    /// a witness can never attach to a different campaign's finding);
    /// the witness is `None` when the finding proved irreducible.
    reduced: HashMap<u32, (String, Option<ReducedWitness>)>,
    /// The options the recorded reduction pass ran under (`None` until a
    /// reduction stage wrote to this journal); a resumed pass must match.
    reduction_options: Option<ReductionOptions>,
}

impl Replay {
    pub(crate) fn new(header: &[u8]) -> Result<Replay, CheckpointError> {
        let manifest = Manifest::decode(header)?;
        let job_count = manifest.files.len() * manifest.shards_per_file;
        Ok(Replay {
            manifest,
            jobs: (0..job_count).map(|_| JobState::default()).collect(),
            campaign_done: false,
            frames: 0,
            reduced: HashMap::new(),
            reduction_options: None,
        })
    }

    /// Opens the journal at `path` under its writer lock and streams its
    /// valid prefix into live state (a torn tail is left for the
    /// returned iterator's appender to truncate).
    pub(crate) fn open(path: &Path) -> Result<(Replay, JournalIter), CheckpointError> {
        let mut iter = JournalIter::open_locked(path)?;
        let mut replay = Replay::new(iter.header())?;
        for rec in &mut iter {
            replay.apply(&rec?)?;
        }
        Ok((replay, iter))
    }

    /// Folds one record frame into the live state.
    pub(crate) fn apply(&mut self, rec: &[u8]) -> Result<(), CheckpointError> {
        self.frames += 1;
        let job_count = self.jobs.len();
        let mut dec = Decoder::new(rec);
        match dec.u8()? {
            REC_PROGRESS => {
                let job = dec.u32()? as usize;
                let state = self.jobs.get_mut(job).ok_or_else(|| {
                    CheckpointError::Foreign(format!("job {job} out of {job_count}"))
                })?;
                state.emitted = dec.u64()?;
                let mut delta = ShardOutput {
                    file_processed: dec.bool()?,
                    variants_tested: dec.u64()?,
                    variants_ub_skipped: dec.u64()?,
                    ..ShardOutput::default()
                };
                for _ in 0..dec.usize()? {
                    delta.candidates.push(decode_finding(&mut dec)?);
                }
                dec.expect_empty()?;
                state.partial.absorb(delta);
            }
            REC_JOB_DONE => {
                let job = dec.u32()? as usize;
                self.jobs
                    .get_mut(job)
                    .ok_or_else(|| {
                        CheckpointError::Foreign(format!("job {job} out of {job_count}"))
                    })?
                    .done = true;
                dec.expect_empty()?;
            }
            REC_CAMPAIGN_DONE => {
                self.campaign_done = true;
                dec.expect_empty()?;
            }
            REC_REDUCED => {
                let finding = dec.u32()?;
                let signature = dec.str()?;
                let witness = if dec.bool()? {
                    Some(decode_witness(&mut dec)?)
                } else {
                    None
                };
                dec.expect_empty()?;
                self.reduced.insert(finding, (signature, witness));
            }
            REC_REDUCTION_OPTIONS => {
                let options = ReductionOptions {
                    fuel: dec.u64()?,
                    reduce: spe_reduce::ReduceConfig {
                        max_oracle_calls: dec.usize()?,
                        max_rounds: dec.usize()?,
                        canonicalize: dec.bool()?,
                    },
                };
                dec.expect_empty()?;
                self.reduction_options = Some(options);
            }
            _ => return Err(CheckpointError::Foreign("record tag".into())),
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Shorthands over `Campaign` (default oracle and fault policy).
// ---------------------------------------------------------------------

/// Runs a campaign on `workers` threads, checkpointing into a fresh
/// journal at `path` — shorthand for [`Campaign::run_journaled`] with
/// the incremental oracle, the default fault policy and no fleet slot.
/// Warnings of absorbed journal faults are dropped; use
/// [`Campaign::run_journaled`] to see them.
///
/// # Errors
///
/// As [`Campaign::run_journaled`].
pub fn run_campaign_checkpointed(
    files: &[TestFile],
    config: &CampaignConfig,
    workers: usize,
    path: impl AsRef<Path>,
    options: &CheckpointOptions,
) -> Result<CampaignStatus, CheckpointError> {
    Campaign {
        workers,
        ..Campaign::default()
    }
    .run_journaled(files, config, path, options, None)
    .map(|outcome| outcome.status)
}

/// Resumes the campaign whose journal lives at `path` on `workers`
/// threads — shorthand for [`Campaign::resume`] with the incremental
/// oracle and the default fault policy. Warnings of absorbed journal
/// faults are dropped; use [`Campaign::resume`] to see them.
///
/// # Errors
///
/// As [`Campaign::resume`]; a journal recorded under another backend
/// than the in-process simulator is refused.
pub fn resume_campaign(
    path: impl AsRef<Path>,
    workers: usize,
    options: &CheckpointOptions,
) -> Result<CampaignStatus, CheckpointError> {
    Campaign {
        workers,
        ..Campaign::default()
    }
    .resume(path, options)
    .map(|outcome| outcome.status)
}

// ---------------------------------------------------------------------
// Journal compaction.
// ---------------------------------------------------------------------

/// What [`compact_journal`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Record frames in the journal's valid prefix before compaction.
    pub frames_before: u64,
    /// Record frames after (one `Progress` per job with state, plus the
    /// done/reduction markers).
    pub frames_after: u64,
    /// Bytes of the valid prefix before compaction.
    pub bytes_before: u64,
    /// Bytes of the compacted journal.
    pub bytes_after: u64,
}

/// Compacts the journal at `path`: folds every superseded `Progress`
/// frame into **one frame per job** (plus the done markers and the
/// reduction records), so a journal that grew by one frame per
/// checkpoint cadence interval shrinks to the size of its live state.
/// Resuming from the compacted journal is **byte-identical** to
/// resuming from the original — replay of either produces the same
/// per-job high-water marks and partial outputs.
///
/// Crash safety (`DESIGN.md` §11): the compacted journal is written to
/// a sibling `*.compact-tmp` file, fsync'd, and atomically renamed over
/// the original ([`spe_persist::journal::promote`]). A kill at *any*
/// point leaves either the untouched original (plus a stray tmp file
/// the next compaction overwrites) or the complete compacted journal —
/// never a mixture. The writer lock is held across scan, rewrite, and
/// rename, so no concurrent resume can append between them.
///
/// # Errors
///
/// Returns [`CheckpointError::Journal`] when the journal (or its tmp
/// sibling) cannot be read or written, [`CheckpointError::Decode`] /
/// [`CheckpointError::Foreign`] when its records do not decode — a
/// journal this build cannot replay must not be rewritten by it.
pub fn compact_journal(path: impl AsRef<Path>) -> Result<CompactStats, CheckpointError> {
    compact_inner(path.as_ref(), true)
}

/// [`compact_journal`] that stops **just before the atomic rename** —
/// the fault-injection suites use it as a deterministic
/// "killed during compaction" state: the original journal is intact and
/// still resumable, the completed tmp file is stray.
#[doc(hidden)]
pub fn compact_journal_abandoned(path: impl AsRef<Path>) -> Result<CompactStats, CheckpointError> {
    compact_inner(path.as_ref(), false)
}

fn compact_inner(path: &Path, promote: bool) -> Result<CompactStats, CheckpointError> {
    let telemetry = spe_telemetry::global();
    let timer = spe_telemetry::Timer::start(&*telemetry);
    let result = compact_scan_rewrite(path, promote);
    if telemetry.enabled() {
        let detail = match &result {
            Ok(s) => format!(
                "frames {}->{} bytes {}->{}",
                s.frames_before, s.frames_after, s.bytes_before, s.bytes_after
            ),
            Err(_) => "failed".to_owned(),
        };
        telemetry.span(
            spe_telemetry::names::JOURNAL_COMPACT,
            &detail,
            timer.stop_nanos(),
        );
    }
    result
}

fn compact_scan_rewrite(path: &Path, promote: bool) -> Result<CompactStats, CheckpointError> {
    let (replay, iter) = Replay::open(path)?;
    let bytes_before = iter.valid_len();
    let tmp = match path.file_name() {
        Some(name) => {
            let mut t = name.to_os_string();
            t.push(".compact-tmp");
            path.with_file_name(t)
        }
        None => {
            return Err(CheckpointError::Foreign(
                "journal path has no file name to derive the compaction tmp from".into(),
            ))
        }
    };
    // The header bytes are copied verbatim — compaction must never
    // re-encode the manifest, or a build with a drifted encoder could
    // silently rewrite what the campaign pinned.
    let mut out = Journal::create(&tmp, iter.header())?;
    let mut frames_after = 0u64;
    for (i, job) in replay.jobs.iter().enumerate() {
        if !job.is_empty() {
            out.append(&encode_progress(i, job.emitted, &job.partial))?;
            frames_after += 1;
        }
        if job.done {
            out.append(&encode_job_done(i))?;
            frames_after += 1;
        }
    }
    if replay.campaign_done {
        out.append(&encode_campaign_done())?;
        frames_after += 1;
    }
    if let Some(options) = &replay.reduction_options {
        out.append(&encode_reduction_options(options))?;
        frames_after += 1;
    }
    // Reduced records re-land in finding order (the HashMap dropped the
    // original append order; any order replays identically, a fixed one
    // keeps compaction deterministic).
    let mut reduced: Vec<_> = replay.reduced.iter().collect();
    reduced.sort_by_key(|&(&idx, _)| idx);
    for (&idx, (signature, witness)) in reduced {
        out.append(&encode_reduced(idx as usize, signature, witness))?;
        frames_after += 1;
    }
    drop(out); // every append was fsync'd; release the tmp writer lock
    let bytes_after = std::fs::metadata(&tmp)
        .map_err(|e| {
            CheckpointError::Journal(JournalError::Io {
                op: "stat",
                path: tmp.clone(),
                source: e,
            })
        })?
        .len();
    if promote {
        spe_persist::journal::promote(&tmp, path)?;
    }
    // `iter` still holds the original journal's writer lock; dropped
    // only now, after the rename (or abandonment) is complete.
    drop(iter);
    Ok(CompactStats {
        frames_before: replay.frames,
        frames_after,
        bytes_before,
        bytes_after,
    })
}

// ---------------------------------------------------------------------
// Checkpointed reduction stage.
// ---------------------------------------------------------------------

/// Reduces `report`'s findings on `workers` threads, checkpointing every
/// witness into the campaign's journal at `path` — shorthand for
/// [`Campaign::reduce`] with the incremental oracle. Warnings of
/// panicking reducers are dropped; use [`Campaign::reduce`] to see them.
///
/// # Errors
///
/// As [`Campaign::reduce`].
pub fn reduce_findings_checkpointed(
    report: &mut CampaignReport,
    options: &ReductionOptions,
    workers: usize,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    Campaign {
        workers,
        ..Campaign::default()
    }
    .reduce(report, options, Some(path.as_ref()))
    .map(drop)
}

/// Replays the reduction records of the journal at `path` into one slot
/// per finding of `report`, after checking that the journal was recorded
/// under `backend` and `options` and that every record belongs to this
/// report. When findings remain to be reduced, also returns the
/// journal's appender with `options` pinned in it.
pub(crate) fn replay_reduction(
    path: &Path,
    report: &CampaignReport,
    options: &ReductionOptions,
    backend: &dyn CompilerBackend,
) -> Result<(Vec<Slot>, Option<Journal>), CheckpointError> {
    let (replayed, iter) = Replay::open(path)?;
    replayed.manifest.check_backend(backend)?;
    // Replayed witnesses were computed under the recorded options; a
    // resumed pass under different options would attach a mixture that
    // matches *no* uninterrupted run — reject it, mirroring how the
    // campaign manifest pins the `CampaignConfig`.
    if let Some(recorded) = &replayed.reduction_options {
        if recorded != options {
            return Err(CheckpointError::Foreign(format!(
                "journal reduction ran under {recorded:?}, resume passed {options:?}"
            )));
        }
    }
    let findings = report.findings.len();
    // Replayed witnesses must belong to *this* report's findings: every
    // record's index and recorded signature are checked, so a journal
    // from a different campaign (or a differently filtered report) is
    // rejected instead of silently mis-attaching witnesses.
    let mut slots: Vec<Slot> = vec![None; findings];
    for (idx, (signature, witness)) in replayed.reduced {
        let finding = report.findings.get(idx as usize).ok_or_else(|| {
            CheckpointError::Foreign(format!("reduced finding {idx} out of {findings}"))
        })?;
        if finding.signature != signature {
            return Err(CheckpointError::Foreign(format!(
                "reduced record {idx} signed {signature:?}, report has {:?}",
                finding.signature
            )));
        }
        slots[idx as usize] = Some(witness);
    }
    if slots.iter().all(Option::is_some) {
        return Ok((slots, None));
    }
    // The scan's lock carries into the appender, as on resume.
    let mut journal = iter.into_appender()?;
    if replayed.reduction_options.is_none() {
        journal.append(&encode_reduction_options(options))?;
    }
    Ok((slots, Some(journal)))
}
