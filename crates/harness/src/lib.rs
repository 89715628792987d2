//! Differential compiler-testing campaigns driven by skeletal program
//! enumeration.
//!
//! This crate is the paper's §5 experimental machinery:
//!
//! * [`Campaign`] is the one way to run, journal, resume or reduce a
//!   campaign. It enumerates SPE variants of a corpus and feeds them to
//!   one or more [`Compiler`]s through an [`Oracle`], detecting **crash
//!   bugs** (internal compiler errors, deduplicated by signature as in
//!   Table 3), **wrong code** (differential mismatch between the
//!   UB-checked reference interpreter and the compiled VM image), and
//!   **performance bugs**. Every run goes through [`orchestrate`]'s one
//!   supervised worker pool — panic isolation, checkpoint cadence, and
//!   journal-fault degradation (`DESIGN.md` §11); a serial run is that
//!   pool at one worker;
//! * [`checkpoint`] is the journal schema that makes campaigns (and the
//!   [`reduction`] stage) resumable with final reports byte-identical to
//!   uninterrupted runs (`DESIGN.md` §9), plus journal compaction;
//! * [`fleet`] partitions one campaign across hosts and merges their
//!   journals (`DESIGN.md` §14);
//! * [`triage`] aggregates findings into the paper's Table 4 and
//!   Figure 10 shapes using the seeded-bug registry metadata;
//! * [`mutation`] implements the Orion-style statement-deletion baseline
//!   (PM-X in Figure 9);
//! * [`coverage_run`] measures pass/point coverage improvements of SPE
//!   and mutation variants over the baseline suite (Figure 9).
//!
//! [`run_campaign_parallel`], [`run_campaign_checkpointed`],
//! [`resume_campaign`] and [`checkpoint::reduce_findings_checkpointed`]
//! are one-expression shorthands over [`Campaign`] with the default
//! oracle and fault policy.
//!
//! The library never prints: faults it absorbs come back as
//! [`Outcome::warnings`] (or the warnings of [`Campaign::reduce`]) and
//! as telemetry events.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

use spe_core::{
    Algorithm, EnumeratorConfig, Granularity, NameId, ShardedEnumerator, Skeleton, Variant,
    VariantSpace,
};
use spe_corpus::TestFile;
use spe_simcc::backend::{intern, BackendError, CompilerBackend, SimccBackend};
use spe_simcc::incremental::{CacheStats, CachedOracle};
use spe_simcc::{Compiler, CompilerId, Observation};
use spe_telemetry::{names, Sink as TelemetrySink, Timer};
use std::collections::{HashMap, HashSet};

pub mod checkpoint;
pub mod coverage_run;
pub mod fleet;
pub mod mutation;
pub mod orchestrate;
pub mod reduction;
pub mod steal;
pub mod triage;

pub use checkpoint::{
    resume_campaign, run_campaign_checkpointed, CampaignStatus, CheckpointError, CheckpointOptions,
};
pub use fleet::{merge_journals, FleetError, FleetPlan, HostSummary, MergedFleet};
pub use orchestrate::{Campaign, FaultPolicy, Outcome};
pub use reduction::ReducedWitness;

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Compilers (with optimization levels) under test.
    pub compilers: Vec<Compiler>,
    /// Variants enumerated per file (the paper's 10K threshold, usually
    /// lowered for quick runs).
    pub budget: usize,
    /// Enumeration semantics.
    pub algorithm: Algorithm,
    /// Whether to run the differential wrong-code oracle (crash-only
    /// campaigns are much faster, mirroring §5.2.3).
    pub check_wrong_code: bool,
    /// Interpreter/VM fuel per execution.
    pub fuel: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            compilers: vec![
                Compiler::new(CompilerId::gcc(700), 0),
                Compiler::new(CompilerId::gcc(700), 3),
                Compiler::new(CompilerId::clang(390), 0),
                Compiler::new(CompilerId::clang(390), 3),
            ],
            budget: 64,
            algorithm: Algorithm::Paper,
            check_wrong_code: true,
            fuel: 50_000,
        }
    }
}

/// What kind of defect a finding reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// Internal compiler error.
    Crash,
    /// Differential mismatch on a UB-free input.
    WrongCode,
    /// Pathological compile time.
    Performance,
    /// The oracle backend itself persistently failed on a (file, shard)
    /// job — spawn failures, scratch I/O errors — and the job was
    /// quarantined instead of wedging the campaign. Not a compiler bug
    /// report: triage tables exclude it, and the reduction stage skips
    /// it (there is no program to shrink). Only backend-dispatched
    /// campaigns can produce it; the in-process oracle never fails.
    BackendDegraded,
    /// A worker **panicked** while processing the (file, shard) job —
    /// a poisoned variant tripping a bug in the enumeration or oracle
    /// machinery. The job is rolled back to its last fully-processed
    /// variant and quarantined with this durable marker (committed in
    /// the job's final journal frame, so a resume skips it instead of
    /// re-tripping the panic). Like [`FindingKind::BackendDegraded`],
    /// it is an infrastructure record, not a compiler bug report:
    /// triage tables exclude it and the reduction stage skips it.
    JobPanicked,
}

impl FindingKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            FindingKind::Crash => "crash",
            FindingKind::WrongCode => "wrong code",
            FindingKind::Performance => "performance",
            FindingKind::BackendDegraded => "backend degraded",
            FindingKind::JobPanicked => "job panicked",
        }
    }
}

/// One deduplicated bug report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Kind of defect.
    pub kind: FindingKind,
    /// Compiler that exhibited it.
    pub compiler: CompilerId,
    /// Optimization level of the failing configuration.
    pub opt: u8,
    /// Dedup key: the crash signature, or a synthesized wrong-code /
    /// performance symptom description.
    pub signature: String,
    /// Ground-truth seeded bug (available for crashes and triaged
    /// miscompiles; `None` when triage could not attribute it).
    pub bug_id: Option<&'static str>,
    /// Corpus file whose variant exposed the bug.
    pub file: String,
    /// A variant that reproduces it.
    pub reproducer: String,
    /// `Some(signature)` when the same underlying defect was already
    /// reported under another signature (the paper's "Duplicate" column).
    pub duplicate_of: Option<String>,
    /// The reduced witness and its structural fingerprint, filled by the
    /// post-campaign [`reduction`] stage (`None` until it runs, or when
    /// reduction could not reproduce the finding).
    pub reduced: Option<ReducedWitness>,
    /// `Some(signature)` when an earlier finding's reduced witness has
    /// the same structural fingerprint — the reduction stage's
    /// *ground-truth-free* duplicate detection, which needs no seeded
    /// bug ids (unlike [`Finding::duplicate_of`]'s registry-based pass).
    pub fingerprint_duplicate_of: Option<String>,
}

impl Finding {
    /// A candidate finding as emitted (or replayed from a journal):
    /// dedup links and the reduced witness are computed downstream.
    pub(crate) fn new(
        kind: FindingKind,
        compiler: CompilerId,
        opt: u8,
        signature: String,
        bug_id: Option<&'static str>,
        file: String,
        reproducer: String,
    ) -> Finding {
        Finding {
            kind,
            compiler,
            opt,
            signature,
            bug_id,
            file,
            reproducer,
            duplicate_of: None,
            reduced: None,
            fingerprint_duplicate_of: None,
        }
    }
}

/// Aggregate campaign results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignReport {
    /// All unique-signature reports (including duplicates of the same
    /// root cause, as in the paper's bookkeeping).
    pub findings: Vec<Finding>,
    /// Files processed (parsed + analyzed successfully).
    pub files_processed: usize,
    /// Total variants compiled.
    pub variants_tested: u64,
    /// Variants skipped by the UB oracle before output comparison.
    pub variants_ub_skipped: u64,
}

impl CampaignReport {
    /// Findings that are not duplicates.
    pub fn primary_findings(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.duplicate_of.is_none())
    }

    /// Number of duplicate reports.
    pub fn duplicates(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.duplicate_of.is_some())
            .count()
    }

    /// Findings for one compiler family.
    pub fn for_family<'a>(&'a self, family: &'a str) -> impl Iterator<Item = &'a Finding> {
        self.findings
            .iter()
            .filter(move |f| f.compiler.family == family)
    }
}

/// Raw results of one (file, shard) work item before the campaign-wide
/// deduplication: candidate findings in emission order plus counter
/// deltas.
#[derive(Debug, Default)]
struct ShardOutput {
    /// Whether the file parsed and analyzed (reported by shard 0 only).
    file_processed: bool,
    /// Candidate findings in variant/compiler emission order: the job's
    /// first per [`CandidateKey`], plus its quarantine record if any
    /// (`duplicate_of` is always `None` here).
    candidates: Vec<Finding>,
    variants_tested: u64,
    variants_ub_skipped: u64,
}

impl ShardOutput {
    /// Folds `later` onto `self`, preserving emission order (`later`'s
    /// candidates follow `self`'s). The one merge definition shared by
    /// every checkpoint site — commit-drain, journal replay, and the
    /// partial/continuation fold — so a new counter cannot be merged in
    /// some places and silently dropped in others.
    fn absorb(&mut self, later: ShardOutput) {
        self.file_processed |= later.file_processed;
        self.variants_tested += later.variants_tested;
        self.variants_ub_skipped += later.variants_ub_skipped;
        self.candidates.extend(later.candidates);
    }
}

/// How a campaign observes its variants. On the in-process simulator
/// both oracles produce byte-identical reports (pinned by
/// `tests/oracle_identity.rs` and `tests/backend_identity.rs` at every
/// worker count and across kill/resume histories); they differ in speed
/// and in what they can drive.
#[derive(Clone, Copy, Default)]
pub enum Oracle<'a> {
    /// The in-process simulator through a per-job splice cache
    /// ([`spe_simcc::incremental`]): each (file, shard) job clones the
    /// skeleton's program once and splices every variant's name bindings
    /// into it, with no parse, memoizing pass-pipeline results across
    /// configurations. The default, and an order of magnitude faster
    /// than the round trip on enumeration-heavy campaigns. Its journals
    /// record [`SimccBackend`]'s identity, so they resume under either
    /// oracle.
    #[default]
    Incremental,
    /// Any [`CompilerBackend`]: every rendered variant goes to
    /// [`CompilerBackend::observe_variant`]. `Oracle::Backend(&SimccBackend)`
    /// is the in-process round trip (render → parse → compile per
    /// variant), the reference the incremental oracle is checked
    /// against; a subprocess backend drives external compilers, and a
    /// job whose backend persistently fails is quarantined as a
    /// [`FindingKind::BackendDegraded`] finding.
    Backend(&'a dyn CompilerBackend),
}

impl<'a> Oracle<'a> {
    /// The backend whose identity (id and configuration hash) journals
    /// record, and that journaled resumes and reductions must match.
    pub(crate) fn backend(self) -> &'a dyn CompilerBackend {
        match self {
            Oracle::Incremental => &SimccBackend,
            Oracle::Backend(backend) => backend,
        }
    }

    /// This oracle bound to one (file, shard) job whose committed prefix
    /// (empty on a fresh job) is `replayed`. Created at the job's start
    /// and dropped at its end, so cached AST state can never cross a job
    /// boundary (work stealing, checkpoint/resume, and panic quarantine
    /// all see exactly the state the round trip would).
    pub(crate) fn job<'s>(self, sk: &'s Skeleton, replayed: &'s ShardOutput) -> JobOracle<'s>
    where
        'a: 's,
    {
        JobOracle {
            sk,
            route: match self {
                Oracle::Incremental => Route::Cache(None),
                Oracle::Backend(backend) => Route::Backend(backend),
            },
            // A resumed job keeps what its uninterrupted run would keep:
            // nothing its replayed prefix already holds.
            seen: replayed
                .candidates
                .iter()
                .filter_map(CandidateKey::of)
                .collect(),
            prev: Vec::new(),
            changed: Vec::new(),
            spellings: Vec::new(),
            last_stats: CacheStats::default(),
        }
    }
}

/// What a candidate finding is deduplicated on within its job. Equal keys
/// mean an equal `(compiler family, signature)` — what [`record`] keeps
/// the first finding of — so a job that keeps only its first candidate
/// per key hands `record` every finding it would keep (`DESIGN.md` §9).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum CandidateKey<'a> {
    /// `(family, crash signature)`.
    Crash(&'a str, &'a str),
    /// `(family, opt)`: the signature names both and nothing else.
    Performance(&'a str, u8),
    /// `(family, opt)`: the signature also names the file, which is the
    /// job's.
    WrongCode(&'a str, u8),
}

impl<'a> CandidateKey<'a> {
    /// The key of a replayed candidate; `None` for the quarantine
    /// records, which are never deduplicated.
    fn of(f: &'a Finding) -> Option<CandidateKey<'a>> {
        let family = f.compiler.family;
        match f.kind {
            FindingKind::Crash => Some(CandidateKey::Crash(family, &f.signature)),
            FindingKind::Performance => Some(CandidateKey::Performance(family, f.opt)),
            FindingKind::WrongCode => Some(CandidateKey::WrongCode(family, f.opt)),
            FindingKind::BackendDegraded | FindingKind::JobPanicked => None,
        }
    }

    /// The kind of the candidates with this key.
    fn kind(self) -> FindingKind {
        match self {
            CandidateKey::Crash(..) => FindingKind::Crash,
            CandidateKey::Performance(..) => FindingKind::Performance,
            CandidateKey::WrongCode(..) => FindingKind::WrongCode,
        }
    }

    /// The signature of a candidate with this key found in `file`.
    fn signature(self, file: &str) -> String {
        match self {
            CandidateKey::Crash(_, signature) => signature.to_owned(),
            CandidateKey::Performance(family, opt) => {
                format!("compile time blow-up in {family} at -O{opt}")
            }
            CandidateKey::WrongCode(family, opt) => {
                format!("wrong code: {family} at -O{opt} on {file}")
            }
        }
    }
}

/// A variant's source text as its findings read it: rendered into the
/// worker's buffer on first read, so a variant that keeps no candidate
/// is never rendered on [`Oracle::Incremental`].
struct VariantText<'a> {
    sk: &'a Skeleton,
    names: &'a [NameId],
    buf: &'a mut String,
    rendered: bool,
}

impl VariantText<'_> {
    fn text(&mut self) -> &str {
        if !self.rendered {
            self.sk.render_into(self.names, self.buf);
            self.rendered = true;
        }
        self.buf
    }
}

/// What one variant's observations fired, whether or not its job kept
/// the candidates: telemetry reads this, so `oracle_ns.<verdict>` and
/// `campaign.candidates` do not depend on the job decomposition.
#[derive(Default)]
struct Fired {
    /// The kind of the first candidate in emission order.
    first: Option<FindingKind>,
    /// Candidates fired, kept or not.
    candidates: u64,
}

/// Runs one per-variant oracle invocation `f`, recording its latency
/// into the per-verdict oracle histogram (`oracle_ns.<verdict>`) and the
/// campaign counters of `telemetry` when the sink is enabled: exactly
/// one histogram sample per variant, whichever route produced the
/// observations.
fn process_timed(
    telemetry: &dyn TelemetrySink,
    out: &mut ShardOutput,
    f: impl FnOnce(&mut ShardOutput) -> Result<Fired, BackendError>,
) -> Result<(), BackendError> {
    if !telemetry.enabled() {
        return f(out).map(drop);
    }
    let before = (out.variants_tested, out.variants_ub_skipped);
    let timer = Timer::start(telemetry);
    let result = f(out);
    let nanos = timer.stop_nanos();
    // The verdict drives which latency histogram the observation
    // lands in; a variant producing several findings is classified
    // by its first in emission order.
    match &result {
        Ok(fired) => {
            let verdict = match fired.first {
                Some(FindingKind::WrongCode) => names::ORACLE_NS_WRONG_CODE,
                Some(FindingKind::Performance) => names::ORACLE_NS_PERFORMANCE,
                Some(_) => names::ORACLE_NS_CRASH,
                None if out.variants_ub_skipped > before.1 => names::ORACLE_NS_UB_SKIP,
                None if out.variants_tested > before.0 => names::ORACLE_NS_CLEAN,
                None => names::ORACLE_NS_UNSUPPORTED,
            };
            telemetry.histogram(verdict, nanos);
        }
        Err(_) => telemetry.counter(names::DEGRADED, 1),
    }
    telemetry.counter(names::VARIANTS, out.variants_tested - before.0);
    let candidates = result.as_ref().map_or(0, |fired| fired.candidates);
    if candidates > 0 {
        telemetry.counter(names::CANDIDATES, candidates);
    }
    let ub = out.variants_ub_skipped - before.1;
    if ub > 0 {
        telemetry.counter(names::UB_SKIPS, ub);
    }
    result.map(drop)
}

/// One rendered variant through a [`CompilerBackend`]: one
/// `observe_variant` call, findings constructed by
/// [`emit_observations`].
fn process_variant_backend<'s>(
    file: &TestFile,
    src: &mut VariantText<'_>,
    config: &CampaignConfig,
    backend: &dyn CompilerBackend,
    seen: &mut HashSet<CandidateKey<'s>>,
    out: &mut ShardOutput,
) -> Result<Fired, BackendError> {
    let fuel = config.check_wrong_code.then_some(config.fuel);
    let observations = backend.observe_variant(src.text(), &config.compilers, fuel)?;
    if observations.is_empty() {
        // Not a testable program for this backend (parse failure):
        // skipped without counting.
        return Ok(Fired::default());
    }
    if observations.len() != config.compilers.len() {
        return Err(BackendError::new(format!(
            "backend {} returned {} observations for {} configurations",
            backend.id(),
            observations.len(),
            config.compilers.len()
        )));
    }
    Ok(emit_observations(
        file,
        src,
        config,
        &observations,
        seen,
        out,
    ))
}

/// Turns per-configuration [`Observation`]s into candidate findings and
/// counter deltas: per configuration in order, a crash, else one
/// performance candidate per slow-compile bug and then wrong code. A
/// candidate is kept only when `seen`, the keys of the job's kept
/// candidates, holds none equal to its own, and only a kept candidate
/// reads `src`. The one place that builds compiler findings, shared by
/// every oracle route.
fn emit_observations<'s>(
    file: &TestFile,
    src: &mut VariantText<'_>,
    config: &CampaignConfig,
    observations: &[Observation],
    seen: &mut HashSet<CandidateKey<'s>>,
    out: &mut ShardOutput,
) -> Fired {
    let mut fired = Fired::default();
    let mut fire = |out: &mut ShardOutput, cc: &Compiler, key: CandidateKey<'s>, bug_id| {
        fired.first.get_or_insert(key.kind());
        fired.candidates += 1;
        if seen.insert(key) {
            out.candidates.push(Finding::new(
                key.kind(),
                cc.id(),
                cc.opt(),
                key.signature(&file.name),
                bug_id,
                file.name.clone(),
                src.text().to_owned(),
            ));
        }
    };
    for (cc, obs) in config.compilers.iter().zip(observations) {
        out.variants_tested += 1;
        let family = cc.id().family;
        if let Some(ice) = &obs.ice {
            let key = CandidateKey::Crash(family, ice.signature);
            fire(out, cc, key, Some(ice.bug_id));
            continue;
        }
        if obs.unsupported {
            continue;
        }
        for slow in &obs.slow_compile {
            let key = CandidateKey::Performance(family, cc.opt());
            fire(out, cc, key, Some(slow));
        }
        if config.check_wrong_code {
            if obs.reference_ub {
                // UB or non-termination: skip, per §5.4.
                out.variants_ub_skipped += 1;
            } else if obs.wrong_code() {
                let key = CandidateKey::WrongCode(family, cc.opt());
                fire(out, cc, key, obs.miscompiled_by.first().copied());
            }
        }
    }
    fired
}

/// Where one job's variants go.
enum Route<'s> {
    /// The splice cache of an [`Oracle::Incremental`] job, built at the
    /// job's first variant.
    Cache(Option<Box<CachedOracle>>),
    /// Every variant through the campaign's [`Oracle::Backend`].
    Backend(&'s dyn CompilerBackend),
}

/// An [`Oracle`] bound to one (file, shard) job, with the keys of the
/// job's kept candidates. On [`Oracle::Incremental`] it holds one
/// [`CachedOracle`] over a clone of the skeleton's program, plus the
/// previous variant's bindings for hole-delta computation.
///
/// Parsing a rendered variant gives back the skeleton's program with
/// the hole identifiers renamed (`tests/render_equivalence.rs` pins
/// this), and the cache's first observation resplices every hole. So
/// each variant is observed on exactly the AST the round trip would
/// parse for it (see [`spe_simcc::incremental`] for the identity
/// argument), without parsing anything.
pub(crate) struct JobOracle<'s> {
    sk: &'s Skeleton,
    route: Route<'s>,
    /// Keys of the candidates the job holds, its replayed prefix's
    /// included; it lives for the whole job, across cadence commits.
    seen: HashSet<CandidateKey<'s>>,
    /// The previous variant's hole bindings — the delta baseline.
    prev: Vec<NameId>,
    /// Scratch: indices of holes whose binding changed since `prev`.
    changed: Vec<usize>,
    /// The current variant's spellings, hole-indexed: only the
    /// changed holes' entries are rewritten per variant.
    spellings: Vec<&'s str>,
    /// Stats snapshot at the last telemetry emission.
    last_stats: CacheStats,
}

impl JobOracle<'_> {
    /// Runs every compiler configuration over one variant, appending the
    /// candidates the job keeps and counter deltas to `out`, with one
    /// `oracle_ns.<verdict>` histogram sample (plus the `oracle_cache.*`
    /// counters on the splice cache) when `telemetry` is enabled. The
    /// variant is rendered into `buf` before it is observed on
    /// [`Oracle::Backend`], and on [`Oracle::Incremental`] only when a
    /// kept candidate reads it.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the backend machinery failed, with the
    /// variant rendered in `buf`; the caller quarantines the job.
    pub(crate) fn process_variant(
        &mut self,
        variant: &Variant,
        file: &TestFile,
        buf: &mut String,
        config: &CampaignConfig,
        out: &mut ShardOutput,
        telemetry: &dyn TelemetrySink,
    ) -> Result<(), BackendError> {
        let sk = self.sk;
        let mut src = VariantText {
            sk,
            names: &variant.names,
            buf,
            rendered: false,
        };
        let seen = &mut self.seen;
        let cache = match &mut self.route {
            Route::Cache(cache) => cache.get_or_insert_with(|| {
                let occs: Vec<_> = sk.hole_occs().collect();
                let cache = CachedOracle::new(
                    sk.program().clone(),
                    &occs,
                    &config.compilers,
                    config.check_wrong_code,
                    config.fuel,
                );
                Box::new(cache.expect("every hole is an identifier use site of its skeleton"))
            }),
            Route::Backend(backend) => {
                let backend = *backend;
                // The backend reads every variant: render it outside the
                // timed observation, as for any oracle input.
                src.text();
                return process_timed(telemetry, out, |out| {
                    process_variant_backend(file, &mut src, config, backend, seen, out)
                });
            }
        };
        variant.changed_holes_into(&self.prev, &mut self.changed);
        self.prev.clone_from(&variant.names);
        // `changed` lists every hole when the hole count changes, so only
        // the holes it lists need a new spelling.
        let table = sk.names();
        self.spellings.resize(variant.names.len(), "");
        for &h in &self.changed {
            self.spellings[h] = table.name(variant.names[h]);
        }
        let (spellings, changed) = (&self.spellings, &self.changed);
        process_timed(telemetry, out, |out| {
            let observations = cache.observe_variant(spellings, Some(changed));
            Ok(emit_observations(
                file,
                &mut src,
                config,
                observations,
                seen,
                out,
            ))
        })?;
        if telemetry.enabled() {
            let stats = cache.stats();
            let last = std::mem::replace(&mut self.last_stats, stats);
            for (name, delta) in [
                (
                    names::ORACLE_SPLICE_HITS,
                    stats.splice_delta - last.splice_delta,
                ),
                (
                    names::ORACLE_SPLICE_MISSES,
                    stats.splice_full - last.splice_full,
                ),
                (
                    names::ORACLE_PIPELINE_MEMO_HITS,
                    stats.pipeline_memo_hits - last.pipeline_memo_hits,
                ),
                (
                    names::ORACLE_PIPELINE_MEMO_MISSES,
                    stats.pipeline_memo_misses - last.pipeline_memo_misses,
                ),
                (
                    names::ORACLE_REFERENCE_MEMO_HITS,
                    stats.reference_memo_hits - last.reference_memo_hits,
                ),
                (
                    names::ORACLE_REFERENCE_RUNS,
                    stats.reference_runs - last.reference_runs,
                ),
                (
                    names::ORACLE_REFERENCE_FUEL_EXHAUSTED,
                    stats.reference_fuel_exhausted - last.reference_fuel_exhausted,
                ),
                (names::ORACLE_O0_PATCHED, stats.o0_patched - last.o0_patched),
                (names::ORACLE_O0_LOWERED, stats.o0_lowered - last.o0_lowered),
            ] {
                if delta > 0 {
                    telemetry.counter(name, delta);
                }
            }
        }
        Ok(())
    }
}

/// The quarantine record of a (file, shard) job: a
/// [`FindingKind::BackendDegraded`] or [`FindingKind::JobPanicked`]
/// finding whose reproducer is the variant being processed when the
/// backend failed or the worker panicked, and whose signature carries
/// `what` went wrong.
pub(crate) fn quarantine_finding(
    kind: FindingKind,
    file: &TestFile,
    shard: usize,
    variant_src: &str,
    config: &CampaignConfig,
    what: &str,
) -> Finding {
    let (compiler, opt) = config.compilers.first().map_or(
        (
            CompilerId {
                family: intern("backend"),
                version: 0,
            },
            0,
        ),
        |cc| (cc.id(), cc.opt()),
    );
    Finding::new(
        kind,
        compiler,
        opt,
        format!("{}: {} shard {}: {}", kind.label(), file.name, shard, what),
        None,
        file.name.clone(),
        variant_src.to_string(),
    )
}

/// Parses and analyzes one file and materializes its variant space once;
/// `None` when the file does not analyze. The expensive half of a work
/// item — the orchestrator computes it once per file and shares it
/// across that file's shards.
fn prepare_file(
    file: &TestFile,
    shards_per_file: usize,
    config: &CampaignConfig,
) -> Option<(Skeleton, VariantSpace)> {
    let sk = Skeleton::from_source(&file.source).ok()?;
    let space = campaign_enumerator(config, shards_per_file).prepare(&sk);
    Some((sk, space))
}

fn campaign_enumerator(config: &CampaignConfig, shards_per_file: usize) -> ShardedEnumerator {
    ShardedEnumerator::new(
        EnumeratorConfig {
            algorithm: config.algorithm,
            granularity: Granularity::Intra,
            budget: config.budget,
        },
        shards_per_file,
    )
}

/// Folds per-item outputs into the final report **in work-item order**
/// (file-major, shard-minor) — so dedup decisions, finding order,
/// first-reproducer choices and the triage tables derived from them do
/// not depend on worker count, completion order, or kill/resume history.
fn merge_outputs(outputs: Vec<ShardOutput>) -> CampaignReport {
    let mut report = CampaignReport::default();
    // (family, signature) of every finding reported.
    let mut seen_signatures: HashSet<(&'static str, String)> = HashSet::new();
    // (family, bug id) -> first signature.
    let mut seen_bugs: HashMap<(&'static str, &'static str), String> = HashMap::new();
    for out in outputs {
        report.files_processed += usize::from(out.file_processed);
        report.variants_tested += out.variants_tested;
        report.variants_ub_skipped += out.variants_ub_skipped;
        for finding in out.candidates {
            record(&mut report, &mut seen_signatures, &mut seen_bugs, finding);
        }
    }
    report
}

/// Runs the campaign in memory on a pool of `workers` threads —
/// shorthand for [`Campaign::run`] with the incremental oracle and the
/// default fault policy. Each file's variant space is cut into `workers`
/// shards, so even a single large file parallelizes; the report is
/// byte-identical for every worker count.
pub fn run_campaign_parallel(
    files: &[TestFile],
    config: &CampaignConfig,
    workers: usize,
) -> CampaignReport {
    Campaign {
        workers,
        ..Campaign::default()
    }
    .run(files, config)
}

/// Reports `finding` unless one with an equal `(family, signature)` was
/// reported before it, linking it to the first signature reported for
/// its `(family, bug id)`. Families compare by content: replayed findings
/// carry interned copies.
fn record(
    report: &mut CampaignReport,
    seen_signatures: &mut HashSet<(&'static str, String)>,
    seen_bugs: &mut HashMap<(&'static str, &'static str), String>,
    mut finding: Finding,
) {
    let family = finding.compiler.family;
    if !seen_signatures.insert((family, finding.signature.clone())) {
        return; // already reported under this signature
    }
    if let Some(bug) = finding.bug_id {
        match seen_bugs.get(&(family, bug)) {
            Some(first_sig) if *first_sig != finding.signature => {
                finding.duplicate_of = Some(first_sig.clone());
            }
            Some(_) => {}
            None => {
                seen_bugs.insert((family, bug), finding.signature.clone());
            }
        }
    }
    report.findings.push(finding);
}

#[cfg(test)]
mod tests {
    use super::*;
    use spe_corpus::seeds;

    fn run(files: &[TestFile], config: &CampaignConfig) -> CampaignReport {
        Campaign::default().run(files, config)
    }

    fn seed_campaign(check_wrong_code: bool) -> CampaignReport {
        let files = seeds::all();
        run(
            &files,
            &CampaignConfig {
                compilers: vec![
                    Compiler::new(CompilerId::gcc(700), 0),
                    Compiler::new(CompilerId::gcc(700), 3),
                    Compiler::new(CompilerId::clang(390), 3),
                ],
                budget: 200,
                algorithm: Algorithm::Paper,
                check_wrong_code,
                fuel: 20_000,
            },
        )
    }

    #[test]
    fn finds_crash_bugs_in_seed_programs() {
        let report = seed_campaign(false);
        assert!(report.files_processed >= 6);
        let crash_sigs: Vec<&str> = report
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::Crash)
            .map(|f| f.signature.as_str())
            .collect();
        assert!(
            crash_sigs.iter().any(|s| s.contains("operand_equal_p")),
            "Figure 3 crash found: {crash_sigs:?}"
        );
    }

    #[test]
    fn finds_the_figure2_miscompilation() {
        let report = seed_campaign(true);
        let wrong: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::WrongCode)
            .collect();
        assert!(
            wrong.iter().any(|f| f.bug_id == Some("gcc-69951")),
            "alias miscompilation found: {:?}",
            wrong.iter().map(|f| &f.signature).collect::<Vec<_>>()
        );
    }

    #[test]
    fn signatures_are_deduplicated() {
        let report = seed_campaign(false);
        let mut sigs: Vec<(String, String)> = report
            .findings
            .iter()
            .map(|f| (f.compiler.family.to_string(), f.signature.clone()))
            .collect();
        let before = sigs.len();
        sigs.sort();
        sigs.dedup();
        assert_eq!(before, sigs.len(), "duplicate signatures in findings");
    }

    #[test]
    fn ub_variants_are_skipped_not_reported() {
        // A skeleton whose variants frequently divide by zero or read
        // uninitialized memory: variants must be filtered, not flagged.
        let files = vec![TestFile {
            name: "ub.c".into(),
            source: "int main() { int a = 0, b = 4; b = b / (a + b); return b; }".into(),
        }];
        let report = run(
            &files,
            &CampaignConfig {
                compilers: vec![Compiler::new(CompilerId::gcc(440), 1)],
                budget: 100,
                algorithm: Algorithm::Paper,
                check_wrong_code: true,
                fuel: 10_000,
            },
        );
        // gcc-440 at -O1 has the alias bug only; this program has no
        // pointers, so any mismatch would be a false positive.
        assert!(
            report
                .findings
                .iter()
                .all(|f| f.kind != FindingKind::WrongCode),
            "false positives: {:?}",
            report.findings
        );
        assert!(
            report.variants_ub_skipped > 0,
            "some variants divide by zero"
        );
    }

    /// Each job's stored candidates, replayed from the journal at `path`.
    fn stored_candidates(path: &std::path::Path) -> Vec<Vec<Finding>> {
        let (replay, _lock) = checkpoint::Replay::open(path).expect("replay");
        replay
            .jobs
            .into_iter()
            .map(|job| job.partial.candidates)
            .collect()
    }

    #[test]
    fn a_job_stores_one_candidate_per_signature_across_kill_and_resume() {
        let mut files = seeds::all();
        files.extend(spe_corpus::generate(&spe_corpus::CorpusConfig {
            files: 6,
            seed: 7,
        }));
        let config = CampaignConfig {
            compilers: vec![
                Compiler::new(CompilerId::gcc(700), 0),
                Compiler::new(CompilerId::gcc(700), 3),
                Compiler::new(CompilerId::clang(390), 3),
            ],
            budget: 60,
            algorithm: Algorithm::Paper,
            check_wrong_code: true,
            fuel: 10_000,
        };
        let dir = std::env::temp_dir().join(format!("spe-harness-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmpdir");
        // One worker over a one-host plan of two shards per file: jobs
        // are dealt in order, so a kill lands at the same variant on
        // every run.
        let plan = Some((FleetPlan::new(1, 1, 2), 0));
        let run = |path: &std::path::Path, stop_after| {
            let options = CheckpointOptions {
                every: 4,
                stop_after,
            };
            Campaign::default()
                .run_journaled(&files, &config, path, &options, plan)
                .expect("journaled run")
                .status
        };

        let finished = dir.join("finished.journal");
        assert!(!run(&finished, None).is_interrupted());
        let reference = stored_candidates(&finished);
        for (job, candidates) in reference.iter().enumerate() {
            let mut keys: Vec<_> = candidates
                .iter()
                .map(|f| (f.compiler.family, f.signature.as_str()))
                .collect();
            let stored = keys.len();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), stored, "job {job} stores a signature twice");
        }

        let mut resumed_mid_job = 0;
        for stop_after in [200, 290, 410, 470] {
            let killed = dir.join(format!("killed-{stop_after}.journal"));
            assert!(run(&killed, Some(stop_after)).is_interrupted());
            let (replay, lock) = checkpoint::Replay::open(&killed).expect("replay");
            resumed_mid_job += replay
                .jobs
                .iter()
                .filter(|job| !job.done && !job.partial.candidates.is_empty())
                .count();
            drop((replay, lock));
            let resumed = Campaign::default()
                .resume(&killed, &CheckpointOptions::default())
                .expect("resume");
            assert!(!resumed.status.is_interrupted());
            let stored = stored_candidates(&killed);
            for (job, (got, want)) in stored.iter().zip(&reference).enumerate() {
                assert_eq!(
                    got, want,
                    "killed after {stop_after} variants: resumed job {job} stores other candidates"
                );
            }
        }
        assert!(
            resumed_mid_job > 0,
            "no kill left a job with stored candidates unfinished"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stable_release_campaign_finds_fewer_bugs_than_trunk() {
        let files = seeds::all();
        let run_with = |version: u32| {
            run(
                &files,
                &CampaignConfig {
                    compilers: vec![
                        Compiler::new(CompilerId::gcc(version), 0),
                        Compiler::new(CompilerId::gcc(version), 3),
                    ],
                    budget: 150,
                    algorithm: Algorithm::Paper,
                    check_wrong_code: false,
                    fuel: 10_000,
                },
            )
        };
        let old = run_with(440);
        let trunk = run_with(700);
        assert!(
            trunk.findings.len() >= old.findings.len(),
            "trunk has at least as many live seeded bugs ({} vs {})",
            trunk.findings.len(),
            old.findings.len()
        );
    }
}
