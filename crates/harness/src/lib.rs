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
use std::collections::HashMap;

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
pub use fleet::{
    merge_journals, merge_journals_detailed, FleetError, FleetPlan, HostSummary, MergedFleet,
};
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
    /// variant and quarantined with this durable marker (committed with
    /// the job's completion record, so a resume skips it instead of
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

/// Raw results of one (file, shard) work item before deduplication:
/// candidate findings in emission order plus counter deltas.
#[derive(Debug, Default)]
struct ShardOutput {
    /// Whether the file parsed and analyzed (reported by shard 0 only).
    file_processed: bool,
    /// Candidate findings in variant/compiler emission order, not yet
    /// deduplicated (`duplicate_of` is always `None` here).
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
    /// ([`spe_simcc::incremental`]): each (file, shard) job parses its
    /// first rendered variant once and splices every later variant's
    /// name bindings into the cached AST, memoizing pass-pipeline results
    /// across configurations. The default, and an order of magnitude
    /// faster than the round trip on enumeration-heavy campaigns. Its
    /// journals record [`SimccBackend`]'s identity, so they resume under
    /// either oracle.
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

    /// This oracle bound to one (file, shard) job. Created at the job's
    /// start and dropped at its end, so cached AST state can never cross
    /// a job boundary (work stealing, checkpoint/resume, and panic
    /// quarantine all see exactly the state the round trip would).
    pub(crate) fn job<'s>(self, sk: &'s Skeleton) -> JobOracle<'s>
    where
        'a: 's,
    {
        JobOracle {
            sk,
            route: match self {
                Oracle::Incremental => None,
                Oracle::Backend(backend) => Some(Route::Backend(backend)),
            },
            prev: Vec::new(),
            changed: Vec::new(),
            spellings: Vec::new(),
            last_stats: CacheStats::default(),
        }
    }
}

/// Runs one per-variant oracle invocation `f`, recording its latency
/// into the per-verdict oracle histogram (`oracle_ns.<verdict>`) and the
/// campaign counters of `telemetry` when the sink is enabled: exactly
/// one histogram sample per variant, whichever route produced the
/// observations.
fn process_timed(
    telemetry: &dyn TelemetrySink,
    out: &mut ShardOutput,
    f: impl FnOnce(&mut ShardOutput) -> Result<(), BackendError>,
) -> Result<(), BackendError> {
    if !telemetry.enabled() {
        return f(out);
    }
    let before = (
        out.candidates.len(),
        out.variants_tested,
        out.variants_ub_skipped,
    );
    let timer = Timer::start(telemetry);
    let result = f(out);
    let nanos = timer.stop_nanos();
    // The verdict drives which latency histogram the observation
    // lands in; a variant producing several findings is classified
    // by its first in emission order.
    match &result {
        Ok(()) => {
            let verdict = if let Some(f) = out.candidates.get(before.0) {
                match f.kind {
                    FindingKind::WrongCode => names::ORACLE_NS_WRONG_CODE,
                    FindingKind::Performance => names::ORACLE_NS_PERFORMANCE,
                    _ => names::ORACLE_NS_CRASH,
                }
            } else if out.variants_ub_skipped > before.2 {
                names::ORACLE_NS_UB_SKIP
            } else if out.variants_tested > before.1 {
                names::ORACLE_NS_CLEAN
            } else {
                names::ORACLE_NS_UNSUPPORTED
            };
            telemetry.histogram(verdict, nanos);
        }
        Err(_) => telemetry.counter(names::DEGRADED, 1),
    }
    telemetry.counter(names::VARIANTS, out.variants_tested - before.1);
    let candidates = (out.candidates.len() - before.0) as u64;
    if candidates > 0 {
        telemetry.counter(names::CANDIDATES, candidates);
    }
    let ub = out.variants_ub_skipped - before.2;
    if ub > 0 {
        telemetry.counter(names::UB_SKIPS, ub);
    }
    result
}

/// One rendered variant through a [`CompilerBackend`]: one
/// `observe_variant` call, findings constructed by
/// [`emit_observations`].
fn process_variant_backend(
    file: &TestFile,
    src: &str,
    config: &CampaignConfig,
    backend: &dyn CompilerBackend,
    out: &mut ShardOutput,
) -> Result<(), BackendError> {
    let fuel = config.check_wrong_code.then_some(config.fuel);
    let observations = backend.observe_variant(src, &config.compilers, fuel)?;
    if observations.is_empty() {
        // Not a testable program for this backend (parse failure):
        // skipped without counting.
        return Ok(());
    }
    if observations.len() != config.compilers.len() {
        return Err(BackendError::new(format!(
            "backend {} returned {} observations for {} configurations",
            backend.id(),
            observations.len(),
            config.compilers.len()
        )));
    }
    emit_observations(file, src, config, &observations, out);
    Ok(())
}

/// Turns per-configuration [`Observation`]s into findings and counter
/// deltas: per configuration in order, a crash, else one performance
/// finding per slow-compile bug and then wrong code. The one place that
/// builds compiler findings, shared by every oracle route.
fn emit_observations(
    file: &TestFile,
    src: &str,
    config: &CampaignConfig,
    observations: &[Observation],
    out: &mut ShardOutput,
) {
    for (cc, obs) in config.compilers.iter().zip(observations) {
        out.variants_tested += 1;
        let finding = |kind, signature, bug_id| {
            Finding::new(
                kind,
                cc.id(),
                cc.opt(),
                signature,
                bug_id,
                file.name.clone(),
                src.to_string(),
            )
        };
        if let Some(ice) = &obs.ice {
            out.candidates.push(finding(
                FindingKind::Crash,
                ice.signature.to_string(),
                Some(ice.bug_id),
            ));
            continue;
        }
        if obs.unsupported {
            continue;
        }
        for slow in &obs.slow_compile {
            out.candidates.push(finding(
                FindingKind::Performance,
                format!(
                    "compile time blow-up in {} at -O{}",
                    cc.id().family,
                    cc.opt()
                ),
                Some(slow),
            ));
        }
        if config.check_wrong_code {
            if obs.reference_ub {
                // UB or non-termination: skip, per §5.4.
                out.variants_ub_skipped += 1;
            } else if obs.wrong_code {
                out.candidates.push(finding(
                    FindingKind::WrongCode,
                    format!(
                        "wrong code: {} at -O{} on {}",
                        cc.id().family,
                        cc.opt(),
                        file.name
                    ),
                    obs.miscompiled_by.first().copied(),
                ));
            }
        }
    }
}

/// Where one job's variants go.
enum Route<'s> {
    /// The splice cache, anchored on the job's first rendered variant.
    Cache(Box<CachedOracle>),
    /// Every variant through a backend: the campaign's own, or
    /// [`SimccBackend`] (the round trip) for an incremental job whose
    /// first variant could not anchor a cache.
    Backend(&'s dyn CompilerBackend),
}

/// An [`Oracle`] bound to one (file, shard) job. On
/// [`Oracle::Incremental`] it holds one [`CachedOracle`] anchored on the
/// job's first rendered variant, plus the previous variant's bindings
/// for hole-delta computation.
///
/// The cache parses the *first variant the job processes* (not the
/// skeleton's normalized program), so the cached AST is exactly what the
/// round trip would parse for it; every later variant differs only in
/// identifier spellings at hole slots, which is precisely what
/// [`CachedOracle::observe_variant`] splices (see
/// [`spe_simcc::incremental`] for the identity argument). If the first
/// variant does not parse, or a hole cannot be mapped into the parsed
/// AST, the whole job takes the round trip through [`SimccBackend`] —
/// identical behavior by construction.
pub(crate) struct JobOracle<'s> {
    sk: &'s Skeleton,
    /// `None` until an incremental job's first variant picks the route.
    route: Option<Route<'s>>,
    /// The previous variant's hole bindings — the delta baseline.
    prev: Vec<NameId>,
    /// Scratch: indices of holes whose binding changed since `prev`.
    changed: Vec<usize>,
    /// Scratch: the current variant's spellings, hole-indexed.
    spellings: Vec<&'s str>,
    /// Stats snapshot at the last telemetry emission.
    last_stats: CacheStats,
}

impl JobOracle<'_> {
    /// Runs every compiler configuration over one rendered variant,
    /// appending candidate findings and counter deltas to `out`, with
    /// one `oracle_ns.<verdict>` histogram sample (plus the
    /// `oracle_cache.*` counters on the splice cache) when `telemetry`
    /// is enabled.
    ///
    /// # Errors
    ///
    /// [`BackendError`] when the backend machinery failed; the caller
    /// quarantines the job.
    pub(crate) fn process_variant(
        &mut self,
        variant: &Variant,
        file: &TestFile,
        src: &str,
        config: &CampaignConfig,
        out: &mut ShardOutput,
        telemetry: &dyn TelemetrySink,
    ) -> Result<(), BackendError> {
        let sk = self.sk;
        let route = self.route.get_or_insert_with(|| {
            // An unparsable first render (then every variant is equally
            // unparsable and the round trip skips them all) or an
            // unmappable hole sends the whole job round-trip.
            spe_minic::parse(src)
                .ok()
                .and_then(|prog| {
                    let occs: Vec<_> = sk.hole_occs().collect();
                    CachedOracle::new(
                        prog,
                        &occs,
                        &config.compilers,
                        config.check_wrong_code,
                        config.fuel,
                    )
                })
                .map_or(Route::Backend(&SimccBackend), |cache| {
                    Route::Cache(Box::new(cache))
                })
        });
        let cache = match route {
            Route::Cache(cache) => cache,
            Route::Backend(backend) => {
                let backend = *backend;
                return process_timed(telemetry, out, |out| {
                    process_variant_backend(file, src, config, backend, out)
                });
            }
        };
        self.spellings.clear();
        let table = sk.names();
        for &id in &variant.names {
            self.spellings.push(table.name(id));
        }
        variant.changed_holes_into(&self.prev, &mut self.changed);
        self.prev.clone_from(&variant.names);
        let (spellings, changed) = (&self.spellings, &self.changed);
        process_timed(telemetry, out, |out| {
            let observations = cache.observe_variant(spellings, Some(changed));
            emit_observations(file, src, config, observations, out);
            Ok(())
        })?;
        if telemetry.enabled() {
            let stats = cache.stats();
            let last = std::mem::replace(&mut self.last_stats, stats);
            for (name, delta) in [
                (names::ORACLE_SPLICE_HITS, stats.splice_delta - last.splice_delta),
                (names::ORACLE_SPLICE_MISSES, stats.splice_full - last.splice_full),
                (
                    names::ORACLE_PIPELINE_MEMO_HITS,
                    stats.pipeline_memo_hits - last.pipeline_memo_hits,
                ),
                (
                    names::ORACLE_PIPELINE_MEMO_MISSES,
                    stats.pipeline_memo_misses - last.pipeline_memo_misses,
                ),
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
    // (family, signature) -> index into findings.
    let mut seen_signatures: HashMap<(String, String), usize> = HashMap::new();
    // (family, bug id) -> first signature.
    let mut seen_bugs: HashMap<(String, &'static str), String> = HashMap::new();
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

fn record(
    report: &mut CampaignReport,
    seen_signatures: &mut HashMap<(String, String), usize>,
    seen_bugs: &mut HashMap<(String, &'static str), String>,
    mut finding: Finding,
) {
    let key = (
        finding.compiler.family.to_string(),
        finding.signature.clone(),
    );
    if seen_signatures.contains_key(&key) {
        return; // already reported under this signature
    }
    if let Some(bug) = finding.bug_id {
        let bkey = (finding.compiler.family.to_string(), bug);
        match seen_bugs.get(&bkey) {
            Some(first_sig) if *first_sig != finding.signature => {
                finding.duplicate_of = Some(first_sig.clone());
            }
            Some(_) => {}
            None => {
                seen_bugs.insert(bkey, finding.signature.clone());
            }
        }
    }
    seen_signatures.insert(key, report.findings.len());
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
