//! Post-campaign test-case reduction and fingerprint deduplication.
//!
//! A [`crate::CampaignReport`] fresh out of [`crate::Campaign::run`]
//! carries, for every unique-signature finding, the **first raw
//! reproducer** — often a whole corpus file of which a single statement
//! matters. This stage (the pipeline step between campaign merge and
//! report emission; see `DESIGN.md` §7) makes the findings actionable:
//!
//! 1. every finding's reproducer is shrunk with the `spe-reduce`
//!    hierarchical reducer, under the oracle *"the same `simcc`
//!    configuration still observes the same [`crate::FindingKind`] and
//!    bug id"* ([`reproduces`]);
//! 2. each reduced witness is canonicalized and fingerprinted, and a
//!    second dedup pass marks findings whose fingerprints collide
//!    ([`Finding::fingerprint_duplicate_of`]) — catching
//!    distinct-signature duplicates of one root cause (the same bug
//!    reported from several optimization levels or corpus files) without
//!    consulting the seeded-bug registry, the way the paper's authors
//!    manually folded Table 3/4 reports into root causes;
//! 3. a **trigger-aware** fold then catches what the fingerprint pass
//!    structurally cannot: duplicates from different corpus files that
//!    ddmin to *different* minimal programs of one root cause. Each
//!    witness carries a [`ReducedWitness::trigger`] signature — the
//!    observed divergence class from [`spe_simcc::Compiler::observe`]
//!    (ICE signature, wrong-code [`spe_simcc::Divergence`] class, or
//!    slow-compile) plus the witness's bug-site statement-kind shape
//!    ([`spe_reduce::stmts::stmt_kind_signature`]) — and findings that
//!    are still unmerged but share a trigger fold into the first root
//!    with that trigger.
//!
//! [`crate::Campaign::reduce`] runs the stage. Reduction jobs fan out
//! over the same work-stealing [`crate::steal::WorkQueue`] campaigns
//! use; since each job is a pure deterministic function of its finding,
//! the report is **byte-identical for every worker count** — witnesses
//! are written into per-finding slots and both dedup folds walk them in
//! finding order. For long campaigns the stage is also checkpointable
//! into the campaign's journal (`DESIGN.md` §9).

use crate::checkpoint::{encode_reduced, CheckpointError};
use crate::steal::WorkQueue;
use crate::{CampaignReport, Finding, FindingKind, Oracle};
use spe_minic::ast::Program;
use spe_persist::Journal;
use spe_reduce::stmts::stmt_kind_signature;
use spe_reduce::{reduce, ReduceConfig};
use spe_simcc::{Compiler, Divergence, Observation};
use spe_telemetry::{names, Timer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// A finding's reduced witness plus reduction bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReducedWitness {
    /// The reduced, canonicalized reproducer (never larger than the raw
    /// one; still reproduces the finding under its configuration).
    pub source: String,
    /// Structural fingerprint of the witness (α-invariant, hex).
    pub fingerprint: String,
    /// Trigger signature: observed divergence class (`|`-joined with)
    /// the witness's statement-kind shape. Coarser than the fingerprint;
    /// the second dedup fold keys on it.
    pub trigger: String,
    /// Byte size of the raw first reproducer.
    pub original_bytes: usize,
    /// Byte size of [`ReducedWitness::source`].
    pub reduced_bytes: usize,
    /// Oracle invocations the reduction spent.
    pub oracle_calls: usize,
}

impl ReducedWitness {
    /// How many times smaller the witness is than the raw reproducer.
    pub fn shrink_ratio(&self) -> f64 {
        self.original_bytes as f64 / self.reduced_bytes.max(1) as f64
    }
}

/// Options of the reduction stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReductionOptions {
    /// Interpreter/VM fuel for wrong-code oracle re-checks; use the
    /// campaign's [`crate::CampaignConfig::fuel`] so the oracle agrees
    /// with what the campaign observed.
    pub fuel: u64,
    /// Reducer limits.
    pub reduce: ReduceConfig,
}

impl Default for ReductionOptions {
    fn default() -> Self {
        ReductionOptions {
            fuel: 50_000,
            reduce: ReduceConfig::default(),
        }
    }
}

/// A finding's reduction result: `None` until it is reduced (or
/// replayed from a journal), `Some(None)` when it proved irreducible.
pub(crate) type Slot = Option<Option<ReducedWitness>>;

/// Whether an observation still certifies `finding`: same
/// [`FindingKind`], same bug id (for wrong code, an unattributed
/// finding — `bug_id == None` — must stay unattributed). Shared by the
/// in-process and backend-dispatched reduction oracles.
fn verdict_matches(finding: &Finding, obs: &Observation) -> bool {
    match finding.kind {
        FindingKind::Crash => obs.ice.as_ref().map(|ice| ice.bug_id) == finding.bug_id,
        FindingKind::Performance => match finding.bug_id {
            Some(bug) => obs.ice.is_none() && obs.slow_compile.contains(&bug),
            None => obs.ice.is_none() && !obs.slow_compile.is_empty(),
        },
        FindingKind::WrongCode => {
            obs.wrong_code()
                && match finding.bug_id {
                    Some(bug) => obs.miscompiled_by.contains(&bug),
                    None => obs.miscompiled_by.is_empty(),
                }
        }
        // Quarantine markers record infrastructure failing on a variant
        // (backend machinery, or a panicking worker), not a compiler
        // verdict: no observation certifies them.
        FindingKind::BackendDegraded | FindingKind::JobPanicked => false,
    }
}

/// Observes `p` under `finding`'s compiler configuration through the
/// given oracle. `None` when a backend reports machinery failure
/// mid-reduction — the candidate shrink is conservatively treated as
/// non-reproducing, so reduction never commits a witness it could not
/// re-check.
fn observe_oracle(
    finding: &Finding,
    p: &Program,
    fuel: u64,
    oracle: Oracle<'_>,
) -> Option<Observation> {
    let cc = Compiler::new(finding.compiler, finding.opt);
    let wrong_code_fuel = (finding.kind == FindingKind::WrongCode).then_some(fuel);
    match oracle {
        // Reduction probes arbitrary shrunken programs, not variants of
        // one skeleton — there is nothing for the incremental cache to
        // splice, so the in-process oracle observes the AST directly.
        Oracle::Incremental => Some(cc.observe(p, wrong_code_fuel)),
        Oracle::Backend(b) => b
            .observe_config(&spe_minic::print_program(p), cc, wrong_code_fuel)
            .ok(),
    }
}

/// Whether `p` still reproduces `finding` under the finding's compiler
/// configuration: same [`FindingKind`], same bug id (for wrong code, an
/// unattributed finding — `bug_id == None` — must stay unattributed).
pub fn reproduces(finding: &Finding, p: &Program, fuel: u64) -> bool {
    reproduces_oracle(finding, p, fuel, Oracle::Incremental)
}

fn reproduces_oracle(finding: &Finding, p: &Program, fuel: u64, oracle: Oracle<'_>) -> bool {
    observe_oracle(finding, p, fuel, oracle).is_some_and(|obs| verdict_matches(finding, &obs))
}

/// The trigger signature of a reduced witness: the divergence class the
/// finding's compiler configuration observes on it, joined with its
/// statement-kind shape. Two different minimal programs of one root
/// cause typically agree on both; two distinct bugs rarely agree on the
/// pair — which is what makes the key safe to merge on. The key is
/// deliberately coarse (that is its job: folding what the exact
/// fingerprint cannot), so like the paper's manual root-cause folding
/// it trades a residual over-merge risk for recall; the tests pin its
/// agreement with the ground-truth registry on the covered corpora.
fn trigger_signature(finding: &Finding, p: &Program, fuel: u64, oracle: Oracle<'_>) -> String {
    let class = match observe_oracle(finding, p, fuel, oracle) {
        Some(obs) => match finding.kind {
            FindingKind::Crash => obs.ice.as_ref().map_or("ice", |ice| ice.signature),
            FindingKind::WrongCode => obs.divergence.map_or("wrong-code", Divergence::label),
            FindingKind::Performance => "slow-compile",
            FindingKind::BackendDegraded => "backend-degraded",
            FindingKind::JobPanicked => "job-panicked",
        },
        // Backend machinery failed on the final witness; the class is
        // unknown, and an unknown class must never fold with a known one.
        None => "unobserved",
    };
    format!("{class}|{}", stmt_kind_signature(p))
}

/// Reduces one finding's reproducer; `None` when the reproducer does not
/// reproduce under re-check (never the case for campaign-produced
/// findings), fails to parse, or the finding is a
/// [`FindingKind::BackendDegraded`] / [`FindingKind::JobPanicked`]
/// quarantine marker (its "reproducer" is the variant the
/// infrastructure failed on — there is no verdict to preserve, so
/// nothing to reduce).
fn reduce_one(
    finding: &Finding,
    options: &ReductionOptions,
    oracle: Oracle<'_>,
) -> Option<ReducedWitness> {
    if matches!(
        finding.kind,
        FindingKind::BackendDegraded | FindingKind::JobPanicked
    ) {
        return None;
    }
    let mut pred = |p: &Program| reproduces_oracle(finding, p, options.fuel, oracle);
    let reduction = reduce(&finding.reproducer, &options.reduce, &mut pred).ok()?;
    let witness = spe_minic::parse(&reduction.witness).ok()?;
    Some(ReducedWitness {
        trigger: trigger_signature(finding, &witness, options.fuel, oracle),
        source: reduction.witness,
        fingerprint: reduction.fingerprint.to_string(),
        original_bytes: reduction.original_bytes,
        reduced_bytes: reduction.reduced_bytes,
        oracle_calls: reduction.oracle_calls,
    })
}

/// The one reduction fan-out: reduces every finding whose slot is still
/// empty across `workers` threads of a work-stealing pool and fills its
/// slot, first appending its `Reduced` frame to `journal` when one is
/// given. A journal append failure stops the pool and is returned.
///
/// Each reduction runs under panic isolation: a reducer (or oracle)
/// panic on one malformed finding records that finding as irreducible,
/// with a [`names::REDUCE_PANICKED`] event and a returned warning,
/// instead of killing the fan-out (`DESIGN.md` §11). Deterministic — a
/// given finding either always panics or never does — so reports stay
/// byte-identical across worker counts and kill/resume histories.
/// Warnings come back in finding order.
pub(crate) fn reduce_missing(
    findings: &[Finding],
    slots: &mut [Slot],
    options: &ReductionOptions,
    workers: usize,
    oracle: Oracle<'_>,
    journal: Option<Journal>,
) -> Result<Vec<String>, CheckpointError> {
    let missing: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_none()).collect();
    if missing.is_empty() {
        return Ok(Vec::new());
    }
    let telemetry = spe_telemetry::global();
    let pass_timer = Timer::start(&*telemetry);
    let count = missing.len();
    let workers = workers.clamp(1, count);
    let queue = WorkQueue::new(missing, workers);
    let journal = journal.map(Mutex::new);
    let slots = Mutex::new(slots);
    let warnings: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    let failure: Mutex<Option<CheckpointError>> = Mutex::new(None);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (queue, journal, slots) = (&queue, &journal, &slots);
            let (warnings, failure, stop, telemetry) = (&warnings, &failure, &stop, &telemetry);
            scope.spawn(move || {
                while let Some(i) = queue.pop(w) {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    let finding = &findings[i];
                    let witness = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        reduce_one(finding, options, oracle)
                    }))
                    .unwrap_or_else(|payload| {
                        let warning = format!(
                            "reduction of finding {:?} panicked ({}); \
                             recording it as irreducible and continuing",
                            finding.signature,
                            crate::orchestrate::panic_message(payload.as_ref())
                        );
                        telemetry.event(names::REDUCE_PANICKED, &warning);
                        warnings.lock().expect("poisoned").push((i, warning));
                        None
                    });
                    if let Some(journal) = journal {
                        let frame = encode_reduced(i, &finding.signature, &witness);
                        if let Err(e) = journal.lock().expect("poisoned").append(&frame) {
                            failure.lock().expect("poisoned").get_or_insert(e.into());
                            stop.store(true, Ordering::Relaxed);
                            return;
                        }
                    }
                    slots.lock().expect("poisoned")[i] = Some(witness);
                }
            });
        }
    });
    if let Some(e) = failure.into_inner().expect("poisoned") {
        return Err(e);
    }
    if telemetry.enabled() {
        telemetry.span(
            names::REDUCE_PASS,
            &format!("findings={count} workers={workers}"),
            pass_timer.stop_nanos(),
        );
    }
    let mut warnings = warnings.into_inner().expect("poisoned");
    warnings.sort_by_key(|&(i, _)| i);
    Ok(warnings.into_iter().map(|(_, warning)| warning).collect())
}

/// Attaches witnesses in finding order and runs both ground-truth-free
/// dedup folds:
///
/// 1. **fingerprint** — the first finding with a given `(family, kind,
///    fingerprint)` key is the root; later ones get
///    [`Finding::fingerprint_duplicate_of`];
/// 2. **trigger** — findings still unmerged after pass 1 fold into the
///    first root sharing their `(family, kind, trigger)` key, catching
///    cross-file duplicates whose witnesses ddmin to *different* minimal
///    programs of one root cause (different fingerprints, same observed
///    divergence class and bug-site statement shape).
pub(crate) fn attach_and_dedup(
    report: &mut CampaignReport,
    witnesses: Vec<Option<ReducedWitness>>,
) {
    let mut seen: HashMap<(String, FindingKind, String), String> = HashMap::new();
    for (finding, witness) in report.findings.iter_mut().zip(witnesses) {
        finding.reduced = witness;
        finding.fingerprint_duplicate_of = None;
        let Some(reduced) = &finding.reduced else {
            continue;
        };
        let key = (
            finding.compiler.family.to_string(),
            finding.kind,
            reduced.fingerprint.clone(),
        );
        match seen.get(&key) {
            Some(first) if *first != finding.signature => {
                finding.fingerprint_duplicate_of = Some(first.clone());
            }
            Some(_) => {}
            None => {
                seen.insert(key, finding.signature.clone());
            }
        }
    }
    // Second fold: trigger-aware merging of the roots pass 1 left apart.
    let mut trigger_roots: HashMap<(String, FindingKind, String), String> = HashMap::new();
    for finding in report.findings.iter_mut() {
        if finding.fingerprint_duplicate_of.is_some() {
            continue;
        }
        let Some(reduced) = &finding.reduced else {
            continue;
        };
        let key = (
            finding.compiler.family.to_string(),
            finding.kind,
            reduced.trigger.clone(),
        );
        match trigger_roots.get(&key) {
            Some(first) if *first != finding.signature => {
                finding.fingerprint_duplicate_of = Some(first.clone());
            }
            Some(_) => {}
            None => {
                trigger_roots.insert(key, finding.signature.clone());
            }
        }
    }
}

impl CampaignReport {
    /// Findings surviving the fingerprint dedup pass — the corrected
    /// root-cause count the paper reaches by manual triage (Table 3/4's
    /// "Duplicate" folding), derived here without ground-truth bug ids.
    pub fn corrected_findings(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.fingerprint_duplicate_of.is_none())
    }

    /// Number of findings the fingerprint pass folded into an earlier
    /// root cause.
    pub fn fingerprint_duplicates(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.fingerprint_duplicate_of.is_some())
            .count()
    }

    /// Mean shrink ratio (raw reproducer bytes / witness bytes) over all
    /// reduced findings; `None` until the reduction stage ran.
    pub fn mean_shrink_ratio(&self) -> Option<f64> {
        let ratios: Vec<f64> = self
            .findings
            .iter()
            .filter_map(|f| f.reduced.as_ref())
            .map(ReducedWitness::shrink_ratio)
            .collect();
        if ratios.is_empty() {
            return None;
        }
        Some(ratios.iter().sum::<f64>() / ratios.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Campaign, CampaignConfig};
    use spe_core::Algorithm;
    use spe_corpus::seeds;
    use spe_simcc::CompilerId;

    fn run_campaign(files: &[spe_corpus::TestFile], config: &CampaignConfig) -> CampaignReport {
        Campaign::default().run(files, config)
    }

    fn reduce_findings(report: &mut CampaignReport, options: &ReductionOptions, workers: usize) {
        let campaign = Campaign {
            workers,
            ..Campaign::default()
        };
        let warnings = campaign.reduce(report, options, None).expect("no journal");
        assert!(warnings.is_empty(), "no reducer panics: {warnings:?}");
    }

    fn campaign() -> (CampaignReport, CampaignConfig) {
        let config = CampaignConfig {
            compilers: vec![
                Compiler::new(CompilerId::gcc(700), 0),
                Compiler::new(CompilerId::gcc(700), 2),
                Compiler::new(CompilerId::gcc(700), 3),
                Compiler::new(CompilerId::clang(390), 3),
            ],
            budget: 200,
            algorithm: Algorithm::Paper,
            check_wrong_code: true,
            fuel: 20_000,
        };
        (run_campaign(&seeds::all(), &config), config)
    }

    #[test]
    fn every_finding_gains_a_reproducing_witness() {
        let (mut report, config) = campaign();
        assert!(!report.findings.is_empty());
        reduce_findings(
            &mut report,
            &ReductionOptions {
                fuel: config.fuel,
                ..ReductionOptions::default()
            },
            4,
        );
        for f in &report.findings {
            let reduced = f.reduced.as_ref().unwrap_or_else(|| {
                panic!("finding {:?} has no witness", f.signature);
            });
            assert!(reduced.reduced_bytes <= reduced.original_bytes);
            let p = spe_minic::parse(&reduced.source).expect("witness parses");
            spe_minic::analyze(&p).expect("witness scope-checks");
            assert!(
                reproduces(f, &p, config.fuel),
                "witness for {:?} no longer reproduces:\n{}",
                f.signature,
                reduced.source
            );
        }
    }

    #[test]
    fn fingerprint_pass_merges_cross_opt_duplicates() {
        // gcc trunk at -O2 and -O3 exposes the same alias bug through the
        // same variant, under two different wrong-code signatures; the
        // fingerprint pass must fold them without looking at bug ids.
        let (mut report, config) = campaign();
        reduce_findings(
            &mut report,
            &ReductionOptions {
                fuel: config.fuel,
                ..ReductionOptions::default()
            },
            2,
        );
        let merged: Vec<&Finding> = report
            .findings
            .iter()
            .filter(|f| f.fingerprint_duplicate_of.is_some())
            .collect();
        assert!(
            !merged.is_empty(),
            "expected at least one fingerprint merge"
        );
        for f in &merged {
            let first_sig = f.fingerprint_duplicate_of.as_ref().expect("merged");
            assert_ne!(
                first_sig, &f.signature,
                "fingerprint dedup merges distinct-signature findings"
            );
            // The merge agrees with the ground-truth registry.
            let root = report
                .findings
                .iter()
                .find(|g| &g.signature == first_sig)
                .expect("root finding exists");
            assert_eq!(root.bug_id, f.bug_id, "merge matches ground truth");
        }
        assert!(report.corrected_findings().count() < report.findings.len());
    }

    #[test]
    fn trigger_fold_merges_cross_file_duplicates_with_distinct_witnesses() {
        // The fingerprint pass cannot fold two findings whose witnesses
        // ddmin to *different* minimal programs of one root cause (the
        // ROADMAP's remaining reduction refinement). The trigger-aware
        // fold must: on these corpora a bug reached from two files
        // reduces to structurally distinct witnesses that share their
        // divergence class + statement shape. Every fold must still
        // agree with the ground-truth registry.
        use spe_corpus::{generate, CorpusConfig};
        for seed in [2u64, 4] {
            let files = generate(&CorpusConfig { files: 6, seed });
            let config = CampaignConfig {
                compilers: vec![
                    Compiler::new(CompilerId::gcc(700), 0),
                    Compiler::new(CompilerId::gcc(700), 2),
                    Compiler::new(CompilerId::gcc(700), 3),
                    Compiler::new(CompilerId::clang(390), 3),
                ],
                budget: 80,
                algorithm: Algorithm::Paper,
                check_wrong_code: true,
                fuel: 15_000,
            };
            let mut report = run_campaign(&files, &config);
            reduce_findings(
                &mut report,
                &ReductionOptions {
                    fuel: config.fuel,
                    ..ReductionOptions::default()
                },
                4,
            );
            let mut cross_file_distinct_witness = 0;
            for f in &report.findings {
                let Some(root_sig) = &f.fingerprint_duplicate_of else {
                    continue;
                };
                let root = report
                    .findings
                    .iter()
                    .find(|g| &g.signature == root_sig)
                    .expect("root exists");
                assert_eq!(f.bug_id, root.bug_id, "fold agrees with ground truth");
                let (a, b) = (
                    f.reduced.as_ref().expect("witness"),
                    root.reduced.as_ref().expect("witness"),
                );
                if f.file != root.file && a.fingerprint != b.fingerprint {
                    assert_eq!(a.trigger, b.trigger, "folded via the trigger key");
                    cross_file_distinct_witness += 1;
                }
            }
            assert!(
                cross_file_distinct_witness >= 1,
                "seed {seed}: no cross-file distinct-witness fold happened"
            );
        }
    }

    #[test]
    fn reduction_is_identical_for_every_worker_count() {
        let (report, config) = campaign();
        let options = ReductionOptions {
            fuel: config.fuel,
            ..ReductionOptions::default()
        };
        let mut serial = report.clone();
        reduce_findings(&mut serial, &options, 1);
        for workers in [2usize, 4, 16] {
            let mut parallel = report.clone();
            reduce_findings(&mut parallel, &options, workers);
            assert_eq!(parallel, serial, "{workers} workers diverged");
        }
    }

    #[test]
    fn witnesses_shrink_substantially() {
        let (mut report, config) = campaign();
        reduce_findings(
            &mut report,
            &ReductionOptions {
                fuel: config.fuel,
                ..ReductionOptions::default()
            },
            4,
        );
        let mean = report.mean_shrink_ratio().expect("reduced");
        assert!(mean >= 1.5, "mean shrink on tiny seed files: {mean:.2}");
    }
}
