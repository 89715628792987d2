//! Telemetry determinism suite: every sink is write-only, so an
//! instrumented campaign must produce a `CampaignReport` byte-identical
//! to the same campaign under the default `NullSink` — at every worker
//! count, and across a kill/resume cycle. Each check also asserts the
//! recorder actually observed the run (non-zero variant counter), so a
//! silently-uninstalled sink cannot fake a pass.
//!
//! The global sink is process-wide state, so every test (and every
//! proptest case) serializes through one mutex.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use spe::corpus::{generate, seeds, CorpusConfig};
use spe::harness::checkpoint::{
    resume_campaign, run_campaign_checkpointed, CampaignStatus, CheckpointOptions,
};
use spe::harness::{run_campaign_parallel, CampaignConfig, CampaignReport};
use spe::simcc::{Compiler, CompilerId};
use spe::telemetry::{names, Recorder};

/// Serializes access to the process-wide telemetry sink.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn campaign_config() -> CampaignConfig {
    CampaignConfig {
        compilers: vec![
            Compiler::new(CompilerId::gcc(485), 0),
            Compiler::new(CompilerId::gcc(485), 3),
            Compiler::new(CompilerId::clang(360), 3),
        ],
        budget: 20,
        algorithm: spe::core::Algorithm::Paper,
        check_wrong_code: false,
        fuel: 10_000,
    }
}

fn workload(seed: u64) -> Vec<spe::corpus::TestFile> {
    let mut files = seeds::all();
    files.extend(generate(&CorpusConfig { files: 6, seed }));
    files
}

/// Runs `f` with a fresh global [`Recorder`] installed, restoring the
/// previous sink afterwards; returns the result and the recorder.
fn with_recorder<T>(f: impl FnOnce() -> T) -> (T, Arc<Recorder>) {
    let recorder = Arc::new(Recorder::new());
    let prev = spe::telemetry::install_recorder(recorder.clone(), Vec::new());
    let out = f();
    spe::telemetry::uninstall_recorder(prev);
    (out, recorder)
}

#[test]
fn instrumented_reports_are_byte_identical_at_every_worker_count() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let files = workload(7);
    let config = campaign_config();
    let baseline = run_campaign_parallel(&files, &config, 1);
    for workers in [1usize, 2, 4, 16] {
        let (instrumented, recorder) =
            with_recorder(|| run_campaign_parallel(&files, &config, workers));
        assert_eq!(
            instrumented, baseline,
            "{workers}-worker instrumented report diverged from the NullSink baseline"
        );
        assert!(
            recorder.counter_value(names::VARIANTS) > 0,
            "{workers}-worker run recorded no variants — instrumentation not live"
        );
    }
}

#[test]
fn instrumented_kill_resume_cycle_is_byte_identical() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let files = workload(11);
    let config = campaign_config();
    let reference = run_campaign_parallel(&files, &config, 2);
    let resume_instrumented = |workers: usize| -> (CampaignReport, Arc<Recorder>) {
        let path = std::env::temp_dir().join(format!(
            "spe-telemetry-identity-{}-{workers}.journal",
            std::process::id()
        ));
        let (report, recorder) = with_recorder(|| {
            let stop_after =
                (reference.variants_tested / config.compilers.len().max(1) as u64 / 2).max(1);
            let status = run_campaign_checkpointed(
                &files,
                &config,
                workers,
                &path,
                &CheckpointOptions {
                    every: 16,
                    stop_after: Some(stop_after),
                },
            )
            .expect("journal is writable");
            assert!(
                matches!(status, CampaignStatus::Interrupted),
                "kill budget must preempt the campaign"
            );
            resume_campaign(&path, workers, &CheckpointOptions::default())
                .expect("journal resumes")
                .into_report()
                .expect("resume completes")
        });
        std::fs::remove_file(&path).ok();
        (report, recorder)
    };
    for workers in [1usize, 4] {
        let (resumed, recorder) = resume_instrumented(workers);
        assert_eq!(
            resumed, reference,
            "{workers}-worker instrumented kill/resume diverged"
        );
        assert!(
            recorder.counter_value(names::VARIANTS) > 0,
            "kill/resume cycle recorded no variants"
        );
        assert!(
            recorder.counter_value(names::JOURNAL_APPENDS) > 0,
            "checkpointed run recorded no journal appends"
        );
    }
}

/// A wrong-code campaign on which every verdict class occurs.
fn attribution_config() -> CampaignConfig {
    CampaignConfig {
        compilers: vec![
            Compiler::new(CompilerId::gcc(700), 0),
            Compiler::new(CompilerId::gcc(700), 3),
            Compiler::new(CompilerId::clang(390), 3),
        ],
        budget: 200,
        algorithm: spe::core::Algorithm::Paper,
        check_wrong_code: true,
        fuel: 10_000,
    }
}

/// Per-verdict attribution survives the incremental (batched) oracle
/// path: the default campaign entry points run on the splice cache, yet
/// every variant must still land exactly one sample in its verdict's
/// `oracle_ns.*` histogram. The workload is sized so each verdict class
/// actually occurs, pinning the classification (not just the totals),
/// and the sample/counter arithmetic proves one-sample-per-variant:
/// every sample except `unsupported` tested all configurations.
#[test]
fn incremental_oracle_attribution_is_per_variant() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let files = workload(7);
    let config = attribution_config();
    let (_report, recorder) = with_recorder(|| run_campaign_parallel(&files, &config, 4));
    let snap = recorder.snapshot();
    let count = |verdict: &str| {
        snap.histograms
            .get(&format!("{}{verdict}", names::ORACLE_NS_PREFIX))
            .map_or(0, |h| h.count)
    };
    for verdict in ["clean", "crash", "wrong_code", "ub_skip"] {
        assert!(count(verdict) > 0, "verdict {verdict} never observed");
    }
    let samples: u64 = names::ORACLE_VERDICTS.iter().map(|v| count(v)).sum();
    let untested = count("unsupported");
    assert_eq!(
        recorder.counter_value(names::VARIANTS),
        (samples - untested) * config.compilers.len() as u64,
        "histogram samples must account for every variant exactly once"
    );
    // The default path is incremental: delta splices must dominate, with
    // one full (re)splice per (file, shard) job, and every spliced
    // variant is one verdict sample (no fallback on this corpus).
    let hits = recorder.counter_value(names::ORACLE_SPLICE_HITS);
    let misses = recorder.counter_value(names::ORACLE_SPLICE_MISSES);
    assert!(
        hits > misses,
        "delta splices must dominate: {hits} vs {misses}"
    );
    assert_eq!(
        hits + misses,
        samples,
        "every sample came off the splice cache"
    );
    assert!(
        recorder.counter_value(names::ORACLE_PIPELINE_MEMO_HITS) > 0,
        "same-opt configurations never shared a pipeline run"
    );
    assert!(
        recorder.counter_value(names::ORACLE_REFERENCE_RUNS) > 0,
        "the reference interpreter never ran"
    );
    assert!(
        recorder.counter_value(names::ORACLE_REFERENCE_MEMO_HITS) > 0,
        "no variant's reference came from the job's reference memo"
    );
    let exhausted = recorder.counter_value(names::ORACLE_REFERENCE_FUEL_EXHAUSTED);
    let runs = recorder.counter_value(names::ORACLE_REFERENCE_RUNS);
    assert!(
        exhausted <= runs,
        "{exhausted} fuel-exhausted reference runs out of {runs}"
    );
    // On this corpus each job lowers -O0 in full at most once, for its
    // template, and re-aims it for every later variant: no skeleton
    // variant needs a relowering.
    let patched = recorder.counter_value(names::ORACLE_O0_PATCHED);
    let lowered = recorder.counter_value(names::ORACLE_O0_LOWERED);
    let jobs = recorder.counter_value(names::ORCH_JOBS_DONE);
    assert!(
        patched > lowered,
        "-O0 images patched: {patched} vs {lowered}"
    );
    assert!(
        lowered <= jobs,
        "-O0 lowered in full {lowered} times over {jobs} jobs"
    );
}

/// Telemetry counts what fired, not what a job kept: a job stores only
/// its first candidate per (family, signature), and which candidates
/// those are depends on how files are cut into jobs. The candidate
/// counter and every verdict histogram must not.
#[test]
fn fired_candidates_and_verdicts_do_not_depend_on_the_job_decomposition() {
    let _guard = TELEMETRY_LOCK.lock().unwrap();
    let files = workload(7);
    let config = attribution_config();
    let counts = |workers: usize| {
        let (_report, recorder) = with_recorder(|| run_campaign_parallel(&files, &config, workers));
        let snap = recorder.snapshot();
        let verdicts: Vec<u64> = names::ORACLE_VERDICTS
            .iter()
            .map(|v| {
                snap.histograms
                    .get(&format!("{}{v}", names::ORACLE_NS_PREFIX))
                    .map_or(0, |h| h.count)
            })
            .collect();
        (recorder.counter_value(names::CANDIDATES), verdicts)
    };
    let serial = counts(1);
    assert!(serial.0 > 0, "no candidate fired");
    for workers in [2usize, 4] {
        assert_eq!(
            counts(workers),
            serial,
            "{workers} workers: (campaign.candidates, oracle_ns counts) moved"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For random corpus seeds and worker widths, instrumentation never
    /// changes the report: the recorder is write-only by construction
    /// and this pins it.
    #[test]
    fn instrumentation_never_perturbs_reports(seed in 0u64..5_000, workers in 1usize..6) {
        let _guard = TELEMETRY_LOCK.lock().unwrap();
        let files = workload(seed);
        let config = campaign_config();
        let baseline = run_campaign_parallel(&files, &config, 1);
        let (instrumented, recorder) =
            with_recorder(|| run_campaign_parallel(&files, &config, workers));
        prop_assert_eq!(instrumented, baseline);
        prop_assert!(recorder.counter_value(names::VARIANTS) > 0);
    }
}
