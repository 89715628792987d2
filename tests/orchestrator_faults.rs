//! Injected-fault survival suite for the supervised orchestrator
//! (`DESIGN.md` §11): worker panics, journal append failures (ENOSPC /
//! EIO), kills during compaction, torn tails, and mid-journal bit
//! flips. Every fault must be absorbed — quarantined, retried, or
//! degraded — and the final report must stay **byte-identical** to the
//! matching fault-free run, across kill/resume histories and worker
//! counts.
//!
//! Identity under panics is per job decomposition: a panicking variant
//! quarantines the rest of its (file, shard) job, and the shard count
//! is pinned to the worker count the journal was created with. The
//! reference for each worker count is therefore the in-memory parallel
//! run at that same count (which shares the decomposition), not the
//! serial run.

use proptest::prelude::*;
use spe::corpus::{generate, seeds, CorpusConfig, TestFile};
use spe::harness::checkpoint::{
    compact_journal, compact_journal_abandoned, reduce_findings_checkpointed, resume_campaign,
    run_campaign_checkpointed, CampaignStatus, CheckpointError, CheckpointOptions,
};
use spe::harness::fleet::{merge_journals, FleetError};
use spe::harness::reduction::ReductionOptions;
use spe::harness::{
    run_campaign_parallel, Campaign, CampaignConfig, CampaignReport, FaultPolicy, FindingKind,
    FleetPlan, Oracle,
};
use spe::persist::{CorruptionReason, Decoder, Encoder, Journal, JournalError, JournalIter};
use spe::simcc::backend::{
    BackendError, CompilerBackend, SimccBackend, SIMCC_BACKEND_ID, SIMCC_CONFIG_HASH,
};
use spe::simcc::{Compiler, CompilerId, Observation};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn config() -> CampaignConfig {
    CampaignConfig {
        compilers: vec![
            Compiler::new(CompilerId::gcc(700), 0),
            Compiler::new(CompilerId::gcc(700), 3),
            Compiler::new(CompilerId::clang(390), 3),
        ],
        budget: 40,
        algorithm: spe::core::Algorithm::Paper,
        check_wrong_code: true,
        fuel: 10_000,
    }
}

fn journal_path(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("orchestrator-faults");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir.join(format!("{tag}.journal"))
}

fn resume_to_completion(path: &Path, workers: usize) -> CampaignReport {
    for _ in 0..32 {
        match resume_campaign(
            path,
            workers,
            &CheckpointOptions {
                every: 8,
                stop_after: None,
            },
        )
        .expect("resume")
        {
            CampaignStatus::Complete(report) => return report,
            CampaignStatus::Interrupted => {}
        }
    }
    panic!("campaign did not complete within 32 resumes");
}

// ---------------------------------------------------------------------
// Worker panics.
// ---------------------------------------------------------------------

/// Whether a rendered variant is poisoned: a pure function of the
/// source bytes, so the panic fires at the same variant on every run,
/// every worker count, and every resume — the quarantine must be
/// deterministic for byte-identity to hold.
fn poisoned(source: &str) -> bool {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in source.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h.is_multiple_of(31)
}

/// An in-process backend that panics on poisoned variants and defers to
/// [`SimccBackend`] on everything else.
struct PanickyBackend;

impl CompilerBackend for PanickyBackend {
    fn id(&self) -> &str {
        "panicky"
    }

    fn config_hash(&self) -> u64 {
        7
    }

    fn observe_config(
        &self,
        source: &str,
        cc: Compiler,
        wrong_code_fuel: Option<u64>,
    ) -> Result<Observation, BackendError> {
        assert!(!poisoned(source), "injected panic: poisoned variant");
        SimccBackend.observe_config(source, cc, wrong_code_fuel)
    }
}

#[test]
fn panicking_jobs_are_quarantined_and_survive_kill_resume() {
    let files = seeds::all();
    let config = config();
    let panicky = |workers| Campaign {
        oracle: Oracle::Backend(&PanickyBackend),
        workers,
        policy: FaultPolicy::default(),
    };
    for workers in [1usize, 2, 4, 16] {
        // The in-memory parallel run shares the checkpointed run's job
        // decomposition (shards_per_file = workers), so it is the exact
        // reference for this worker count.
        let reference = panicky(workers).run(&files, &config);
        let panicked = reference
            .findings
            .iter()
            .filter(|f| f.kind == FindingKind::JobPanicked)
            .count();
        assert!(
            panicked > 0,
            "the poisoned predicate must fire at {workers} workers for this test to mean anything"
        );
        // Each quarantine reproduces the variant its panic hit.
        for f in &reference.findings {
            if f.kind == FindingKind::JobPanicked {
                assert!(
                    poisoned(&f.reproducer),
                    "{workers} workers: {} quarantined a variant that does not panic",
                    f.signature
                );
            }
        }

        // Uninterrupted checkpointed run: same quarantine, same report.
        let path = journal_path(&format!("panic-uninterrupted-{workers}"));
        let outcome = panicky(workers)
            .run_journaled(
                &files,
                &config,
                &path,
                &CheckpointOptions {
                    every: 8,
                    stop_after: None,
                },
                None,
            )
            .expect("checkpointed run");
        assert!(outcome.warnings.is_empty(), "no journal faults injected");
        let report = outcome.into_report().expect("completed");
        assert_eq!(report, reference, "{workers} workers: quarantine diverged");

        // Replaying the finished journal decodes the quarantine markers
        // from disk — the JobPanicked finding round-trips.
        let replayed = panicky(workers)
            .resume(&path, &CheckpointOptions::default())
            .expect("replay")
            .into_report()
            .expect("finished journal replays");
        assert_eq!(replayed, reference, "{workers} workers: replay diverged");
        std::fs::remove_file(&path).ok();

        // Kill mid-campaign, then resume (under a rotated worker count;
        // the decomposition is pinned by the manifest): the panics
        // re-fire at the same variants and the report cannot drift.
        let path = journal_path(&format!("panic-killed-{workers}"));
        let status = panicky(workers)
            .run_journaled(
                &files,
                &config,
                &path,
                &CheckpointOptions {
                    every: 4,
                    stop_after: Some(25),
                },
                None,
            )
            .expect("checkpointed run")
            .status;
        let resume_workers = [2usize, 4, 16, 1][[1usize, 2, 4, 16]
            .iter()
            .position(|&w| w == workers)
            .expect("worker count in table")];
        let report = match status {
            CampaignStatus::Complete(r) => r,
            CampaignStatus::Interrupted => {
                let mut status = panicky(resume_workers)
                    .resume(
                        &path,
                        &CheckpointOptions {
                            every: 4,
                            stop_after: None,
                        },
                    )
                    .expect("resume")
                    .status;
                while status.is_interrupted() {
                    status = panicky(resume_workers)
                        .resume(
                            &path,
                            &CheckpointOptions {
                                every: 4,
                                stop_after: None,
                            },
                        )
                        .expect("resume")
                        .status;
                }
                status.into_report().expect("complete")
            }
        };
        assert_eq!(report, reference, "{workers} workers: kill/resume diverged");
        std::fs::remove_file(&path).ok();
    }
}

/// Observes variants exactly like [`SimccBackend`] but panics on every
/// single-configuration observation — the reduction stage's probe.
struct PanickyReducerBackend;

impl CompilerBackend for PanickyReducerBackend {
    fn id(&self) -> &str {
        "panicky-reducer"
    }

    fn config_hash(&self) -> u64 {
        3
    }

    fn observe_config(
        &self,
        _source: &str,
        _cc: Compiler,
        _wrong_code_fuel: Option<u64>,
    ) -> Result<Observation, BackendError> {
        panic!("injected panic: reduction probe")
    }

    fn observe_variant(
        &self,
        source: &str,
        compilers: &[Compiler],
        wrong_code_fuel: Option<u64>,
    ) -> Result<Vec<Observation>, BackendError> {
        SimccBackend.observe_variant(source, compilers, wrong_code_fuel)
    }
}

#[test]
fn panicking_reducers_leave_findings_irreducible_with_a_warning_each() {
    let files = seeds::all();
    let config = config();
    let campaign = Campaign {
        oracle: Oracle::Backend(&PanickyReducerBackend),
        workers: 4,
        ..Campaign::default()
    };
    let mut report = campaign.run(&files, &config);
    assert!(!report.findings.is_empty(), "the seeds expose findings");
    let options = ReductionOptions {
        fuel: config.fuel,
        ..ReductionOptions::default()
    };
    let warnings = campaign
        .reduce(&mut report, &options, None)
        .expect("an in-memory reduction has no journal to fail");
    // One warning per finding, in finding order, whatever the worker
    // that reduced it.
    assert_eq!(warnings.len(), report.findings.len(), "{warnings:?}");
    for (warning, finding) in warnings.iter().zip(&report.findings) {
        assert!(
            warning.contains("panicked") && warning.contains(&finding.signature),
            "warning names the finding: {warning}"
        );
        assert!(finding.reduced.is_none(), "recorded as irreducible");
    }
}

/// A file whose one `int` type group has 130 variables: wider than the
/// 128-variable constraint masks the canonical and orbit algorithms
/// build, so preparing its variant space panics.
fn wide_type_group_file() -> TestFile {
    let mut source = String::new();
    for i in 0..130 {
        source.push_str(&format!("int g{i};\n"));
    }
    source.push_str("int main() { g0 = g1 + g129; return g0; }\n");
    TestFile {
        name: "wide.c".into(),
        source,
    }
}

#[test]
fn a_file_that_panics_in_preparation_is_quarantined_per_job() {
    let normal = seeds::all()
        .into_iter()
        .find(|f| f.name == "seeds/figure12b.c")
        .expect("seed");
    let wide = wide_type_group_file();
    for algorithm in [spe::core::Algorithm::Canonical, spe::core::Algorithm::Orbit] {
        let config = CampaignConfig {
            algorithm,
            ..config()
        };
        for workers in [1usize, 2, 4] {
            let campaign = Campaign {
                workers,
                ..Campaign::default()
            };
            let alone = campaign.run(std::slice::from_ref(&normal), &config);
            // The normal file's jobs run first, so a worker reaches the
            // wide file with a rendered variant still in its buffer.
            let mixed = campaign.run(&[normal.clone(), wide.clone()], &config);
            let (quarantined, rest): (Vec<_>, Vec<_>) = mixed
                .findings
                .into_iter()
                .partition(|f| f.file == wide.name);
            let what = format!("{algorithm:?} at {workers} workers");
            assert_eq!(quarantined.len(), workers, "{what}: one per job");
            for f in &quarantined {
                assert_eq!(f.kind, FindingKind::JobPanicked, "{what}");
                assert!(f.reproducer.is_empty(), "{what}: {}", f.reproducer);
            }
            let rest = CampaignReport {
                findings: rest,
                files_processed: mixed.files_processed,
                variants_tested: mixed.variants_tested,
                variants_ub_skipped: mixed.variants_ub_skipped,
            };
            assert_eq!(rest, alone, "{what}: the normal file's report moved");
        }
    }
}

// ---------------------------------------------------------------------
// Journal append faults.
// ---------------------------------------------------------------------

#[test]
fn exhausted_append_retries_degrade_to_checkpointless_completion() {
    let files = seeds::all();
    let config = config();
    let reference = run_campaign_parallel(&files, &config, 2);
    let tag = "append-degrade";
    let path = journal_path(tag);
    // Arm far more ENOSPC failures than the policy will retry: every
    // checkpoint append fails, the sink degrades once, and the campaign
    // must still complete in memory with an identical report.
    spe::persist::journal::faults::inject_append_failures(tag, 10_000, 28);
    let outcome = Campaign {
        workers: 2,
        policy: FaultPolicy {
            checkpoint_interval: None,
            max_append_retries: 2,
            retry_backoff: Duration::from_millis(1),
        },
        ..Campaign::default()
    }
    .run_journaled(
        &files,
        &config,
        &path,
        &CheckpointOptions {
            every: 2,
            stop_after: None,
        },
        None,
    )
    .expect("journal creation itself is not fault-injected");
    assert_eq!(
        outcome.warnings.len(),
        1,
        "degradation is recorded exactly once: {:?}",
        outcome.warnings
    );
    assert!(
        outcome.warnings[0].contains("checkpointing disabled"),
        "warning names the degradation: {}",
        outcome.warnings[0]
    );
    assert!(
        outcome.warnings[0].contains(tag),
        "warning carries the journal path: {}",
        outcome.warnings[0]
    );
    let report = outcome.into_report().expect("degraded run still completes");
    assert_eq!(report, reference, "degradation must not change the report");

    // The journal kept its last committed state (here: just the
    // manifest) and stays resumable; the still-armed injections make the
    // resume degrade the same way, and it recomputes everything.
    let resumed = Campaign {
        workers: 2,
        policy: FaultPolicy {
            checkpoint_interval: None,
            max_append_retries: 0,
            retry_backoff: Duration::from_millis(1),
        },
        ..Campaign::default()
    }
    .resume(
        &path,
        &CheckpointOptions {
            every: 2,
            stop_after: None,
        },
    )
    .expect("resume");
    assert_eq!(resumed.warnings.len(), 1, "resume degrades once too");
    assert_eq!(
        resumed.into_report().expect("resume completes"),
        reference,
        "degraded resume diverged"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn transient_append_faults_are_retried_without_a_trace() {
    let files = seeds::all();
    let config = config();
    let reference = run_campaign_parallel(&files, &config, 2);
    let tag = "append-transient";
    let path = journal_path(tag);
    // One EIO burst, shorter than the retry budget: the append must
    // succeed on retry and leave a complete journal behind.
    spe::persist::journal::faults::inject_append_failures(tag, 1, 5);
    let outcome = Campaign {
        workers: 2,
        policy: FaultPolicy {
            checkpoint_interval: None,
            max_append_retries: 4,
            retry_backoff: Duration::from_millis(1),
        },
        ..Campaign::default()
    }
    .run_journaled(
        &files,
        &config,
        &path,
        &CheckpointOptions {
            every: 4,
            stop_after: None,
        },
        None,
    )
    .expect("checkpointed run");
    assert!(
        outcome.warnings.is_empty(),
        "a retried transient fault is not a degradation: {:?}",
        outcome.warnings
    );
    let report = outcome.into_report().expect("completed");
    assert_eq!(report, reference);
    // The journal is complete: replaying it recomputes nothing.
    let replayed = resume_to_completion(&path, 2);
    assert_eq!(replayed, reference, "post-retry journal replay diverged");
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// Journal corruption: bit flips and torn tails.
// ---------------------------------------------------------------------

/// Byte offsets of the header frame's end and the first record frame's
/// end in the journal at `path`.
fn first_frame_offsets(path: &Path) -> (u64, u64) {
    let mut iter = JournalIter::open(path).expect("open");
    let after_header = iter.valid_len();
    iter.next().expect("at least one record").expect("valid");
    (after_header, iter.valid_len())
}

#[test]
fn mid_journal_bit_flips_are_triaged_and_resume_recovers_the_prefix() {
    let files = seeds::all();
    let config = config();
    let reference = Campaign::default().run(&files, &config);
    // Frame layout: [u32 length | u64 checksum | payload] = 12 header
    // bytes, then the payload.
    const FRAME_HEADER: u64 = 12;

    // Flip a payload byte of the *second* record: the first record
    // survives, everything after the flip is dropped, and the resume
    // recomputes exactly the lost work.
    let path = journal_path("bit-flip-payload");
    let status = run_campaign_checkpointed(
        &files,
        &config,
        4,
        &path,
        &CheckpointOptions {
            every: 1,
            stop_after: Some(40),
        },
    )
    .expect("checkpointed run");
    assert!(status.is_interrupted());
    let (_, first_record_end) = first_frame_offsets(&path);
    let mut bytes = std::fs::read(&path).expect("journal bytes");
    let flip = usize::try_from(first_record_end + FRAME_HEADER + 2).expect("offset fits");
    assert!(bytes.len() > flip + 1, "journal long enough to flip");
    bytes[flip] ^= 0x01;
    std::fs::write(&path, &bytes).expect("write flipped journal");

    let mut iter = JournalIter::open(&path).expect("open");
    for record in &mut iter {
        record.expect("prefix records stay valid");
    }
    let corruption = iter.corruption().expect("flip detected");
    assert_eq!(
        corruption.offset, first_record_end,
        "triage points at the flipped frame"
    );
    assert_eq!(corruption.reason, CorruptionReason::ChecksumMismatch);
    assert!(iter.truncated_tail(), "bytes after the flip are dropped");
    drop(iter);
    let report = resume_to_completion(&path, 4);
    assert_eq!(report, reference, "bit-flipped journal resume diverged");
    std::fs::remove_file(&path).ok();

    // Flip the high byte of a frame *length* field instead: triaged as
    // an oversized length, same recovery.
    let path = journal_path("bit-flip-length");
    let status = run_campaign_checkpointed(
        &files,
        &config,
        4,
        &path,
        &CheckpointOptions {
            every: 1,
            stop_after: Some(40),
        },
    )
    .expect("checkpointed run");
    assert!(status.is_interrupted());
    let (after_header, _) = first_frame_offsets(&path);
    let mut bytes = std::fs::read(&path).expect("journal bytes");
    let flip = usize::try_from(after_header + 3).expect("offset fits");
    bytes[flip] |= 0xff; // length's most significant byte: > 1 GiB cap
    std::fs::write(&path, &bytes).expect("write flipped journal");

    let mut iter = JournalIter::open(&path).expect("open");
    assert!(iter.next().is_none(), "first record is now invalid");
    let corruption = iter.corruption().expect("flip detected");
    assert_eq!(corruption.offset, after_header);
    assert!(
        matches!(corruption.reason, CorruptionReason::OversizedLength(_)),
        "length flips triage as oversized: {:?}",
        corruption.reason
    );
    drop(iter);
    let report = resume_to_completion(&path, 4);
    assert_eq!(report, reference, "length-flipped journal resume diverged");
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// Crafted journals: untrusted bytes give typed errors, never panics.
// ---------------------------------------------------------------------

/// A journal manifest in the `DESIGN.md` §9 schema, hand-encoded so it
/// can hold bytes no build writes: one gcc-sim 7.0 configuration at
/// optimization level `opt`, the paper seeds at `shards_per_file` shards
/// per file, and the fleet trailer of host 0 in a one-host fleet (so
/// resume, compaction and merge all accept the journal's shape).
fn crafted_manifest(opt: u8, shards_per_file: usize) -> Vec<u8> {
    let files = seeds::all();
    let mut enc = Encoder::new();
    enc.usize(1).str("gcc-sim").u32(700).u8(opt);
    enc.usize(40) // budget
        .u8(0) // algorithm: paper
        .bool(true) // wrong-code checks
        .u64(10_000) // fuel
        .str(SIMCC_BACKEND_ID)
        .u64(SIMCC_CONFIG_HASH)
        .usize(shards_per_file)
        .usize(files.len());
    for file in &files {
        enc.str(&file.name).str(&file.source);
    }
    enc.bool(true).u64(0x0c7a).u32(1).u32(0); // fleet 0x0c7a, host 0 of 1
    enc.finish()
}

/// A `Progress` record for job 0 carrying one crash finding at
/// optimization level `opt`.
fn crafted_progress(opt: u8) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.u8(1) // record tag: progress
        .u32(0) // job
        .u64(1) // high-water mark
        .bool(false) // done
        .bool(true) // file processed
        .u64(1) // variants tested
        .u64(0) // variants skipped for UB
        .usize(1); // candidates
    enc.u8(0) // finding kind: crash
        .str("gcc-sim")
        .u32(700)
        .u8(opt)
        .str("crafted crash")
        .opt_str(None)
        .str("crafted.c")
        .str("int main() { return 0; }");
    enc.finish()
}

#[test]
fn crafted_optimization_levels_are_refused_with_typed_errors() {
    for (tag, manifest, record) in [
        ("crafted-manifest-opt", crafted_manifest(9, 1), None),
        (
            "crafted-finding-opt",
            crafted_manifest(3, 1),
            Some(crafted_progress(9)),
        ),
    ] {
        let path = journal_path(tag);
        let mut journal = Journal::create(&path, &manifest).expect("create");
        if let Some(record) = &record {
            journal.append(record).expect("append");
        }
        drop(journal);
        let refused = |what: &str, result: Result<(), CheckpointError>| match result {
            Err(CheckpointError::Foreign(message)) => {
                assert!(message.contains("-O9"), "{tag} {what}: {message}");
            }
            other => panic!("{tag} {what}: expected a Foreign error, got {other:?}"),
        };
        refused(
            "resume",
            resume_campaign(&path, 2, &CheckpointOptions::default()).map(drop),
        );
        refused("compaction", compact_journal(&path).map(drop));
        match merge_journals(&[&path]) {
            Err(FleetError::Checkpoint(e)) => refused("merge", Err(e)),
            other => panic!("{tag} merge: expected a journal error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn crafted_shard_counts_are_refused_with_typed_errors() {
    // No jobs at all, and more jobs than the frames' u32 job ids can name
    // (an overflowing product among them): each would otherwise complete
    // empty, overflow, or try to allocate per-job state for them all.
    let files = seeds::all().len();
    for shards_per_file in [0usize, 1 << 40, usize::MAX] {
        let path = journal_path(&format!("crafted-shards-{shards_per_file}"));
        Journal::create(&path, &crafted_manifest(3, shards_per_file)).expect("create");
        let decomposition = format!("{files} files × {shards_per_file} shards per file");
        let refused = |what: &str, result: Result<(), CheckpointError>| match result {
            Err(CheckpointError::Foreign(message)) => {
                assert!(message.contains(&decomposition), "{what}: {message}");
            }
            other => panic!("{decomposition} {what}: expected a Foreign error, got {other:?}"),
        };
        refused(
            "resume",
            resume_campaign(&path, 2, &CheckpointOptions::default()).map(drop),
        );
        refused("compaction", compact_journal(&path).map(drop));
        match merge_journals(&[&path]) {
            Err(FleetError::Checkpoint(e)) => refused("merge", Err(e)),
            other => panic!("{decomposition} merge: expected a journal error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}

/// The job of `record` when it is a `Progress` frame that counts
/// variants.
fn counting_job(record: &[u8]) -> Option<u32> {
    let mut dec = Decoder::new(record);
    // Progress layout (`DESIGN.md` §9): tag 1, job, mark, done, file
    // processed, variants tested, ...
    let tag = dec.u8().ok()?;
    let job = dec.u32().ok()?;
    let _ = (dec.u64(), dec.bool(), dec.bool());
    (tag == 1 && dec.u64().ok()? > 0).then_some(job)
}

/// The journal's `Progress` frames that count variants, in order, each
/// with its job.
fn counting_frames(path: &Path) -> Vec<(u32, Vec<u8>)> {
    JournalIter::open(path)
        .expect("open")
        .map(|record| record.expect("valid frame"))
        .filter_map(|record| Some((counting_job(&record)?, record)))
        .collect()
}

/// Appends a byte-for-byte copy of the journal's last `Progress` frame
/// that counts variants; the copy's checksum is valid, and its mark is
/// the mark its job has reached.
fn duplicate_last_progress(path: &Path) {
    let (_, frame) = counting_frames(path)
        .pop()
        .expect("a progress frame counts variants");
    append_record(path, &frame);
}

/// Appends a copy of a job's first counting frame after the job's later
/// ones, so that the copy's mark lies behind the job's.
fn append_an_earlier_progress(path: &Path) {
    let frames = counting_frames(path);
    let (_, earlier) = frames
        .iter()
        .find(|(job, _)| frames.iter().filter(|(other, _)| other == job).count() > 1)
        .expect("a job with two counting frames");
    append_record(path, earlier);
}

#[test]
fn duplicated_progress_frames_are_refused_not_replayed_twice() {
    let files = seeds::all();
    let config = config();
    // A copy of a job's last counting frame would count its variants
    // again at the mark that frame set; a copy of an earlier one would
    // move the job's mark back. Each refusal says which it is.
    let unmoved = "at its unmoved mark";
    let moved_back = "moves its mark back from";
    let refused = |wording: &str, what: &str, result: Result<(), CheckpointError>| match result {
        Err(CheckpointError::Foreign(message)) => {
            assert!(
                message.contains("job ") && message.contains(wording),
                "{what}: {message}"
            );
        }
        other => panic!("{what}: expected a Foreign error, got {other:?}"),
    };
    for (tag, append, wording) in [
        ("duplicated", duplicate_last_progress as fn(&Path), unmoved),
        ("earlier", append_an_earlier_progress, moved_back),
    ] {
        // A killed campaign: replaying the copy would count its variants
        // twice.
        let path = journal_path(&format!("{tag}-progress"));
        let status = run_campaign_checkpointed(
            &files,
            &config,
            1,
            &path,
            &CheckpointOptions {
                every: 8,
                stop_after: Some(60),
            },
        )
        .expect("checkpointed run");
        assert!(status.is_interrupted());
        append(&path);
        refused(
            wording,
            &format!("{tag} resume"),
            resume_campaign(&path, 1, &CheckpointOptions::default()).map(drop),
        );
        refused(
            wording,
            &format!("{tag} compaction"),
            compact_journal(&path).map(drop),
        );
        std::fs::remove_file(&path).ok();

        // A finished fleet host journal.
        let path = journal_path(&format!("{tag}-progress-host"));
        let status = Campaign::default()
            .run_journaled(
                &files,
                &config,
                &path,
                &CheckpointOptions {
                    every: 8,
                    stop_after: None,
                },
                Some((FleetPlan::new(0xd0b1e, 1, 1), 0)),
            )
            .expect("host runs")
            .status;
        assert!(matches!(status, CampaignStatus::Complete(_)));
        append(&path);
        match merge_journals(&[&path]) {
            Err(FleetError::Checkpoint(e)) => refused(wording, &format!("{tag} merge"), Err(e)),
            other => panic!("{tag} merge: expected a journal error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Appends `record` to the journal at `path` as one valid frame.
fn append_record(path: &Path, record: &[u8]) {
    let mut journal = JournalIter::open_locked(path)
        .and_then(JournalIter::into_appender)
        .expect("reopen for appending");
    journal.append(record).expect("append");
}

/// A finished one-host fleet journal of the paper seeds, so that
/// resume, compaction and merge all accept its shape.
fn finished_host_journal(tag: &str) -> PathBuf {
    let path = journal_path(tag);
    let status = Campaign::default()
        .run_journaled(
            &seeds::all(),
            &config(),
            &path,
            &CheckpointOptions {
                every: 8,
                stop_after: None,
            },
            Some((FleetPlan::new(0xf1a1, 1, 1), 0)),
        )
        .expect("host runs")
        .status;
    assert!(matches!(status, CampaignStatus::Complete(_)));
    path
}

#[test]
fn a_frame_after_a_jobs_final_frame_is_refused() {
    // Job 0's mark moves forward and the frame counts one variant, so
    // only the job's finished state can refuse it.
    let mut enc = Encoder::new();
    enc.u8(1) // record tag: progress
        .u32(0) // job
        .u64(1_000_000) // high-water mark
        .bool(false) // done
        .bool(false) // file processed
        .u64(1) // variants tested
        .u64(0) // variants skipped for UB
        .usize(0); // candidates
    let path = finished_host_journal("after-final-frame");
    append_record(&path, &enc.finish());
    let refused = |what: &str, result: Result<(), CheckpointError>| match result {
        Err(CheckpointError::Foreign(message)) => {
            assert!(
                message.contains("job 0") && message.contains("final frame"),
                "{what}: {message}"
            );
        }
        other => panic!("{what}: expected a Foreign error, got {other:?}"),
    };
    refused(
        "resume",
        resume_campaign(&path, 1, &CheckpointOptions::default()).map(drop),
    );
    refused("compaction", compact_journal(&path).map(drop));
    match merge_journals(&[&path]) {
        Err(FleetError::Checkpoint(e)) => refused("merge", Err(e)),
        other => panic!("merge: expected a journal error, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

/// A finished campaign journal of the paper seeds that a journaled
/// reduction has extended with its options record and one witness
/// record per finding; returns the report and the options.
fn reduced_journal(tag: &str) -> (PathBuf, CampaignReport, ReductionOptions) {
    let path = journal_path(tag);
    let report = run_campaign_checkpointed(
        &seeds::all(),
        &config(),
        2,
        &path,
        &CheckpointOptions::default(),
    )
    .expect("campaign")
    .into_report()
    .expect("completed");
    assert!(!report.findings.is_empty(), "the seeds expose findings");
    let options = ReductionOptions {
        fuel: config().fuel,
        ..ReductionOptions::default()
    };
    reduce_findings_checkpointed(&mut report.clone(), &options, 2, &path).expect("reduce");
    (path, report, options)
}

/// Asserts that `result` is a `Foreign` refusal whose message contains
/// `wording`.
fn refused_as(wording: &str, what: &str, result: Result<(), CheckpointError>) {
    match result {
        Err(CheckpointError::Foreign(message)) => {
            assert!(message.contains(wording), "{what}: {message}");
        }
        other => panic!("{what}: expected a Foreign error, got {other:?}"),
    }
}

#[test]
fn a_second_reduction_options_record_is_refused() {
    // Witnesses recorded under the first options must not resume under
    // a second record's, even when the reduction asks for exactly those.
    let (path, report, options) = reduced_journal("second-reduction-options");
    let other = ReductionOptions {
        fuel: options.fuel + 1,
        ..options
    };
    let mut enc = Encoder::new();
    enc.u8(5) // record tag: reduction options
        .u64(other.fuel)
        .usize(other.reduce.max_oracle_calls)
        .usize(other.reduce.max_rounds)
        .bool(other.reduce.canonicalize);
    append_record(&path, &enc.finish());
    let wording = "a second reduction-options record";
    refused_as(
        wording,
        "reduce",
        reduce_findings_checkpointed(&mut report.clone(), &other, 2, &path),
    );
    refused_as(wording, "compaction", compact_journal(&path).map(drop));
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_second_witness_for_one_finding_is_refused() {
    // A byte-for-byte copy of a witness record: its checksum is valid,
    // and replaying it would keep whichever copy came last.
    let (path, report, options) = reduced_journal("second-witness");
    let (finding, record) = JournalIter::open(&path)
        .expect("open")
        .map(|record| record.expect("valid frame"))
        .find_map(|record| {
            let mut dec = Decoder::new(&record);
            // Reduced layout (`DESIGN.md` §9): tag 4, finding, ...
            (dec.u8().ok()? == 4).then_some((dec.u32().ok()?, record))
        })
        .expect("a witness record");
    append_record(&path, &record);
    let wording = format!("a second reduction record for finding {finding}");
    refused_as(
        &wording,
        "reduce",
        reduce_findings_checkpointed(&mut report.clone(), &options, 2, &path),
    );
    refused_as(&wording, "compaction", compact_journal(&path).map(drop));
    std::fs::remove_file(&path).ok();
}

#[test]
fn version_1_journals_are_refused_naming_their_path() {
    let path = finished_host_journal("format-version-1");
    let mut bytes = std::fs::read(&path).expect("journal bytes");
    assert_eq!(
        &bytes[..8],
        b"SPEJRNL\x02",
        "journals are written at version 2"
    );
    bytes[7] = 1;
    std::fs::write(&path, &bytes).expect("write a version-1 journal");
    let refused = |what: &str, result: Result<(), CheckpointError>| match result {
        Err(CheckpointError::Journal(JournalError::BadMagic { path: named })) => {
            assert_eq!(named, path, "{what}");
        }
        other => panic!("{what}: expected BadMagic, got {other:?}"),
    };
    refused(
        "resume",
        resume_campaign(&path, 1, &CheckpointOptions::default()).map(drop),
    );
    refused("compaction", compact_journal(&path).map(drop));
    match merge_journals(&[&path]) {
        Err(FleetError::Checkpoint(e)) => refused("merge", Err(e)),
        other => panic!("merge: expected a journal error, got {other:?}"),
    }
    assert_eq!(
        std::fs::read(&path).expect("journal bytes"),
        bytes,
        "a refused journal is left as it was"
    );
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// Compaction.
// ---------------------------------------------------------------------

fn compaction_tmp(path: &Path) -> PathBuf {
    let mut name = path.file_name().expect("file name").to_os_string();
    name.push(".compact-tmp");
    path.with_file_name(name)
}

#[test]
fn a_kill_during_compaction_leaves_the_original_resumable() {
    let files = seeds::all();
    let config = config();
    let reference = Campaign::default().run(&files, &config);
    let path = journal_path("compact-killed");
    let status = run_campaign_checkpointed(
        &files,
        &config,
        4,
        &path,
        &CheckpointOptions {
            every: 1,
            stop_after: Some(60),
        },
    )
    .expect("checkpointed run");
    assert!(status.is_interrupted());
    let original = std::fs::read(&path).expect("journal bytes");

    // "Kill" the compaction right before its atomic rename: the
    // original is byte-for-byte untouched, only a stray tmp remains.
    let stats = compact_journal_abandoned(&path).expect("abandoned compaction");
    assert_eq!(
        std::fs::read(&path).expect("journal bytes"),
        original,
        "an abandoned compaction must not touch the original"
    );
    let tmp = compaction_tmp(&path);
    assert!(tmp.exists(), "the stray tmp file is left behind");
    assert!(
        stats.frames_after < stats.frames_before,
        "every-variant cadence leaves superseded frames to fold: {stats:?}"
    );
    let report = resume_to_completion(&path, 4);
    assert_eq!(report, reference, "post-abandonment resume diverged");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&tmp).ok();
}

#[test]
fn compaction_folds_frames_and_preserves_resume_identity() {
    let files = seeds::all();
    let config = config();
    let reference = Campaign::default().run(&files, &config);
    let path = journal_path("compact-complete");
    let status = run_campaign_checkpointed(
        &files,
        &config,
        4,
        &path,
        &CheckpointOptions {
            every: 1,
            stop_after: Some(60),
        },
    )
    .expect("checkpointed run");
    assert!(status.is_interrupted());

    let stats = compact_journal(&path).expect("compaction");
    assert!(
        stats.frames_after < stats.frames_before && stats.bytes_after < stats.bytes_before,
        "compaction shrinks an every-variant journal: {stats:?}"
    );
    assert!(
        !compaction_tmp(&path).exists(),
        "the tmp file was renamed over the original"
    );

    // Compaction is idempotent: the live state is already one frame per
    // job, so a second pass folds nothing further.
    let compacted = std::fs::read(&path).expect("journal bytes");
    let again = compact_journal(&path).expect("re-compaction");
    assert_eq!(
        again.frames_after, again.frames_before,
        "a compacted journal is a fixed point: {again:?}"
    );
    // With nothing to fold it is not rewritten at all: even a
    // compaction that stops before its rename leaves no tmp file.
    assert_eq!(again.bytes_after, again.bytes_before, "{again:?}");
    assert_eq!(
        std::fs::read(&path).expect("journal bytes"),
        compacted,
        "a journal with nothing to fold is left untouched"
    );
    let skipped = compact_journal_abandoned(&path).expect("abandoned re-compaction");
    assert_eq!(skipped, again, "the same scan, the same stats");
    assert!(
        !compaction_tmp(&path).exists(),
        "no tmp file is written for a journal with nothing to fold"
    );
    // A torn tail is still cut away by a rewrite.
    let mut torn = compacted.clone();
    torn.extend_from_slice(&[0x2a, 0, 0, 0, 0xde, 0xad]);
    std::fs::write(&path, &torn).expect("write torn journal");
    let cut = compact_journal(&path).expect("compacting a torn tail");
    assert_eq!(cut.frames_after, cut.frames_before, "{cut:?}");
    assert_eq!(
        std::fs::read(&path).expect("journal bytes"),
        compacted,
        "the rewrite drops the torn tail"
    );

    let report = resume_to_completion(&path, 4);
    assert_eq!(report, reference, "post-compaction resume diverged");

    // Compacting the *finished* journal keeps every job's done flag:
    // replay still short-circuits without recomputing.
    let stats = compact_journal(&path).expect("compacting a finished journal");
    assert!(stats.frames_after <= stats.frames_before);
    let replayed = resume_to_completion(&path, 4);
    assert_eq!(replayed, reference, "compacted finished journal diverged");
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_finished_job_is_one_journal_frame() {
    let files = seeds::all();
    let config = config();
    let campaign = Campaign {
        workers: 2,
        policy: FaultPolicy {
            checkpoint_interval: None,
            ..FaultPolicy::default()
        },
        ..Campaign::default()
    };
    let reference = campaign.run(&files, &config);
    let path = journal_path("one-frame-per-job");
    // No job of the paper seeds reaches `every` variants (the budget is
    // 40), so each job writes only its final frame.
    let report = campaign
        .run_journaled(
            &files,
            &config,
            &path,
            &CheckpointOptions {
                every: 1 << 20,
                stop_after: None,
            },
            None,
        )
        .expect("checkpointed run")
        .into_report()
        .expect("completed");
    assert_eq!(report, reference);
    let mut jobs: Vec<u32> = JournalIter::open(&path)
        .expect("open")
        .map(|record| {
            let record = record.expect("valid frame");
            // Progress layout (`DESIGN.md` §9): tag 1, job, mark, done.
            let mut dec = Decoder::new(&record);
            assert!(matches!(dec.u8(), Ok(1)), "a progress frame");
            let job = dec.u32().expect("job");
            dec.u64().expect("mark");
            assert!(matches!(dec.bool(), Ok(true)), "job {job}'s frame is final");
            job
        })
        .collect();
    jobs.sort_unstable();
    let all: Vec<u32> = (0..files.len() as u32 * 2).collect();
    assert_eq!(jobs, all, "exactly one record frame per job");
    let stats = compact_journal(&path).expect("compaction");
    assert_eq!(stats.frames_after, stats.frames_before, "{stats:?}");
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------
// Journal mutations: cuts, lying lengths, trailing garbage, replayed
// frames and bit flips.
// ---------------------------------------------------------------------

/// Frame layout: [u32 length | u64 checksum | payload].
const FRAME_HEADER: u64 = 12;

/// The finished journal the mutation tests start from — the paper seeds
/// on 2 workers, a `Progress` frame every 4 variants — with its bytes,
/// the offset where each record frame starts plus the end offset, and
/// the reference report of the in-memory run.
struct Finished {
    bytes: Vec<u8>,
    boundaries: Vec<u64>,
    reference: CampaignReport,
}

fn finished_journal(tag: &str) -> Finished {
    let files = seeds::all();
    let config = config();
    let path = journal_path(tag);
    let status = run_campaign_checkpointed(
        &files,
        &config,
        2,
        &path,
        &CheckpointOptions {
            every: 4,
            stop_after: None,
        },
    )
    .expect("checkpointed run");
    assert!(matches!(status, CampaignStatus::Complete(_)));
    let mut iter = JournalIter::open(&path).expect("open");
    let mut boundaries = vec![iter.valid_len()];
    while let Some(record) = iter.next() {
        record.expect("valid frame");
        boundaries.push(iter.valid_len());
    }
    let bytes = std::fs::read(&path).expect("journal bytes");
    std::fs::remove_file(&path).ok();
    Finished {
        bytes,
        boundaries,
        reference: Campaign {
            workers: 2,
            ..Campaign::default()
        }
        .run(&files, &config),
    }
}

fn resume_once(path: &Path) -> Result<Option<CampaignReport>, CheckpointError> {
    resume_campaign(
        path,
        2,
        &CheckpointOptions {
            every: 4,
            stop_after: None,
        },
    )
    .map(CampaignStatus::into_report)
}

/// Every frame boundary, one byte into every record frame's header, and
/// one byte into every record frame's payload.
fn cut_points(boundaries: &[u64]) -> Vec<u64> {
    let mut cuts = boundaries.to_vec();
    for &start in &boundaries[..boundaries.len() - 1] {
        cuts.extend([start + 1, start + FRAME_HEADER + 1]);
    }
    cuts
}

#[test]
fn every_cut_of_a_finished_journal_resumes_and_compacts_to_the_reference() {
    let finished = finished_journal("cut-sweep-fixture");
    assert!(finished.boundaries.len() > 24, "several frames per job");
    let path = journal_path("cut-sweep");
    for cut in cut_points(&finished.boundaries) {
        let prefix = &finished.bytes[..usize::try_from(cut).expect("offset fits")];
        std::fs::write(&path, prefix).expect("write cut journal");
        let resumed = resume_once(&path).expect("resume");
        assert_eq!(
            resumed.as_ref(),
            Some(&finished.reference),
            "cut at {cut}: resume"
        );
        std::fs::write(&path, prefix).expect("write cut journal");
        compact_journal(&path).expect("compaction");
        let resumed = resume_once(&path).expect("resume after compaction");
        assert_eq!(
            resumed.as_ref(),
            Some(&finished.reference),
            "cut at {cut}: compaction, then resume"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Applies mutation `kind` to a copy of `finished`'s bytes: 0 overwrites
/// a frame's length field with `value`, 1 appends `garbage`, 2 appends a
/// copy of a record frame, 3 flips one bit past the magic. `pick`
/// chooses the frame or the bit.
fn mutate(finished: &Finished, kind: usize, pick: u64, value: u64, garbage: &[u8]) -> Vec<u8> {
    let mut bytes = finished.bytes.clone();
    let b = &finished.boundaries;
    let records = (b.len() - 1) as u64;
    let offset = |at: u64| usize::try_from(at).expect("offset fits");
    match kind {
        0 => {
            // The header frame starts right after the 8-byte magic.
            let frame = pick % (records + 1);
            let start = offset(if frame == 0 { 8 } else { b[frame as usize - 1] });
            bytes[start..start + 4].copy_from_slice(&(value as u32).to_le_bytes());
        }
        1 => bytes.extend_from_slice(garbage),
        2 => {
            let i = (pick % records) as usize;
            let frame = finished.bytes[offset(b[i])..offset(b[i + 1])].to_vec();
            bytes.extend_from_slice(&frame);
        }
        _ => {
            let at = 8 + offset(pick % (bytes.len() as u64 - 8));
            bytes[at] ^= 1 << (value % 8);
        }
    }
    bytes
}

/// Runs `attempt` under `catch_unwind`: it must not panic, and must give
/// a typed error or the reference report.
fn typed_error_or_reference(
    what: &str,
    reference: &CampaignReport,
    attempt: impl FnOnce() -> Result<Option<CampaignReport>, CheckpointError>,
) {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(attempt)) {
        Err(_) => panic!("{what} panicked"),
        Ok(Ok(report)) => assert_eq!(report.as_ref(), Some(reference), "{what}"),
        Ok(Err(_typed)) => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One mutation of a finished journal — a lying frame length,
    /// trailing garbage, a replayed copy of a record frame or one flipped
    /// bit — never makes resume or compaction panic or report anything
    /// but the reference: each gives a typed error or the reference.
    #[test]
    fn mutated_journals_give_typed_errors_or_the_reference(
        kind in 0usize..4,
        pick in 0u64..u64::MAX,
        value in 0u64..u64::MAX,
        garbage in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 1..65),
    ) {
        static FINISHED: std::sync::OnceLock<Finished> = std::sync::OnceLock::new();
        let finished = FINISHED.get_or_init(|| finished_journal("mutation-fixture"));
        let mutated = mutate(finished, kind, pick, value, &garbage);
        let what = format!("mutation {kind} (pick {pick}, value {value})");
        let path = journal_path("mutation");
        std::fs::write(&path, &mutated).expect("write mutated journal");
        typed_error_or_reference(&format!("resume after {what}"), &finished.reference, || {
            resume_once(&path)
        });
        std::fs::write(&path, &mutated).expect("write mutated journal");
        typed_error_or_reference(
            &format!("compaction, then resume, after {what}"),
            &finished.reference,
            || {
                compact_journal(&path)?;
                resume_once(&path)
            },
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn fleet_merges_refuse_trailing_garbage_and_a_repeated_last_frame() {
    let files = seeds::all();
    let config = config();
    let campaign = Campaign {
        workers: 2,
        ..Campaign::default()
    };
    let plan = FleetPlan::new(0xf1ee7, 2, 2);
    let paths: Vec<PathBuf> = (0..plan.n_hosts)
        .map(|host| {
            let path = journal_path(&format!("mutated-fleet-host-{host}"));
            let status = campaign
                .run_journaled(
                    &files,
                    &config,
                    &path,
                    &CheckpointOptions {
                        every: 4,
                        stop_after: None,
                    },
                    Some((plan, host)),
                )
                .expect("host runs")
                .status;
            assert!(matches!(status, CampaignStatus::Complete(_)));
            path
        })
        .collect();
    assert_eq!(
        merge_journals(&paths).expect("merge").report,
        campaign.run(&files, &config)
    );
    let pristine = std::fs::read(&paths[1]).expect("journal bytes");

    let mut garbage = pristine.clone();
    garbage.extend_from_slice(b"\x07 trailing garbage");
    std::fs::write(&paths[1], &garbage).expect("write host journal");
    match merge_journals(&paths) {
        Err(FleetError::TailCorruption { host, path, .. }) => {
            assert_eq!((host, &path), (1, &paths[1]));
        }
        other => panic!("expected TailCorruption naming host 1, got {other:?}"),
    }

    std::fs::write(&paths[1], &pristine).expect("write host journal");
    let last = JournalIter::open(&paths[1])
        .expect("open")
        .map(|record| record.expect("valid frame"))
        .last()
        .expect("a record frame");
    append_record(&paths[1], &last);
    match merge_journals(&paths) {
        Err(FleetError::Checkpoint(CheckpointError::Foreign(message))) => {
            assert!(message.contains("job "), "{message}");
        }
        other => panic!("expected a Foreign refusal, got {other:?}"),
    }
    for path in &paths {
        std::fs::remove_file(path).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The compaction property: for random corpora, kill points and
    /// cadences, kill → compact → resume(s) → completion reproduces the
    /// uninterrupted serial report byte-for-byte.
    #[test]
    fn compaction_preserves_kill_resume_identity(
        seed in 0u64..2_000,
        stop in 1u64..100,
        every in 1u64..16,
        workers_idx in 0usize..4,
    ) {
        let workers = [1usize, 2, 4, 16][workers_idx];
        let files = generate(&CorpusConfig { files: 2, seed });
        let config = config();
        let reference = Campaign::default().run(&files, &config);
        let path = journal_path(&format!("prop-compact-{seed}-{stop}-{every}-{workers}"));
        let status = run_campaign_checkpointed(
            &files,
            &config,
            workers,
            &path,
            &CheckpointOptions { every, stop_after: Some(stop) },
        ).expect("checkpointed run");
        let report = match status {
            CampaignStatus::Complete(r) => r,
            CampaignStatus::Interrupted => {
                let before = compact_journal(&path).expect("compaction");
                prop_assert!(before.frames_after <= before.frames_before);
                resume_to_completion(&path, workers)
            }
        };
        prop_assert_eq!(report, reference);
        std::fs::remove_file(&path).ok();
    }
}
