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
use spe::corpus::{generate, seeds, CorpusConfig};
use spe::harness::checkpoint::{
    compact_journal, compact_journal_abandoned, resume_campaign, run_campaign_checkpointed,
    CampaignStatus, CheckpointError, CheckpointOptions,
};
use spe::harness::fleet::{merge_journals, FleetError};
use spe::harness::reduction::ReductionOptions;
use spe::harness::{
    run_campaign_parallel, Campaign, CampaignConfig, CampaignReport, FaultPolicy, FindingKind,
    Oracle,
};
use spe::persist::{CorruptionReason, Encoder, Journal, JournalIter, JournalReader};
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

/// Streaming and materializing readers must agree exactly — header,
/// records, valid prefix length, and tail verdict — on healthy,
/// truncated, and bit-flipped journals alike.
fn assert_iter_matches_reader(path: &Path) {
    let contents = JournalReader::read(path).expect("materialized read");
    let mut iter = JournalIter::open(path).expect("streaming open");
    assert_eq!(iter.header(), contents.header.as_slice(), "headers differ");
    let records: Vec<Vec<u8>> = (&mut iter)
        .collect::<Result<_, _>>()
        .expect("streamed records");
    assert_eq!(records, contents.records, "record sequences differ");
    assert_eq!(iter.valid_len(), contents.valid_len, "valid prefixes differ");
    assert_eq!(
        iter.truncated_tail(),
        contents.truncated_tail,
        "tail verdicts differ"
    );
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
    assert_iter_matches_reader(&path);
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
    assert_iter_matches_reader(&path);
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
    assert_iter_matches_reader(&path);
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
/// optimization level `opt`, the paper seeds at one shard per file, and
/// the fleet trailer of host 0 in a one-host fleet (so resume,
/// compaction and merge all accept the journal's shape).
fn crafted_manifest(opt: u8) -> Vec<u8> {
    let files = seeds::all();
    let mut enc = Encoder::new();
    enc.usize(1).str("gcc-sim").u32(700).u8(opt);
    enc.usize(40) // budget
        .u8(0) // algorithm: paper
        .bool(true) // wrong-code checks
        .u64(10_000) // fuel
        .str(SIMCC_BACKEND_ID)
        .u64(SIMCC_CONFIG_HASH)
        .usize(1) // shards per file
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
        ("crafted-manifest-opt", crafted_manifest(9), None),
        (
            "crafted-finding-opt",
            crafted_manifest(3),
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
    assert_iter_matches_reader(&path);

    // Compaction is idempotent: the live state is already one frame per
    // job, so a second pass folds nothing further.
    let again = compact_journal(&path).expect("re-compaction");
    assert_eq!(
        again.frames_after, again.frames_before,
        "a compacted journal is a fixed point: {again:?}"
    );

    let report = resume_to_completion(&path, 4);
    assert_eq!(report, reference, "post-compaction resume diverged");

    // Compacting the *finished* journal keeps the completion marker:
    // replay still short-circuits without recomputing.
    let stats = compact_journal(&path).expect("compacting a finished journal");
    assert!(stats.frames_after <= stats.frames_before);
    let replayed = resume_to_completion(&path, 4);
    assert_eq!(replayed, reference, "compacted finished journal diverged");
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The compaction property: for random corpora, kill points and
    /// cadences, kill → compact → resume(s) → completion reproduces the
    /// uninterrupted serial report byte-for-byte — and the streaming
    /// reader agrees with the materializing reader on every journal the
    /// sequence produces.
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
                assert_iter_matches_reader(&path);
                let before = compact_journal(&path).expect("compaction");
                prop_assert!(before.frames_after <= before.frames_before);
                assert_iter_matches_reader(&path);
                resume_to_completion(&path, workers)
            }
        };
        prop_assert_eq!(report, reference);
        std::fs::remove_file(&path).ok();
    }
}
