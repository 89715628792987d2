//! Checkpoint/resume acceptance tests: a campaign killed at an arbitrary
//! point — checkpoint boundary or mid-interval — and resumed from its
//! journal must produce a final report **byte-identical** to an
//! uninterrupted serial run, at 1/2/4/16 workers, across kill counts,
//! worker-count changes between runs, and journal tail corruption.

use proptest::prelude::*;
use spe::corpus::{generate, seeds, CorpusConfig};
use spe::harness::checkpoint::{
    reduce_findings_checkpointed, resume_campaign, run_campaign_checkpointed, CampaignStatus,
    CheckpointOptions,
};
use spe::harness::reduction::ReductionOptions;
use spe::harness::{Campaign, CampaignConfig, CampaignReport};
use spe::simcc::{Compiler, CompilerId};
use std::path::PathBuf;

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
    let dir = std::env::temp_dir().join(format!("spe-checkpoint-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}.journal"))
}

/// Resumes until completion, growing the kill budget geometrically so
/// repeated kills cannot starve progress forever.
fn resume_to_completion(path: &PathBuf, workers: usize, mut stop: Option<u64>) -> CampaignReport {
    for _ in 0..32 {
        let status = resume_campaign(
            path,
            workers,
            &CheckpointOptions {
                every: 8,
                stop_after: stop,
            },
        )
        .expect("resume");
        match status {
            CampaignStatus::Complete(report) => return report,
            CampaignStatus::Interrupted => stop = stop.map(|s| s.saturating_mul(2)),
        }
    }
    panic!("campaign did not complete within 32 resumes");
}

#[test]
fn uninterrupted_checkpointed_run_matches_the_plain_campaign() {
    let files = seeds::all();
    let config = config();
    let reference = Campaign::default().run(&files, &config);
    for workers in [1usize, 2, 4, 16] {
        let path = journal_path(&format!("uninterrupted-{workers}"));
        let status = run_campaign_checkpointed(
            &files,
            &config,
            workers,
            &path,
            &CheckpointOptions {
                every: 16,
                stop_after: None,
            },
        )
        .expect("checkpointed run");
        let report = status.into_report().expect("completed");
        assert_eq!(report, reference, "{workers} workers diverged");
        // Resuming a finished journal replays it without recomputing.
        let replayed = resume_to_completion(&path, workers, None);
        assert_eq!(replayed, reference, "{workers} workers replay diverged");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn kill_and_resume_is_byte_identical_at_every_worker_count() {
    let files = seeds::all();
    let config = config();
    let reference = Campaign::default().run(&files, &config);
    for workers in [1usize, 2, 4, 16] {
        // Kill points: before the first checkpoint of most shards, at a
        // checkpoint boundary (multiples of `every = 8`), mid-interval.
        for stop in [3u64, 24, 61] {
            let path = journal_path(&format!("kill-{workers}-{stop}"));
            let status = run_campaign_checkpointed(
                &files,
                &config,
                workers,
                &path,
                &CheckpointOptions {
                    every: 8,
                    stop_after: Some(stop),
                },
            )
            .expect("checkpointed run");
            let report = match status {
                CampaignStatus::Complete(r) => r, // tiny spaces may finish early
                CampaignStatus::Interrupted => resume_to_completion(&path, workers, None),
            };
            assert_eq!(report, reference, "workers {workers}, stop {stop}");
            std::fs::remove_file(&path).ok();
        }
    }
}

#[test]
fn repeated_kills_and_worker_count_changes_still_converge_identically() {
    let files = seeds::all();
    let config = config();
    let reference = Campaign::default().run(&files, &config);
    let path = journal_path("repeated-kills");
    let status = run_campaign_checkpointed(
        &files,
        &config,
        4,
        &path,
        &CheckpointOptions {
            every: 4,
            stop_after: Some(30),
        },
    )
    .expect("checkpointed run");
    assert!(status.is_interrupted(), "workload outlives the first kill");
    // Kill it twice more while resuming under different worker counts;
    // the job decomposition is pinned by the manifest, so the final
    // report cannot drift.
    let report = {
        let mut stop = Some(20u64);
        let mut report = None;
        for (attempt, workers) in [16usize, 1, 2, 4, 16, 2, 1, 4].iter().enumerate() {
            match resume_campaign(
                &path,
                *workers,
                &CheckpointOptions {
                    every: 4,
                    stop_after: stop,
                },
            )
            .expect("resume")
            {
                CampaignStatus::Complete(r) => {
                    report = Some(r);
                    break;
                }
                CampaignStatus::Interrupted => {
                    if attempt >= 2 {
                        stop = None; // let it finish eventually
                    }
                }
            }
        }
        report.expect("converged")
    };
    assert_eq!(report, reference);
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_tail_frames_are_recovered_on_resume() {
    let files = seeds::all();
    let config = config();
    let reference = Campaign::default().run(&files, &config);
    for cut in [1usize, 7, 40, 200] {
        let path = journal_path(&format!("torn-{cut}"));
        let status = run_campaign_checkpointed(
            &files,
            &config,
            4,
            &path,
            &CheckpointOptions {
                every: 8,
                stop_after: Some(50),
            },
        )
        .expect("checkpointed run");
        assert!(status.is_interrupted());
        // Chop bytes off the tail: a torn final frame (small cuts) or
        // whole lost records (large cuts). Both only lose committed
        // work, which resume recomputes identically.
        let bytes = std::fs::read(&path).expect("journal bytes");
        assert!(bytes.len() > cut + 64, "journal long enough to cut {cut}");
        std::fs::write(&path, &bytes[..bytes.len() - cut]).expect("truncate");
        let report = resume_to_completion(&path, 4, None);
        assert_eq!(report, reference, "cut {cut}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn concurrent_resumes_of_one_journal_are_rejected() {
    let files = seeds::all();
    let config = config();
    let path = journal_path("concurrent");
    let status = run_campaign_checkpointed(
        &files,
        &config,
        2,
        &path,
        &CheckpointOptions {
            every: 8,
            stop_after: Some(40),
        },
    )
    .expect("checkpointed run");
    assert!(status.is_interrupted());
    // A stale writer still holds the journal (a racing resume, a hung
    // process): the second resume must fail fast, not interleave frames.
    let contents = spe::persist::JournalReader::read(&path).expect("readable");
    let held = spe::persist::Journal::open_append_with(&path, &contents).expect("lock");
    assert!(
        resume_campaign(&path, 2, &CheckpointOptions::default()).is_err(),
        "resume under a held journal lock must be rejected"
    );
    drop(held);
    let report = resume_to_completion(&path, 2, None);
    assert_eq!(report, Campaign::default().run(&files, &config));
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_non_journal_file_is_rejected_not_misread() {
    let path = journal_path("not-a-journal");
    std::fs::write(&path, b"definitely not a journal").expect("write");
    let err = resume_campaign(&path, 2, &CheckpointOptions::default());
    assert!(err.is_err(), "foreign file must be rejected");
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpointed_reduction_replays_witnesses_and_stays_identical() {
    let files = seeds::all();
    let config = config();
    let path = journal_path("reduction");
    let report = run_campaign_checkpointed(
        &files,
        &config,
        2,
        &path,
        &CheckpointOptions::default(),
    )
    .expect("campaign")
    .into_report()
    .expect("completed");
    assert!(!report.findings.is_empty());
    let options = ReductionOptions {
        fuel: config.fuel,
        ..ReductionOptions::default()
    };
    // Uninterrupted in-memory reference.
    let mut reference = report.clone();
    Campaign {
        workers: 4,
        ..Campaign::default()
    }
    .reduce(&mut reference, &options, None)
    .expect("in-memory reduction");
    // Checkpointed pass, journal-extended.
    let mut checkpointed = report.clone();
    reduce_findings_checkpointed(&mut checkpointed, &options, 4, &path).expect("reduce");
    assert_eq!(checkpointed, reference);
    // Drop a few Reduced records off the tail (a crash mid-reduction)
    // and re-run on a fresh copy: replayed witnesses + recomputed
    // stragglers must still match exactly.
    let bytes = std::fs::read(&path).expect("journal bytes");
    std::fs::write(&path, &bytes[..bytes.len() - 100]).expect("truncate");
    let mut resumed = report.clone();
    reduce_findings_checkpointed(&mut resumed, &options, 3, &path).expect("reduce resumed");
    assert_eq!(resumed, reference);
    // A report that does not match the journal's recorded findings must
    // be rejected, not silently attached to the wrong witnesses.
    let mut mismatched = report.clone();
    mismatched.findings[0].signature = "some other campaign's finding".into();
    assert!(
        reduce_findings_checkpointed(&mut mismatched, &options, 2, &path).is_err(),
        "signature mismatch must be a Foreign error"
    );
    // Resuming the reduction under different options must also be
    // rejected: replayed witnesses were computed under the recorded
    // options, and a mixture would match no uninterrupted run.
    let mut drifted = report.clone();
    assert!(
        reduce_findings_checkpointed(
            &mut drifted,
            &ReductionOptions {
                fuel: options.fuel * 2,
                ..options
            },
            2,
            &path
        )
        .is_err(),
        "reduction-option drift must be a Foreign error"
    );
    std::fs::remove_file(&path).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance property: for random corpora, kill points and
    /// checkpoint cadences, kill → resume(s) → completion reproduces the
    /// uninterrupted serial report byte-for-byte at every worker count.
    #[test]
    fn killed_campaigns_resume_byte_identically(
        seed in 0u64..2_000,
        stop in 1u64..120,
        every in 1u64..24,
        workers_idx in 0usize..4,
        resume_workers_idx in 0usize..4,
    ) {
        let workers = [1usize, 2, 4, 16][workers_idx];
        let resume_workers = [1usize, 2, 4, 16][resume_workers_idx];
        let files = generate(&CorpusConfig { files: 2, seed });
        let config = config();
        let reference = Campaign::default().run(&files, &config);
        let path = journal_path(&format!("prop-{seed}-{stop}-{every}-{workers}-{resume_workers}"));
        let status = run_campaign_checkpointed(
            &files,
            &config,
            workers,
            &path,
            &CheckpointOptions { every, stop_after: Some(stop) },
        ).expect("checkpointed run");
        let report = match status {
            CampaignStatus::Complete(r) => r,
            CampaignStatus::Interrupted => resume_to_completion(&path, resume_workers, Some(stop)),
        };
        prop_assert_eq!(report, reference);
        std::fs::remove_file(&path).ok();
    }
}
