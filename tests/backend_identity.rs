//! Byte-identity of the pluggable-backend oracle path.
//!
//! Campaigns driven through the trait-dispatched in-process backend
//! (`spe::simcc::backend::SimccBackend`, which renders, parses and
//! compiles every variant) must be **equal in every field** to the
//! default incremental oracle (which parses once per job and splices
//! every later variant into the cached AST) — two real implementations
//! of one oracle, compared for random corpora serially, at 1/2/4/16
//! workers, through a kill/resume checkpoint cycle, and through the
//! reduction stage, in memory and over a journal. The remaining tests
//! pin the journal's backend identity gate: resuming or reducing under
//! a different backend id or configuration hash is refused, never
//! silently mixed.

use proptest::prelude::*;
use spe::core::Algorithm;
use spe::corpus::{generate, seeds, CorpusConfig};
use spe::harness::checkpoint::{
    resume_campaign, run_campaign_checkpointed, CheckpointError, CheckpointOptions,
};
use spe::harness::reduction::ReductionOptions;
use spe::harness::{run_campaign_parallel, Campaign, CampaignConfig, CampaignReport, Oracle};
use spe::simcc::backend::{BackendError, CompilerBackend, SimccBackend};
use spe::simcc::{Compiler, CompilerId, Observation};

fn campaign_config() -> CampaignConfig {
    CampaignConfig {
        compilers: vec![
            Compiler::new(CompilerId::gcc(700), 0),
            Compiler::new(CompilerId::gcc(700), 2),
            Compiler::new(CompilerId::clang(390), 3),
        ],
        budget: 30,
        algorithm: Algorithm::Paper,
        check_wrong_code: true,
        fuel: 10_000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn backend_campaigns_are_byte_identical_to_direct(seed in 0u64..5_000) {
        let files = generate(&CorpusConfig { files: 3, seed });
        let config = campaign_config();
        let direct = Campaign::default().run(&files, &config);
        let simcc = Campaign {
            oracle: Oracle::Backend(&SimccBackend),
            ..Campaign::default()
        };
        prop_assert_eq!(&simcc.run(&files, &config), &direct);
        for workers in [1usize, 2, 4, 16] {
            prop_assert_eq!(&run_campaign_parallel(&files, &config, workers), &direct);
            prop_assert_eq!(
                &Campaign { workers, ..simcc }.run(&files, &config),
                &direct
            );
        }
    }
}

#[test]
fn killed_and_resumed_backend_campaign_matches_uninterrupted_direct() {
    let files = seeds::all();
    let config = campaign_config();
    let direct = Campaign::default().run(&files, &config);
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("backend-identity");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let journal = dir.join("campaign.journal");

    // Kill between checkpoints, then resume repeatedly until complete.
    let simcc = |workers| Campaign {
        oracle: Oracle::Backend(&SimccBackend),
        workers,
        ..Campaign::default()
    };
    let mut status = simcc(4)
        .run_journaled(
            &files,
            &config,
            &journal,
            &CheckpointOptions {
                every: 16,
                stop_after: Some(40),
            },
            None,
        )
        .expect("checkpointed run")
        .status;
    assert!(status.is_interrupted(), "stop_after should have fired");
    let mut cycles = 0;
    while status.is_interrupted() {
        cycles += 1;
        assert!(cycles < 100, "resume never converged");
        // Alternate worker counts across resumes; the report must not
        // care. The in-process backend records the same manifest
        // identity as the direct path, so the plain resume is equally
        // valid — prove it by alternating entry points too.
        status = if cycles % 2 == 0 {
            resume_campaign(
                &journal,
                1 + cycles % 3,
                &CheckpointOptions {
                    every: 16,
                    stop_after: Some(60),
                },
            )
            .expect("resume")
        } else {
            simcc(1 + cycles % 3)
                .resume(
                    &journal,
                    &CheckpointOptions {
                        every: 16,
                        stop_after: Some(60),
                    },
                )
                .expect("resume")
                .status
        };
    }
    let report = status.into_report().expect("complete");
    assert_eq!(report, direct, "kill/resume cycle diverged from direct");
}

/// A backend with a foreign identity but working observations — enough
/// to write a resumable journal that no other backend may pick up.
struct Dummy(u64);

impl CompilerBackend for Dummy {
    fn id(&self) -> &str {
        "dummy"
    }

    fn config_hash(&self) -> u64 {
        self.0
    }

    fn observe_config(
        &self,
        source: &str,
        cc: Compiler,
        wrong_code_fuel: Option<u64>,
    ) -> Result<Observation, BackendError> {
        SimccBackend.observe_config(source, cc, wrong_code_fuel)
    }
}

#[test]
fn resume_refuses_a_mismatched_backend() {
    let files = seeds::all();
    let config = campaign_config();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("backend-mismatch");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let journal = dir.join("campaign.journal");
    let options = CheckpointOptions {
        every: 16,
        stop_after: Some(40),
    };
    fn dummy(backend: &Dummy) -> Campaign<'_> {
        Campaign {
            oracle: Oracle::Backend(backend),
            workers: 2,
            ..Campaign::default()
        }
    }
    let status = dummy(&Dummy(42))
        .run_journaled(&files, &config, &journal, &options, None)
        .expect("checkpointed run")
        .status;
    assert!(status.is_interrupted());

    // Wrong backend id: the in-process default must refuse.
    let err = resume_campaign(&journal, 2, &options).expect_err("id mismatch");
    assert!(matches!(err, CheckpointError::Foreign(_)));
    let message = err.to_string();
    assert!(
        message.contains("dummy") && message.contains("simcc"),
        "refusal names both backends: {message}"
    );

    // Right id, wrong configuration hash: also refused.
    let err = dummy(&Dummy(7))
        .resume(&journal, &options)
        .expect_err("hash mismatch");
    assert!(err.to_string().contains("config hash"), "{err}");

    // The matching backend resumes and completes.
    let mut status = dummy(&Dummy(42))
        .resume(
            &journal,
            &CheckpointOptions {
                every: 16,
                stop_after: None,
            },
        )
        .expect("matching backend resumes")
        .status;
    while status.is_interrupted() {
        status = dummy(&Dummy(42))
            .resume(
                &journal,
                &CheckpointOptions {
                    every: 16,
                    stop_after: None,
                },
            )
            .expect("resume")
            .status;
    }
    assert_eq!(
        status.into_report().expect("complete"),
        Campaign::default().run(&files, &config),
        "dummy-backend campaign is still the in-process campaign"
    );
}

/// The paper seeds with wrong-code checks on: a campaign small enough to
/// reduce in a test and rich enough to find crash and wrong-code bugs.
fn reduction_campaign() -> (CampaignConfig, ReductionOptions) {
    let config = CampaignConfig {
        compilers: vec![
            Compiler::new(CompilerId::gcc(700), 0),
            Compiler::new(CompilerId::gcc(700), 3),
            Compiler::new(CompilerId::clang(390), 3),
        ],
        budget: 40,
        ..campaign_config()
    };
    let options = ReductionOptions {
        fuel: config.fuel,
        ..ReductionOptions::default()
    };
    (config, options)
}

/// Reduces a copy of `report` under `campaign`, optionally over a
/// journal, and returns it with the reducer warnings.
fn reduced(
    campaign: Campaign<'_>,
    report: &CampaignReport,
    options: &ReductionOptions,
    journal: Option<&std::path::Path>,
) -> Result<CampaignReport, CheckpointError> {
    let mut report = report.clone();
    let warnings = campaign.reduce(&mut report, options, journal)?;
    assert!(warnings.is_empty(), "no reducer panics: {warnings:?}");
    Ok(report)
}

#[test]
fn reduction_through_the_backend_matches_in_process_reduction() {
    let files = seeds::all();
    let (config, options) = reduction_campaign();
    let report = Campaign::default().run(&files, &config);
    assert!(
        report.findings.len() >= 2,
        "the seeds expose findings to reduce: {}",
        report.findings.len()
    );
    let simcc = Campaign {
        oracle: Oracle::Backend(&SimccBackend),
        workers: 2,
        ..Campaign::default()
    };
    let in_process = reduced(Campaign::default(), &report, &options, None).expect("no journal");
    assert!(
        in_process.findings.iter().all(|f| f.reduced.is_some()),
        "every finding gains a witness"
    );
    assert_eq!(
        reduced(simcc, &report, &options, None).expect("no journal"),
        in_process,
        "reduction through SimccBackend diverged from in-process reduction"
    );
}

#[test]
fn journaled_reduction_through_the_backend_matches_and_refuses_a_foreign_one() {
    let files = seeds::all();
    let (config, options) = reduction_campaign();
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("backend-reduction");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let journal = dir.join("campaign.journal");
    let report =
        run_campaign_checkpointed(&files, &config, 2, &journal, &CheckpointOptions::default())
            .expect("checkpointed run")
            .into_report()
            .expect("complete");
    let in_process = reduced(Campaign::default(), &report, &options, None).expect("no journal");

    // A backend with a foreign identity may not extend a "simcc" journal.
    let foreign = Dummy(42);
    let dummy = Campaign {
        oracle: Oracle::Backend(&foreign),
        ..Campaign::default()
    };
    match reduced(dummy, &report, &options, Some(&journal)) {
        Err(CheckpointError::Foreign(message)) => {
            assert!(
                message.contains("dummy"),
                "refusal names the backend: {message}"
            );
        }
        other => panic!("expected a Foreign refusal, got {other:?}"),
    }

    // SimccBackend carries the journal's identity: it reduces over it,
    // and a second pass replays every witness from the journal.
    let simcc = Campaign {
        oracle: Oracle::Backend(&SimccBackend),
        workers: 3,
        ..Campaign::default()
    };
    for pass in ["fresh", "replayed"] {
        assert_eq!(
            reduced(simcc, &report, &options, Some(&journal)).expect("journaled reduction"),
            in_process,
            "{pass} journaled reduction through SimccBackend diverged"
        );
    }
}
