//! Fault injection for fleet campaigns (`DESIGN.md` §14): host death
//! and resume must preserve merge byte-identity, and every way a set of
//! host journals can fail to be one complete, consistent fleet must be
//! refused with an error naming the offending journal, host, or gap.

use spe_corpus::{generate, CorpusConfig, TestFile};
use spe_harness::checkpoint::{
    compact_journal, resume_campaign, run_campaign_checkpointed, CheckpointOptions,
};
use spe_harness::fleet::{merge_journals, FleetError};
use spe_harness::{Campaign, CampaignConfig, CampaignStatus, CheckpointError, FleetPlan};
use spe_simcc::{Compiler, CompilerId};
use std::path::{Path, PathBuf};

fn config() -> CampaignConfig {
    CampaignConfig {
        compilers: vec![
            Compiler::new(CompilerId::gcc(700), 0),
            Compiler::new(CompilerId::gcc(700), 3),
            Compiler::new(CompilerId::clang(390), 3),
        ],
        budget: 32,
        algorithm: spe_core::Algorithm::Paper,
        check_wrong_code: true,
        fuel: 20_000,
    }
}

fn journal_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

fn corpus() -> Vec<TestFile> {
    generate(&CorpusConfig { files: 8, seed: 21 })
}

/// Runs every host of `plan` to completion and returns the paths.
fn complete_fleet(
    plan: &FleetPlan,
    files: &[TestFile],
    config: &CampaignConfig,
    dir: &Path,
) -> Vec<PathBuf> {
    std::fs::create_dir_all(dir).expect("fleet dir");
    (0..plan.n_hosts)
        .map(|host| {
            let path = dir.join(format!("host-{host}.journal"));
            let status = Campaign {
                workers: 2,
                ..Campaign::default()
            }
            .run_journaled(
                files,
                config,
                &path,
                &CheckpointOptions::default(),
                Some((*plan, host)),
            )
            .expect("host runs")
            .status;
            assert!(matches!(status, CampaignStatus::Complete(_)));
            path
        })
        .collect()
}

#[test]
fn killed_hosts_resume_on_different_worker_counts_byte_identically() {
    let files = corpus();
    let config = config();
    let reference = spe_harness::run_campaign_parallel(&files, &config, 3);
    let dir = journal_dir("faults-kill-resume");
    let plan = FleetPlan::new(0xdead, 3, 3);
    let paths: Vec<PathBuf> = (0..plan.n_hosts)
        .map(|host| {
            let path = dir.join(format!("host-{host}.journal"));
            // Every host is killed mid-slice, then resumed — repeatedly,
            // on a rotating worker count, with another kill budget each
            // time — until it completes.
            let mut status = Campaign::default()
                .run_journaled(
                    &files,
                    &config,
                    &path,
                    &CheckpointOptions {
                        every: 8,
                        stop_after: Some(3),
                    },
                    Some((plan, host)),
                )
                .expect("host runs")
                .status;
            assert!(
                status.is_interrupted(),
                "host {host} must be preempted by its kill budget"
            );
            let workers = [4usize, 2, 16, 1];
            for attempt in 0.. {
                if !status.is_interrupted() {
                    break;
                }
                status = resume_campaign(
                    &path,
                    workers[attempt % workers.len()],
                    &CheckpointOptions {
                        every: 8,
                        stop_after: (attempt < 2).then_some(5),
                    },
                )
                .expect("host resumes");
            }
            path
        })
        .collect();
    assert_eq!(
        merge_journals(&paths).expect("merge"),
        reference,
        "kill/resume history leaked into the merged report"
    );
}

#[test]
fn torn_tail_is_triaged_naming_the_offending_host() {
    let files = corpus();
    let config = config();
    let dir = journal_dir("faults-torn-tail");
    let plan = FleetPlan::new(0x70a7, 3, 2);
    let paths = complete_fleet(&plan, &files, &config, &dir);
    // Tear host 1's last frame mid-payload, as a crash mid-append would.
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&paths[1])
        .expect("open journal");
    let len = file.metadata().expect("metadata").len();
    file.set_len(len - 3).expect("truncate");
    drop(file);
    match merge_journals(&paths) {
        Err(FleetError::TailCorruption { host, path, .. }) => {
            assert_eq!(host, 1);
            assert_eq!(path, paths[1]);
        }
        other => panic!("expected TailCorruption for host 1, got {other:?}"),
    }
    let message = merge_journals(&paths).unwrap_err().to_string();
    assert!(message.contains("host 1"), "unhelpful message: {message}");
    assert!(message.contains("resume"), "no repair hint: {message}");
}

#[test]
fn missing_and_duplicate_hosts_are_refused_naming_the_gap() {
    let files = corpus();
    let config = config();
    let dir = journal_dir("faults-membership");
    let plan = FleetPlan::new(0x9a9, 3, 2);
    let paths = complete_fleet(&plan, &files, &config, &dir);
    match merge_journals(&[&paths[0], &paths[2]]) {
        Err(FleetError::MissingHosts { missing, n_hosts }) => {
            assert_eq!(missing, vec![1]);
            assert_eq!(n_hosts, 3);
        }
        other => panic!("expected MissingHosts, got {other:?}"),
    }
    let message = merge_journals(&[&paths[0], &paths[2]])
        .unwrap_err()
        .to_string();
    assert!(message.contains("host 1"), "unhelpful message: {message}");
    match merge_journals(&[&paths[0], &paths[1], &paths[2], &paths[1]]) {
        Err(FleetError::DuplicateHost { host, .. }) => assert_eq!(host, 1),
        other => panic!("expected DuplicateHost, got {other:?}"),
    }
}

#[test]
fn journals_from_a_different_fleet_or_config_are_refused() {
    let files = corpus();
    let config = config();
    let dir = journal_dir("faults-mixed");
    let plan_a = FleetPlan::new(0xaaaa, 2, 2);
    let plan_b = FleetPlan::new(0xbbbb, 2, 2);
    let a = complete_fleet(&plan_a, &files, &config, &dir.join("a"));
    let b = complete_fleet(&plan_b, &files, &config, &dir.join("b"));
    match merge_journals(&[&a[0], &b[1]]) {
        Err(FleetError::MixedFleets { path, detail }) => {
            assert_eq!(path, b[1]);
            assert!(detail.contains("bbbb") && detail.contains("aaaa"), "{detail}");
        }
        other => panic!("expected MixedFleets, got {other:?}"),
    }
    // Same fleet id, different campaign config: the normalized manifest
    // comparison must catch it even though the stamps agree.
    let sneaky_config = CampaignConfig {
        budget: config.budget + 1,
        ..config.clone()
    };
    let sneaky = complete_fleet(&plan_a, &files, &sneaky_config, &dir.join("sneaky"));
    match merge_journals(&[&a[0], &sneaky[1]]) {
        Err(FleetError::MixedFleets { path, detail }) => {
            assert_eq!(path, sneaky[1]);
            assert!(detail.contains("manifest"), "{detail}");
        }
        other => panic!("expected MixedFleets on config drift, got {other:?}"),
    }
}

#[test]
fn non_fleet_and_incomplete_journals_are_refused() {
    let files = corpus();
    let config = config();
    let dir = journal_dir("faults-shape");
    // A single-host checkpointed campaign journal: valid, but not a
    // fleet host journal.
    let single = dir.join("single.journal");
    run_campaign_checkpointed(&files, &config, 2, &single, &CheckpointOptions::default())
        .expect("campaign runs");
    match merge_journals(&[&single]) {
        Err(FleetError::NotAFleetJournal { path }) => assert_eq!(path, single),
        other => panic!("expected NotAFleetJournal, got {other:?}"),
    }
    // A fleet whose host 1 was killed and never resumed.
    let plan = FleetPlan::new(0x1c0, 2, 2);
    let done = dir.join("host-0.journal");
    let dead = dir.join("host-1.journal");
    let host_run = |host, workers, path: &Path, options: &CheckpointOptions| {
        Campaign {
            workers,
            ..Campaign::default()
        }
        .run_journaled(&files, &config, path, options, Some((plan, host)))
        .map(|outcome| outcome.status)
    };
    assert!(matches!(
        host_run(0, 2, &done, &CheckpointOptions::default()),
        Ok(CampaignStatus::Complete(_))
    ));
    assert!(host_run(
        1,
        1,
        &dead,
        &CheckpointOptions {
            every: 8,
            stop_after: Some(2),
        },
    )
    .expect("host runs")
    .is_interrupted());
    match merge_journals(&[&done, &dead]) {
        Err(FleetError::HostIncomplete { host, path, .. }) => {
            assert_eq!(host, 1);
            assert_eq!(path, dead);
        }
        other => panic!("expected HostIncomplete, got {other:?}"),
    }
    let message = merge_journals(&[&done, &dead]).unwrap_err().to_string();
    assert!(message.contains("resume"), "no repair hint: {message}");
    // Resuming the dead host repairs the set.
    assert!(matches!(
        resume_campaign(&dead, 4, &CheckpointOptions::default()),
        Ok(CampaignStatus::Complete(_))
    ));
    assert_eq!(
        merge_journals(&[&done, &dead]).expect("merge"),
        spe_harness::run_campaign_parallel(&files, &config, 2)
    );
    let no_paths: [&Path; 0] = [];
    assert!(matches!(
        merge_journals(&no_paths),
        Err(FleetError::NoJournals)
    ));
}

#[test]
fn compaction_preserves_the_fleet_manifest_verbatim_and_merge_identity() {
    let files = corpus();
    let config = config();
    let reference = spe_harness::run_campaign_parallel(&files, &config, 2);
    let dir = journal_dir("faults-compact");
    let plan = FleetPlan::new(0xc09ac7, 3, 2);
    let paths = complete_fleet(&plan, &files, &config, &dir);
    for path in &paths {
        let header_before = spe_persist::JournalReader::read(path)
            .expect("journal readable")
            .header;
        compact_journal(path).expect("compaction");
        let header_after = spe_persist::JournalReader::read(path)
            .expect("journal readable")
            .header;
        assert_eq!(
            header_after, header_before,
            "compaction must copy the manifest (fleet stamp included) byte-verbatim"
        );
    }
    assert_eq!(
        merge_journals(&paths).expect("merge"),
        reference,
        "compact-then-merge diverged"
    );
}

#[test]
fn out_of_plan_host_ids_are_refused() {
    let files = corpus();
    let dir = journal_dir("faults-hostid");
    let plan = FleetPlan::new(0xbad, 2, 2);
    match Campaign::default().run_journaled(
        &files,
        &config(),
        dir.join("host-2.journal"),
        &CheckpointOptions::default(),
        Some((plan, 2)),
    ) {
        Err(CheckpointError::Foreign(message)) => {
            assert!(message.contains("host 2"), "{message}");
        }
        other => panic!("expected Foreign, got {other:?}"),
    }
}
