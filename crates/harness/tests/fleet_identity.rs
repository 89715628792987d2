//! Distributed-identity suite for multi-host fleet campaigns
//! (`DESIGN.md` §14): for every host count, per-host worker count, and
//! corpus split, `merge_journals(fleet(N))` must be **byte-identical**
//! to the uninterrupted single-host run with
//! `workers == shards_per_file` — same findings in the same order with
//! the same reproducers, same counters, same quarantines, and the same
//! downstream reduction/dedup folds.

use proptest::prelude::*;
use spe_corpus::{generate, seeds, CorpusConfig, TestFile};
use spe_harness::checkpoint::CheckpointOptions;
use spe_harness::fleet::{merge_journals, merge_journals_detailed};
use spe_harness::reduction::ReductionOptions;
use spe_harness::{
    run_campaign_parallel, Campaign, CampaignConfig, CampaignStatus, FleetPlan, Oracle,
};
use spe_simcc::backend::{BackendError, CompilerBackend, SimccBackend};
use spe_simcc::{Compiler, CompilerId, Observation};
use std::path::PathBuf;

fn config() -> CampaignConfig {
    CampaignConfig {
        compilers: vec![
            Compiler::new(CompilerId::gcc(700), 0),
            Compiler::new(CompilerId::gcc(700), 3),
            Compiler::new(CompilerId::clang(390), 3),
        ],
        budget: 48,
        algorithm: spe_core::Algorithm::Paper,
        check_wrong_code: true,
        fuel: 20_000,
    }
}

fn journal_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

/// Runs every host of `plan` to completion (sequentially, in one
/// process — process boundaries are exercised by the `fleet` demo
/// binary), rotating per-host worker counts, and returns the journal
/// paths in host order.
fn run_fleet(
    plan: &FleetPlan,
    files: &[TestFile],
    config: &CampaignConfig,
    dir: &std::path::Path,
) -> Vec<PathBuf> {
    let workers = [2usize, 4, 16, 1];
    (0..plan.n_hosts)
        .map(|host| {
            let path = dir.join(format!("host-{host}.journal"));
            let status = Campaign {
                workers: workers[host % workers.len()],
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
            assert!(
                matches!(status, CampaignStatus::Complete(_)),
                "unkilled host {host} must complete"
            );
            path
        })
        .collect()
}

#[test]
fn merged_fleet_is_byte_identical_to_serial_for_every_host_count() {
    let files = generate(&CorpusConfig { files: 10, seed: 7 });
    let config = config();
    let shards_per_file = 4;
    let reference = run_campaign_parallel(&files, &config, shards_per_file);
    assert!(reference.variants_tested > 0);
    for n_hosts in [1usize, 2, 3, 8] {
        let dir = journal_dir(&format!("identity-{n_hosts}"));
        let plan = FleetPlan::new(0xf1ee7 + n_hosts as u64, n_hosts, shards_per_file);
        let paths = run_fleet(&plan, &files, &config, &dir);
        let merged = merge_journals(&paths).expect("merge");
        assert_eq!(merged, reference, "{n_hosts}-host fleet diverged");
        // Journal order must not matter: hosts fold in id order.
        let reversed: Vec<_> = paths.iter().rev().collect();
        assert_eq!(merge_journals(&reversed).expect("merge"), reference);
    }
}

#[test]
fn merged_fleet_matches_on_the_paper_seed_corpus() {
    let files = seeds::all();
    let config = config();
    let reference = run_campaign_parallel(&files, &config, 2);
    assert!(
        !reference.findings.is_empty(),
        "the seed corpus exposes seeded compiler bugs"
    );
    let dir = journal_dir("identity-seeds");
    let plan = FleetPlan::new(0x5eed, 3, 2);
    let paths = run_fleet(&plan, &files, &config, &dir);
    let merged = merge_journals_detailed(&paths).expect("merge");
    assert_eq!(merged.report, reference);
    // Provenance bookkeeping agrees with the merged report.
    assert_eq!(merged.n_hosts, 3);
    assert_eq!(merged.job_count, files.len() * 2);
    let slice_variants: u64 = merged.hosts.iter().map(|h| h.variants_tested).sum();
    assert_eq!(slice_variants, reference.variants_tested);
    let owned: usize = merged.hosts.iter().map(|h| h.jobs.len()).sum();
    assert_eq!(owned, merged.job_count);
}

#[test]
fn hosts_may_mix_oracle_paths_without_changing_the_merge() {
    let files = generate(&CorpusConfig { files: 6, seed: 11 });
    let config = config();
    let reference = run_campaign_parallel(&files, &config, 2);
    let dir = journal_dir("identity-paths");
    let plan = FleetPlan::new(0x0a71e, 2, 2);
    let paths: Vec<PathBuf> = [Oracle::Incremental, Oracle::Backend(&SimccBackend)]
        .into_iter()
        .enumerate()
        .map(|(host, oracle)| {
            let path = dir.join(format!("host-{host}.journal"));
            let status = Campaign {
                oracle,
                workers: 3,
                ..Campaign::default()
            }
            .run_journaled(
                &files,
                &config,
                &path,
                &CheckpointOptions::default(),
                Some((plan, host)),
            )
            .expect("host runs")
            .status;
            assert!(matches!(status, CampaignStatus::Complete(_)));
            path
        })
        .collect();
    assert_eq!(merge_journals(&paths).expect("merge"), reference);
}

#[test]
fn reduction_folds_are_identical_on_merged_and_serial_reports() {
    let files = seeds::all();
    let config = config();
    let mut reference = run_campaign_parallel(&files, &config, 2);
    let dir = journal_dir("identity-reduce");
    let plan = FleetPlan::new(0x4ed0ce, 2, 2);
    let paths = run_fleet(&plan, &files, &config, &dir);
    let mut merged = merge_journals(&paths).expect("merge");
    let options = ReductionOptions {
        fuel: config.fuel,
        ..ReductionOptions::default()
    };
    for (report, workers) in [(&mut reference, 4), (&mut merged, 2)] {
        Campaign {
            workers,
            ..Campaign::default()
        }
        .reduce(report, &options, None)
        .expect("in-memory reduction");
    }
    assert_eq!(
        merged, reference,
        "trigger-aware dedup folds diverged on the merged report"
    );
}

/// A backend that panics on ~1/31 of variants (by source hash) and
/// otherwise answers exactly like [`SimccBackend`] — every panicked
/// (file, shard) job is quarantined as a `JobPanicked` finding, which
/// the merge must reproduce byte-identically.
struct PanickyBackend(SimccBackend);

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl CompilerBackend for PanickyBackend {
    fn id(&self) -> &str {
        "panicky-simcc"
    }

    fn config_hash(&self) -> u64 {
        31
    }

    fn observe_config(
        &self,
        source: &str,
        cc: Compiler,
        wrong_code_fuel: Option<u64>,
    ) -> Result<Observation, BackendError> {
        assert!(
            !fnv1a(source.as_bytes()).is_multiple_of(31),
            "seeded backend panic on this variant"
        );
        self.0.observe_config(source, cc, wrong_code_fuel)
    }

    fn observe_variant(
        &self,
        source: &str,
        compilers: &[Compiler],
        wrong_code_fuel: Option<u64>,
    ) -> Result<Vec<Observation>, BackendError> {
        assert!(
            !fnv1a(source.as_bytes()).is_multiple_of(31),
            "seeded backend panic on this variant"
        );
        self.0.observe_variant(source, compilers, wrong_code_fuel)
    }
}

#[test]
fn panic_quarantines_survive_the_fleet_merge_byte_identically() {
    let files = generate(&CorpusConfig { files: 8, seed: 13 });
    let config = config();
    let backend = PanickyBackend(SimccBackend);
    let reference = Campaign {
        oracle: Oracle::Backend(&backend),
        workers: 2,
        ..Campaign::default()
    }
    .run(&files, &config);
    assert!(
        reference
            .findings
            .iter()
            .any(|f| f.kind == spe_harness::FindingKind::JobPanicked),
        "the seeded panic rate must quarantine at least one job"
    );
    let dir = journal_dir("identity-panics");
    let plan = FleetPlan::new(0x9a71c, 3, 2);
    let paths: Vec<PathBuf> = (0..plan.n_hosts)
        .map(|host| {
            let path = dir.join(format!("host-{host}.journal"));
            let status = Campaign {
                oracle: Oracle::Backend(&backend),
                workers: 1 + host,
                ..Campaign::default()
            }
            .run_journaled(
                &files,
                &config,
                &path,
                &CheckpointOptions::default(),
                Some((plan, host)),
            )
            .expect("host runs")
            .status;
            assert!(matches!(status, CampaignStatus::Complete(_)));
            path
        })
        .collect();
    assert_eq!(merge_journals(&paths).expect("merge"), reference);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized corpora × randomized (hosts, shards) splits: the
    /// merge is byte-identical to serial regardless of where the
    /// even-range cuts land relative to files, shards, and findings.
    #[test]
    fn merge_identity_holds_over_random_corpora_and_splits(
        corpus_files in 1usize..6,
        seed in 0u64..500,
        n_hosts in 1usize..6,
        shards_per_file in 1usize..4,
        budget in 8usize..40,
    ) {
        let files = generate(&CorpusConfig { files: corpus_files, seed });
        let config = CampaignConfig {
            budget,
            fuel: 10_000,
            ..config()
        };
        let reference = run_campaign_parallel(&files, &config, shards_per_file);
        let dir = journal_dir(&format!(
            "identity-prop-{corpus_files}-{seed}-{n_hosts}-{shards_per_file}-{budget}"
        ));
        let plan = FleetPlan::new(seed ^ 0xdeb5, n_hosts, shards_per_file);
        let paths = run_fleet(&plan, &files, &config, &dir);
        prop_assert_eq!(merge_journals(&paths).expect("merge"), reference);
        std::fs::remove_dir_all(&dir).ok();
    }
}
