//! Acceptance tests of the reduce/dedup stage over the seeded-bug
//! corpus: every primary finding carries a reproducing reduced witness,
//! witnesses shrink substantially, fingerprint dedup folds
//! distinct-signature duplicates, and parallel reduction is byte-stable.

use spe_corpus::{generate, seeds, CorpusConfig};
use spe_harness::reduction::{reproduces, ReductionOptions};
use spe_harness::{run_campaign_parallel, Campaign, CampaignConfig, CampaignReport};
use spe_simcc::{Compiler, CompilerId};

/// A scaled-down Table 4 trunk campaign: the paper seeds plus a slice of
/// the synthetic corpus, against the trunk profiles at several
/// optimization levels. Run once and shared by every test.
fn trunk_campaign() -> (CampaignReport, CampaignConfig) {
    static CAMPAIGN: std::sync::OnceLock<(CampaignReport, CampaignConfig)> =
        std::sync::OnceLock::new();
    CAMPAIGN
        .get_or_init(|| {
            let mut files = seeds::all();
            files.extend(generate(&CorpusConfig {
                files: 40,
                seed: 44,
            }));
            let config = CampaignConfig {
                compilers: vec![
                    Compiler::new(CompilerId::gcc(700), 0),
                    Compiler::new(CompilerId::gcc(700), 2),
                    Compiler::new(CompilerId::gcc(700), 3),
                    Compiler::new(CompilerId::clang(390), 3),
                ],
                budget: 60,
                algorithm: spe_core::Algorithm::Paper,
                check_wrong_code: true,
                fuel: 20_000,
            };
            (run_campaign_parallel(&files, &config, 4), config)
        })
        .clone()
}

fn reduced_campaign(workers: usize) -> (CampaignReport, CampaignConfig) {
    let (mut report, config) = trunk_campaign();
    Campaign {
        workers,
        ..Campaign::default()
    }
    .reduce(
        &mut report,
        &ReductionOptions {
            fuel: config.fuel,
            ..ReductionOptions::default()
        },
        None,
    )
    .expect("in-memory reduction");
    (report, config)
}

#[test]
fn every_primary_finding_carries_a_reproducing_reduced_witness() {
    let (report, config) = reduced_campaign(8);
    assert!(report.findings.len() >= 10, "campaign finds enough bugs");
    for f in report.primary_findings() {
        let reduced = f
            .reduced
            .as_ref()
            .unwrap_or_else(|| panic!("primary finding {:?} lacks a witness", f.signature));
        let p = spe_minic::parse(&reduced.source).expect("witness parses");
        spe_minic::analyze(&p).expect("witness scope-checks");
        assert!(
            reproduces(f, &p, config.fuel),
            "witness no longer reproduces {:?} (bug {:?}):\n{}",
            f.signature,
            f.bug_id,
            reduced.source
        );
        assert!(reduced.reduced_bytes <= reduced.original_bytes);
    }
}

#[test]
fn mean_witness_size_shrinks_at_least_3x() {
    let (report, _) = reduced_campaign(8);
    let mean = report.mean_shrink_ratio().expect("witnesses attached");
    assert!(
        mean >= 3.0,
        "mean shrink ratio {mean:.2} below the 3x acceptance bar"
    );
}

#[test]
fn fingerprint_dedup_merges_what_signature_dedup_kept_separate() {
    let (report, _) = reduced_campaign(8);
    let merged: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.fingerprint_duplicate_of.is_some())
        .collect();
    assert!(!merged.is_empty(), "no fingerprint merges found");
    for f in &merged {
        let root_sig = f.fingerprint_duplicate_of.as_ref().expect("merged");
        // Signature dedup kept the pair separate (distinct signatures)...
        assert_ne!(root_sig, &f.signature);
        let root = report
            .findings
            .iter()
            .find(|g| &g.signature == root_sig)
            .expect("merge target exists");
        // ...and the ground-truth registry confirms one root cause.
        assert_eq!(root.bug_id, f.bug_id, "fingerprint merge is sound");
        assert_eq!(root.compiler.family, f.compiler.family);
        assert_eq!(root.kind, f.kind);
    }
    assert_eq!(
        report.corrected_findings().count(),
        report.findings.len() - report.fingerprint_duplicates()
    );
}

#[test]
fn parallel_reduction_reports_are_byte_identical_to_serial() {
    let (serial, _) = reduced_campaign(1);
    for workers in [2usize, 4, 16] {
        let (parallel, _) = reduced_campaign(workers);
        assert_eq!(parallel, serial, "{workers}-worker reduction diverged");
    }
}
