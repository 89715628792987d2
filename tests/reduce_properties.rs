//! Property tests for the reduction stage: for randomly drawn corpus
//! slices, every reduced witness must parse, pass scope analysis,
//! reproduce the original finding under the same compiler configuration,
//! and never be larger than its input reproducer.

use proptest::prelude::*;
use spe::corpus::{generate, CorpusConfig};
use spe::harness::reduction::{reproduces, ReductionOptions};
use spe::harness::{Campaign, CampaignConfig};
use spe::simcc::{Compiler, CompilerId};

fn campaign_config() -> CampaignConfig {
    CampaignConfig {
        compilers: vec![
            Compiler::new(CompilerId::gcc(700), 0),
            Compiler::new(CompilerId::gcc(700), 2),
            Compiler::new(CompilerId::clang(390), 3),
        ],
        budget: 24,
        algorithm: spe::core::Algorithm::Paper,
        check_wrong_code: true,
        fuel: 10_000,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn reduced_witnesses_are_wellformed_reproducing_and_smaller(seed in 0u64..5_000) {
        let files = generate(&CorpusConfig { files: 3, seed });
        let config = campaign_config();
        let mut report = Campaign::default().run(&files, &config);
        Campaign { workers: 2, ..Campaign::default() }
            .reduce(
                &mut report,
                &ReductionOptions { fuel: config.fuel, ..ReductionOptions::default() },
                None,
            )
            .expect("in-memory reduction");
        for f in &report.findings {
            let reduced = f
                .reduced
                .as_ref()
                .unwrap_or_else(|| panic!("finding {:?} lacks a witness (seed {seed})", f.signature));
            // Never larger than the raw reproducer.
            prop_assert!(
                reduced.reduced_bytes <= reduced.original_bytes,
                "witness grew for {:?} (seed {seed})",
                f.signature
            );
            prop_assert_eq!(reduced.original_bytes, f.reproducer.len());
            // Parses and scope-checks.
            let p = spe::minic::parse(&reduced.source)
                .unwrap_or_else(|e| panic!("witness does not parse ({e}, seed {seed})"));
            spe::minic::analyze(&p)
                .unwrap_or_else(|e| panic!("witness fails sema ({e}, seed {seed})"));
            // Still reproduces the same kind + bug id under the same
            // compiler configuration.
            prop_assert!(
                reproduces(f, &p, config.fuel),
                "witness stopped reproducing {:?} (bug {:?}, seed {seed}):\n{}",
                f.signature,
                f.bug_id,
                reduced.source
            );
        }
    }

    #[test]
    fn fingerprint_merges_only_pair_same_family_same_kind(seed in 0u64..5_000) {
        let files = generate(&CorpusConfig { files: 4, seed });
        let config = campaign_config();
        let mut report = Campaign::default().run(&files, &config);
        Campaign { workers: 4, ..Campaign::default() }
            .reduce(
                &mut report,
                &ReductionOptions { fuel: config.fuel, ..ReductionOptions::default() },
                None,
            )
            .expect("in-memory reduction");
        for f in &report.findings {
            let Some(root_sig) = &f.fingerprint_duplicate_of else { continue };
            let root = report
                .findings
                .iter()
                .find(|g| &g.signature == root_sig)
                .expect("merge target exists");
            prop_assert_eq!(root.compiler.family, f.compiler.family);
            prop_assert_eq!(root.kind, f.kind);
            prop_assert!(root.fingerprint_duplicate_of.is_none(), "roots are not duplicates");
            let (a, b) = (
                root.reduced.as_ref().expect("root reduced"),
                f.reduced.as_ref().expect("duplicate reduced"),
            );
            prop_assert_eq!(&a.fingerprint, &b.fingerprint, "merge keys on the fingerprint");
        }
    }
}
