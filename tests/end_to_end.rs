//! End-to-end integration: corpus → enumeration → differential testing →
//! triage, across crates.

use spe::core::{Algorithm, Enumerator, EnumeratorConfig, Granularity, Skeleton};
use spe::corpus::{generate, seeds, CorpusConfig};
use spe::harness::triage::{figure10, table4};
use spe::harness::{Campaign, CampaignConfig, FindingKind};
use spe::simcc::bugs::GCC_VERSIONS;
use spe::simcc::{interp, Compiler, CompilerId};
use std::ops::ControlFlow;

fn trunk_campaign() -> spe::harness::CampaignReport {
    let mut files = seeds::all();
    files.extend(generate(&CorpusConfig {
        files: 60,
        seed: 44,
    }));
    Campaign::default().run(
        &files,
        &CampaignConfig {
            compilers: vec![
                Compiler::new(CompilerId::gcc(700), 0),
                Compiler::new(CompilerId::gcc(700), 3),
                Compiler::new(CompilerId::clang(390), 3),
            ],
            budget: 80,
            algorithm: Algorithm::Paper,
            check_wrong_code: true,
            fuel: 20_000,
        },
    )
}

#[test]
fn campaign_finds_crashes_and_wrong_code() {
    let report = trunk_campaign();
    assert!(report.files_processed >= 60);
    assert!(report.variants_tested > 1000);
    let kinds: Vec<FindingKind> = report.findings.iter().map(|f| f.kind).collect();
    assert!(kinds.contains(&FindingKind::Crash), "crash bugs found");
    assert!(
        kinds.contains(&FindingKind::WrongCode),
        "wrong-code bugs found"
    );
}

#[test]
fn triage_tables_are_consistent_with_findings() {
    let report = trunk_campaign();
    let rows = table4(&report, &["gcc-sim", "clang-sim"]);
    let total: usize = rows.iter().map(|r| r.reported).sum();
    assert_eq!(total, report.findings.len());
    let fig = figure10(&report, "gcc-sim", GCC_VERSIONS);
    assert!(!fig.components.is_empty());
    assert!(fig.opt_levels.len() == 4);
}

#[test]
fn all_enumerated_variants_of_seeds_are_valid_programs() {
    for file in seeds::all() {
        let sk = Skeleton::from_source(&file.source).expect("seed builds");
        let e = Enumerator::new(EnumeratorConfig {
            budget: 300,
            ..Default::default()
        });
        let mut count = 0;
        e.enumerate(&sk, &mut |v| {
            let src = v.source(&sk);
            Skeleton::from_source(&src)
                .unwrap_or_else(|err| panic!("{}: invalid variant: {err}\n{src}", file.name));
            count += 1;
            ControlFlow::Continue(())
        });
        assert!(count > 0, "{} produced no variants", file.name);
    }
}

#[test]
fn reference_interpreter_agrees_with_vm_on_clean_compiler() {
    // Property over the corpus: for every UB-free program, a bug-free
    // compiler configuration must agree with the reference interpreter.
    let files = generate(&CorpusConfig {
        files: 40,
        seed: 99,
    });
    let cc = Compiler::new(CompilerId::gcc(440), 0); // -O0, no live triggers at O0
    let mut compared = 0;
    for f in &files {
        let Ok(p) = spe::minic::parse(&f.source) else {
            continue;
        };
        let Ok(reference) = interp::run(&p, interp::Limits::default()) else {
            continue; // UB or non-termination
        };
        let Ok(compiled) = cc.compile(&p) else {
            continue; // e.g. struct files
        };
        if !compiled.miscompiled_by.is_empty() {
            continue;
        }
        let Ok(out) = compiled.execute(1_000_000) else {
            panic!("VM trapped on UB-free program {}:\n{}", f.name, f.source);
        };
        assert_eq!(
            out.exit_code, reference.exit_code,
            "differential mismatch without a seeded bug on {}:\n{}",
            f.name, f.source
        );
        compared += 1;
    }
    assert!(compared >= 10, "only {compared} programs compared");
}

#[test]
fn counting_and_enumeration_agree_on_corpus_sample() {
    use spe::bignum::BigUint;
    let files = generate(&CorpusConfig { files: 60, seed: 5 });
    let mut checked = 0;
    for f in &files {
        let Ok(sk) = Skeleton::from_source(&f.source) else {
            continue;
        };
        let count = spe::core::spe_count(&sk, Granularity::Intra);
        if count > BigUint::from(2000u64) {
            continue;
        }
        let e = Enumerator::new(EnumeratorConfig {
            budget: 2001,
            ..Default::default()
        });
        let outcome = e.enumerate(&sk, &mut |_| ControlFlow::Continue(()));
        assert_eq!(
            BigUint::from(outcome.emitted),
            count,
            "closed form vs enumeration on {}",
            f.name
        );
        checked += 1;
    }
    assert!(checked >= 8, "only {checked} files checked");
}
