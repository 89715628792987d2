//! The incremental oracle's fact plan, checked against the scan.
//!
//! `CachedOracle` matches triggers against facts it plans once per job
//! and evaluates per variant from the hole bindings (DESIGN §13), not
//! against `bugs::scan_facts`. Over the paper seeds and generated
//! corpora, under all four algorithms, at one and at two shards per
//! file, spliced with each variant's hole delta as a campaign job does,
//! the planned facts must answer every trigger of the registry, and
//! `SameVarTimes`, `DistinctVars` and `DeepExpression` for n up to 12,
//! exactly as a fresh scan of the parsed rendered variant does.

use proptest::prelude::*;
use spe::core::{Algorithm, EnumeratorConfig, Granularity, ShardedEnumerator, Skeleton};
use spe::corpus::{generate, seeds, CorpusConfig, TestFile};
use spe::simcc::bugs::{registry, scan_facts, Trigger};
use spe::simcc::incremental::CachedOracle;
use spe::simcc::{Compiler, CompilerId};
use std::ops::ControlFlow;

const ALGORITHMS: [Algorithm; 4] = [
    Algorithm::Paper,
    Algorithm::Canonical,
    Algorithm::Orbit,
    Algorithm::Naive,
];

/// Every trigger of the registry, and the counting triggers at 1..=12.
fn triggers() -> Vec<Trigger> {
    let mut out: Vec<Trigger> = registry().iter().map(|b| b.trigger).collect();
    for n in 1..=12 {
        out.extend([
            Trigger::SameVarTimes(n),
            Trigger::DistinctVars(n),
            Trigger::DeepExpression(n),
        ]);
    }
    out
}

/// Sites where the scan's quirks decide: `&g` of a local `g` before
/// the global `g` is declared is no `&` of a global, though `&a` is;
/// both pointers store through in the list that declares them.
const QUIRKS: &str = "int a;
int f(int n) {
    int g = 1, h = 2;
    int *p = &h, *q = &h;
    *p = g;
    *q = g - h;
    while (n) { n = n / g; }
    return h;
}
int g;
int main() { return f(a) + g; }";

/// The paper seeds, [`QUIRKS`], and `files` generated files at `seed`.
fn corpus(seed: u64, files: usize) -> Vec<TestFile> {
    let mut out = seeds::all();
    out.push(TestFile {
        name: "quirks.c".into(),
        source: QUIRKS.into(),
    });
    out.extend(generate(&CorpusConfig { files, seed }));
    out
}

/// Checks the planned facts of every variant of `files` (budget 50,
/// `shards` shards per file, one cache per (file, shard) job) against a
/// scan of the parsed variant; returns how many variants it checked.
fn plan_matches_scan(files: &[TestFile], algorithm: Algorithm, shards: usize) -> u64 {
    let triggers = triggers();
    let compilers = [Compiler::new(CompilerId::gcc(485), 0)];
    let enumerator = ShardedEnumerator::new(
        EnumeratorConfig {
            algorithm,
            granularity: Granularity::Intra,
            budget: 50,
        },
        shards,
    );
    let mut checked = 0;
    for file in files {
        let Ok(sk) = Skeleton::from_source(&file.source) else {
            assert_ne!(file.name, "quirks.c", "the quirks file must enumerate");
            continue;
        };
        let space = enumerator.prepare(&sk);
        let occs: Vec<_> = sk.hole_occs().collect();
        for shard in 0..shards {
            let mut cache = CachedOracle::new(sk.program().clone(), &occs, &compilers, false, 0)
                .expect("every hole is a use site of its skeleton");
            let mut prev = Vec::new();
            let mut changed = Vec::new();
            enumerator.enumerate_shard_prepared(&space, shard, &mut |v| {
                let names: Vec<&str> = v.names.iter().map(|&id| sk.names().name(id)).collect();
                v.changed_holes_into(&prev, &mut changed);
                prev.clone_from(&v.names);
                let planned = cache.facts(&names, Some(&changed));
                let src = v.source(&sk);
                let parsed = spe::minic::parse(&src).expect("variants parse");
                let scanned = scan_facts(&parsed);
                for &t in &triggers {
                    assert_eq!(
                        planned.matches(t),
                        scanned.matches(t),
                        "{t:?} on {} shard {shard} under {algorithm:?}:\n{src}\n\
                         planned {planned:?}\nscanned {scanned:?}",
                        file.name,
                    );
                }
                checked += 1;
                ControlFlow::Continue(())
            });
        }
    }
    checked
}

#[test]
fn planned_facts_match_the_scan_on_every_variant() {
    for seed in [1, 3, 7] {
        let files = corpus(seed, 40);
        for algorithm in ALGORITHMS {
            for shards in [1, 2] {
                let checked = plan_matches_scan(&files, algorithm, shards);
                assert!(checked > 0, "seed {seed} {algorithm:?}: no variant checked");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn planned_facts_match_the_scan_on_random_corpora(
        seed in 0u64..10_000,
        algorithm in 0usize..4,
        shards in 1usize..3,
    ) {
        plan_matches_scan(&corpus(seed, 30), ALGORITHMS[algorithm], shards);
    }
}
