//! The wrong-code oracle's two reference shortcuts, checked against
//! plain runs.
//!
//! * The reference memo (`CachedOracle::reference`, DESIGN §13) hands a
//!   variant the result of an earlier run of its job that read only
//!   holes the variant agrees on. Over wrong-code corpora, at one and at
//!   two shards per file, every result it serves must equal a fresh
//!   `interp::run` of the parsed variant. A memo that misses one read,
//!   such as an assignment target's or one the loop check inspects,
//!   serves a wrong result here.
//! * `Ub::NonTerminating` claims that a loop can never exit. Whenever the
//!   reference says so, the unoptimized image on the VM, an independent
//!   engine, must not finish either: it runs out of fuel or traps. The
//!   same pass counts the runs that still burn all their fuel, and fails
//!   when the head check lets more of them through.

use proptest::prelude::*;
use spe::core::{Algorithm, EnumeratorConfig, Granularity, ShardedEnumerator, Skeleton};
use spe::corpus::{generate, seeds, CorpusConfig, TestFile};
use spe::simcc::incremental::CachedOracle;
use spe::simcc::{interp, reference_limits, vm, Compiler, CompilerId};
use std::ops::ControlFlow;

/// The campaigns' reference fuel.
const FUEL: u64 = 20_000;

/// A loop that exits only through an assignment run after the head
/// check. In the variant that writes `i` there, the check proves the
/// loop endless, and only the check reads that target's hole. The next
/// variant writes `a` there and exits; a memo that missed the check's
/// read would hand it the first variant's `NonTerminating`.
const LATE_EXIT: &str = "int main() {
    int a = 1, i = 1;
    i = 0;
    while (a) {
        i++;
        if (i > 100) a = 0;
    }
    return 0;
}";

/// A loop whose verdict hangs on a hole that only the head check's slice
/// walk reads: the value of `a = ·`, in a branch that never runs. Spelled
/// `a`, the slice is `{a}`, which repeats, so the run stops
/// `NonTerminating`; spelled `n`, it is `{a, n}`, which never repeats, so
/// the run burns its fuel. A memo that missed the walk's read would hand
/// one variant the other's verdict.
const SLICE_READ: &str = "int main() {
    int a = 1, n = 0;
    while (a) {
        n++;
        if (0) a = n;
    }
    return 0;
}";

/// The runs of [`non_terminating_verdicts_hold_on_the_unoptimized_vm`]'s
/// corpus that end `FuelExhausted`, counted when the head check began to
/// follow a loop's slice (687 ended `NonTerminating` then). Without the
/// two fixtures above the count was 114, against 396 before.
const FUEL_EXHAUSTED_AT_MOST: usize = 138;

/// The paper seeds, [`LATE_EXIT`], [`SLICE_READ`], and `files` generated
/// files at `seed`.
fn corpus(seed: u64, files: usize) -> Vec<TestFile> {
    let mut out = seeds::all();
    for (name, source) in [("late_exit.c", LATE_EXIT), ("slice_read.c", SLICE_READ)] {
        out.push(TestFile {
            name: name.into(),
            source: source.into(),
        });
    }
    out.extend(generate(&CorpusConfig { files, seed }));
    out
}

/// Streams every variant of `files` (Paper, budget 50, `shards` shards
/// per file) to `visit`, one job per (file, shard) as a campaign runs it.
fn for_each_job_variant(
    files: &[TestFile],
    shards: usize,
    mut visit: impl FnMut(&TestFile, &Skeleton, &spe::core::Variant, usize),
) {
    let enumerator = ShardedEnumerator::new(
        EnumeratorConfig {
            algorithm: Algorithm::Paper,
            granularity: Granularity::Intra,
            budget: 50,
        },
        shards,
    );
    for file in files {
        let Ok(sk) = Skeleton::from_source(&file.source) else {
            continue;
        };
        let space = enumerator.prepare(&sk);
        for shard in 0..shards {
            enumerator.enumerate_shard_prepared(&space, shard, &mut |v| {
                visit(file, &sk, v, shard);
                ControlFlow::Continue(())
            });
        }
    }
}

/// Checks every memoized reference result of `files` against a fresh
/// run; returns the memo's (hits, runs).
fn memo_matches_fresh_runs(files: &[TestFile], shards: usize) -> (u64, u64) {
    let compilers = [Compiler::new(CompilerId::gcc(485), 0)];
    let (mut hits, mut runs) = (0, 0);
    // The job being checked: its (file, shard), cache and delta state.
    let mut job: Option<(String, usize, CachedOracle)> = None;
    let mut prev = Vec::new();
    let mut changed = Vec::new();
    let mut flush = |job: Option<(String, usize, CachedOracle)>| {
        if let Some((_, _, cache)) = job {
            hits += cache.stats().reference_memo_hits;
            runs += cache.stats().reference_runs;
        }
    };
    for_each_job_variant(files, shards, |file, sk, v, shard| {
        if !matches!(&job, Some((name, s, _)) if *name == file.name && *s == shard) {
            let occs: Vec<_> = sk.hole_occs().collect();
            let cache = CachedOracle::new(sk.program().clone(), &occs, &compilers, true, FUEL)
                .expect("every hole is a use site of its skeleton");
            flush(job.replace((file.name.clone(), shard, cache)));
            prev.clear();
        }
        let (_, _, cache) = job.as_mut().expect("just set");
        let names: Vec<&str> = v.names.iter().map(|&id| sk.names().name(id)).collect();
        v.changed_holes_into(&prev, &mut changed);
        prev.clone_from(&v.names);
        let memo = cache.reference(&names, Some(&changed));
        let src = v.source(sk);
        let fresh = interp::run(
            &spe::minic::parse(&src).expect("variants parse"),
            reference_limits(FUEL),
        );
        assert_eq!(memo, fresh, "{} shard {shard}:\n{src}", file.name);
    });
    flush(job);
    (hits, runs)
}

#[test]
fn memoized_reference_results_equal_fresh_runs() {
    for seed in [1, 3, 7] {
        let files = corpus(seed, 60);
        for shards in [1, 2] {
            let (hits, runs) = memo_matches_fresh_runs(&files, shards);
            assert!(
                hits > 0 && runs > 0,
                "seed {seed}: {hits} hits, {runs} runs"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn memoized_reference_results_equal_fresh_runs_on_random_corpora(
        seed in 0u64..10_000,
        shards in 1usize..3,
    ) {
        memo_matches_fresh_runs(&corpus(seed, 40), shards);
    }
}

#[test]
fn non_terminating_verdicts_hold_on_the_unoptimized_vm() {
    let (mut proved, mut exhausted) = (0, 0);
    for seed in [1, 3, 7] {
        for_each_job_variant(&corpus(seed, 100), 1, |file, sk, v, _| {
            let src = v.source(sk);
            let p = spe::minic::parse(&src).expect("variants parse");
            match interp::run(&p, reference_limits(FUEL)) {
                Err(interp::Ub::NonTerminating) => proved += 1,
                Err(interp::Ub::FuelExhausted) => {
                    exhausted += 1;
                    return;
                }
                _ => return,
            }
            // Unoptimized: no pass runs, so nothing can delete the loop.
            let image = vm::lower(&p).expect("a program the reference runs lowers");
            let run = vm::execute(&image, FUEL * 4);
            assert!(
                run.is_err(),
                "{}: the VM finished {run:?}:\n{src}",
                file.name
            );
        });
    }
    assert!(proved > 0, "no variant ended NonTerminating");
    assert!(
        exhausted <= FUEL_EXHAUSTED_AT_MOST,
        "{exhausted} runs burned all their fuel ({proved} NonTerminating)"
    );
}
