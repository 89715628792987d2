//! The constrained shard-native canonical path over the corpus.
//!
//! PR 2's native gate covered only single-group skeletons whose holes see
//! the whole variable set; everything else fell back to materializing
//! per-group solution lists. These tests pin the generalized gate
//! (`DESIGN.md §8`): every corpus skeleton within the 128-variable mask
//! width takes the native path — including constrained, multi-group ones
//! — and shard unions stay byte-identical to the serial (materialized)
//! enumerator at 1/2/4/8 shards, budget truncation included.

use spe::core::{
    Algorithm, Enumerator, EnumeratorConfig, Granularity, ShardedEnumerator, Skeleton,
};
use std::ops::ControlFlow;

fn config(budget: usize) -> EnumeratorConfig {
    EnumeratorConfig {
        algorithm: Algorithm::Canonical,
        granularity: Granularity::Intra,
        budget,
    }
}

/// Serial reference: (index, source) pairs in emission order.
fn serial_sequence(sk: &Skeleton, cfg: EnumeratorConfig) -> Vec<(u64, String)> {
    let mut out = Vec::new();
    Enumerator::new(cfg).enumerate(sk, &mut |v| {
        out.push((v.index, v.source(sk)));
        ControlFlow::Continue(())
    });
    out
}

fn check_native_and_identical(name: &str, sk: &Skeleton, cfg: EnumeratorConfig) {
    let serial = serial_sequence(sk, cfg);
    for shards in [1usize, 2, 4, 8] {
        let sharded = ShardedEnumerator::new(cfg, shards);
        let space = sharded.prepare(sk);
        assert!(
            space.is_shard_native(),
            "{name}: the canonical gate must engage (no list materialized)"
        );
        let mut union: Vec<(u64, String)> = Vec::new();
        for shard in 0..shards {
            sharded.enumerate_shard_prepared(&space, shard, &mut |v| {
                union.push((v.index, v.source(sk)));
                ControlFlow::Continue(())
            });
        }
        assert_eq!(union, serial, "{name}: {shards} shards diverged");
    }
}

#[test]
fn corpus_seed_skeletons_take_the_native_path_and_match_serial() {
    let mut multi_group = 0usize;
    for file in spe::corpus::seeds::all() {
        let sk =
            Skeleton::from_source(&file.source).unwrap_or_else(|e| panic!("{}: {e}", file.name));
        let groups: usize = sk
            .units(Granularity::Intra)
            .iter()
            .map(|u| u.groups.len())
            .sum();
        multi_group += usize::from(groups > 1);
        check_native_and_identical(&file.name, &sk, config(10_000));
    }
    // The paper-figure seeds are all unconstrained (the generated-corpus
    // test below owns the constrained regime), but they must cover the
    // multi-group product walk.
    assert!(multi_group >= 1, "no multi-group seed skeleton");
}

#[test]
fn generated_corpus_skeletons_take_the_native_path_and_match_serial() {
    let files = spe::corpus::generate(&spe::corpus::CorpusConfig { files: 40, seed: 7 });
    let mut constrained_multi_group = 0usize;
    for file in &files {
        let Ok(sk) = Skeleton::from_source(&file.source) else {
            continue;
        };
        let units = sk.units(Granularity::Intra);
        let groups: Vec<_> = units.iter().flat_map(|u| u.groups.iter()).collect();
        if groups.len() > 1 && groups.iter().any(|g| !g.is_unconstrained()) {
            constrained_multi_group += 1;
        }
        // A small budget keeps big files cheap while still covering the
        // truncation interplay on every shape the generator produces.
        check_native_and_identical(&file.name, &sk, config(500));
    }
    assert!(
        constrained_multi_group >= 3,
        "only {constrained_multi_group} constrained multi-group files; \
         the corpus slice no longer exercises the new path"
    );
}
