//! Sharded vs serial enumeration: wall-clock scaling at 1/2/4/8 shards.
//!
//! Every row prepares the skeleton's space once per iteration and streams
//! each shard through `ShardedEnumerator::enumerate_shard_prepared` on a
//! scoped thread of its own (one shard runs on the calling thread), then
//! asserts that the shards together visited the whole space.
//!
//! Two workloads over the paper's Figure 6 skeleton:
//!
//! * `enumerate_only` — realize every variant source (cheap per-variant
//!   work; measures sharding overhead);
//! * `enumerate_compile` — realize, parse and compile every variant at
//!   -O3 (the campaign hot path; the per-variant work that parallelism is
//!   for).
//!
//! With one shard no thread is spawned, so the `shards1` rows are the
//! baseline. On a multi-core host the 4-shard `enumerate_compile` row
//! lands at a fraction of the 1-shard time (≥1.5× speedup); on a single
//! hardware thread the rows should stay within noise of each other,
//! demonstrating that sharding costs nothing.
//!
//! A third group, `canonical_constrained`, pins the shard-native walk of
//! a *constrained multi-group* canonical space (DESIGN §8): a
//! two-function skeleton with three type groups, two of them constrained
//! by declaration order and nested scopes. `materialized_serial` is the
//! serial `Enumerator` (which deliberately materializes every per-group
//! solution list); the `shardsN` rows stream the shards of the native
//! space — per-group sizes from the prefix-count DP, mixed-radix boundary
//! unranking, nothing materialized. Baseline recorded in
//! `BENCH_canonical_constrained.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spe_core::{Algorithm, EnumeratorConfig, ShardedEnumerator, Skeleton, Variant};
use spe_simcc::{Compiler, CompilerId};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};

const FIGURE_6: &str = r#"
    int main() {
        int a = 1, b = 0;
        if (a) {
            int c = 3, d = 5;
            b = c + d;
        }
        printf("%d", a);
        printf("%d", b);
        return 0;
    }
"#;

fn config() -> EnumeratorConfig {
    EnumeratorConfig {
        algorithm: Algorithm::Naive, // the largest space: 512 variants
        budget: 1_000_000,
        ..Default::default()
    }
}

/// Prepares `sk` and streams every shard of the space on its own scoped
/// thread (a single shard on the calling thread), calling `visit` once
/// per variant from whichever thread streams it.
fn stream_all_shards<F>(e: &ShardedEnumerator, sk: &Skeleton, visit: &F)
where
    F: Fn(&Variant) + Sync,
{
    let space = e.prepare(sk);
    let stream = |shard: usize| {
        e.enumerate_shard_prepared(&space, shard, &mut |v| {
            visit(v);
            ControlFlow::Continue(())
        });
    };
    if e.shards() == 1 {
        stream(0);
        return;
    }
    let stream = &stream;
    std::thread::scope(|scope| {
        for shard in 0..e.shards() {
            scope.spawn(move || stream(shard));
        }
    });
}

fn bench_sharded_enumeration(c: &mut Criterion) {
    let sk = Skeleton::from_source(FIGURE_6).expect("builds");
    let mut group = c.benchmark_group("parallel");
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        let enumerator = ShardedEnumerator::new(config(), shards);
        group.bench_with_input(
            BenchmarkId::new("enumerate_only", format!("shards{shards}")),
            &enumerator,
            |b, e| {
                b.iter(|| {
                    let n = AtomicU64::new(0);
                    stream_all_shards(e, &sk, &|v| {
                        criterion::black_box(v.source(&sk));
                        n.fetch_add(1, Ordering::Relaxed);
                    });
                    assert_eq!(n.into_inner(), 512);
                })
            },
        );
    }
    let cc = Compiler::new(CompilerId::gcc(700), 3);
    for shards in [1usize, 2, 4, 8] {
        let enumerator = ShardedEnumerator::new(config(), shards);
        group.bench_with_input(
            BenchmarkId::new("enumerate_compile", format!("shards{shards}")),
            &enumerator,
            |b, e| {
                b.iter(|| {
                    let compiled = AtomicU64::new(0);
                    stream_all_shards(e, &sk, &|v| {
                        let src = v.source(&sk);
                        if let Ok(prog) = spe_minic::parse(&src) {
                            if cc.compile(&prog).is_ok() {
                                compiled.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    });
                    criterion::black_box(compiled.into_inner())
                })
            },
        );
    }
    group.finish();
}

/// A constrained, multi-group skeleton (three type groups; the int
/// groups are constrained by declaration order and nested scopes). Its
/// canonical product exceeds the paper's 10,000-variant budget, so every
/// row streams exactly the 10K-variant truncated prefix — the same
/// stream a campaign would consume.
const CONSTRAINED_MULTI_GROUP: &str = r#"
    int g, h;
    int main() {
        int a = 1, b = 0;
        double x, y;
        if (a) {
            int c = 3, d = 5;
            b = c + d;
            g = a + c;
            x = y;
        }
        h = a + b;
        return 0;
    }
    void helper() {
        int u, v;
        u = v + g;
        if (u) { int w; w = u + v + h; }
    }
"#;

fn bench_constrained_canonical(c: &mut Criterion) {
    let sk = Skeleton::from_source(CONSTRAINED_MULTI_GROUP).expect("builds");
    let config = EnumeratorConfig {
        algorithm: Algorithm::Canonical,
        budget: 10_000,
        ..Default::default()
    };
    // The workload only measures what it claims if the gate engages and
    // the space is non-trivial.
    let space = ShardedEnumerator::new(config, 2).prepare(&sk);
    assert!(
        space.is_shard_native(),
        "constrained native gate must engage"
    );
    let total = space.total(config.budget);
    assert!(total > 500, "space too small to measure: {total}");
    let mut group = c.benchmark_group("canonical_constrained");
    group.sample_size(10);
    group.bench_function("materialized_serial", |b| {
        b.iter(|| {
            let mut n = 0u64;
            spe_core::Enumerator::new(config).enumerate(&sk, &mut |v| {
                criterion::black_box(v.source(&sk));
                n += 1;
                ControlFlow::Continue(())
            });
            assert_eq!(n, total);
        })
    });
    for shards in [1usize, 2, 4, 8] {
        let enumerator = ShardedEnumerator::new(config, shards);
        group.bench_with_input(
            BenchmarkId::new("native", format!("shards{shards}")),
            &enumerator,
            |b, e| {
                b.iter(|| {
                    let n = AtomicU64::new(0);
                    stream_all_shards(e, &sk, &|v| {
                        criterion::black_box(v.source(&sk));
                        n.fetch_add(1, Ordering::Relaxed);
                    });
                    assert_eq!(n.into_inner(), total);
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sharded_enumeration,
    bench_constrained_canonical
);
criterion_main!(benches);
