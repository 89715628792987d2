//! Variant rendering through the template-compiled splice.
//!
//! Workloads over the paper's Figure 6 skeleton (Naive enumeration — the
//! largest space, 512 variants):
//!
//! * `template_render` — compile the render template once, then realize
//!   each variant as a segment/slot splice into one reused buffer (zero
//!   per-variant heap allocation);
//! * `template_render_sharded/shardsN` — the same splice fanned over
//!   1/2/4/8 shards with a per-shard buffer, the campaign hot path.
//!
//! `BENCH_render.json` records these rows against the AST re-walk they
//! replaced.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spe_core::{Algorithm, Enumerator, EnumeratorConfig, ShardedEnumerator, Skeleton};
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

const VARIANTS: u64 = 512;

fn config() -> EnumeratorConfig {
    EnumeratorConfig {
        algorithm: Algorithm::Naive,
        budget: 1_000_000,
        ..Default::default()
    }
}

fn bench_rendering(c: &mut Criterion) {
    let sk = Skeleton::from_source(FIGURE_6).expect("builds");
    sk.template(); // compile outside the timed region, as campaigns do
    let mut group = c.benchmark_group("rendering");
    group.sample_size(20);

    group.bench_function("template_render", |b| {
        let e = Enumerator::new(config());
        b.iter(|| {
            let mut buf = String::new();
            let mut n = 0u64;
            e.enumerate(&sk, &mut |v| {
                v.render_into(&sk, &mut buf);
                criterion::black_box(buf.len());
                n += 1;
                ControlFlow::Continue(())
            });
            assert_eq!(n, VARIANTS);
        })
    });

    for shards in [1usize, 2, 4, 8] {
        let enumerator = ShardedEnumerator::new(config(), shards);
        group.bench_with_input(
            BenchmarkId::new("template_render_sharded", format!("shards{shards}")),
            &enumerator,
            |b, e| {
                let space = e.prepare(&sk);
                b.iter(|| {
                    let n = AtomicU64::new(0);
                    std::thread::scope(|scope| {
                        for shard in 0..e.shards() {
                            let (space, sk, n) = (&space, &sk, &n);
                            scope.spawn(move || {
                                let mut buf = String::new();
                                let mut local = 0u64;
                                e.enumerate_shard_prepared(space, shard, &mut |v| {
                                    v.render_into(sk, &mut buf);
                                    criterion::black_box(buf.len());
                                    local += 1;
                                    ControlFlow::Continue(())
                                });
                                n.fetch_add(local, Ordering::Relaxed);
                            });
                        }
                    });
                    assert_eq!(n.into_inner(), VARIANTS);
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_rendering);
criterion_main!(benches);
