//! Benchmarks for the compiler-under-test pipeline and the differential
//! harness hot path, and the per-file set-up a campaign pays before its
//! first variant.
//!
//! The `per_file` group times each set-up step over the first
//! [`PER_FILE_FILES`] files `spe_corpus::generate` makes at seed 1 (the
//! `breadth` shape: small files, small spaces); divide a row by that
//! count for the cost per file. `BENCH_per_file.json` records the rows.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use spe_core::{Algorithm, EnumeratorConfig, ShardedEnumerator, Skeleton};
use spe_corpus::{generate, CorpusConfig};
use spe_simcc::{interp, Compiler, CompilerId};

const PROGRAM: &str = r#"
    int g = 3;
    int square(int x) { return x * x; }
    int main() {
        int s = 0;
        for (int i = 0; i < 20; i++) {
            if (i % 2) s += square(i) - g;
            else s += i;
        }
        return s;
    }
"#;

fn bench_compile(c: &mut Criterion) {
    let p = spe_minic::parse(PROGRAM).expect("parses");
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(50);
    for opt in [0u8, 3] {
        let cc = Compiler::new(CompilerId::gcc(440), opt);
        group.bench_function(format!("compile_O{opt}"), |b| {
            b.iter(|| cc.compile(&p).expect("compiles"))
        });
    }
    let cc = Compiler::new(CompilerId::gcc(440), 3);
    let compiled = cc.compile(&p).expect("compiles");
    group.bench_function("vm_execute", |b| {
        b.iter(|| compiled.execute(1_000_000).expect("runs"))
    });
    group.bench_function("reference_interpret", |b| {
        b.iter(|| interp::run(&p, interp::Limits::default()).expect("runs"))
    });
    group.bench_function("parse", |b| {
        b.iter(|| spe_minic::parse(PROGRAM).expect("parses"))
    });
    group.finish();
}

/// Files per `per_file` iteration.
const PER_FILE_FILES: usize = 200;

fn bench_per_file(c: &mut Criterion) {
    const SAMPLES: usize = 10;
    let files = generate(&CorpusConfig {
        files: PER_FILE_FILES,
        seed: 1,
    });
    let skeletons: Vec<Skeleton> = files
        .iter()
        .map(|f| Skeleton::from_source(&f.source).expect("generated files analyze"))
        .collect();
    let sharded = ShardedEnumerator::new(
        EnumeratorConfig {
            algorithm: Algorithm::Paper,
            budget: 50,
            ..Default::default()
        },
        2,
    );
    let mut group = c.benchmark_group("per_file");
    group.sample_size(SAMPLES);
    group.bench_function("parse", |b| {
        b.iter(|| {
            for f in &files {
                black_box(spe_minic::parse(&f.source).expect("parses"));
            }
        })
    });
    group.bench_function("skeleton", |b| {
        b.iter(|| {
            for f in &files {
                black_box(Skeleton::from_source(&f.source).expect("analyzes"));
            }
        })
    });
    group.bench_function("prepare", |b| {
        b.iter(|| {
            for sk in &skeletons {
                black_box(sharded.prepare(sk));
            }
        })
    });
    // The template is built once per skeleton, on first use: every
    // iteration takes its own fresh copies, built and dropped untimed.
    let mut fresh: Vec<Vec<Skeleton>> = (0..=SAMPLES).map(|_| skeletons.clone()).collect();
    let mut used = Vec::with_capacity(fresh.len());
    group.bench_function("template", |b| {
        b.iter(|| {
            let batch = fresh.pop().expect("one fresh batch per iteration");
            for sk in &batch {
                black_box(sk.template());
            }
            used.push(batch);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_compile, bench_per_file);
criterion_main!(benches);
