//! Reduction-stage benchmarks: reducer throughput and shrink ratio on
//! the seeded-bug corpus (`BENCH_reduce.json` records the baseline).
//!
//! Workload: a trunk campaign over the paper seeds plus a 160-file
//! synthetic corpus slice (the `reduction_pipeline` integration-test
//! configuration at 4× its corpus size), whose findings are then
//! reduced:
//!
//! * `reduce_findings/workersN` — the whole post-campaign stage (every
//!   finding reduced + fingerprint dedup) at 1/2/4/8 workers over the
//!   work-stealing queue;
//! * `reduce_one_crash` / `reduce_one_wrong_code` — single-finding
//!   reduction cost for the two oracle classes (compile-only vs full
//!   differential re-execution).
//!
//! The group also prints the shrink/dedup statistics the acceptance bar
//! is measured against (mean shrink ≥ 3×, at least one fingerprint
//! merge).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spe_corpus::{generate, seeds, CorpusConfig};
use spe_harness::reduction::ReductionOptions;
use spe_harness::{run_campaign_parallel, Campaign, CampaignConfig, CampaignReport, FindingKind};
use spe_simcc::{Compiler, CompilerId};

fn campaign() -> (CampaignReport, ReductionOptions) {
    let mut files = seeds::all();
    files.extend(generate(&CorpusConfig {
        files: 160,
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
    let report = run_campaign_parallel(&files, &config, 8);
    let options = ReductionOptions {
        fuel: config.fuel,
        ..ReductionOptions::default()
    };
    (report, options)
}

/// The in-memory reduction stage on `workers` threads.
fn reduce_findings(report: &mut CampaignReport, options: &ReductionOptions, workers: usize) {
    Campaign {
        workers,
        ..Campaign::default()
    }
    .reduce(report, options, None)
    .expect("an in-memory reduction has no journal to fail");
}

fn bench_reduction(c: &mut Criterion) {
    let (report, options) = campaign();
    assert!(
        report.findings.len() >= 10,
        "workload produces a real finding set"
    );

    // Shrink/dedup statistics for the recorded baseline.
    let mut reduced = report.clone();
    reduce_findings(&mut reduced, &options, 8);
    eprintln!(
        "reduction workload: {} findings, mean shrink {:.2}x, {} fingerprint merges",
        reduced.findings.len(),
        reduced.mean_shrink_ratio().unwrap_or(1.0),
        reduced.fingerprint_duplicates(),
    );

    let mut group = c.benchmark_group("reduction");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("reduce_findings", format!("workers{workers}")),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let mut r = report.clone();
                    reduce_findings(&mut r, &options, workers);
                    criterion::black_box(r.fingerprint_duplicates())
                })
            },
        );
    }

    let one_of = |kind: FindingKind| {
        report
            .findings
            .iter()
            .find(|f| f.kind == kind)
            .cloned()
            .expect("workload contains the kind")
    };
    let crash = one_of(FindingKind::Crash);
    let wrong = one_of(FindingKind::WrongCode);
    group.bench_function("reduce_one_crash", |b| {
        b.iter(|| {
            let mut oracle = |p: &spe_minic::Program| {
                spe_harness::reduction::reproduces(&crash, p, options.fuel)
            };
            criterion::black_box(
                spe_reduce::reduce(&crash.reproducer, &options.reduce, &mut oracle)
                    .expect("reduces")
                    .reduced_bytes,
            )
        })
    });
    group.bench_function("reduce_one_wrong_code", |b| {
        b.iter(|| {
            let mut oracle = |p: &spe_minic::Program| {
                spe_harness::reduction::reproduces(&wrong, p, options.fuel)
            };
            criterion::black_box(
                spe_reduce::reduce(&wrong.reproducer, &options.reduce, &mut oracle)
                    .expect("reduces")
                    .reduced_bytes,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_reduction);
criterion_main!(benches);
