//! End-to-end campaign benchmark: the Table-3 stable-release workload
//! driven through `run_campaign_parallel`, measured two ways
//! (`BENCH_campaign.json` records the baseline):
//!
//! * `campaign/workersN` — wall clock of the whole campaign at 1/2/4/8
//!   workers under the default `NullSink` (the production hot path);
//! * `campaign/workers1_recorded` — the same serial campaign with a
//!   live `spe_telemetry::Recorder` installed, pinning the
//!   instrumentation overhead next to the uninstrumented number.
//!
//! After timing, one instrumented pass prints the throughput summary:
//! end-to-end programs/s and observations/s (one observation is one
//! program on one configuration) plus p50/p99 per-verdict oracle
//! latency, read from the `oracle_ns.*` histograms the campaign itself
//! recorded. `BENCHMARK.json` and `campaign_bench/` hold the benchmark
//! changes are judged by; this bench is a quick smoke of the same path.

use std::sync::Arc;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spe_corpus::{generate, seeds, CorpusConfig, TestFile};
use spe_harness::{run_campaign_parallel, Campaign, CampaignConfig, Oracle};
use spe_simcc::backend::SimccBackend;
use spe_simcc::{Compiler, CompilerId};
use spe_telemetry::{names, Recorder};

/// The Table-3 workload at the experiments' quick scale: paper seeds +
/// a 50-file synthetic corpus slice against the stable releases.
fn workload() -> (Vec<TestFile>, CampaignConfig) {
    let mut files = seeds::all();
    files.extend(generate(&CorpusConfig {
        files: 50,
        seed: 43,
    }));
    let config = CampaignConfig {
        compilers: vec![
            Compiler::new(CompilerId::gcc(485), 0),
            Compiler::new(CompilerId::gcc(485), 3),
            Compiler::new(CompilerId::clang(360), 0),
            Compiler::new(CompilerId::clang(360), 3),
        ],
        budget: 50,
        algorithm: spe_core::Algorithm::Paper,
        check_wrong_code: false,
        fuel: 20_000,
    };
    (files, config)
}

fn bench_campaign(c: &mut Criterion) {
    let (files, config) = workload();

    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("campaign", format!("workers{workers}")),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    criterion::black_box(
                        run_campaign_parallel(&files, &config, workers).variants_tested,
                    )
                })
            },
        );
    }
    // The same serial campaign with a live Recorder: the gap to
    // `workers1` is the whole instrumentation overhead.
    group.bench_function("workers1_recorded", |b| {
        let recorder = Arc::new(Recorder::new());
        let prev = spe_telemetry::install_recorder(recorder, Vec::new());
        b.iter(|| {
            criterion::black_box(run_campaign_parallel(&files, &config, 1).variants_tested)
        });
        spe_telemetry::uninstall_recorder(prev);
    });
    // The historical render→parse→compile round trip, kept as a live
    // baseline so the incremental speedup is measured on the same host
    // in the same run.
    group.bench_function("workers1_roundtrip", |b| {
        b.iter(|| {
            let round_trip = Campaign {
                oracle: Oracle::Backend(&SimccBackend),
                ..Campaign::default()
            };
            criterion::black_box(round_trip.run(&files, &config).variants_tested)
        })
    });
    group.finish();

    // One instrumented pass for the recorded throughput summary.
    let recorder = Arc::new(Recorder::new());
    let prev = spe_telemetry::install_recorder(recorder.clone(), Vec::new());
    let start = Instant::now();
    let report = run_campaign_parallel(&files, &config, 1);
    let elapsed = start.elapsed();
    spe_telemetry::uninstall_recorder(prev);
    let snap = recorder.snapshot();
    let secs = elapsed.as_secs_f64().max(1e-9);
    // `variants_tested` counts observations: every program is observed
    // once per configuration.
    let observations = report.variants_tested;
    let programs = observations / config.compilers.len() as u64;
    eprintln!(
        "campaign workload: {programs} programs, {observations} observations, {} findings; \
         serial {:.0} programs/s, {:.0} observations/s",
        report.findings.len(),
        programs as f64 / secs,
        observations as f64 / secs,
    );
    for (name, h) in &snap.histograms {
        let Some(label) = name.strip_prefix(names::ORACLE_NS_PREFIX) else {
            continue;
        };
        eprintln!(
            "oracle latency [{label}]: n={} p50={:.1}us p99={:.1}us mean={:.1}us",
            h.count,
            h.quantile(0.5) / 1e3,
            h.quantile(0.99) / 1e3,
            h.mean() / 1e3,
        );
    }
    // Smoke check: the default entry point must be running on the
    // splice cache — a silent fallback to the round trip would make the
    // timing rows above meaningless.
    let splice_hits = recorder.counter_value(names::ORACLE_SPLICE_HITS);
    let splice_misses = recorder.counter_value(names::ORACLE_SPLICE_MISSES);
    assert!(
        splice_hits > 0,
        "default campaign path did not engage the incremental oracle"
    );
    let memo_hits = recorder.counter_value(names::ORACLE_PIPELINE_MEMO_HITS);
    let memo_misses = recorder.counter_value(names::ORACLE_PIPELINE_MEMO_MISSES);
    eprintln!(
        "oracle cache: splice {splice_hits} delta / {splice_misses} full ({:.1}% hit), \
         pipeline memo {memo_hits} hit / {memo_misses} miss",
        100.0 * splice_hits as f64 / (splice_hits + splice_misses).max(1) as f64,
    );
}

criterion_group!(benches, bench_campaign);
criterion_main!(benches);
