//! Regenerators for every table and figure of the SPE paper's evaluation.
//!
//! Each `table*`/`fig*` function reproduces one artifact of §5 with the
//! workspace's substitutes (synthetic corpus, simulated compilers; see
//! `DESIGN.md` §3 and §5). The binaries under `src/bin/` print them;
//! `bin/all` regenerates everything and emits the Markdown recorded in
//! `EXPERIMENTS.md`.

use spe_bignum::BigUint;
use spe_core::{naive_count, spe_count, Granularity, Skeleton};
use spe_corpus::{generate, seeds, stats, CorpusConfig, TestFile};
use spe_harness::coverage_run::figure9 as run_figure9;
use spe_harness::reduction::ReductionOptions;
use spe_harness::triage::{figure10 as run_figure10, table4 as run_table4};
use spe_harness::{run_campaign_parallel, Campaign, CampaignConfig, CampaignReport, FindingKind};
use spe_report::{
    corrected_counts_table, figure8_bucket_of, figure8_buckets, CorrectedCounts, Histogram, Table,
};
use spe_simcc::bugs::GCC_VERSIONS;
use spe_simcc::{Compiler, CompilerId};

/// Scale of an experiment run: `quick` for tests/examples, `full` for the
/// recorded numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Corpus size for the counting experiments.
    pub corpus_files: usize,
    /// Per-file variant budget for campaigns.
    pub budget: usize,
    /// Files sampled for the coverage experiment.
    pub coverage_files: usize,
}

impl Scale {
    /// Small run for CI and examples (a few seconds).
    pub fn quick() -> Scale {
        Scale {
            corpus_files: 200,
            budget: 50,
            coverage_files: 20,
        }
    }

    /// The recorded configuration (about a minute).
    pub fn full() -> Scale {
        Scale {
            corpus_files: 2000,
            budget: 200,
            coverage_files: 100,
        }
    }
}

/// Per-file counting results shared by Table 1 and Figure 8.
pub struct CountingRun {
    /// Corpus files with their naive and SPE counts.
    pub per_file: Vec<(String, BigUint, BigUint)>,
}

/// Counts the naive and SPE (paper algorithm) enumeration sizes of every
/// file in the default corpus.
pub fn counting_run(scale: Scale) -> CountingRun {
    let files = generate(&CorpusConfig {
        files: scale.corpus_files,
        seed: 42,
    });
    let per_file = files
        .iter()
        .filter_map(|f| {
            let sk = Skeleton::from_source(&f.source).ok()?;
            Some((
                f.name.clone(),
                naive_count(&sk, Granularity::Intra),
                spe_count(&sk, Granularity::Intra),
            ))
        })
        .collect();
    CountingRun { per_file }
}

/// Table 1: total/average enumeration-set sizes, naive vs SPE, for the
/// whole corpus and for the 10K-thresholded subset.
pub fn table1(run: &CountingRun) -> Table {
    let threshold = BigUint::from(10_000u64);
    let mut t = Table::new(
        "Table 1: enumeration-set size reduction (naive vs SPE)",
        &[
            "Approach",
            "Total size",
            "Avg. size",
            "#Files",
            "Total (<=10K)",
            "Avg (<=10K)",
            "#Files (<=10K)",
        ],
    );
    let all_naive: BigUint = run.per_file.iter().map(|(_, n, _)| n).sum();
    let all_spe: BigUint = run.per_file.iter().map(|(_, _, s)| s).sum();
    let kept: Vec<&(String, BigUint, BigUint)> = run
        .per_file
        .iter()
        .filter(|(_, _, s)| *s <= threshold)
        .collect();
    let kept_naive: BigUint = kept.iter().map(|(_, n, _)| n).sum();
    let kept_spe: BigUint = kept.iter().map(|(_, _, s)| s).sum();
    let files = run.per_file.len().max(1) as u64;
    let kept_files = kept.len().max(1) as u64;
    let avg = |total: &BigUint, n: u64| total.divmod_word(n).0.to_scientific();
    t.row(&[
        "Naive".into(),
        all_naive.to_scientific(),
        avg(&all_naive, files),
        files.to_string(),
        kept_naive.to_scientific(),
        avg(&kept_naive, kept_files),
        kept_files.to_string(),
    ]);
    t.row(&[
        "Our".into(),
        all_spe.to_scientific(),
        avg(&all_spe, files),
        files.to_string(),
        kept_spe.to_scientific(),
        avg(&kept_spe, kept_files),
        kept_files.to_string(),
    ]);
    // Orders-of-magnitude reduction rows (the paper's headline numbers).
    let omd_all = all_naive.log10() - all_spe.log10();
    let omd_kept = kept_naive.log10() - kept_spe.log10();
    t.row(&[
        "Reduction".into(),
        format!("{omd_all:.1} orders"),
        String::new(),
        String::new(),
        format!("{omd_kept:.1} orders"),
        String::new(),
        String::new(),
    ]);
    t
}

/// Table 2: corpus characteristics (original vs 10K-thresholded subset).
pub fn table2(scale: Scale) -> Table {
    let files = generate(&CorpusConfig {
        files: scale.corpus_files,
        seed: 42,
    });
    let threshold = BigUint::from(10_000u64);
    let kept: Vec<TestFile> = files
        .iter()
        .filter(|f| {
            Skeleton::from_source(&f.source)
                .map(|sk| spe_count(&sk, Granularity::Intra) <= threshold)
                .unwrap_or(false)
        })
        .cloned()
        .collect();
    let all = stats::compute(&files);
    let enumerated = stats::compute(&kept);
    let mut t = Table::new(
        "Table 2: test-suite characteristics",
        &[
            "Test-Suite",
            "#Holes",
            "#Scopes",
            "#Funcs",
            "#Types",
            "#Vars/hole",
        ],
    );
    for (name, s) in [("Original", all), ("Enumerated", enumerated)] {
        t.row(&[
            name.into(),
            format!("{:.2}", s.holes),
            format!("{:.2}", s.scopes),
            format!("{:.2}", s.funcs),
            format!("{:.2}", s.types),
            format!("{:.2}", s.vars_per_hole),
        ]);
    }
    t
}

/// Figure 8(a): distribution of per-file variant counts; 8(b): average
/// eliminated fraction per naive bucket.
pub fn figure8(run: &CountingRun) -> (Histogram, Histogram) {
    let labels = figure8_buckets();
    let n = run.per_file.len().max(1) as f64;
    let mut naive_hist = vec![0.0; labels.len()];
    let mut spe_hist = vec![0.0; labels.len()];
    let mut reduction_sum = vec![0.0; labels.len()];
    let mut reduction_cnt = vec![0usize; labels.len()];
    for (_, naive, spe) in &run.per_file {
        naive_hist[figure8_bucket_of(naive)] += 1.0;
        spe_hist[figure8_bucket_of(spe)] += 1.0;
        let b = figure8_bucket_of(naive);
        // Eliminated fraction 1 - spe/naive via log-safe arithmetic.
        let frac = 1.0 - (spe.log10() - naive.log10()).exp10_clamped();
        reduction_sum[b] += frac.clamp(0.0, 1.0);
        reduction_cnt[b] += 1;
    }
    let mut a = Histogram::new(
        "Figure 8(a): distribution of per-file variant counts",
        labels.clone(),
    );
    a.series("Naive", naive_hist.iter().map(|c| c / n).collect());
    a.series("Our", spe_hist.iter().map(|c| c / n).collect());
    let mut b = Histogram::new(
        "Figure 8(b): avg fraction of variants eliminated per naive bucket",
        labels,
    );
    b.series(
        "Eliminated",
        reduction_sum
            .iter()
            .zip(&reduction_cnt)
            .map(|(s, &c)| if c == 0 { 0.0 } else { s / c as f64 })
            .collect(),
    );
    (a, b)
}

trait Exp10Clamped {
    fn exp10_clamped(self) -> f64;
}

impl Exp10Clamped for f64 {
    /// `10^x` clamped into [0, 1] for x <= 0 (ratios of counts).
    fn exp10_clamped(self) -> f64 {
        if self >= 0.0 {
            1.0
        } else {
            10f64.powf(self)
        }
    }
}

/// Worker-pool width for campaign experiments: one worker per hardware
/// thread. Campaign reports are byte-identical for every worker count, so
/// this only affects wall-clock time.
pub fn campaign_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Installs environment-driven telemetry for an experiments binary:
/// a global recorder plus whatever `SPE_TRACE` / `SPE_METRICS` /
/// `SPE_PROGRESS` / `SPE_TELEMETRY` opt into. Keep the guard alive for
/// the whole run; dropping it flushes the trace and snapshot.
pub fn install_telemetry() -> spe_telemetry::Telemetry {
    spe_telemetry::Telemetry::install_from_env()
}

/// Runs `f` under a `phase.<name>` telemetry span and returns its result
/// with the elapsed wall clock — sourced from the very nanoseconds the
/// span records, so printed timings and exported traces always agree.
pub fn phase<T>(name: &str, f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let telemetry = spe_telemetry::global();
    let timer = spe_telemetry::Timer::always();
    let out = f();
    let nanos = timer.stop_nanos();
    telemetry.span(
        &format!("{}{name}", spe_telemetry::names::PHASE_PREFIX),
        "",
        nanos,
    );
    (out, std::time::Duration::from_nanos(nanos))
}

/// Prints the warnings a campaign absorbed (journal degradation,
/// panicking reducers) to stderr — experiments bins must never drop
/// them silently.
pub fn print_warnings(warnings: &[String]) {
    for w in warnings {
        eprintln!("spe-experiments: warning: {w}");
    }
}

/// Prints a supervised [`spe_harness::Outcome`]'s warnings and unwraps
/// the status.
pub fn surface_warnings(outcome: spe_harness::Outcome) -> spe_harness::CampaignStatus {
    print_warnings(&outcome.warnings);
    outcome.status
}

/// Shared harness of the campaign-scaling experiments: runs the serial
/// campaign over the seeds plus a generated corpus slice, re-runs it at
/// each worker count, asserts every parallel report byte-identical to
/// serial, and renders the timing table.
fn campaign_scaling_table(
    title: &str,
    corpus_seed: u64,
    scale: Scale,
    config: &CampaignConfig,
    worker_counts: &[usize],
) -> Table {
    let mut files = seeds::all();
    files.extend(generate(&CorpusConfig {
        files: scale.corpus_files / 4,
        seed: corpus_seed,
    }));
    let serial_start = std::time::Instant::now();
    let serial = Campaign::default().run(&files, config);
    let serial_time = serial_start.elapsed();
    let mut t = Table::new(
        title,
        &[
            "Workers",
            "Wall time",
            "Speedup",
            "Findings",
            "Identical to serial",
        ],
    );
    t.row(&[
        "1 (serial)".to_string(),
        format!("{serial_time:.2?}"),
        "1.00x".to_string(),
        serial.findings.len().to_string(),
        "-".to_string(),
    ]);
    for &workers in worker_counts {
        let start = std::time::Instant::now();
        let parallel = run_campaign_parallel(&files, config, workers);
        let elapsed = start.elapsed();
        let speedup = serial_time.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
        assert_eq!(
            parallel, serial,
            "{title}: {workers} workers diverged from serial"
        );
        t.row(&[
            workers.to_string(),
            format!("{elapsed:.2?}"),
            format!("{speedup:.2}x"),
            parallel.findings.len().to_string(),
            "yes".to_string(),
        ]);
    }
    t
}

/// Measures the parallel campaign against the serial baseline at several
/// worker counts, asserting byte-identical reports, and renders the
/// timings. The workload is the Table 4 trunk configuration.
pub fn parallel_speedup(scale: Scale, worker_counts: &[usize]) -> Table {
    let config = CampaignConfig {
        budget: scale.budget,
        check_wrong_code: true,
        ..Default::default()
    };
    campaign_scaling_table(
        "Parallel campaign scaling (byte-identical reports)",
        45,
        scale,
        &config,
        worker_counts,
    )
}

/// Campaign scaling under `Algorithm::Canonical`, where every corpus
/// skeleton with cheap exact prefix counts takes the shard-native
/// enumeration path — per-group spaces sized by the counting DP, no
/// solution list materialized (`DESIGN.md §8`). Same contract as
/// [`parallel_speedup`]: reports must stay byte-identical to the serial
/// campaign at every worker count, here with the native walk feeding
/// both sides.
pub fn canonical_native_speedup(scale: Scale, worker_counts: &[usize]) -> Table {
    let config = CampaignConfig {
        budget: scale.budget,
        algorithm: spe_core::Algorithm::Canonical,
        check_wrong_code: true,
        ..Default::default()
    };
    campaign_scaling_table(
        "Canonical shard-native campaign scaling (byte-identical reports)",
        46,
        scale,
        &config,
        worker_counts,
    )
}

/// Kill/resume demonstration on the Table-3 workload (`DESIGN.md` §9).
///
/// Runs the campaign with per-(file, shard) checkpoints into an
/// `spe-persist` journal, force-kills it roughly mid-stream
/// ([`spe_harness::CheckpointOptions::stop_after`] — the in-memory tail
/// since the last fsync'd checkpoint is dropped, exactly like a
/// `SIGKILL`), resumes from the journal, and **asserts** the resumed
/// report and its checkpointed reduction byte-identical to the
/// uninterrupted run. The two phases render as one table via the
/// partial-report merge [`Table::extend`].
pub fn resume_demo(scale: Scale, workers: usize) -> Table {
    use spe_harness::checkpoint::{compact_journal, CampaignStatus, CheckpointOptions};
    let mut files = seeds::all();
    files.extend(generate(&CorpusConfig {
        files: scale.corpus_files / 8,
        seed: 43,
    }));
    let config = CampaignConfig {
        compilers: vec![
            Compiler::new(CompilerId::gcc(485), 0),
            Compiler::new(CompilerId::gcc(485), 3),
            Compiler::new(CompilerId::clang(360), 0),
            Compiler::new(CompilerId::clang(360), 3),
        ],
        budget: scale.budget,
        check_wrong_code: false,
        ..Default::default()
    };
    let reference = run_campaign_parallel(&files, &config, workers);
    let campaign = Campaign {
        workers,
        ..Campaign::default()
    };
    let path = std::env::temp_dir().join(format!(
        "spe-resume-demo-{}-{workers}.journal",
        std::process::id()
    ));
    // Kill roughly mid-stream: half the per-variant work items.
    let total_variants = reference.variants_tested / config.compilers.len().max(1) as u64;
    let stop_after = (total_variants / 2).max(1);
    let headers = [
        "Phase",
        "Wall time",
        "Variants",
        "Findings",
        "Identical to uninterrupted",
    ];
    let mut t = Table::new(
        format!("Checkpointed campaign: kill after ~{stop_after} variants, resume ({workers} workers)"),
        &headers,
    );
    let (first, first_time) = phase("run_until_kill", || {
        campaign
            .run_journaled(
                &files,
                &config,
                &path,
                &CheckpointOptions {
                    every: 64,
                    stop_after: Some(stop_after),
                },
                None,
            )
            .map(surface_warnings)
            .expect("journal is writable")
    });
    assert!(
        matches!(first, CampaignStatus::Interrupted),
        "the kill budget must preempt the campaign"
    );
    let journal_records = spe_persist::JournalReader::read(&path)
        .expect("journal readable")
        .records
        .len();
    t.row(&[
        "run until kill".to_string(),
        format!("{first_time:.2?}"),
        format!("~{stop_after} (journal: {journal_records} records)"),
        "(in journal)".to_string(),
        "-".to_string(),
    ]);
    // Compact the killed journal before resuming: superseded Progress
    // frames fold into one per job, and the resume below runs off the
    // compacted file — proving in one pass that compaction preserves
    // resume identity.
    let (stats, compact_time) = phase("compact", || compact_journal(&path).expect("compaction"));
    let mut compacted = Table::new("", &headers);
    compacted.row(&[
        "compact journal".to_string(),
        format!("{compact_time:.2?}"),
        format!(
            "{} -> {} records ({} -> {} bytes)",
            stats.frames_before, stats.frames_after, stats.bytes_before, stats.bytes_after
        ),
        "(in journal)".to_string(),
        "-".to_string(),
    ]);
    t.extend(&compacted);
    let (resumed, resume_time) = phase("resume", || {
        campaign
            .resume(&path, &CheckpointOptions::default())
            .map(surface_warnings)
            .expect("journal resumes")
            .into_report()
            .expect("uninterrupted resume completes")
    });
    assert_eq!(resumed, reference, "resumed report diverged");
    // The resumed phase as a *partial report*, merged into one table.
    let mut rest = Table::new("", &headers);
    rest.row(&[
        "resume to completion".to_string(),
        format!("{resume_time:.2?}"),
        resumed.variants_tested.to_string(),
        resumed.findings.len().to_string(),
        "yes (asserted)".to_string(),
    ]);
    t.extend(&rest);
    // Reduction rides the same journal: kill-safe and byte-identical.
    let mut in_memory = reference.clone();
    reduce_campaign(&mut in_memory, &config);
    let mut journaled = resumed;
    let ((), reduce_time) = phase("reduce", || {
        let warnings = campaign
            .reduce(
                &mut journaled,
                &ReductionOptions {
                    fuel: config.fuel,
                    ..ReductionOptions::default()
                },
                Some(&path),
            )
            .expect("checkpointed reduction");
        print_warnings(&warnings);
    });
    assert_eq!(journaled, in_memory, "checkpointed reduction diverged");
    let mut reduction = Table::new("", &headers);
    reduction.row(&[
        "checkpointed reduction".to_string(),
        format!("{reduce_time:.2?}"),
        "-".to_string(),
        format!("{} corrected", journaled.corrected_findings().count()),
        "yes (asserted)".to_string(),
    ]);
    t.extend(&reduction);
    std::fs::remove_file(&path).ok();
    t
}

/// Runs the post-campaign reduce/dedup stage over a report with the
/// campaign's own fuel, fanning reduction jobs across the worker pool.
pub fn reduce_campaign(report: &mut CampaignReport, config: &CampaignConfig) {
    let warnings = Campaign {
        workers: campaign_workers(),
        ..Campaign::default()
    }
    .reduce(
        report,
        &ReductionOptions {
            fuel: config.fuel,
            ..ReductionOptions::default()
        },
        None,
    )
    .expect("an in-memory reduction has no journal to fail");
    print_warnings(&warnings);
}

/// The reduce/dedup stage's corrected counts (Table-3-style root-cause
/// folding, derived from witness fingerprints instead of manual triage).
pub fn reduction_summary(report: &CampaignReport, families: &[&str]) -> Table {
    let rows: Vec<CorrectedCounts> = families
        .iter()
        .map(|family| {
            let findings: Vec<_> = report.for_family(family).collect();
            let reduced: Vec<f64> = findings
                .iter()
                .filter_map(|f| f.reduced.as_ref())
                .map(|r| r.shrink_ratio())
                .collect();
            let fingerprint_duplicates = findings
                .iter()
                .filter(|f| f.fingerprint_duplicate_of.is_some())
                .count();
            CorrectedCounts {
                family: family.to_string(),
                reports: findings.len(),
                bug_id_duplicates: findings.iter().filter(|f| f.duplicate_of.is_some()).count(),
                fingerprint_duplicates,
                corrected: findings.len() - fingerprint_duplicates,
                mean_shrink: if reduced.is_empty() {
                    1.0
                } else {
                    reduced.iter().sum::<f64>() / reduced.len() as f64
                },
            }
        })
        .collect();
    corrected_counts_table(
        "Corrected counts after reduction + fingerprint dedup",
        &rows,
    )
}

/// Table 3: crash signatures found on the stable releases, via an SPE
/// campaign of the corpus + seeds against gcc-sim 4.8.5 and clang-sim
/// 3.6. The returned report carries reduced witnesses and fingerprint
/// dedup annotations (render them with [`reduction_summary`]).
pub fn table3(scale: Scale) -> (Table, spe_harness::CampaignReport) {
    let mut files = seeds::all();
    files.extend(generate(&CorpusConfig {
        files: scale.corpus_files / 4,
        seed: 43,
    }));
    let config = CampaignConfig {
        compilers: vec![
            Compiler::new(CompilerId::gcc(485), 0),
            Compiler::new(CompilerId::gcc(485), 3),
            Compiler::new(CompilerId::clang(360), 0),
            Compiler::new(CompilerId::clang(360), 3),
        ],
        budget: scale.budget,
        check_wrong_code: false,
        ..Default::default()
    };
    let mut report = run_campaign_parallel(&files, &config, campaign_workers());
    reduce_campaign(&mut report, &config);
    let mut t = Table::new(
        "Table 3: crash signatures found on stable releases",
        &["Compiler", "Signature"],
    );
    for f in report.primary_findings() {
        if f.kind == FindingKind::Crash {
            t.row(&[f.compiler.to_string(), f.signature.clone()]);
        }
    }
    (t, report)
}

/// Table 4: trunk campaign overview (reported/fixed/duplicate and bug
/// classification), via an SPE campaign against the trunk profiles. The
/// returned report carries reduced witnesses and fingerprint dedup
/// annotations (render them with [`reduction_summary`]).
pub fn table4(scale: Scale) -> (Table, spe_harness::CampaignReport) {
    let mut files = seeds::all();
    files.extend(generate(&CorpusConfig {
        files: scale.corpus_files / 2,
        seed: 44,
    }));
    let config = CampaignConfig {
        compilers: vec![
            Compiler::new(CompilerId::gcc(700), 0),
            Compiler::new(CompilerId::gcc(700), 1),
            Compiler::new(CompilerId::gcc(700), 2),
            Compiler::new(CompilerId::gcc(700), 3),
            Compiler::new(CompilerId::clang(390), 0),
            Compiler::new(CompilerId::clang(390), 2),
            Compiler::new(CompilerId::clang(390), 3),
        ],
        budget: scale.budget,
        check_wrong_code: true,
        ..Default::default()
    };
    let mut report = run_campaign_parallel(&files, &config, campaign_workers());
    reduce_campaign(&mut report, &config);
    let rows = run_table4(&report, &["gcc-sim", "clang-sim"]);
    let mut t = Table::new(
        "Table 4: trunk campaign overview",
        &[
            "Compiler",
            "Reported",
            "Fixed",
            "Duplicate",
            "Invalid",
            "Reopened",
            "Crash",
            "Wrong code",
            "Performance",
        ],
    );
    for r in rows {
        t.row(&[
            r.family.clone(),
            r.reported.to_string(),
            r.fixed.to_string(),
            r.duplicate.to_string(),
            r.invalid.to_string(),
            r.reopened.to_string(),
            r.crash.to_string(),
            r.wrong_code.to_string(),
            r.performance.to_string(),
        ]);
    }
    (t, report)
}

/// Figure 9: coverage improvements of SPE vs PM-10/20/30.
pub fn figure9(scale: Scale) -> Histogram {
    let files = generate(&CorpusConfig {
        files: scale.coverage_files,
        seed: 45,
    });
    let fig = run_figure9(&files, scale.budget.min(40), &[10, 20, 30], 7);
    let mut h = Histogram::new(
        format!(
            "Figure 9: coverage improvement over baseline ({:.1}% functions, {:.1}% lines)",
            fig.baseline.function, fig.baseline.line
        ),
        vec!["Function".into(), "Line".into()],
    );
    for (x, p) in &fig.pm {
        h.series(format!("PM-{x}"), vec![p.function, p.line]);
    }
    h.series("SPE", vec![fig.spe.function, fig.spe.line]);
    h
}

/// Figure 10: characteristics of the gcc-sim trunk bugs from the Table 4
/// campaign.
pub fn figure10(report: &spe_harness::CampaignReport) -> Vec<Histogram> {
    let fig = run_figure10(report, "gcc-sim", GCC_VERSIONS);
    let mk = |title: &str, data: &[(String, usize, usize)]| {
        let mut h = Histogram::new(
            title.to_string(),
            data.iter().map(|(l, _, _)| l.clone()).collect(),
        );
        h.series("Reported", data.iter().map(|(_, r, _)| *r as f64).collect());
        h.series("Fixed", data.iter().map(|(_, _, f)| *f as f64).collect());
        h
    };
    vec![
        mk("Figure 10(a): bug priorities", &fig.priorities),
        mk(
            "Figure 10(b): affected optimization levels",
            &fig.opt_levels,
        ),
        mk("Figure 10(c): affected gcc-sim versions", &fig.versions),
        mk("Figure 10(d): affected components", &fig.components),
    ]
}

/// §5.3 generality: a WHILE-language campaign against the CompCert-like
/// and Scala-like profiles. Returns (compiler label, crash signatures,
/// wrong-code findings) per profile.
pub fn generality() -> Table {
    use spe_combinatorics::Rgs;
    use spe_skeleton::WhileSkeleton;
    use spe_while::compiler::{compile, execute, BugProfile, Options};
    use spe_while::{interpret, Outcome};

    let programs = [
        "a := 1; b := 2; c := (a + b) - (a + b); d := c",
        "a := 3; b := 1; while a do a := a - b",
        "y := 0; x := y; while x < 3 do begin s := s + 1; x := x + 1 end",
        "p := 2; q := 3; r := p * q; if r < 10 then r := r + 1 else skip",
    ];
    let mut t = Table::new(
        "Generality (paper §5.3): WHILE-language campaigns",
        &[
            "Profile",
            "Crash signatures",
            "Wrong-code findings",
            "Variants",
        ],
    );
    for (label, profile) in [
        ("compcert-sim", BugProfile::CompCertSim),
        ("scala-sim", BugProfile::ScalaSim),
    ] {
        let mut crashes = std::collections::BTreeSet::new();
        let mut wrong = 0usize;
        let mut variants = 0usize;
        let mut names = Vec::new();
        let mut rendered = String::new();
        for src in &programs {
            let Ok(sk) = WhileSkeleton::from_source(src) else {
                continue;
            };
            let k = sk.variables().len();
            for rgs in Rgs::new(sk.num_holes(), k) {
                // Template-compiled splice into reused buffers; variants
                // needing execution are re-parsed from the rendered text.
                sk.render_rgs_into(&rgs, &mut names, &mut rendered);
                let variant = spe_while::parse(&rendered).expect("rendered variant parses");
                variants += 1;
                let reference = match interpret(&variant, 20_000) {
                    Ok(Outcome::Finished(s)) => s,
                    _ => continue, // timeout or overflow: skip
                };
                for opt in [1u8, 2] {
                    match compile(
                        &variant,
                        Options {
                            opt_level: opt,
                            profile,
                        },
                    ) {
                        Err(ice) => {
                            crashes.insert(format!("{}: {}", ice.pass, ice.message));
                        }
                        Ok(compiled) => {
                            if let Ok(Outcome::Finished(out)) = execute(&compiled, 100_000) {
                                if out != reference {
                                    wrong += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        t.row(&[
            label.into(),
            crashes.len().to_string(),
            wrong.to_string(),
            variants.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shows_reduction() {
        let run = counting_run(Scale {
            corpus_files: 120,
            budget: 10,
            coverage_files: 5,
        });
        let t = table1(&run);
        assert_eq!(t.rows.len(), 3);
        // SPE total must be strictly smaller than naive total.
        let all_naive: BigUint = run.per_file.iter().map(|(_, n, _)| n).sum();
        let all_spe: BigUint = run.per_file.iter().map(|(_, _, s)| s).sum();
        assert!(all_spe < all_naive);
        // The thresholded reduction should span multiple orders of
        // magnitude, as in the paper.
        assert!(all_naive.log10() - all_spe.log10() > 3.0);
    }

    #[test]
    fn figure8_fractions_sum_to_one() {
        let run = counting_run(Scale {
            corpus_files: 80,
            budget: 10,
            coverage_files: 5,
        });
        let (a, _b) = figure8(&run);
        for (_, series) in &a.series {
            let sum: f64 = series.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
        }
    }

    #[test]
    fn table4_carries_reduced_witnesses_and_corrected_counts() {
        let (t, report) = table4(Scale {
            corpus_files: 60,
            budget: 30,
            coverage_files: 5,
        });
        assert!(!t.rows.is_empty());
        // Every primary finding carries a reduced witness with a
        // fingerprint, and the witness never grew.
        for f in report.primary_findings() {
            let reduced = f
                .reduced
                .as_ref()
                .unwrap_or_else(|| panic!("{} lacks a reduced witness", f.signature));
            assert!(reduced.reduced_bytes <= reduced.original_bytes);
            assert_eq!(reduced.fingerprint.len(), 16, "hex fingerprint");
        }
        // The fingerprint pass folds at least one distinct-signature pair
        // (the same trunk bug surfaces at several optimization levels).
        assert!(
            report.fingerprint_duplicates() >= 1,
            "no fingerprint merges in the trunk campaign"
        );
        let summary = reduction_summary(&report, &["gcc-sim", "clang-sim"]);
        let rendered = summary.render();
        assert!(rendered.contains("Dup (fingerprint)"), "{rendered}");
    }

    #[test]
    fn generality_finds_both_profiles_bugs() {
        let t = generality();
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let crashes: usize = row[1].parse().expect("count");
            assert!(crashes >= 1, "profile {} found no crashes", row[0]);
        }
    }
}
