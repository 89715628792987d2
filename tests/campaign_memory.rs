//! A campaign's memory follows its workers, not its corpus: a file's
//! skeleton and prepared variant space live only while that file's jobs
//! run, so the peak live heap of a compile-only campaign grows by far
//! less per added file than one file's prepared state takes — in memory
//! at one and two workers, and on a resume.
//!
//! One test, alone in its binary: the measurement uses the
//! process-global counting allocator of `tests/counting`, and sibling
//! tests would pollute the peaks.

mod counting;

use counting::measure;
use spe::core::{Algorithm, EnumeratorConfig, Granularity, ShardedEnumerator, Skeleton};
use spe::corpus::TestFile;
use spe::harness::checkpoint::CheckpointOptions;
use spe::harness::{Campaign, CampaignConfig};

/// Copies of the corpus at the small and the large end.
const COPIES: [usize; 2] = [1, 32];

/// The bound on peak growth per added file. One file's skeleton and
/// prepared space take several KiB, so a run that keeps every file's
/// state until it returns grows by more.
const PER_FILE_BOUND: usize = 2048;

/// `copies` renamed copies of the six seeds.
fn corpus(copies: usize) -> Vec<TestFile> {
    let seeds = spe::corpus::seeds::all();
    (0..copies)
        .flat_map(|c| {
            seeds.iter().map(move |f| TestFile {
                name: format!("{c}/{}", f.name),
                source: f.source.clone(),
            })
        })
        .collect()
}

/// The programs a campaign over `files` emits under `config`.
fn programs(files: &[TestFile], config: &CampaignConfig) -> u64 {
    let enumerator = ShardedEnumerator::new(
        EnumeratorConfig {
            algorithm: config.algorithm,
            granularity: Granularity::Intra,
            budget: config.budget,
        },
        1,
    );
    files
        .iter()
        .map(|f| {
            let sk = Skeleton::from_source(&f.source).expect("seeds parse");
            enumerator.prepare(&sk).total(config.budget)
        })
        .sum()
}

#[test]
fn peak_heap_barely_grows_with_the_corpus() {
    // No compilers: each variant only parses, so the report holds no
    // findings and the peak is the orchestrator's own state.
    let config = CampaignConfig {
        compilers: vec![],
        budget: 50,
        algorithm: Algorithm::Paper,
        check_wrong_code: false,
        fuel: 1_000,
    };
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("campaign-memory");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let path = dir.join("half.journal");
    let one = Campaign::default();
    let two = Campaign {
        workers: 2,
        ..Campaign::default()
    };
    // Warm the process-wide statics (interners, registries) outside
    // every measurement.
    one.run(&corpus(1), &config);

    let peaks = COPIES.map(|copies| {
        let files = corpus(copies);
        let (report, serial) = measure(|| one.run(&files, &config));
        assert_eq!(report.files_processed, files.len());
        drop(report);
        let (report, parallel) = measure(|| two.run(&files, &config));
        assert_eq!(report.files_processed, files.len());
        drop(report);
        let halfway = CheckpointOptions {
            stop_after: Some(programs(&files, &config) / 2),
            ..CheckpointOptions::default()
        };
        let outcome = two
            .run_journaled(&files, &config, &path, &halfway, None)
            .expect("journaled run");
        assert!(outcome.status.is_interrupted());
        let (outcome, resumed) = measure(|| {
            two.resume(&path, &CheckpointOptions::default())
                .expect("resume")
        });
        let report = outcome.into_report().expect("the resume completes");
        assert_eq!(report.files_processed, files.len());
        drop(report);
        println!(
            "{} files: peak {serial} B at 1 worker, {parallel} B at 2, {resumed} B on resume",
            files.len()
        );
        [serial, parallel, resumed]
    });
    std::fs::remove_file(&path).ok();

    let added = (COPIES[1] - COPIES[0]) * spe::corpus::seeds::all().len();
    for (run, (small, large)) in ["1 worker", "2 workers", "resume"]
        .into_iter()
        .zip(peaks[0].into_iter().zip(peaks[1]))
    {
        let per_file = large.saturating_sub(small) / added;
        assert!(
            per_file < PER_FILE_BOUND,
            "{run}: the peak grew from {small} B to {large} B, {per_file} B per added \
             file; a file's prepared state must not outlive its jobs"
        );
    }
}
