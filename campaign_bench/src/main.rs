//! Campaign benchmark for the SPE workspace.
//!
//! One invocation runs one named workload through the public
//! `spe_harness` entry points for `--seconds` seconds, checks every
//! report it gets back, and prints its metrics as one JSON object on the
//! last line of standard output:
//!
//! * `--trace 0`: the end-to-end metrics (programs/s and observations/s
//!   at `nproc` workers, programs/s at one worker, set-up time, peak
//!   memory and the job success ratio);
//! * `--trace 1`: the per-layer profile, timed around calls into each
//!   layer's public functions from this package (see `trace.rs`).
//!
//! A *program* is one enumerated variant; an *observation* is one
//! program on one compiler configuration (what
//! `CampaignReport::variants_tested` counts). The two are never mixed.
//!
//! The corpus is dealt round-robin into a few chunks, and each timed
//! campaign covers one chunk. Every chunk is run many times in a closed
//! loop, at `nproc` workers and at one, and a throughput is the
//! corpus's programs over the sum of each chunk's fastest wall time.
//! Short campaigns give many repeats per chunk, so a burst of load from
//! elsewhere on the host rarely reaches every repeat of a chunk.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --manifest-path campaign_bench/Cargo.toml -- \
//!     --workload <breadth|depth|wrong-code> --seed <n> \
//!     --seconds <s> --trace <0|1> [--size full|tiny]
//! ```
//!
//! The process exits non-zero when any correctness check fails.

mod check;
mod trace;

use check::{Checks, JobTally};
use spe_core::{Algorithm, EnumeratorConfig, Granularity, ShardedEnumerator, Skeleton};
use spe_corpus::{generate, seeds, CorpusConfig, TestFile};
use spe_harness::checkpoint::{compact_journal, reduce_findings_checkpointed, CompactStats};
use spe_harness::reduction::ReductionOptions;
use spe_harness::{
    resume_campaign, run_campaign_checkpointed, run_campaign_parallel, CampaignConfig,
    CampaignReport, CheckpointOptions,
};
use spe_simcc::{Compiler, CompilerId};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-up repetitions per run; `setup_s` reports their median.
const SETUP_REPS: usize = 3;

/// The benchmark's workloads. Why each exists is recorded in
/// `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Compile-only, paper algorithm, many files, small budget: fixed
    /// per-file cost (skeleton extraction, space materialisation).
    Breadth,
    /// Compile-only, canonical algorithm, files whose spaces fill a large
    /// budget: shard-native enumeration, render and the splice oracle.
    Depth,
    /// Wrong-code oracle on: reference interpreter, passes and VM.
    WrongCode,
}

/// Full size for measurement, tiny for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// One workload at one size: the corpus shape plus the campaign
/// configuration.
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub size: Size,
    /// Synthetic files drawn on top of the six paper seeds.
    synthetic_files: usize,
    /// Generated files per kept synthetic file (see [`Workload::corpus`]).
    pool_factor: usize,
    /// Chunks the corpus is dealt into.
    chunks: usize,
    pub config: CampaignConfig,
}

impl Workload {
    fn new(name: &str, size: Size) -> Result<Workload, String> {
        let (kind, name, algorithm, check_wrong_code) = match name {
            "breadth" => (Kind::Breadth, "breadth", Algorithm::Paper, false),
            "depth" => (Kind::Depth, "depth", Algorithm::Canonical, false),
            "wrong-code" => (Kind::WrongCode, "wrong-code", Algorithm::Paper, true),
            other => return Err(format!("unknown workload `{other}`")),
        };
        // (pool factor, files, chunks, budget), the last three as
        // (full, tiny). `breadth` runs the whole corpus per campaign: it
        // is short enough to repeat often, and its heavy-tail files would
        // decide the critical path of a small chunk.
        let (pool_factor, files, chunks, budget) = match kind {
            Kind::Breadth => (8, (1000, 20), (1, 2), (50, 50)),
            Kind::Depth => (2, (400, 2), (10, 2), (1_000, 500)),
            Kind::WrongCode => (8, (200, 10), (10, 2), (50, 50)),
        };
        let pick = |(full, tiny): (usize, usize)| if size == Size::Full { full } else { tiny };
        Ok(Workload {
            kind,
            name,
            size,
            synthetic_files: pick(files),
            pool_factor,
            chunks: pick(chunks),
            config: CampaignConfig {
                // The Table-3 stable-release matrix.
                compilers: vec![
                    Compiler::new(CompilerId::gcc(485), 0),
                    Compiler::new(CompilerId::gcc(485), 3),
                    Compiler::new(CompilerId::clang(360), 0),
                    Compiler::new(CompilerId::clang(360), 3),
                ],
                budget: pick(budget),
                algorithm,
                check_wrong_code,
                fuel: 20_000,
            },
        })
    }

    /// The paper seeds plus the synthetic corpus drawn at `seed`, each
    /// file with its program count (0 if it does not analyse), counted by
    /// `prepare` independently of the harness.
    ///
    /// The synthetic files are a systematic sample: a pool of
    /// `pool_factor` times as many files is generated at `seed`, ordered
    /// by source size, and files at evenly spaced ranks are kept. Two
    /// seeds then give different files with the same size profile, so the
    /// rare heavy-tail files the generator draws appear in the same number
    /// on every seed instead of deciding the throughput by their count.
    /// For `depth` only files whose space reaches the budget are eligible,
    /// so every job walks exactly `budget` programs.
    fn corpus(&self, seed: u64) -> Vec<(TestFile, u64)> {
        let enumerator = self.enumerator();
        let count = |f: TestFile| {
            let programs = Skeleton::from_source(&f.source)
                .map_or(0, |sk| enumerator.prepare(&sk).total(self.config.budget));
            (f, programs)
        };
        let mut pool = generate(&CorpusConfig {
            files: self.synthetic_files * self.pool_factor,
            seed,
        });
        pool.sort_by_key(|f| f.source.len());
        let sample = |have: usize| {
            let want = self.synthetic_files.min(have);
            (0..want).map(move |i| (2 * i + 1) * have / (2 * want))
        };
        let mut files: Vec<_> = seeds::all().into_iter().map(count).collect();
        if self.kind == Kind::Depth {
            let full = self.config.budget as u64;
            let pool: Vec<_> = pool
                .into_iter()
                .map(count)
                .filter(|&(_, n)| n >= full)
                .collect();
            files.extend(sample(pool.len()).map(|i| pool[i].clone()));
        } else {
            files.extend(sample(pool.len()).map(|i| count(pool[i].clone())));
        }
        files
    }

    /// The single-shard enumerator the fixture and the traced run use.
    pub fn enumerator(&self) -> ShardedEnumerator {
        ShardedEnumerator::new(
            EnumeratorConfig {
                algorithm: self.config.algorithm,
                granularity: Granularity::Intra,
                budget: self.config.budget,
            },
            1,
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    /// Run only the whole-corpus campaign (see [`whole_campaign`]).
    whole_corpus: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut whole_corpus = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == WHOLE_CORPUS_FLAG {
            whole_corpus = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err("--size takes full or tiny".into()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
        whole_corpus,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// One chunk of the corpus and its independently counted program total.
pub struct Chunk {
    pub files: Vec<TestFile>,
    /// Σ `VariantSpace::total(budget)` over the chunk's files that
    /// analyse.
    pub programs: u64,
}

/// The corpus, whole and dealt into chunks.
pub struct Fixture {
    pub files: Vec<TestFile>,
    pub chunks: Vec<Chunk>,
    /// Programs over all chunks.
    pub programs: u64,
    /// Median wall time of one set-up.
    pub setup_s: f64,
}

/// Generates and counts the corpus and deals it round-robin into chunks,
/// `reps` times; the result of the last round is kept and the median
/// time reported.
fn set_up(w: &Workload, seed: u64, reps: usize) -> Fixture {
    let mut times = Vec::with_capacity(reps);
    let mut files = Vec::new();
    let mut chunks = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        files.clear();
        chunks = (0..w.chunks)
            .map(|_| Chunk {
                files: Vec::new(),
                programs: 0,
            })
            .collect();
        for (i, (file, programs)) in w.corpus(seed).into_iter().enumerate() {
            let chunk = &mut chunks[i % w.chunks];
            chunk.programs += programs;
            chunk.files.push(file.clone());
            files.push(file);
        }
        times.push(start.elapsed().as_secs_f64());
    }
    Fixture {
        files,
        programs: chunks.iter().map(|c| c.programs).sum(),
        chunks,
        setup_s: median(&mut times),
    }
}

/// Median of `xs` (sorted in place); 0 for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Worker threads at full width: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process so far in MiB, from
/// `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A fresh per-process scratch directory for journals, inside this
/// package's directory and so inside the checkout.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn journal(&self) -> PathBuf {
        self.0.join("campaign.spej")
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Fails, harmlessly, while another run still has its directory.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One checkpointed campaign cycle over one chunk: a run interrupted
/// after half the programs, its resume, compaction, and the checkpointed
/// reduction.
pub struct Cycle {
    pub run_s: f64,
    pub resume_s: f64,
    pub compact_s: f64,
    pub reduce_s: f64,
    pub interrupted: bool,
    /// The resumed report, before reduction.
    pub report: CampaignReport,
    /// The report after reduction.
    pub reduced: CampaignReport,
    pub compact: CompactStats,
}

pub fn journal_cycle(
    cfg: &CampaignConfig,
    chunk: &Chunk,
    workers: usize,
    journal: &Path,
) -> Result<Cycle, String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
    let start = Instant::now();
    let first = run_campaign_checkpointed(
        &chunk.files,
        cfg,
        workers,
        journal,
        &CheckpointOptions {
            stop_after: Some((chunk.programs / 2).max(1)),
            ..CheckpointOptions::default()
        },
    )
    .map_err(|e| err("checkpointed run", &e))?;
    let run_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let report = resume_campaign(journal, workers, &CheckpointOptions::default())
        .map_err(|e| err("resume", &e))?
        .into_report()
        .ok_or("the resumed campaign was interrupted again")?;
    let resume_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let compact = compact_journal(journal).map_err(|e| err("compaction", &e))?;
    let compact_s = start.elapsed().as_secs_f64();
    let mut reduced = report.clone();
    let options = ReductionOptions {
        fuel: cfg.fuel,
        ..ReductionOptions::default()
    };
    let start = Instant::now();
    reduce_findings_checkpointed(&mut reduced, &options, workers, journal)
        .map_err(|e| err("reduction", &e))?;
    let reduce_s = start.elapsed().as_secs_f64();
    std::fs::remove_file(journal).map_err(|e| err("removing the journal", &e))?;
    Ok(Cycle {
        run_s,
        resume_s,
        compact_s,
        reduce_s,
        interrupted: first.is_interrupted(),
        report,
        reduced,
        compact,
    })
}

/// Checks a journal cycle against the chunk's plain serial report.
/// Returns whether it is correct.
pub fn check_cycle(checks: &mut Checks, cycle: &Cycle, reference: &CampaignReport) -> bool {
    let before = checks.problems();
    checks.expect(cycle.interrupted, || {
        "the checkpointed run was not interrupted by stop_after".into()
    });
    checks.expect(cycle.report == *reference, || {
        "the resumed report differs from the plain campaign's".into()
    });
    checks.problems() == before
}

/// Marks the child process that runs only the whole-corpus campaign.
const WHOLE_CORPUS_FLAG: &str = "--whole-corpus";

/// One serial campaign over the whole corpus, checked and digested, in a
/// child process of its own. Returns the child's peak resident memory in MiB,
/// or `None` when its checks failed (they are printed on its standard
/// error, which the child shares).
///
/// A process of its own keeps the measurement off the heap of the timed
/// campaigns: one grown to the whole corpus's size would slow them, and
/// the worker threads' allocator arenas would add a varying amount to
/// the peak.
pub fn whole_campaign(w: &Workload, seed: u64) -> Result<Option<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let size = match w.size {
        Size::Full => "full",
        Size::Tiny => "tiny",
    };
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", "0", "--size", size, WHOLE_CORPUS_FLAG])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the whole-corpus campaign: {e}"))?;
    if !out.status.success() {
        return Ok(None);
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .trim()
        .parse()
        .map(Some)
        .map_err(|_| format!("the whole-corpus campaign printed `{}`", stdout.trim()))
}

/// The child side of [`whole_campaign`]: prints the peak resident memory
/// and exits non-zero if a check failed.
fn whole_campaign_child(w: &Workload, seed: u64) -> ExitCode {
    let fixture = set_up(w, seed, 1);
    let whole = run_campaign_parallel(&fixture.files, &w.config, 1);
    let mut checks = Checks::default();
    check::check_reference(&mut checks, w, fixture.programs, &whole);
    check::check_pinned(&mut checks, w, seed, &whole);
    match peak_rss_mb() {
        Ok(mb) if checks.problems() == 0 => {
            println!("{mb:?}");
            ExitCode::SUCCESS
        }
        Ok(_) => {
            checks.report();
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Each chunk's fastest campaign wall at `nproc` workers and at one,
/// summed over the chunks.
pub struct Walls {
    pub parallel_s: f64,
    pub serial_s: f64,
    /// Timed campaigns per chunk and width.
    pub repeats: usize,
}

/// Runs every chunk's campaign at one worker and at `nproc`, round after
/// round, until `seconds` have passed. A chunk's first serial report is
/// its reference, checked against the chunk's program count, and every
/// later report of the chunk must equal it. Returns the references too.
pub fn time_campaigns(
    w: &Workload,
    fixture: &Fixture,
    seconds: f64,
    checks: &mut Checks,
    tally: &mut JobTally,
) -> (Walls, Vec<CampaignReport>) {
    let workers = nproc();
    let k = fixture.chunks.len();
    let (mut par, mut ser) = (vec![f64::INFINITY; k], vec![f64::INFINITY; k]);
    let mut references: Vec<CampaignReport> = Vec::with_capacity(k);
    let mut repeats = 0;
    let start = Instant::now();
    while repeats == 0 || start.elapsed().as_secs_f64() < seconds {
        for (i, chunk) in fixture.chunks.iter().enumerate() {
            for (n, best) in [(1, &mut ser[i]), (workers, &mut par[i])] {
                let t = Instant::now();
                let report = run_campaign_parallel(&chunk.files, &w.config, n);
                *best = best.min(t.elapsed().as_secs_f64());
                let ok = match references.get(i) {
                    Some(reference) => {
                        let same = report == *reference;
                        checks.expect(same, || {
                            format!("the {n}-worker report differs from the 1-worker report")
                        });
                        same
                    }
                    None => check::check_reference(checks, w, chunk.programs, &report),
                };
                tally.count(&report, chunk.files.len() * n, ok);
                if references.len() == i {
                    references.push(report);
                }
            }
        }
        repeats += 1;
    }
    let walls = Walls {
        parallel_s: par.iter().sum(),
        serial_s: ser.iter().sum(),
        repeats,
    };
    (walls, references)
}

/// The end-to-end measurement (`--trace 0`).
fn end_to_end(
    w: &Workload,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Result<(Vec<Metric>, JobTally), String> {
    let fixture = set_up(w, seed, SETUP_REPS);
    let mut tally = JobTally::default();

    let (walls, references) = time_campaigns(w, &fixture, seconds, checks, &mut tally);
    let observations: u64 = references.iter().map(|r| r.variants_tested).sum();
    let peak_rss = whole_campaign(w, seed)?;
    checks.expect(peak_rss.is_some(), || {
        "the whole-corpus campaign failed its checks".into()
    });
    eprintln!(
        "{}: {} files in {} chunks, {} programs, {} observations, {} workers; \
         {} timed rounds; fastest rounds sum to {:.4} s parallel and {:.4} s serial",
        w.name,
        fixture.files.len(),
        fixture.chunks.len(),
        fixture.programs,
        observations,
        nproc(),
        walls.repeats,
        walls.parallel_s,
        walls.serial_s,
    );
    let programs = fixture.programs as f64;
    let metrics = vec![
        metric("programs_per_s", programs / walls.parallel_s, "1/s"),
        metric(
            "observations_per_s",
            observations as f64 / walls.parallel_s,
            "1/s",
        ),
        metric("programs_per_s_serial", programs / walls.serial_s, "1/s"),
        metric("setup_s", fixture.setup_s, "s"),
        metric("peak_rss_mb", peak_rss.unwrap_or(0.0), "MB"),
    ];
    Ok((metrics, tally))
}

/// Formats a metric value as a JSON number with all its digits.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

fn print_result(correct: bool, tally: &JobTally, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<28} {:>18} {}", m.name, json_number(m.value), m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("campaign-bench: {e}\n{}", USAGE);
            return ExitCode::from(2);
        }
    };
    let w = match Workload::new(&args.workload, args.size) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("campaign-bench: {e}\n{}", USAGE);
            return ExitCode::from(2);
        }
    };
    if args.whole_corpus {
        return whole_campaign_child(&w, args.seed);
    }
    eprintln!(
        "campaign-bench: workload {} ({:?}), seed {}, {} s, trace {}, nproc {}",
        w.name,
        w.size,
        args.seed,
        args.seconds,
        args.trace,
        nproc()
    );
    let mut checks = Checks::default();
    let measured = if args.trace {
        trace::profile(&w, args.seed, args.seconds, &mut checks)
    } else {
        end_to_end(&w, args.seed, args.seconds, &mut checks)
    };
    let (mut metrics, mut tally) = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = checks.problems() == 0;
    if !correct {
        checks.report();
        tally.fail_all();
    }
    if !args.trace {
        // The error rate is 0 on a working build, so the result carries
        // its complement, which never is.
        println!(
            "{:<28} {:>18} ratio",
            "error_rate",
            json_number(1.0 - tally.success_ratio())
        );
        metrics.push(metric("job_success_ratio", tally.success_ratio(), "ratio"));
    }
    print_result(correct, &tally, &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

const USAGE: &str = "usage: campaign-bench --workload <breadth|depth|wrong-code> \
--seed <n> --seconds <s> --trace <0|1> [--size full|tiny]";
