//! Multi-host fleet demonstration (`DESIGN.md` §14): runs one campaign
//! as a 3-host fleet — each host a **separate OS process** re-invoking
//! this binary with `--host <id>`, on a different worker count — then
//! kills host 1 mid-slice, resumes it in a fresh process on yet another
//! worker count, compacts host 0's journal, merges the three host
//! journals, and **asserts** the merged report byte-identical to an
//! uninterrupted in-process single-host run.
//!
//! Parent and children never exchange campaign state: each process
//! derives the identical corpus, configuration, and [`FleetPlan`] from
//! the same deterministic functions, exactly as real fleet hosts would
//! derive them from a shared config file.

use spe_corpus::{generate, seeds, CorpusConfig, TestFile};
use spe_harness::checkpoint::{compact_journal, CampaignStatus, CheckpointOptions};
use spe_harness::fleet::{merge_journals_detailed, FleetPlan};
use spe_harness::{run_campaign_parallel, Campaign, CampaignConfig};
use spe_report::{fleet_provenance_table, FleetHostRow};
use spe_simcc::{Compiler, CompilerId};
use std::path::PathBuf;
use std::process::Command;

/// Child exit code for an honored `--stop-after` kill.
const EXIT_INTERRUPTED: i32 = 3;
const N_HOSTS: usize = 3;
const SHARDS_PER_FILE: usize = 4;
const FLEET_ID: u64 = 0x5e1f_00d5;

fn corpus() -> Vec<TestFile> {
    let mut files = seeds::all();
    files.extend(generate(&CorpusConfig { files: 8, seed: 47 }));
    files
}

fn config() -> CampaignConfig {
    CampaignConfig {
        compilers: vec![
            Compiler::new(CompilerId::gcc(485), 0),
            Compiler::new(CompilerId::gcc(485), 3),
            Compiler::new(CompilerId::clang(360), 0),
            Compiler::new(CompilerId::clang(360), 3),
        ],
        budget: 32,
        check_wrong_code: false,
        ..Default::default()
    }
}

fn plan() -> FleetPlan {
    FleetPlan::new(FLEET_ID, N_HOSTS, SHARDS_PER_FILE)
}

fn journal_path(host: usize) -> PathBuf {
    std::env::temp_dir().join(format!("spe-fleet-demo-{}-host{host}.journal", parent_pid()))
}

/// Children receive the parent's pid so every process of one demo run
/// names the same journal files.
fn parent_pid() -> u32 {
    std::env::var("SPE_FLEET_DEMO_PID")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(std::process::id)
}

/// `--host <id>` child mode: run (or `--resume`) one host's slice.
fn child(args: &[String]) -> ! {
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .map(|i| args[i + 1].clone())
    };
    let host: usize = get("--host").expect("--host <id>").parse().expect("host id");
    let workers: usize = get("--workers").map_or(1, |w| w.parse().expect("worker count"));
    let options = CheckpointOptions {
        every: 16,
        stop_after: get("--stop-after").map(|n| n.parse().expect("kill budget")),
    };
    let campaign = Campaign {
        workers,
        ..Campaign::default()
    };
    let status = if args.iter().any(|a| a == "--resume") {
        campaign.resume(journal_path(host), &options)
    } else {
        campaign.run_journaled(
            &corpus(),
            &config(),
            journal_path(host),
            &options,
            Some((plan(), host)),
        )
    }
    .map(spe_experiments::surface_warnings)
    .unwrap_or_else(|e| {
        eprintln!("fleet demo host {host}: {e}");
        std::process::exit(1);
    });
    match status {
        CampaignStatus::Complete(_) => std::process::exit(0),
        CampaignStatus::Interrupted => std::process::exit(EXIT_INTERRUPTED),
    }
}

/// Spawns one host process and returns its exit code.
fn spawn_host(host: usize, workers: usize, extra: &[&str]) -> i32 {
    let exe = std::env::current_exe().expect("own path");
    let status = Command::new(exe)
        .args(["--host", &host.to_string(), "--workers", &workers.to_string()])
        .args(extra)
        .env("SPE_FLEET_DEMO_PID", std::process::id().to_string())
        .status()
        .expect("host process spawns");
    status.code().unwrap_or(-1)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--host") {
        child(&args);
    }
    let telemetry = spe_experiments::install_telemetry();
    let files = corpus();
    let cfg = config();
    let plan = plan();
    println!(
        "fleet {FLEET_ID:#x}: {} files x {SHARDS_PER_FILE} shards = {} jobs over {N_HOSTS} hosts",
        files.len(),
        plan.job_count(files.len())
    );

    // The identity reference: one uninterrupted in-process run whose
    // worker count equals the fleet's shards_per_file.
    let (reference, _) = spe_experiments::phase("reference", || {
        run_campaign_parallel(&files, &cfg, SHARDS_PER_FILE)
    });

    // Hosts 0 and 2 run to completion on different worker counts;
    // host 1 is killed mid-slice by a one-variant stop budget.
    let ((), _) = spe_experiments::phase("fleet_run", || {
        assert_eq!(spawn_host(0, 2, &[]), 0, "host 0 must complete");
        assert_eq!(
            spawn_host(1, 1, &["--stop-after", "1"]),
            EXIT_INTERRUPTED,
            "host 1 must be preempted by its kill budget"
        );
        assert_eq!(spawn_host(2, 3, &[]), 0, "host 2 must complete");
    });
    println!("host 1 killed mid-slice (exit {EXIT_INTERRUPTED}); resuming on 4 workers");

    // The dead host resumes in a fresh process on a different worker
    // count — the journal alone carries its identity and progress.
    let ((), _) = spe_experiments::phase("resume_host", || {
        assert_eq!(
            spawn_host(1, 4, &["--resume"]),
            0,
            "resumed host 1 must complete"
        );
    });

    // Compaction must preserve the fleet manifest verbatim; merging off
    // a compacted journal proves it in-pass.
    let (stats, _) = spe_experiments::phase("compact", || {
        compact_journal(journal_path(0)).expect("compaction")
    });
    println!(
        "compacted host 0 journal: {} -> {} frames",
        stats.frames_before, stats.frames_after
    );

    let paths: Vec<PathBuf> = (0..N_HOSTS).map(journal_path).collect();
    let (merged, _) = spe_experiments::phase("merge", || {
        merge_journals_detailed(&paths).expect("host journals merge")
    });
    assert_eq!(
        merged.report, reference,
        "merged fleet report diverged from the uninterrupted run"
    );
    println!(
        "merged report: {} variants, {} findings — identical to uninterrupted run (asserted)",
        merged.report.variants_tested,
        merged.report.findings.len()
    );

    let rows: Vec<FleetHostRow> = merged
        .hosts
        .iter()
        .map(|h| FleetHostRow {
            host_id: h.host_id,
            journal: h
                .path
                .file_name()
                .map_or_else(|| h.path.display().to_string(), |n| {
                    n.to_string_lossy().into_owned()
                }),
            jobs_start: h.jobs.start,
            jobs_end: h.jobs.end,
            frames: h.frames,
            variants_tested: h.variants_tested,
            candidates: h.candidates,
        })
        .collect();
    println!(
        "{}",
        fleet_provenance_table(
            format!(
                "Fleet {:#x}: {} hosts, kill/resume on host 1, compacted host 0",
                merged.fleet_id, merged.n_hosts
            ),
            &rows
        )
        .render()
    );
    for p in &paths {
        std::fs::remove_file(p).ok();
    }
    for (phase, ms) in telemetry.phases() {
        println!("phase {phase}: {ms:.1} ms");
    }
}
