//! The traced run (`--trace 1`): the per-layer profile.
//!
//! Every time here is measured from this package, around calls into one
//! layer's public functions, on the same corpus and configuration the
//! end-to-end run uses:
//!
//! * serial passes drive `Skeleton::from_source`,
//!   `ShardedEnumerator::prepare`, `enumerate_shard_prepared` (with a
//!   counting-only visitor), `Variant::render_into` and
//!   `CachedOracle::{new, observe_variant}` the way one campaign job
//!   does, and sum each call's time; the fastest pass is reported;
//! * a round-trip decomposition times `spe_minic::parse`,
//!   `bugs::scan_facts`, `passes::optimize`, `vm::lower`, `vm::execute`
//!   and `interp::run` on a sample of the same programs;
//! * one checkpointed cycle per chunk times the journal and reduction
//!   layers.
//!
//! Untraced campaigns in the same run give the harness's self time,
//! its parallel efficiency, and the tracing overhead.

use crate::check::{Checks, JobTally};
use crate::{
    check_cycle, journal_cycle, metric, nproc, ratio, set_up, time_campaigns, whole_campaign,
    Metric, WorkDir, Workload, SETUP_REPS,
};
use spe_core::{Algorithm, NameId, Skeleton};
use spe_corpus::TestFile;
use spe_simcc::bugs::{self, BugKind, BugSpec};
use spe_simcc::coverage::Coverage;
use spe_simcc::incremental::{CacheStats, CachedOracle};
use spe_simcc::{interp, passes, reference_limits, vm};
use std::hint::black_box;
use std::ops::ControlFlow;
use std::time::Instant;

/// Most programs the round-trip decomposition visits in one run; larger
/// workloads are sampled at a fixed stride.
const SIMCC_SAMPLE: u64 = 4000;

/// Least share of spaces that must be shard-native under the canonical
/// algorithm, so `depth` measures the walk rather than materialisation.
const MIN_NATIVE_RATIO: f64 = 0.9;

fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One traced serial pass over the corpus.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    skeleton_s: f64,
    prepare_s: f64,
    enumerate_s: f64,
    render_s: f64,
    oracle_build_s: f64,
    oracle_busy_s: f64,
    files: u64,
    skeleton_failed: u64,
    spaces: u64,
    native: u64,
    /// Programs the counting-only walk visited.
    programs: u64,
    render_bytes: u64,
    observations: u64,
    /// Jobs whose first variant gave no cached oracle.
    oracle_unbuilt: u64,
    latencies_ns: Vec<u64>,
    stats: CacheStats,
}

fn traced_pass<'a>(w: &Workload, files: impl Iterator<Item = &'a TestFile>) -> Pass {
    let cfg = &w.config;
    let enumerator = w.enumerator();
    let mut p = Pass::default();
    let mut buf = String::new();
    let pass_start = Instant::now();
    for file in files {
        p.files += 1;
        let t = Instant::now();
        let sk = Skeleton::from_source(&file.source);
        p.skeleton_s += since(t);
        let Ok(sk) = sk else {
            p.skeleton_failed += 1;
            continue;
        };
        let t = Instant::now();
        let space = enumerator.prepare(&sk);
        p.prepare_s += since(t);
        p.spaces += 1;
        p.native += u64::from(space.is_shard_native());

        let mut count = 0u64;
        let t = Instant::now();
        enumerator.enumerate_shard_prepared(&space, 0, &mut |v| {
            black_box(v);
            count += 1;
            ControlFlow::Continue(())
        });
        p.enumerate_s += since(t);
        p.programs += count;

        // Render and the incremental oracle, as one campaign job drives
        // them: the oracle is built from the first rendered variant and
        // every variant is spliced in with its hole delta.
        let occs: Vec<_> = sk.hole_occs().collect();
        let table = sk.names();
        let mut oracle: Option<CachedOracle> = None;
        let mut prev: Vec<NameId> = Vec::new();
        let mut changed = Vec::new();
        let mut spellings: Vec<&str> = Vec::new();
        enumerator.enumerate_shard_prepared(&space, 0, &mut |v| {
            let t = Instant::now();
            v.render_into(&sk, &mut buf);
            p.render_s += since(t);
            p.render_bytes += buf.len() as u64;
            if oracle.is_none() {
                let t = Instant::now();
                oracle = spe_minic::parse(&buf).ok().and_then(|prog| {
                    CachedOracle::new(prog, &occs, &cfg.compilers, cfg.check_wrong_code, cfg.fuel)
                });
                p.oracle_build_s += since(t);
            }
            let Some(o) = oracle.as_mut() else {
                p.oracle_unbuilt += 1;
                return ControlFlow::Break(());
            };
            spellings.clear();
            spellings.extend(v.names.iter().map(|&id| table.name(id)));
            v.changed_holes_into(&prev, &mut changed);
            prev.clone_from(&v.names);
            let t = Instant::now();
            let observed = o.observe_variant(&spellings, Some(&changed)).len();
            let nanos = t.elapsed().as_nanos() as u64;
            p.oracle_busy_s += nanos as f64 * 1e-9;
            p.latencies_ns.push(nanos);
            p.observations += observed as u64;
            ControlFlow::Continue(())
        });
        if let Some(o) = &oracle {
            let s = o.stats();
            p.stats.splice_delta += s.splice_delta;
            p.stats.splice_full += s.splice_full;
            p.stats.pipeline_memo_hits += s.pipeline_memo_hits;
            p.stats.pipeline_memo_misses += s.pipeline_memo_misses;
        }
    }
    p.wall_s = since(pass_start);
    p
}

/// Sub-layer times of the simulated compiler, from a round trip over a
/// sample of the workload's programs.
#[derive(Default)]
struct Simcc {
    parse_s: f64,
    facts_s: f64,
    passes_s: f64,
    lower_s: f64,
    vm_s: f64,
    reference_s: f64,
    programs: u64,
    ub: u64,
    unparsed: u64,
}

/// Round-trips every `stride`-th program (in emission order across the
/// corpus) through parse, fact scan, and for each configuration the
/// pass pipeline, lowering and the VM, then the reference interpreter —
/// the steps `Compiler::observe` takes, each timed on its own.
fn simcc_pass<'a>(w: &Workload, files: impl Iterator<Item = &'a TestFile>, stride: u64) -> Simcc {
    let cfg = &w.config;
    let live: Vec<Vec<BugSpec>> = cfg.compilers.iter().map(|c| c.live_bugs()).collect();
    let enumerator = w.enumerator();
    let mut s = Simcc::default();
    let mut coverage = Coverage::new();
    let mut buf = String::new();
    let mut index = 0u64;
    for file in files {
        let Ok(sk) = Skeleton::from_source(&file.source) else {
            continue;
        };
        let space = enumerator.prepare(&sk);
        enumerator.enumerate_shard_prepared(&space, 0, &mut |v| {
            index += 1;
            if (index - 1).is_multiple_of(stride) {
                v.render_into(&sk, &mut buf);
                round_trip(&buf, w, &live, &mut coverage, &mut s);
            }
            ControlFlow::Continue(())
        });
    }
    s
}

fn round_trip(
    src: &str,
    w: &Workload,
    live: &[Vec<BugSpec>],
    coverage: &mut Coverage,
    s: &mut Simcc,
) {
    let cfg = &w.config;
    let t = Instant::now();
    let Ok(prog) = spe_minic::parse(src) else {
        s.unparsed += 1;
        return;
    };
    s.parse_s += since(t);
    s.programs += 1;

    let t = Instant::now();
    let facts = bugs::scan_facts(&prog);
    let triggered: Vec<Vec<&BugSpec>> = live
        .iter()
        .map(|bugs| bugs.iter().filter(|b| facts.matches(b.trigger)).collect())
        .collect();
    s.facts_s += since(t);

    for (cc, triggered) in cfg.compilers.iter().zip(triggered) {
        if triggered
            .iter()
            .any(|b| matches!(b.kind, BugKind::Crash(_)))
        {
            continue; // an internal compiler error stops before the passes
        }
        let mut ctx = passes::PassCtx {
            opt: cc.opt(),
            wrong_code: triggered
                .into_iter()
                .filter(|b| b.kind == BugKind::WrongCode)
                .collect(),
            coverage: &mut *coverage,
            miscompiled_by: Vec::new(),
        };
        let t = Instant::now();
        let optimized = passes::optimize(&prog, &mut ctx);
        s.passes_s += since(t);
        let t = Instant::now();
        let image = vm::lower(&optimized);
        s.lower_s += since(t);
        if let Ok(image) = image {
            let t = Instant::now();
            let _ = black_box(vm::execute(&image, cfg.fuel * 4));
            s.vm_s += since(t);
        }
    }

    let t = Instant::now();
    let reference = black_box(interp::run(&prog, reference_limits(cfg.fuel)));
    s.reference_s += since(t);
    s.ub += u64::from(reference.is_err());
}

/// Nearest-rank quantile of sorted nanosecond samples, in microseconds.
fn quantile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64 / 1e3
}

/// The journal layers, one checkpointed cycle per chunk at `nproc`
/// workers, summed.
#[derive(Default)]
struct Journal {
    run_s: f64,
    resume_s: f64,
    compact_s: f64,
    reduce_s: f64,
    journal_bytes: u64,
    compacted_bytes: u64,
    findings: usize,
    /// Shrink ratio of every reduced witness.
    shrink: Vec<f64>,
}

/// The traced run: per-layer metrics plus the path guards.
pub fn profile(
    w: &Workload,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Result<(Vec<Metric>, JobTally), String> {
    let fixture = set_up(w, seed, SETUP_REPS);
    let workers = nproc();
    let cfg = &w.config;
    let mut tally = JobTally::default();
    // A third of the time for untraced campaigns, a third for traced
    // passes; the decomposition and the journal cycles run once.
    let share = seconds / 3.0;
    let (walls, references) = time_campaigns(w, &fixture, share, checks, &mut tally);
    let observations: u64 = references.iter().map(|r| r.variants_tested).sum();

    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || since(start) < share {
        let p = traced_pass(w, fixture.files.iter());
        checks.expect(p.programs == fixture.programs, || {
            format!(
                "enumerated {} programs, the fixture counted {}",
                p.programs, fixture.programs
            )
        });
        checks.expect(p.observations == observations, || {
            format!(
                "the traced oracle made {} observations, the campaign {observations}",
                p.observations
            )
        });
        checks.expect(p.oracle_unbuilt == 0, || {
            format!(
                "{} jobs could not build the cached oracle",
                p.oracle_unbuilt
            )
        });
        passes.push(p);
    }
    // The fastest traced pass, as the untraced walls take their best.
    let fastest = passes
        .iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("at least one traced pass");
    let layer_s = [
        fastest.skeleton_s,
        fastest.prepare_s,
        fastest.enumerate_s,
        fastest.render_s,
        fastest.oracle_build_s,
        fastest.oracle_busy_s,
    ];
    let mut latencies: Vec<u64> = passes
        .iter()
        .flat_map(|p| p.latencies_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    let stats = fastest.stats;
    let splice_base = stats.splice_delta + stats.splice_full;
    let splice_hit = ratio(stats.splice_delta as f64, splice_base as f64);
    let memo_base = stats.pipeline_memo_hits + stats.pipeline_memo_misses;
    let native_ratio = ratio(fastest.native as f64, fastest.spaces as f64);

    // Path guards: each workload must measure the path it was chosen for.
    checks.expect(splice_hit > 0.0, || {
        "the oracle never took the splice path".into()
    });
    if cfg.algorithm == Algorithm::Canonical {
        checks.expect(native_ratio >= MIN_NATIVE_RATIO, || {
            format!("only {native_ratio:.3} of the canonical spaces are shard-native")
        });
    } else {
        checks.expect(fastest.native == 0, || {
            "a non-canonical space is shard-native".into()
        });
    }

    let stride = fixture.programs.div_ceil(SIMCC_SAMPLE).max(1);
    let simcc = simcc_pass(w, fixture.files.iter(), stride);
    checks.expect(simcc.unparsed == 0, || {
        format!("{} rendered programs did not parse", simcc.unparsed)
    });

    let dir = WorkDir::create()?;
    let mut journal = Journal::default();
    for (chunk, reference) in fixture.chunks.iter().zip(&references) {
        let cycle = journal_cycle(cfg, chunk, workers, &dir.journal())?;
        let ok = check_cycle(checks, &cycle, reference);
        tally.count(&cycle.report, chunk.files.len() * workers, ok);
        journal.run_s += cycle.run_s;
        journal.resume_s += cycle.resume_s;
        journal.compact_s += cycle.compact_s;
        journal.reduce_s += cycle.reduce_s;
        journal.journal_bytes += cycle.compact.bytes_before;
        journal.compacted_bytes += cycle.compact.bytes_after;
        journal.findings += cycle.reduced.findings.len();
        journal.shrink.extend(
            cycle
                .reduced
                .findings
                .iter()
                .filter_map(|f| f.reduced.as_ref())
                .map(|r| r.shrink_ratio()),
        );
    }
    let whole = whole_campaign(w, seed)?;
    checks.expect(whole.is_some(), || {
        "the whole-corpus campaign failed its checks".into()
    });

    eprintln!(
        "{}: {} traced passes, {} untraced rounds, {} oracle samples, {} decomposed programs (stride {stride})",
        w.name,
        passes.len(),
        walls.repeats,
        latencies.len(),
        simcc.programs
    );
    let programs = fixture.programs as f64;
    let shrink_base = journal.shrink.len() as f64;
    Ok((
        vec![
            metric("skeleton.busy_s", layer_s[0], "s"),
            metric(
                "skeleton.failed_ratio",
                ratio(fastest.skeleton_failed as f64, fastest.files as f64),
                "ratio",
            ),
            metric("prepare.busy_s", layer_s[1], "s"),
            metric("prepare.native_ratio", native_ratio, "ratio"),
            metric("enumerate.busy_s", layer_s[2], "s"),
            metric("enumerate.programs", fastest.programs as f64, "count"),
            metric("render.busy_s", layer_s[3], "s"),
            metric("render.bytes", fastest.render_bytes as f64, "bytes"),
            metric("oracle.build_s", layer_s[4], "s"),
            metric("oracle.busy_s", layer_s[5], "s"),
            metric("oracle.p50_us", quantile_us(&latencies, 0.50), "us"),
            metric("oracle.p99_us", quantile_us(&latencies, 0.99), "us"),
            metric("oracle.samples", latencies.len() as f64, "count"),
            metric("oracle.splice_hit_ratio", splice_hit, "ratio"),
            metric("oracle.splice_base", splice_base as f64, "count"),
            metric(
                "oracle.memo_hit_ratio",
                ratio(stats.pipeline_memo_hits as f64, memo_base as f64),
                "ratio",
            ),
            metric("oracle.memo_base", memo_base as f64, "count"),
            metric("simcc.parse_s", simcc.parse_s, "s"),
            metric("simcc.facts_s", simcc.facts_s, "s"),
            metric("simcc.passes_s", simcc.passes_s, "s"),
            metric("simcc.lower_s", simcc.lower_s, "s"),
            metric("simcc.vm_s", simcc.vm_s, "s"),
            metric("simcc.reference_s", simcc.reference_s, "s"),
            metric(
                "simcc.ub_ratio",
                ratio(simcc.ub as f64, simcc.programs as f64),
                "ratio",
            ),
            metric("simcc.programs", simcc.programs as f64, "count"),
            metric(
                "harness.self_s",
                walls.serial_s - layer_s.iter().sum::<f64>(),
                "s",
            ),
            metric(
                "harness.parallel_efficiency",
                ratio(
                    programs / walls.parallel_s,
                    workers as f64 * programs / walls.serial_s,
                ),
                "ratio",
            ),
            metric(
                "harness.jobs",
                (fixture.files.len() * workers) as f64,
                "count",
            ),
            metric("checkpoint.run_s", journal.run_s, "s"),
            metric("checkpoint.resume_s", journal.resume_s, "s"),
            metric("checkpoint.compact_s", journal.compact_s, "s"),
            metric(
                "checkpoint.journal_bytes",
                journal.journal_bytes as f64,
                "bytes",
            ),
            metric(
                "checkpoint.compacted_bytes",
                journal.compacted_bytes as f64,
                "bytes",
            ),
            metric(
                "checkpoint.overhead_ratio",
                ratio(journal.run_s + journal.resume_s, walls.parallel_s),
                "ratio",
            ),
            metric("reduce.busy_s", journal.reduce_s, "s"),
            metric("reduce.findings", journal.findings as f64, "count"),
            metric(
                "reduce.shrink_ratio",
                ratio(journal.shrink.iter().sum(), shrink_base),
                "ratio",
            ),
            metric("reduce.shrink_base", shrink_base, "count"),
            metric(
                "trace.overhead_ratio",
                ratio(fastest.wall_s, walls.serial_s),
                "ratio",
            ),
        ],
        tally,
    ))
}
