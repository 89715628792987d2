//! Canonical metric names.
//!
//! Every instrumented crate records under a constant defined here, so
//! the names rendered by the Prometheus exporter, consumed by the
//! live progress line, and asserted by tests cannot drift apart.

/// Span: one whole `orchestrate::run` invocation.
pub const ORCH_RUN: &str = "orchestrate.run";
/// Span: dealing the `files × shards` job space into the steal queue.
pub const ORCH_DEAL: &str = "orchestrate.deal";
/// Span: the deterministic merge of per-job outputs into the report.
pub const ORCH_MERGE: &str = "orchestrate.merge";
/// Span: one (file, shard) job, from claim to completion.
pub const ORCH_JOB: &str = "orchestrate.job";
/// Span: replaying a journal into per-job state on resume.
pub const ORCH_REPLAY: &str = "orchestrate.replay";
/// Span: one durable checkpoint commit (progress frames + fsync).
pub const ORCH_CHECKPOINT: &str = "orchestrate.checkpoint";
/// Counter: jobs claimed from another worker's deque.
pub const ORCH_STEALS: &str = "orchestrate.steals";
/// Counter: jobs run to completion (including quarantined ones).
pub const ORCH_JOBS_DONE: &str = "orchestrate.jobs_done";
/// Counter: jobs quarantined by panic isolation.
pub const ORCH_PANICS: &str = "orchestrate.job_panics";
/// Gauge: total jobs in the campaign's job space.
pub const ORCH_JOBS: &str = "orchestrate.jobs";
/// Gauge: undealt jobs left in the steal queue, sampled at each pop.
pub const ORCH_QUEUE_DEPTH: &str = "orchestrate.queue_depth";
/// Event: the orchestrator honored a `stop_after` kill.
pub const ORCH_KILLED: &str = "orchestrate.killed";

/// Counter: variants actually tested by the oracle.
pub const VARIANTS: &str = "campaign.variants_tested";
/// Counter: candidate findings fired, before any dedup.
pub const CANDIDATES: &str = "campaign.candidates";
/// Counter: variants skipped because the reference execution hit UB.
pub const UB_SKIPS: &str = "campaign.ub_skipped";
/// Counter: jobs quarantined by a backend machinery failure.
pub const DEGRADED: &str = "campaign.backend_degraded";

/// Histogram-name prefix for per-verdict oracle latency; the suffix
/// is one of [`ORACLE_VERDICTS`].
pub const ORACLE_NS_PREFIX: &str = "oracle_ns.";
/// The per-verdict oracle latency label set.
pub const ORACLE_VERDICTS: [&str; 6] = [
    "clean",
    "crash",
    "wrong_code",
    "performance",
    "ub_skip",
    "unsupported",
];
/// Histogram: oracle latency of variants with no finding.
pub const ORACLE_NS_CLEAN: &str = "oracle_ns.clean";
/// Histogram: oracle latency of variants producing a crash finding.
pub const ORACLE_NS_CRASH: &str = "oracle_ns.crash";
/// Histogram: oracle latency of variants producing a wrong-code
/// finding.
pub const ORACLE_NS_WRONG_CODE: &str = "oracle_ns.wrong_code";
/// Histogram: oracle latency of variants producing a performance
/// finding.
pub const ORACLE_NS_PERFORMANCE: &str = "oracle_ns.performance";
/// Histogram: oracle latency of variants skipped for reference UB.
pub const ORACLE_NS_UB_SKIP: &str = "oracle_ns.ub_skip";
/// Histogram: oracle latency of variants the backend rejected as
/// untestable (e.g. they do not parse).
pub const ORACLE_NS_UNSUPPORTED: &str = "oracle_ns.unsupported";

/// Histogram: `Journal::append` frame-write latency (ns).
pub const JOURNAL_APPEND_NS: &str = "journal.append_ns";
/// Histogram: `Journal::append` fsync latency (ns).
pub const JOURNAL_FSYNC_NS: &str = "journal.fsync_ns";
/// Counter: frames appended.
pub const JOURNAL_APPENDS: &str = "journal.appends";
/// Counter: payload + frame-header bytes appended.
pub const JOURNAL_APPENDED_BYTES: &str = "journal.appended_bytes";
/// Gauge: journal file length in bytes after the latest append.
pub const JOURNAL_LEN_BYTES: &str = "journal.len_bytes";
/// Counter: journal append retries under the fault policy.
pub const JOURNAL_RETRIES: &str = "journal.retries";
/// Event: the checkpoint sink degraded to in-memory completion.
pub const JOURNAL_DEGRADED: &str = "journal.degraded";
/// Span: one journal compaction (scan → rewrite → rename).
pub const JOURNAL_COMPACT: &str = "journal.compact";

/// Histogram: oracle invocations per reduced finding (ddmin cost).
pub const REDUCE_ORACLE_CALLS: &str = "reduce.oracle_calls";
/// Histogram: fixed-point rounds per reduced finding.
pub const REDUCE_ROUNDS: &str = "reduce.rounds";
/// Histogram: shrink ratio per reduced finding, ×100 (so `354` means
/// the witness is 3.54× smaller than the reproducer).
pub const REDUCE_SHRINK_X100: &str = "reduce.shrink_x100";
/// Counter: findings that produced a reduced witness.
pub const REDUCE_REDUCED: &str = "reduce.reduced";
/// Span: one whole reduction pass over a report.
pub const REDUCE_PASS: &str = "reduce.pass";
/// Event: a finding's reducer panicked and the finding was recorded as
/// irreducible; the detail names the finding and the panic.
pub const REDUCE_PANICKED: &str = "reduce.panicked";

/// Counter: subprocess compiler launches.
pub const SUBPROC_LAUNCHES: &str = "subproc.launches";
/// Counter: transient-failure retries.
pub const SUBPROC_RETRIES: &str = "subproc.retries";
/// Counter: jobs killed on timeout.
pub const SUBPROC_TIMEOUTS: &str = "subproc.timeouts";
/// Counter: configs quarantined after retry exhaustion.
pub const SUBPROC_QUARANTINES: &str = "subproc.quarantines";
/// Event: a faulted job's scratch directory was kept for debugging;
/// the detail is its path and the reason.
pub const SUBPROC_PRESERVED: &str = "subproc.preserved";
/// Histogram: wall-clock of one subprocess run (ns), including
/// spawn, drain, and reap.
pub const SUBPROC_RUN_NS: &str = "subproc.run_ns";

/// Counter: variants whose name bindings were delta-spliced into the
/// incremental oracle's cached AST (one odometer digit changed — the
/// fast path that skips print/lex/parse/sema entirely).
pub const ORACLE_SPLICE_HITS: &str = "oracle_cache.splice_hits";
/// Counter: variants that paid a full cache build or full resplice —
/// the first variant of each (file, shard) job, skeleton boundaries,
/// and post-panic self-heals.
pub const ORACLE_SPLICE_MISSES: &str = "oracle_cache.splice_misses";
/// Counter: per-configuration pass-pipeline results served from the
/// incremental oracle's within-variant memo (configurations sharing an
/// optimization level and triggered-rewrite set).
pub const ORACLE_PIPELINE_MEMO_HITS: &str = "oracle_cache.pipeline_memo_hits";
/// Counter: pass-pipeline executions the memo could not serve.
pub const ORACLE_PIPELINE_MEMO_MISSES: &str = "oracle_cache.pipeline_memo_misses";
/// Counter: reference results served from the incremental oracle's
/// per-job reference memo (an earlier run of the job read only holes
/// the variant agrees on).
pub const ORACLE_REFERENCE_MEMO_HITS: &str = "oracle_cache.reference_memo_hits";
/// Counter: reference-interpreter runs the memo could not serve.
pub const ORACLE_REFERENCE_RUNS: &str = "oracle_cache.reference_runs";
/// Counter: of those runs, the ones that burned all their fuel
/// (`Ub::FuelExhausted`): loops the head check could not prove endless.
pub const ORACLE_REFERENCE_FUEL_EXHAUSTED: &str = "oracle_cache.reference_fuel_exhausted";
/// Counter: `-O0` images the incremental oracle served by re-aiming the
/// hole sites of the job's one lowering (a name that resolves nowhere
/// counts here too: it answers `unsupported`).
pub const ORACLE_O0_PATCHED: &str = "oracle_cache.o0_patched";
/// Counter: `-O0` programs the incremental oracle lowered in full: the
/// job's template, and every variant whose names the template cannot
/// serve.
pub const ORACLE_O0_LOWERED: &str = "oracle_cache.o0_lowered";

/// Span: one host's slice of a multi-host fleet campaign (a journaled
/// `spe_harness::Campaign` run with a fleet slot), detail
/// `fleet=<id> host=<h>/<n>`.
pub const FLEET_HOST_RUN: &str = "fleet.host_run";
/// Span: one deterministic merge of host journals into a campaign
/// report (`spe_harness::fleet::merge_journals`).
pub const FLEET_MERGE: &str = "fleet.merge";
/// Gauge: jobs of the (file × shard) space owned by the running host.
pub const FLEET_JOBS_OWNED: &str = "fleet.jobs_owned";
/// Counter: host journals folded by completed merges.
pub const FLEET_HOSTS_MERGED: &str = "fleet.hosts_merged";
/// Counter: record frames streamed by completed merges.
pub const FLEET_FRAMES_MERGED: &str = "fleet.frames_merged";

/// Counter: per-configuration observations by the in-process backend.
pub const SIMCC_OBSERVATIONS: &str = "simcc.observations";
/// Counter: variants rejected by the in-process backend's parser.
pub const SIMCC_PARSE_REJECTS: &str = "simcc.parse_rejects";

/// Span-name prefix for demo-binary phases (`phase.<name>`); the
/// binaries read these back from the global [`crate::Recorder`] to
/// print per-phase wall clock.
pub const PHASE_PREFIX: &str = "phase.";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_histogram_names_are_prefix_plus_label() {
        let consts = [
            ORACLE_NS_CLEAN,
            ORACLE_NS_CRASH,
            ORACLE_NS_WRONG_CODE,
            ORACLE_NS_PERFORMANCE,
            ORACLE_NS_UB_SKIP,
            ORACLE_NS_UNSUPPORTED,
        ];
        for (full, label) in consts.iter().zip(ORACLE_VERDICTS) {
            assert_eq!(*full, format!("{ORACLE_NS_PREFIX}{label}"));
        }
    }
}
