//! [`Campaign`] — the one way to run, journal, resume or reduce a
//! campaign — and the **one** supervised worker-pool/merge loop behind
//! every run (`DESIGN.md` §11).
//!
//! The loop is a work-stealing pool over the `files × shards` job space,
//! with an **optional checkpoint sink** (an `spe-persist` journal) and
//! three supervision layers:
//!
//! * **Panic isolation** — each (file, shard) job runs under
//!   [`std::panic::catch_unwind`]. A panicking job is rolled back to its
//!   last fully-processed variant, quarantined as a durable
//!   [`crate::FindingKind::JobPanicked`] finding (committed in the
//!   job's final frame, so a resume skips it), and the
//!   pool carries on — one poisoned variant cannot take down a
//!   multi-day campaign or wedge its siblings.
//! * **Time-based checkpoint cadence** — in addition to the
//!   every-N-variants cadence, a job whose variants are slow (an
//!   external compiler at -O3) commits at least every
//!   [`FaultPolicy::checkpoint_interval`], bounding recomputation after
//!   a crash by wall-clock time instead of variant count.
//! * **Journal-fault tolerance** — a failed checkpoint append (ENOSPC,
//!   EIO) is retried with bounded exponential backoff
//!   ([`FaultPolicy::max_append_retries`] / [`FaultPolicy::retry_backoff`]);
//!   if the journal stays unwritable the run **degrades to
//!   checkpoint-less in-memory completion** with a recorded
//!   [`Outcome::warnings`] entry instead of aborting — the journal keeps
//!   its last committed state and remains resumable.
//!
//! A file's skeleton and prepared variant space live only while that
//! file's jobs run. The first of its jobs to start prepares them into an
//! entry that its sibling shards share by [`Arc`], and the job that
//! finishes the file's last pending job of the run drops the entry, so
//! a run's memory is bounded by its live jobs, not by its corpus
//! (`tests/campaign_memory.rs`).
//!
//! The full failure taxonomy — compiler *verdict* vs backend *machinery
//! error* vs worker *panic* vs *journal fault*, and which layer absorbs
//! each — is laid out in `DESIGN.md` §11. Determinism is unchanged from
//! §9: outputs are folded in fixed (file, shard) order whatever the
//! completion order, so reports stay byte-identical across worker
//! counts and kill/resume histories; the identity suites
//! (`tests/backend_identity.rs`, `tests/checkpoint_resume.rs`) and the
//! injected-fault suite (`tests/orchestrator_faults.rs`) pin all of it.

use crate::checkpoint::{
    encode_progress, replay_reduction, CampaignStatus, CheckpointError, CheckpointOptions,
    JobState, Manifest, Replay,
};
use crate::fleet::{mark_foreign_jobs_done, FleetPlan};
use crate::reduction::{attach_and_dedup, reduce_missing, ReductionOptions};
use crate::steal::WorkQueue;
use crate::{
    merge_outputs, prepare_file, quarantine_finding, CampaignConfig, CampaignReport, FindingKind,
    Oracle, ShardOutput,
};
use spe_core::NameId;
use spe_corpus::TestFile;
use spe_persist::{Journal, JournalError};
use spe_telemetry::{names, Sink as TelemetrySink, Timer};
use std::any::Any;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How the orchestrator responds to infrastructure faults — checkpoint
/// cadence under slow oracles and retry/degradation behavior when the
/// journal itself fails. Orthogonal to [`CheckpointOptions`], which
/// describes *what* a checkpointed run records; this describes *how
/// hard the orchestrator fights to record it*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Wall-clock checkpoint cadence: a job with uncommitted progress
    /// older than this commits at the next variant boundary, even if
    /// the count-based [`CheckpointOptions::every`] has not elapsed —
    /// so slow-oracle campaigns lose bounded *time*, not unbounded
    /// variant recomputation, to a crash. `None` disables the
    /// time-based trigger (count-only cadence).
    pub checkpoint_interval: Option<Duration>,
    /// How many times a failed journal append is retried before the run
    /// degrades to checkpoint-less completion.
    pub max_append_retries: u32,
    /// Backoff before the first retry; doubled per subsequent retry
    /// (transient ENOSPC/EIO conditions — a log rotation, a burst of
    /// writes — often clear within milliseconds).
    pub retry_backoff: Duration,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            checkpoint_interval: Some(Duration::from_secs(5)),
            max_append_retries: 4,
            retry_backoff: Duration::from_millis(10),
        }
    }
}

/// What a journaled run or resume produced: the campaign status plus
/// every degradation the orchestrator absorbed instead of aborting on.
#[derive(Debug)]
pub struct Outcome {
    /// Completion, or interruption by [`CheckpointOptions::stop_after`].
    pub status: CampaignStatus,
    /// Human-readable records of absorbed faults (e.g. checkpointing
    /// disabled after exhausted journal retries). Empty on a clean run.
    /// Deliberately *not* part of the [`CampaignReport`]: reports are
    /// compared byte-for-byte across runs, and infrastructure weather
    /// must never make two equal campaigns unequal.
    pub warnings: Vec<String>,
}

impl Outcome {
    /// The completed report, `None` when interrupted.
    pub fn into_report(self) -> Option<CampaignReport> {
        self.status.into_report()
    }
}

/// One way to run, journal, resume or reduce a campaign: an oracle, a
/// worker count and a fault policy, with four methods —
/// [`Campaign::run`] in memory, [`Campaign::run_journaled`] into a
/// checkpoint journal (optionally as one host of a fleet),
/// [`Campaign::resume`] from a journal, and [`Campaign::reduce`] over a
/// finished report. Every run goes through the one supervised loop of
/// this module and every reduction through the one fan-out of
/// [`crate::reduction`].
///
/// ```no_run
/// use spe_harness::{Campaign, CampaignConfig, Oracle};
/// use spe_simcc::backend::SimccBackend;
///
/// let files = spe_corpus::seeds::all();
/// let config = CampaignConfig::default();
/// let campaign = Campaign { workers: 4, ..Campaign::default() };
/// let round_trip = Campaign { oracle: Oracle::Backend(&SimccBackend), ..campaign };
/// assert_eq!(campaign.run(&files, &config), round_trip.run(&files, &config));
/// ```
#[derive(Clone, Copy)]
pub struct Campaign<'a> {
    /// How variants are observed; [`Oracle::Incremental`] by default.
    pub oracle: Oracle<'a>,
    /// Worker threads (at least one; one by default). On a fresh
    /// single-host run this is also the number of shards each file's
    /// variant space is cut into, so it fixes the job decomposition; a
    /// resume (whose journal pins the decomposition) and a fleet host
    /// (whose plan does) use it only to size the pool. Backends that
    /// shell out should size their process pool to it (see
    /// `spe-subproc`).
    pub workers: usize,
    /// How hard a journaled run fights journal faults.
    pub policy: FaultPolicy,
}

impl Default for Campaign<'_> {
    fn default() -> Self {
        Campaign {
            oracle: Oracle::Incremental,
            workers: 1,
            policy: FaultPolicy::default(),
        }
    }
}

impl Campaign<'_> {
    /// Runs the campaign over `files` in memory. It always completes —
    /// there is no journal to fail and no kill budget — so it returns
    /// the report itself. A job that panics, or whose backend
    /// persistently fails, is quarantined as a
    /// [`FindingKind::JobPanicked`] / [`FindingKind::BackendDegraded`]
    /// finding instead of crashing the process.
    pub fn run(&self, files: &[TestFile], config: &CampaignConfig) -> CampaignReport {
        let shards_per_file = self.workers.max(1);
        let spec = Spec {
            files,
            config,
            shards_per_file,
            jobs: fresh_jobs(files.len() * shards_per_file),
            journal: None,
        };
        match run(self, spec).status {
            CampaignStatus::Complete(report) => report,
            // Only a kill budget interrupts a run, and this one has none.
            CampaignStatus::Interrupted => unreachable!("in-memory campaigns always complete"),
        }
    }

    /// Runs the campaign writing per-(file, shard) checkpoints into a
    /// fresh journal at `journal` (any existing file is replaced). The
    /// manifest records the corpus, the configuration, the
    /// decomposition and the oracle's backend identity, so
    /// [`Campaign::resume`] needs only the path; the completed report is
    /// byte-identical to [`Campaign::run`] at the same decomposition.
    ///
    /// With `fleet: Some((plan, host_id))` this is one host's slice of a
    /// multi-host campaign (`DESIGN.md` §14): the plan fixes the
    /// decomposition, the manifest also pins `(fleet_id, n_hosts,
    /// host_id)`, and only the jobs of [`FleetPlan::host_jobs`] run. The
    /// completed report covers that slice only; the campaign result
    /// comes from [`crate::fleet::merge_journals`] over all hosts.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Journal`] when the journal cannot be
    /// **created**, [`CheckpointError::Foreign`] when `host_id` is
    /// outside the plan. Later append failures do not abort the run:
    /// they are retried and then degrade it to checkpoint-less
    /// completion with an [`Outcome::warnings`] entry (see
    /// [`FaultPolicy`]).
    pub fn run_journaled(
        &self,
        files: &[TestFile],
        config: &CampaignConfig,
        journal: impl AsRef<Path>,
        options: &CheckpointOptions,
        fleet: Option<(FleetPlan, usize)>,
    ) -> Result<Outcome, CheckpointError> {
        let stamp = fleet
            .map(|(plan, host_id)| plan.stamp(host_id))
            .transpose()?;
        let shards_per_file = fleet
            .map_or(self.workers, |(plan, _)| plan.shards_per_file)
            .max(1);
        let backend = self.oracle.backend();
        let manifest = Manifest {
            config: config.clone(),
            shards_per_file,
            files: files.to_vec(),
            backend_id: backend.id().to_string(),
            backend_hash: backend.config_hash(),
            fleet: stamp,
        };
        let journal = Journal::create(journal, &manifest.encode())?;
        let mut jobs = fresh_jobs(files.len() * shards_per_file);
        let spec = |jobs| Spec {
            files,
            config,
            shards_per_file,
            jobs,
            journal: Some((journal, *options)),
        };
        let Some(stamp) = stamp else {
            return Ok(run(self, spec(jobs)));
        };
        // Jobs outside the host's slice are pre-marked done: the pool
        // never deals them, no frames are written for them, and their
        // empty partials contribute nothing to the host's report.
        let owned = mark_foreign_jobs_done(&mut jobs, stamp)?;
        let telemetry = spe_telemetry::global();
        let timer = Timer::start(&*telemetry);
        if telemetry.enabled() {
            telemetry.gauge(
                names::FLEET_JOBS_OWNED,
                i64::try_from(owned.len()).unwrap_or(i64::MAX),
            );
        }
        let outcome = run(self, spec(jobs));
        if telemetry.enabled() {
            telemetry.span(
                names::FLEET_HOST_RUN,
                &format!(
                    "fleet={:#x} host={}/{} jobs={}",
                    stamp.fleet_id,
                    stamp.host_id,
                    stamp.n_hosts,
                    owned.len()
                ),
                timer.stop_nanos(),
            );
        }
        Ok(outcome)
    }

    /// Resumes the campaign whose journal lives at `journal`. The valid
    /// prefix is replayed **streamingly** (a torn tail frame from the
    /// crash is truncated, and memory stays bounded by the live per-job
    /// state), finished jobs keep their recorded outputs, and unfinished
    /// jobs are re-dealt with their shards re-seeded at the committed
    /// emission-index high-water marks by exact unranking — work before
    /// a mark is never re-enumerated. The manifest fixes the
    /// decomposition, so the completed report is byte-identical to an
    /// uninterrupted run whatever `workers` is; a resumed run may itself
    /// be interrupted and resumed again, any number of times. A fleet
    /// host's journal resumes its own slice.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Journal`] when the file is not a resumable
    /// journal (or another writer holds it); [`CheckpointError::Decode`]
    /// / [`CheckpointError::Foreign`] when its records do not decode
    /// against this build's schema and registries, or when it was
    /// recorded under another backend identity than this campaign's
    /// oracle — replayed frames mixed with a different oracle's
    /// recomputed suffix would match no uninterrupted run.
    pub fn resume(
        &self,
        journal: impl AsRef<Path>,
        options: &CheckpointOptions,
    ) -> Result<Outcome, CheckpointError> {
        let telemetry = spe_telemetry::global();
        let replay_timer = Timer::start(&*telemetry);
        let (replay, iter) = Replay::open(journal.as_ref())?;
        if telemetry.enabled() {
            telemetry.span(
                names::ORCH_REPLAY,
                &format!("jobs={}", replay.jobs.len()),
                replay_timer.stop_nanos(),
            );
        }
        replay.manifest.check_backend(self.oracle.backend())?;
        let Replay {
            manifest, mut jobs, ..
        } = replay;
        if let Some(stamp) = manifest.fleet {
            // A host journal records frames only for its own slice; the
            // jobs outside it are re-marked done, as on the first run.
            mark_foreign_jobs_done(&mut jobs, stamp)?;
        }
        if jobs.iter().all(|job| job.done) {
            // Nothing to recompute: fold the recorded outputs directly.
            let report = merge_outputs(jobs.into_iter().map(|j| j.partial).collect());
            return Ok(Outcome {
                status: CampaignStatus::Complete(report),
                warnings: Vec::new(),
            });
        }
        // The scan's writer lock carries straight into the appender: no
        // other resume can slip a frame in between replay and append.
        let journal = iter.into_appender()?;
        let spec = Spec {
            files: &manifest.files,
            config: &manifest.config,
            shards_per_file: manifest.shards_per_file,
            jobs,
            journal: Some((journal, *options)),
        };
        Ok(run(self, spec))
    }

    /// Reduces every finding of `report` and runs the fingerprint and
    /// trigger dedup folds ([`crate::reduction`]). Findings fan out over
    /// `workers` threads; each witness is a pure function of its
    /// finding, so the report is byte-identical for every worker count.
    /// Under [`Oracle::Incremental`] candidate shrinks are probed in
    /// process with [`spe_simcc::Compiler::observe`]; under
    /// [`Oracle::Backend`] each is printed and re-observed by the
    /// backend, so witnesses are certified by the oracle that found
    /// them.
    ///
    /// With `journal: Some(path)` — the campaign's journal — the pass is
    /// checkpointed: witnesses an earlier (killed) pass recorded are
    /// replayed, only the missing findings are reduced, and each
    /// witness lands as one journal frame, so any kill/resume history
    /// yields the uninterrupted report.
    ///
    /// Returns one warning per finding whose reducer panicked; such a
    /// finding is recorded as irreducible (and as a
    /// [`names::REDUCE_PANICKED`] telemetry event) instead of killing
    /// the fan-out.
    ///
    /// # Errors
    ///
    /// Only with a journal: the error classes of [`Campaign::resume`],
    /// plus a [`CheckpointError::Foreign`] refusal when the journal's
    /// recorded reduction ran under other options or belongs to another
    /// report. The report is left unmodified on error.
    pub fn reduce(
        &self,
        report: &mut CampaignReport,
        options: &ReductionOptions,
        journal: Option<&Path>,
    ) -> Result<Vec<String>, CheckpointError> {
        let (mut slots, journal) = match journal {
            Some(path) => replay_reduction(path, report, options, self.oracle.backend())?,
            None => (vec![None; report.findings.len()], None),
        };
        let warnings = reduce_missing(
            &report.findings,
            &mut slots,
            options,
            self.workers,
            self.oracle,
            journal,
        )?;
        attach_and_dedup(report, slots.into_iter().map(Option::flatten).collect());
        Ok(warnings)
    }
}

/// `count` jobs with no replayed state.
fn fresh_jobs(count: usize) -> Vec<JobState> {
    (0..count).map(|_| JobState::default()).collect()
}

/// Everything one supervised run needs besides its [`Campaign`].
/// Borrowed, not owned: a resume hands the manifest's corpus straight
/// through without cloning.
struct Spec<'a> {
    files: &'a [TestFile],
    config: &'a CampaignConfig,
    /// Shards each file's variant space is cut into — fixed by the
    /// journal manifest on resume and by the plan on a fleet host, the
    /// worker count otherwise.
    shards_per_file: usize,
    /// Per-job replayed state: fresh defaults on a first run, the
    /// journal's committed high-water marks and partial outputs on a
    /// resume. Jobs marked done are not re-dealt.
    jobs: Vec<JobState>,
    /// The checkpoint sink and what it records; `None` runs the pool
    /// purely in memory.
    journal: Option<(Journal, CheckpointOptions)>,
}

/// The checkpoint sink: serializes journal appends, retries transient
/// failures per the policy, and — when the journal stays unwritable —
/// flips to degraded mode so the rest of the campaign completes in
/// memory with a recorded warning.
struct Sink<'a> {
    journal: Option<Mutex<Journal>>,
    degraded: AtomicBool,
    policy: &'a FaultPolicy,
    warnings: &'a Mutex<Vec<String>>,
    telemetry: &'a dyn TelemetrySink,
}

impl Sink<'_> {
    /// Whether appends currently reach the journal.
    fn active(&self) -> bool {
        self.journal.is_some() && !self.degraded.load(Ordering::Relaxed)
    }

    /// Appends one frame with bounded-backoff retry; on exhaustion,
    /// degrades the sink (once, with a warning) instead of failing the
    /// campaign. Called only while the sink is [`active`](Self::active).
    fn append(&self, journal: &Mutex<Journal>, payload: &[u8]) {
        let mut backoff = self.policy.retry_backoff;
        let mut attempt = 0u32;
        loop {
            // Hold the journal lock only for the append itself; backoff
            // sleeps must not serialize the other workers' commits.
            let result = journal.lock().expect("poisoned").append(payload);
            match result {
                Ok(()) => return,
                Err(JournalError::Io { .. }) if attempt < self.policy.max_append_retries => {
                    attempt += 1;
                    self.telemetry.counter(names::JOURNAL_RETRIES, 1);
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
                Err(e) => {
                    if !self.degraded.swap(true, Ordering::Relaxed) {
                        self.telemetry
                            .event(names::JOURNAL_DEGRADED, "progress checkpoint");
                        self.warnings.lock().expect("poisoned").push(format!(
                            "checkpointing disabled: progress checkpoint failed after \
                             {attempt} retries: {e}; the campaign continues in memory and \
                             the journal stays resumable at its last committed state"
                        ));
                    }
                    return;
                }
            }
        }
    }

    /// Commits a `Progress` frame for `[last mark, emitted)` — the
    /// high-water mark plus exactly the candidates and counters of the
    /// variants it covers, one atomic frame, marked `done` when it is
    /// the job's final frame — then drains the delta into the run's
    /// in-memory continuation. The drain happens whether or not the
    /// append reached the journal: the report never depends on
    /// checkpoint health.
    fn commit(
        &self,
        job: usize,
        emitted: u64,
        done: bool,
        delta: &mut ShardOutput,
        cont: &mut ShardOutput,
    ) {
        if let Some(journal) = self.journal.as_ref().filter(|_| self.active()) {
            let timer = Timer::start(self.telemetry);
            self.append(journal, &encode_progress(job, emitted, done, delta));
            if self.telemetry.enabled() {
                self.telemetry
                    .span(names::ORCH_CHECKPOINT, "", timer.stop_nanos());
            }
        }
        cont.absorb(std::mem::take(delta));
    }
}

/// A file's skeleton and prepared variant space, computed once by
/// whichever of its jobs gets there first (`None` when the file does not
/// parse). A preparation that panics leaves the cell empty.
type Prepared = OnceLock<Option<(spe_core::Skeleton, spe_core::VariantSpace)>>;

/// One file's share of a run: how many of its dealt jobs have not
/// finished, and — while any has started — the [`Prepared`] entry they
/// hold. The job that brings `pending` to zero clears the entry, so the
/// file's state is freed with its last job, not with the run.
#[derive(Default)]
struct FileSlot {
    pending: usize,
    entry: Option<Arc<Prepared>>,
}

/// Extracts a printable message from a [`catch_unwind`] payload.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// The one supervised worker-pool/merge loop (`DESIGN.md` §11) behind
/// every [`Campaign`] run and resume.
fn run(campaign: &Campaign<'_>, spec: Spec<'_>) -> Outcome {
    let Campaign {
        oracle,
        workers,
        policy,
    } = *campaign;
    let Spec {
        files,
        config,
        shards_per_file,
        jobs,
        journal,
    } = spec;
    let workers = workers.max(1);
    let (journal, options) = journal.unzip();
    let every = options.map_or(u64::MAX, |o| o.every).max(1);
    let stop_after = options.and_then(|o| o.stop_after);
    // One global-sink read per run; workers share the borrow. All
    // recording is write-only (nothing read back), so instrumented
    // runs stay byte-identical to `NullSink` runs.
    let telemetry_handle = spe_telemetry::global();
    let telemetry: &dyn TelemetrySink = &*telemetry_handle;
    let run_timer = Timer::start(telemetry);
    let deal_timer = Timer::start(telemetry);
    let pending: Vec<usize> = (0..jobs.len()).filter(|&i| !jobs[i].done).collect();
    let dealt = pending.len();
    // Only the jobs this run deals count: a resume's finished jobs and
    // a fleet host's foreign ones are already `done`.
    let mut slots: Vec<Mutex<FileSlot>> = (0..files.len()).map(|_| Mutex::default()).collect();
    for &i in &pending {
        slots[i / shards_per_file]
            .get_mut()
            .expect("poisoned")
            .pending += 1;
    }
    let queue = WorkQueue::new(pending, workers);
    if telemetry.enabled() {
        telemetry.gauge(
            names::ORCH_JOBS,
            i64::try_from(jobs.len()).unwrap_or(i64::MAX),
        );
        telemetry.span(
            names::ORCH_DEAL,
            &format!("jobs={dealt} workers={workers}"),
            deal_timer.stop_nanos(),
        );
    }
    let warnings: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let sink = Sink {
        journal: journal.map(Mutex::new),
        degraded: AtomicBool::new(false),
        policy: &policy,
        warnings: &warnings,
        telemetry,
    };
    let stop = AtomicBool::new(false);
    let processed = AtomicU64::new(0);
    // Continuations (outputs of this run) per job; folded with the
    // replayed partials afterwards.
    let continuations: Mutex<Vec<Option<ShardOutput>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for w in 0..workers {
            let queue = &queue;
            let sink = &sink;
            let stop = &stop;
            let processed = &processed;
            let continuations = &continuations;
            let slots = &slots;
            let jobs = &jobs;
            scope.spawn(move || {
                let mut buf = String::new();
                // The variant in hand, kept outside the unwind boundary
                // as its names: a panicking job renders its reproducer
                // from them.
                let mut in_hand: Vec<NameId> = Vec::new();
                while let Some((i, stolen)) = queue.pop_from(w) {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    if telemetry.enabled() {
                        if stolen {
                            telemetry.counter(names::ORCH_STEALS, 1);
                        }
                        telemetry.gauge(
                            names::ORCH_QUEUE_DEPTH,
                            i64::try_from(queue.len()).unwrap_or(i64::MAX),
                        );
                    }
                    let job_timer = Timer::start(telemetry);
                    let (file_idx, shard) = (i / shards_per_file, i % shards_per_file);
                    let file = &files[file_idx];
                    let skip = jobs[i].emitted;
                    // The file's shared entry, made by the first of its
                    // jobs to start.
                    let entry = Arc::clone(
                        slots[file_idx]
                            .lock()
                            .expect("poisoned")
                            .entry
                            .get_or_insert_with(Default::default),
                    );
                    // A job that panics before its first variant must
                    // not quarantine with the previous job's variant.
                    let mut started = false;
                    // Output since the last committed checkpoint (the
                    // journal delta) and since the start of this run
                    // (the in-memory continuation).
                    let mut delta = ShardOutput::default();
                    let mut cont = ShardOutput::default();
                    let mut emitted = skip;
                    let mut last_commit = skip;
                    let mut last_commit_at = Instant::now();
                    let mut killed = false;
                    // Rollback point for panic isolation: `delta`'s
                    // state after the last fully-processed variant (and
                    // after any drain). A panic mid-variant truncates
                    // back to it, so the quarantined job commits only
                    // whole variants — deterministic under resume.
                    let mut rollback = (0usize, 0u64, 0u64);
                    let panic_payload = catch_unwind(AssertUnwindSafe(|| {
                        // Preparing the file is guarded too: it panics
                        // on a type group wider than the 128-variable
                        // constraint masks. A panicking init leaves the
                        // cell empty, so each of the file's jobs retries
                        // and is quarantined alike.
                        let Some((sk, space)) =
                            entry.get_or_init(|| prepare_file(file, shards_per_file, config))
                        else {
                            return;
                        };
                        delta.file_processed = shard == 0 && skip == 0;
                        let enumerator = crate::campaign_enumerator(config, shards_per_file);
                        // The job's oracle (and its splice cache) is
                        // built lazily at the job's first variant and
                        // dropped at job end — cached AST state cannot
                        // outlive the job or leak into a quarantined
                        // sibling.
                        let mut job_oracle = oracle.job(sk, &jobs[i].partial);
                        enumerator.enumerate_shard_resumed_prepared(
                            space,
                            shard,
                            skip,
                            &mut |variant| {
                                if stop.load(Ordering::Relaxed) {
                                    killed = true;
                                    return ControlFlow::Break(());
                                }
                                in_hand.clone_from(&variant.names);
                                started = true;
                                if let Err(e) = job_oracle.process_variant(
                                    variant, file, &mut buf, config, &mut delta, telemetry,
                                ) {
                                    // Backend machinery failure:
                                    // quarantine the job (the degraded
                                    // finding lands in its final frame
                                    // below) and let the campaign
                                    // continue.
                                    delta.candidates.push(quarantine_finding(
                                        FindingKind::BackendDegraded,
                                        file,
                                        shard,
                                        &buf,
                                        config,
                                        &e.what,
                                    ));
                                    return ControlFlow::Break(());
                                }
                                emitted += 1;
                                rollback = (
                                    delta.candidates.len(),
                                    delta.variants_tested,
                                    delta.variants_ub_skipped,
                                );
                                if let Some(limit) = stop_after {
                                    if processed.fetch_add(1, Ordering::Relaxed) + 1 >= limit {
                                        // Simulated kill: drop the
                                        // uncommitted delta on the
                                        // floor.
                                        stop.store(true, Ordering::Relaxed);
                                        telemetry.event(names::ORCH_KILLED, "stop_after reached");
                                        killed = true;
                                        return ControlFlow::Break(());
                                    }
                                }
                                // The wall-clock cadence reads the
                                // clock only while a journal takes
                                // frames: without one a commit just
                                // moves the delta.
                                let count_due = emitted - last_commit >= every;
                                let time_due = emitted > last_commit
                                    && sink.active()
                                    && sink.policy.checkpoint_interval.is_some_and(|interval| {
                                        last_commit_at.elapsed() >= interval
                                    });
                                if count_due || time_due {
                                    sink.commit(i, emitted, false, &mut delta, &mut cont);
                                    last_commit = emitted;
                                    last_commit_at = Instant::now();
                                    rollback = (0, 0, 0);
                                }
                                ControlFlow::Continue(())
                            },
                        );
                    }))
                    .err();
                    if let Some(payload) = panic_payload {
                        // Roll back any half-processed variant, then
                        // quarantine: the panic marker is committed in
                        // the job's final frame, so a resume skips this
                        // job instead of re-tripping the panic.
                        delta.candidates.truncate(rollback.0);
                        delta.variants_tested = rollback.1;
                        delta.variants_ub_skipped = rollback.2;
                        // The reproducer is the variant the panic hit,
                        // on either route: empty before the job's first
                        // variant, or when its render panics too.
                        let rendered = started
                            && catch_unwind(AssertUnwindSafe(|| {
                                let (sk, _) = entry
                                    .get()
                                    .and_then(Option::as_ref)
                                    .expect("a variant in hand comes from its prepared file");
                                sk.render_into(&in_hand, &mut buf);
                            }))
                            .is_ok();
                        if !rendered {
                            buf.clear();
                        }
                        delta.candidates.push(quarantine_finding(
                            FindingKind::JobPanicked,
                            file,
                            shard,
                            &buf,
                            config,
                            panic_message(payload.as_ref()),
                        ));
                        telemetry.counter(names::ORCH_PANICS, 1);
                    }
                    if killed {
                        return;
                    }
                    // The file's last job clears its slot; the skeleton
                    // and space go when this worker drops `entry`.
                    {
                        let mut slot = slots[file_idx].lock().expect("poisoned");
                        slot.pending -= 1;
                        if slot.pending == 0 {
                            slot.entry = None;
                        }
                    }
                    drop(entry);
                    // The job's final frame: the tail delta, marked
                    // done (written even when the delta is empty, since
                    // it carries the completion).
                    sink.commit(i, emitted, true, &mut delta, &mut cont);
                    continuations.lock().expect("poisoned")[i] = Some(cont);
                    if telemetry.enabled() {
                        telemetry.span(
                            names::ORCH_JOB,
                            &format!("file={file_idx} shard={shard}"),
                            job_timer.stop_nanos(),
                        );
                    }
                    telemetry.counter(names::ORCH_JOBS_DONE, 1);
                }
            });
        }
    });
    if stop.load(Ordering::Relaxed) {
        if telemetry.enabled() {
            telemetry.span(names::ORCH_RUN, "interrupted", run_timer.stop_nanos());
        }
        return Outcome {
            status: CampaignStatus::Interrupted,
            warnings: warnings.into_inner().expect("poisoned"),
        };
    }
    let continuations = continuations.into_inner().expect("poisoned");
    let outputs = jobs
        .into_iter()
        .zip(continuations)
        .map(|(job, cont)| {
            let mut out = job.partial;
            if let Some(cont) = cont {
                out.absorb(cont);
            }
            out
        })
        .collect();
    let merge_timer = Timer::start(telemetry);
    let report = merge_outputs(outputs);
    if telemetry.enabled() {
        telemetry.span(names::ORCH_MERGE, "", merge_timer.stop_nanos());
        telemetry.span(names::ORCH_RUN, "complete", run_timer.stop_nanos());
    }
    Outcome {
        status: CampaignStatus::Complete(report),
        warnings: warnings.into_inner().expect("poisoned"),
    }
}
