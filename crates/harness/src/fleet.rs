//! Multi-host campaign partitioning with deterministic journal merge
//! (`DESIGN.md` §14) — the step from "resumable process" to
//! "fleet-sized campaign service".
//!
//! The SPE variant space is exactly countable, which makes it exactly
//! partitionable: a [`FleetPlan`] flattens the (file × shard) job space
//! file-major into `0..jobs` and deals it across `n_hosts` by
//! [`spe_combinatorics::even_ranges`] — pure index arithmetic, nothing
//! materialized. Within a job, the shard boundaries and exact unranking
//! already make any emission-index sub-range independently enumerable,
//! so **no host touches any variant outside its slice**.
//!
//! * [`crate::Campaign::run_journaled`] with a fleet slot
//!   `Some((plan, host_id))` runs one host's slice through the
//!   supervised orchestrator ([`crate::orchestrate`]) into a host-scoped
//!   journal whose manifest pins `(fleet_id, n_hosts, host_id)` next to
//!   the backend identity — every supervision layer (panic quarantine,
//!   checkpoint cadence, journal-fault degradation) applies per host
//!   unchanged. A killed host resumes with [`crate::Campaign::resume`]
//!   (host journals **are** campaign journals), on any worker count,
//!   any number of times.
//! * [`merge_journals`] streams every host journal
//!   ([`spe_persist::JournalIter`]), validates that the manifests
//!   describe one fleet (refusing mixed fleets, duplicate host ids, and
//!   missing hosts with an error naming the gap), and folds the
//!   replayed `Progress` frames (quarantines included) into one
//!   [`CampaignReport`] **byte-identical** to an uninterrupted
//!   single-host run of the same configuration, returned with each
//!   host's provenance ([`MergedFleet`]).
//!
//! **Why the merge is deterministic.** Host `h` owns the contiguous job
//! range `even_ranges(jobs, n_hosts)[h]`; the ranges partition the job
//! space exactly (each job owned by exactly one host), and each owned
//! job's replayed [`ShardOutput`](crate::checkpoint) equals the
//! uninterrupted in-memory output of that job by the §9 resume
//! argument. The merge reassembles the full per-job output vector in
//! job order and folds it through the same `merge_outputs` every other
//! entry point uses — so finding order, dedup decisions and counters
//! cannot depend on host count, per-host worker counts, completion
//! order, or kill/resume history. The distributed-identity suite
//! (`tests/fleet_identity.rs`, `tests/fleet_faults.rs`) pins
//! `merge(fleet(N)) ≡ serial` for N ∈ {1, 2, 3, 8} across worker
//! counts, host-death/resume cycles, and randomized corpora.

use crate::checkpoint::{CheckpointError, FleetStamp, JobState, Manifest, Replay};
use crate::{merge_outputs, CampaignReport};
use spe_combinatorics::even_ranges;
use spe_persist::{JournalError, JournalIter, TailCorruption};
use spe_telemetry::{names, Timer};
use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// How a fleet campaign's (file × shard) job space is dealt across
/// hosts. The plan is pure data: every host (and the merge) derives the
/// same slices from `(n_hosts, shards_per_file)` and the corpus size,
/// so there is no coordinator and nothing to gossip — a host needs only
/// the corpus, the config, the plan, and its own id.
///
/// `shards_per_file` fixes the job decomposition **independently of any
/// host's worker count** (unlike single-host entry points, where the
/// two coincide): hosts with different core counts run the same job
/// space, and the merged report is byte-identical to a single-host run
/// whose `workers == shards_per_file`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetPlan {
    /// Caller-chosen campaign identity, stamped into every host journal;
    /// [`merge_journals`] refuses journals from different fleets.
    pub fleet_id: u64,
    /// Hosts the job space is dealt across.
    pub n_hosts: usize,
    /// Shards each file's variant space is cut into (the job
    /// decomposition `files × shards_per_file`).
    pub shards_per_file: usize,
}

impl FleetPlan {
    /// A plan for `n_hosts` hosts over a `files × shards_per_file` job
    /// space; both counts are clamped to at least 1.
    pub fn new(fleet_id: u64, n_hosts: usize, shards_per_file: usize) -> FleetPlan {
        FleetPlan {
            fleet_id,
            n_hosts: n_hosts.max(1),
            shards_per_file: shards_per_file.max(1),
        }
    }

    /// Total jobs for a corpus of `files` files.
    pub fn job_count(&self, files: usize) -> usize {
        files * self.shards_per_file.max(1)
    }

    /// The contiguous job range host `host_id` owns — the only jobs it
    /// enumerates, journals, or reports.
    ///
    /// # Panics
    ///
    /// Panics when `host_id >= n_hosts`.
    pub fn host_jobs(&self, host_id: usize, files: usize) -> Range<usize> {
        even_ranges(self.job_count(files), self.n_hosts.max(1))[host_id].clone()
    }

    /// The manifest stamp of host `host_id`, refused when the host is
    /// outside the plan.
    pub(crate) fn stamp(&self, host_id: usize) -> Result<FleetStamp, CheckpointError> {
        let n_hosts = self.n_hosts.max(1);
        if host_id >= n_hosts {
            return Err(CheckpointError::Foreign(format!(
                "host {host_id} is out of the plan's {n_hosts} hosts"
            )));
        }
        Ok(FleetStamp {
            fleet_id: self.fleet_id,
            n_hosts: n_hosts as u32,
            host_id: host_id as u32,
        })
    }
}

/// Errors of [`merge_journals`]: everything that makes a set of host
/// journals *not* one complete, consistent fleet. Each variant names
/// the offending journal (and host) so an operator can fetch or repair
/// exactly what is missing.
#[derive(Debug)]
pub enum FleetError {
    /// A journal failed to open, read, or replay (wraps the underlying
    /// [`CheckpointError`], which names the path).
    Checkpoint(CheckpointError),
    /// No paths were given.
    NoJournals,
    /// The journal's manifest has no fleet stamp — it was written by a
    /// single-host run, not a fleet host run.
    NotAFleetJournal {
        /// The offending journal.
        path: PathBuf,
    },
    /// The journal belongs to a different fleet (different `fleet_id`,
    /// host count, configuration, corpus, decomposition, or backend)
    /// than the first journal in the set.
    MixedFleets {
        /// The offending journal.
        path: PathBuf,
        /// What disagreed.
        detail: String,
    },
    /// Two journals claim the same host id.
    DuplicateHost {
        /// The claimed host id.
        host: usize,
        /// The first journal claiming it.
        first: PathBuf,
        /// The second journal claiming it.
        second: PathBuf,
    },
    /// The set covers fewer hosts than the fleet has; the report would
    /// silently miss those hosts' slices.
    MissingHosts {
        /// Host ids with no journal in the set, ascending.
        missing: Vec<usize>,
        /// The fleet's host count.
        n_hosts: usize,
    },
    /// A host's journal records an unfinished job in its slice — the
    /// host was killed and never resumed to completion.
    HostIncomplete {
        /// The unfinished host.
        host: usize,
        /// Its journal.
        path: PathBuf,
        /// The first unfinished job index.
        job: usize,
    },
    /// A host's journal records state for a job outside its slice —
    /// the journal and its fleet stamp disagree.
    ForeignJob {
        /// The offending host.
        host: usize,
        /// Its journal.
        path: PathBuf,
        /// The out-of-slice job index.
        job: usize,
    },
    /// A host's journal has a torn or corrupt tail. A single-host
    /// resume would truncate and recompute the lost frames, but a merge
    /// cannot recompute another host's work — the journal must be
    /// repaired (resume it on its host, or re-run the slice) first.
    TailCorruption {
        /// The offending host.
        host: usize,
        /// Its journal.
        path: PathBuf,
        /// Where and why validation stopped.
        corruption: TailCorruption,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Checkpoint(e) => write!(f, "{e}"),
            FleetError::NoJournals => write!(f, "fleet merge needs at least one host journal"),
            FleetError::NotAFleetJournal { path } => write!(
                f,
                "{} is not a fleet host journal (its manifest carries no fleet stamp); \
                 only journals of fleet host runs (Campaign::run_journaled with a fleet slot) \
                 can be merged",
                path.display()
            ),
            FleetError::MixedFleets { path, detail } => {
                write!(
                    f,
                    "{} belongs to a different fleet: {detail}",
                    path.display()
                )
            }
            FleetError::DuplicateHost {
                host,
                first,
                second,
            } => write!(
                f,
                "host {host} appears twice: {} and {}",
                first.display(),
                second.display()
            ),
            FleetError::MissingHosts { missing, n_hosts } => {
                let gaps: Vec<String> = missing.iter().map(|h| h.to_string()).collect();
                write!(
                    f,
                    "fleet of {n_hosts} hosts is missing the journal{} for host{} {}",
                    if missing.len() == 1 { "" } else { "s" },
                    if missing.len() == 1 { "" } else { "s" },
                    gaps.join(", ")
                )
            }
            FleetError::HostIncomplete { host, path, job } => write!(
                f,
                "host {host} ({}) has not finished job {job} of its slice; \
                 resume it to completion (Campaign::resume) before merging",
                path.display()
            ),
            FleetError::ForeignJob { host, path, job } => write!(
                f,
                "host {host} ({}) records state for job {job}, which is outside its slice",
                path.display()
            ),
            FleetError::TailCorruption {
                host,
                path,
                corruption,
            } => write!(
                f,
                "host {host} journal {} has an invalid tail: {corruption}; \
                 resume that host (which truncates and recomputes the torn frames) before merging",
                path.display()
            ),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<CheckpointError> for FleetError {
    fn from(e: CheckpointError) -> FleetError {
        FleetError::Checkpoint(e)
    }
}

impl From<JournalError> for FleetError {
    fn from(e: JournalError) -> FleetError {
        FleetError::Checkpoint(CheckpointError::Journal(e))
    }
}

/// Per-host provenance of a merged fleet report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostSummary {
    /// The host's id in the plan.
    pub host_id: usize,
    /// The journal the host's slice was replayed from.
    pub path: PathBuf,
    /// The job range the host owned.
    pub jobs: Range<usize>,
    /// Record frames replayed from its journal.
    pub frames: u64,
    /// Variants the host tested.
    pub variants_tested: u64,
    /// Candidate findings the host's journal stores: each job's first
    /// per (compiler family, signature), before the campaign-wide dedup.
    pub candidates: usize,
}

/// A merged fleet campaign: the byte-identical report plus the per-host
/// provenance `spe_report::fleet_provenance_table` renders.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedFleet {
    /// The fleet identity every journal pinned.
    pub fleet_id: u64,
    /// Hosts in the plan (== `hosts.len()`).
    pub n_hosts: usize,
    /// Total jobs in the (file × shard) space.
    pub job_count: usize,
    /// The merged report, byte-identical to an uninterrupted
    /// single-host run with `workers == shards_per_file`.
    pub report: CampaignReport,
    /// Per-host provenance, ascending by host id.
    pub hosts: Vec<HostSummary>,
}

/// Merges one fleet's host journals into the campaign report, with the
/// per-host provenance kept ([`MergedFleet`]). The report
/// ([`MergedFleet::report`]) is **byte-identical** to an uninterrupted
/// single-host run of the same corpus, configuration and
/// `shards_per_file`, including `BackendDegraded`/`JobPanicked`
/// quarantines and all dedup folds (the trigger-aware reduction folds
/// then run over the merged finding set exactly as over a single-host
/// report).
///
/// Order of `paths` does not matter; hosts are folded in host-id order.
///
/// # Errors
///
/// See [`FleetError`]: mixed fleets, duplicate host ids, and missing
/// hosts are refused with errors naming the gap; a torn-tail host
/// journal is triaged as [`FleetError::TailCorruption`] naming the
/// offending host.
pub fn merge_journals<P: AsRef<Path>>(paths: &[P]) -> Result<MergedFleet, FleetError> {
    let telemetry = spe_telemetry::global();
    let timer = Timer::start(&*telemetry);
    let result = merge_inner(paths);
    if telemetry.enabled() {
        match &result {
            Ok(m) => {
                telemetry.counter(names::FLEET_HOSTS_MERGED, m.hosts.len() as u64);
                telemetry.counter(
                    names::FLEET_FRAMES_MERGED,
                    m.hosts.iter().map(|h| h.frames).sum(),
                );
                telemetry.span(
                    names::FLEET_MERGE,
                    &format!(
                        "fleet={:#x} hosts={} jobs={}",
                        m.fleet_id, m.n_hosts, m.job_count
                    ),
                    timer.stop_nanos(),
                );
            }
            Err(_) => telemetry.span(names::FLEET_MERGE, "failed", timer.stop_nanos()),
        }
    }
    result
}

fn merge_inner<P: AsRef<Path>>(paths: &[P]) -> Result<MergedFleet, FleetError> {
    if paths.is_empty() {
        return Err(FleetError::NoJournals);
    }
    // All-or-nothing: the first journal that fails to open aborts the
    // merge, its error naming the path.
    let mut journals = paths
        .iter()
        .map(JournalIter::open)
        .collect::<Result<Vec<_>, _>>()?;
    // Decode every manifest and validate fleet agreement before folding
    // any records: a merge must refuse a bad set, not half-apply it.
    let mut manifests = Vec::with_capacity(journals.len());
    for journal in &journals {
        let manifest = Manifest::decode(journal.header())?;
        let stamp = manifest.fleet.ok_or_else(|| FleetError::NotAFleetJournal {
            path: journal.path().to_path_buf(),
        })?;
        manifests.push((manifest, stamp));
    }
    let stamp0 = manifests[0].1;
    // Everything but `host_id` must agree byte-for-byte: re-encode each
    // manifest with the host id normalized and compare. Deterministic
    // encoding makes this one comparison cover the compilers, budget,
    // algorithm, fuel, backend identity, decomposition, corpus,
    // fleet id, and host count at once.
    let normalized_key = |m: &mut Manifest| {
        m.fleet = m.fleet.map(|s| FleetStamp { host_id: 0, ..s });
        m.encode()
    };
    let key0 = normalized_key(&mut manifests[0].0);
    for (i, (manifest, stamp)) in manifests.iter_mut().enumerate().skip(1) {
        if stamp.fleet_id != stamp0.fleet_id || stamp.n_hosts != stamp0.n_hosts {
            return Err(FleetError::MixedFleets {
                path: journals[i].path().to_path_buf(),
                detail: format!(
                    "it pins fleet {:#018x} with {} hosts; {} pins fleet {:#018x} with {} hosts",
                    stamp.fleet_id,
                    stamp.n_hosts,
                    journals[0].path().display(),
                    stamp0.fleet_id,
                    stamp0.n_hosts
                ),
            });
        }
        if normalized_key(manifest) != key0 {
            return Err(FleetError::MixedFleets {
                path: journals[i].path().to_path_buf(),
                detail: format!(
                    "same fleet id, but its manifest (configuration, corpus, decomposition, \
                     or backend) differs from {}",
                    journals[0].path().display()
                ),
            });
        }
    }
    let n_hosts = stamp0.n_hosts as usize;
    let mut journal_of_host: Vec<Option<usize>> = vec![None; n_hosts];
    for (i, (_, stamp)) in manifests.iter().enumerate() {
        // decode() validated host_id < n_hosts.
        let h = stamp.host_id as usize;
        if let Some(first) = journal_of_host[h] {
            return Err(FleetError::DuplicateHost {
                host: h,
                first: journals[first].path().to_path_buf(),
                second: journals[i].path().to_path_buf(),
            });
        }
        journal_of_host[h] = Some(i);
    }
    let missing: Vec<usize> = (0..n_hosts)
        .filter(|&h| journal_of_host[h].is_none())
        .collect();
    if !missing.is_empty() {
        return Err(FleetError::MissingHosts { missing, n_hosts });
    }
    let job_count = manifests[0].0.job_count();
    let ranges = even_ranges(job_count, n_hosts);
    let mut jobs: Vec<JobState> = (0..job_count).map(|_| JobState::default()).collect();
    let mut hosts = Vec::with_capacity(n_hosts);
    for (h, owned) in ranges.into_iter().enumerate() {
        let i = journal_of_host[h].expect("no host is missing");
        let journal = &mut journals[i];
        let mut replay = Replay::new(journal.header())?;
        for rec in &mut *journal {
            replay.apply(&rec.map_err(CheckpointError::Journal)?)?;
        }
        // A single-host resume truncates a torn tail and recomputes the
        // lost work; a merge cannot recompute another host's slice, so
        // any invalid tail is fatal here — named, not silently dropped.
        if let Some(&corruption) = journal.corruption() {
            return Err(FleetError::TailCorruption {
                host: h,
                path: journal.path().to_path_buf(),
                corruption,
            });
        }
        for (j, job) in replay.jobs.iter().enumerate() {
            if owned.contains(&j) {
                if !job.done {
                    return Err(FleetError::HostIncomplete {
                        host: h,
                        path: journal.path().to_path_buf(),
                        job: j,
                    });
                }
            } else if job.done || !job.is_empty() {
                return Err(FleetError::ForeignJob {
                    host: h,
                    path: journal.path().to_path_buf(),
                    job: j,
                });
            }
        }
        let mut variants_tested = 0u64;
        let mut candidates = 0usize;
        for j in owned.clone() {
            let state = std::mem::take(&mut replay.jobs[j]);
            variants_tested += state.partial.variants_tested;
            candidates += state.partial.candidates.len();
            jobs[j] = state;
        }
        hosts.push(HostSummary {
            host_id: h,
            path: journal.path().to_path_buf(),
            jobs: owned,
            frames: replay.frames,
            variants_tested,
            candidates,
        });
    }
    // Reassembled in job order, folded by the one merge definition every
    // campaign entry point shares — byte-identity follows (§14).
    let report = merge_outputs(jobs.into_iter().map(|j| j.partial).collect());
    Ok(MergedFleet {
        fleet_id: stamp0.fleet_id,
        n_hosts,
        job_count,
        report,
        hosts,
    })
}

/// Marks every job outside the stamped host's slice as done, returning
/// the slice: on a host's first run (the pool then never deals the
/// foreign jobs) and on every resume of its journal, which records
/// frames for its own slice only. Refuses replayed state that
/// contradicts the stamp.
pub(crate) fn mark_foreign_jobs_done(
    jobs: &mut [JobState],
    stamp: FleetStamp,
) -> Result<Range<usize>, CheckpointError> {
    let owned = even_ranges(jobs.len(), stamp.n_hosts as usize)
        .into_iter()
        .nth(stamp.host_id as usize)
        .expect("stamps are validated host_id < n_hosts");
    for (j, job) in jobs.iter_mut().enumerate() {
        if owned.contains(&j) {
            continue;
        }
        if job.done || !job.is_empty() {
            return Err(CheckpointError::Foreign(format!(
                "fleet journal of host {} records state for job {j}, \
                 which is outside its slice {owned:?}",
                stamp.host_id
            )));
        }
        job.done = true;
    }
    Ok(owned)
}
