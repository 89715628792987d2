//! Correctness checks: report digests pinned at the default seed, the
//! program/observation count identities, and the job failure tally.

use crate::{Size, Workload};
use spe_harness::{CampaignReport, FindingKind};

/// The seed whose report digests are pinned below.
pub const DEFAULT_SEED: u64 = 1;

/// FNV-1a digests of each workload's whole-corpus report at
/// [`DEFAULT_SEED`]. A change to the library that
/// alters any finding, signature, reproducer or counter changes these.
const PINNED: &[(&str, Size, u64)] = &[
    ("breadth", Size::Full, 0x8258_8ed3_1993_a269),
    ("depth", Size::Full, 0xb481_9bf9_cffc_0cc2),
    ("wrong-code", Size::Full, 0x8fb0_6fce_26d9_13c0),
    ("breadth", Size::Tiny, 0x320c_a03e_157f_d918),
    ("depth", Size::Tiny, 0x16d8_6415_f15a_c4ad),
    ("wrong-code", Size::Tiny, 0x1db7_d0c4_b4b4_0155),
];

/// Accumulates failed checks; the run is correct when none failed.
#[derive(Default)]
pub struct Checks {
    failed: Vec<String>,
}

impl Checks {
    /// Records a failure described by `what` unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed.push(what());
        }
    }

    /// Number of failed checks so far.
    pub fn problems(&self) -> usize {
        self.failed.len()
    }

    /// Prints every failed check to standard error.
    pub fn report(&self) {
        for f in &self.failed {
            eprintln!("campaign-bench: check failed: {f}");
        }
    }
}

/// Operations attempted and failed. One operation is one (file, shard)
/// job of a campaign.
#[derive(Default)]
pub struct JobTally {
    pub attempted: u64,
    pub failed: u64,
}

impl JobTally {
    /// Counts one campaign of `jobs` jobs. Jobs quarantined in `report`
    /// fail; when the report failed its check (`ok` false), all do.
    pub fn count(&mut self, report: &CampaignReport, jobs: usize, ok: bool) {
        let jobs = jobs as u64;
        self.attempted += jobs;
        self.failed += if ok {
            (quarantined(report) as u64).min(jobs)
        } else {
            jobs
        };
    }

    /// Marks every attempted job failed (a run-wide check failed).
    pub fn fail_all(&mut self) {
        self.failed = self.attempted;
    }

    /// Jobs that did not fail ÷ jobs attempted.
    pub fn success_ratio(&self) -> f64 {
        1.0 - crate::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Findings that record a quarantined job rather than a compiler bug.
fn quarantined(report: &CampaignReport) -> usize {
    report
        .findings
        .iter()
        .filter(|f| {
            matches!(
                f.kind,
                FindingKind::JobPanicked | FindingKind::BackendDegraded
            )
        })
        .count()
}

/// Checks a serial reference report against the independent count of
/// its corpus's `programs`: every program is observed once per
/// configuration, and no job was quarantined. Returns whether it passed.
pub fn check_reference(
    checks: &mut Checks,
    w: &Workload,
    programs: u64,
    reference: &CampaignReport,
) -> bool {
    let before = checks.problems();
    let configs = w.config.compilers.len() as u64;
    checks.expect(reference.variants_tested == programs * configs, || {
        format!(
            "{} observations, expected {programs} programs × {configs} configurations",
            reference.variants_tested
        )
    });
    checks.expect(quarantined(reference) == 0, || {
        "the reference campaign quarantined jobs".into()
    });
    checks.problems() == before
}

/// Checks the digest of `report` against the pinned one when running at
/// the default seed.
pub fn check_pinned(checks: &mut Checks, w: &Workload, seed: u64, report: &CampaignReport) {
    let got = digest(report);
    eprintln!(
        "campaign-bench: {} report digest at seed {seed}: {got:#018x}",
        w.name
    );
    if seed != DEFAULT_SEED {
        return;
    }
    match PINNED.iter().find(|(n, s, _)| *n == w.name && *s == w.size) {
        Some(&(_, _, want)) => checks.expect(got == want, || {
            format!("report digest {got:#018x}, pinned {want:#018x}")
        }),
        None => checks.expect(false, || {
            format!("no digest pinned for {} {:?}", w.name, w.size)
        }),
    }
}

/// FNV-1a over the report's counters and every finding's fields.
pub fn digest(report: &CampaignReport) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.field(&report.files_processed.to_string());
    h.field(&report.variants_tested.to_string());
    h.field(&report.variants_ub_skipped.to_string());
    for f in &report.findings {
        h.field(f.kind.label());
        h.field(f.compiler.family);
        h.field(&f.compiler.version.to_string());
        h.field(&f.opt.to_string());
        h.field(&f.signature);
        h.field(f.bug_id.unwrap_or("-"));
        h.field(&f.file);
        h.field(&f.reproducer);
        h.field(f.duplicate_of.as_deref().unwrap_or("-"));
        h.field(f.fingerprint_duplicate_of.as_deref().unwrap_or("-"));
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    /// Hashes `s` followed by a separator byte no field contains.
    fn field(&mut self, s: &str) {
        for &b in s.as_bytes().iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}
