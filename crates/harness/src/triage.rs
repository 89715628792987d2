//! Triage: aggregating campaign findings into the paper's Table 4 and
//! Figure 10 shapes, using the seeded-bug registry metadata.

use crate::{CampaignReport, Finding, FindingKind};
use spe_simcc::bugs::{registry, BugSpec, Priority};

/// One family's row of Table 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table4Row {
    /// Compiler family.
    pub family: String,
    /// Unique-signature reports.
    pub reported: usize,
    /// Reports whose underlying defect is fixed in a later version.
    pub fixed: usize,
    /// Reports that duplicate an earlier report's root cause.
    pub duplicate: usize,
    /// Reports rejected as invalid (always 0 here: the UB oracle is
    /// exact, unlike the paper's manual inspection).
    pub invalid: usize,
    /// Reports reopened after an incorrect fix (not modeled; 0).
    pub reopened: usize,
    /// Crash reports.
    pub crash: usize,
    /// Wrong-code reports.
    pub wrong_code: usize,
    /// Performance reports.
    pub performance: usize,
}

/// Builds Table 4 rows for the given families.
pub fn table4(report: &CampaignReport, families: &[&str]) -> Vec<Table4Row> {
    let regs = registry();
    families
        .iter()
        .map(|family| {
            // Quarantined-job markers are infrastructure audit records,
            // not compiler bug reports: Table 4 counts only verdicts.
            let findings: Vec<&Finding> = report
                .for_family(family)
                .filter(|f| {
                    !matches!(
                        f.kind,
                        FindingKind::BackendDegraded | FindingKind::JobPanicked
                    )
                })
                .collect();
            let fixed = findings
                .iter()
                .filter(|f| {
                    f.bug_id
                        .and_then(|id| regs.iter().find(|b| b.id == id))
                        .is_some_and(|b| b.fixed.is_some())
                })
                .count();
            Table4Row {
                family: family.to_string(),
                reported: findings.len(),
                fixed,
                duplicate: findings.iter().filter(|f| f.duplicate_of.is_some()).count(),
                invalid: 0,
                reopened: 0,
                crash: findings
                    .iter()
                    .filter(|f| f.kind == FindingKind::Crash)
                    .count(),
                wrong_code: findings
                    .iter()
                    .filter(|f| f.kind == FindingKind::WrongCode)
                    .count(),
                performance: findings
                    .iter()
                    .filter(|f| f.kind == FindingKind::Performance)
                    .count(),
            }
        })
        .collect()
}

/// Figure 10 data for one family: reported/fixed counts per category.
#[derive(Debug, Clone, Default)]
pub struct Figure10 {
    /// (a) bug priorities P1..P4-5: `(reported, fixed)` per bucket.
    pub priorities: Vec<(String, usize, usize)>,
    /// (b) optimization levels O0..O3.
    pub opt_levels: Vec<(String, usize, usize)>,
    /// (c) affected versions (cumulative buckets like the paper's
    /// Earlier / 5.X / 6.X / Trunk).
    pub versions: Vec<(String, usize, usize)>,
    /// (d) components.
    pub components: Vec<(String, usize, usize)>,
}

/// The distinct root-cause bugs behind a family's findings.
pub fn root_causes<'r>(report: &CampaignReport, family: &str) -> Vec<&'r BugSpec> {
    let regs: &'static Vec<BugSpec> = {
        // registry() allocates; leak one copy for 'static metadata refs.
        use std::sync::OnceLock;
        static REGS: OnceLock<Vec<BugSpec>> = OnceLock::new();
        REGS.get_or_init(registry)
    };
    let mut ids: Vec<&'static str> = report
        .for_family(family)
        .filter(|f| f.duplicate_of.is_none())
        .filter_map(|f| f.bug_id)
        .collect();
    ids.sort();
    ids.dedup();
    ids.iter()
        .filter_map(|id| regs.iter().find(|b| b.id == *id))
        .collect()
}

/// Builds Figure 10 histograms for one family over the given version
/// timeline (e.g. [`spe_simcc::bugs::GCC_VERSIONS`]).
pub fn figure10(report: &CampaignReport, family: &str, versions: &[u32]) -> Figure10 {
    let bugs = root_causes(report, family);
    let fixed = |b: &&BugSpec| b.fixed.is_some();

    let mut priorities = Vec::new();
    for (label, prio) in [
        ("P1", vec![Priority::P1]),
        ("P2", vec![Priority::P2]),
        ("P3", vec![Priority::P3]),
        ("P4-5", vec![Priority::P4, Priority::P5]),
    ] {
        let subset: Vec<&&BugSpec> = bugs.iter().filter(|b| prio.contains(&b.priority)).collect();
        priorities.push((
            label.to_string(),
            subset.len(),
            subset.iter().filter(|b| fixed(b)).count(),
        ));
    }

    let mut opt_levels = Vec::new();
    for level in 0u8..=3 {
        let subset: Vec<&&BugSpec> = bugs.iter().filter(|b| b.min_opt <= level).collect();
        opt_levels.push((
            format!("-O{level}"),
            subset.len(),
            subset.iter().filter(|b| fixed(b)).count(),
        ));
    }

    let mut out_versions = Vec::new();
    for &v in versions {
        let subset: Vec<&&BugSpec> = bugs.iter().filter(|b| b.live_in(v)).collect();
        out_versions.push((
            format!("v{v}"),
            subset.len(),
            subset.iter().filter(|b| fixed(b)).count(),
        ));
    }

    let mut components = Vec::new();
    let mut names: Vec<&'static str> = bugs.iter().map(|b| b.component.name()).collect();
    names.sort();
    names.dedup();
    for name in names {
        let subset: Vec<&&BugSpec> = bugs.iter().filter(|b| b.component.name() == name).collect();
        components.push((
            name.to_string(),
            subset.len(),
            subset.iter().filter(|b| fixed(b)).count(),
        ));
    }

    Figure10 {
        priorities,
        opt_levels,
        versions: out_versions,
        components,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Campaign, CampaignConfig};
    use spe_core::Algorithm;
    use spe_corpus::seeds;
    use spe_simcc::bugs::GCC_VERSIONS;
    use spe_simcc::{Compiler, CompilerId};

    fn campaign() -> CampaignReport {
        Campaign::default().run(
            &seeds::all(),
            &CampaignConfig {
                compilers: vec![
                    Compiler::new(CompilerId::gcc(700), 0),
                    Compiler::new(CompilerId::gcc(700), 3),
                    Compiler::new(CompilerId::clang(390), 3),
                ],
                budget: 200,
                algorithm: Algorithm::Paper,
                check_wrong_code: true,
                fuel: 20_000,
            },
        )
    }

    #[test]
    fn table4_accounts_add_up() {
        let report = campaign();
        let rows = table4(&report, &["gcc-sim", "clang-sim"]);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(
                row.crash + row.wrong_code + row.performance,
                row.reported,
                "classification partitions reports: {row:?}"
            );
            assert!(row.fixed <= row.reported);
            assert!(row.duplicate <= row.reported);
        }
        let gcc = &rows[0];
        assert!(gcc.reported > 0, "the seed programs expose gcc bugs");
    }

    #[test]
    fn table4_ignores_quarantined_backend_jobs() {
        let mut report = campaign();
        let before = table4(&report, &["gcc-sim", "clang-sim"]);
        report.findings.push(Finding {
            kind: FindingKind::BackendDegraded,
            compiler: CompilerId::gcc(700),
            opt: 0,
            signature: "backend degraded: x.c shard 0: cannot launch cc".to_string(),
            bug_id: None,
            file: "x.c".to_string(),
            reproducer: "int main() { return 0; }".to_string(),
            duplicate_of: None,
            reduced: None,
            fingerprint_duplicate_of: None,
        });
        assert_eq!(
            table4(&report, &["gcc-sim", "clang-sim"]),
            before,
            "quarantine markers are not bug reports"
        );
    }

    #[test]
    fn table4_ignores_panicked_jobs() {
        let mut report = campaign();
        let before = table4(&report, &["gcc-sim", "clang-sim"]);
        report.findings.push(Finding {
            kind: FindingKind::JobPanicked,
            compiler: CompilerId::gcc(700),
            opt: 0,
            signature: "job panicked: x.c shard 2: index out of bounds".to_string(),
            bug_id: None,
            file: "x.c".to_string(),
            reproducer: "int main() { return 0; }".to_string(),
            duplicate_of: None,
            reduced: None,
            fingerprint_duplicate_of: None,
        });
        assert_eq!(
            table4(&report, &["gcc-sim", "clang-sim"]),
            before,
            "panic quarantine markers are not bug reports"
        );
    }

    #[test]
    fn figure10_counts_are_consistent() {
        let report = campaign();
        let fig = figure10(&report, "gcc-sim", GCC_VERSIONS);
        let total_bugs = root_causes(&report, "gcc-sim").len();
        // -O3 is affected by every bug with min_opt <= 3 (all of them).
        assert_eq!(fig.opt_levels.last().expect("O3 present").1, total_bugs);
        // Priorities partition the bug set.
        let prio_total: usize = fig.priorities.iter().map(|(_, r, _)| r).sum();
        assert_eq!(prio_total, total_bugs);
        // Components partition the bug set.
        let comp_total: usize = fig.components.iter().map(|(_, r, _)| r).sum();
        assert_eq!(comp_total, total_bugs);
        // More bugs affect trunk than the oldest version (long latency
        // plus newly introduced ones).
        let first = fig.versions.first().expect("versions");
        let last = fig.versions.last().expect("versions");
        assert!(last.1 >= first.1);
    }
}
