//! Pass/point coverage accounting for the compiler under test.
//!
//! Stands in for the gcov measurements of the paper's Figure 9: each
//! compiler pass declares a fixed set of *coverage points* (its "lines"),
//! and each pass that runs at all counts as a covered "function". The
//! harness accumulates coverage across many test programs and reports the
//! same two percentages the paper plots.

use std::collections::HashSet;

/// The static universe of passes and their point counts. The exact
/// numbers act as "lines per function"; they only need to be stable.
pub const PASS_POINTS: &[(&str, u32)] = &[
    ("parse", 16),
    ("sema", 18),
    ("fold", 30),
    ("ccp", 16),
    ("dce", 12),
    ("copyprop", 8),
    ("alias", 10),
    ("loop", 16),
    ("lower", 24),
    ("regalloc", 12),
    ("emit", 10),
    // The "GIMPLE canonicalization" pass: one point per distinct
    // (statement kind × operator sequence × variable-usage partition
    // shape) combination. Variable-usage shapes are exactly what SPE
    // enumerates, so this large sparse space models the deep pass paths
    // real compilers key on dependence structure (paper §1, observation
    // 2).
    ("gimple", 4096),
];

/// A set of hit coverage points.
///
/// [`Coverage::new`] records; [`Coverage::off`] records nothing, for
/// the compilations whose coverage no caller reads (every campaign
/// observation). Only `coverage_probe` (Figure 9) and the tests record.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coverage {
    hits: HashSet<(&'static str, u32)>,
    off: bool,
}

impl Coverage {
    /// Creates an empty coverage map that records every hit.
    pub fn new() -> Coverage {
        Coverage::default()
    }

    /// A coverage map that records nothing: [`Coverage::hit`] returns at
    /// once, and the passes skip the work that only computes points.
    pub fn off() -> Coverage {
        Coverage {
            hits: HashSet::new(),
            off: true,
        }
    }

    /// Whether hits are recorded (false for [`Coverage::off`]).
    pub fn is_recording(&self) -> bool {
        !self.off
    }

    /// Records that `point` of `pass` executed. Unknown passes or points
    /// beyond the declared count are ignored (defensive).
    pub fn hit(&mut self, pass: &'static str, point: u32) {
        if self.off {
            return;
        }
        if PASS_POINTS.iter().any(|&(p, n)| p == pass && point < n) {
            self.hits.insert((pass, point));
        }
    }

    /// Merges another run's coverage into this one.
    pub fn merge(&mut self, other: &Coverage) {
        self.hits.extend(other.hits.iter().copied());
    }

    /// Number of distinct points hit.
    pub fn points_hit(&self) -> usize {
        self.hits.len()
    }

    /// Fraction of passes with at least one hit — the paper's "function
    /// coverage".
    ///
    /// ```
    /// let mut c = spe_simcc::coverage::Coverage::new();
    /// c.hit("fold", 0);
    /// assert!(c.function_coverage() > 0.0);
    /// ```
    pub fn function_coverage(&self) -> f64 {
        let covered = PASS_POINTS
            .iter()
            .filter(|&&(p, _)| self.hits.iter().any(|&(hp, _)| hp == p))
            .count();
        covered as f64 / PASS_POINTS.len() as f64
    }

    /// Fraction of all points hit — the paper's "line coverage".
    pub fn line_coverage(&self) -> f64 {
        let total: u32 = PASS_POINTS.iter().map(|&(_, n)| n).sum();
        self.hits.len() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_coverage_is_zero() {
        let c = Coverage::new();
        assert_eq!(c.function_coverage(), 0.0);
        assert_eq!(c.line_coverage(), 0.0);
    }

    #[test]
    fn hits_accumulate_and_dedup() {
        let mut c = Coverage::new();
        c.hit("fold", 0);
        c.hit("fold", 0);
        c.hit("fold", 1);
        assert_eq!(c.points_hit(), 2);
    }

    #[test]
    fn unknown_points_ignored() {
        let mut c = Coverage::new();
        c.hit("nonexistent", 0);
        c.hit("fold", 9999);
        assert_eq!(c.points_hit(), 0);
    }

    #[test]
    fn off_records_nothing() {
        let mut c = Coverage::off();
        c.hit("fold", 0);
        assert!(!c.is_recording());
        assert_eq!(c.points_hit(), 0);
        assert!(Coverage::new().is_recording());
    }

    #[test]
    fn merge_unions() {
        let mut a = Coverage::new();
        a.hit("fold", 0);
        let mut b = Coverage::new();
        b.hit("dce", 1);
        b.hit("fold", 0);
        a.merge(&b);
        assert_eq!(a.points_hit(), 2);
    }

    #[test]
    fn full_function_coverage_needs_every_pass() {
        let mut c = Coverage::new();
        for &(p, _) in PASS_POINTS {
            c.hit(p, 0);
        }
        assert!((c.function_coverage() - 1.0).abs() < 1e-12);
        assert!(c.line_coverage() < 1.0);
    }
}
