//! Rendering of the paper's tables, histograms and ASCII figures.
//!
//! The experiment binaries produce [`Table`]s (Tables 1–4) and
//! [`Histogram`]s (Figures 8–10) and render them as aligned ASCII / or
//! Markdown for `EXPERIMENTS.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use spe_bignum::BigUint;

/// A simple aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (each row should have `headers.len()` cells).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: &[String]) -> &mut Table {
        self.rows.push(cells.to_vec());
        self
    }

    /// Renders with aligned columns.
    ///
    /// ```
    /// let mut t = spe_report::Table::new("demo", &["k", "v"]);
    /// t.row(&["a".into(), "1".into()]);
    /// let s = t.render();
    /// assert!(s.contains("demo"));
    /// assert!(s.contains("a"));
    /// ```
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", c, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Appends another table's rows — the merge step for **partial
    /// reports** of one logically continuous run, such as the pre-kill
    /// and post-resume phases of a checkpointed campaign
    /// (`spe_harness::checkpoint`, `DESIGN.md` §9) rendered as one
    /// table. Headers must match; the title of `self` wins.
    ///
    /// ```
    /// let mut t = spe_report::Table::new("Phases", &["phase", "variants"]);
    /// t.row(&["until kill".into(), "512".into()]);
    /// let mut rest = spe_report::Table::new("Phases", &["phase", "variants"]);
    /// rest.row(&["resumed".into(), "488".into()]);
    /// t.extend(&rest);
    /// assert!(t.render().contains("resumed"));
    /// assert_eq!(t.rows.len(), 2);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics when the two tables' headers differ.
    pub fn extend(&mut self, other: &Table) -> &mut Table {
        assert_eq!(
            self.headers, other.headers,
            "partial reports must share headers"
        );
        self.rows.extend(other.rows.iter().cloned());
        self
    }

    /// Renders as a Markdown table (for `EXPERIMENTS.md`).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("**{}**\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

/// A labeled histogram with one or more series (the paper's bar figures).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    /// Figure caption.
    pub title: String,
    /// Bucket labels (x axis).
    pub labels: Vec<String>,
    /// Series: `(name, values)`, parallel to `labels`.
    pub series: Vec<(String, Vec<f64>)>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new(title: impl Into<String>, labels: Vec<String>) -> Histogram {
        Histogram {
            title: title.into(),
            labels,
            series: Vec::new(),
        }
    }

    /// Adds a series (panics if its length differs from the labels).
    ///
    /// # Panics
    ///
    /// Panics when `values.len() != labels.len()`.
    pub fn series(&mut self, name: impl Into<String>, values: Vec<f64>) -> &mut Histogram {
        assert_eq!(values.len(), self.labels.len(), "series length mismatch");
        self.series.push((name.into(), values));
        self
    }

    /// Renders horizontal ASCII bars, one block per label with all
    /// series.
    ///
    /// ```
    /// let mut h = spe_report::Histogram::new("demo", vec!["x".into()]);
    /// h.series("s", vec![1.0]);
    /// assert!(h.render(20).contains('#'));
    /// ```
    pub fn render(&self, bar_width: usize) -> String {
        let max = self
            .series
            .iter()
            .flat_map(|(_, v)| v.iter())
            .fold(0.0f64, |a, &b| a.max(b))
            .max(1e-12);
        let name_w = self.series.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let label_w = self.labels.iter().map(|l| l.len()).max().unwrap_or(0);
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        for (i, label) in self.labels.iter().enumerate() {
            for (si, (name, values)) in self.series.iter().enumerate() {
                let v = values[i];
                let filled = ((v / max) * bar_width as f64).round() as usize;
                let shown = if si == 0 {
                    format!("{:<width$}", label, width = label_w)
                } else {
                    " ".repeat(label_w)
                };
                out.push_str(&format!(
                    "{shown} {:<nw$} |{}{}| {v:.4}\n",
                    name,
                    "#".repeat(filled),
                    " ".repeat(bar_width.saturating_sub(filled)),
                    nw = name_w,
                ));
            }
        }
        out
    }
}

/// One compiler family's corrected report counts after the reduce/dedup
/// stage: raw unique-signature reports, how many of them each dedup pass
/// folded away, and the resulting root-cause estimate. The "corrected"
/// column is the Table-3-style number the paper reaches by manually
/// folding reports into root causes; the fingerprint pass derives it from
/// reduced witnesses alone.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrectedCounts {
    /// Compiler family (e.g. `"gcc-sim"`).
    pub family: String,
    /// Unique-signature reports filed.
    pub reports: usize,
    /// Reports the ground-truth (registry bug-id) pass marked duplicate.
    pub bug_id_duplicates: usize,
    /// Reports the witness-fingerprint pass folded into an earlier root
    /// cause.
    pub fingerprint_duplicates: usize,
    /// Distinct root causes after fingerprint dedup.
    pub corrected: usize,
    /// Mean raw-reproducer / reduced-witness size ratio.
    pub mean_shrink: f64,
}

/// Renders the reduce/dedup stage's corrected counts as a table.
///
/// ```
/// let rows = vec![spe_report::CorrectedCounts {
///     family: "gcc-sim".into(),
///     reports: 12,
///     bug_id_duplicates: 4,
///     fingerprint_duplicates: 4,
///     corrected: 8,
///     mean_shrink: 3.7,
/// }];
/// let t = spe_report::corrected_counts_table("Corrected counts", &rows);
/// assert!(t.render().contains("gcc-sim"));
/// assert!(t.render().contains("3.7x"));
/// ```
pub fn corrected_counts_table(title: impl Into<String>, rows: &[CorrectedCounts]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "Compiler",
            "Reports",
            "Dup (bug id)",
            "Dup (fingerprint)",
            "Corrected",
            "Mean shrink",
        ],
    );
    for r in rows {
        t.row(&[
            r.family.clone(),
            r.reports.to_string(),
            r.bug_id_duplicates.to_string(),
            r.fingerprint_duplicates.to_string(),
            r.corrected.to_string(),
            format!("{:.1}x", r.mean_shrink),
        ]);
    }
    t
}

/// One host's contribution to a merged multi-host fleet campaign
/// (`spe_harness::fleet`, `DESIGN.md` §14): which contiguous job range
/// of the `files × shards_per_file` space it owned, how many journal
/// frames its replay streamed, and what its slice produced. The crate
/// stays harness-independent, so the harness's `HostSummary` is mapped
/// into this row at the call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetHostRow {
    /// Host id within the fleet plan.
    pub host_id: usize,
    /// The host journal the slice was replayed from (usually just the
    /// file name).
    pub journal: String,
    /// First job of the host's slice (inclusive).
    pub jobs_start: usize,
    /// One past the last job of the host's slice.
    pub jobs_end: usize,
    /// Record frames replayed from the host's journal.
    pub frames: u64,
    /// Variants the host's slice tested.
    pub variants_tested: u64,
    /// Candidate findings the host's journal stores: each job's first
    /// per (compiler family, signature), before the campaign-wide dedup.
    pub candidates: usize,
}

/// Renders merged-fleet provenance — one row per host, plus a totals
/// row — so a campaign report can always answer "which host produced
/// what, from which journal".
///
/// ```
/// let rows = vec![spe_report::FleetHostRow {
///     host_id: 0,
///     journal: "host-0.journal".into(),
///     jobs_start: 0,
///     jobs_end: 12,
///     frames: 40,
///     variants_tested: 768,
///     candidates: 3,
/// }];
/// let t = spe_report::fleet_provenance_table("Fleet 0xbeef (1 host)", &rows);
/// let s = t.render();
/// assert!(s.contains("host-0.journal"));
/// assert!(s.contains("[0, 12)"));
/// assert!(s.contains("total"));
/// ```
pub fn fleet_provenance_table(title: impl Into<String>, rows: &[FleetHostRow]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "Host",
            "Journal",
            "Jobs",
            "Frames",
            "Variants",
            "Candidates",
        ],
    );
    for r in rows {
        t.row(&[
            r.host_id.to_string(),
            r.journal.clone(),
            format!("[{}, {})", r.jobs_start, r.jobs_end),
            r.frames.to_string(),
            r.variants_tested.to_string(),
            r.candidates.to_string(),
        ]);
    }
    let jobs: usize = rows.iter().map(|r| r.jobs_end - r.jobs_start).sum();
    t.row(&[
        "total".to_string(),
        format!("{} journals", rows.len()),
        format!("{jobs} jobs"),
        rows.iter().map(|r| r.frames).sum::<u64>().to_string(),
        rows.iter()
            .map(|r| r.variants_tested)
            .sum::<u64>()
            .to_string(),
        rows.iter().map(|r| r.candidates).sum::<usize>().to_string(),
    ]);
    t
}

/// The per-file variant-count buckets of Figure 8:
/// `[1,10), [10,10^2), …, [10^9,10^10), >= 10^10`.
pub fn figure8_buckets() -> Vec<String> {
    let mut labels: Vec<String> = (0..10).map(|e| format!("[1e{e},1e{})", e + 1)).collect();
    labels.push(">=1e10".to_string());
    labels
}

/// Bucket index of a variant count under [`figure8_buckets`].
///
/// ```
/// use spe_bignum::BigUint;
/// assert_eq!(spe_report::figure8_bucket_of(&BigUint::from(5u64)), 0);
/// assert_eq!(spe_report::figure8_bucket_of(&BigUint::from(1000u64)), 3);
/// assert_eq!(spe_report::figure8_bucket_of(&BigUint::from(10u64).pow(30)), 10);
/// ```
pub fn figure8_bucket_of(count: &BigUint) -> usize {
    let digits = count.to_string().len();
    // 1..=9 -> bucket 0, 10..=99 -> 1, etc.
    (digits - 1).min(10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Sizes", &["Approach", "Total"]);
        t.row(&["Naive".into(), "5.24e163".into()]);
        t.row(&["Our".into(), "1.48e79".into()]);
        let s = t.render();
        assert!(s.contains("Approach"));
        assert!(s.contains("5.24e163"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        let md = t.render_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn histogram_renders_all_series() {
        let mut h = Histogram::new("Fig", vec!["[1,10)".into(), "[10,100)".into()]);
        h.series("Naive", vec![0.29, 0.4]);
        h.series("Our", vec![0.46, 0.3]);
        let s = h.render(30);
        assert!(s.contains("Naive"));
        assert!(s.contains("Our"));
        assert_eq!(s.matches('|').count(), 8);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn histogram_rejects_ragged_series() {
        let mut h = Histogram::new("Fig", vec!["a".into()]);
        h.series("s", vec![1.0, 2.0]);
    }

    #[test]
    fn corrected_counts_render() {
        let rows = vec![
            CorrectedCounts {
                family: "gcc-sim".into(),
                reports: 10,
                bug_id_duplicates: 3,
                fingerprint_duplicates: 3,
                corrected: 7,
                mean_shrink: 4.25,
            },
            CorrectedCounts {
                family: "clang-sim".into(),
                reports: 5,
                bug_id_duplicates: 0,
                fingerprint_duplicates: 1,
                corrected: 4,
                mean_shrink: 2.0,
            },
        ];
        let s = corrected_counts_table("Corrected", &rows).render();
        assert!(s.contains("Dup (fingerprint)"));
        assert!(s.contains("4.2x"));
        assert!(s.contains("clang-sim"));
    }

    #[test]
    fn fleet_provenance_totals_row() {
        let rows = vec![
            FleetHostRow {
                host_id: 0,
                journal: "host-0.journal".into(),
                jobs_start: 0,
                jobs_end: 7,
                frames: 21,
                variants_tested: 448,
                candidates: 2,
            },
            FleetHostRow {
                host_id: 1,
                journal: "host-1.journal".into(),
                jobs_start: 7,
                jobs_end: 14,
                frames: 22,
                variants_tested: 448,
                candidates: 1,
            },
        ];
        let s = fleet_provenance_table("Fleet", &rows).render();
        assert!(s.contains("[7, 14)"));
        assert!(s.contains("2 journals"));
        assert!(s.contains("14 jobs"));
        assert!(s.contains("43"));
        assert!(s.contains("896"));
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(figure8_bucket_of(&BigUint::from(1u64)), 0);
        assert_eq!(figure8_bucket_of(&BigUint::from(9u64)), 0);
        assert_eq!(figure8_bucket_of(&BigUint::from(10u64)), 1);
        assert_eq!(figure8_bucket_of(&BigUint::from(99_999u64)), 4);
        assert_eq!(figure8_bucket_of(&BigUint::from(10u64).pow(10)), 10);
        assert_eq!(figure8_buckets().len(), 11);
    }
}
