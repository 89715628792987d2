//! Environment-driven setup for binaries: one call installs a global
//! [`Recorder`] plus whatever the environment opts into.
//!
//! | variable | effect |
//! |---|---|
//! | `SPE_TRACE=<path>` | fan out a [`crate::JsonlSink`] writing the trace there |
//! | `SPE_METRICS=<path>` | on drop, write a Prometheus-text snapshot there |
//! | `SPE_PROGRESS=1` | live single-line campaign progress on stderr |
//! | `SPE_TELEMETRY=summary` | on drop, print the [`TelemetryReport`] to stderr |
//!
//! The returned [`Telemetry`] guard restores the previously installed
//! sink when dropped, flushing the trace and writing the snapshot
//! first.

use std::io::{IsTerminal, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::recorder::Recorder;
use crate::report::TelemetryReport;
use crate::{names, JsonlSink, Sink};

/// Scoped telemetry installation for a binary; see the
/// [module docs](self).
pub struct Telemetry {
    recorder: Arc<Recorder>,
    trace: Option<Arc<JsonlSink>>,
    metrics_path: Option<PathBuf>,
    summary: bool,
    progress: Option<Progress>,
    prev: Option<Arc<dyn Sink>>,
}

struct Progress {
    stop: Arc<AtomicBool>,
    join: JoinHandle<()>,
}

fn progress_line(recorder: &Recorder) -> String {
    let snap = recorder.snapshot();
    let count = |n: &str| snap.counters.get(n).copied().unwrap_or(0);
    let mut line = String::from("spe:");
    let jobs = snap
        .gauges
        .get(names::ORCH_JOBS)
        .map(|g| g.max)
        .unwrap_or(0);
    line.push_str(&format!(
        " jobs {}/{}",
        count(names::ORCH_JOBS_DONE),
        jobs.max(0)
    ));
    line.push_str(&format!(" | variants {}", count(names::VARIANTS)));
    line.push_str(&format!(" | candidates {}", count(names::CANDIDATES)));
    if let Some(depth) = snap.gauges.get(names::ORCH_QUEUE_DEPTH) {
        line.push_str(&format!(" | queue {}", depth.last.max(0)));
    }
    // Merge the per-verdict oracle histograms for a single p50.
    let oracle: Vec<_> = snap
        .histograms
        .iter()
        .filter(|(n, _)| n.starts_with(names::ORACLE_NS_PREFIX))
        .map(|(_, h)| h)
        .collect();
    let total: u64 = oracle.iter().map(|h| h.count).sum();
    if total > 0 {
        let sum: u64 = oracle.iter().map(|h| h.sum).sum();
        line.push_str(&format!(
            " | oracle mean {:.1}µs",
            sum as f64 / total as f64 / 1e3
        ));
    }
    line
}

fn spawn_progress(recorder: Arc<Recorder>, interval: Duration) -> Progress {
    let stop = Arc::new(AtomicBool::new(false));
    let flag = stop.clone();
    let join = std::thread::spawn(move || {
        let mut widest = 0usize;
        while !flag.load(Relaxed) {
            let line = progress_line(&recorder);
            widest = widest.max(line.len());
            // Pad to the widest line yet so a shrinking line leaves
            // no stale tail characters.
            eprint!("\r{line:<widest$}");
            std::io::stderr().flush().ok();
            std::thread::sleep(interval);
        }
        if widest > 0 {
            eprint!("\r{:<widest$}\r", "");
            std::io::stderr().flush().ok();
        }
    });
    Progress { stop, join }
}

impl Telemetry {
    /// Installs a global [`Recorder`] (always) plus the sinks and
    /// outputs the environment opts into. Never fails: an unwritable
    /// trace path is reported on stderr and skipped.
    pub fn install_from_env() -> Telemetry {
        let recorder = Arc::new(Recorder::new());
        let mut extra: Vec<Arc<dyn Sink>> = Vec::new();
        let trace = std::env::var_os("SPE_TRACE").and_then(|p| match JsonlSink::create(&p) {
            Ok(sink) => Some(Arc::new(sink)),
            Err(e) => {
                eprintln!(
                    "spe-telemetry: cannot open trace {}: {e}",
                    PathBuf::from(p).display()
                );
                None
            }
        });
        if let Some(t) = &trace {
            extra.push(t.clone());
        }
        let prev = crate::install_recorder(recorder.clone(), extra);
        let progress = std::env::var("SPE_PROGRESS")
            .map(|v| v == "1" && std::io::stderr().is_terminal() || v == "force")
            .unwrap_or(false)
            .then(|| spawn_progress(recorder.clone(), Duration::from_millis(200)));
        Telemetry {
            recorder,
            trace,
            metrics_path: std::env::var_os("SPE_METRICS").map(PathBuf::from),
            summary: std::env::var("SPE_TELEMETRY").is_ok_and(|v| v == "summary"),
            progress,
            prev: Some(prev),
        }
    }

    /// The recorder this guard installed.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// The end-of-run summary so far.
    pub fn report(&self) -> TelemetryReport {
        TelemetryReport::from_recorder(&self.recorder)
    }

    /// Wall-clock milliseconds accumulated under the phase span
    /// `phase.<name>` (see [`names::PHASE_PREFIX`]), if any was
    /// recorded.
    pub fn phase_ms(&self, name: &str) -> Option<f64> {
        let key = format!("{}{name}", names::PHASE_PREFIX);
        let snap = self.recorder.snapshot();
        snap.histograms.get(&key).map(|h| h.sum as f64 / 1e6)
    }

    /// All recorded phases as `(name, total milliseconds)`, in
    /// name order.
    pub fn phases(&self) -> Vec<(String, f64)> {
        self.recorder
            .snapshot()
            .histograms
            .iter()
            .filter_map(|(n, h)| {
                n.strip_prefix(names::PHASE_PREFIX)
                    .map(|p| (p.to_owned(), h.sum as f64 / 1e6))
            })
            .collect()
    }
}

impl Drop for Telemetry {
    fn drop(&mut self) {
        if let Some(p) = self.progress.take() {
            p.stop.store(true, Relaxed);
            p.join.join().ok();
        }
        if let Some(t) = &self.trace {
            t.flush();
        }
        if let Some(path) = &self.metrics_path {
            let text = self.recorder.snapshot().to_prometheus("spe");
            if let Err(e) = std::fs::write(path, text) {
                eprintln!(
                    "spe-telemetry: cannot write metrics {}: {e}",
                    path.display()
                );
            }
        }
        if self.summary {
            eprint!("{}", self.report());
        }
        if let Some(prev) = self.prev.take() {
            crate::uninstall_recorder(prev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_spans_are_readable_back_in_milliseconds() {
        let recorder = Arc::new(Recorder::new());
        recorder.span("phase.run", "", 2_000_000);
        recorder.span("phase.run", "", 3_000_000);
        recorder.span("phase.merge", "", 500_000);
        let t = Telemetry {
            recorder,
            trace: None,
            metrics_path: None,
            summary: false,
            progress: None,
            prev: None,
        };
        assert_eq!(t.phase_ms("run"), Some(5.0));
        assert_eq!(t.phase_ms("absent"), None);
        assert_eq!(
            t.phases(),
            vec![("merge".to_owned(), 0.5), ("run".to_owned(), 5.0)]
        );
    }

    #[test]
    fn progress_line_renders_from_counters() {
        let r = Recorder::new();
        r.counter(names::VARIANTS, 42);
        r.gauge(names::ORCH_JOBS, 8);
        r.counter(names::ORCH_JOBS_DONE, 3);
        r.histogram(format!("{}clean", names::ORACLE_NS_PREFIX).as_str(), 1500);
        let line = progress_line(&r);
        assert!(line.contains("jobs 3/8"), "{line}");
        assert!(line.contains("variants 42"), "{line}");
        assert!(line.contains("oracle mean"), "{line}");
    }
}
