//! Campaign-wide tracing, metrics, and profiling sinks.
//!
//! This crate is the observability seam of the SPE workspace: a single
//! [`Sink`] trait with five write-only primitives (spans, events,
//! counters, gauges, histograms), three implementations —
//!
//! * [`NullSink`] — the default; every call is an empty inlineable
//!   virtual method and [`Sink::enabled`] is `false`, so instrumented
//!   code skips even its `Instant::now` reads,
//! * [`Recorder`] — an in-memory aggregator with a lock-striped
//!   metric registry and stripe-padded atomic counters, snapshotable
//!   at any time into a [`recorder::Snapshot`], a deterministic
//!   [`report::TelemetryReport`], or Prometheus text,
//! * [`JsonlSink`] — a buffered JSONL trace writer (one record per
//!   call) for offline analysis,
//!
//! — plus [`Fanout`] to combine them. Instrumented crates read the
//! process-global sink via [`global`] (the `log`-crate idiom: the
//! handle is installed once by the binary, library code never threads
//! it through signatures), so **every** campaign entry point is
//! instrumented and a process that never calls [`install`] pays only
//! a relaxed atomic load plus a no-op virtual call per record.
//!
//! Sinks are strictly write-only: nothing recorded here can feed back
//! into campaign control flow, which is what keeps instrumented
//! campaign reports byte-identical to uninstrumented ones (pinned by
//! `tests/telemetry_identity.rs` at 1/2/4/16 workers across a
//! kill/resume cycle).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

pub mod jsonl;
pub mod names;
pub mod recorder;
pub mod report;
pub mod setup;

pub use jsonl::JsonlSink;
pub use recorder::Recorder;
pub use report::TelemetryReport;
pub use setup::Telemetry;

/// A write-only telemetry sink.
///
/// All methods have empty default bodies so an implementation only
/// overrides what it aggregates; [`NullSink`] overrides nothing but
/// [`Sink::enabled`]. Implementations must be thread-safe — campaign
/// workers record concurrently — and must never panic: telemetry is
/// advisory and a sink failure must not take a campaign down.
pub trait Sink: Send + Sync {
    /// Whether this sink records anything at all.
    ///
    /// Hot paths gate *measurement* (clock reads, queue-depth scans,
    /// label formatting) on this, not just recording, so a disabled
    /// sink costs one virtual call per site.
    fn enabled(&self) -> bool {
        true
    }

    /// Records a point-in-time occurrence (a kill, a degradation).
    fn event(&self, name: &str, detail: &str) {
        let _ = (name, detail);
    }

    /// Records a completed span of `nanos` wall-clock nanoseconds.
    ///
    /// Aggregating sinks fold spans into a histogram keyed by `name`;
    /// trace sinks additionally keep `detail` (e.g. `file=3 shard=1`).
    fn span(&self, name: &str, detail: &str, nanos: u64) {
        let _ = (name, detail, nanos);
    }

    /// Adds `delta` to the monotonic counter `name`.
    fn counter(&self, name: &str, delta: u64) {
        let _ = (name, delta);
    }

    /// Sets the gauge `name` to `value` (last-write-wins; aggregating
    /// sinks also track the maximum ever set).
    fn gauge(&self, name: &str, value: i64) {
        let _ = (name, value);
    }

    /// Records one observation of `value` into the histogram `name`.
    fn histogram(&self, name: &str, value: u64) {
        let _ = (name, value);
    }
}

/// The no-op sink: [`Sink::enabled`] is `false` and every record is a
/// default empty method.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn enabled(&self) -> bool {
        false
    }
}

/// Broadcasts every record to each inner sink.
///
/// [`Sink::enabled`] is true iff any inner sink is enabled, so a
/// fanout of disabled sinks still short-circuits hot-path measurement.
pub struct Fanout(pub Vec<Arc<dyn Sink>>);

impl Sink for Fanout {
    fn enabled(&self) -> bool {
        self.0.iter().any(|s| s.enabled())
    }

    fn event(&self, name: &str, detail: &str) {
        for s in &self.0 {
            s.event(name, detail);
        }
    }

    fn span(&self, name: &str, detail: &str, nanos: u64) {
        for s in &self.0 {
            s.span(name, detail, nanos);
        }
    }

    fn counter(&self, name: &str, delta: u64) {
        for s in &self.0 {
            s.counter(name, delta);
        }
    }

    fn gauge(&self, name: &str, value: i64) {
        for s in &self.0 {
            s.gauge(name, value);
        }
    }

    fn histogram(&self, name: &str, value: u64) {
        for s in &self.0 {
            s.histogram(name, value);
        }
    }
}

/// A clock read gated on [`Sink::enabled`]: against a disabled sink
/// the timer never touches the monotonic clock and
/// [`Timer::stop_nanos`] reports zero.
#[derive(Debug)]
pub struct Timer(Option<Instant>);

impl Timer {
    /// Starts timing iff `sink` is enabled.
    pub fn start(sink: &dyn Sink) -> Timer {
        Timer(sink.enabled().then(Instant::now))
    }

    /// Starts timing unconditionally (for cold paths whose duration
    /// the caller also wants, e.g. per-phase wall clock in the demo
    /// binaries).
    pub fn always() -> Timer {
        Timer(Some(Instant::now()))
    }

    /// Elapsed nanoseconds since [`Timer::start`], saturated to
    /// `u64::MAX`; zero for a timer started against a disabled sink.
    pub fn stop_nanos(&self) -> u64 {
        self.0
            .map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0)
    }
}

fn global_cell() -> &'static RwLock<Arc<dyn Sink>> {
    static CELL: OnceLock<RwLock<Arc<dyn Sink>>> = OnceLock::new();
    CELL.get_or_init(|| RwLock::new(Arc::new(NullSink)))
}

/// Replaces the process-global sink, returning the previous one.
///
/// Instrumented code captures [`global`] once per scope, so a swap
/// takes effect for scopes entered after it returns.
pub fn install(sink: Arc<dyn Sink>) -> Arc<dyn Sink> {
    std::mem::replace(
        &mut *global_cell().write().unwrap_or_else(|e| e.into_inner()),
        sink,
    )
}

/// The process-global sink — [`NullSink`] until [`install`] is called.
pub fn global() -> Arc<dyn Sink> {
    global_cell()
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

/// Installs `recorder` as the process-global sink, optionally fanned
/// out with `extra` sinks. Returns the previously installed sink.
pub fn install_recorder(recorder: Arc<Recorder>, extra: Vec<Arc<dyn Sink>>) -> Arc<dyn Sink> {
    if extra.is_empty() {
        install(recorder)
    } else {
        let mut sinks: Vec<Arc<dyn Sink>> = vec![recorder];
        sinks.extend(extra);
        install(Arc::new(Fanout(sinks)))
    }
}

/// Restores `prev` as the global sink after [`install_recorder`] (used
/// by [`Telemetry`] on drop so scoped instrumentation composes with
/// tests).
pub fn uninstall_recorder(prev: Arc<dyn Sink>) {
    install(prev);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_timer_skips_the_clock() {
        let null = NullSink;
        assert!(!null.enabled());
        let t = Timer::start(&null);
        assert_eq!(t.stop_nanos(), 0);
        assert!(Timer::always().stop_nanos() < u64::MAX);
    }

    #[test]
    fn fanout_enabled_iff_any_member_enabled() {
        let all_null = Fanout(vec![Arc::new(NullSink), Arc::new(NullSink)]);
        assert!(!all_null.enabled());
        let mixed = Fanout(vec![Arc::new(NullSink), Arc::new(Recorder::new())]);
        assert!(mixed.enabled());
    }

    #[test]
    fn fanout_broadcasts_to_all_members() {
        let a = Arc::new(Recorder::new());
        let b = Arc::new(Recorder::new());
        let fan = Fanout(vec![a.clone(), b.clone()]);
        fan.counter("c", 2);
        fan.histogram("h", 7);
        fan.gauge("g", -3);
        fan.span("s", "", 100);
        for r in [&a, &b] {
            let snap = r.snapshot();
            assert_eq!(snap.counters["c"], 2);
            assert_eq!(snap.gauges["g"].last, -3);
            assert_eq!(snap.histograms["h"].count, 1);
            assert_eq!(snap.histograms["s"].sum, 100);
        }
    }
}
