//! The in-memory aggregating sink.
//!
//! Layout is chosen for the campaign hot path (workers recording a
//! handful of metrics per variant from many threads):
//!
//! * the name → metric registry is **lock-striped**: names hash to
//!   one of [`MAP_SHARDS`] independent `RwLock<HashMap>` shards, and
//!   the steady state takes only a shared read lock on one shard;
//! * counters are **stripe-padded atomics**: each counter owns
//!   [`STRIPES`] cache-line-aligned `AtomicU64` cells and a thread
//!   increments the cell picked by its thread-local stripe id, so
//!   concurrent workers do not ping-pong one cache line;
//! * histograms use **pinned power-of-two buckets** (see
//!   [`bucket_index`]) with relaxed atomic bucket counts plus
//!   `sum`/`count`/`min`/`max`, so recording is wait-free and a
//!   snapshot needs no stop-the-world.
//!
//! All atomics use `Relaxed` ordering: values are advisory aggregates
//! read after the recording threads are joined (or approximately, by
//! the live progress line), never synchronization.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::RwLock;

use crate::Sink;

/// Registry lock stripes (names hash to a shard).
pub const MAP_SHARDS: usize = 16;
/// Atomic cells per counter (threads hash to a stripe).
pub const STRIPES: usize = 16;
/// Histogram bucket count: bucket 0 holds zeros, bucket `i ≥ 1` holds
/// values with bit length `i` (i.e. `2^(i-1) ≤ v < 2^i`), bucket 64
/// holds `v ≥ 2^63`.
pub const BUCKETS: usize = 65;

/// The bucket a value lands in: its bit length (0 for 0).
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `i`, or `None` for the
/// unbounded last bucket (rendered as `+Inf` by the exporter).
pub fn bucket_upper_bound(i: usize) -> Option<u64> {
    match i {
        0 => Some(0),
        1..=63 => Some((1u64 << i) - 1),
        _ => None,
    }
}

#[repr(align(64))]
struct PaddedCell(AtomicU64);

struct HistCells {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

enum Slot {
    Counter(Box<[PaddedCell]>),
    Gauge { last: AtomicI64, max: AtomicI64 },
    Histogram(Box<HistCells>),
}

fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn thread_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// The aggregating [`Sink`]: see the [module docs](self) for layout.
///
/// Spans fold into duration histograms keyed by the span name (their
/// `detail` is dropped — use a [`crate::JsonlSink`] fanned out beside
/// a recorder to keep per-span detail); events fold into counters.
#[derive(Default)]
pub struct Recorder {
    shards: [RwLock<HashMap<String, Slot>>; MAP_SHARDS],
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    fn with_slot(&self, name: &str, make: impl FnOnce() -> Slot, apply: impl Fn(&Slot)) {
        let shard = &self.shards[(fnv1a(name) % MAP_SHARDS as u64) as usize];
        if let Some(slot) = shard.read().unwrap_or_else(|e| e.into_inner()).get(name) {
            apply(slot);
            return;
        }
        let mut map = shard.write().unwrap_or_else(|e| e.into_inner());
        apply(map.entry(name.to_owned()).or_insert_with(make));
    }

    fn add_counter(&self, name: &str, delta: u64) {
        self.with_slot(
            name,
            || {
                Slot::Counter(
                    (0..STRIPES)
                        .map(|_| PaddedCell(AtomicU64::new(0)))
                        .collect(),
                )
            },
            |slot| {
                if let Slot::Counter(cells) = slot {
                    cells[thread_stripe()].0.fetch_add(delta, Relaxed);
                }
            },
        );
    }

    fn set_gauge(&self, name: &str, value: i64) {
        self.with_slot(
            name,
            || Slot::Gauge {
                last: AtomicI64::new(i64::MIN),
                max: AtomicI64::new(i64::MIN),
            },
            |slot| {
                if let Slot::Gauge { last, max } = slot {
                    last.store(value, Relaxed);
                    max.fetch_max(value, Relaxed);
                }
            },
        );
    }

    fn record_histogram(&self, name: &str, value: u64) {
        self.with_slot(
            name,
            || {
                Slot::Histogram(Box::new(HistCells {
                    buckets: [const { AtomicU64::new(0) }; BUCKETS],
                    sum: AtomicU64::new(0),
                    count: AtomicU64::new(0),
                    min: AtomicU64::new(u64::MAX),
                    max: AtomicU64::new(0),
                }))
            },
            |slot| {
                if let Slot::Histogram(h) = slot {
                    h.buckets[bucket_index(value)].fetch_add(1, Relaxed);
                    h.sum.fetch_add(value, Relaxed);
                    h.count.fetch_add(1, Relaxed);
                    h.min.fetch_min(value, Relaxed);
                    h.max.fetch_max(value, Relaxed);
                }
            },
        );
    }

    /// A point-in-time copy of every metric, with deterministically
    /// ordered (`BTreeMap`) names.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for shard in &self.shards {
            let map = shard.read().unwrap_or_else(|e| e.into_inner());
            for (name, slot) in map.iter() {
                match slot {
                    Slot::Counter(cells) => {
                        let total = cells.iter().map(|c| c.0.load(Relaxed)).sum();
                        snap.counters.insert(name.clone(), total);
                    }
                    Slot::Gauge { last, max } => {
                        snap.gauges.insert(
                            name.clone(),
                            GaugeSnapshot {
                                last: last.load(Relaxed),
                                max: max.load(Relaxed),
                            },
                        );
                    }
                    Slot::Histogram(h) => {
                        let count = h.count.load(Relaxed);
                        snap.histograms.insert(
                            name.clone(),
                            HistogramSnapshot {
                                buckets: h.buckets.iter().map(|b| b.load(Relaxed)).collect(),
                                sum: h.sum.load(Relaxed),
                                count,
                                min: if count == 0 { 0 } else { h.min.load(Relaxed) },
                                max: h.max.load(Relaxed),
                            },
                        );
                    }
                }
            }
        }
        snap
    }

    /// Convenience: the current total of counter `name` (0 if absent).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.snapshot().counters.get(name).copied().unwrap_or(0)
    }
}

impl Sink for Recorder {
    fn event(&self, name: &str, _detail: &str) {
        self.add_counter(name, 1);
    }

    fn span(&self, name: &str, _detail: &str, nanos: u64) {
        self.record_histogram(name, nanos);
    }

    fn counter(&self, name: &str, delta: u64) {
        self.add_counter(name, delta);
    }

    fn gauge(&self, name: &str, value: i64) {
        self.set_gauge(name, value);
    }

    fn histogram(&self, name: &str, value: u64) {
        self.record_histogram(name, value);
    }
}

/// A gauge's last-set and maximum-ever values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// The most recently set value.
    pub last: i64,
    /// The maximum value ever set.
    pub max: i64,
}

/// A histogram's bucket counts and summary statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts; `buckets[i]` counts values in
    /// the range described by [`bucket_index`]/[`bucket_upper_bound`].
    pub buckets: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// The mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ≤ q ≤ 1.0`) by linear
    /// interpolation inside the bucket holding the target rank,
    /// clamped to the observed `[min, max]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = seen + n;
            if (next as f64) >= rank {
                let lo = if i <= 1 { 0 } else { 1u64 << (i - 1) };
                let hi = bucket_upper_bound(i).unwrap_or(self.max).max(lo);
                let frac = (rank - seen as f64) / n as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                return est.clamp(self.min as f64, self.max as f64);
            }
            seen = next;
        }
        self.max as f64
    }
}

/// A deterministic (name-ordered) copy of a [`Recorder`]'s state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter totals (events fold in here too).
    pub counters: BTreeMap<String, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Histograms (spans fold in here too, keyed by span name).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl Snapshot {
    /// Renders the snapshot in the Prometheus text exposition format,
    /// each metric name prefixed with `prefix` and sanitized to
    /// `[a-zA-Z0-9_:]`. Histogram buckets render cumulatively with
    /// the pinned power-of-two `le` bounds.
    pub fn to_prometheus(&self, prefix: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = format!("{prefix}_{}", sanitize(name));
            let _ = writeln!(out, "# TYPE {n} counter\n{n} {v}");
        }
        for (name, g) in &self.gauges {
            let n = format!("{prefix}_{}", sanitize(name));
            let _ = writeln!(out, "# TYPE {n} gauge\n{n} {}\n{n}_max {}", g.last, g.max);
        }
        for (name, h) in &self.histograms {
            let n = format!("{prefix}_{}", sanitize(name));
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cum = 0u64;
            for (i, &b) in h.buckets.iter().enumerate() {
                if b == 0 && i != h.buckets.len() - 1 {
                    continue;
                }
                cum += b;
                match bucket_upper_bound(i) {
                    Some(le) => {
                        let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cum}");
                    }
                    None => {
                        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {cum}");
                    }
                }
            }
            let _ = writeln!(out, "{n}_sum {}\n{n}_count {}", h.sum, h.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bucket boundaries are part of the exported format: pin
    /// them exactly.
    #[test]
    fn bucket_boundaries_are_pinned_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), Some(0));
        assert_eq!(bucket_upper_bound(1), Some(1));
        assert_eq!(bucket_upper_bound(10), Some(1023));
        assert_eq!(bucket_upper_bound(63), Some(u64::MAX / 2));
        assert_eq!(bucket_upper_bound(64), None);
        // Every value lands in a bucket whose bounds contain it.
        for v in [0u64, 1, 2, 5, 100, 4096, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(i < BUCKETS);
            if let Some(hi) = bucket_upper_bound(i) {
                assert!(v <= hi, "{v} above bucket {i} bound {hi}");
            }
            if i > 0 {
                let lo = if i == 1 { 1 } else { 1u64 << (i - 1) };
                assert!(v >= lo, "{v} below bucket {i} floor {lo}");
            }
        }
    }

    #[test]
    fn counters_sum_across_stripes_and_threads() {
        let r = Recorder::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        r.counter("hits", 1);
                    }
                });
            }
        });
        assert_eq!(r.counter_value("hits"), 8000);
    }

    #[test]
    fn gauges_keep_last_and_max() {
        let r = Recorder::new();
        r.gauge("depth", 3);
        r.gauge("depth", 9);
        r.gauge("depth", 2);
        let g = r.snapshot().gauges["depth"];
        assert_eq!(g.last, 2);
        assert_eq!(g.max, 9);
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let r = Recorder::new();
        for v in 1..=100u64 {
            r.histogram("lat", v);
        }
        let snap = r.snapshot();
        let h = &snap.histograms["lat"];
        assert_eq!(h.count, 100);
        assert_eq!(h.sum, 5050);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 100);
        assert_eq!(h.mean(), 50.5);
        let p50 = h.quantile(0.5);
        assert!((32.0..=96.0).contains(&p50), "p50 estimate {p50}");
        let p99 = h.quantile(0.99);
        assert!(p99 >= p50 && p99 <= 100.0, "p99 estimate {p99}");
        assert_eq!(h.quantile(1.0), 100.0);
    }

    /// The exporter's exact rendering is a stable interface: pin it.
    #[test]
    fn prometheus_rendering_is_pinned() {
        let r = Recorder::new();
        r.counter("campaign.variants_tested", 7);
        r.gauge("orchestrate.queue_depth", 4);
        r.histogram("oracle_ns.clean", 3);
        r.histogram("oracle_ns.clean", 1000);
        let text = r.snapshot().to_prometheus("spe");
        let expected = "\
# TYPE spe_campaign_variants_tested counter
spe_campaign_variants_tested 7
# TYPE spe_orchestrate_queue_depth gauge
spe_orchestrate_queue_depth 4
spe_orchestrate_queue_depth_max 4
# TYPE spe_oracle_ns_clean histogram
spe_oracle_ns_clean_bucket{le=\"3\"} 1
spe_oracle_ns_clean_bucket{le=\"1023\"} 2
spe_oracle_ns_clean_bucket{le=\"+Inf\"} 2
spe_oracle_ns_clean_sum 1003
spe_oracle_ns_clean_count 2
";
        assert_eq!(text, expected);
    }

    #[test]
    fn events_and_spans_fold_into_counters_and_histograms() {
        let r = Recorder::new();
        r.event("orchestrate.killed", "stop_after=5");
        r.event("orchestrate.killed", "stop_after=9");
        r.span("orchestrate.job", "file=0 shard=1", 500);
        let snap = r.snapshot();
        assert_eq!(snap.counters["orchestrate.killed"], 2);
        assert_eq!(snap.histograms["orchestrate.job"].sum, 500);
    }
}
