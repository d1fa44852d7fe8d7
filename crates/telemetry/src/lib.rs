//! # mdb-telemetry — engine-wide metrics for MiniDB and the harness
//!
//! Lock-free counters, gauges, and log2-bucket histograms behind a
//! [`Registry`], plus point-in-time [`MetricsSnapshot`]s and
//! hand-rolled JSON export (no serde).
//!
//! Two design constraints drive the shape of this crate:
//!
//! * **Hot-path cost.** Every record call is gated on one relaxed atomic
//!   load; a disabled registry does no other work. Enabled updates are
//!   single relaxed `fetch_add`s on pre-registered handles — the name
//!   lookup happens once at registration, never per event.
//! * **Telemetry is a leakage surface.** This repo reproduces "Why Your
//!   Encrypted Database Is Not Secure": the thesis that *auxiliary* DBMS
//!   state betrays encrypted data. A metrics registry is exactly such
//!   state — per-table counters and latency histograms encode the query
//!   distribution, survive `PerfSchema::clear()`, ride along in VM
//!   snapshots (`MemoryImage`), and are SQL-readable via
//!   `information_schema.metrics`. The experiments treat this crate as
//!   an attack surface, and [`Registry::scrub`] is the mitigation knob.

pub mod json;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Number of log2 buckets per histogram: bucket 0 holds zeros, bucket
/// `i >= 1` holds values in `[2^(i-1), 2^i)`, the last bucket clamps.
pub const HISTOGRAM_BUCKETS: usize = 64;

#[derive(Default)]
struct CounterCell {
    value: AtomicU64,
}

#[derive(Default)]
struct GaugeCell {
    value: AtomicI64,
}

struct HistogramCell {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    /// Per-bucket exemplars: the most recent `(trace_id, value)`
    /// observed in each bucket, OpenMetrics-style. Off the hot path —
    /// only [`Histogram::record_with_exemplar`] takes this lock, and
    /// only statements that carry a distributed trace context call it.
    exemplars: Mutex<BTreeMap<u8, (u128, u64)>>,
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplars: Mutex::new(BTreeMap::new()),
        }
    }
}

#[derive(Default)]
struct Metrics {
    counters: BTreeMap<String, Arc<CounterCell>>,
    gauges: BTreeMap<String, Arc<GaugeCell>>,
    histograms: BTreeMap<String, Arc<HistogramCell>>,
}

/// A named registry of metrics. Cheap to clone (all clones share state).
///
/// Handles returned by [`counter`](Registry::counter) /
/// [`gauge`](Registry::gauge) / [`histogram`](Registry::histogram) are
/// pre-resolved: record calls never touch the name map.
#[derive(Clone)]
pub struct Registry {
    enabled: Arc<AtomicBool>,
    metrics: Arc<Mutex<Metrics>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .finish_non_exhaustive()
    }
}

impl Registry {
    /// An enabled registry.
    pub fn new() -> Self {
        Registry {
            enabled: Arc::new(AtomicBool::new(true)),
            metrics: Arc::new(Mutex::new(Metrics::default())),
        }
    }

    /// A disabled registry: handles still register, but every record
    /// call returns after a single relaxed load.
    pub fn new_disabled() -> Self {
        let r = Registry::new();
        r.set_enabled(false);
        r
    }

    /// Whether record calls currently take effect.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Enables or disables recording (registrations are kept).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Returns the counter named `name`, registering it if new.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock();
        let cell = m.counters.entry(name.to_string()).or_default().clone();
        Counter {
            enabled: self.enabled.clone(),
            cell,
        }
    }

    /// Returns the gauge named `name`, registering it if new.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock();
        let cell = m.gauges.entry(name.to_string()).or_default().clone();
        Gauge {
            enabled: self.enabled.clone(),
            cell,
        }
    }

    /// Returns the histogram named `name`, registering it if new.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.lock();
        let cell = m.histograms.entry(name.to_string()).or_default().clone();
        Histogram {
            enabled: self.enabled.clone(),
            cell,
        }
    }

    /// Point-in-time snapshot of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.metrics.lock();
        MetricsSnapshot {
            counters: m
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.value.load(Ordering::Relaxed)))
                .collect(),
            gauges: m
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.value.load(Ordering::Relaxed)))
                .collect(),
            histograms: m
                .histograms
                .iter()
                .map(|(k, v)| {
                    let buckets: Vec<(u8, u64)> = v
                        .buckets
                        .iter()
                        .enumerate()
                        .filter_map(|(i, b)| {
                            let n = b.load(Ordering::Relaxed);
                            (n > 0).then_some((i as u8, n))
                        })
                        .collect();
                    let exemplars = v
                        .exemplars
                        .lock()
                        .iter()
                        .map(|(b, (tid, val))| (*b, *tid, *val))
                        .collect();
                    HistogramSnapshot {
                        name: k.clone(),
                        count: v.count.load(Ordering::Relaxed),
                        sum: v.sum.load(Ordering::Relaxed),
                        buckets,
                        exemplars,
                    }
                })
                .collect(),
        }
    }

    /// Folds a snapshot into this registry: counters and histogram
    /// buckets add, gauges add. Lets a harness registry accumulate
    /// engine snapshots across runs. No-op when disabled.
    pub fn absorb(&self, snap: &MetricsSnapshot) {
        if !self.is_enabled() {
            return;
        }
        let mut m = self.metrics.lock();
        for (name, v) in &snap.counters {
            m.counters
                .entry(name.clone())
                .or_default()
                .value
                .fetch_add(*v, Ordering::Relaxed);
        }
        for (name, v) in &snap.gauges {
            m.gauges
                .entry(name.clone())
                .or_default()
                .value
                .fetch_add(*v, Ordering::Relaxed);
        }
        for h in &snap.histograms {
            let cell = m.histograms.entry(h.name.clone()).or_default().clone();
            cell.count.fetch_add(h.count, Ordering::Relaxed);
            cell.sum.fetch_add(h.sum, Ordering::Relaxed);
            for (idx, n) in &h.buckets {
                cell.buckets[*idx as usize].fetch_add(*n, Ordering::Relaxed);
            }
            if !h.exemplars.is_empty() {
                let mut ex = cell.exemplars.lock();
                for (idx, tid, val) in &h.exemplars {
                    ex.insert(*idx, (*tid, *val));
                }
            }
        }
    }

    /// Zeroes every metric value, keeping registrations and handles
    /// valid. This is the mitigation: a deployment that wipes telemetry
    /// alongside `PerfSchema::clear()` denies the snapshot attacker the
    /// accumulated query distribution.
    pub fn scrub(&self) {
        let m = self.metrics.lock();
        for c in m.counters.values() {
            c.value.store(0, Ordering::Relaxed);
        }
        for g in m.gauges.values() {
            g.value.store(0, Ordering::Relaxed);
        }
        for h in m.histograms.values() {
            h.count.store(0, Ordering::Relaxed);
            h.sum.store(0, Ordering::Relaxed);
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
            // Exemplars are the most pointed leak — each one names a
            // concrete trace — so a scrub drops them too.
            h.exemplars.lock().clear();
        }
    }
}

/// Monotonically increasing event count.
#[derive(Clone)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    cell: Arc<CounterCell>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.value.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero. For counters that track the *live*
    /// volume of a purgeable artifact (e.g. binlog bytes on disk), the
    /// owning subsystem calls this when the artifact is purged so the
    /// registry stops reporting long-gone state. Like
    /// [`Registry::scrub`], the store happens even on a disabled
    /// registry — a reset reflects reality, not new instrumentation.
    pub fn reset(&self) {
        self.cell.value.store(0, Ordering::Relaxed);
    }
}

/// Instantaneous signed level (e.g. bytes resident, open cursors).
#[derive(Clone)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    cell: Arc<GaugeCell>,
}

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adjusts the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.cell.value.load(Ordering::Relaxed)
    }
}

/// Log2-bucket distribution of a u64-valued observation.
#[derive(Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    cell: Arc<HistogramCell>,
}

/// Bucket index for `value`: 0 for 0, else `floor(log2(value)) + 1`,
/// clamped to the last bucket.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.count.fetch_add(1, Ordering::Relaxed);
            self.cell.sum.fetch_add(value, Ordering::Relaxed);
            self.cell.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one observation and stamps `trace_id` as the bucket's
    /// exemplar (OpenMetrics-style: each bucket remembers the trace of
    /// the *last* observation that landed in it). Exemplars link the
    /// `/metrics` latency distribution back to individual distributed
    /// traces — which also makes them a correlation surface: an
    /// exemplar ties an aggregate bucket to one concrete statement.
    pub fn record_with_exemplar(&self, value: u64, trace_id: u128) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.count.fetch_add(1, Ordering::Relaxed);
            self.cell.sum.fetch_add(value, Ordering::Relaxed);
            let idx = bucket_index(value);
            self.cell.buckets[idx].fetch_add(1, Ordering::Relaxed);
            self.cell
                .exemplars
                .lock()
                .insert(idx as u8, (trace_id, value));
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.cell.count.load(Ordering::Relaxed)
    }

    /// Sum of observations so far.
    pub fn sum(&self) -> u64 {
        self.cell.sum.load(Ordering::Relaxed)
    }
}

/// Point-in-time value of every metric in a [`Registry`].
///
/// This struct is deliberately `Clone` + comparable: the engine embeds
/// it in VM-snapshot memory images, which is precisely how telemetry
/// becomes attacker-visible state.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)`, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)`, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Snapshot of one histogram; `buckets` is sparse `(index, count)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Non-empty buckets as `(bucket_index, count)`.
    pub buckets: Vec<(u8, u64)>,
    /// Per-bucket exemplars as `(bucket_index, trace_id, value)` —
    /// the last traced observation seen in each bucket. Empty unless
    /// [`Histogram::record_with_exemplar`] was used.
    pub exemplars: Vec<(u8, u128, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Median upper bound — [`quantile_upper_bound`](Self::quantile_upper_bound) at 0.5.
    pub fn p50(&self) -> u64 {
        self.quantile_upper_bound(0.50)
    }

    /// 95th-percentile upper bound.
    pub fn p95(&self) -> u64 {
        self.quantile_upper_bound(0.95)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile_upper_bound(0.99)
    }

    /// Upper bound of the bucket containing quantile `q` in `[0, 1]`.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (idx, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return bucket_upper_bound(*idx as usize);
            }
        }
        self.buckets
            .last()
            .map(|(idx, _)| bucket_upper_bound(*idx as usize))
            .unwrap_or(0)
    }
}

/// Largest value that lands in bucket `idx`.
pub fn bucket_upper_bound(idx: usize) -> u64 {
    match idx {
        0 => 0,
        i if i >= HISTOGRAM_BUCKETS - 1 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

impl MetricsSnapshot {
    /// True when no metric has a non-zero value.
    pub fn is_zero(&self) -> bool {
        self.counters.iter().all(|(_, v)| *v == 0)
            && self.gauges.iter().all(|(_, v)| *v == 0)
            && self.histograms.iter().all(|h| h.count == 0)
    }

    /// Value of the counter named `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Level of the gauge named `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The histogram named `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Serialises as a compact JSON object:
    /// `{"counters":{..},"gauges":{..},"histograms":{name:{"count":..,"sum":..,"buckets":[[idx,n],..]}}}`.
    pub fn to_json(&self) -> String {
        let mut w = json::Writer::new();
        w.obj_open();
        w.key("counters");
        w.obj_open();
        for (name, v) in &self.counters {
            w.key(name);
            w.u64(*v);
        }
        w.obj_close();
        w.key("gauges");
        w.obj_open();
        for (name, v) in &self.gauges {
            w.key(name);
            w.i64(*v);
        }
        w.obj_close();
        w.key("histograms");
        w.obj_open();
        for h in &self.histograms {
            w.key(&h.name);
            w.obj_open();
            w.key("count");
            w.u64(h.count);
            w.key("sum");
            w.u64(h.sum);
            w.key("mean_us");
            w.f64(h.mean());
            w.key("buckets");
            w.arr_open();
            for (idx, n) in &h.buckets {
                w.arr_open();
                w.u64(*idx as u64);
                w.u64(*n);
                w.arr_close();
            }
            w.arr_close();
            // Exemplars are emitted only when present so untraced
            // snapshots keep their historical JSON shape.
            if !h.exemplars.is_empty() {
                w.key("exemplars");
                w.arr_open();
                for (idx, tid, val) in &h.exemplars {
                    w.arr_open();
                    w.u64(*idx as u64);
                    w.string(&format!("{tid:032x}"));
                    w.u64(*val);
                    w.arr_close();
                }
                w.arr_close();
            }
            w.obj_close();
        }
        w.obj_close();
        w.obj_close();
        w.into_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let r = Registry::new();
        let c = r.counter("hits");
        c.inc();
        c.add(41);
        let g = r.gauge("depth");
        g.set(7);
        g.add(-2);
        let snap = r.snapshot();
        assert_eq!(snap.counter("hits"), Some(42));
        assert_eq!(snap.gauge("depth"), Some(5));
        assert_eq!(snap.counter("absent"), None);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(3), 7);

        let r = Registry::new();
        let h = r.histogram("lat");
        for v in [0, 1, 3, 1000, 1000, 5000] {
            h.record(v);
        }
        let snap = r.snapshot();
        let hs = snap.histogram("lat").unwrap();
        assert_eq!(hs.count, 6);
        assert_eq!(hs.sum, 7004);
        assert!((hs.mean() - 7004.0 / 6.0).abs() < 1e-9);
        // 0→b0, 1→b1, 3→b2, 1000×2→b10, 5000→b13
        assert_eq!(hs.buckets, vec![(0, 1), (1, 1), (2, 1), (10, 2), (13, 1)]);
        // target rank ceil(0.5*6)=3 lands in bucket 2 (values 2..=3);
        // rank ceil(0.75*6)=5 lands in bucket 10 (values 512..=1023).
        assert_eq!(hs.quantile_upper_bound(0.5), 3);
        assert_eq!(hs.quantile_upper_bound(0.75), 1023);
        assert_eq!(hs.quantile_upper_bound(1.0), 8191);
    }

    #[test]
    fn percentile_conveniences_wrap_quantile_upper_bound() {
        // Empty histogram: every percentile is 0 (no buckets at all).
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.p95(), 0);
        assert_eq!(empty.p99(), 0);

        // Single-bucket histogram: every percentile is that bucket's
        // upper bound, regardless of count.
        let r = Registry::new();
        let h = r.histogram("single");
        for _ in 0..10 {
            h.record(700); // bucket 10: values 512..=1023
        }
        let snap = r.snapshot();
        let hs = snap.histogram("single").unwrap();
        assert_eq!(hs.buckets.len(), 1);
        assert_eq!(hs.p50(), 1023);
        assert_eq!(hs.p95(), 1023);
        assert_eq!(hs.p99(), 1023);

        // Multi-bucket: p50/p95/p99 agree with quantile_upper_bound.
        let h2 = r.histogram("multi");
        for v in [1, 1, 1, 1, 1, 1, 1, 1, 1000, 5000] {
            h2.record(v);
        }
        let snap = r.snapshot();
        let hs = snap.histogram("multi").unwrap();
        assert_eq!(hs.p50(), hs.quantile_upper_bound(0.50));
        assert_eq!(hs.p50(), 1);
        assert_eq!(hs.p95(), hs.quantile_upper_bound(0.95));
        assert_eq!(hs.p95(), 8191);
        assert_eq!(hs.p99(), hs.quantile_upper_bound(0.99));
    }

    #[test]
    fn exemplars_track_last_trace_per_bucket() {
        let r = Registry::new();
        let h = r.histogram("lat");
        h.record(5); // bucket 3, no exemplar
        h.record_with_exemplar(6, 0xAAAA); // bucket 3
        h.record_with_exemplar(7, 0xBBBB); // bucket 3 — overwrites
        h.record_with_exemplar(1000, 0xCCCC); // bucket 10
        let snap = r.snapshot();
        let hs = snap.histogram("lat").unwrap();
        assert_eq!(hs.count, 4);
        assert_eq!(hs.exemplars, vec![(3, 0xBBBB, 7), (10, 0xCCCC, 1000)]);
        // JSON gains an "exemplars" key only when exemplars exist.
        let js = snap.to_json();
        assert!(
            js.contains(r#""exemplars":[[3,"0000000000000000000000000000bbbb",7]"#),
            "{js}"
        );

        // Scrub drops exemplars along with the distribution.
        r.scrub();
        let hs2 = r.snapshot();
        let hs2 = hs2.histogram("lat").unwrap();
        assert!(hs2.exemplars.is_empty());
        assert!(!r.snapshot().to_json().contains("exemplars"));

        // Absorb carries exemplars across registries (latest wins).
        let sink = Registry::new();
        sink.absorb(&snap);
        let folded = sink.snapshot();
        assert_eq!(
            folded.histogram("lat").unwrap().exemplars,
            vec![(3, 0xBBBB, 7), (10, 0xCCCC, 1000)]
        );
    }

    #[test]
    fn disabled_registry_records_nothing() {
        {
            // record_with_exemplar is gated like record.
            let r = Registry::new_disabled();
            let h = r.histogram("lat");
            h.record_with_exemplar(9, 0x1234);
            assert!(r.snapshot().is_zero());
            assert!(r.snapshot().histogram("lat").unwrap().exemplars.is_empty());
        }
        let r = Registry::new_disabled();
        let c = r.counter("hits");
        let h = r.histogram("lat");
        let g = r.gauge("lvl");
        c.inc();
        h.record(99);
        g.set(7);
        assert!(r.snapshot().is_zero());
        // Re-enabling makes the same handles live.
        r.set_enabled(true);
        c.inc();
        assert_eq!(r.snapshot().counter("hits"), Some(1));
    }

    #[test]
    fn absorb_accumulates() {
        let engine = Registry::new();
        engine.counter("bufpool.hits").add(10);
        engine.histogram("stmt.us").record(8);

        let harness = Registry::new();
        harness.absorb(&engine.snapshot());
        harness.absorb(&engine.snapshot());
        let snap = harness.snapshot();
        assert_eq!(snap.counter("bufpool.hits"), Some(20));
        let h = snap.histogram("stmt.us").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 16);
        assert_eq!(h.buckets, vec![(4, 2)]);
    }

    #[test]
    fn scrub_zeroes_but_keeps_registrations() {
        let r = Registry::new();
        let c = r.counter("secret.by_table.patients");
        c.add(1337);
        r.scrub();
        let snap = r.snapshot();
        assert_eq!(snap.counter("secret.by_table.patients"), Some(0));
        assert!(snap.is_zero());
        c.inc();
        assert_eq!(r.snapshot().counter("secret.by_table.patients"), Some(1));
    }

    #[test]
    fn json_shape_is_valid_and_escaped() {
        let r = Registry::new();
        r.counter("a\"b\\c\n").inc();
        r.histogram("h").record(3);
        let js = r.snapshot().to_json();
        assert!(js.starts_with('{') && js.ends_with('}'));
        assert!(js.contains(r#""a\"b\\c\n":1"#), "{js}");
        assert!(
            js.contains(r#""h":{"count":1,"sum":3,"mean_us":3,"buckets":[[2,1]]}"#),
            "{js}"
        );
    }

    #[test]
    fn concurrent_counter_increments_sum_exactly() {
        let r = Registry::new();
        let c = r.counter("n");
        let h = r.histogram("d");
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(i % 17);
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        assert_eq!(h.count(), 80_000);
    }
}
