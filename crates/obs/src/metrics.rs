//! The typed metrics registry: counters, gauges, fixed-bucket
//! histograms, and bounded reservoirs.
//!
//! Handles are cheap `Arc`-backed clones updated lock-free (atomics;
//! the reservoir takes a short mutex), so instrumented code caches a
//! handle once and updates it on the hot path. A [`Registry`] owns the
//! name → handle table that [`crate::prom::render`] walks; the same
//! metric name may be registered under several label sets (one time
//! series each, one `# TYPE` family).

use serde_json::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Add to an f64 stored as bits in an `AtomicU64`.
fn f64_fetch_add(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A monotonically increasing event count.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Count one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Count `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adjust the value by `delta` (atomically).
    pub fn add(&self, delta: f64) {
        f64_fetch_add(&self.0, delta);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

struct HistogramInner {
    /// Strictly increasing upper bounds; an implicit `+Inf` bucket
    /// follows the last one.
    bounds: Vec<f64>,
    /// One count per bound, plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram: O(buckets) memory forever, percentiles by
/// linear interpolation inside the bucket the rank falls in (exact at
/// bucket edges, bounded error inside — the standard Prometheus
/// `histogram_quantile` estimate).
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Default latency bounds in milliseconds: 100 µs … 10 s, roughly
    /// ×2.5 per step.
    pub const LATENCY_MS_BOUNDS: [f64; 16] = [
        0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
        5000.0, 10_000.0,
    ];

    /// Build with the given upper bounds (sorted, deduplicated,
    /// non-finite entries dropped; an empty list degenerates to a
    /// single `+Inf` bucket).
    pub fn with_bounds(bounds: &[f64]) -> Self {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(f64::total_cmp);
        bounds.dedup();
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self(Arc::new(HistogramInner {
            bounds,
            buckets,
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }))
    }

    /// Record one observation (NaN is dropped).
    pub fn observe(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let i = self.0.bounds.partition_point(|&b| b < v);
        self.0.buckets[i].fetch_add(1, Ordering::Relaxed);
        f64_fetch_add(&self.0.sum_bits, v);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by interpolating
    /// within the bucket the rank lands in. `NAN` with no observations;
    /// ranks in the overflow bucket report the last finite bound.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return f64::NAN;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
        let mut cum = 0u64;
        for (i, bucket) in self.0.buckets.iter().enumerate() {
            let here = bucket.load(Ordering::Relaxed);
            let prev_cum = cum;
            cum += here;
            if (cum as f64) < rank {
                continue;
            }
            if i == self.0.bounds.len() {
                // overflow bucket: no upper edge to interpolate toward
                return self.0.bounds.last().copied().unwrap_or(f64::NAN);
            }
            let lo = if i == 0 { 0.0 } else { self.0.bounds[i - 1] };
            let hi = self.0.bounds[i];
            let within = (rank - prev_cum as f64) / here.max(1) as f64;
            return lo + (hi - lo) * within;
        }
        self.0.bounds.last().copied().unwrap_or(f64::NAN)
    }

    /// p50/p95/p99 summary.
    pub fn percentiles(&self) -> Percentiles {
        Percentiles {
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            count: self.count() as usize,
        }
    }

    /// `(upper_bound, cumulative_count)` rows plus the `+Inf` bucket —
    /// the Prometheus exposition shape.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut cum = 0u64;
        let mut rows = Vec::with_capacity(self.0.bounds.len() + 1);
        for (i, bucket) in self.0.buckets.iter().enumerate() {
            cum += bucket.load(Ordering::Relaxed);
            let bound = self.0.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            rows.push((bound, cum));
        }
        rows
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::with_bounds(&Self::LATENCY_MS_BOUNDS)
    }
}

/// p50/p95/p99 of a latency population, in the unit the samples were
/// recorded in.
#[derive(Clone, Copy, Debug, Default)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Number of samples the percentiles summarise.
    pub count: usize,
}

impl Percentiles {
    /// Exact percentiles of a sample set (nearest-rank on the sorted
    /// copy; all-zero with no samples).
    pub fn of(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        let mut sorted = samples.to_vec();
        // total_cmp: NaN-proof total order, no panic path
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
            sorted[idx]
        };
        Self {
            p50: at(0.50),
            p95: at(0.95),
            p99: at(0.99),
            count: sorted.len(),
        }
    }

    /// As a JSON object, fields in declaration order.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("p50".into(), Value::Num(self.p50)),
            ("p95".into(), Value::Num(self.p95)),
            ("p99".into(), Value::Num(self.p99)),
            ("count".into(), Value::Num(self.count as f64)),
        ])
    }
}

struct ReservoirInner {
    buf: Vec<f64>,
    next: usize,
    seen: u64,
}

/// A bounded sliding-window sample store: keeps the most recent
/// `capacity` observations in a ring buffer (O(capacity) memory under
/// unbounded load) and reports **exact** percentiles over that window.
/// The trade-off versus [`Histogram`]: exact values, but a window
/// rather than all-time coverage.
#[derive(Clone)]
pub struct Reservoir {
    inner: Arc<Mutex<ReservoirInner>>,
    capacity: usize,
}

impl Reservoir {
    /// Build with the given window capacity (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Arc::new(Mutex::new(ReservoirInner {
                buf: Vec::with_capacity(capacity.min(1024)),
                next: 0,
                seen: 0,
            })),
            capacity,
        }
    }

    /// The window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record one observation, evicting the oldest once full.
    pub fn push(&self, v: f64) {
        let mut g = self.inner.lock().unwrap();
        g.seen += 1;
        if g.buf.len() < self.capacity {
            g.buf.push(v);
        } else {
            let at = g.next;
            g.buf[at] = v;
            g.next = (at + 1) % self.capacity;
        }
    }

    /// Total observations ever pushed (not just the retained window).
    pub fn seen(&self) -> u64 {
        self.inner.lock().unwrap().seen
    }

    /// Exact percentiles over the retained window (`count` = window
    /// size, at most [`Reservoir::capacity`]).
    pub fn percentiles(&self) -> Percentiles {
        Percentiles::of(&self.inner.lock().unwrap().buf)
    }
}

// ------------------------------------------------------------- registry

/// What kind of metric a registry entry is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Instantaneous gauge.
    Gauge,
    /// Fixed-bucket histogram.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn prom_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
pub(crate) enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Handle {
    fn kind(&self) -> MetricKind {
        match self {
            Handle::Counter(_) => MetricKind::Counter,
            Handle::Gauge(_) => MetricKind::Gauge,
            Handle::Histogram(_) => MetricKind::Histogram,
        }
    }
}

pub(crate) struct Entry {
    /// Sanitized, collision-disambiguated family name (what exporters emit).
    pub name: String,
    /// The name as the caller passed it (the lookup key).
    pub raw: String,
    pub labels: Vec<(String, String)>,
    pub help: String,
    pub handle: Handle,
}

/// A named table of metrics, the unit [`crate::prom::render`] exports.
///
/// `counter`/`gauge`/`histogram` are get-or-create: repeated
/// registration under the same name and label set returns a handle to
/// the same underlying metric, so independent subsystems can share
/// series without coordinating. Registering an existing family with a
/// *different* kind — under any label set — returns a detached handle
/// (updates go nowhere): the registry never panics and never renders
/// an invalid double-typed family. Two *different* raw names that
/// sanitize to the same string are kept apart with `_2`/`_3`… suffixes
/// rather than silently merged.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

/// Rewrite a name into the Prometheus grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if ok {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry (used by the trainer's gauges; the
    /// serving engine keeps a per-engine registry instead so parallel
    /// engines never share counters).
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let raw = name.to_string();
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (sanitize_name(k), v.to_string()))
            .collect();
        let mut entries = self.entries.lock().unwrap();
        let handle = make();
        if let Some(e) = entries.iter().find(|e| e.raw == raw && e.labels == labels) {
            if e.handle.kind() == handle.kind() {
                return e.handle.clone();
            }
            // kind clash: hand back the detached handle
            return handle;
        }
        // Resolve the exported family name: every series of one raw
        // name shares it; two *different* raw names that sanitize to
        // the same string get `_2`/`_3`… suffixes instead of silently
        // merging into one family.
        let name = match entries.iter().find(|e| e.raw == raw) {
            Some(e) => e.name.clone(),
            None => {
                let base = sanitize_name(&raw);
                let mut candidate = base.clone();
                let mut n = 2;
                while entries.iter().any(|e| e.name == candidate && e.raw != raw) {
                    candidate = format!("{base}_{n}");
                    n += 1;
                }
                candidate
            }
        };
        // Family-level kind consistency: once a family exists with one
        // kind, a different-kind registration (even under new labels)
        // gets a detached handle — a registry can never render an
        // invalid double-typed family.
        if entries
            .iter()
            .any(|e| e.name == name && e.handle.kind() != handle.kind())
        {
            return handle;
        }
        entries.push(Entry {
            name,
            raw,
            labels,
            help: help.to_string(),
            handle: handle.clone(),
        });
        handle
    }

    /// Get or create a counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, &[], help)
    }

    /// Get or create a counter with labels.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Counter {
        match self.get_or_insert(name, labels, help, || Handle::Counter(Counter::default())) {
            Handle::Counter(c) => c,
            _ => Counter::default(),
        }
    }

    /// Get or create a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, &[], help)
    }

    /// Get or create a gauge with labels.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Gauge {
        match self.get_or_insert(name, labels, help, || Handle::Gauge(Gauge::default())) {
            Handle::Gauge(g) => g,
            _ => Gauge::default(),
        }
    }

    /// Get or create a histogram with the given bucket bounds.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with(name, &[], help, bounds)
    }

    /// Get or create a histogram with labels.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
        bounds: &[f64],
    ) -> Histogram {
        match self.get_or_insert(name, labels, help, || {
            Handle::Histogram(Histogram::with_bounds(bounds))
        }) {
            Handle::Histogram(h) => h,
            _ => Histogram::with_bounds(bounds),
        }
    }

    /// Registered metric names (deduplicated, registration order) with
    /// their kinds.
    pub fn names(&self) -> Vec<(String, MetricKind)> {
        let entries = self.entries.lock().unwrap();
        let mut out: Vec<(String, MetricKind)> = Vec::new();
        for e in entries.iter() {
            if !out.iter().any(|(n, _)| *n == e.name) {
                out.push((e.name.clone(), e.handle.kind()));
            }
        }
        out
    }

    /// Run `f` over the entry table (crate-internal; exporters use it).
    pub(crate) fn with_entries<R>(&self, f: impl FnOnce(&[Entry]) -> R) -> R {
        f(&self.entries.lock().unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("steps_total", "steps");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("steps_total", "steps").get(), 5);
        let g = reg.gauge("loss", "train loss");
        g.set(2.5);
        assert_eq!(reg.gauge("loss", "").get(), 2.5);
        g.add(-0.5);
        assert_eq!(g.get(), 2.0);
    }

    #[test]
    fn kind_clash_returns_detached_handle() {
        let reg = Registry::new();
        let c = reg.counter("x", "");
        c.inc();
        let g = reg.gauge("x", "");
        g.set(99.0);
        // the registered series is untouched
        assert_eq!(reg.counter("x", "").get(), 1);
        assert_eq!(reg.names(), vec![("x".to_string(), MetricKind::Counter)]);
    }

    #[test]
    fn labels_make_distinct_series() {
        let reg = Registry::new();
        reg.counter_with("rccl_calls_total", &[("collective", "AllReduce")], "")
            .add(3);
        reg.counter_with("rccl_calls_total", &[("collective", "AllGather")], "")
            .add(7);
        assert_eq!(
            reg.counter_with("rccl_calls_total", &[("collective", "AllReduce")], "")
                .get(),
            3
        );
        assert_eq!(reg.names().len(), 1, "one family, two series");
    }

    #[test]
    fn percentiles_of_known_population() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = Percentiles::of(&v);
        assert_eq!(p.count, 100);
        assert!((p.p50 - 50.0).abs() <= 1.0);
        assert!((p.p95 - 95.0).abs() <= 1.0);
        assert!((p.p99 - 99.0).abs() <= 1.0);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let h = Histogram::with_bounds(&[1.0, 2.0, 4.0, 8.0]);
        for v in [0.5, 1.5, 1.6, 3.0, 3.5, 5.0, 6.0, 7.0, 9.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 10);
        assert!((h.sum() - 137.1).abs() < 1e-9);
        let p50 = h.quantile(0.5);
        assert!((2.0..=4.0).contains(&p50), "p50 estimate {p50}");
        // overflow ranks report the last finite bound
        assert_eq!(h.quantile(1.0), 8.0);
        let rows = h.cumulative_buckets();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows.last().unwrap().1, 10);
        assert!(rows.last().unwrap().0.is_infinite());
        // cumulative counts never decrease
        assert!(rows.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn histogram_empty_is_nan() {
        let h = Histogram::default();
        assert!(h.quantile(0.5).is_nan());
        assert_eq!(h.percentiles().count, 0);
    }

    #[test]
    fn reservoir_is_bounded_and_windowed() {
        let r = Reservoir::new(100);
        for i in 0..10_000 {
            r.push(i as f64);
        }
        assert_eq!(r.seen(), 10_000);
        let p = r.percentiles();
        assert_eq!(p.count, 100, "window stays bounded");
        // the window holds the most recent 100 samples: 9900..=9999
        assert!(p.p50 >= 9900.0 && p.p99 <= 9999.0, "{p:?}");
    }

    #[test]
    fn sanitize_name_rewrites_invalid() {
        assert_eq!(sanitize_name("ok_name:v1"), "ok_name:v1");
        assert_eq!(sanitize_name("bad name-1"), "bad_name_1");
        assert_eq!(sanitize_name("1st"), "_1st");
        assert_eq!(sanitize_name(""), "_");
    }

    #[test]
    fn sanitize_collisions_are_disambiguated() {
        let reg = Registry::new();
        reg.counter("a-b_total", "").add(1);
        reg.counter("a_b_total", "").add(2);
        reg.counter("a b_total", "").add(4);
        // same raw name keeps resolving to the same series
        assert_eq!(reg.counter("a-b_total", "").get(), 1);
        assert_eq!(reg.counter("a_b_total", "").get(), 2);
        assert_eq!(reg.counter("a b_total", "").get(), 4);
        let names: Vec<String> = reg.names().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names.len(), 3, "three families, not one: {names:?}");
        assert!(names.contains(&"a_b_total".to_string()));
        assert!(names.contains(&"a_b_total_2".to_string()));
        assert!(names.contains(&"a_b_total_3".to_string()));
    }

    #[test]
    fn kind_clash_under_new_labels_stays_detached() {
        let reg = Registry::new();
        reg.counter_with("x", &[("shard", "0")], "").inc();
        // same family, different labels, different kind: detached
        let g = reg.gauge_with("x", &[("shard", "1")], "");
        g.set(9.0);
        assert_eq!(reg.names(), vec![("x".to_string(), MetricKind::Counter)]);
        reg.with_entries(|entries| {
            assert_eq!(entries.len(), 1, "the gauge never entered the table");
        });
    }

    #[test]
    fn racing_registrations_converge_to_one_series() {
        let reg = Arc::new(Registry::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        reg.counter_with("race_total", &[("shard", "0")], "").inc();
                        reg.histogram_with("race_ms", &[("shard", "0")], "", &[1.0, 10.0])
                            .observe(i as f64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(
            reg.counter_with("race_total", &[("shard", "0")], "").get(),
            8 * 200,
            "every thread hit the same counter"
        );
        assert_eq!(
            reg.histogram_with("race_ms", &[("shard", "0")], "", &[1.0, 10.0])
                .count(),
            8 * 200,
            "every thread hit the same histogram"
        );
        reg.with_entries(|entries| {
            assert_eq!(entries.len(), 2, "one entry per (name, labels)");
        });
    }
}
