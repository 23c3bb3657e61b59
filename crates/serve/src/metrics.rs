//! Serving metrics: queue depth, time-to-first-token, per-token decode
//! latency percentiles, and decode throughput.
//!
//! The series are listed once, in `serve_series!`: each row names the
//! registry handle, the Prometheus family and help text, and the
//! [`MetricsSnapshot`] field the series backs. `MetricsInner`'s
//! handles, their registration in the per-engine
//! [`matgpt_obs::Registry`] and `snapshot()` are all derived from that
//! listing, so the snapshot is a typed view over the registry: what
//! `perf/` and an operator read is what [`matgpt_obs::prom::render`]
//! exports (see [`crate::Engine::registry`]). Counters and gauges are
//! updated by the scheduler thread; derived gauges are refreshed where
//! their inputs change, never at scrape time.
//!
//! Latency percentiles come from bounded reservoirs: a ring buffer
//! keeps only the most recent [`TTFT_WINDOW`] /
//! [`TOKEN_LATENCY_WINDOW`] samples, so a long-lived engine holds at
//! most ~96 KiB of latency state instead of growing one `Vec` entry
//! per token forever. Percentiles are exact over that sliding window
//! (which is what a latency dashboard wants); the full-history
//! distribution still exists as the fixed-bucket `serve_*_ms`
//! histograms in the registry.

use matgpt_model::WeightPrecision;
use matgpt_obs::{Counter, Gauge, Histogram, Registry, Reservoir};
use serde_json::Value;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

pub use matgpt_obs::Percentiles;

/// Sliding-window size for time-to-first-token percentiles (one `f64`
/// per retired request: 32 KiB at the bound).
pub const TTFT_WINDOW: usize = 4096;

/// Sliding-window size for per-token decode latency percentiles (one
/// `f64` per generated token, so a larger window: 64 KiB at the bound).
pub const TOKEN_LATENCY_WINDOW: usize = 8192;

/// A latency series kept twice: the all-history histogram the registry
/// exports, and the last `W` samples for the snapshot's exact
/// percentiles.
pub(crate) struct Windowed<const W: usize> {
    hist: Histogram,
    window: Reservoir,
}

impl<const W: usize> Windowed<W> {
    fn observe(&self, ms: f64) {
        self.window.push(ms);
        self.hist.observe(ms);
    }

    fn get(&self) -> Percentiles {
        self.window.percentiles()
    }
}

/// The value of a series label (a listing row that is not a family).
pub(crate) struct Label(String);

impl Label {
    fn get(&self) -> String {
        self.0.clone()
    }
}

/// How a listing row's handle is created in the engine registry.
trait Series {
    fn register(reg: &Registry, name: &str, labels: &[(&str, &str)], help: &str) -> Self;
}

impl Series for Counter {
    fn register(reg: &Registry, name: &str, labels: &[(&str, &str)], help: &str) -> Self {
        reg.counter_with(name, labels, help)
    }
}

impl Series for Gauge {
    fn register(reg: &Registry, name: &str, labels: &[(&str, &str)], help: &str) -> Self {
        reg.gauge_with(name, labels, help)
    }
}

impl Series for Histogram {
    fn register(reg: &Registry, name: &str, labels: &[(&str, &str)], help: &str) -> Self {
        reg.histogram_with(name, labels, help, &Histogram::LATENCY_MS_BOUNDS)
    }
}

impl<const W: usize> Series for Windowed<W> {
    fn register(reg: &Registry, name: &str, labels: &[(&str, &str)], help: &str) -> Self {
        Self {
            hist: Histogram::register(reg, name, labels, help),
            window: Reservoir::new(W),
        }
    }
}

impl Series for Label {
    fn register(_: &Registry, _: &str, labels: &[(&str, &str)], _: &str) -> Self {
        Label(labels.iter().map(|(_, v)| *v).collect())
    }
}

/// Converts what a handle's `get()` returns into the snapshot field's
/// type: itself, or — gauges hold integers as `f64` — an integer.
trait ReadAs<V> {
    fn read_as(self) -> V;
}

impl<T> ReadAs<T> for T {
    fn read_as(self) -> T {
        self
    }
}

impl ReadAs<usize> for f64 {
    fn read_as(self) -> usize {
        self as usize
    }
}

impl ReadAs<u64> for f64 {
    fn read_as(self) -> u64 {
        self as u64
    }
}

/// A snapshot field of the listed type as JSON: the label as a
/// string, percentiles as their object, every number as an `f64`
/// (integral ones print without a fraction).
macro_rules! field_value {
    (String, $v:expr) => {
        Value::Str($v.clone())
    };
    (Percentiles, $v:expr) => {
        $v.to_value()
    };
    ($number:ident, $v:expr) => {
        Value::Num($v as f64)
    };
}

/// The one listing of the serve series. A row reads
///
/// ```text
/// field: Handle as SnapshotType = "family" [by precision], "help";
/// ```
///
/// and expands to the handle field of [`MetricsInner`], its
/// registration (`by precision` labels the series with the engine's
/// weight precision), the public [`MetricsSnapshot`] field of the same
/// name, its copy in `snapshot()` and its entry in `to_value()`
/// (declaration order is the JSON key order). Rows of the second block
/// have no `as`: they are exported but back no snapshot field. The help
/// text doubles as the rustdoc of both fields; `///` lines on a row add
/// to it.
macro_rules! serve_series {
    (
        {$(
            $(#[$doc:meta])*
            $field:ident: $handle:ty as $ty:ident = $name:literal $(by $label:ident)?, $help:literal;
        )*}
        {$(
            $(#[$udoc:meta])*
            $ufield:ident: $uhandle:ty = $uname:literal $(by $ulabel:ident)?, $uhelp:literal;
        )*}
    ) => {
        /// Shared mutable metrics state (engine-internal): one handle
        /// per listed series, all registered in the per-engine registry.
        pub(crate) struct MetricsInner {
            registry: Registry,
            /// Requests submitted but not yet answered. The source of
            /// truth for admission (`Engine::submit` needs a CAS against
            /// `max_queue`); the `backlog` gauge mirrors it.
            in_flight: AtomicUsize,
            /// Nanoseconds the scheduler spent inside decode iterations.
            busy_ns: AtomicU64,
            $(#[doc = $help] $(#[$doc])* pub $field: $handle,)*
            $(#[doc = $uhelp] $(#[$udoc])* pub $ufield: $uhandle,)*
        }

        impl MetricsInner {
            /// Metrics for an engine decoding at `precision` (the label
            /// on the per-precision series).
            pub fn new(precision: WeightPrecision) -> Self {
                let registry = Registry::new();
                let label = precision.label();
                $(let $field = <$handle as Series>::register(
                    &registry,
                    $name,
                    &[$((stringify!($label), label))?],
                    $help,
                );)*
                $(let $ufield = <$uhandle as Series>::register(
                    &registry,
                    $uname,
                    &[$((stringify!($ulabel), label))?],
                    $uhelp,
                );)*
                Self {
                    registry,
                    in_flight: AtomicUsize::new(0),
                    busy_ns: AtomicU64::new(0),
                    $($field,)*
                    $($ufield,)*
                }
            }

            /// Read every snapshot-backed series out of the registry.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($field: self.$field.get().read_as(),)*
                }
            }
        }

        /// A copy of the engine's metrics: a typed view over the
        /// series in [`crate::Engine::registry`].
        #[derive(Clone, Debug)]
        pub struct MetricsSnapshot {
            $(#[doc = $help] $(#[$doc])* pub $field: $ty,)*
        }

        impl MetricsSnapshot {
            /// As a JSON object, one key per field in listing order.
            pub fn to_value(&self) -> Value {
                Value::Object(vec![
                    $((stringify!($field).into(), field_value!($ty, self.$field)),)*
                ])
            }
        }

        /// The listing as data — `(family, label, help, snapshot field)`
        /// per row — for the tests that hold the exposition, the
        /// snapshot and SERVING.md §4 against it.
        #[cfg(test)]
        pub(crate) const SERIES: &[(&str, &str, &str, &str)] = &[
            $((
                $name,
                concat!($(stringify!($label))?),
                $help,
                concat!(stringify!($field), ": ", stringify!($ty)),
            ),)*
            $(($uname, concat!($(stringify!($ulabel))?), $uhelp, ""),)*
        ];
    };
}

serve_series! {{
    queue_depth: Gauge as usize = "serve_queue_depth",
        "requests admitted but not yet scheduled into the batch";
    /// Over the engine's lifetime — the sizing signal the instantaneous
    /// gauge misses between scrapes.
    queue_depth_peak: Gauge as usize = "serve_queue_depth_peak",
        "high-water mark of queue depth (queued plus preempted)";
    active: Gauge as usize = "serve_active_requests", "requests currently decoding";
    /// That is, submitted and not yet answered.
    backlog: Gauge as usize = "serve_backlog", "requests in flight anywhere in the engine";
    completed: Counter as u64 = "serve_requests_completed_total",
        "requests retired (any finish reason)";
    /// ([`crate::FinishReason::Failed`]).
    failed: Counter as u64 = "serve_requests_failed_total",
        "requests retired by an internal fault";
    generated_tokens: Counter as u64 = "serve_generated_tokens_total",
        "tokens generated across all requests";
    /// A shared forward counts once: here when it carried a decode row
    /// (prompt rows may ride next to it), under `prefill_forwards`
    /// otherwise — so the two sum to the passes over the weights.
    decode_forwards: Counter as u64 = "serve_decode_forwards_total",
        "shared forwards that carried a decode row (one pass over the weights each)";
    /// Counted by kind, whichever counter the forward went to. With
    /// `decode_forwards`, the mean decode batch.
    decode_rows: Counter as u64 = "serve_decode_rows_total",
        "decode rows (plain and speculative verify) the shared forwards carried";
    /// Forwards that carried only prompt rows: admissions while nothing
    /// was decoding.
    prefill_forwards: Counter as u64 = "serve_prefill_forwards_total",
        "shared forwards that carried prompt rows only (one pass over the weights each)";
    /// Counted by kind, whichever counter the forward went to.
    prefill_rows: Counter as u64 = "serve_prefill_rows_total",
        "prompt rows the shared forwards carried";
    /// The snapshot carries exact percentiles over the last
    /// [`TTFT_WINDOW`] retired requests.
    ttft_ms: Windowed<TTFT_WINDOW> as Percentiles = "serve_ttft_ms",
        "time to first token, milliseconds";
    /// The snapshot carries exact percentiles over the last
    /// [`TOKEN_LATENCY_WINDOW`] generated tokens.
    token_latency_ms: Windowed<TOKEN_LATENCY_WINDOW> as Percentiles = "serve_token_latency_ms",
        "per-token decode latency, milliseconds";
    /// Derived: refreshed once per scheduler iteration.
    tokens_per_sec: Gauge as f64 = "serve_tokens_per_sec",
        "generated tokens per second of scheduler busy time";
    precision: Label as String = "precision" by precision,
        "weight datatype label the engine decodes with (`f32` / `int8`)";
    /// The quantized footprint under `Int8`, the f32 footprint otherwise.
    weight_bytes: Gauge as u64 = "serve_quant_weight_bytes" by precision,
        "heap bytes of the weight store the scheduler decodes against";
    /// Paged: allocated blocks × block bytes; contiguous: the requests' visible
    /// rows × the bytes of a row across layers (`PagedKv::kv_bytes`).
    kv_bytes: Gauge as u64 = "serve_kv_bytes",
        "KV-cache bytes currently held across active requests";
    /// The engine's true KV memory requirement, independent of when the
    /// snapshot was taken — the number capacity planning cares about.
    kv_bytes_peak: Gauge as u64 = "serve_kv_bytes_peak",
        "high-water mark of KV-cache bytes held";
    /// Always 0 on the contiguous backend.
    kv_blocks_allocated: Gauge as usize = "serve_kv_blocks_allocated",
        "KV blocks currently allocated out of the paged pool";
    /// The block copies prefix sharing is avoiding right now.
    kv_blocks_shared: Gauge as usize = "serve_kv_blocks_shared",
        "extra block references held by copy-on-write prefix sharing";
    /// Preempted requests' tables plus prefix-cache entries dropped to
    /// make room (cumulative).
    kv_blocks_evicted: Counter as u64 = "serve_kv_blocks_evicted_total",
        "block references freed by memory-pressure eviction";
    kv_block_allocs: Counter as u64 = "serve_kv_block_allocs_total",
        "fresh KV block allocations out of the pool";
    /// With `kv_block_allocs`, gives the reuse ratio
    /// `shares / (allocs + shares)`.
    kv_block_shares: Counter as u64 = "serve_kv_block_shares_total",
        "KV blocks reused through copy-on-write prefix sharing";
    /// Bumped by paged KV-pool exhaustion; each one re-prefills on
    /// readmission, so this is the "wasted prefill" signal capacity
    /// planning reads next to `kv_blocks_evicted` (the blocks each bump
    /// freed).
    preemptions: Counter as u64 = "serve_preemptions_total",
        "active requests bumped back to the parking lot";
    /// Across all speculative macro-steps (0 when no request ran in
    /// speculative mode).
    spec_drafted: Counter as u64 = "serve_spec_drafted_total",
        "tokens proposed by the speculative draft model";
    spec_accepted: Counter as u64 = "serve_spec_accepted_total",
        "draft proposals accepted by the f32 verify pass";
    /// Always `spec_drafted - spec_accepted`.
    spec_rolled_back: Counter as u64 = "serve_spec_rolled_back_total",
        "draft proposals rejected and rolled back from the KV cache";
    /// Derived (0.0 before any drafting): the knob that says whether the
    /// configured draft length `k` is paying for itself.
    spec_acceptance_rate: Gauge as f64 = "serve_spec_acceptance_rate",
        "fraction of draft proposals accepted (accepted / drafted)";
} {
    /// The `token_latency_ms` samples again, as a labelled family, so
    /// one scrape can compare f32 and int8 engines side by side.
    decode_latency: Histogram = "serve_decode_latency_ms" by precision,
        "per-token decode latency by weight precision, milliseconds";
}}

impl Default for MetricsInner {
    fn default() -> Self {
        Self::new(WeightPrecision::F32)
    }
}

/// `num / den`, or 0 while the denominator is still empty.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl MetricsInner {
    /// The engine's metric registry (for Prometheus exposition).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Record one scheduler iteration's speculative outcome: `drafted`
    /// proposals made, `accepted` of them kept, `rolled_back` rejected
    /// out of the target KV cache. Scheduler-thread only, so the
    /// acceptance gauge is derived from settled counters.
    pub fn record_spec(&self, drafted: u64, accepted: u64, rolled_back: u64) {
        self.spec_drafted.add(drafted);
        self.spec_accepted.add(accepted);
        self.spec_rolled_back.add(rolled_back);
        self.spec_acceptance_rate.set(ratio(
            self.spec_accepted.get() as f64,
            self.spec_drafted.get() as f64,
        ));
    }

    /// Record the scheduler's view of pending work (the parking lot:
    /// queued plus preempted), tracking the lifetime high-water mark
    /// alongside the instantaneous gauge. Scheduler-thread only, so the
    /// read-modify on the peak gauge is race-free.
    pub fn record_queue_depth(&self, depth: usize) {
        let d = depth as f64;
        self.queue_depth.set(d);
        if d > self.queue_depth_peak.get() {
            self.queue_depth_peak.set(d);
        }
    }

    /// Record current KV-cache occupancy (bytes held, pool blocks
    /// allocated, extra shared references), tracking the bytes peak.
    /// Scheduler-thread only.
    pub fn record_kv_usage(&self, bytes: usize, blocks_allocated: usize, blocks_shared: usize) {
        let b = bytes as f64;
        self.kv_bytes.set(b);
        if b > self.kv_bytes_peak.get() {
            self.kv_bytes_peak.set(b);
        }
        self.kv_blocks_allocated.set(blocks_allocated as f64);
        self.kv_blocks_shared.set(blocks_shared as f64);
    }

    /// Atomically claim an in-flight slot if fewer than `capacity` are
    /// taken. Admission control for `Engine::submit`.
    pub fn try_claim_slot(&self, capacity: usize) -> bool {
        let claimed = self
            .in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |b| {
                (b < capacity).then_some(b + 1)
            })
            .is_ok();
        if claimed {
            self.backlog
                .set(self.in_flight.load(Ordering::Relaxed) as f64);
        }
        claimed
    }

    /// Release an in-flight slot (request answered or bounced).
    pub fn release_slot(&self) {
        let prev = self.in_flight.fetch_sub(1, Ordering::AcqRel);
        self.backlog.set(prev.saturating_sub(1) as f64);
    }

    pub fn record_ttft(&self, d: Duration) {
        self.ttft_ms.observe(d.as_secs_f64() * 1e3);
    }

    pub fn record_token_latency(&self, d: Duration) {
        let ms = d.as_secs_f64() * 1e3;
        self.token_latency_ms.observe(ms);
        self.decode_latency.observe(ms);
    }

    /// Add one scheduler iteration's wall time and refresh the derived
    /// throughput gauge (the iteration's tokens are already counted).
    pub fn record_busy(&self, d: Duration) {
        let d = d.as_nanos() as u64;
        let busy_s = (self.busy_ns.fetch_add(d, Ordering::Relaxed) + d) as f64 * 1e-9;
        self.tokens_per_sec
            .set(ratio(self.generated_tokens.get() as f64, busy_s));
    }
}

impl MetricsSnapshot {
    /// As compact JSON text (an empty object if printing ever fails —
    /// scraping must not bring the engine down).
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_value()).unwrap_or_else(|_| String::from("{}"))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn snapshot_serialises_to_json() {
        let inner = MetricsInner::default();
        inner.generated_tokens.add(7);
        inner.record_ttft(Duration::from_millis(12));
        inner.record_token_latency(Duration::from_millis(3));
        inner.record_busy(Duration::from_millis(70));
        let snap = inner.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"generated_tokens\":7"), "{json}");
        assert!(json.contains("tokens_per_sec"), "{json}");
        assert!(snap.tokens_per_sec > 0.0);
    }

    #[test]
    fn latency_memory_is_bounded_with_sliding_percentiles() {
        let inner = MetricsInner::default();
        // three windows' worth of samples: memory must not grow past
        // the bound, and percentiles must reflect the recent window
        for i in 0..(3 * TTFT_WINDOW) {
            inner.record_ttft(Duration::from_micros(i as u64));
        }
        let p = inner.snapshot().ttft_ms;
        assert_eq!(p.count, TTFT_WINDOW, "reservoir exceeded its bound");
        // the oldest two windows were evicted: all retained samples are
        // >= 2*TTFT_WINDOW µs = 2*TTFT_WINDOW/1000 ms
        let floor_ms = (2 * TTFT_WINDOW) as f64 / 1000.0;
        assert!(p.p50 >= floor_ms, "p50 {} below window floor", p.p50);
    }

    #[test]
    fn registry_exposes_all_serving_series() {
        let inner = MetricsInner::default();
        inner.record_ttft(Duration::from_millis(5));
        inner.completed.inc();
        let text = matgpt_obs::prom::render(inner.registry());
        let families = matgpt_obs::prom::parse(&text).expect("exposition parses");
        // the one listing, minus its label row, is exactly what renders
        let listed: Vec<&str> = SERIES
            .iter()
            .map(|row| row.0)
            .filter(|name| name.starts_with("serve_"))
            .collect();
        assert_eq!(listed.len(), SERIES.len() - 1, "one label row: `precision`");
        for name in &listed {
            assert!(
                families.iter().any(|f| f.name == *name),
                "family `{name}` missing:\n{text}"
            );
        }
        assert_eq!(families.len(), listed.len(), "unlisted family:\n{text}");
    }

    /// The value of an unlabelled-or-labelled counter/gauge sample line.
    pub(crate) fn scrape(text: &str, name: &str) -> f64 {
        text.lines()
            .find_map(|l| {
                let rest = l.strip_prefix(name)?;
                let rest = rest
                    .strip_prefix('{')
                    .map_or(Some(rest), |r| Some(r.split_once('}')?.1));
                rest?.strip_prefix(' ')?.parse().ok()
            })
            .unwrap_or_else(|| panic!("no sample for `{name}`:\n{text}"))
    }

    #[test]
    fn derived_gauges_are_fresh_at_scrape_without_a_snapshot() {
        let inner = MetricsInner::default();
        inner.generated_tokens.add(7);
        inner.record_busy(Duration::from_millis(70));
        inner.record_spec(4, 3, 1);
        // no `snapshot()` anywhere: a scraper reads the registry alone
        let text = matgpt_obs::prom::render(inner.registry());
        assert!(
            (scrape(&text, "serve_tokens_per_sec") - 100.0).abs() < 1e-9,
            "{text}"
        );
        assert_eq!(scrape(&text, "serve_spec_acceptance_rate"), 0.75, "{text}");
    }

    #[test]
    fn snapshot_json_keys_are_pinned() {
        // `perf/` and dashboards read these names: a rename must fail
        // here, in tier-1's crate tests, not in the benchmark
        let json = MetricsInner::default().snapshot().to_value();
        let keys: Vec<&str> = json
            .as_object()
            .expect("snapshot serialises to an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "queue_depth",
                "queue_depth_peak",
                "active",
                "backlog",
                "completed",
                "failed",
                "generated_tokens",
                "decode_forwards",
                "decode_rows",
                "prefill_forwards",
                "prefill_rows",
                "ttft_ms",
                "token_latency_ms",
                "tokens_per_sec",
                "precision",
                "weight_bytes",
                "kv_bytes",
                "kv_bytes_peak",
                "kv_blocks_allocated",
                "kv_blocks_shared",
                "kv_blocks_evicted",
                "kv_block_allocs",
                "kv_block_shares",
                "preemptions",
                "spec_drafted",
                "spec_accepted",
                "spec_rolled_back",
                "spec_acceptance_rate",
            ]
        );
    }

    #[test]
    fn snapshot_json_bytes_are_pinned() {
        // key order, integers without a fraction, shortest-roundtrip
        // floats, the nested percentile objects
        let snap = MetricsSnapshot {
            queue_depth_peak: 12,
            completed: 3,
            generated_tokens: 1 << 40,
            ttft_ms: Percentiles {
                p50: 12.5,
                p95: 0.1 + 0.2,
                p99: 1e-7,
                count: 4096,
            },
            tokens_per_sec: 99.75,
            weight_bytes: 369_098_752,
            spec_acceptance_rate: 2.0 / 3.0,
            ..MetricsInner::new(WeightPrecision::Int8).snapshot()
        };
        assert_eq!(
            snap.to_json(),
            concat!(
                r#"{"queue_depth":0,"queue_depth_peak":12,"active":0,"backlog":0,"completed":3,"failed":0,"#,
                r#""generated_tokens":1099511627776,"decode_forwards":0,"decode_rows":0,"#,
                r#""prefill_forwards":0,"prefill_rows":0,"#,
                r#""ttft_ms":{"p50":12.5,"p95":0.30000000000000004,"p99":0.0000001,"count":4096},"#,
                r#""token_latency_ms":{"p50":0,"p95":0,"p99":0,"count":0},"tokens_per_sec":99.75,"#,
                r#""precision":"int8","weight_bytes":369098752,"kv_bytes":0,"kv_bytes_peak":0,"#,
                r#""kv_blocks_allocated":0,"kv_blocks_shared":0,"kv_blocks_evicted":0,"#,
                r#""kv_block_allocs":0,"kv_block_shares":0,"preemptions":0,"spec_drafted":0,"#,
                r#""spec_accepted":0,"spec_rolled_back":0,"spec_acceptance_rate":0.6666666666666666}"#
            )
        );
    }

    /// SERVING.md §4's table, rendered from the listing (kinds from the
    /// live registry, so the table cannot disagree with the exposition).
    fn series_table() -> String {
        let kinds = MetricsInner::default().registry().names();
        let mut md = String::from(
            "| series | kind | `MetricsSnapshot` field | meaning |\n|---|---|---|---|\n",
        );
        for (name, label, help, field) in SERIES {
            let kind = kinds
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, k)| k.prom_type());
            let series = match (kind, label.is_empty()) {
                (Some(_), false) => format!("{name}{{{label}}}"),
                _ => name.to_string(),
            };
            let field = if field.is_empty() {
                "—".to_string()
            } else {
                format!("`{field}`")
            };
            let kind = kind.unwrap_or("label");
            md += &format!("| `{series}` | {kind} | {field} | {help} |\n");
        }
        md
    }

    #[test]
    fn serving_md_carries_the_series_table() {
        let md = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../SERVING.md"))
            .expect("read SERVING.md");
        let table = series_table();
        // the whole table, first row to last: a row dropped from either
        // end of the listing must not pass as a substring
        let header = table.lines().next().unwrap();
        let in_md: String = md
            .lines()
            .skip_while(|l| *l != header)
            .take_while(|l| l.starts_with('|'))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(
            in_md, table,
            "SERVING.md §4 differs from the `serve_series!` listing; paste:\n{table}"
        );
    }

    #[test]
    fn peaks_outlive_the_load_that_set_them() {
        let inner = MetricsInner::default();
        inner.record_queue_depth(12);
        inner.record_kv_usage(4096, 4, 1);
        inner.record_queue_depth(3);
        inner.record_kv_usage(1024, 1, 0);
        let snap = inner.snapshot();
        assert_eq!(snap.queue_depth, 3);
        assert_eq!(snap.queue_depth_peak, 12);
        assert_eq!(snap.kv_bytes, 1024);
        assert_eq!(snap.kv_bytes_peak, 4096);
        assert_eq!(snap.kv_blocks_allocated, 1);
        assert_eq!(snap.kv_blocks_shared, 0);
    }

    #[test]
    fn spec_counters_derive_the_acceptance_rate() {
        let inner = MetricsInner::default();
        let before = inner.snapshot();
        assert_eq!(before.spec_drafted, 0);
        assert_eq!(before.spec_acceptance_rate, 0.0);
        inner.record_spec(4, 3, 1);
        inner.record_spec(4, 1, 3);
        let snap = inner.snapshot();
        assert_eq!(snap.spec_drafted, 8);
        assert_eq!(snap.spec_accepted, 4);
        assert_eq!(snap.spec_rolled_back, 4);
        assert_eq!(snap.spec_acceptance_rate, 0.5);
        assert_eq!(
            snap.spec_rolled_back,
            snap.spec_drafted - snap.spec_accepted,
            "rollback invariant"
        );
    }

    #[test]
    fn slot_claims_respect_capacity_and_mirror_gauge() {
        let inner = MetricsInner::default();
        assert!(inner.try_claim_slot(2));
        assert!(inner.try_claim_slot(2));
        assert!(!inner.try_claim_slot(2), "third claim must bounce");
        inner.release_slot();
        assert!(inner.try_claim_slot(2));
        assert_eq!(inner.snapshot().backlog, 2);
    }
}
