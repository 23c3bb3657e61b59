//! The metric names this benchmark speaks in, and how a run's results
//! are printed and written.
//!
//! `END_TO_END` and `PER_LAYER` are the single list of names; a unit
//! test holds `../BENCHMARK.json` to them. A per-layer metric that does
//! not apply to a workload (speculation counters on a plain workload,
//! collective times without collectives) is reported as 0.

use crate::host::Fingerprint;
use crate::stats::Summary;
use serde_json::Value;
use std::collections::BTreeMap;

/// `(name, unit, better, bound, target)`: what a user of the system
/// would see; the five timings are what a unit costs undisturbed
/// (`stats::undisturbed`) at the reference host speed
/// (`host::slowdown`). `bound` is the share of the parent's median a
/// metric may worsen by, as `BENCHMARK.json` states it. `target` is the bound the
/// issue that defined this benchmark asked for; on the shared 2-vCPU
/// host the medians of ten runs spread further than that (README.md,
/// "A/A"), so a difference between `target` and `bound` is reported as
/// unresolved: neither a regression nor evidence of none.
pub const END_TO_END: [(&str, &str, &str, f64, f64); 7] = [
    ("setup_s", "s", "lower", 0.25, 0.10),
    ("train_tok_s", "tok/s", "higher", 0.25, 0.05),
    ("serve_tok_s", "tok/s", "higher", 0.25, 0.05),
    ("ttft_ms", "ms", "lower", 0.25, 0.05),
    ("tpot_ms", "ms", "lower", 0.25, 0.05),
    ("rss_peak_mib", "MiB", "lower", 0.10, 0.02),
    ("kv_peak_mib", "MiB", "lower", 0.02, 0.02),
];

/// `(name, unit, better)` per layer; the layer is the prefix before the
/// first dot and is a crate of this repository (`bench` = the harness).
pub const PER_LAYER: [(&str, &str, &str); 77] = [
    ("bench.pool_workers", "count", "lower"),
    ("bench.calib_p50_ms", "ms", "lower"),
    ("bench.calib_spread_share", "share", "lower"),
    ("bench.stream_gbs_s", "GB/s", "higher"),
    ("bench.stream_gbs_d", "GB/s", "higher"),
    ("bench.units_train", "count", "higher"),
    ("bench.units_serve", "count", "higher"),
    ("tokenizer.train_ms", "ms", "lower"),
    ("tokenizer.encode_mtok_s", "Mtok/s", "higher"),
    ("corpus.dataset_build_ms", "ms", "lower"),
    ("corpus.batch_us", "us", "lower"),
    ("tensor.matmul_m1_gbs", "GB/s", "higher"),
    ("tensor.matmul_small_m_gbs", "GB/s", "higher"),
    ("tensor.matmul_q8a8_gops", "GOP/s", "higher"),
    ("tensor.matmul_train_gflops", "GFLOP/s", "higher"),
    ("tensor.matmul_bt_acc_gflops", "GFLOP/s", "higher"),
    ("tensor.matmul_at_acc_gflops", "GFLOP/s", "higher"),
    ("tensor.attn_fwd_ms", "ms", "lower"),
    ("tensor.attn_bwd_ms", "ms", "lower"),
    ("tensor.cached_attn_us", "us", "lower"),
    ("tensor.paged_attn_us", "us", "lower"),
    ("tensor.flops_per_train_step", "count", "lower"),
    ("tensor.bytes_per_decode_token", "count", "lower"),
    ("model.init_ms", "ms", "lower"),
    ("model.quantize_ms", "ms", "lower"),
    ("model.prefill_ms", "ms", "lower"),
    ("model.decode_step_ms", "ms", "lower"),
    ("model.spec_step_ms", "ms", "lower"),
    ("model.spec_tokens_per_step", "tok", "higher"),
    ("model.loss_fwd_ms", "ms", "lower"),
    ("model.loss_bwd_ms", "ms", "lower"),
    ("optim.step_ms", "ms", "lower"),
    ("optim.state_mib", "MiB", "lower"),
    ("core.step_p50_ms", "ms", "lower"),
    ("core.step_p90_ms", "ms", "lower"),
    ("core.step_iqr_share", "share", "lower"),
    ("core.data_ms", "ms", "lower"),
    ("core.forward_ms", "ms", "lower"),
    ("core.backward_ms", "ms", "lower"),
    ("core.optimizer_ms", "ms", "lower"),
    ("core.step_accounted_share", "share", "higher"),
    ("core.dp2_call_ms", "ms", "lower"),
    ("core.tp2_call_ms", "ms", "lower"),
    ("core.pp2_call_ms", "ms", "lower"),
    ("core.comm_wait_ms", "ms", "lower"),
    ("core.wire_mib_step", "MiB", "lower"),
    ("core.wire_exact", "count", "higher"),
    ("core.zero1_call_ms", "ms", "lower"),
    ("core.opt_state_mib_max", "MiB", "lower"),
    ("core.loss_probe", "nats", "lower"),
    ("serve.engine_new_ms", "ms", "lower"),
    ("serve.ttft_p90_ms", "ms", "lower"),
    ("serve.tpot_p90_ms", "ms", "lower"),
    ("serve.wave_p50_ms", "ms", "lower"),
    ("serve.wave_iqr_share", "share", "lower"),
    ("serve.busy_tok_s", "tok/s", "higher"),
    ("serve.queue_depth_peak", "count", "lower"),
    ("serve.sched_overhead_share", "share", "lower"),
    ("serve.streams_per_gap", "count", "lower"),
    ("serve.ttft_shared_p50_ms", "ms", "lower"),
    ("serve.ttft_unique_p50_ms", "ms", "lower"),
    ("serve.prefix_reuse_share", "share", "higher"),
    ("serve.kv_block_allocs", "count", "lower"),
    ("serve.kv_block_shares", "count", "higher"),
    ("serve.kv_blocks_evicted", "count", "lower"),
    ("serve.preemptions", "count", "lower"),
    ("serve.kv_pool_util_peak", "share", "higher"),
    ("serve.kvpool_fork_us", "us", "lower"),
    ("serve.kvpool_reserve_us", "us", "lower"),
    ("serve.spec_acceptance", "share", "higher"),
    ("serve.spec_drafted", "count", "lower"),
    ("serve.spec_rolled_back", "count", "lower"),
    ("serve.requests_attempted", "count", "higher"),
    ("serve.requests_failed", "count", "lower"),
    ("obs.spans_recorded", "count", "lower"),
    ("obs.trace_valid", "count", "higher"),
    ("obs.trace_overhead_share", "share", "lower"),
];

/// Per-layer metrics that are counts made by the program over a fixed
/// number of operations: for one seed they must repeat exactly, and
/// `aa.sh` fails when they do not.
pub const EXACT_COUNTS: [&str; 12] = [
    "bench.pool_workers",
    "core.wire_mib_step",
    "core.wire_exact",
    "core.opt_state_mib_max",
    "core.loss_probe",
    "serve.kv_block_allocs",
    "serve.kv_block_shares",
    "serve.kv_blocks_evicted",
    "serve.preemptions",
    "serve.spec_drafted",
    "serve.spec_rolled_back",
    "serve.spec_acceptance",
];

/// Everything one run produced.
pub struct RunReport {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub fingerprint: Fingerprint,
    /// `host::slowdown` of this run: the end-to-end timings were divided
    /// by it and the rates multiplied by it; `timings` were not.
    pub host_slowdown: f64,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or check, by name.
    pub failed_checks: Vec<String>,
    /// Values for `END_TO_END` (untraced run) or `PER_LAYER` (traced).
    pub metrics: BTreeMap<&'static str, f64>,
    pub timings: Vec<(&'static str, Summary)>,
    /// `(span, count, total ms, self ms)` of the traced run.
    pub spans: Vec<(String, u64, f64, f64)>,
}

fn num(v: f64) -> Value {
    Value::Num(v)
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn units(&self) -> Vec<(&'static str, &'static str)> {
        if self.trace {
            PER_LAYER.iter().map(|&(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.iter().map(|&(n, u, _, _, _)| (n, u)).collect()
        }
    }

    fn metrics_value(&self) -> Value {
        Value::Object(
            self.units()
                .into_iter()
                .map(|(name, unit)| {
                    let value = self.metrics.get(name).copied().unwrap_or(0.0);
                    (
                        name.to_string(),
                        object(vec![("value", num(value)), ("unit", text(unit))]),
                    )
                })
                .collect(),
        )
    }

    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics` (plus `smoke` on a smoke run,
    /// which is never comparable to a full one).
    pub fn result_line(&self) -> String {
        let mut fields = vec![
            ("correct", Value::Bool(self.correct())),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            ("metrics", self.metrics_value()),
        ];
        if self.smoke {
            fields.push(("smoke", Value::Bool(true)));
        }
        serde_json::to_string(&object(fields)).expect("a Value always serialises")
    }

    /// The full record written under `target/perf/`.
    pub fn to_json(&self) -> String {
        let fp = &self.fingerprint;
        let fingerprint = object(vec![
            ("nproc", num(fp.nproc as f64)),
            ("cpu_model", text(&fp.cpu_model)),
            ("avx2", Value::Bool(fp.avx2)),
            ("avx512f", Value::Bool(fp.avx512f)),
            ("avx512_vnni", Value::Bool(fp.avx512_vnni)),
            (
                "caches",
                Value::Object(
                    fp.caches
                        .iter()
                        .map(|(k, v)| (k.clone(), text(v)))
                        .collect(),
                ),
            ),
            ("load_1m", num(fp.load_1m)),
            ("git_head", text(&fp.git_head)),
            ("rustc", text(&fp.rustc)),
        ]);
        let timings = Value::Object(
            self.timings
                .iter()
                .map(|(name, s)| {
                    let tail = match s.tail {
                        Some((pct, v)) => {
                            object(vec![("percentile", num(pct as f64)), ("value", num(v))])
                        }
                        None => Value::Null,
                    };
                    (
                        name.to_string(),
                        object(vec![
                            ("n", num(s.n as f64)),
                            ("undisturbed", num(s.undisturbed)),
                            ("median", num(s.median)),
                            ("tail", tail),
                        ]),
                    )
                })
                .collect(),
        );
        let spans = Value::Array(
            self.spans
                .iter()
                .map(|(name, count, total, own)| {
                    object(vec![
                        ("span", text(name)),
                        ("count", num(*count as f64)),
                        ("total_ms", num(*total)),
                        ("self_ms", num(*own)),
                    ])
                })
                .collect(),
        );
        let doc = object(vec![
            ("workload", text(self.workload)),
            ("seed", num(self.seed as f64)),
            ("seconds", num(self.seconds)),
            ("trace", Value::Bool(self.trace)),
            ("smoke", Value::Bool(self.smoke)),
            ("fingerprint", fingerprint),
            ("host_slowdown", num(self.host_slowdown)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            (
                "failed_checks",
                Value::Array(self.failed_checks.iter().map(|s| text(s)).collect()),
            ),
            ("metrics", self.metrics_value()),
            ("timings", timings),
            ("spans", spans),
        ]);
        serde_json::to_string_pretty(&doc).expect("a Value always serialises")
    }

    /// The table a person reads, on stderr so stdout ends with the
    /// result line.
    pub fn print_table(&self) {
        eprintln!(
            "\n== {} seed {} {:.0} s{}{} ==",
            self.workload,
            self.seed,
            self.seconds,
            if self.trace { " traced" } else { "" },
            if self.smoke {
                " SMOKE (not comparable)"
            } else {
                ""
            },
        );
        for (name, unit) in self.units() {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            eprintln!("  {name:<32} {v:>16.4} {unit}");
        }
        eprintln!(
            "  -- host slowdown {:.4} (undisturbed calibration spin / {} ms){}",
            self.host_slowdown,
            crate::host::CALIB_REFERENCE_MS,
            if self.trace {
                ""
            } else {
                ": timings above are divided by it, rates multiplied"
            }
        );
        eprintln!(
            "  -- timings as the clock read them: n, undisturbed (p10 of >= 20 samples), median, highest percentile with >= 10 samples beyond it"
        );
        for (name, s) in &self.timings {
            let tail = s
                .tail
                .map_or_else(|| "-".to_string(), |(p, v)| format!("p{p} {v:.4}"));
            eprintln!(
                "  {name:<24} n={:<6} {:<12.4} p50 {:<12.4} {tail}",
                s.n, s.undisturbed, s.median
            );
        }
        if !self.spans.is_empty() {
            eprintln!("  -- spans of the traced rounds: count, total ms, self ms");
            for (name, count, total, own) in &self.spans {
                eprintln!("  {name:<32} {count:>8} {total:>14.3} {own:>14.3}");
            }
        }
        eprintln!(
            "  attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for line in &self.failed_checks {
            eprintln!("  FAILED: {line}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .chain(crate::workload::WORKLOADS.iter().map(|w| (w.name, "s")));
        for (name, unit) in names {
            assert!(well_formed(name), "bad metric name `{name}`");
            assert!(seen.insert(name), "`{name}` is used twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit `{unit}`"
            );
        }
        for name in EXACT_COUNTS {
            assert!(
                PER_LAYER.iter().any(|m| m.0 == name),
                "`{name}` is not a metric"
            );
        }
        for (_, _, better, bound, target) in END_TO_END {
            assert!(matches!(better, "lower" | "higher"));
            assert!(bound > 0.0 && bound <= 0.25 && target <= bound);
        }
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// tables above and to the workload list.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value =
            serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
        let list = |key: &str| doc.get(key).and_then(Value::as_array).expect(key).to_vec();
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).map(String::from);

        let e2e: Vec<_> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name").unwrap(),
                    field(m, "unit").unwrap(),
                    field(m, "better").unwrap(),
                    m.get("bound").and_then(Value::as_f64).unwrap(),
                )
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u, b, x, _)| (n.to_string(), u.to_string(), b.to_string(), x))
            .collect();
        assert_eq!(e2e, want);

        let layers: Vec<_> = list("per_layer")
            .iter()
            .map(|m| {
                (
                    field(m, "name").unwrap(),
                    field(m, "unit").unwrap(),
                    field(m, "better").unwrap(),
                )
            })
            .collect();
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(layers, want);

        let workloads: Vec<_> = list("workloads")
            .iter()
            .map(|w| (field(w, "name").unwrap(), field(w, "why").unwrap()))
            .collect();
        let want: Vec<_> = crate::workload::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, want);
    }
}
