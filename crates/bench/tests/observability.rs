//! The unified-trace experiment at smoke scale, then its artifacts
//! re-read from disk as an operator would: the same `chrome::validate`
//! / `prom::parse` the repo ships, no python on the PATH.
//!
//! Alone in its process: the experiment owns the global recorder.

use matgpt_bench::experiments::{ext_observability, Ctx};
use matgpt_obs::{chrome, pids, prom};

#[test]
fn unified_trace_and_exposition_validate_from_disk() {
    let art = ext_observability::run(&Ctx::new(true)).expect("ext_observability");
    let read = |name: &str| std::fs::read_to_string(art.dir.join(name)).expect(name);

    let stats = chrome::validate(&read("trace.json")).expect("trace.json");
    for pid in [pids::TRAINER, pids::SERVE, pids::SIM] {
        assert!(
            stats.events_per_pid.get(&pid).copied().unwrap_or(0) > 0,
            "no events from source `{}`",
            pids::name(pid)
        );
    }
    // every serve request carried a causal flow arrow through its
    // queued → prefill → decode lifecycle; all must be complete
    assert!(stats.flow_events > 0, "causal arrows missing");
    assert!(
        stats.flow_ids_complete >= 2 * art.requests_per_precision,
        "{} complete flow arrows for 2 x {} requests",
        stats.flow_ids_complete,
        art.requests_per_precision
    );

    let text = read("metrics.prom");
    let families = prom::parse(&text).expect("metrics.prom");
    for family in [
        "trainer_loss",
        "trainer_steps_total",
        "trainer_tokens_per_sec",
        "sim_rccl_calls_total",
        "sim_step_seconds",
        "serve_requests_completed_total",
        "serve_ttft_ms",
        "serve_token_latency_ms",
        "serve_quant_weight_bytes",
        "serve_decode_latency_ms",
    ] {
        assert!(
            families.iter().any(|f| f.name == family),
            "metric family `{family}` missing from exposition"
        );
    }
    for label in ["precision=\"f32\"", "precision=\"int8\""] {
        assert!(text.contains(label), "exposition lacks a {label} series");
    }
}
