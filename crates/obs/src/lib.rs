#![warn(missing_docs)]

//! # matgpt-obs
//!
//! The unified observability layer behind the repo's rocprof / OmniTrace /
//! rocm-smi substitutes: one tracing/metrics core that the trainer
//! (`matgpt-core`), the serving engine (`matgpt-serve`) and the Frontier
//! simulator (`matgpt-frontier-sim`) all feed, and two exporters that
//! turn what they recorded into standard artefacts:
//!
//! * [`trace`] — RAII [`Span`] scopes with a thread-local span stack,
//!   buffered into a lock-cheap global [`Recorder`]; manual
//!   [`TraceEvent`]s for sources with their own clock (per-request
//!   serving tracks, simulated timelines);
//! * [`metrics`] — a typed [`Registry`] of [`Counter`]s, [`Gauge`]s,
//!   fixed-bucket [`Histogram`]s (p50/p95/p99 by bucket interpolation)
//!   and bounded [`Reservoir`]s (exact percentiles over a sliding
//!   window);
//! * [`chrome`] — Chrome trace-event JSON (`ph:"X"` complete events,
//!   `ph:"M"` process/thread names, and `ph:"s"/"t"/"f"` flow arrows),
//!   openable in Perfetto or `chrome://tracing`, with a
//!   [`chrome::validate`] checker;
//! * [`prom`] — Prometheus text exposition with a round-trip
//!   [`prom::parse`] checker;
//! * [`flow`] — step-scoped correlation ids: ring send→recv hops and
//!   serve request lifecycles become causal arrows in the trace, both
//!   endpoints deriving the same id without communicating;
//! * [`flight`] — the always-on flight recorder: a bounded per-thread
//!   ring of compact events that keeps recording when the full
//!   [`Recorder`] is off, and a [`flight::Postmortem`] bundle
//!   (trace + manifest + metrics) dumped when a rank dies;
//! * [`critical_path`] — per-step critical-path attribution over spans
//!   and flow edges: which rank straggled, which phase dominated, and
//!   whether the measured phase ordering matches the simulator's.
//!
//! Everything is `std` + `serde_json` only — no clocks beyond
//! `std::time::Instant`, no background threads, no I/O: callers decide
//! where `trace.json` / `metrics.prom` land.
//!
//! ```
//! use matgpt_obs::{Recorder, Registry, Span, pids};
//!
//! let rec = Recorder::new();
//! rec.enable();
//! {
//!     let _outer = Span::enter_in(&rec, pids::TRAINER, "train", "step");
//!     let _inner = Span::enter_in(&rec, pids::TRAINER, "train", "forward");
//! } // spans record on drop
//! matgpt_obs::flush_thread_to(&rec);
//! let json = rec.to_chrome_json();
//! assert!(matgpt_obs::chrome::validate(&json).unwrap().complete_events >= 2);
//!
//! let reg = Registry::new();
//! reg.counter("steps_total", "optimizer steps").inc();
//! let text = matgpt_obs::prom::render(&reg);
//! assert!(matgpt_obs::prom::parse(&text).is_ok());
//! ```

pub mod chrome;
pub mod critical_path;
pub mod flight;
pub mod flow;
pub mod metrics;
pub mod prom;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, MetricKind, Percentiles, Registry, Reservoir};
pub use trace::{
    flush_thread, flush_thread_to, pids, thread_tid, FlowEvent, FlowPhase, Recorder, Span,
    TraceEvent,
};
