#![warn(missing_docs)]

//! # matgpt-serve
//!
//! Continuous-batching inference engine over the `matgpt-model`
//! KV-cached decode path.
//!
//! * [`Engine`] — facade: spawn over a model, [`Engine::submit`]
//!   returns a [`ResponseHandle`] immediately, one scheduler thread
//!   batches everything in flight;
//! * [`scheduler`] — iteration-level continuous batching: FIFO
//!   token-budget admission, batched prefill, one decoded token per
//!   active request per iteration (or up to `k + 1` per iteration under
//!   [`DecodeMode::Speculative`] int8 self-draft), deadline/cancel
//!   enforcement;
//! * [`request`] — [`GenRequest`] / [`Response`] / [`FinishReason`] and
//!   the client-side handle;
//! * [`metrics`] — queue depth, TTFT and per-token latency percentiles
//!   (bounded sliding-window reservoirs), decode throughput; every
//!   series lives in a per-engine `matgpt-obs` registry
//!   ([`Engine::registry`]) for Prometheus exposition. With the
//!   global `matgpt-obs` recorder enabled, the scheduler also traces
//!   per-request queued/prefill/decode lifecycles and its own batch
//!   iterations into the shared Chrome-trace timeline.
//!
//! The public submit/wait/shutdown surface is **panic-free**: rejected
//! submissions are typed [`EngineError`]s (shut down, queue full, empty
//! prompt), admission is bounded by `max_queue` backpressure, and a
//! model forward that panics fails only its own request
//! ([`FinishReason::Failed`]) while the rest of the batch keeps
//! decoding.
//!
//! ```no_run
//! use matgpt_serve::{Engine, EngineConfig};
//! # let (model, store): (matgpt_model::GptModel, matgpt_tensor::ParamStore) = todo!();
//! let engine = Engine::new(model, store, EngineConfig::default());
//! let handle = engine.submit(&[1, 2, 3], Default::default()).expect("admitted");
//! let response = handle.wait().unwrap();
//! println!("{} tokens, {:?}", response.generated, response.finish);
//! println!("{}", engine.metrics().to_json());
//! engine.shutdown();
//! ```

pub mod engine;
pub mod kvpool;
pub mod metrics;
pub mod request;
pub mod scheduler;

pub use engine::{Engine, EngineConfig, EngineError};
pub use kvpool::{BlockPool, KvBlockConfig, KvExhausted, PagedKv, PoolStats, PrefixCache};
pub use matgpt_model::WeightPrecision;
pub use metrics::{MetricsSnapshot, Percentiles};
pub use request::{FinishReason, GenRequest, Response, ResponseHandle};
pub use scheduler::{DecodeMode, KvBackend, SchedulerConfig};
