//! The [`Engine`] facade: owns the scheduler thread and hands out
//! [`ResponseHandle`]s.
//!
//! The public submit/wait/shutdown surface is panic-free: every fallible
//! condition (engine shut down, queue full, empty prompt) is a typed
//! [`EngineError`], and model-side panics are isolated by the scheduler
//! — per shared forward, prefill and decode rows alike (see
//! [`crate::scheduler`]) — rather than propagated.

use crate::metrics::{MetricsInner, MetricsSnapshot};
use crate::request::{GenRequest, ResponseHandle, Submission};
use crate::scheduler::{self, SchedulerConfig};
use crossbeam::channel::{self, Sender};
use matgpt_model::kv::KvBlockConfig;
use matgpt_model::{GptModel, SampleOptions};
use matgpt_tensor::ParamStore;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Engine construction parameters.
pub type EngineConfig = SchedulerConfig;

/// Why a submission was rejected (typed, never a panic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// [`Engine::shutdown`] has run (or the scheduler is gone); the
    /// engine accepts no further work.
    ShutDown,
    /// Admission control: `max_queue` requests are already in flight.
    /// Back off and retry, or shed the request.
    QueueFull {
        /// The configured in-flight bound that was hit.
        capacity: usize,
    },
    /// The prompt was empty; there is nothing to prefill.
    EmptyPrompt,
    /// Paged backend only: the request's worst-case KV footprint
    /// exceeds the whole block pool, so it could never be scheduled —
    /// not even alone. Raise `num_blocks` or shrink the request.
    /// (Transient pool pressure is NOT an error: the scheduler evicts
    /// and preempts to make room.)
    KvExhausted {
        /// Blocks the request could need at its longest.
        needed_blocks: usize,
        /// Total blocks the pool holds.
        pool_blocks: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ShutDown => write!(f, "engine is shut down"),
            EngineError::QueueFull { capacity } => {
                write!(f, "queue full: {capacity} requests already in flight")
            }
            EngineError::EmptyPrompt => write!(f, "prompt must be non-empty"),
            EngineError::KvExhausted {
                needed_blocks,
                pool_blocks,
            } => write!(
                f,
                "request needs up to {needed_blocks} KV blocks but the pool \
                 holds only {pool_blocks}"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// A continuous-batching inference engine over one model.
///
/// `submit` is thread-safe and non-blocking: requests queue into the
/// scheduler thread, which batches prefill and decode across everything
/// in flight. [`Engine::shutdown`] (or dropping the engine) stops
/// intake, lets in-flight requests finish, then joins the scheduler.
pub struct Engine {
    /// `None` after shutdown — the panic-free replacement for the old
    /// "engine running" invariant.
    tx: Mutex<Option<Sender<Submission>>>,
    worker: Mutex<Option<JoinHandle<()>>>,
    metrics: Arc<MetricsInner>,
    cfg: EngineConfig,
    /// The model's attention window — with `cfg.kv_backend`'s block
    /// geometry, the submit-time never-schedulable check.
    max_seq: usize,
    next_id: AtomicU64,
}

/// Blocks a paged pool of geometry `bc` holds: none when its blocks
/// hold no rows, as when it has no blocks. The scheduler's
/// [`BlockPool`](matgpt_model::kv::BlockPool) refuses such a pool.
fn pool_blocks(bc: KvBlockConfig) -> usize {
    if bc.block_size == 0 {
        0
    } else {
        bc.num_blocks
    }
}

impl Engine {
    /// Spawn the scheduler thread over `model` + `store`. A paged pool
    /// that holds no block admits nothing: that engine rejects every
    /// submit and starts no scheduler.
    pub fn new(model: GptModel, store: ParamStore, cfg: EngineConfig) -> Self {
        let max_seq = model.cfg.max_seq;
        let admits = cfg.kv_backend.paged().is_none_or(|bc| pool_blocks(bc) > 0);
        let (tx, rx) = channel::unbounded();
        let metrics = Arc::new(MetricsInner::new(cfg.precision));
        let metrics_for_worker = Arc::clone(&metrics);
        let worker = admits.then(|| {
            std::thread::Builder::new()
                .name("matgpt-serve-scheduler".into())
                .spawn(move || scheduler::run(model, store, cfg, rx, metrics_for_worker))
                // construction-time invariant, not a submit/wait/shutdown
                // path: if the OS cannot spawn one thread, there is no
                // engine to return
                .expect("spawn scheduler thread")
        });
        Self {
            tx: Mutex::new(admits.then_some(tx)),
            worker: Mutex::new(worker),
            metrics,
            cfg,
            max_seq,
            next_id: AtomicU64::new(0),
        }
    }

    /// Submit a prompt with the given sampling options (no deadline,
    /// request id reused as the sampling seed for reproducibility).
    ///
    /// Returns immediately with a [`ResponseHandle`]; the scheduler
    /// thread batches the request with everything else in flight.
    ///
    /// ```
    /// use matgpt_model::config::{ArchKind, GptConfig};
    /// use matgpt_model::{GptModel, SampleOptions};
    /// use matgpt_serve::{Engine, EngineConfig, FinishReason};
    /// use matgpt_tensor::{init, ParamStore};
    ///
    /// let mut store = ParamStore::new();
    /// let cfg = GptConfig {
    ///     vocab_size: 30,
    ///     hidden: 16,
    ///     layers: 1,
    ///     heads: 2,
    ///     max_seq: 32,
    ///     ..GptConfig::tiny(ArchKind::Llama, 30)
    /// };
    /// let model = GptModel::new(cfg, &mut store, &mut init::rng(0));
    /// let engine = Engine::new(model, store, EngineConfig::default());
    ///
    /// let opts = SampleOptions {
    ///     temperature: 0.0, // greedy
    ///     top_k: 0,
    ///     max_new_tokens: 4,
    ///     stop_token: None,
    /// };
    /// let handle = engine.submit(&[1, 2, 3], opts).expect("admitted");
    /// let response = handle.wait().expect("scheduler answers");
    /// assert_eq!(response.generated, 4);
    /// assert_eq!(response.finish, FinishReason::Length);
    /// assert_eq!(&response.tokens[..3], &[1, 2, 3]); // prompt + 4 new
    /// engine.shutdown();
    /// ```
    pub fn submit(
        &self,
        prompt: &[u32],
        opts: SampleOptions,
    ) -> Result<ResponseHandle, EngineError> {
        let mut req = GenRequest::new(prompt.to_vec());
        req.opts = opts;
        req.seed = self.next_id.load(Ordering::Relaxed);
        self.submit_request(req)
    }

    /// Submit a fully specified request. Rejects (never panics) when
    /// the prompt is empty, the in-flight bound is hit, or the engine
    /// is shut down.
    pub fn submit_request(&self, req: GenRequest) -> Result<ResponseHandle, EngineError> {
        if req.prompt.is_empty() {
            return Err(EngineError::EmptyPrompt);
        }
        if let Some(bc) = self.cfg.kv_backend.paged() {
            let (block_size, max_seq) = (bc.block_size, self.max_seq);
            let pool_blocks = pool_blocks(bc);
            // worst-case concurrent block usage of this request alone:
            // the visible window never exceeds max_seq, plus up to one
            // partially dropped front block, plus one block of reserve-
            // ahead margin. A request beyond the whole pool can never
            // run — reject now instead of livelocking the scheduler.
            let worst_rows =
                (req.prompt.len().min(max_seq) + req.opts.max_new_tokens).min(max_seq + block_size);
            let needed_blocks = worst_rows.div_ceil(block_size.max(1)) + 1;
            if needed_blocks > pool_blocks {
                return Err(EngineError::KvExhausted {
                    needed_blocks,
                    pool_blocks,
                });
            }
        }
        let tx_guard = self.tx.lock();
        let tx = tx_guard.as_ref().ok_or(EngineError::ShutDown)?;
        // admission control: atomically claim an in-flight slot; the
        // scheduler releases it when the response is sent
        let capacity = self.cfg.max_queue;
        if !self.metrics.try_claim_slot(capacity) {
            return Err(EngineError::QueueFull { capacity });
        }

        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (resp_tx, rx) = channel::unbounded();
        let cancel = Arc::new(AtomicBool::new(false));
        let submitted = Instant::now();
        let absolute_deadline = req.deadline.map(|d| submitted + d);
        let sub = Submission {
            id,
            req,
            submitted,
            absolute_deadline,
            cancel: Arc::clone(&cancel),
            tx: resp_tx,
            flow_id: matgpt_obs::flow::fresh(matgpt_obs::flow::Domain::Serve),
        };
        if tx.send(sub).is_err() {
            // scheduler thread is gone; give the slot back
            self.metrics.release_slot();
            return Err(EngineError::ShutDown);
        }
        Ok(ResponseHandle { id, rx, cancel })
    }

    /// A consistent snapshot of the serving metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The engine's metric registry: every serving series (counters,
    /// gauges, the `serve_*_ms` latency histograms) lives here, so
    /// [`matgpt_obs::prom::render`] exports this engine in Prometheus
    /// text form. Per-engine rather than global, so multiple engines in
    /// one process (or parallel tests) never mix their counts.
    pub fn registry(&self) -> &matgpt_obs::Registry {
        self.metrics.registry()
    }

    /// Graceful shutdown: stop intake (subsequent submits get
    /// [`EngineError::ShutDown`]), drain all queued and in-flight
    /// requests, then join the scheduler thread. Idempotent.
    pub fn shutdown(&self) {
        drop(self.tx.lock().take());
        let worker = self.worker.lock().take();
        if let Some(worker) = worker {
            let _ = worker.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::FinishReason;
    use matgpt_model::config::{ArchKind, GptConfig};
    use matgpt_tensor::init;

    fn tiny_engine(cfg: EngineConfig) -> Engine {
        let mut store = ParamStore::new();
        let mut rng = init::rng(0);
        let mcfg = GptConfig {
            vocab_size: 30,
            hidden: 16,
            layers: 1,
            heads: 2,
            max_seq: 32,
            ..GptConfig::tiny(ArchKind::Llama, 30)
        };
        let model = GptModel::new(mcfg, &mut store, &mut rng);
        Engine::new(model, store, cfg)
    }

    #[test]
    fn submit_wait_roundtrip() {
        let engine = tiny_engine(EngineConfig::default());
        let opts = SampleOptions {
            temperature: 0.0,
            top_k: 0,
            max_new_tokens: 4,
            stop_token: None,
        };
        let h = engine.submit(&[1, 2, 3], opts).expect("admitted");
        let r = h.wait().expect("response");
        assert_eq!(r.generated, 4);
        assert_eq!(r.tokens.len(), 7);
        assert_eq!(&r.tokens[..3], &[1, 2, 3]);
        assert_eq!(r.finish, FinishReason::Length);
        assert!(r.ttft <= r.total);
        let m = engine.metrics();
        assert_eq!(m.completed, 1);
        assert_eq!(m.generated_tokens, 4);
        engine.shutdown();
    }

    #[test]
    fn cancelled_request_retires_with_cancelled_reason() {
        let engine = tiny_engine(EngineConfig::default());
        let mut req = GenRequest::new(vec![4, 5]);
        req.opts.max_new_tokens = 10_000;
        req.opts.temperature = 0.0;
        let h = engine.submit_request(req).expect("admitted");
        h.cancel();
        let r = h
            .wait_timeout(std::time::Duration::from_secs(30))
            .expect("cancelled response arrives");
        assert_eq!(r.finish, FinishReason::Cancelled);
        assert!(r.generated < 10_000);
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let engine = tiny_engine(EngineConfig::default());
        let mut req = GenRequest::new(vec![7]);
        req.opts.max_new_tokens = 10_000;
        req.deadline = Some(std::time::Duration::ZERO);
        let r = engine
            .submit_request(req)
            .expect("admitted")
            .wait()
            .expect("response");
        assert_eq!(r.finish, FinishReason::DeadlineExceeded);
    }

    #[test]
    fn empty_prompt_is_rejected_not_panicked() {
        let engine = tiny_engine(EngineConfig::default());
        assert_eq!(
            engine.submit(&[], SampleOptions::default()).err(),
            Some(EngineError::EmptyPrompt)
        );
    }

    #[test]
    fn submit_after_shutdown_returns_shut_down() {
        let engine = tiny_engine(EngineConfig::default());
        engine.shutdown();
        engine.shutdown(); // idempotent
        assert_eq!(
            engine.submit(&[1], SampleOptions::default()).err(),
            Some(EngineError::ShutDown)
        );
    }

    #[test]
    fn backpressure_rejects_beyond_max_queue() {
        let cfg = EngineConfig {
            max_queue: 2,
            ..EngineConfig::default()
        };
        let engine = tiny_engine(cfg);
        let mut handles = Vec::new();
        let mut rejected = 0usize;
        for i in 0..40 {
            let mut req = GenRequest::new(vec![1 + (i % 8) as u32]);
            req.opts.max_new_tokens = 3;
            req.opts.temperature = 0.0;
            match engine.submit_request(req) {
                Ok(h) => handles.push(h),
                Err(EngineError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 2);
                    rejected += 1;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(rejected > 0, "a 2-deep queue must reject a 40-burst");
        // admitted requests all complete normally
        for h in handles {
            let r = h.wait().expect("response");
            assert!(matches!(r.finish, FinishReason::Length));
        }
        assert_eq!(engine.metrics().backlog, 0, "slots all released");
    }

    #[test]
    fn registry_and_lifecycle_trace_cover_requests() {
        let rec = matgpt_obs::Recorder::global();
        rec.enable();
        let engine = tiny_engine(EngineConfig::default());
        let opts = SampleOptions {
            temperature: 0.0,
            top_k: 0,
            max_new_tokens: 3,
            stop_token: None,
        };
        let h = engine.submit(&[1, 2], opts).expect("admitted");
        let r = h.wait().expect("response");
        assert_eq!(r.generated, 3);
        engine.shutdown();

        // the per-engine registry carries the migrated serving series
        let text = matgpt_obs::prom::render(engine.registry());
        let families = matgpt_obs::prom::parse(&text).expect("exposition parses");
        assert!(families.iter().any(|f| f.name == "serve_ttft_ms"));
        assert_eq!(engine.metrics().completed, 1);
        assert_eq!(engine.metrics().ttft_ms.count, 1);

        // the request lifecycle and scheduler spans reached the global
        // recorder (scheduler joined by shutdown, so all flushed)
        let events = rec.snapshot();
        let serve: Vec<_> = events
            .iter()
            .filter(|e| e.pid == matgpt_obs::pids::SERVE)
            .collect();
        for name in ["queued", "prefill", "decode", "decode-iter"] {
            assert!(
                serve.iter().any(|e| e.name == name),
                "missing serve event `{name}`"
            );
        }
        // an iteration that forwarded says how many rows shared the pass
        assert!(
            serve
                .iter()
                .any(|e| e.name == "decode-iter" && e.args == [("rows".to_string(), 1.0)]),
            "no decode-iter slice carries its `rows`"
        );
    }

    #[test]
    fn snapshot_equals_scrape_after_a_mixed_run() {
        use crate::metrics::{tests::scrape, SERIES};
        let sampled = SampleOptions {
            temperature: 0.8,
            top_k: 5,
            max_new_tokens: 12,
            stop_token: None,
        };
        let greedy = SampleOptions {
            temperature: 0.0,
            top_k: 0,
            ..sampled
        };
        // plain contiguous, paged under pool pressure (evictions and
        // preemptions), speculative: between them every series moves
        let paged = crate::KvBackend::Paged(crate::KvBlockConfig {
            block_size: 4,
            num_blocks: 10,
        });
        for (cfg, opts) in [
            (EngineConfig::default(), sampled),
            (
                EngineConfig {
                    kv_backend: paged,
                    ..EngineConfig::default()
                },
                sampled,
            ),
            (
                EngineConfig {
                    decode: crate::DecodeMode::Speculative { k: 3 },
                    ..EngineConfig::default()
                },
                greedy,
            ),
        ] {
            let engine = tiny_engine(cfg);
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    engine
                        .submit(&[1 + i as u32, 2, 3, 4, 5, 6], opts)
                        .expect("admitted")
                })
                .collect();
            for h in handles {
                assert_eq!(h.wait().expect("response").generated, 12);
            }
            engine.shutdown();
            // scrape first: nothing below may depend on `snapshot()`
            // having refreshed a gauge
            let text = matgpt_obs::prom::render(engine.registry());
            let kinds = engine.registry().names();
            matgpt_obs::prom::parse(&text).expect("exposition parses");
            let snap = engine.metrics();
            let json = snap.to_value();
            for (name, _, _, field) in SERIES {
                let Some((field, _)) = field.split_once(':') else {
                    continue;
                };
                let value = json
                    .get(field)
                    .unwrap_or_else(|| panic!("no key `{field}`"));
                match kinds.iter().find(|(n, _)| n == name).map(|(_, k)| *k) {
                    Some(matgpt_obs::MetricKind::Histogram) => {
                        // window not yet full: exact count on both sides
                        let count = value.get("count").and_then(|c| c.as_f64());
                        assert_eq!(count, Some(scrape(&text, &format!("{name}_count"))));
                    }
                    Some(_) => assert_eq!(
                        value.as_f64(),
                        Some(scrape(&text, name)),
                        "`{field}` != `{name}`:\n{text}"
                    ),
                    None => {
                        let label = format!("{name}=\"{}\"", snap.precision);
                        assert!(text.contains(&label), "label `{label}` missing:\n{text}");
                    }
                }
            }
            assert!(snap.tokens_per_sec > 0.0 && snap.generated_tokens == 96);
            if cfg.kv_backend == paged {
                assert!(snap.preemptions > 0 && snap.kv_blocks_evicted > 0);
            }
            if cfg.decode != crate::DecodeMode::Plain {
                let rate = snap.spec_accepted as f64 / snap.spec_drafted as f64;
                assert_eq!(snap.spec_acceptance_rate, rate);
            }
        }
    }

    #[test]
    fn request_cancelled_while_preempted_keeps_its_tokens_and_its_trace() {
        let rec = matgpt_obs::Recorder::global();
        rec.enable();
        // Two requests must grow side by side however late the second
        // submit reaches the scheduler, so the pool is sized for it: 12
        // blocks of 4 rows. A full 32-row window sliding a row a step
        // holds 8 or 9 blocks (9 once its next row is reserved), which
        // leaves the younger's 6-token prompt (2 blocks) and the 1 block
        // of headroom admission keeps per running request. Two growing
        // windows do not fit, so the younger is preempted, and its
        // recompute window then needs more blocks than the older ever
        // leaves free: it cannot return while the older runs
        let engine = tiny_engine(EngineConfig {
            kv_backend: crate::KvBackend::Paged(crate::KvBlockConfig {
                block_size: 4,
                num_blocks: 12,
            }),
            ..EngineConfig::default()
        });
        // ids no other test's engine reaches: the global recorder is
        // shared, the lifecycle track id is `REQ_TRACK_BASE + id`
        let victim_id = 7_000_001;
        engine.next_id.store(victim_id - 1, Ordering::Relaxed);
        let opts = SampleOptions {
            temperature: 0.0,
            top_k: 0,
            max_new_tokens: 1_000_000,
            stop_token: None,
        };
        let older = engine.submit(&[1, 2, 3, 4, 5, 6], opts).expect("admitted");
        let victim = engine.submit(&[6, 5, 4, 3, 2, 1], opts).expect("admitted");
        assert_eq!(victim.id(), victim_id);
        let waited = Instant::now();
        while engine.metrics().preemptions == 0 {
            assert!(
                waited.elapsed().as_secs() < 60,
                "pool pressure never preempted"
            );
            std::thread::yield_now();
        }
        victim.cancel();
        let r = victim.wait().expect("cancelled response arrives");
        older.cancel();
        older.wait().expect("response");
        engine.shutdown();
        assert_eq!(r.finish, FinishReason::Cancelled);
        assert!(r.generated > 0, "tokens generated before eviction are kept");
        assert_eq!(r.tokens.len(), 6 + r.generated);
        assert_eq!(&r.tokens[..6], &[6, 5, 4, 3, 2, 1]);

        // it retired from the parking lot, and still left its slice and
        // one complete causal arrow on its own track
        let tid = crate::scheduler::REQ_TRACK_BASE + victim_id;
        let slices: Vec<_> = rec
            .snapshot()
            .into_iter()
            .filter(|e| e.tid == tid)
            .collect();
        assert_eq!(slices.len(), 1, "{slices:?}");
        assert_eq!(slices[0].name, "queued");
        let flows: Vec<_> = rec.flows().into_iter().filter(|f| f.tid == tid).collect();
        assert_eq!(flows.len(), 2, "{flows:?}");
        assert_eq!(flows[0].phase, matgpt_obs::FlowPhase::Start);
        assert_eq!(flows[1].phase, matgpt_obs::FlowPhase::Finish);
        assert_eq!(flows[0].id, flows[1].id);
    }

    #[test]
    fn preempted_request_is_readmitted_ahead_of_the_queue() {
        // two slots, a pool one worst case fills: of two requests
        // growing side by side the younger is preempted, while the
        // third and fourth still wait for a slot
        let engine = tiny_engine(EngineConfig {
            max_batch: 2,
            kv_backend: crate::KvBackend::Paged(crate::KvBlockConfig {
                block_size: 4,
                num_blocks: 10,
            }),
            ..EngineConfig::default()
        });
        let opts = SampleOptions {
            temperature: 0.0,
            top_k: 0,
            max_new_tokens: 30,
            stop_token: None,
        };
        let handles: Vec<_> = (0..4)
            .map(|i| {
                engine
                    .submit(&[1 + i as u32, 2, 3, 4, 5, 6], opts)
                    .expect("admitted")
            })
            .collect();
        for h in handles {
            assert_eq!(h.wait().expect("response").generated, 30);
        }
        // re-entering the lot by id, a preempted request resumes before
        // anything younger starts, so it is the older of its next pair
        // and never the victim again: one preemption per request after
        // the first. Parked behind the queue instead, younger requests
        // start in its place, are preempted in turn, and the count
        // doubles.
        assert_eq!(engine.metrics().preemptions, 3);
    }

    #[test]
    fn int8_engine_serves_and_exposes_quant_series() {
        let cfg = EngineConfig {
            precision: matgpt_model::WeightPrecision::Int8,
            ..EngineConfig::default()
        };
        let engine = tiny_engine(cfg);
        let opts = SampleOptions {
            temperature: 0.0,
            top_k: 0,
            max_new_tokens: 5,
            stop_token: None,
        };
        let h = engine.submit(&[1, 2, 3], opts).expect("admitted");
        let r = h.wait().expect("response");
        assert_eq!(r.generated, 5);
        assert_eq!(r.finish, FinishReason::Length);
        let m = engine.metrics();
        assert_eq!(m.precision, "int8");
        assert!(m.weight_bytes > 0, "scheduler recorded the quant footprint");
        let text = matgpt_obs::prom::render(engine.registry());
        let families = matgpt_obs::prom::parse(&text).expect("exposition parses");
        for name in ["serve_quant_weight_bytes", "serve_decode_latency_ms"] {
            assert!(
                families.iter().any(|f| f.name == name),
                "family `{name}` missing:\n{text}"
            );
        }
        assert!(
            text.contains("precision=\"int8\""),
            "precision label missing:\n{text}"
        );
        engine.shutdown();
    }

    #[test]
    fn paged_engine_matches_contiguous_token_for_token() {
        let opts = SampleOptions {
            temperature: 0.0,
            top_k: 0,
            max_new_tokens: 6,
            stop_token: None,
        };
        let prompts: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![1, 2, 3, 4, 5], vec![9, 8]];
        let mut outs: Vec<Vec<Vec<u32>>> = Vec::new();
        for kv_backend in [
            crate::KvBackend::Contiguous,
            crate::KvBackend::Paged(crate::KvBlockConfig {
                block_size: 4,
                num_blocks: 64,
            }),
        ] {
            let engine = tiny_engine(EngineConfig {
                kv_backend,
                ..EngineConfig::default()
            });
            let handles: Vec<_> = prompts
                .iter()
                .map(|p| engine.submit(p, opts).expect("admitted"))
                .collect();
            outs.push(
                handles
                    .into_iter()
                    .map(|h| h.wait().expect("response").tokens)
                    .collect(),
            );
            engine.shutdown();
        }
        assert_eq!(
            outs[0], outs[1],
            "paged and contiguous greedy decode differ"
        );
    }

    #[test]
    fn twelve_deep_batch_matches_generate_and_counts_its_rows() {
        // max_batch 12: while all twelve overlap, an iteration stacks
        // R = 12 rows — two row tiles of the matmul nest (8 + 4)
        let opts = SampleOptions {
            temperature: 0.0,
            top_k: 0,
            max_new_tokens: 16,
            stop_token: None,
        };
        let engine = tiny_engine(EngineConfig {
            max_batch: 12,
            ..EngineConfig::default()
        });
        let prompts: Vec<Vec<u32>> = (0..12u32)
            .map(|i| (0..2 + i % 4).map(|j| (i * 7 + j) % 30).collect())
            .collect();
        let handles: Vec<_> = prompts
            .iter()
            .map(|p| engine.submit(p, opts).expect("admitted"))
            .collect();
        let streams: Vec<Vec<u32>> = handles
            .into_iter()
            .map(|h| h.wait().expect("response").tokens)
            .collect();
        engine.shutdown();

        // the same weights `tiny_engine` built
        let mut store = ParamStore::new();
        let mcfg = GptConfig {
            vocab_size: 30,
            hidden: 16,
            layers: 1,
            heads: 2,
            max_seq: 32,
            ..GptConfig::tiny(ArchKind::Llama, 30)
        };
        let model = GptModel::new(mcfg, &mut store, &mut init::rng(0));
        for (prompt, stream) in prompts.iter().zip(&streams) {
            let reference =
                matgpt_model::generate(&model, &store, prompt, &opts, &mut init::rng(0));
            assert_eq!(stream, &reference, "prompt {prompt:?}");
        }
        // however they overlapped: a plain request rides every iteration
        // but the one that emits its last token
        assert_eq!(engine.metrics().decode_rows, 12 * 15);
    }

    #[test]
    fn a_pool_of_no_blocks_or_no_rows_rejects_every_submit() {
        for (block_size, num_blocks) in [(4, 0), (0, 10)] {
            let engine = tiny_engine(EngineConfig {
                kv_backend: crate::KvBackend::Paged(crate::KvBlockConfig {
                    block_size,
                    num_blocks,
                }),
                ..EngineConfig::default()
            });
            // before and after shutdown, every submit is the typed
            // error on this thread, and no scheduler thread panicked
            for shut in [false, true] {
                if shut {
                    drop(engine.tx.lock().take());
                    if let Some(worker) = engine.worker.lock().take() {
                        let joined = worker.join();
                        assert!(
                            joined.is_ok(),
                            "{block_size}x{num_blocks}: scheduler panicked"
                        );
                    }
                }
                for prompt_len in [1, 40] {
                    match engine.submit(&vec![1; prompt_len], SampleOptions::default()) {
                        Err(EngineError::KvExhausted { pool_blocks: 0, .. }) => {}
                        Err(other) => panic!("{block_size}x{num_blocks}: got {other:?}"),
                        Ok(_) => panic!("{block_size}x{num_blocks}: admitted"),
                    }
                }
            }
        }
    }

    #[test]
    fn oversized_request_is_rejected_with_kv_exhausted() {
        let engine = tiny_engine(EngineConfig {
            kv_backend: crate::KvBackend::Paged(crate::KvBlockConfig {
                block_size: 4,
                num_blocks: 4,
            }),
            ..EngineConfig::default()
        });
        // window 32 + generation far beyond 4 blocks * 4 rows
        let mut req = GenRequest::new(vec![1, 2, 3]);
        req.opts.max_new_tokens = 100;
        match engine.submit_request(req) {
            Err(EngineError::KvExhausted {
                needed_blocks,
                pool_blocks,
            }) => {
                assert_eq!(pool_blocks, 4);
                assert!(needed_blocks > 4);
            }
            Err(other) => panic!("expected KvExhausted, got {other:?}"),
            Ok(_) => panic!("oversized request must not be admitted"),
        }
        // a request that fits still serves
        let mut small = GenRequest::new(vec![1, 2]);
        small.opts.max_new_tokens = 2;
        small.opts.temperature = 0.0;
        let r = engine
            .submit_request(small)
            .expect("admitted")
            .wait()
            .unwrap();
        assert_eq!(r.finish, FinishReason::Length);
        assert_eq!(engine.metrics().backlog, 0);
    }

    #[test]
    fn paged_pool_pressure_preempts_and_recomputes_to_completion() {
        // pool far too small for 8 concurrent worst cases: admission
        // stalls and decode-time preemption must kick in, yet every
        // request finishes with its full token count
        let engine = tiny_engine(EngineConfig {
            kv_backend: crate::KvBackend::Paged(crate::KvBlockConfig {
                block_size: 4,
                num_blocks: 10,
            }),
            ..EngineConfig::default()
        });
        let opts = SampleOptions {
            temperature: 0.8,
            top_k: 5,
            max_new_tokens: 12,
            stop_token: None,
        };
        let handles: Vec<_> = (0..8)
            .map(|i| {
                engine
                    .submit(&[1 + i as u32, 2, 3, 4, 5, 6], opts)
                    .expect("admitted")
            })
            .collect();
        for h in handles {
            let r = h.wait().expect("response");
            assert_eq!(r.finish, FinishReason::Length, "{:?}", r.finish);
            assert_eq!(r.generated, 12);
            assert_eq!(r.tokens.len(), 18);
        }
        let m = engine.metrics();
        assert_eq!(m.completed, 8);
        assert_eq!(m.failed, 0);
        assert_eq!(m.backlog, 0);
        assert!(m.kv_bytes_peak > 0);
        engine.shutdown();
        // preemption happened under this much pressure
        assert!(
            engine.metrics().kv_blocks_evicted > 0,
            "no eviction under a 10-block pool with 8 requests"
        );
    }

    #[test]
    fn shared_prompts_reuse_prefix_blocks() {
        let engine = tiny_engine(EngineConfig {
            kv_backend: crate::KvBackend::Paged(crate::KvBlockConfig {
                block_size: 4,
                num_blocks: 256,
            }),
            ..EngineConfig::default()
        });
        let opts = SampleOptions {
            temperature: 0.0,
            top_k: 0,
            max_new_tokens: 2,
            stop_token: None,
        };
        // a shared 8-token (2-block) system prompt with unique tails;
        // serial paged prefill lets later requests fork the first
        // request's registered blocks
        let system: Vec<u32> = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let mut p = system.clone();
                p.push(10 + i as u32);
                engine.submit(&p, opts).expect("admitted")
            })
            .collect();
        for h in handles {
            assert_eq!(h.wait().expect("response").finish, FinishReason::Length);
        }
        engine.shutdown();
        let m = engine.metrics();
        assert!(
            m.kv_block_shares > 0,
            "no prefix sharing recorded: {}",
            m.to_json()
        );
        assert!(m.kv_block_allocs > 0);
        engine.shutdown();
    }

    #[test]
    fn speculative_engine_matches_plain_greedy_stream() {
        let opts = SampleOptions {
            temperature: 0.0,
            top_k: 0,
            max_new_tokens: 10,
            stop_token: None,
        };
        let prompts: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![4, 5], vec![6, 7, 8, 9, 10]];
        let mut outs: Vec<Vec<Vec<u32>>> = Vec::new();
        for decode in [
            crate::DecodeMode::Plain,
            crate::DecodeMode::Speculative { k: 3 },
        ] {
            let engine = tiny_engine(EngineConfig {
                decode,
                ..EngineConfig::default()
            });
            let handles: Vec<_> = prompts
                .iter()
                .map(|p| engine.submit(p, opts).expect("admitted"))
                .collect();
            outs.push(
                handles
                    .into_iter()
                    .map(|h| h.wait().expect("response").tokens)
                    .collect(),
            );
            if decode != crate::DecodeMode::Plain {
                let m = engine.metrics();
                assert!(m.spec_drafted > 0, "speculative engine never drafted");
                assert_eq!(
                    m.spec_rolled_back,
                    m.spec_drafted - m.spec_accepted,
                    "rollback invariant broken: {}",
                    m.to_json()
                );
                assert!(m.spec_acceptance_rate > 0.0);
            }
            engine.shutdown();
        }
        assert_eq!(
            outs[0], outs[1],
            "speculative and plain greedy decode differ"
        );
    }

    #[test]
    fn speculative_mode_leaves_sampled_requests_untouched() {
        // temperature > 0 is ineligible for drafting: the engine must
        // serve it on the plain path with the same rng-driven stream a
        // plain engine produces (same seed => same tokens)
        let opts = SampleOptions {
            temperature: 0.8,
            top_k: 5,
            max_new_tokens: 8,
            stop_token: None,
        };
        let mut outs: Vec<Vec<u32>> = Vec::new();
        for decode in [
            crate::DecodeMode::Plain,
            crate::DecodeMode::Speculative { k: 4 },
        ] {
            let engine = tiny_engine(EngineConfig {
                decode,
                ..EngineConfig::default()
            });
            let h = engine.submit(&[2, 4, 6], opts).expect("admitted");
            outs.push(h.wait().expect("response").tokens);
            if decode != crate::DecodeMode::Plain {
                assert_eq!(
                    engine.metrics().spec_drafted,
                    0,
                    "sampled request must not be drafted for"
                );
            }
            engine.shutdown();
        }
        assert_eq!(outs[0], outs[1], "sampled stream changed under spec mode");
    }

    #[test]
    fn panicking_request_fails_alone_batch_survives() {
        let engine = tiny_engine(EngineConfig::default());
        let opts = SampleOptions {
            temperature: 0.0,
            top_k: 0,
            max_new_tokens: 4,
            stop_token: None,
        };
        // out-of-vocab token: the embedding lookup panics in prefill;
        // isolation must convert that into FinishReason::Failed
        let bad = engine.submit(&[29_999], opts).expect("admitted");
        let good = engine.submit(&[1, 2], opts).expect("admitted");
        let rb = bad.wait().expect("failed response still arrives");
        assert_eq!(rb.finish, FinishReason::Failed);
        let rg = good.wait().expect("response");
        assert_eq!(rg.finish, FinishReason::Length);
        assert_eq!(rg.generated, 4);
        let m = engine.metrics();
        assert_eq!(m.failed, 1);
        assert_eq!(m.backlog, 0);
        // the engine keeps serving after the fault
        let again = engine.submit(&[3], opts).expect("admitted");
        assert_eq!(again.wait().expect("response").finish, FinishReason::Length);
    }
}
