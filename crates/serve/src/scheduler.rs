//! Continuous-batching scheduler.
//!
//! One scheduler thread owns the model and drives an iteration-level
//! loop over the **parking lot** — one deque, ordered by request id, of
//! every request outside the batch (`Parked`: newly submitted, or
//! preempted mid-decode) — and the **batch** (`Active`). Every
//! iteration it (1) drains new submissions onto the back of the lot,
//! (2) admits from its head while the batch slot and KV budgets allow —
//! strict head-of-line order, so admission is oldest-first — prefilling
//! what it admits, (3) advances every active request by one decode
//! step through **one shared forward** (`decode_iteration`: each
//! request samples and emits from its staged logits row, then every
//! request that still needs a row — one per plain request, the `k + 1`
//! verify rows of a drafting one — is stacked into a single ragged
//! [`GptModel::forward_batch`], so the iteration streams the weights
//! once, not once per request; then each request takes its rows), and
//! (4) retires requests that hit their stop token, length budget,
//! deadline, or a client cancel, freeing their budget so the next
//! parked request joins on the very next iteration. A request leaves
//! the engine one way, wherever it is: `Parked::retire`.
//!
//! Faults are isolated with `catch_unwind` at two granularities. A
//! prefill that panics fails its own request: it retires with
//! [`FinishReason::Failed`] — keeping its tokens, its partially mutated
//! KV state discarded, so no poisoned state survives — and the rest of
//! the wave is untouched. A *decode* forward is shared, so a panic
//! inside it fails exactly the requests whose rows were in it (a
//! forward that dies part-way leaves each of their caches between
//! `begin` and `commit`); requests that finished before the forward,
//! parked requests and the loop itself carry on. The drafts' propose
//! forwards run inside the same scope, so a panic in *one* request's
//! draft also fails every rider of that iteration — wider than the
//! state it touched (that request's `DraftState` only), and the price
//! of one unwind scope per iteration. Bad input never gets that far:
//! `forward_batch` validates every segment before it touches a cache.
//!
//! ## KV backends
//!
//! [`SchedulerConfig::kv_backend`] picks the KV storage strategy; a
//! request's storage reaches the model forward as one `&mut dyn
//! KvStorage` (DECODING.md tabulates the whole decode path):
//!
//! * [`KvBackend::Contiguous`] (default) — one private
//!   [`KvCache`] buffer per request; admission is governed by the
//!   worst-case `token_budget`.
//! * [`KvBackend::Paged`] — requests draw fixed-size blocks from a
//!   shared [`crate::kvpool::BlockPool`] as they actually grow, so
//!   admission is **block-granular**: a request joins when the pool can
//!   cover its prompt, not its worst case. Prompts that repeat a
//!   recently served prefix fork its blocks copy-on-write from the
//!   [`crate::kvpool::PrefixCache`] instead of recomputing the prefill
//!   (paged prefills run serially at admission so wave-mates can share
//!   the first prefill's blocks; the forwards themselves stay
//!   rayon-parallel inside). When a decode step cannot get a block the
//!   scheduler evicts prefix-cache entries first and then **preempts**
//!   the youngest active request — its blocks return to the pool and
//!   its decode progress (tokens, rng stream, ttft) re-enters the lot
//!   *by id*. Ids follow submission order and everything active left
//!   the lot's head earlier, so it sorts ahead of everything still
//!   queued and is re-admitted first, via a recompute prefill that
//!   reproduces its pre-eviction logits bit-for-bit. Both backends
//!   produce bit-identical logits for identical request streams (see
//!   `tests/paged_kv.rs`).
//!
//! When the global `matgpt-obs` recorder is enabled, the scheduler
//! traces itself on [`pids::SERVE`]: RAII spans around each batched
//! prefill and decode iteration on the scheduler thread's track, and a
//! reconstructed queued → prefill → decode lifecycle track per request
//! (tid `REQ_TRACK_BASE + id`, named "req N"), emitted from the
//! captured `Instant`s when the request retires — from the batch or,
//! as a single `queued` slice, from the lot.

use crate::kvpool::{BlockPool, KvBlockConfig, KvExhausted, PagedKv, PrefixCache};
use crate::metrics::MetricsInner;
use crate::request::{FinishReason, Response, Submission};
use crossbeam::channel::Receiver;
use matgpt_model::infer::{KvCache, KvStorage};
use matgpt_model::speculative::{DraftState, Proposal, SpecOutcome};
use matgpt_model::{
    generate::sample_logits, ForwardParams, GptModel, QuantizedParamStore, WeightPrecision,
};
use matgpt_obs::flight::{self, FlightEvent, FlightKind};
use matgpt_obs::{pids, FlowEvent, FlowPhase, Recorder, Span, TraceEvent};
use matgpt_tensor::ParamStore;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Request lifecycle tracks start here within [`pids::SERVE`], far
/// above the small thread-local track ids the scheduler's own spans
/// use, so the two can never collide in the trace.
pub(crate) const REQ_TRACK_BASE: u64 = 1 << 32;

/// Prefix-cache entries the paged scheduler keeps warm. Small and
/// LRU-rotated: the cache exists to carry a handful of hot system
/// prompts across request waves, not to memoise every prompt seen.
const PREFIX_CACHE_CAP: usize = 32;

/// Which KV-cache storage the scheduler runs requests on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KvBackend {
    /// One private, contiguously grown [`KvCache`] per request.
    /// Simplest and fastest for small batches; peak KV memory is the
    /// sum of worst cases, so admission must reserve `token_budget`
    /// headroom a request may never use.
    #[default]
    Contiguous,
    /// Block-paged KV over a shared [`crate::kvpool::BlockPool`]:
    /// memory is claimed block-by-block as sequences grow, identical
    /// prompt prefixes share blocks copy-on-write, and pool exhaustion
    /// preempts (rather than crashes) the youngest request. Use for
    /// high request counts with common system prompts — see
    /// `ext_paged_bench` for the gated peak-memory numbers.
    Paged(KvBlockConfig),
}

impl KvBackend {
    /// The pool geometry when paged: the one arm the scheduler's pool and
    /// `Engine::submit`'s never-schedulable check are both built from.
    pub(crate) fn paged(self) -> Option<KvBlockConfig> {
        match self {
            KvBackend::Contiguous => None,
            KvBackend::Paged(bc) => Some(bc),
        }
    }
}

/// How the scheduler advances active requests each decode iteration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DecodeMode {
    /// One token per request per iteration — the standard path.
    #[default]
    Plain,
    /// Int8 self-draft speculative decoding (see `DECODING.md`): the
    /// engine quantizes a draft copy of its own weights at startup;
    /// each greedy request drafts `k` tokens per iteration and the f32
    /// model verifies them in one batched forward, emitting the
    /// accepted prefix and rolling the rest back. Output stays
    /// **bit-identical** to [`DecodeMode::Plain`]. Applies per request:
    /// sampled requests (`temperature > 0`) always decode plainly, and
    /// the mode requires [`WeightPrecision::F32`] (the verifier must be
    /// the full-precision model — under `Int8` it falls back to
    /// `Plain`).
    Speculative {
        /// Draft tokens proposed per macro-step (k ∈ 1..=4 is typical;
        /// see `ext_spec` for the measured acceptance/speedup trade).
        k: usize,
    },
}

/// Admission and batching limits.
///
/// ```
/// use matgpt_serve::{DecodeMode, KvBackend, SchedulerConfig};
///
/// // defaults: f32 weights, contiguous KV, plain decode
/// let cfg = SchedulerConfig::default();
/// assert_eq!(cfg.decode, DecodeMode::Plain);
/// assert_eq!(cfg.kv_backend, KvBackend::Contiguous);
///
/// // a speculative engine drafts 4 tokens per step for greedy requests
/// let spec = SchedulerConfig {
///     decode: DecodeMode::Speculative { k: 4 },
///     ..SchedulerConfig::default()
/// };
/// assert_eq!(spec.decode, DecodeMode::Speculative { k: 4 });
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SchedulerConfig {
    /// Maximum requests decoding concurrently.
    pub max_batch: usize,
    /// Token budget for admission control: the sum over active requests
    /// of `min(prompt, max_seq) + max_new_tokens` (each request's worst-
    /// case KV footprint) stays at or below this. A request larger than
    /// the whole budget is still admitted when the batch is empty, so
    /// oversized requests cannot starve.
    pub token_budget: usize,
    /// Maximum requests in flight (queued + decoding). Submissions
    /// beyond this are rejected at submit time with
    /// [`crate::EngineError::QueueFull`] — bounded-queue backpressure
    /// instead of an unbounded channel absorbing any burst.
    pub max_queue: usize,
    /// Weight datatype the decode path runs against. `Int8` quantizes
    /// the store once at engine construction (per-channel symmetric
    /// int8, fused-dequant matmuls) and drops the f32 copy — ~4× less
    /// weight memory and measurably faster bandwidth-bound decode; see
    /// `ext_quant` for the gated numbers.
    pub precision: WeightPrecision,
    /// KV-cache storage backend. [`KvBackend::Contiguous`] (the
    /// default) gives each request a private buffer and admits against
    /// `token_budget`; [`KvBackend::Paged`] draws fixed-size blocks
    /// from a shared pool with copy-on-write prefix sharing, admits at
    /// block granularity, and preempts under memory pressure. The two
    /// backends are bit-identical in output — the knob trades peak KV
    /// memory against per-block bookkeeping overhead.
    pub kv_backend: KvBackend,
    /// Decode strategy. [`DecodeMode::Plain`] (default) advances each
    /// request one token per iteration; [`DecodeMode::Speculative`]
    /// drafts `k` tokens with an int8 self-draft and verifies them in
    /// one batched f32 forward — bit-identical output, higher
    /// tokens/sec for greedy requests.
    pub decode: DecodeMode,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            token_budget: 4096,
            max_queue: 1024,
            precision: WeightPrecision::F32,
            kv_backend: KvBackend::Contiguous,
            decode: DecodeMode::Plain,
        }
    }
}

/// Engine-wide speculative-decoding state: the int8 self-draft weights
/// (quantized once at engine startup from the same f32 store the
/// engine verifies with) and the per-step draft length.
struct SpecRuntime {
    draft: QuantizedParamStore,
    k: usize,
}

/// The weights every forward of an engine runs against, behind the one
/// dispatch [`run`] makes from [`SchedulerConfig::precision`].
type Weights = dyn ForwardParams + Send + Sync;

/// The KV storage a request decodes against — one enum so `Active` is
/// backend-agnostic; the model forward reaches it through [`ReqKv::kv`].
enum ReqKv {
    /// Private contiguous buffer.
    Contig(KvCache),
    /// Block table over the shared pool.
    Paged(PagedKv),
}

impl ReqKv {
    /// The storage as the forward sees it: the one place the backend is
    /// dispatched (two dynamic calls per layer per forward, next to
    /// matmuls that each stream ≥ 64 KiB).
    fn kv(&mut self) -> &mut dyn KvStorage {
        match self {
            ReqKv::Contig(c) => c,
            ReqKv::Paged(p) => p,
        }
    }

    /// Ensure the next decode step's `rows` rows have blocks to land in
    /// (1 for plain decode, `k + 1` for a speculative macro-step).
    /// Contiguous storage grows inline, so only the paged arm can fail.
    fn reserve_decode(&mut self, rows: usize) -> Result<(), KvExhausted> {
        match self {
            ReqKv::Contig(_) => Ok(()),
            ReqKv::Paged(p) => p.reserve_rows(rows),
        }
    }

    /// The paged storage, when this is the paged backend.
    fn paged(&self) -> Option<&PagedKv> {
        match self {
            ReqKv::Contig(_) => None,
            ReqKv::Paged(p) => Some(p),
        }
    }
}

/// A request and the progress it carries wherever it is: waiting in
/// the parking lot for its first admission (`generated == 0`, `tokens`
/// is the prompt), evicted back there by memory pressure, or — inside
/// an [`Active`] — decoding in the batch. Enough for a prefill over
/// `tokens` to pick up the exact token and rng stream where it stands.
struct Parked {
    sub: Submission,
    tokens: Vec<u32>,
    generated: usize,
    rng: ChaCha8Rng,
    ttft: Option<Duration>,
}

impl Parked {
    /// A submission straight off the intake channel.
    fn fresh(sub: Submission) -> Self {
        Self {
            tokens: sub.req.prompt.clone(),
            generated: 0,
            rng: ChaCha8Rng::seed_from_u64(sub.req.seed),
            ttft: None,
            sub,
        }
    }

    /// The one way a request leaves the engine, whatever state it was
    /// in: close its traced lifecycle (`prefill` is when its last
    /// prefill began and ended; `None` when it retires from the parking
    /// lot), count it (a [`FinishReason::Failed`] one also dumps its
    /// postmortem), free its in-flight slot, then send the response
    /// with whatever it had generated — in that order, so a client that
    /// snapshots metrics right after its response sees them settled.
    fn retire(
        self,
        finish: FinishReason,
        prefill: Option<(Instant, Instant)>,
        metrics: &MetricsInner,
    ) {
        let sub = self.sub;
        emit_lifecycle(&sub, self.generated, prefill);
        let total = sub.submitted.elapsed();
        metrics.completed.inc();
        if finish == FinishReason::Failed {
            metrics.failed.inc();
            dump_request_postmortem(sub.id, metrics);
        }
        metrics.release_slot();
        let _ = sub.tx.send(Response {
            id: sub.id,
            tokens: self.tokens,
            generated: self.generated,
            finish,
            // a request that never produced a token reports its total
            ttft: self.ttft.unwrap_or(total),
            total,
        });
    }
}

/// A request that has been admitted into the decode batch.
struct Active {
    /// What the request takes with it when it is preempted or retires.
    state: Parked,
    cache: ReqKv,
    /// Logits row the next token will be sampled from.
    last_row: Vec<f32>,
    last_token_at: Instant,
    reserved: usize,
    /// Int8 self-draft state, present only when the engine runs
    /// [`DecodeMode::Speculative`] and this request decodes greedily.
    /// Recreated fresh on preemption-resume (safe: the draft never
    /// influences output, only acceptance rate).
    draft: Option<DraftState>,
    /// The tokens this request feeds the iteration's shared forward:
    /// the one it just sampled, or — drafting — the `[t₁, d₁..d_k]` its
    /// draft proposed, which the forward's rows then verify.
    feed: Proposal,
    done: Option<FinishReason>,
    /// When this request's prefill forward began / finished — the
    /// boundaries of its traced queued/prefill/decode lifecycle.
    prefill: (Instant, Instant),
}

impl Active {
    /// Prefill `state.tokens` into `cache` (trailing `max_seq` window)
    /// and stage the first logits row. A forked paged cache already
    /// holds a shared prefix, so only the uncached suffix forwards; a
    /// preempted request recomputes over its full prompt+generated
    /// stream and picks up the exact rng stream it left off at. The
    /// model forward runs under `catch_unwind`: on a panic the request
    /// is handed back as it was parked, so the scheduler can retire it
    /// as [`FinishReason::Failed`] without losing the batch or the
    /// tokens it had generated.
    fn try_prefill(
        model: &GptModel,
        weights: &Weights,
        state: Parked,
        reserved: usize,
        mut cache: ReqKv,
        spec_enabled: bool,
    ) -> Result<Self, Box<Parked>> {
        let prefill_start = Instant::now();
        let tokens = &state.tokens;
        let start = first_uncached(tokens.len(), cache.kv().len(), model.cfg.max_seq);
        let n_fwd = tokens.len() - start;
        // only the forward is unwind-scoped; `state` stays outside so a
        // Failed response can still be delivered (the cache rides in
        // and is dropped — blocks released — if the forward panics)
        let forward = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let logits = model.forward_cached(weights, &tokens[start..], cache.kv());
            let v = model.cfg.vocab_size;
            let last_row = logits[(n_fwd - 1) * v..].to_vec();
            (cache, last_row)
        }));
        let Ok((cache, last_row)) = forward else {
            return Err(Box::new(state));
        };
        let prefill_end = Instant::now();
        // speculation is per-request: only greedy requests get a draft
        // (a sampled request's rng stream must advance token by token);
        // the draft windows `tokens` to the trailing `max_seq` itself
        let draft = (spec_enabled && state.sub.req.opts.temperature <= 0.0)
            .then(|| DraftState::new(model, tokens));
        Ok(Self {
            state,
            cache,
            last_row,
            last_token_at: prefill_end,
            reserved,
            draft,
            feed: Proposal::default(),
            done: None,
            prefill: (prefill_start, prefill_end),
        })
    }

    /// Phase 1 of a decode iteration: decide whether to finish;
    /// otherwise a plain request samples its next token from the staged
    /// logits, emits it and — unless that finished it — stages it in
    /// `feed`. A drafting request only passes the checks here: its
    /// tokens come out of the macro-step ([`Active::propose`] →
    /// shared forward → [`Active::finish_step`]) all at once. Returns
    /// whether the request rides in the iteration's forward.
    fn begin_step(&mut self, metrics: &MetricsInner) -> bool {
        debug_assert!(self.done.is_none(), "stepping a finished request");
        self.feed.tokens.clear();
        let now = Instant::now();
        let Parked { sub, generated, .. } = &self.state;
        if sub.cancelled() {
            self.done = Some(FinishReason::Cancelled);
        } else if sub.expired(now) {
            self.done = Some(FinishReason::DeadlineExceeded);
        } else if *generated >= sub.req.opts.max_new_tokens {
            self.done = Some(FinishReason::Length);
        } else if self.draft.is_none() {
            let opts = &self.state.sub.req.opts;
            let rng = &mut self.state.rng;
            let next = sample_logits(&self.last_row, opts.temperature, opts.top_k, rng) as u32;
            self.emit(&[next], now - self.last_token_at, now, metrics);
            if self.done.is_none() {
                self.feed.tokens.push(next);
            }
        }
        self.done.is_none()
    }

    /// Phase 2, drafting requests only: the propose half of one
    /// speculative macro-step — `feed` becomes the `[t₁, d₁..d_k]` the
    /// shared forward verifies. Runs the draft's forwards, so the caller
    /// scopes it with the shared forward's `catch_unwind`.
    fn propose(&mut self, model: &GptModel, spec: Option<&SpecRuntime>) {
        if let (Some(rt), Some(draft)) = (spec, self.draft.as_mut()) {
            let Parked { sub, generated, .. } = &self.state;
            let remaining = sub.req.opts.max_new_tokens - generated;
            let (cache, row) = (self.cache.kv(), &self.last_row);
            self.feed = draft.propose(model, &rt.draft, rt.k, cache, row, remaining);
        }
    }

    /// Phase 3: take this request's `rows` (`[feed.tokens.len(), vocab]`)
    /// out of the shared forward that began at `verify.0` and took
    /// `verify.1`. A plain request stages its one row for the next
    /// iteration's sample. A drafting request settles its macro-step —
    /// accept, roll back — and emits the 1 to `k + 1` tokens it
    /// produced: identical to what the plain path would emit one at a
    /// time, only throughput and per-step accounting differ. `draft_at`
    /// is when its propose half began, for the trace.
    fn finish_step(
        &mut self,
        rows: &[f32],
        draft_at: Instant,
        verify: (Instant, Duration),
        metrics: &MetricsInner,
    ) {
        let Some(draft) = self.draft.as_mut() else {
            self.last_row.clear();
            self.last_row.extend_from_slice(rows);
            return;
        };
        let settle_at = Instant::now();
        let feed = std::mem::take(&mut self.feed);
        let out = draft.settle(feed, rows, verify.1, self.cache.kv(), &mut self.last_row);
        let done_at = Instant::now();
        if out.drafted > 0 {
            metrics.record_spec(
                out.drafted as u64,
                out.accepted as u64,
                out.rolled_back as u64,
            );
        }
        emit_spec_spans(self.state.sub.id, [draft_at, verify.0, settle_at], &out);
        // the macro-step produced all its tokens in one go; attribute
        // its wall time evenly across them for the latency histogram
        let per_token = (done_at - self.last_token_at) / out.tokens.len() as u32;
        self.emit(&out.tokens, per_token, done_at, metrics);
    }

    /// Append the tokens a step produced, in order, until one of them
    /// finishes the request: count each, record TTFT for the first the
    /// request ever produced and `per_token` latency for the rest.
    fn emit(&mut self, tokens: &[u32], per_token: Duration, now: Instant, metrics: &MetricsInner) {
        let state = &mut self.state;
        for &t in tokens {
            state.tokens.push(t);
            state.generated += 1;
            metrics.generated_tokens.inc();
            if state.ttft.is_none() {
                let ttft = state.sub.submitted.elapsed();
                state.ttft = Some(ttft);
                metrics.record_ttft(ttft);
            } else {
                metrics.record_token_latency(per_token);
            }
            let opts = &state.sub.req.opts;
            if Some(t) == opts.stop_token {
                self.done = Some(FinishReason::Stop);
                break;
            }
            if state.generated >= opts.max_new_tokens {
                self.done = Some(FinishReason::Length);
                break;
            }
        }
        self.last_token_at = now;
    }

    /// Leave the batch with whatever was generated.
    fn retire(self, metrics: &MetricsInner) {
        let finish = self.done.unwrap_or(FinishReason::Length);
        self.state.retire(finish, Some(self.prefill), metrics);
    }
}

/// Worst-case KV token footprint used for admission control.
fn token_cost(sub: &Submission, max_seq: usize) -> usize {
    sub.req.prompt.len().min(max_seq) + sub.req.opts.max_new_tokens
}

/// Index of the first token a prefill of `len` tokens forwards: rows the
/// cache already holds (`cached`, a forked shared prefix) skip the
/// forward entirely; a fresh cache starts at the trailing-window edge.
fn first_uncached(len: usize, cached: usize, max_seq: usize) -> usize {
    match cached {
        0 => len.saturating_sub(max_seq),
        rows => rows,
    }
}

/// Retire every parked request whose client cancelled it or whose
/// deadline has passed.
fn sweep_parked(parked: &mut VecDeque<Parked>, now: Instant, metrics: &MetricsInner) {
    let mut i = 0;
    while i < parked.len() {
        let sub = &parked[i].sub;
        let reason = if sub.cancelled() {
            FinishReason::Cancelled
        } else if sub.expired(now) {
            FinishReason::DeadlineExceeded
        } else {
            i += 1;
            continue;
        };
        let Some(gone) = parked.remove(i) else { break };
        gone.retire(reason, None, metrics);
    }
}

/// Black-box dump for a request that retired [`FinishReason::Failed`]
/// (a panicked model forward, or a lone request the pool can never
/// hold): the flight rings' final events — this request's flow hops
/// included — plus a metrics snapshot, written under
/// `$MATGPT_POSTMORTEM_DIR/request-<id>`. Skipped entirely when the
/// variable is unset: fault isolation is already complete by the time
/// this runs, so the dump is forensics only.
fn dump_request_postmortem(id: u64, metrics: &MetricsInner) {
    let Ok(dir) = std::env::var("MATGPT_POSTMORTEM_DIR") else {
        return;
    };
    let pm = matgpt_obs::flight::Postmortem::capture(
        &format!("request {id} retired Failed"),
        &[],
        256,
        &[metrics.registry()],
    );
    let path = std::path::Path::new(&dir).join(format!("request-{id}"));
    if let Err(e) = pm.write_to(&path) {
        eprintln!("postmortem write to {} failed: {e}", path.display());
    }
}

/// Paged-backend scheduler state: the shared block pool and the prefix
/// cache keeping hot prompt prefixes alive over it.
struct PagedState {
    pool: BlockPool,
    prefix: PrefixCache,
}

/// Drop one prefix-cache entry to relieve pool pressure, counting the
/// freed block references as evictions. Returns 0 when there is
/// nothing left to evict.
fn evict_prefix(prefix: &mut PrefixCache, metrics: &MetricsInner) -> usize {
    let n = prefix.evict_one();
    metrics.kv_blocks_evicted.add(n as u64);
    n
}

/// Retry `fits` — a block claim, or a free-block check — evicting one
/// prefix-cache entry after each failure; false once it still fails
/// with nothing left to evict (the caller parks, preempts or fails).
fn evict_until(
    prefix: &mut PrefixCache,
    metrics: &MetricsInner,
    mut fits: impl FnMut() -> bool,
) -> bool {
    loop {
        if fits() {
            return true;
        }
        if evict_prefix(prefix, metrics) == 0 {
            return false;
        }
    }
}

/// Trace one speculative macro-step as three slices — spec-draft,
/// spec-verify, spec-rollback — on the request's lifecycle track, each
/// where it began (`at`, in that order; the verify is the iteration's
/// shared forward, so every request of the iteration shows the same
/// one) for the duration the step measured. Skipped for plain-fallback
/// steps (nothing drafted) and while the global recorder is disabled.
fn emit_spec_spans(id: u64, at: [Instant; 3], out: &SpecOutcome) {
    let rec = Recorder::global();
    if !rec.is_enabled() || out.drafted == 0 {
        return;
    }
    let tid = REQ_TRACK_BASE + id;
    let slice = |name, at: Instant, took: Duration| {
        let us = took.as_secs_f64() * 1e6;
        TraceEvent::complete(pids::SERVE, tid, "serve.spec", name, rec.ts_of(at), us)
    };
    rec.extend(vec![
        slice("spec-draft", at[0], out.draft_time).arg("drafted", out.drafted as f64),
        slice("spec-verify", at[1], out.verify_time).arg("accepted", out.accepted as f64),
        slice("spec-rollback", at[2], out.rollback_time).arg("rolled_back", out.rolled_back as f64),
    ]);
}

/// Reconstruct a retiring request's lifecycle onto its own trace track
/// from the `Instant`s captured while it ran: a `queued` slice, then —
/// when it retires from the batch, `prefill` being the start and end of
/// its last prefill — `prefill` and `decode` slices, with one causal
/// flow arrow from the first slice's start to the last one's end. A
/// request that retires from the parking lot is the one-slice case. The
/// arrow's endpoints always land in the flight ring; the slices only
/// while the global recorder is enabled.
fn emit_lifecycle(sub: &Submission, generated: usize, prefill: Option<(Instant, Instant)>) {
    let rec = Recorder::global();
    let tid = REQ_TRACK_BASE + sub.id;
    let id = sub.flow_id;
    let queued_ts = rec.ts_of(sub.submitted);
    let now = rec.now_us();
    let (prefill_ts, decode_ts) = prefill.map_or((now, now), |(start, end)| {
        (rec.ts_of(start), rec.ts_of(end))
    });
    // (name, start, end, arg key, arg value) per slice, in order
    let all = [
        ("queued", queued_ts, prefill_ts, "id", sub.id as f64),
        (
            "prefill",
            prefill_ts,
            decode_ts,
            "prompt_tokens",
            sub.req.prompt.len() as f64,
        ),
        ("decode", decode_ts, now, "generated", generated as f64),
    ];
    // a request that never reached the batch was queued to the end
    let slices = &all[..if prefill.is_some() { 3 } else { 1 }];
    let dur = |start: f64, end: f64| (end - start).max(0.0);
    let (first, last) = (slices[0], slices[slices.len() - 1]);
    // always-on black box: the journey's endpoints survive in the
    // flight ring even while the full recorder is off
    for (slice, kind) in [
        (first, FlightKind::FlowStart(id)),
        (last, FlightKind::FlowFinish(id)),
    ] {
        let (name, start, end, ..) = slice;
        flight::record(
            FlightEvent::flow(
                pids::SERVE,
                "serve.request",
                name,
                kind,
                start,
                dur(start, end),
            )
            .at_step(sub.id),
        );
    }
    if !rec.is_enabled() {
        return;
    }
    rec.set_track_name(pids::SERVE, tid, format!("req {}", sub.id));
    rec.extend(
        slices
            .iter()
            .map(|&(name, start, end, key, value)| {
                TraceEvent::complete(
                    pids::SERVE,
                    tid,
                    "serve.request",
                    name,
                    start,
                    dur(start, end),
                )
                .arg(key, value)
            })
            .collect(),
    );
    // the causal arrow: leaves the first slice, touches the middle one
    // if there is one, lands at the last slice's end (inclusive binding)
    let hop =
        |phase, name, ts| FlowEvent::at(phase, pids::SERVE, tid, "serve.request", name, id, ts);
    let mut flows = vec![hop(FlowPhase::Start, first.0, first.1)];
    if let [_, middle, _] = slices {
        flows.push(hop(FlowPhase::Step, middle.0, middle.1));
    }
    flows.push(hop(FlowPhase::Finish, last.0, last.1 + dur(last.1, last.2)));
    rec.extend_flows(flows);
}

/// One decode iteration over the batch, in three phases on the calling
/// (scheduler) thread:
///
/// 1. per request — finish checks, then sample from the staged logits
///    row and emit ([`Active::begin_step`]);
/// 2. **one** [`GptModel::forward_batch`] over every request that still
///    needs a row: plain requests ride one row each, drafting requests
///    first propose ([`Active::propose`]) and ride their `k + 1` verify
///    rows in the same weight stream;
/// 3. per request — take its logits rows, settling a speculative
///    macro-step ([`Active::finish_step`]).
///
/// Phase 2 is the one unwind scope of the decode path. A panic inside
/// the shared forward fails exactly the requests whose rows were in it:
/// they shared one pass over the weights, and a forward that died
/// part-way leaves every cache it was writing between `begin` and
/// `commit`, so none is trustworthy. A panic in one request's draft
/// forward, before the shared forward began, fails the same set — every
/// rider of the iteration, though only that request's draft state was
/// touched: the scope is per iteration, not per request. Requests that
/// finished in phase 1 keep their finish reason, parked requests and the
/// loop are untouched. (`forward_batch` checks every segment before it
/// touches any cache, so bad input cannot get that far.)
fn decode_iteration(
    model: &GptModel,
    weights: &Weights,
    spec: Option<&SpecRuntime>,
    active: &mut [Active],
    metrics: &MetricsInner,
) {
    let mut span = Span::enter(pids::SERVE, "serve", "decode-iter");
    let mut stepping: Vec<&mut Active> = active
        .iter_mut()
        .filter_map(|a| a.begin_step(metrics).then_some(a))
        .collect();
    if stepping.is_empty() {
        return;
    }
    let mut draft_at = Instant::now();
    let forward = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut segs: Vec<(&[u32], &mut dyn KvStorage)> = Vec::with_capacity(stepping.len());
        for a in stepping.iter_mut() {
            a.propose(model, spec);
            segs.push((&a.feed.tokens, a.cache.kv()));
        }
        let verify_at = Instant::now();
        let logits = model.forward_batch(weights, &mut segs);
        (logits, (verify_at, verify_at.elapsed()))
    }));
    let Ok((logits, verify)) = forward else {
        for a in stepping {
            a.done = Some(FinishReason::Failed);
        }
        return;
    };
    let v = model.cfg.vocab_size;
    let rows = logits.len() / v;
    metrics.decode_forwards.inc();
    metrics.decode_rows.add(rows as u64);
    span.set_arg("rows", rows as f64);
    let mut row = 0;
    for a in stepping {
        let (n, took) = (a.feed.tokens.len(), a.feed.draft_time);
        a.finish_step(&logits[row * v..(row + n) * v], draft_at, verify, metrics);
        row += n;
        // drafts ran back to back, in this order
        draft_at += took;
    }
}

/// The scheduler loop. Runs until every sender is gone and all queued
/// and active work has drained.
pub(crate) fn run(
    model: GptModel,
    store: ParamStore,
    cfg: SchedulerConfig,
    rx: Receiver<Submission>,
    metrics: Arc<MetricsInner>,
) {
    // the parking lot: every request outside the batch, ordered by id
    let mut parked: VecDeque<Parked> = VecDeque::new();
    let mut active: Vec<Active> = Vec::new();
    let mut used_budget = 0usize;
    Recorder::global().set_track_name(pids::SERVE, matgpt_obs::thread_tid(), "scheduler");
    flight::label_thread("serve-scheduler", None);

    // speculative decoding needs the f32 weights as the verifier, so
    // the draft quantizes from the store *before* precision selection
    // may consume it; under Int8 the mode degrades to plain decode
    // (the int8 weights are already the "draft" — there is nothing
    // cheaper to propose with)
    let spec: Option<SpecRuntime> = match (cfg.decode, cfg.precision) {
        (DecodeMode::Speculative { k }, WeightPrecision::F32) if k > 0 => Some(SpecRuntime {
            draft: QuantizedParamStore::for_draft(&model, &store),
            k,
        }),
        _ => None,
    };
    // KV rows one step of a drafting request may commit before rollback
    let spec_rows = spec.as_ref().map_or(1, |rt| rt.k + 1);
    // the one precision dispatch: every forward below goes through this
    // handle. Int8 quantizes here and drops the f32 store
    let weights: Box<Weights> = match cfg.precision {
        WeightPrecision::F32 => Box::new(store),
        WeightPrecision::Int8 => {
            let quantized = QuantizedParamStore::quantize(&model, &store);
            drop(store);
            Box::new(quantized)
        }
    };
    let weights = &*weights;
    metrics.weight_bytes.set(weights.weight_bytes() as f64);

    // last-seen pool totals, so the cumulative alloc/share counters
    // advance by per-iteration deltas
    let (mut prev_allocs, mut prev_shares) = (0u64, 0u64);
    let mut paged: Option<PagedState> = cfg.kv_backend.paged().map(|bc| {
        let pool = BlockPool::for_model(bc, &model);
        let prefix = PrefixCache::new(&pool, PREFIX_CACHE_CAP);
        PagedState { pool, prefix }
    });

    loop {
        // ---- intake: block when idle (every sender gone and nothing
        // left to do ends the loop), drain opportunistically otherwise
        if active.is_empty() && parked.is_empty() {
            match rx.recv() {
                Ok(sub) => parked.push_back(Parked::fresh(sub)),
                Err(_) => break,
            }
        }
        while let Ok(sub) = rx.try_recv() {
            parked.push_back(Parked::fresh(sub));
        }

        let iter_start = Instant::now();

        // ---- sweep parked requests already cancelled or expired
        sweep_parked(&mut parked, Instant::now(), &metrics);

        // ---- admission
        match paged.as_mut() {
            None => {
                // contiguous: strict FIFO, worst-case token budget,
                // batched rayon prefill over everything admitted at once
                let mut admitted: Vec<(Parked, usize)> = Vec::new();
                while let Some(front) = parked.front() {
                    if active.len() + admitted.len() >= cfg.max_batch {
                        break;
                    }
                    let cost = token_cost(&front.sub, model.cfg.max_seq);
                    let batch_empty = active.is_empty() && admitted.is_empty();
                    if !batch_empty && used_budget + cost > cfg.token_budget {
                        break;
                    }
                    let Some(p) = parked.pop_front() else { break };
                    used_budget += cost;
                    admitted.push((p, cost));
                }
                if !admitted.is_empty() {
                    let _span = Span::enter(pids::SERVE, "serve", "prefill-batch");
                    // batched prefill: all newly admitted prompts forward together
                    let fresh: Vec<Result<Active, Box<Parked>>> = admitted
                        .into_par_iter()
                        .map(|(p, cost)| {
                            let cache = ReqKv::Contig(model.new_cache());
                            Active::try_prefill(&model, weights, p, cost, cache, spec.is_some())
                        })
                        .collect_vec();
                    for prefilled in fresh {
                        match prefilled {
                            Ok(a) => active.push(a),
                            Err(p) => {
                                // panicked prefill: free its budget, answer Failed
                                used_budget -= token_cost(&p.sub, model.cfg.max_seq);
                                p.retire(FinishReason::Failed, None, &metrics);
                            }
                        }
                    }
                }
            }
            Some(ps) => {
                // paged: block-granular admission from the head of the
                // lot (preempted requests first). Prefills run serially
                // so a wave sharing a system prompt forks the blocks
                // the wave's first prefill just registered (the forward
                // itself is rayon-parallel inside).
                let _span = Span::enter(pids::SERVE, "serve", "prefill-paged");
                let max_seq = model.cfg.max_seq;
                while active.len() < cfg.max_batch {
                    let Some(p) = parked.pop_front() else { break };
                    let seq: &[u32] = &p.tokens;
                    // sequences that fit the window fork the longest
                    // cached prefix; longer ones prefill a fresh
                    // truncated window (nothing block-aligned to share)
                    let mut kv = if seq.len() <= max_seq {
                        ps.prefix.fork_longest(seq, max_seq)
                    } else {
                        None
                    }
                    .unwrap_or_else(|| ps.pool.new_seq(max_seq));
                    let rows = seq.len() - first_uncached(seq.len(), kv.len(), max_seq);
                    // headroom: every already-active request may claim
                    // more blocks on the next decode step (one for
                    // plain decode, enough for k + 1 transient rows
                    // under speculation); admitting into that margin
                    // would trigger an immediate preemption ping-pong
                    let headroom = active.len() * spec_rows.div_ceil(ps.pool.block_size());
                    let (prefix, pool) = (&mut ps.prefix, &ps.pool);
                    let ok = evict_until(prefix, &metrics, || kv.reserve_rows(rows).is_ok())
                        && evict_until(prefix, &metrics, || pool.free_blocks() >= headroom);
                    if !ok {
                        drop(kv); // release whatever was reserved
                        if active.is_empty() {
                            // nothing running will ever free blocks, so
                            // requeueing would spin: a lone request that
                            // cannot fit retires typed-Failed.
                            // `Engine::submit`'s capacity check makes
                            // this unreachable in practice.
                            p.retire(FinishReason::Failed, None, &metrics);
                            continue;
                        }
                        // pool is busy: park the request at the head and
                        // stop admitting until blocks free up
                        parked.push_front(p);
                        break;
                    }
                    let kv = ReqKv::Paged(kv);
                    match Active::try_prefill(&model, weights, p, 0, kv, spec.is_some()) {
                        Ok(a) => {
                            // register the prompt prefix for sharing —
                            // valid only when the cache holds the prompt
                            // from position 0 (no window truncation)
                            if a.state.tokens.len() <= max_seq {
                                if let Some(pkv) = a.cache.paged() {
                                    let plen = a.state.sub.req.prompt.len();
                                    ps.prefix.register(&a.state.tokens[..plen], pkv);
                                }
                            }
                            active.push(a);
                        }
                        Err(p) => p.retire(FinishReason::Failed, None, &metrics),
                    }
                }
            }
        }

        metrics.record_queue_depth(parked.len());
        metrics.active.set(active.len() as f64);

        if active.is_empty() {
            continue;
        }

        // ---- paged: secure one decode block per live request before
        // the shared forward; exhaustion evicts prefix-cache entries and
        // then preempts the youngest request (its blocks return to the
        // pool, its progress parks for re-admission by recompute)
        if let Some(ps) = paged.as_mut() {
            // oldest ids claim first, so the preemption victim (max id,
            // last element) is always at or after the cursor
            active.sort_by_key(|a| a.state.sub.id);
            let mut i = 0;
            while i < active.len() {
                // speculative requests commit up to k + 1 rows in one
                // macro-step (the rejected tail rolls back, returning
                // its blocks); plain requests commit exactly one
                let rows = active[i].draft.as_ref().map_or(1, |_| spec_rows);
                let cache = &mut active[i].cache;
                if evict_until(&mut ps.prefix, &metrics, || {
                    cache.reserve_decode(rows).is_ok()
                }) {
                    i += 1;
                    continue;
                }
                if active.len() == 1 {
                    // cannot free anything: typed failure instead of a
                    // livelock (unreachable given the submit-time
                    // capacity check)
                    let mut a = active.remove(0);
                    a.done = Some(FinishReason::Failed);
                    a.retire(&metrics);
                    break;
                }
                let a = active.remove(active.len() - 1);
                metrics.preemptions.inc();
                metrics
                    .kv_blocks_evicted
                    .add(a.cache.paged().map_or(0, |p| p.blocks_held()) as u64);
                // its cache drops with `a` — the blocks return to the
                // pool — while its progress re-enters the lot by id, so
                // re-admission stays oldest-first
                let at = parked
                    .iter()
                    .position(|q| q.sub.id > a.state.sub.id)
                    .unwrap_or(parked.len());
                parked.insert(at, a.state);
            }
            if active.is_empty() {
                continue;
            }
        }

        // ---- one decode iteration across the whole batch
        decode_iteration(&model, weights, spec.as_ref(), &mut active, &metrics);

        // ---- KV occupancy while every active cache is still held, so
        // the peak gauge sees the true high-water mark of the iteration
        match &paged {
            Some(ps) => {
                let st = ps.pool.stats();
                metrics.record_kv_usage(
                    st.allocated * st.block_bytes,
                    st.allocated,
                    st.shared_extra,
                );
                metrics.kv_block_allocs.add(st.allocs_total - prev_allocs);
                metrics.kv_block_shares.add(st.shares_total - prev_shares);
                (prev_allocs, prev_shares) = (st.allocs_total, st.shares_total);
            }
            None => {
                let bytes: usize = active.iter_mut().map(|a| a.cache.kv().kv_bytes()).sum();
                metrics.record_kv_usage(bytes, 0, 0);
            }
        }

        // ---- retire finished requests, freeing their budget
        let mut retired = Vec::new();
        let mut j = 0;
        while j < active.len() {
            if active[j].done.is_some() {
                let a = active.swap_remove(j);
                used_budget -= a.reserved;
                retired.push(a);
            } else {
                j += 1;
            }
        }
        // update gauges before answering, so a client that snapshots
        // metrics right after its response sees them already settled
        metrics.active.set(active.len() as f64);
        metrics.record_busy(iter_start.elapsed());
        for a in retired {
            a.retire(&metrics);
        }
    }
    // hand any spans still buffered on this thread to the recorder
    // before the scheduler thread exits
    matgpt_obs::flush_thread();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::GenRequest;
    use matgpt_model::config::{ArchKind, GptConfig};
    use matgpt_model::{generate, SampleOptions};
    use matgpt_tensor::{init, ParamId};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tiny_model() -> (GptModel, ParamStore) {
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
        (model, store)
    }

    fn greedy(max_new_tokens: usize) -> SampleOptions {
        SampleOptions {
            temperature: 0.0,
            top_k: 0,
            max_new_tokens,
            stop_token: None,
        }
    }

    /// A parked greedy request and the channel its response arrives on.
    fn parked(
        id: u64,
        prompt: Vec<u32>,
        max_new: usize,
        metrics: &MetricsInner,
    ) -> (Parked, Receiver<Response>) {
        assert!(metrics.try_claim_slot(usize::MAX));
        let (tx, rx) = crossbeam::channel::unbounded();
        let mut req = GenRequest::new(prompt);
        req.opts = greedy(max_new);
        let sub = Submission {
            id,
            req,
            submitted: Instant::now(),
            absolute_deadline: None,
            cancel: Arc::default(),
            tx,
            flow_id: 0,
        };
        (Parked::fresh(sub), rx)
    }

    /// `n` greedy requests with distinct prompts, admitted and prefilled
    /// the way `run` does it: on `pool` when paged, drafting when `spec`.
    fn admit(
        n: u64,
        max_new: usize,
        model: &GptModel,
        weights: &Weights,
        pool: Option<&BlockPool>,
        spec: bool,
        metrics: &MetricsInner,
    ) -> Vec<Active> {
        (0..n)
            .map(|id| {
                let prompt: Vec<u32> = (0..3 + id % 3)
                    .map(|i| ((id * 5 + i) % 30) as u32)
                    .collect();
                let cache = match pool {
                    None => ReqKv::Contig(model.new_cache()),
                    Some(pool) => {
                        let mut kv = pool.new_seq(model.cfg.max_seq);
                        kv.reserve_rows(prompt.len()).expect("ample pool");
                        ReqKv::Paged(kv)
                    }
                };
                let (p, _rx) = parked(id, prompt, max_new, metrics);
                Active::try_prefill(model, weights, p, 0, cache, spec)
                    .unwrap_or_else(|_| panic!("prefill {id}"))
            })
            .collect()
    }

    /// `run`'s decode loop over an already admitted batch: reserve, one
    /// [`decode_iteration`], pull out what finished. Returns the finished
    /// requests and, per iteration, `(requests in the batch, rows its
    /// forward carried)`.
    fn drive(
        model: &GptModel,
        weights: &Weights,
        spec: Option<&SpecRuntime>,
        mut active: Vec<Active>,
        metrics: &MetricsInner,
    ) -> (Vec<Active>, Vec<(u64, u64)>) {
        let (mut finished, mut iterations) = (Vec::new(), Vec::new());
        while !active.is_empty() {
            for a in active.iter_mut() {
                let rows = a
                    .draft
                    .as_ref()
                    .map_or(1, |_| spec.map_or(1, |rt| rt.k + 1));
                a.cache.reserve_decode(rows).expect("ample pool");
            }
            let (forwards, rows) = (metrics.decode_forwards.get(), metrics.decode_rows.get());
            decode_iteration(model, weights, spec, &mut active, metrics);
            let rows = metrics.decode_rows.get() - rows;
            assert_eq!(
                metrics.decode_forwards.get() - forwards,
                u64::from(rows > 0),
                "an iteration is at most one pass over the weights"
            );
            iterations.push((active.len() as u64, rows));
            let (done, live) = active.into_iter().partition(|a| a.done.is_some());
            active = live;
            finished.extend(done);
        }
        (finished, iterations)
    }

    /// The f32 weights, counting the matmuls that stream them — and
    /// panicking on the `fault_at`-th, when one is set.
    struct CountedWeights {
        inner: ParamStore,
        matmuls: AtomicUsize,
        fault_at: AtomicUsize,
    }

    impl CountedWeights {
        fn new(inner: ParamStore) -> Self {
            Self {
                inner,
                matmuls: AtomicUsize::new(0),
                fault_at: AtomicUsize::new(0),
            }
        }

        fn matmuls(&self) -> usize {
            self.matmuls.load(Ordering::Relaxed)
        }
    }

    impl ForwardParams for CountedWeights {
        fn dense(&self, id: ParamId) -> &[f32] {
            self.inner.dense(id)
        }
        fn matmul(&self, x: &[f32], id: ParamId, c: &mut [f32], m: usize, k: usize, n: usize) {
            let call = self.matmuls.fetch_add(1, Ordering::Relaxed) + 1;
            assert_ne!(
                call,
                self.fault_at.load(Ordering::Relaxed),
                "injected fault"
            );
            self.inner.matmul(x, id, c, m, k, n);
        }
        fn weight_bytes(&self) -> usize {
            self.inner.weight_bytes()
        }
    }

    #[test]
    fn an_iteration_is_one_forward_whatever_the_batch() {
        let (model, store) = tiny_model();
        let max_new = 10;
        let rt = SpecRuntime {
            draft: QuantizedParamStore::for_draft(&model, &store),
            k: 2,
        };
        // one pass over the weights: seven linears a layer and the LM head
        let per_forward = 7 * model.cfg.layers + 1;
        let weights = CountedWeights::new(store);
        let store = &weights.inner;
        let bc = KvBlockConfig {
            block_size: 4,
            num_blocks: 256,
        };
        // (requests, paged, speculative); 12 stacks two matmul row tiles
        for (n, paged, speculative) in [
            (4, false, false),
            (4, true, false),
            (4, false, true),
            (4, true, true),
            (12, false, false),
        ] {
            let metrics = MetricsInner::default();
            let pool = paged.then(|| BlockPool::for_model(bc, &model));
            let spec = speculative.then_some(&rt);
            let active = admit(
                n,
                max_new,
                &model,
                &weights,
                pool.as_ref(),
                speculative,
                &metrics,
            );
            let prefilled = weights.matmuls();
            let (finished, iterations) = drive(&model, &weights, spec, active, &metrics);

            for a in &finished {
                let prompt = &a.state.sub.req.prompt;
                let reference =
                    generate(&model, store, prompt, &greedy(max_new), &mut init::rng(0));
                assert_eq!(a.state.tokens, reference, "request {}", a.state.sub.id);
                assert_eq!(a.done, Some(FinishReason::Length));
            }
            let snap = metrics.snapshot();
            // the weights were streamed once per iteration, not per request
            assert_eq!(
                weights.matmuls() - prefilled,
                per_forward * snap.decode_forwards as usize,
                "{n}/{paged}/{speculative}"
            );
            if speculative {
                // every iteration is one verify forward, shared by all
                // that are left: k_eff + 1 rows a request
                assert_eq!(snap.decode_forwards, iterations.len() as u64);
                for (batch, rows) in iterations {
                    assert!(rows >= batch, "{rows} rows for {batch} requests");
                }
                assert!(snap.spec_drafted > 0, "nothing drafted");
            } else {
                // lockstep: max_new - 1 forwards of n rows each, then an
                // iteration in which everyone emits the last token
                assert_eq!(
                    iterations,
                    [vec![(n, n); max_new - 1], vec![(n, 0)]].concat()
                );
                assert_eq!(snap.decode_forwards, max_new as u64 - 1, "{n}/{paged}");
                assert_eq!(snap.decode_rows, n * snap.decode_forwards);
            }
            assert_eq!(snap.generated_tokens, n * max_new as u64);
        }
    }

    #[test]
    fn a_panicked_shared_forward_fails_exactly_the_requests_in_it() {
        let (model, store) = tiny_model();
        let weights = CountedWeights::new(store);
        let metrics = MetricsInner::default();
        let mut active = admit(3, 8, &model, &weights, None, false, &metrics);
        // request 2 wants two tokens: it emits its last in phase 1 of the
        // second iteration and is not in that iteration's forward
        active[2].state.sub.req.opts.max_new_tokens = 2;

        decode_iteration(&model, &weights, None, &mut active, &metrics);
        assert!(active.iter().all(|a| a.done.is_none()));
        // the second iteration's forward dies at its fourth linear, with
        // every rider's cache begun, written and not committed
        weights
            .fault_at
            .store(weights.matmuls() + 4, Ordering::Relaxed);
        decode_iteration(&model, &weights, None, &mut active, &metrics);

        let reasons: Vec<_> = active.iter().map(|a| a.done).collect();
        assert_eq!(
            reasons,
            [
                Some(FinishReason::Failed),
                Some(FinishReason::Failed),
                Some(FinishReason::Length)
            ]
        );
        // the failed keep what they had emitted: prompt + two tokens
        for a in &active[..2] {
            assert_eq!(a.state.generated, 2);
            assert_eq!(a.state.tokens.len(), a.state.sub.req.prompt.len() + 2);
        }
        assert_eq!(metrics.decode_forwards.get(), 1, "only the first completed");

        // a fault in one request's draft forward (its lag holds a token
        // outside the vocabulary) is inside the same scope: it fails the
        // healthy rider next to it too, before any shared forward begins
        let rt = SpecRuntime {
            draft: QuantizedParamStore::for_draft(&model, &weights.inner),
            k: 2,
        };
        let mut drafting = admit(2, 8, &model, &weights, None, true, &metrics);
        drafting[1].draft = Some(DraftState::new(&model, &[29_999]));
        let streamed = weights.matmuls();
        decode_iteration(&model, &weights, Some(&rt), &mut drafting, &metrics);
        for a in &drafting {
            assert_eq!(a.done, Some(FinishReason::Failed));
            assert_eq!(a.state.generated, 0, "failed before emitting");
        }
        assert_eq!(weights.matmuls(), streamed, "no shared forward began");
        assert_eq!(metrics.decode_forwards.get(), 1);

        // the loop is alive: the next batch decodes to the reference
        let fresh = admit(2, 4, &model, &weights, None, false, &metrics);
        let (finished, _) = drive(&model, &weights, None, fresh, &metrics);
        for a in &finished {
            let prompt = &a.state.sub.req.prompt;
            let reference = generate(
                &model,
                &weights.inner,
                prompt,
                &greedy(4),
                &mut init::rng(0),
            );
            assert_eq!(a.state.tokens, reference);
        }
    }

    #[test]
    fn failed_reprefill_hands_the_parked_request_back_with_its_tokens() {
        let (model, store) = tiny_model();
        let metrics = MetricsInner::default();
        // a preempted request two tokens into its generation; the second
        // is out of vocabulary, so the recompute prefill panics
        let (fresh, rx) = parked(0, vec![1, 2, 3], 32, &metrics);
        let parked = Parked {
            tokens: vec![1, 2, 3, 7, 29_999],
            generated: 2,
            ttft: Some(Duration::from_millis(5)),
            ..fresh
        };
        let cache = ReqKv::Contig(model.new_cache());
        let Err(back) = Active::try_prefill(&model, &store, parked, 0, cache, false) else {
            panic!("out-of-vocab recompute must not prefill");
        };
        back.retire(FinishReason::Failed, None, &metrics);
        let r = rx.try_recv().expect("answered");
        assert_eq!(r.finish, FinishReason::Failed);
        assert_eq!(
            r.tokens,
            [1, 2, 3, 7, 29_999],
            "progress before eviction kept"
        );
        assert_eq!(r.generated, 2);
        assert_eq!(r.ttft, Duration::from_millis(5));
        let snap = metrics.snapshot();
        assert_eq!((snap.completed, snap.failed, snap.backlog), (1, 1, 0));
    }
}
