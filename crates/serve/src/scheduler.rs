//! Continuous-batching scheduler.
//!
//! One scheduler thread owns the model and a `Scheduler`: the **parking
//! lot** — one deque, ordered by request id, of every request outside
//! the batch (`Parked`: newly submitted, or preempted mid-decode) — and
//! the **batch** (`Active`). `run` drains new submissions onto the back
//! of the lot and calls `Scheduler::step`, one iteration, which (1)
//! admits from the lot's head while the batch slot and KV budgets allow
//! — strict head-of-line order, so admission is oldest-first — (2) runs
//! **one shared forward** (`shared_forward`): one ragged
//! [`GptModel::forward_batch`] carries each newcomer's uncached prompt
//! window (a *prefill rider*) next to the token each decoding request
//! just sampled, or the `k + 1` verify rows its draft proposed (a
//! *decode rider*), so an iteration streams the weights once whatever
//! arrived, on either KV backend, and (3) retires requests that hit
//! their stop token, length budget, deadline, or a client cancel,
//! freeing their budget for the next iteration's admission. A request
//! leaves the engine one way, wherever it is: `Parked::retire`. `step`
//! needs no thread, so tests drive it directly.
//!
//! Faults are isolated by the scheduler's one `catch_unwind`, around the
//! shared forward: a panic inside it fails exactly its riders, prefill
//! and decode alike. They retire with [`FinishReason::Failed`], keeping
//! their tokens, their half-written KV state discarded and their budget
//! returned; requests outside that forward, parked requests and the
//! loop carry on. The scope is per forward, not per request: a real
//! fault in a newcomer's prefill also fails the decode riders next to
//! it, and so does a panic in one request's draft forward (drafts
//! propose inside the scope). Bad input never widens it: a request whose
//! window [`GptModel::check_segment`] refuses fails at admission, before
//! it holds budget or blocks, and `forward_batch` validates every
//! segment again before it touches a cache.
//!
//! ## KV admission policies
//!
//! Every request's KV state is one [`PagedKv`], which reaches the model
//! forward as it is (DECODING.md tabulates the whole decode path).
//! [`SchedulerConfig::kv_backend`] picks where its blocks come from and
//! how requests are admitted:
//!
//! * [`KvBackend::Contiguous`] (default) — each request gets a private
//!   pool ([`GptModel::new_cache`]) that its forwards can never exhaust;
//!   admission is governed by the worst-case `token_budget`.
//! * [`KvBackend::Paged`] — requests draw fixed-size blocks from one
//!   shared [`BlockPool`] as they actually grow, so admission is
//!   **block-granular**: a request joins when the pool can cover its
//!   prompt, not its worst case. The scheduler reserves every forward's
//!   rows before it runs, so exhaustion is a typed
//!   [`crate::KvExhausted`] it handles, never the forward's panic.
//!   Prompts that repeat a recently served prefix fork its blocks
//!   copy-on-write from the [`PrefixCache`] instead of recomputing the
//!   prefill. A newcomer registers its prompt prefix as soon as its blocks are
//!   reserved, so a younger wave-mate forks blocks the iteration's
//!   shared forward has yet to fill (SERVING.md §3 says why that is
//!   sound; a forward that fails withdraws them). When a decode step
//!   cannot get a block the scheduler evicts prefix-cache entries first
//!   and then **preempts** the youngest active request: its blocks
//!   return to the pool and its decode progress (tokens, rng stream,
//!   ttft) re-enters the lot *by id*. Ids follow submission order and
//!   everything active left the lot's head earlier, so it sorts ahead
//!   of everything still queued and is re-admitted first, via a
//!   recompute prefill that reproduces its pre-eviction logits
//!   bit-for-bit while its tokens fit the window (past it, the
//!   recompute re-encodes the window from position 0). Both policies
//!   produce bit-identical logits for identical request streams (see
//!   `tests/paged_kv.rs`).
//!
//! When the global `matgpt-obs` recorder is enabled, the scheduler
//! traces itself on [`pids::SERVE`]: an RAII span around each shared
//! forward on the scheduler thread's track (`decode-iter` when it
//! carries a decode row, `prefill-batch` otherwise, each with its
//! `rows`), and a reconstructed queued → prefill → decode lifecycle
//! track per request (tid `REQ_TRACK_BASE + id`, named "req N"),
//! emitted from the captured `Instant`s when the request retires — from
//! the batch or, as a single `queued` slice, from the lot.

use crate::metrics::MetricsInner;
use crate::request::{FinishReason, Response, Submission};
use crossbeam::channel::Receiver;
use matgpt_model::kv::{BlockPool, KvBlockConfig, PagedKv, PrefixCache};
use matgpt_model::speculative::{DraftState, Proposal, SpecOutcome};
use matgpt_model::{
    generate::sample_logits, ForwardParams, GptModel, QuantizedParamStore, WeightPrecision,
};
use matgpt_obs::flight::{self, FlightEvent, FlightKind};
use matgpt_obs::{pids, FlowEvent, FlowPhase, Recorder, Span, TraceEvent};
use matgpt_tensor::ParamStore;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
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

/// Where the scheduler takes each request's KV blocks from, and so how
/// it admits requests. Every request is a [`PagedKv`] either way.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KvBackend {
    /// One private pool per request ([`GptModel::new_cache`]), sized so
    /// that the request's forwards never exhaust it. Peak KV memory is
    /// the sum of worst cases, so admission reserves `token_budget`
    /// headroom a request may never use.
    #[default]
    Contiguous,
    /// One shared [`BlockPool`] of this geometry: memory is claimed
    /// block-by-block as sequences grow, admission is block-granular,
    /// identical prompt prefixes share blocks copy-on-write, and pool
    /// exhaustion preempts (rather than crashes) the youngest request.
    /// Use for high request counts with common system prompts — see
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
    /// weight memory. `repro ext_quant` measures its logits drift,
    /// perplexity and compression; no benchmark workload serves `Int8`,
    /// so its speed record is ROADMAP item 2's off-benchmark kernel
    /// table.
    pub precision: WeightPrecision,
    /// KV admission policy. [`KvBackend::Contiguous`] (the default)
    /// gives each request a private pool and admits against
    /// `token_budget`; [`KvBackend::Paged`] draws fixed-size blocks from
    /// one shared pool with copy-on-write prefix sharing, admits at
    /// block granularity, and preempts under memory pressure. Both keep
    /// each request's KV in the same [`PagedKv`], so their output is
    /// bit-identical — the knob trades peak KV memory against admission
    /// and preemption bookkeeping.
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

    /// Whether [`GptModel::check_segment`] refuses the window a prefill
    /// of this request forwards on an empty cache: its trailing
    /// `max_seq` tokens. A forked paged cache forwards a non-empty
    /// suffix of that window, past tokens a registered prompt already
    /// passed, so one check at admission covers both backends.
    fn refused(&self, model: &GptModel) -> bool {
        let start = first_uncached(self.tokens.len(), 0, model.cfg.max_seq);
        model.check_segment(&self.tokens[start..]).is_err()
    }

    /// The one way a request leaves the engine, whatever state it was
    /// in: close its traced lifecycle (`prefill` is when its last
    /// prefill began and ended; `None` when it retires without one
    /// since it last left the lot), count it (a [`FinishReason::Failed`]
    /// one also dumps its postmortem), free its in-flight slot, then
    /// send the response with whatever it had generated — in that
    /// order, so a client that snapshots metrics right after its
    /// response sees them settled.
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

/// A request that has been admitted into the batch.
struct Active {
    /// What the request takes with it when it is preempted or retires.
    state: Parked,
    cache: PagedKv,
    /// Logits row the next token will be sampled from.
    last_row: Vec<f32>,
    last_token_at: Instant,
    reserved: usize,
    /// Int8 self-draft state, present only when the engine runs
    /// [`DecodeMode::Speculative`] and this request decodes greedily.
    /// Recreated fresh on preemption-resume (safe: the draft never
    /// influences output, only acceptance rate).
    draft: Option<DraftState>,
    /// The tokens this request feeds the next shared forward: its
    /// uncached window while it waits for its prefill, then the token
    /// it just sampled, or — drafting — the `[t₁, d₁..d_k]` its draft
    /// proposed, which the forward's rows then verify.
    feed: Proposal,
    done: Option<FinishReason>,
    /// When this request's prefill forward began / finished — the
    /// boundaries of its traced queued/prefill/decode lifecycle. `None`
    /// until that forward has run: the request is a prefill rider.
    prefill: Option<(Instant, Instant)>,
}

impl Active {
    /// `state` admitted onto `cache` with `reserved` budget, to ride the
    /// next shared forward as a prefill rider. It feeds what its storage
    /// does not hold yet, `tokens[first_uncached(..)..]`: the trailing
    /// `max_seq` window, or the suffix past a forked shared prefix; a
    /// preempted request recomputes over prompt + generated and resumes
    /// its rng stream where it stood.
    fn admitted(state: Parked, reserved: usize, cache: PagedKv, max_seq: usize) -> Self {
        let start = first_uncached(state.tokens.len(), cache.len(), max_seq);
        Self {
            feed: Proposal {
                tokens: state.tokens[start..].to_vec(),
                ..Proposal::default()
            },
            state,
            cache,
            last_row: Vec::new(),
            last_token_at: Instant::now(),
            reserved,
            draft: None,
            done: None,
            prefill: None,
        }
    }

    /// A decode rider's boarding: decide whether to finish; otherwise a
    /// plain request samples its next token from the staged logits,
    /// emits it and — unless that finished it — stages it in `feed`. A
    /// drafting request only passes the checks here: its tokens come
    /// out of the macro-step ([`Active::propose`] → shared forward →
    /// [`Active::finish_step`]) all at once. Returns whether the request
    /// rides in the iteration's forward.
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

    /// Drafting decode riders only: the propose half of one
    /// speculative macro-step — `feed` becomes the `[t₁, d₁..d_k]` the
    /// shared forward verifies. Runs the draft's forwards, so the caller
    /// scopes it with the shared forward's `catch_unwind`.
    fn propose(&mut self, model: &GptModel, spec: Option<&SpecRuntime>) {
        if let (Some(rt), Some(draft)) = (spec, self.draft.as_mut()) {
            let Parked { sub, generated, .. } = &self.state;
            let remaining = sub.req.opts.max_new_tokens - generated;
            let (cache, row) = (&self.cache, &self.last_row);
            self.feed = draft.propose(model, &rt.draft, rt.k, cache, row, remaining);
        }
    }

    /// A prefill rider's share: take its `rows` out of the shared
    /// forward that ran over `at` (start, end). It stages its last row
    /// for its first sample and, decoding greedily under speculation,
    /// builds its draft (a sampled request's rng stream must advance
    /// token by token; the draft windows `tokens` to `max_seq` itself).
    fn prefilled(&mut self, rows: &[f32], at: (Instant, Instant), model: &GptModel, spec: bool) {
        self.last_row = rows[rows.len() - model.cfg.vocab_size..].to_vec();
        self.draft = (spec && self.state.sub.req.opts.temperature <= 0.0)
            .then(|| DraftState::new(model, &self.state.tokens));
        self.last_token_at = at.1;
        self.prefill = Some(at);
    }

    /// A decode rider's share: take its `rows`
    /// (`[feed.tokens.len(), vocab]`) out of the shared forward that ran
    /// over `at` (start, end). A plain request stages its one row for
    /// the next iteration's sample. A drafting request settles its
    /// macro-step — accept, roll back — and emits the 1 to `k + 1`
    /// tokens it produced: identical to what the plain path would emit
    /// one at a time, only throughput and per-step accounting differ.
    /// `draft_at` is when its propose half began, for the trace.
    fn finish_step(
        &mut self,
        rows: &[f32],
        draft_at: Instant,
        at: (Instant, Instant),
        metrics: &MetricsInner,
    ) {
        let Some(draft) = self.draft.as_mut() else {
            self.last_row.clear();
            self.last_row.extend_from_slice(rows);
            return;
        };
        let settle_at = Instant::now();
        let feed = std::mem::take(&mut self.feed);
        let out = draft.settle(feed, rows, at.1 - at.0, &mut self.cache, &mut self.last_row);
        let done_at = Instant::now();
        if out.drafted > 0 {
            metrics.record_spec(
                out.drafted as u64,
                out.accepted as u64,
                out.rolled_back as u64,
            );
        }
        emit_spec_spans(self.state.sub.id, [draft_at, at.0, settle_at], &out);
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

    /// Leave the batch with whatever was generated, handing the budget
    /// it reserved back to `used_budget`.
    fn retire(self, used_budget: &mut usize, metrics: &MetricsInner) {
        *used_budget -= self.reserved;
        let finish = self.done.unwrap_or(FinishReason::Length);
        self.state.retire(finish, self.prefill, metrics);
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

/// Retry `fits` — a block claim, or a free-block check — evicting one
/// prefix-cache entry after each failure and counting the block
/// references it freed as evictions; false once it still fails with
/// nothing left to evict (the caller parks, preempts or fails).
fn evict_until(
    prefix: &mut PrefixCache,
    metrics: &MetricsInner,
    mut fits: impl FnMut() -> bool,
) -> bool {
    while !fits() {
        match prefix.evict_one() {
            0 => return false,
            n => metrics.kv_blocks_evicted.add(n as u64),
        }
    }
    true
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

/// One pass over the weights for `riders`, on the calling (scheduler)
/// thread: each rider boards — every prefill rider (admission already
/// checked its window), and each decode rider that
/// [`Active::begin_step`] does not finish — then **one**
/// [`GptModel::forward_batch`] carries every rider that boarded, in
/// `riders` order — prefill windows, plain decode rows, the `k + 1`
/// verify rows a drafting rider proposes ([`Active::propose`]) — and
/// each takes its rows ([`Active::prefilled`], [`Active::finish_step`]).
///
/// The proposes and the forward are the scheduler's one unwind scope. A
/// panic inside it marks every rider that boarded [`FinishReason::Failed`]
/// for the caller to retire: they shared one pass over the weights, and
/// a forward that died part-way leaves every cache it was writing
/// between `begin` and `commit`, so none is trustworthy. Riders that
/// finished while boarding keep their reason. A forward counts once,
/// under `decode_forwards` when it carried a decode row and
/// `prefill_forwards` otherwise; its rows count by kind.
fn shared_forward(
    model: &GptModel,
    weights: &Weights,
    spec: Option<&SpecRuntime>,
    riders: &mut [Active],
    metrics: &MetricsInner,
) {
    let mut boarded: Vec<&mut Active> = riders
        .iter_mut()
        .filter_map(|a| (a.prefill.is_none() || a.begin_step(metrics)).then_some(a))
        .collect();
    if boarded.is_empty() {
        return;
    }
    let (name, forwards) = match boarded.iter().any(|a| a.prefill.is_some()) {
        true => ("decode-iter", &metrics.decode_forwards),
        false => ("prefill-batch", &metrics.prefill_forwards),
    };
    let mut span = Span::enter(pids::SERVE, "serve", name);
    let mut draft_at = Instant::now();
    let forward = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut segs: Vec<(&[u32], &mut PagedKv)> = Vec::with_capacity(boarded.len());
        for a in boarded.iter_mut() {
            a.propose(model, spec);
            segs.push((&a.feed.tokens, &mut a.cache));
        }
        let start = Instant::now();
        let logits = model.forward_batch(weights, &mut segs);
        (logits, (start, Instant::now()))
    }));
    let Ok((logits, at)) = forward else {
        for a in boarded {
            a.done = Some(FinishReason::Failed);
        }
        return;
    };
    let v = model.cfg.vocab_size;
    let (mut rows, mut prompt_rows) = (0, 0);
    for a in boarded {
        let n = a.feed.tokens.len();
        let own = &logits[rows * v..(rows + n) * v];
        rows += n;
        if a.prefill.is_none() {
            prompt_rows += n;
            a.prefilled(own, at, model, spec.is_some());
        } else {
            let took = a.feed.draft_time;
            a.finish_step(own, draft_at, at, metrics);
            // drafts ran back to back, in this order
            draft_at += took;
        }
    }
    forwards.inc();
    metrics.prefill_rows.add(prompt_rows as u64);
    metrics.decode_rows.add((rows - prompt_rows) as u64);
    span.set_arg("rows", rows as f64);
}

/// Everything one engine's scheduler owns: the model and the weights
/// every forward runs against, the parking lot, the batch, the token
/// budget the batch holds and, paged, the pool. [`Scheduler::step`] is
/// one iteration; [`run`] feeds it submissions.
struct Scheduler {
    model: GptModel,
    weights: Arc<Weights>,
    spec: Option<SpecRuntime>,
    cfg: SchedulerConfig,
    metrics: Arc<MetricsInner>,
    /// The parking lot: every request outside the batch, ordered by id.
    parked: VecDeque<Parked>,
    active: Vec<Active>,
    /// Σ `reserved` over `active`.
    used_budget: usize,
    paged: Option<PagedState>,
}

impl Scheduler {
    fn new(
        model: GptModel,
        weights: Arc<Weights>,
        spec: Option<SpecRuntime>,
        cfg: SchedulerConfig,
        metrics: Arc<MetricsInner>,
    ) -> Self {
        metrics.weight_bytes.set(weights.weight_bytes() as f64);
        let paged = cfg.kv_backend.paged().map(|bc| {
            let pool = BlockPool::for_model(bc, &model);
            let prefix = PrefixCache::new(&pool, PREFIX_CACHE_CAP);
            PagedState { pool, prefix }
        });
        Self {
            model,
            weights,
            spec,
            cfg,
            metrics,
            parked: VecDeque::new(),
            active: Vec::new(),
            used_budget: 0,
            paged,
        }
    }

    /// Nothing parked and nothing in the batch.
    fn idle(&self) -> bool {
        self.active.is_empty() && self.parked.is_empty()
    }

    /// One iteration: sweep the lot, admit from its head, (paged) secure
    /// every decode row a block, run the shared forward and settle the
    /// prefixes its riders registered, record KV occupancy, retire what
    /// finished.
    fn step(&mut self) {
        let iter_start = Instant::now();
        sweep_parked(&mut self.parked, iter_start, &self.metrics);
        if self.paged.is_some() {
            self.admit_paged();
        } else {
            self.admit_contiguous();
        }
        self.metrics.record_queue_depth(self.parked.len());
        self.metrics.active.set(self.active.len() as f64);
        self.reserve_decode_blocks();
        if self.active.is_empty() {
            return;
        }
        let (model, weights, spec) = (&self.model, &*self.weights, self.spec.as_ref());
        shared_forward(model, weights, spec, &mut self.active, &self.metrics);
        if let Some(ps) = &mut self.paged {
            // every prefill rider boarded, so the forward wrote their
            // prefixes unless it failed them all
            let wrote = self.active.iter().all(|a| a.prefill.is_some());
            ps.prefix.settle(wrote);
        }
        self.record_kv();
        // update gauges before answering, so a client that snapshots
        // metrics right after its response sees them already settled
        let retired: Vec<Active> = self.active.extract_if(.., |a| a.done.is_some()).collect();
        self.metrics.active.set(self.active.len() as f64);
        self.metrics.record_busy(iter_start.elapsed());
        for a in retired {
            a.retire(&mut self.used_budget, &self.metrics);
        }
    }

    /// Contiguous admission: strict FIFO against the worst-case token
    /// budget. What it admits rides this iteration's shared forward as
    /// prefill riders, next to the decode rows.
    fn admit_contiguous(&mut self) {
        let max_seq = self.model.cfg.max_seq;
        while let Some(front) = self.parked.front() {
            if self.active.len() >= self.cfg.max_batch {
                break;
            }
            let cost = token_cost(&front.sub, max_seq);
            if !self.active.is_empty() && self.used_budget + cost > self.cfg.token_budget {
                break;
            }
            let Some(p) = self.parked.pop_front() else {
                break;
            };
            if p.refused(&self.model) {
                p.retire(FinishReason::Failed, None, &self.metrics);
                continue;
            }
            self.used_budget += cost;
            let cache = self.model.new_cache();
            self.active.push(Active::admitted(p, cost, cache, max_seq));
        }
    }

    /// Paged admission: block-granular, from the head of the lot
    /// (preempted requests first). A newcomer forks the longest
    /// registered prefix of its sequence, reserves blocks for the rest
    /// of its window while leaving every active request headroom, and
    /// registers its prompt prefix at once, so a younger wave-mate forks
    /// what this iteration's shared forward will write. What it admits
    /// rides that forward as prefill riders, as contiguous newcomers do.
    fn admit_paged(&mut self) {
        let Some(ps) = &mut self.paged else { return };
        let (model, metrics) = (&self.model, &*self.metrics);
        let (parked, active) = (&mut self.parked, &mut self.active);
        let max_seq = model.cfg.max_seq;
        let spec_rows = self.spec.as_ref().map_or(1, |rt| rt.k + 1);
        while active.len() < self.cfg.max_batch {
            let Some(p) = parked.pop_front() else { break };
            if p.refused(model) {
                p.retire(FinishReason::Failed, None, metrics);
                continue;
            }
            let seq: &[u32] = &p.tokens;
            // sequences that fit the window fork the longest cached
            // prefix; longer ones prefill a fresh truncated window
            // (nothing block-aligned to share)
            let mut kv = if seq.len() <= max_seq {
                ps.prefix.fork_longest(seq, max_seq)
            } else {
                None
            }
            .unwrap_or_else(|| ps.pool.new_seq(max_seq));
            let rows = seq.len() - first_uncached(seq.len(), kv.len(), max_seq);
            // headroom: every already-active request may claim more
            // blocks on the next decode step (one for plain decode,
            // enough for k + 1 transient rows under speculation);
            // admitting into that margin would trigger an immediate
            // preemption ping-pong
            let headroom = active.len() * spec_rows.div_ceil(ps.pool.block_size());
            let (prefix, pool) = (&mut ps.prefix, &ps.pool);
            // the window's blocks are counted before any is allocated, so
            // an admission that cannot fit takes nothing from the pool
            let ok = evict_until(prefix, metrics, || {
                pool.free_blocks() >= kv.blocks_to_reserve(rows) + headroom
            }) && kv.reserve_rows(rows).is_ok();
            if !ok {
                drop(kv); // release the forked prefix
                if active.is_empty() {
                    // nothing running will ever free blocks, so
                    // requeueing would spin: a lone request that cannot
                    // fit retires typed-Failed. `Engine::submit`'s
                    // capacity check makes this unreachable in practice.
                    p.retire(FinishReason::Failed, None, metrics);
                    continue;
                }
                // pool is busy: park the request at the head and stop
                // admitting until blocks free up
                parked.push_front(p);
                break;
            }
            // the prompt prefix is shareable only when the cache holds
            // it from position 0 (no window truncation)
            if seq.len() <= max_seq {
                ps.prefix.register(&seq[..p.sub.req.prompt.len()], &kv);
            }
            active.push(Active::admitted(p, 0, kv, max_seq));
        }
    }

    /// Paged (a no-op otherwise): secure every live request's decode
    /// rows before the shared forward. A prefill rider claims nothing
    /// new: its window, reserved at admission, covers the one row asked
    /// of it, and its first decode row is claimed next iteration.
    /// Exhaustion evicts every prefix-cache entry and then preempts the
    /// youngest request: its blocks return to the pool, its progress
    /// parks for re-admission by recompute.
    fn reserve_decode_blocks(&mut self) {
        let Some(ps) = &mut self.paged else { return };
        let (metrics, parked, active) = (&*self.metrics, &mut self.parked, &mut self.active);
        // KV rows one step of a drafting request may commit before
        // rollback; plain requests commit exactly one
        let spec_rows = self.spec.as_ref().map_or(1, |rt| rt.k + 1);
        // oldest ids claim first, so the preemption victim (max id,
        // last element) is always at or after the cursor; the shared
        // forward then runs in this order too, a fork after its source
        active.sort_by_key(|a| a.state.sub.id);
        let mut i = 0;
        while i < active.len() {
            let rows = active[i].draft.as_ref().map_or(1, |_| spec_rows);
            let cache = &mut active[i].cache;
            if evict_until(&mut ps.prefix, metrics, || cache.reserve_rows(rows).is_ok()) {
                i += 1;
                continue;
            }
            if active.len() == 1 {
                // cannot free anything: typed failure instead of a
                // livelock (unreachable given the submit-time capacity
                // check)
                let mut a = active.remove(0);
                a.done = Some(FinishReason::Failed);
                a.retire(&mut self.used_budget, metrics);
                break;
            }
            let a = active.remove(active.len() - 1);
            metrics.preemptions.inc();
            metrics.kv_blocks_evicted.add(a.cache.blocks_held() as u64);
            // its cache drops with `a` — the blocks return to the pool —
            // while its progress re-enters the lot by id, so
            // re-admission stays oldest-first
            let at = parked
                .iter()
                .position(|q| q.sub.id > a.state.sub.id)
                .unwrap_or(parked.len());
            parked.insert(at, a.state);
        }
    }

    /// KV occupancy while every active cache is still held, so the peak
    /// gauge sees the true high-water mark of the iteration. The alloc
    /// and share counters advance to the pool's running totals.
    fn record_kv(&mut self) {
        let metrics = &self.metrics;
        match &self.paged {
            Some(ps) => {
                let st = ps.pool.stats();
                let (allocated, shared) = (st.allocated, st.shared_extra);
                metrics.record_kv_usage(allocated * st.block_bytes, allocated, shared);
                let (allocs, shares) = (&metrics.kv_block_allocs, &metrics.kv_block_shares);
                allocs.add(st.allocs_total - allocs.get());
                shares.add(st.shares_total - shares.get());
            }
            None => {
                let bytes = self.active.iter().map(|a| a.cache.kv_bytes()).sum();
                metrics.record_kv_usage(bytes, 0, 0);
            }
        }
    }
}

/// The scheduler loop: intake, then [`Scheduler::step`]. Runs until
/// every sender is gone and all queued and active work has drained.
pub(crate) fn run(
    model: GptModel,
    store: ParamStore,
    cfg: SchedulerConfig,
    rx: Receiver<Submission>,
    metrics: Arc<MetricsInner>,
) {
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
    // the one precision dispatch: every forward goes through this
    // handle. Int8 quantizes here and drops the f32 store
    let weights: Arc<Weights> = match cfg.precision {
        WeightPrecision::F32 => Arc::new(store),
        WeightPrecision::Int8 => {
            let quantized = QuantizedParamStore::quantize(&model, &store);
            drop(store);
            Arc::new(quantized)
        }
    };
    let mut s = Scheduler::new(model, weights, spec, cfg, metrics);
    loop {
        // block when idle (every sender gone and nothing left to do
        // ends the loop), drain opportunistically otherwise
        if s.idle() {
            match rx.recv() {
                Ok(sub) => s.parked.push_back(Parked::fresh(sub)),
                Err(_) => break,
            }
        }
        while let Ok(sub) = rx.try_recv() {
            s.parked.push_back(Parked::fresh(sub));
        }
        s.step();
    }
    // hand any spans still buffered on this thread to the recorder
    // before the scheduler thread exits
    matgpt_obs::flush_thread();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsSnapshot;
    use crate::request::GenRequest;
    use matgpt_model::config::{ArchKind, GptConfig};
    use matgpt_model::{generate, SampleOptions};
    use matgpt_tensor::{init, ParamId};
    use proptest::prelude::*;
    use rand::Rng;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

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

    /// A parked request seeded with its id, and the channel its response
    /// arrives on.
    fn parked(
        id: u64,
        prompt: Vec<u32>,
        opts: SampleOptions,
        metrics: &MetricsInner,
    ) -> (Parked, Receiver<Response>) {
        assert!(metrics.try_claim_slot(usize::MAX));
        let (tx, rx) = crossbeam::channel::unbounded();
        let mut req = GenRequest::new(prompt);
        req.opts = opts;
        req.seed = id;
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

    /// The f32 weights, counting the matmuls that stream them — and
    /// panicking on the `fault_at`-th, when one is set.
    struct CountedWeights {
        inner: ParamStore,
        matmuls: AtomicUsize,
        fault_at: AtomicUsize,
    }

    impl CountedWeights {
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

    /// A scheduler over the tiny model's counted weights, drafting `k`
    /// tokens a step for greedy requests when `k > 0`.
    fn scheduler(cfg: SchedulerConfig, k: usize) -> (Scheduler, Arc<CountedWeights>) {
        let (model, store) = tiny_model();
        let spec = (k > 0).then(|| SpecRuntime {
            draft: QuantizedParamStore::for_draft(&model, &store),
            k,
        });
        let weights = Arc::new(CountedWeights {
            inner: store,
            matmuls: AtomicUsize::new(0),
            fault_at: AtomicUsize::new(0),
        });
        let s = Scheduler::new(model, weights.clone(), spec, cfg, Arc::default());
        (s, weights)
    }

    /// Park a greedy request on `s`, returning its response channel.
    fn submit(s: &mut Scheduler, id: u64, prompt: Vec<u32>, max_new: usize) -> Receiver<Response> {
        let (p, rx) = parked(id, prompt, greedy(max_new), &s.metrics);
        s.parked.push_back(p);
        rx
    }

    /// Weight passes counted in `snap`, of either kind.
    fn passes(snap: &MetricsSnapshot) -> usize {
        (snap.prefill_forwards + snap.decode_forwards) as usize
    }

    /// Solo `generate` over the f32 weights: the stream `s` owes request
    /// `id` (whose rng is seeded with its id).
    fn reference(
        s: &Scheduler,
        w: &CountedWeights,
        id: u64,
        prompt: &[u32],
        opts: &SampleOptions,
    ) -> Vec<u32> {
        let rng = &mut ChaCha8Rng::seed_from_u64(id);
        generate(&s.model, &w.inner, prompt, opts, rng)
    }

    /// Step `s` until it is idle.
    fn drain(s: &mut Scheduler) {
        while !s.idle() {
            s.step();
        }
    }

    #[test]
    fn an_iteration_is_one_forward_whatever_the_batch() {
        let max_new = 10;
        let bc = KvBlockConfig {
            block_size: 4,
            num_blocks: 256,
        };
        // (requests, paged, draft length); 12 stacks two matmul row tiles
        for (n, paged, k) in [
            (4, false, 0),
            (4, true, 0),
            (4, false, 2),
            (4, true, 2),
            (12, false, 0),
        ] {
            let cfg = SchedulerConfig {
                max_batch: n,
                kv_backend: [KvBackend::Contiguous, KvBackend::Paged(bc)][usize::from(paged)],
                ..SchedulerConfig::default()
            };
            let (mut s, weights) = scheduler(cfg, k);
            // one pass over the weights: seven linears a layer and the LM head
            let per_forward = 7 * s.model.cfg.layers + 1;
            let prompts: Vec<Vec<u32>> = (0..n as u32)
                .map(|id| (0..3 + id % 3).map(|i| (id * 5 + i) % 30).collect())
                .collect();
            let rxs: Vec<_> = (0..n)
                .map(|id| submit(&mut s, id as u64, prompts[id].clone(), max_new))
                .collect();
            let prompt_rows = prompts.iter().map(Vec::len).sum::<usize>() as u64;
            // per step: (weight passes, prompt rows, decode rows, batch)
            let mut steps = Vec::new();
            while !s.idle() {
                let (matmuls, before) = (weights.matmuls(), s.metrics.snapshot());
                let batch = s.active.len() as u64;
                s.step();
                let after = s.metrics.snapshot();
                let ran = passes(&after) - passes(&before);
                // the weights were streamed once per pass, not per request
                assert_eq!(
                    weights.matmuls() - matmuls,
                    per_forward * ran,
                    "{n}/{paged}/{k}"
                );
                let prompt = after.prefill_rows - before.prefill_rows;
                steps.push((
                    ran as u64,
                    prompt,
                    after.decode_rows - before.decode_rows,
                    batch,
                ));
            }
            for (id, rx) in rxs.iter().enumerate() {
                let r = rx.try_recv().expect("answered");
                let want = reference(&s, &weights, id as u64, &prompts[id], &greedy(max_new));
                assert_eq!(r.tokens, want, "request {id}");
                assert_eq!(r.finish, FinishReason::Length);
            }
            let snap = s.metrics.snapshot();
            let n = n as u64;
            assert_eq!(snap.generated_tokens, n * max_new as u64);
            // on either backend the newcomers ride one forward and
            // decode from the next step on
            assert_eq!(steps[0], (1, prompt_rows, 0, 0), "{n}/{paged}/{k}");
            if k > 0 {
                // every later step is one verify forward shared by all
                // that are left: k_eff + 1 rows a request
                for &(ran, prompt, decode, batch) in &steps[1..] {
                    assert_eq!((ran, prompt), (1, 0));
                    assert!(decode >= batch, "{decode} rows for {batch} requests");
                }
                assert!(snap.spec_drafted > 0, "nothing drafted");
            } else {
                // lockstep: n rows a step, then a step in which everyone
                // emits its last token and nothing is forwarded
                let want = [vec![(1, 0, n, n); max_new - 1], vec![(0, 0, 0, n)]].concat();
                assert_eq!(steps[1..], want, "{n}/{paged}");
                assert_eq!(snap.decode_rows, n * (max_new as u64 - 1));
            }
        }
    }

    /// Admission under pressure, with no clock: eight requests of 8
    /// prompt + 16 new tokens, `max_batch` 2 and a 64-token budget (room
    /// for two). They are admitted in id order, in pairs, and a pair
    /// only once both ids of the pair before it have retired.
    #[test]
    fn admission_pressure_admits_fifo_pairs() {
        let cfg = SchedulerConfig {
            max_batch: 2,
            token_budget: 64,
            ..SchedulerConfig::default()
        };
        let (mut s, _) = scheduler(cfg, 0);
        let rxs: Vec<_> = (0..8u32)
            .map(|id| {
                submit(
                    &mut s,
                    id.into(),
                    (0..8).map(|t| (t + id) % 30).collect(),
                    16,
                )
            })
            .collect();
        let (mut admitted, mut retired) = (Vec::new(), vec![false; rxs.len()]);
        while !s.idle() {
            s.step();
            for (id, rx) in rxs.iter().enumerate() {
                if let Ok(r) = rx.try_recv() {
                    assert_eq!((r.finish, r.generated), (FinishReason::Length, 16));
                    retired[id] = true;
                }
            }
            for a in &s.active {
                let id = a.state.sub.id as usize;
                if !admitted.contains(&id) {
                    let wave = id / 2 * 2;
                    assert!(
                        wave == 0 || retired[wave - 2] && retired[wave - 1],
                        "{id} admitted before ids {} and {} retired",
                        wave - 2,
                        wave - 1
                    );
                    admitted.push(id);
                }
            }
            assert!(s.active.len() <= 2, "budget holds two");
        }
        assert_eq!(admitted, (0..8).collect::<Vec<_>>(), "FIFO");
        assert!(retired.iter().all(|&r| r), "every request answered");
    }

    #[test]
    fn a_newcomer_rides_the_decode_forward() {
        let (mut s, weights) = scheduler(SchedulerConfig::default(), 0);
        let per_forward = 7 * s.model.cfg.layers + 1;
        let prompts = [vec![1, 2, 3], vec![4, 5], vec![7, 8, 9, 10, 11]];
        let mut rxs = vec![submit(&mut s, 0, prompts[0].clone(), 6)];
        rxs.push(submit(&mut s, 1, prompts[1].clone(), 6));
        s.step(); // their prefill
        s.step(); // their first decode row
        rxs.push(submit(&mut s, 2, prompts[2].clone(), 6));

        let (matmuls, before) = (weights.matmuls(), s.metrics.snapshot());
        s.step();
        let after = s.metrics.snapshot();
        assert_eq!(
            weights.matmuls() - matmuls,
            per_forward,
            "one pass over the weights"
        );
        assert_eq!(after.decode_forwards - before.decode_forwards, 1);
        assert_eq!(after.prefill_forwards, before.prefill_forwards);
        // the newcomer's window and the two decode rows, in that pass
        assert_eq!(after.prefill_rows - before.prefill_rows, 5);
        assert_eq!(after.decode_rows - before.decode_rows, 2);

        drain(&mut s);
        for (id, (rx, prompt)) in rxs.iter().zip(&prompts).enumerate() {
            let want = reference(&s, &weights, id as u64, prompt, &greedy(6));
            assert_eq!(
                rx.try_recv().expect("answered").tokens,
                want,
                "request {id}"
            );
        }
    }

    /// A paged scheduler over 4-row blocks, and two prompts that share
    /// their first two blocks.
    fn paged_pair() -> (Scheduler, Arc<CountedWeights>, [Vec<u32>; 2]) {
        let cfg = SchedulerConfig {
            kv_backend: KvBackend::Paged(KvBlockConfig {
                block_size: 4,
                num_blocks: 16,
            }),
            ..SchedulerConfig::default()
        };
        let (s, weights) = scheduler(cfg, 0);
        let shared = [3, 1, 4, 1, 5, 9, 2, 6];
        let prompts = [
            [&shared[..], &[5, 3]].concat(),
            [&shared[..], &[7]].concat(),
        ];
        (s, weights, prompts)
    }

    /// The prefix cache's entry count and the pool's free blocks.
    fn prefix_and_free(s: &Scheduler) -> (usize, usize) {
        let ps = s.paged.as_ref().expect("paged");
        (ps.prefix.len(), ps.pool.free_blocks())
    }

    #[test]
    fn a_wave_mate_forks_a_prefix_in_the_forward_that_writes_it() {
        let (mut s, weights, prompts) = paged_pair();
        let per_forward = 7 * s.model.cfg.layers + 1;
        // nothing registered the shared prefix before this wave
        let rxs: Vec<_> = (1..=2)
            .map(|id| submit(&mut s, id, prompts[id as usize - 1].clone(), 6))
            .collect();
        let (matmuls, before) = (weights.matmuls(), s.metrics.snapshot());
        s.step();
        let after = s.metrics.snapshot();
        assert_eq!(weights.matmuls() - matmuls, per_forward, "one forward");
        assert_eq!(passes(&after) - passes(&before), 1);
        // 2 forked 1's two prefix blocks and forwarded only its own token
        assert_eq!(after.kv_block_shares - before.kv_block_shares, 2);
        assert_eq!(after.prefill_rows - before.prefill_rows, 10 + 1);
        drain(&mut s);
        for (id, (rx, prompt)) in (1..).zip(rxs.iter().zip(&prompts)) {
            let want = reference(&s, &weights, id, prompt, &greedy(6));
            let r = rx.try_recv().expect("answered");
            assert_eq!(r.tokens, want, "request {id}");
        }
    }

    #[test]
    fn an_unwritten_prefix_leaves_with_its_rider() {
        // a forward that fails before any layer writes its K/V fails the
        // source and the wave-mate that forked it alike
        let (mut s, weights, prompts) = paged_pair();
        let num_blocks = s.paged.as_ref().expect("paged").pool.num_blocks();
        let rxs: Vec<_> = (1..=2)
            .map(|id| submit(&mut s, id, prompts[id as usize - 1].clone(), 6))
            .collect();
        weights
            .fault_at
            .store(weights.matmuls() + 1, Ordering::Relaxed);
        s.step();
        for rx in &rxs {
            let r = rx.try_recv().expect("answered");
            assert_eq!((r.finish, r.generated), (FinishReason::Failed, 0));
        }
        assert_eq!(s.metrics.snapshot().kv_block_shares, 2);
        assert_eq!(
            prefix_and_free(&s),
            (0, num_blocks),
            "registration withdrawn"
        );
        // the next request with that prompt prefills from scratch
        let rx = submit(&mut s, 3, prompts[1].clone(), 6);
        s.step();
        let snap = s.metrics.snapshot();
        assert_eq!((snap.kv_block_shares, snap.prefill_rows), (2, 9));
        drain(&mut s);
        let want = reference(&s, &weights, 3, &prompts[1], &greedy(6));
        assert_eq!(rx.try_recv().expect("answered").tokens, want);

        // a source preempted before its forward: 0 decodes with its
        // cache at a block edge, 1 registers its prefix, and then the
        // pool has nothing left for 0's next row
        let (mut s, weights, prompts) = paged_pair();
        let rx0 = submit(&mut s, 0, vec![9, 8, 7, 6], 6);
        s.step();
        let _ = submit(&mut s, 1, prompts[0].clone(), 6);
        let entries = prefix_and_free(&s).0;
        s.admit_paged();
        assert_eq!(
            prefix_and_free(&s).0,
            entries + 1,
            "registered at admission"
        );
        let ps = s.paged.as_ref().expect("paged");
        let mut hog = ps.pool.new_seq(64);
        hog.reserve_rows(4 * ps.pool.free_blocks())
            .expect("free blocks");
        s.reserve_decode_blocks();
        assert_eq!(s.metrics.snapshot().preemptions, 1);
        let victim = s.parked.front().expect("preempted");
        assert_eq!(victim.sub.id, 1, "the youngest");
        assert_eq!(prefix_and_free(&s).0, 0, "no entry outlives its rider");
        victim.sub.cancel.store(true, Ordering::Release);
        drop(hog);
        let rx = submit(&mut s, 2, prompts[1].clone(), 6);
        let before = s.metrics.snapshot();
        s.step();
        let after = s.metrics.snapshot();
        assert_eq!(after.kv_block_shares, before.kv_block_shares);
        assert_eq!(after.prefill_rows - before.prefill_rows, 9, "from scratch");
        drain(&mut s);
        let want = reference(&s, &weights, 2, &prompts[1], &greedy(6));
        assert_eq!(rx.try_recv().expect("answered").tokens, want);
        let want = reference(&s, &weights, 0, &[9, 8, 7, 6], &greedy(6));
        assert_eq!(rx0.try_recv().expect("answered").tokens, want);
    }

    /// On the shared pool rows are reserved before the forward, by
    /// admission and `reserve_decode_blocks`: the shared forward, whose
    /// `begin`s would otherwise take them, takes no block — prefill,
    /// plain decode and `k + 1` verify rows alike.
    #[test]
    fn the_shared_forward_takes_no_block_of_the_shared_pool() {
        for k in [0, 2] {
            let cfg = SchedulerConfig {
                max_batch: 3,
                kv_backend: KvBackend::Paged(KvBlockConfig {
                    block_size: 4,
                    num_blocks: 64,
                }),
                ..SchedulerConfig::default()
            };
            let (mut s, _) = scheduler(cfg, k);
            let pool = s.paged.as_ref().expect("paged").pool.clone();
            let shared = [3, 1, 4, 1, 5, 9, 2, 6, 5];
            let prompts = [
                shared.to_vec(),
                [&shared[..], &[7, 7]].concat(),
                vec![8, 2],
                (0..40).map(|i| i % 30).collect(),
            ];
            for (id, prompt) in prompts.iter().enumerate() {
                let _ = submit(&mut s, id as u64, prompt.clone(), 9);
            }
            let mut forwards = 0;
            while !s.idle() {
                // the step's own admission and reservation find nothing
                // left to take
                s.admit_paged();
                s.reserve_decode_blocks();
                let (allocs, before) = (pool.stats().allocs_total, passes(&s.metrics.snapshot()));
                s.step();
                forwards += passes(&s.metrics.snapshot()) - before;
                assert_eq!(pool.stats().allocs_total, allocs, "k = {k}");
            }
            assert!(forwards > 9, "k = {k}: {forwards} forwards");
        }
    }

    #[test]
    fn a_failed_admission_takes_nothing_from_the_pool() {
        let (mut s, _, prompts) = paged_pair();
        let pool = s.paged.as_ref().expect("paged").pool.clone();
        let _ = submit(&mut s, 0, prompts[0].clone(), 6);
        s.step(); // 0 prefills and keeps its blocks
                  // leave two free blocks: fewer than a 12-token window needs
        let mut hog = pool.new_seq(64);
        hog.reserve_rows(4 * (pool.free_blocks() - 2))
            .expect("free blocks");
        let _ = submit(&mut s, 1, (10..22).collect(), 6);
        let (allocs, free) = (pool.stats().allocs_total, pool.free_blocks());
        s.admit_paged();
        assert_eq!(s.parked.front().map(|p| p.sub.id), Some(1), "parked");
        assert_eq!(s.active.len(), 1);
        assert_eq!(pool.stats().allocs_total, allocs, "nothing allocated");
        assert_eq!(pool.free_blocks(), free);
        // once blocks free up, it is admitted with exactly its window
        drop(hog);
        s.admit_paged();
        assert_eq!(s.active.len(), 2);
        assert_eq!(pool.stats().allocs_total - allocs, 3);
    }

    #[test]
    fn a_panicked_shared_forward_fails_exactly_its_riders() {
        let cfg = SchedulerConfig {
            max_batch: 5,
            ..SchedulerConfig::default()
        };
        let (mut s, weights) = scheduler(cfg, 0);
        // 0 and 1 decode on; 2 wants two tokens: it emits its second in
        // phase 1 of the faulted step, as they do, and does not ride
        let mut rxs: Vec<_> = (0..3)
            .map(|id| {
                submit(
                    &mut s,
                    id,
                    vec![1 + id as u32, 2, 3],
                    [6, 6, 2][id as usize],
                )
            })
            .collect();
        s.step(); // prefill
        s.step(); // first decode row
                  // 10 and 11 are admitted next to them; 12 waits for a slot
        for id in 10..13 {
            rxs.push(submit(&mut s, id, vec![id as u32, 2, 3], 4));
        }
        // the shared forward dies at its fifth linear, with every
        // rider's cache begun, written and not committed
        weights
            .fault_at
            .store(weights.matmuls() + 5, Ordering::Relaxed);
        s.step();

        let answers: Vec<_> = rxs[..5]
            .iter()
            .map(|rx| rx.try_recv().expect("answered"))
            .collect();
        let reasons: Vec<_> = answers.iter().map(|r| (r.finish, r.generated)).collect();
        use FinishReason::{Failed, Length};
        // decode and prefill riders alike fail, keeping what they had
        assert_eq!(
            reasons,
            [
                (Failed, 2),
                (Failed, 2),
                (Length, 2),
                (Failed, 0),
                (Failed, 0)
            ]
        );
        assert_eq!(answers[0].tokens.len(), 3 + 2, "tokens kept");
        assert_eq!(answers[3].tokens, [10, 2, 3], "tokens kept");
        assert!(s.active.is_empty());
        assert_eq!(s.used_budget, 0, "the riders' budget came back");
        let snap = s.metrics.snapshot();
        assert_eq!(snap.failed, 4);
        assert_eq!((snap.prefill_forwards, snap.decode_forwards), (1, 1));

        // the loop is alive: the request that waited decodes to the reference
        drain(&mut s);
        let r = rxs[5].try_recv().expect("answered");
        assert_eq!(
            r.tokens,
            reference(&s, &weights, 12, &[12, 2, 3], &greedy(4))
        );

        // a fault in one request's draft forward (its lag holds a token
        // outside the vocabulary) is inside the same scope: it fails the
        // healthy rider next to it too, before any shared forward begins
        let (mut s, weights) = scheduler(SchedulerConfig::default(), 2);
        let rxs: Vec<_> = (0..2)
            .map(|id| submit(&mut s, id, vec![1, 2, 3], 8))
            .collect();
        s.step();
        s.active[1].draft = Some(DraftState::new(&s.model, &[29_999]));
        let (streamed, forwards) = (weights.matmuls(), passes(&s.metrics.snapshot()));
        s.step();
        for rx in &rxs {
            let r = rx.try_recv().expect("answered");
            assert_eq!(
                (r.finish, r.generated),
                (Failed, 0),
                "failed before emitting"
            );
        }
        assert_eq!(weights.matmuls(), streamed, "no shared forward began");
        assert_eq!(passes(&s.metrics.snapshot()), forwards);
    }

    #[test]
    fn failed_reprefill_hands_the_parked_request_back_with_its_tokens() {
        let (mut s, _) = scheduler(SchedulerConfig::default(), 0);
        // a preempted request two tokens into its generation; the second
        // is out of vocabulary, so the recompute prefill is refused
        let (fresh, rx) = parked(0, vec![1, 2, 3], greedy(32), &s.metrics);
        s.parked.push_back(Parked {
            tokens: vec![1, 2, 3, 7, 29_999],
            generated: 2,
            ttft: Some(Duration::from_millis(5)),
            ..fresh
        });
        s.step();
        assert!(
            s.active.is_empty(),
            "out-of-vocab recompute must not prefill"
        );
        let r = rx.try_recv().expect("answered");
        assert_eq!(r.finish, FinishReason::Failed);
        assert_eq!(
            r.tokens,
            [1, 2, 3, 7, 29_999],
            "progress before eviction kept"
        );
        assert_eq!(r.generated, 2);
        assert_eq!(r.ttft, Duration::from_millis(5));
        let snap = s.metrics.snapshot();
        assert_eq!((snap.completed, snap.failed, snap.backlog), (1, 1, 0));
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn a_stacked_round_is_bitwise_each_solo_prefill() {
        // ragged prompts; the third outgrows the window, so only its
        // trailing `max_seq` tokens forward
        let (max, v) = (32, 30);
        let prompts: Vec<Vec<u32>> = [5, 1, max + 8, 9]
            .into_iter()
            .enumerate()
            .map(|(r, len)| (0..len).map(|i| ((i * 7 + r * 11) % v) as u32).collect())
            .collect();
        for n in 1..=prompts.len() {
            let (mut s, weights) = scheduler(SchedulerConfig::default(), 0);
            for (id, prompt) in prompts[..n].iter().enumerate() {
                let _ = submit(&mut s, id as u64, prompt.clone(), 4);
            }
            s.step();
            assert_eq!(s.active.len(), n);
            let (model, store) = (&s.model, &weights.inner);
            for (a, prompt) in s.active.iter_mut().zip(&prompts) {
                let mut solo = model.new_cache();
                let window = &prompt[prompt.len().saturating_sub(max)..];
                let logits = model.forward_cached(store, window, &mut solo);
                let id = a.state.sub.id;
                assert_eq!(
                    bits(&a.last_row),
                    bits(&logits[logits.len() - v..]),
                    "{n}/{id}"
                );
                assert_eq!(a.cache.kv_bytes(), solo.kv_bytes(), "{n}/{id}");
                // the cached rows themselves: the next step reads them all
                let next = model.decode_step(store, 3, &mut a.cache);
                let want = model.decode_step(store, 3, &mut solo);
                assert_eq!(bits(&next), bits(&want), "{n}/{id} cache");
            }
            let rows: usize = prompts[..n].iter().map(|p| p.len().min(max)).sum();
            let snap = s.metrics.snapshot();
            assert_eq!((snap.prefill_forwards, snap.prefill_rows), (1, rows as u64));
        }
    }

    #[test]
    fn a_refused_window_fails_alone_outside_the_forward() {
        let (mut s, _) = scheduler(SchedulerConfig::default(), 0);
        let prompts = [vec![1, 2], vec![4, 29_999], vec![5, 6, 7]];
        let rxs: Vec<_> = (0..3)
            .map(|id| submit(&mut s, id, prompts[id as usize].clone(), 6))
            .collect();
        let max_seq = s.model.cfg.max_seq;
        let costs: Vec<usize> = s
            .parked
            .iter()
            .map(|p| token_cost(&p.sub, max_seq))
            .collect();
        s.step();
        let ids: Vec<u64> = s.active.iter().map(|a| a.state.sub.id).collect();
        assert_eq!(ids, [0, 2], "its neighbours prefilled");
        assert_eq!(s.used_budget, costs[0] + costs[2]);
        let r = rxs[1].try_recv().expect("answered");
        assert_eq!(
            (r.finish, r.tokens),
            (FinishReason::Failed, vec![4, 29_999])
        );
        let snap = s.metrics.snapshot();
        assert_eq!((snap.prefill_forwards, snap.prefill_rows), (1, 5));
    }

    /// One client of a random schedule: what it sends, the step it
    /// arrives on, and the step it cancels on, if it does.
    struct Client {
        prompt: Vec<u32>,
        opts: SampleOptions,
        arrives: usize,
        cancels: Option<usize>,
    }

    /// Drive `seed`'s schedule through [`Scheduler::step`] to quiescence,
    /// holding the conservation invariants after every step and the
    /// streams and the pool at the end.
    fn random_schedule(seed: u64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let paged = rng.gen_bool(0.5);
        let k = if rng.gen_bool(0.5) {
            rng.gen_range(1..=3)
        } else {
            0
        };
        // a pool a little over one request's worst case (the window, a
        // dropped front block, k + 1 verify rows), so requests that grow
        // side by side preempt each other
        let block_size: usize = rng.gen_range(2..=4);
        let lone = (32 + block_size + 4).div_ceil(block_size) + 1;
        let bc = KvBlockConfig {
            block_size,
            num_blocks: rng.gen_range(lone..=lone + 4),
        };
        let cfg = SchedulerConfig {
            max_batch: rng.gen_range(1..=4),
            token_budget: rng.gen_range(8..=80),
            kv_backend: [KvBackend::Contiguous, KvBackend::Paged(bc)][usize::from(paged)],
            ..SchedulerConfig::default()
        };
        let (mut s, weights) = scheduler(cfg, k);
        let (max_seq, v) = (s.model.cfg.max_seq, s.model.cfg.vocab_size as u32);
        let per_forward = 7 * s.model.cfg.layers + 1;
        // half the prompts open with one system prompt, so paged ones fork
        let system: Vec<u32> = (0..8).map(|_| rng.gen_range(0..v)).collect();
        let n = rng.gen_range(1..=6);
        let mut clients: Vec<Client> = (0..n)
            .map(|_| {
                let len = match rng.gen_bool(0.2) {
                    true => rng.gen_range(max_seq + 1..=max_seq + 8),
                    false => rng.gen_range(1..=10),
                };
                let shared = if rng.gen_bool(0.5) { system.len() } else { 0 };
                let own = (0..len).map(|_| rng.gen_range(0..v)).collect::<Vec<_>>();
                let sampled = rng.gen_bool(0.3);
                Client {
                    prompt: [&system[..shared], &own].concat(),
                    opts: SampleOptions {
                        temperature: if sampled { 0.8 } else { 0.0 },
                        top_k: 5,
                        max_new_tokens: rng.gen_range(1..=16),
                        stop_token: rng.gen_bool(0.2).then(|| rng.gen_range(0..v)),
                    },
                    arrives: rng.gen_range(0..=4),
                    cancels: rng.gen_bool(0.25).then(|| rng.gen_range(0..=12)),
                }
            })
            .collect();
        // ids follow submission order
        clients.sort_by_key(|c| c.arrives);

        let mut handles: Vec<(Receiver<Response>, Arc<AtomicBool>)> = Vec::new();
        let mut answers: Vec<Option<Response>> = vec![None; n];
        let mut t = 0;
        while handles.len() < n || !s.idle() {
            while let Some(c) = clients.get(handles.len()).filter(|c| c.arrives <= t) {
                let id = handles.len() as u64;
                let (p, rx) = parked(id, c.prompt.clone(), c.opts, &s.metrics);
                handles.push((rx, Arc::clone(&p.sub.cancel)));
                s.parked.push_back(p);
            }
            for (c, (_, cancel)) in clients.iter().zip(&handles) {
                if c.cancels == Some(t) {
                    cancel.store(true, Ordering::Release);
                }
            }
            let (matmuls, before) = (weights.matmuls(), passes(&s.metrics.snapshot()));
            s.step();
            let ran = passes(&s.metrics.snapshot()) - before;
            assert_eq!(
                weights.matmuls() - matmuls,
                per_forward * ran,
                "seed {seed}"
            );
            assert!(
                paged || ran <= 1,
                "seed {seed}: a contiguous step is one pass"
            );
            // every request is in exactly one place: the lot, the batch,
            // or answered — and answered once
            for (id, (rx, _)) in handles.iter().enumerate() {
                if let Ok(r) = rx.try_recv() {
                    assert!(answers[id].replace(r).is_none(), "seed {seed}: {id} twice");
                }
                let places = [
                    answers[id].is_some(),
                    s.parked.iter().any(|p| p.sub.id == id as u64),
                    s.active.iter().any(|a| a.state.sub.id == id as u64),
                ];
                let at = places.iter().filter(|&&p| p).count();
                assert_eq!(at, 1, "seed {seed}: request {id} at {places:?}");
            }
            let reserved: usize = s.active.iter().map(|a| a.reserved).sum();
            assert_eq!(s.used_budget, reserved, "seed {seed}: budget");
            t += 1;
            assert!(t < 1000, "seed {seed}: no quiescence");
        }

        for (id, (c, answer)) in clients.iter().zip(&answers).enumerate() {
            let r = answer.as_ref().expect("answered");
            assert!(handles[id].0.try_recv().is_err(), "seed {seed}: {id} twice");
            let want = reference(&s, &weights, id as u64, &c.prompt, &c.opts);
            if r.finish == FinishReason::Cancelled {
                assert!(want.starts_with(&r.tokens), "seed {seed}: request {id}");
            } else {
                assert_eq!(r.tokens, want, "seed {seed}: request {id} {:?}", r.finish);
            }
        }
        let snap = s.metrics.snapshot();
        assert_eq!((snap.failed, snap.backlog), (0, 0), "seed {seed}");
        if let Some(ps) = s.paged.as_mut() {
            ps.prefix.clear();
            let free = ps.pool.free_blocks();
            assert_eq!(free, ps.pool.num_blocks(), "seed {seed}: blocks leaked");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn random_schedules_conserve_requests_budget_and_blocks(seed in 0u64..u64::MAX) {
            random_schedule(seed);
        }
    }
}
