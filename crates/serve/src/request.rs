//! Request and response types for the serving engine.

use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};
use matgpt_model::SampleOptions;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A generation request as submitted by a client.
#[derive(Clone, Debug)]
pub struct GenRequest {
    /// Prompt token ids (non-empty).
    pub prompt: Vec<u32>,
    /// Sampling controls (temperature, top-k, budget, stop token).
    pub opts: SampleOptions,
    /// Wall-clock budget from submission; the request is retired with
    /// [`FinishReason::DeadlineExceeded`] (keeping any tokens already
    /// decoded) once this elapses.
    pub deadline: Option<Duration>,
    /// Seed for this request's private sampling RNG, so results are
    /// reproducible regardless of what else is in the batch.
    pub seed: u64,
}

impl GenRequest {
    /// A request with default sampling options, no deadline, seed 0.
    pub fn new(prompt: Vec<u32>) -> Self {
        Self {
            prompt,
            opts: SampleOptions::default(),
            deadline: None,
            seed: 0,
        }
    }
}

/// Why a request stopped decoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FinishReason {
    /// The stop token was produced.
    Stop,
    /// `max_new_tokens` were produced.
    Length,
    /// The per-request deadline elapsed mid-generation.
    DeadlineExceeded,
    /// The client cancelled via [`ResponseHandle::cancel`].
    Cancelled,
    /// The engine hit an internal error (a panicked model forward) with
    /// this request in it: its own prefill, or a decode forward it
    /// shared — every request riding that forward fails with it, the
    /// rest of the engine is unaffected. Any tokens decoded before the
    /// fault are kept.
    Failed,
}

/// A completed (or aborted) generation.
#[derive(Clone, Debug)]
pub struct Response {
    /// Engine-assigned request id (submission order).
    pub id: u64,
    /// Prompt plus generated tokens, as `model::generate` returns.
    pub tokens: Vec<u32>,
    /// How many of `tokens` were generated (trailing suffix).
    pub generated: usize,
    /// Why decoding stopped.
    pub finish: FinishReason,
    /// Time from submission to the first generated token.
    pub ttft: Duration,
    /// Time from submission to completion.
    pub total: Duration,
}

/// Client-side handle to an in-flight request.
pub struct ResponseHandle {
    pub(crate) id: u64,
    pub(crate) rx: Receiver<Response>,
    pub(crate) cancel: Arc<AtomicBool>,
}

impl ResponseHandle {
    /// The engine-assigned request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Ask the engine to stop this request at the next iteration. The
    /// response (with [`FinishReason::Cancelled`] if it had not already
    /// finished) still arrives through [`ResponseHandle::wait`].
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }

    /// Block until the response arrives. Returns `None` only if the
    /// engine was torn down without answering.
    pub fn wait(self) -> Option<Response> {
        self.rx.recv().ok()
    }

    /// Block up to `timeout` for the response.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<Response, RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }

    /// Non-blocking poll for the response.
    pub fn try_wait(&self) -> Result<Response, TryRecvError> {
        self.rx.try_recv()
    }
}

/// Internal: a submission as the scheduler sees it.
pub(crate) struct Submission {
    pub id: u64,
    pub req: GenRequest,
    pub submitted: Instant,
    pub absolute_deadline: Option<Instant>,
    pub cancel: Arc<AtomicBool>,
    pub tx: crossbeam::channel::Sender<Response>,
    /// Correlation id allocated at submission
    /// ([`matgpt_obs::flow::fresh`], serve domain) and carried through
    /// the request's whole life, so its queued → prefill → decode hops
    /// render as one causal flow arrow in the trace.
    pub flow_id: u64,
}

impl Submission {
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
    }

    pub fn expired(&self, now: Instant) -> bool {
        self.absolute_deadline.is_some_and(|d| now >= d)
    }
}
