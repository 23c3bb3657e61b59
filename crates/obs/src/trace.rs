//! Spans and the trace recorder.
//!
//! The recording model mirrors Chrome's trace-event format directly: a
//! [`TraceEvent`] is one `ph:"X"` *complete* event — a named interval
//! with a `(pid, tid)` track and microsecond `ts`/`dur`. Instrumented
//! code produces them two ways:
//!
//! * **RAII spans** ([`Span::enter`]): push a scope on the calling
//!   thread's span stack; on drop the measured interval is buffered
//!   thread-locally and flushed to the global [`Recorder`] when the
//!   stack unwinds to depth zero (or the buffer fills) — one lock
//!   acquisition per top-level scope, not per span.
//! * **Manual events** ([`Recorder::record`]): for sources that own
//!   their clock — the serving scheduler reconstructing a request's
//!   queued/prefill/decode track from captured `Instant`s, or the
//!   Frontier simulator mapping simulated seconds onto the trace
//!   timebase.
//!
//! Recording is off until [`Recorder::enable`]; a disabled recorder
//! makes spans and manual events no-ops (one relaxed atomic load), so
//! instrumented hot paths cost nothing in ordinary runs.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Logical process ids: one per instrumented subsystem, so the three
/// sources render as three named process groups in one viewer.
pub mod pids {
    /// `matgpt-core` pre-training (`Trainer` step phases).
    pub const TRAINER: u64 = 1;
    /// `matgpt-serve` engine (request lifecycle + scheduler iterations).
    pub const SERVE: u64 = 2;
    /// `matgpt-frontier-sim` simulated timelines (Figs. 9/11/12).
    pub const SIM: u64 = 3;
    /// `matgpt-core` data-parallel workers (`core::parallel` ring
    /// collectives + per-worker step phases).
    pub const PARALLEL: u64 = 4;

    /// Human-readable name for a logical pid.
    pub fn name(pid: u64) -> String {
        match pid {
            TRAINER => "trainer".into(),
            SERVE => "serve".into(),
            SIM => "frontier-sim".into(),
            PARALLEL => "parallel".into(),
            other => format!("pid {other}"),
        }
    }
}

/// One Chrome-trace complete event (`ph:"X"`).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Event name (span or phase label).
    pub name: String,
    /// Category (`cat` in the trace format; coarse grouping/filtering).
    pub cat: String,
    /// Logical process id (see [`pids`]).
    pub pid: u64,
    /// Track id within the process (thread, request, GCD…).
    pub tid: u64,
    /// Start, microseconds since the recorder epoch (non-negative).
    pub ts_us: f64,
    /// Duration, microseconds (non-negative).
    pub dur_us: f64,
    /// Numeric annotations rendered into the event's `args` object.
    pub args: Vec<(String, f64)>,
}

impl TraceEvent {
    /// A complete event with no args; `ts`/`dur` are clamped at zero so
    /// an emitted trace can never violate the format.
    pub fn complete(
        pid: u64,
        tid: u64,
        cat: impl Into<String>,
        name: impl Into<String>,
        ts_us: f64,
        dur_us: f64,
    ) -> Self {
        Self {
            name: name.into(),
            cat: cat.into(),
            pid,
            tid,
            ts_us: sanitize(ts_us),
            dur_us: sanitize(dur_us),
            args: Vec::new(),
        }
    }

    /// Attach one numeric argument (builder-style).
    pub fn arg(mut self, key: impl Into<String>, value: f64) -> Self {
        self.args.push((key.into(), value));
        self
    }
}

fn sanitize(v: f64) -> f64 {
    if v.is_finite() {
        v.max(0.0)
    } else {
        0.0
    }
}

/// Which end of a causal arrow a flow event marks (Chrome phases
/// `ph:"s"` / `ph:"t"` / `ph:"f"`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowPhase {
    /// Arrow tail (`ph:"s"`): the producing slice.
    Start,
    /// Intermediate hop (`ph:"t"`): the arrow threads through here.
    Step,
    /// Arrow head (`ph:"f"`): the consuming slice.
    Finish,
}

impl FlowPhase {
    /// The Chrome trace-event `ph` string.
    pub fn ph(self) -> &'static str {
        match self {
            FlowPhase::Start => "s",
            FlowPhase::Step => "t",
            FlowPhase::Finish => "f",
        }
    }
}

/// One Chrome-trace flow event: a point on a causal arrow identified by
/// a shared `id`. Perfetto draws an arrow from the slice enclosing the
/// `Start` through any `Step`s to the slice enclosing the `Finish`, so
/// a ring send→recv or a request's queued→prefill→decode journey reads
/// as a connected chain. Flow ids come from [`crate::flow`].
#[derive(Clone, Debug, PartialEq)]
pub struct FlowEvent {
    /// Correlation id shared by every point on one arrow.
    pub id: u64,
    /// Which end of the arrow this event marks.
    pub phase: FlowPhase,
    /// Event name (the edge label in the viewer).
    pub name: String,
    /// Category (coarse grouping/filtering).
    pub cat: String,
    /// Logical process id (see [`pids`]).
    pub pid: u64,
    /// Track id within the process.
    pub tid: u64,
    /// Timestamp, microseconds since the recorder epoch. Must fall
    /// inside a complete event on the same `(pid, tid)` track —
    /// [`crate::chrome::validate`] enforces the binding.
    pub ts_us: f64,
}

impl FlowEvent {
    /// A flow point at an explicit timestamp (clamped non-negative).
    pub fn at(
        phase: FlowPhase,
        pid: u64,
        tid: u64,
        cat: impl Into<String>,
        name: impl Into<String>,
        id: u64,
        ts_us: f64,
    ) -> Self {
        Self {
            id,
            phase,
            name: name.into(),
            cat: cat.into(),
            pid,
            tid,
            ts_us: sanitize(ts_us),
        }
    }
}

/// The event sink: an epoch for converting `Instant`s to trace
/// timestamps, an on/off switch, the recorded events, and optional
/// human-readable track names (rendered as `thread_name` metadata).
pub struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
    flows: Mutex<Vec<FlowEvent>>,
    tracks: Mutex<Vec<((u64, u64), String)>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A fresh, disabled recorder whose epoch is "now".
    pub fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
            flows: Mutex::new(Vec::new()),
            tracks: Mutex::new(Vec::new()),
        }
    }

    /// The process-wide recorder every [`Span::enter`] feeds. Its epoch
    /// is the first access, so call this early for small timestamps.
    pub fn global() -> &'static Recorder {
        static GLOBAL: OnceLock<Recorder> = OnceLock::new();
        GLOBAL.get_or_init(Recorder::new)
    }

    /// Start accepting events.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stop accepting events (already-recorded events are kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether events are currently accepted.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Microseconds since the recorder epoch.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Convert an `Instant` to a trace timestamp (clamped at the epoch).
    pub fn ts_of(&self, at: Instant) -> f64 {
        at.checked_duration_since(self.epoch)
            .map_or(0.0, |d| d.as_secs_f64() * 1e6)
    }

    /// Record one manual event (dropped while disabled).
    pub fn record(&self, event: TraceEvent) {
        if self.is_enabled() {
            self.events.lock().unwrap().push(event);
        }
    }

    /// Record a batch under one lock (dropped while disabled).
    pub fn extend(&self, batch: Vec<TraceEvent>) {
        if self.is_enabled() && !batch.is_empty() {
            self.events.lock().unwrap().extend(batch);
        }
    }

    /// Record one flow event (dropped while disabled).
    pub fn record_flow(&self, flow: FlowEvent) {
        if self.is_enabled() {
            self.flows.lock().unwrap().push(flow);
        }
    }

    /// Record a batch of flow events under one lock (dropped while
    /// disabled).
    pub fn extend_flows(&self, batch: Vec<FlowEvent>) {
        if self.is_enabled() && !batch.is_empty() {
            self.flows.lock().unwrap().extend(batch);
        }
    }

    /// Copy of the flow events recorded so far.
    pub fn flows(&self) -> Vec<FlowEvent> {
        self.flows.lock().unwrap().clone()
    }

    /// Name a `(pid, tid)` track for the viewer (last write wins).
    pub fn set_track_name(&self, pid: u64, tid: u64, name: impl Into<String>) {
        let mut tracks = self.tracks.lock().unwrap();
        let name = name.into();
        match tracks.iter_mut().find(|(k, _)| *k == (pid, tid)) {
            Some((_, n)) => *n = name,
            None => tracks.push(((pid, tid), name)),
        }
    }

    /// All track names assigned so far.
    pub fn track_names(&self) -> Vec<((u64, u64), String)> {
        self.tracks.lock().unwrap().clone()
    }

    /// Copy of the events recorded so far (spans buffered on other
    /// threads appear once their top-level scope closes — see
    /// [`flush_thread`]).
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.lock().unwrap().clone()
    }

    /// Take all recorded events, leaving the recorder empty.
    pub fn drain(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().unwrap())
    }

    /// Drop all recorded events, flow events, and track names.
    pub fn clear(&self) {
        self.events.lock().unwrap().clear();
        self.flows.lock().unwrap().clear();
        self.tracks.lock().unwrap().clear();
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    /// Whether no events are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render the current snapshot (complete events plus flow events)
    /// as Chrome trace-event JSON (see [`crate::chrome::render_full`]).
    pub fn to_chrome_json(&self) -> String {
        crate::chrome::render_full(&self.snapshot(), &self.flows(), &self.track_names())
    }

    fn is_global(&self) -> bool {
        std::ptr::eq(self, Recorder::global())
    }
}

// ---------------------------------------------------------------- spans

/// Per-thread span state: a stable track id, the open-span depth, and a
/// buffer of completed events flushed to the global recorder when the
/// top-level span closes, the buffer fills, or the thread exits.
struct ThreadState {
    tid: u64,
    depth: u32,
    buf: Vec<TraceEvent>,
}

/// Flush whenever the buffer reaches this many completed spans, even if
/// a top-level scope is still open (keeps long scheduler loops visible).
const FLUSH_AT: usize = 256;

impl ThreadState {
    fn flush(&mut self) {
        if !self.buf.is_empty() {
            Recorder::global().extend(std::mem::take(&mut self.buf));
        }
    }
}

impl Drop for ThreadState {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static THREAD: RefCell<ThreadState> = {
        static NEXT_TID: AtomicU64 = AtomicU64::new(1);
        RefCell::new(ThreadState {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            depth: 0,
            buf: Vec::new(),
        })
    };
}

/// The calling thread's stable trace track id.
pub fn thread_tid() -> u64 {
    THREAD.with(|t| t.borrow().tid)
}

/// Push this thread's buffered spans to the global [`Recorder`] now
/// (also happens automatically at top-level span close and thread exit).
pub fn flush_thread() {
    THREAD.with(|t| t.borrow_mut().flush());
}

/// As [`flush_thread`], for call sites holding an explicit recorder:
/// only the global recorder buffers per-thread, so this is a no-op for
/// any other target (their spans record directly on drop).
pub fn flush_thread_to(recorder: &Recorder) {
    if recorder.is_global() {
        flush_thread();
    }
}

/// An RAII trace scope: measures from [`Span::enter`] to drop and
/// records the interval on the calling thread's track.
///
/// Spans feeding the global recorder also leave a compact copy in the
/// always-on [`crate::flight`] ring — even while the recorder is
/// disabled — so a postmortem dump can reconstruct each thread's final
/// moments without full tracing ever having been turned on.
pub struct Span<'r> {
    rec: Option<&'r Recorder>,
    flight: bool,
    pid: u64,
    cat: &'static str,
    name: &'static str,
    start: Instant,
    args: Vec<(&'static str, f64)>,
}

impl Span<'static> {
    /// Open a scope feeding the global recorder (and the flight ring).
    /// While the recorder is disabled, only the flight copy is kept.
    pub fn enter(pid: u64, cat: &'static str, name: &'static str) -> Self {
        Self::enter_in(Recorder::global(), pid, cat, name)
    }
}

impl<'r> Span<'r> {
    /// Open a scope feeding `rec` (used by tests; production wiring
    /// goes through [`Span::enter`]). Only global-recorder spans are
    /// mirrored into the flight ring — local recorders have their own
    /// epochs and would corrupt the shared timebase.
    pub fn enter_in(rec: &'r Recorder, pid: u64, cat: &'static str, name: &'static str) -> Self {
        let flight = rec.is_global();
        if !rec.is_enabled() {
            return Self {
                rec: None,
                flight,
                pid,
                cat,
                name,
                start: Instant::now(),
                args: Vec::new(),
            };
        }
        THREAD.with(|t| t.borrow_mut().depth += 1);
        Self {
            rec: Some(rec),
            flight,
            pid,
            cat,
            name,
            start: Instant::now(),
            args: Vec::new(),
        }
    }

    /// Attach one numeric argument to the slice this scope records —
    /// for a quantity only known once the scope is under way (the rows
    /// a decode iteration ended up forwarding). Kept off the flight
    /// copy, which stays fixed-size.
    pub fn set_arg(&mut self, key: &'static str, value: f64) {
        if self.rec.is_some() {
            self.args.push((key, value));
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.flight && crate::flight::is_enabled() {
            let g = Recorder::global();
            let dur_us = self.start.elapsed().as_secs_f64() * 1e6;
            crate::flight::record(crate::flight::FlightEvent::span(
                self.pid,
                self.cat,
                self.name,
                g.ts_of(self.start),
                dur_us,
            ));
        }
        let Some(rec) = self.rec else { return };
        let dur_us = self.start.elapsed().as_secs_f64() * 1e6;
        let ts_us = rec.ts_of(self.start);
        THREAD.with(|t| {
            let mut t = t.borrow_mut();
            let ev = TraceEvent::complete(self.pid, t.tid, self.cat, self.name, ts_us, dur_us);
            let ev = self.args.drain(..).fold(ev, |ev, (k, v)| ev.arg(k, v));
            t.depth = t.depth.saturating_sub(1);
            if rec.is_global() {
                t.buf.push(ev);
                if t.depth == 0 || t.buf.len() >= FLUSH_AT {
                    t.flush();
                }
            } else {
                rec.record(ev);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_drops_everything() {
        let rec = Recorder::new();
        rec.record(TraceEvent::complete(1, 1, "c", "n", 0.0, 1.0));
        {
            let _s = Span::enter_in(&rec, 1, "c", "span");
        }
        assert!(rec.is_empty());
    }

    #[test]
    fn local_spans_record_directly_on_drop() {
        let rec = Recorder::new();
        rec.enable();
        {
            let _outer = Span::enter_in(&rec, pids::TRAINER, "t", "outer");
            let _inner = Span::enter_in(&rec, pids::TRAINER, "t", "inner");
        }
        let evs = rec.drain();
        assert_eq!(evs.len(), 2);
        // inner drops first
        assert_eq!(evs[0].name, "inner");
        assert_eq!(evs[1].name, "outer");
        assert!(evs.iter().all(|e| e.ts_us >= 0.0 && e.dur_us >= 0.0));
        assert_eq!(evs[0].tid, evs[1].tid);
    }

    #[test]
    fn span_args_set_mid_scope_land_on_the_slice() {
        let rec = Recorder::new();
        rec.enable();
        {
            let mut s = Span::enter_in(&rec, pids::SERVE, "serve", "iter");
            s.set_arg("rows", 12.0);
        }
        let evs = rec.drain();
        assert_eq!(evs[0].args, vec![("rows".to_string(), 12.0)]);
    }

    #[test]
    fn sanitize_clamps_bad_inputs() {
        let e = TraceEvent::complete(1, 1, "c", "n", -5.0, f64::NAN);
        assert_eq!(e.ts_us, 0.0);
        assert_eq!(e.dur_us, 0.0);
    }

    #[test]
    fn track_names_upsert() {
        let rec = Recorder::new();
        rec.set_track_name(2, 7, "req 7");
        rec.set_track_name(2, 7, "request 7");
        assert_eq!(rec.track_names(), vec![((2, 7), "request 7".to_string())]);
    }

    #[test]
    fn ts_of_clamps_before_epoch() {
        let early = Instant::now();
        let rec = Recorder::new();
        assert_eq!(rec.ts_of(early), 0.0);
        assert!(rec.now_us() >= 0.0);
    }
}
