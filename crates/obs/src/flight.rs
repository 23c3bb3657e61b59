//! Always-on flight recorder: a bounded per-thread ring of compact
//! events, kept even while the full [`Recorder`] is
//! disabled, so the last moments of every thread survive a crash.
//!
//! The design is a black-box recorder, not a tracer:
//!
//! * **Fixed byte budget per thread.** Each thread owns a
//!   [`FlightRing`] whose backing store is allocated once at
//!   registration ([`FlightRing::EVENT_BYTES`] × capacity) and never
//!   grows — recording overwrites the oldest entry when full
//!   (drop-oldest), so memory stays bounded under unbounded load and
//!   the hot path never allocates.
//! * **Compact events.** A [`FlightEvent`] is a fixed-size `Copy`
//!   struct of `&'static str` names and numbers — no owned strings, no
//!   heap traffic per record.
//! * **Always on.** [`Span`](crate::Span) drops and
//!   [`crate::flow`] emissions mirror themselves here regardless of
//!   the recorder's enable switch.
//! * **Crash-readable.** Rings are `Arc`-shared with a global
//!   registry, so [`snapshot_all`] (and [`Postmortem::capture`]) can
//!   read the buffer of a thread that has already died — exactly what
//!   `parallel::resilience` needs when a rank is lost. The registry
//!   keeps every live ring and the 64 most recently registered dead
//!   ones, so it is bounded however many threads come and go.
//!
//! Timestamps use the global recorder's epoch so flight events merge
//! cleanly with any fully-recorded spans in one trace.

use crate::trace::{FlowEvent, FlowPhase, Recorder, TraceEvent};
use serde_json::Value;
use std::mem::size_of;
use std::sync::{Arc, Mutex, OnceLock};

/// The byte budget every thread's ring is built with: 64 KiB ≈ 750 events.
pub const DEFAULT_BYTES_PER_THREAD: usize = 64 * 1024;

/// What a compact event records.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FlightKind {
    /// A completed interval (a span's compact mirror).
    Span,
    /// The tail of a causal arrow (a flow `Start` emission).
    FlowStart(u64),
    /// An intermediate hop on a causal arrow.
    FlowStep(u64),
    /// The head of a causal arrow (a flow `Finish` emission).
    FlowFinish(u64),
}

/// One fixed-size flight record. `Copy`, no owned data: recording one
/// is a struct write into a preallocated ring slot.
#[derive(Clone, Copy, Debug)]
pub struct FlightEvent {
    /// Event name (interned: instrumentation sites use literals).
    pub name: &'static str,
    /// Category (same role as [`TraceEvent::cat`]).
    pub cat: &'static str,
    /// Interval or flow endpoint.
    pub kind: FlightKind,
    /// Logical process id (see [`crate::trace::pids`]).
    pub pid: u64,
    /// Start, microseconds on the global recorder's epoch.
    pub ts_us: f64,
    /// Duration, microseconds (0 for instantaneous marks).
    pub dur_us: f64,
    /// Free slot for a step / request number (`u64::MAX` = unset).
    pub step: u64,
}

impl FlightEvent {
    /// A completed interval.
    pub fn span(pid: u64, cat: &'static str, name: &'static str, ts_us: f64, dur_us: f64) -> Self {
        Self {
            name,
            cat,
            kind: FlightKind::Span,
            pid,
            ts_us,
            dur_us,
            step: u64::MAX,
        }
    }

    /// A flow endpoint occupying `[ts_us, ts_us + dur_us]`.
    pub fn flow(
        pid: u64,
        cat: &'static str,
        name: &'static str,
        kind: FlightKind,
        ts_us: f64,
        dur_us: f64,
    ) -> Self {
        Self {
            name,
            cat,
            kind,
            pid,
            ts_us,
            dur_us,
            step: u64::MAX,
        }
    }

    /// Tag the event with a step / sequence number (builder-style).
    pub fn at_step(mut self, step: u64) -> Self {
        self.step = step;
        self
    }
}

struct RingInner {
    /// Preallocated to capacity at construction; once full, `next`
    /// wraps and the oldest slot is overwritten.
    buf: Vec<FlightEvent>,
    next: usize,
    total: u64,
}

/// One thread's bounded ring. Standalone-constructible so the byte
/// bound and drop-oldest order are directly property-testable; the
/// global registry wraps one per recording thread.
pub struct FlightRing {
    tid: u64,
    budget_bytes: usize,
    capacity: usize,
    label: Mutex<Option<String>>,
    rank: Mutex<Option<u64>>,
    inner: Mutex<RingInner>,
}

impl FlightRing {
    /// Bytes one ring slot occupies; `budget / EVENT_BYTES` slots fit.
    pub const EVENT_BYTES: usize = size_of::<FlightEvent>();

    /// A ring for track `tid` holding at most `budget_bytes` of events
    /// (at least one slot). The buffer is allocated here, never after.
    pub fn with_budget(tid: u64, budget_bytes: usize) -> Self {
        let capacity = (budget_bytes / Self::EVENT_BYTES).max(1);
        Self {
            tid,
            budget_bytes,
            capacity,
            label: Mutex::new(None),
            rank: Mutex::new(None),
            inner: Mutex::new(RingInner {
                buf: Vec::with_capacity(capacity),
                next: 0,
                total: 0,
            }),
        }
    }

    /// The track id this ring records for.
    pub fn tid(&self) -> u64 {
        self.tid
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Bytes currently backing retained events (≤ the budget — the
    /// backing store was sized from it and never grows).
    pub fn byte_usage(&self) -> usize {
        self.inner.lock().unwrap().buf.len() * Self::EVENT_BYTES
    }

    /// Record one event, overwriting the oldest once the ring is full.
    pub fn push(&self, ev: FlightEvent) {
        let mut g = self.inner.lock().unwrap();
        g.total += 1;
        if g.buf.len() < self.capacity {
            g.buf.push(ev);
        } else {
            let at = g.next;
            g.buf[at] = ev;
            g.next = (at + 1) % self.capacity;
        }
    }

    /// Events ever recorded (including dropped ones).
    pub fn total_recorded(&self) -> u64 {
        self.inner.lock().unwrap().total
    }

    /// Retained events, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let g = self.inner.lock().unwrap();
        let mut out = Vec::with_capacity(g.buf.len());
        out.extend_from_slice(&g.buf[g.next..]);
        out.extend_from_slice(&g.buf[..g.next]);
        out
    }

    fn set_identity(&self, label: String, rank: Option<u64>) {
        *self.label.lock().unwrap() = Some(label);
        *self.rank.lock().unwrap() = rank;
    }
}

// ------------------------------------------------- global registry

struct FlightGlobal {
    rings: Mutex<Vec<Arc<FlightRing>>>,
}

fn global() -> &'static FlightGlobal {
    static GLOBAL: OnceLock<FlightGlobal> = OnceLock::new();
    GLOBAL.get_or_init(|| FlightGlobal {
        rings: Mutex::new(Vec::new()),
    })
}

/// Rings of exited threads the registry keeps: 4 MiB at the default
/// budget. A postmortem follows the death it explains by one recovery,
/// not by 64 more thread deaths.
const DEAD_RINGS_KEPT: usize = 64;

/// Drop the oldest-registered dead rings beyond [`DEAD_RINGS_KEPT`]. A
/// ring is dead once the registry holds its only `Arc` — its thread's
/// slot is gone and nothing can record into it again — so a process
/// that spawns workers per call (`train_topology`, `DataParallel`) holds
/// its live threads' rings plus a bounded tail, not one per thread ever
/// spawned. A ring a snapshot is reading looks live and stays.
fn forget_oldest_dead(rings: &mut Vec<Arc<FlightRing>>) {
    let dead = |r: &Arc<FlightRing>| Arc::strong_count(r) == 1;
    let mut excess = rings
        .iter()
        .filter(|r| dead(r))
        .count()
        .saturating_sub(DEAD_RINGS_KEPT);
    rings.retain(|r| {
        let forget = excess > 0 && dead(r);
        excess -= forget as usize;
        !forget
    });
}

thread_local! {
    static RING: std::cell::RefCell<Option<Arc<FlightRing>>> = const { std::cell::RefCell::new(None) };
}

fn with_ring<R>(f: impl FnOnce(&FlightRing) -> R) -> R {
    RING.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_none() {
            let g = global();
            let ring = Arc::new(FlightRing::with_budget(
                crate::trace::thread_tid(),
                DEFAULT_BYTES_PER_THREAD,
            ));
            let mut rings = g.rings.lock().unwrap();
            rings.push(ring.clone());
            forget_oldest_dead(&mut rings);
            *slot = Some(ring);
        }
        f(slot.as_ref().unwrap())
    })
}

/// Record one event into the calling thread's ring.
pub fn record(ev: FlightEvent) {
    with_ring(|ring| ring.push(ev));
}

/// Name the calling thread's ring for postmortems (e.g. `"rank 2"`),
/// optionally tagging it with a data-parallel rank so a dump can flag
/// the victim.
pub fn label_thread(label: impl Into<String>, rank: Option<u64>) {
    with_ring(|ring| ring.set_identity(label.into(), rank));
}

/// One thread's retained flight state, as captured by [`snapshot_all`].
#[derive(Clone, Debug)]
pub struct ThreadFlight {
    /// The thread's trace track id.
    pub tid: u64,
    /// Human label set by [`label_thread`] (`"tid N"` fallback).
    pub label: String,
    /// Data-parallel rank, when the thread declared one.
    pub rank: Option<u64>,
    /// Retained events, oldest first.
    pub events: Vec<FlightEvent>,
    /// Events ever recorded, including dropped ones.
    pub total_recorded: u64,
}

/// Capture every registered ring — including rings of threads that
/// have already exited, since the registry holds the most recent of
/// them alive.
pub fn snapshot_all() -> Vec<ThreadFlight> {
    let rings: Vec<Arc<FlightRing>> = global().rings.lock().unwrap().clone();
    rings
        .iter()
        .map(|r| ThreadFlight {
            tid: r.tid(),
            label: r
                .label
                .lock()
                .unwrap()
                .clone()
                .unwrap_or_else(|| format!("tid {}", r.tid())),
            rank: *r.rank.lock().unwrap(),
            events: r.snapshot(),
            total_recorded: r.total_recorded(),
        })
        .collect()
}

// ------------------------------------------------- postmortem bundle

/// Convert flight snapshots into renderable trace + flow events.
/// Every event becomes a complete slice on its thread's track (so flow
/// endpoints always have an enclosing slice); flow arrows are kept
/// only when both their `Start` and `Finish` survived in some ring —
/// a dangling arrow would fail [`crate::chrome::validate`]'s binding
/// check and tells us nothing about causality.
pub fn to_trace(threads: &[ThreadFlight]) -> (Vec<TraceEvent>, Vec<FlowEvent>) {
    use std::collections::BTreeMap;
    let mut have: BTreeMap<u64, (bool, bool)> = BTreeMap::new();
    for t in threads {
        for e in &t.events {
            match e.kind {
                FlightKind::FlowStart(id) => have.entry(id).or_default().0 = true,
                FlightKind::FlowFinish(id) => have.entry(id).or_default().1 = true,
                _ => {}
            }
        }
    }
    let complete = |id: u64| matches!(have.get(&id), Some((true, true)));

    let mut events = Vec::new();
    let mut flows = Vec::new();
    for t in threads {
        for e in &t.events {
            let mut ev = TraceEvent::complete(e.pid, t.tid, e.cat, e.name, e.ts_us, e.dur_us);
            if e.step != u64::MAX {
                ev = ev.arg("step", e.step as f64);
            }
            events.push(ev);
            let (phase, id, ts) = match e.kind {
                FlightKind::Span => continue,
                // arrows leave the tail slice at its start and land on
                // the head slice at its end, so start ≤ finish holds
                // whenever the send really happened before the receive
                FlightKind::FlowStart(id) => (FlowPhase::Start, id, e.ts_us),
                FlightKind::FlowStep(id) => (FlowPhase::Step, id, e.ts_us),
                FlightKind::FlowFinish(id) => (FlowPhase::Finish, id, e.ts_us + e.dur_us),
            };
            if complete(id) {
                flows.push(FlowEvent::at(phase, e.pid, t.tid, e.cat, e.name, id, ts));
            }
        }
    }
    (events, flows)
}

/// A crash dump: the last events of every thread, the victim flagged,
/// a Chrome-valid trace of those events, and a metrics snapshot.
///
/// `parallel::resilience` captures one the moment a rank is detected
/// dead; the serving engine captures one when a request panics. The
/// on-disk form is three files under one directory:
/// `manifest.json` (cause, victims, per-thread digests),
/// `trace.json` (passes [`crate::chrome::validate`], flow arrows
/// intact) and `metrics.prom` (passes [`crate::prom::parse`]).
#[derive(Clone, Debug)]
pub struct Postmortem {
    /// Why the dump was taken (`"RankLost { rank: 2 }"`, …).
    pub cause: String,
    /// Data-parallel ranks flagged as victims.
    pub victims: Vec<u64>,
    /// Per-thread `(tid, label, rank, retained, total_recorded)` rows.
    pub threads: Vec<(u64, String, Option<u64>, usize, u64)>,
    /// Chrome trace JSON of the retained events and complete flows.
    pub trace_json: String,
    /// Prometheus exposition snapshot at capture time.
    pub metrics_prom: String,
}

impl Postmortem {
    /// Capture the flight state of every registered thread plus a
    /// metrics snapshot. `last_k` bounds events per thread (0 = all
    /// retained); `victims` flags ranks in the manifest and suffixes
    /// their track names with `" (victim)"`.
    pub fn capture(
        cause: &str,
        victims: &[u64],
        last_k: usize,
        registries: &[&crate::Registry],
    ) -> Self {
        let mut threads = snapshot_all();
        if last_k > 0 {
            for t in &mut threads {
                if t.events.len() > last_k {
                    t.events.drain(..t.events.len() - last_k);
                }
            }
        }
        let (events, flows) = to_trace(&threads);
        let mut tracks: Vec<((u64, u64), String)> = Vec::new();
        for t in &threads {
            let victim = t.rank.is_some_and(|r| victims.contains(&r));
            let name = if victim {
                format!("{} (victim)", t.label)
            } else {
                t.label.clone()
            };
            // flight events from one thread can carry several pids
            // (trainer + parallel); name the track under each
            let mut pids_seen: Vec<u64> = t.events.iter().map(|e| e.pid).collect();
            pids_seen.sort_unstable();
            pids_seen.dedup();
            for pid in pids_seen {
                tracks.push(((pid, t.tid), name.clone()));
            }
        }
        let trace_json = crate::chrome::render_full(&events, &flows, &tracks);
        let metrics_prom = crate::prom::render_all(registries)
            .unwrap_or_else(|e| format!("# metrics snapshot unavailable: {e}\n"));
        Self {
            cause: cause.to_string(),
            victims: victims.to_vec(),
            threads: threads
                .iter()
                .map(|t| {
                    (
                        t.tid,
                        t.label.clone(),
                        t.rank,
                        t.events.len(),
                        t.total_recorded,
                    )
                })
                .collect(),
            trace_json,
            metrics_prom,
        }
    }

    /// The manifest as JSON: cause, victim ranks, per-thread digests.
    pub fn manifest_json(&self) -> String {
        let threads = self
            .threads
            .iter()
            .map(|(tid, label, rank, retained, total)| {
                Value::Object(vec![
                    ("tid".into(), Value::Num(*tid as f64)),
                    ("label".into(), Value::Str(label.clone())),
                    (
                        "rank".into(),
                        rank.map_or(Value::Null, |r| Value::Num(r as f64)),
                    ),
                    ("retained_events".into(), Value::Num(*retained as f64)),
                    ("total_recorded".into(), Value::Num(*total as f64)),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("schema".into(), Value::Str("matgpt-postmortem/v1".into())),
            ("cause".into(), Value::Str(self.cause.clone())),
            (
                "victim_ranks".into(),
                Value::Array(self.victims.iter().map(|r| Value::Num(*r as f64)).collect()),
            ),
            ("threads".into(), Value::Array(threads)),
        ]);
        serde_json::to_string_pretty(&doc).unwrap_or_else(|_| "{}".into())
    }

    /// Write `manifest.json`, `trace.json` and `metrics.prom` under
    /// `dir` (created if missing).
    pub fn write_to(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("manifest.json"), self.manifest_json())?;
        std::fs::write(dir.join("trace.json"), &self.trace_json)?;
        std::fs::write(dir.join("metrics.prom"), &self.metrics_prom)?;
        Ok(())
    }
}

/// Record a flow endpoint into the flight ring *and* (when the full
/// recorder is enabled) mirror it as a slice + flow-event pair on the
/// global recorder — the shared helper `flow::emit` builds on.
pub(crate) fn record_flow_dual(ev: FlightEvent) {
    record(ev);
    let rec = Recorder::global();
    if !rec.is_enabled() {
        return;
    }
    let tid = crate::trace::thread_tid();
    let mut slice = TraceEvent::complete(ev.pid, tid, ev.cat, ev.name, ev.ts_us, ev.dur_us);
    if ev.step != u64::MAX {
        slice = slice.arg("step", ev.step as f64);
    }
    rec.record(slice);
    let (phase, id, ts) = match ev.kind {
        FlightKind::Span => return,
        FlightKind::FlowStart(id) => (FlowPhase::Start, id, ev.ts_us),
        FlightKind::FlowStep(id) => (FlowPhase::Step, id, ev.ts_us),
        FlightKind::FlowFinish(id) => (FlowPhase::Finish, id, ev.ts_us + ev.dur_us),
    };
    rec.record_flow(FlowEvent::at(phase, ev.pid, tid, ev.cat, ev.name, id, ts));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::pids;

    #[test]
    fn ring_respects_budget_and_drops_oldest() {
        let budget = FlightRing::EVENT_BYTES * 4;
        let ring = FlightRing::with_budget(7, budget);
        for i in 0..10u64 {
            ring.push(FlightEvent::span(1, "c", "e", i as f64, 1.0).at_step(i));
        }
        assert!(ring.byte_usage() <= budget);
        assert_eq!(ring.total_recorded(), 10);
        let kept: Vec<u64> = ring.snapshot().iter().map(|e| e.step).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "oldest dropped first");
    }

    #[test]
    fn registry_keeps_a_bounded_tail_of_dead_rings() {
        // workers spawned per call used to leave one ring each, for ever
        const LABEL: &str = "ring-cap probe";
        for i in 0..1000u64 {
            std::thread::spawn(move || {
                label_thread(LABEL, None);
                record(FlightEvent::span(0, "test", "probe", i as f64, 1.0).at_step(i));
            })
            .join()
            .expect("probe thread");
        }
        let all = snapshot_all();
        let probes: Vec<_> = all.iter().filter(|t| t.label == LABEL).collect();
        // the cap, plus the last probe: it died after its own registration
        assert!(probes.len() <= DEAD_RINGS_KEPT + 1, "{} kept", probes.len());
        let newest = probes
            .iter()
            .any(|t| t.events.iter().any(|e| e.step == 999));
        assert!(newest, "the most recent death is what a postmortem reads");
        // live rings are never forgotten: this thread's survives 1000 deaths
        record(FlightEvent::span(0, "test", "live", 0.0, 1.0));
        let mine = crate::trace::thread_tid();
        for _ in 0..2 * DEAD_RINGS_KEPT {
            std::thread::spawn(|| record(FlightEvent::span(0, "test", "probe", 0.0, 1.0)))
                .join()
                .expect("probe thread");
        }
        assert!(snapshot_all().iter().any(|t| t.tid == mine));
    }

    #[test]
    fn tiny_budget_still_holds_one_event() {
        let ring = FlightRing::with_budget(1, 1);
        ring.push(FlightEvent::span(1, "c", "only", 0.0, 1.0));
        ring.push(FlightEvent::span(1, "c", "only2", 1.0, 1.0));
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].name, "only2");
    }

    #[test]
    fn to_trace_keeps_only_complete_flows() {
        let threads = vec![
            ThreadFlight {
                tid: 1,
                label: "a".into(),
                rank: Some(0),
                events: vec![
                    FlightEvent::flow(4, "ring", "send", FlightKind::FlowStart(10), 0.0, 1.0),
                    FlightEvent::flow(4, "ring", "send", FlightKind::FlowStart(11), 2.0, 1.0),
                ],
                total_recorded: 2,
            },
            ThreadFlight {
                tid: 2,
                label: "b".into(),
                rank: Some(1),
                events: vec![FlightEvent::flow(
                    4,
                    "ring",
                    "recv",
                    FlightKind::FlowFinish(10),
                    0.5,
                    1.0,
                )],
                total_recorded: 1,
            },
        ];
        let (events, flows) = to_trace(&threads);
        assert_eq!(events.len(), 3, "every flight event becomes a slice");
        let ids: Vec<u64> = flows.iter().map(|f| f.id).collect();
        assert_eq!(ids, vec![10, 10], "dangling id 11 filtered");
        // finish lands at the end of its slice, after the start
        let s = flows.iter().find(|f| f.phase == FlowPhase::Start).unwrap();
        let f = flows.iter().find(|f| f.phase == FlowPhase::Finish).unwrap();
        assert!(s.ts_us <= f.ts_us);
    }

    #[test]
    fn manifest_bytes_are_pinned() {
        let pm = Postmortem {
            cause: "RankLost { rank: 2 } \"ring\"".into(),
            victims: vec![2, 3],
            threads: vec![
                (7, "rank 2 (victim)".into(), Some(2), 128, 4096),
                (9, "coordinator".into(), None, 0, 0),
            ],
            trace_json: String::new(),
            metrics_prom: String::new(),
        };
        assert_eq!(
            pm.manifest_json(),
            r#"{
  "schema": "matgpt-postmortem/v1",
  "cause": "RankLost { rank: 2 } \"ring\"",
  "victim_ranks": [
    2,
    3
  ],
  "threads": [
    {
      "tid": 7,
      "label": "rank 2 (victim)",
      "rank": 2,
      "retained_events": 128,
      "total_recorded": 4096
    },
    {
      "tid": 9,
      "label": "coordinator",
      "rank": null,
      "retained_events": 0,
      "total_recorded": 0
    }
  ]
}"#
        );
        let empty = Postmortem {
            victims: vec![],
            threads: vec![],
            ..pm
        };
        assert_eq!(
            empty.manifest_json(),
            r#"{
  "schema": "matgpt-postmortem/v1",
  "cause": "RankLost { rank: 2 } \"ring\"",
  "victim_ranks": [],
  "threads": []
}"#
        );
    }

    #[test]
    fn postmortem_capture_renders_valid_artifacts() {
        // record through the real global path on this thread
        label_thread("rank 0", Some(0));
        record(FlightEvent::span(pids::PARALLEL, "ring", "reduce-scatter", 10.0, 5.0).at_step(3));
        record(FlightEvent::flow(
            pids::PARALLEL,
            "ring",
            "ring.send",
            FlightKind::FlowStart(0xABC),
            11.0,
            1.0,
        ));
        record(FlightEvent::flow(
            pids::PARALLEL,
            "ring",
            "ring.recv",
            FlightKind::FlowFinish(0xABC),
            11.5,
            1.0,
        ));
        let reg = crate::Registry::new();
        reg.counter("pm_test_total", "x").inc();
        let pm = Postmortem::capture("test kill", &[0], 0, &[&reg]);
        assert!(pm.victims.contains(&0));
        let stats = crate::chrome::validate(&pm.trace_json).expect("dump validates");
        assert!(stats.complete_events >= 3);
        assert!(stats.flow_ids >= 1);
        assert!(pm.trace_json.contains("(victim)"));
        assert!(pm.manifest_json().contains("matgpt-postmortem/v1"));
        crate::prom::parse(&pm.metrics_prom).expect("metrics snapshot parses");
    }
}
