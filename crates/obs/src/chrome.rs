//! Chrome trace-event JSON export — the artefact `chrome://tracing` and
//! Perfetto open, standing in for the paper's OmniTrace/rocprof
//! timelines (Fig. 9) with one schema for measured *and* simulated
//! events.
//!
//! The emitted document is the object form of the format:
//!
//! ```json
//! {"displayTimeUnit":"ms","traceEvents":[
//!   {"name":"process_name","ph":"M","pid":1,"tid":0,"ts":0,"args":{"name":"trainer"}},
//!   {"name":"thread_name","ph":"M","pid":1,"tid":3,"ts":0,"args":{"name":"tid 3"}},
//!   {"name":"forward","cat":"train","ph":"X","pid":1,"tid":3,"ts":12.5,"dur":830.0,"args":{}}
//! ]}
//! ```
//!
//! Five phases are used: `ph:"X"` complete events (every recorded
//! interval), `ph:"M"` metadata naming every process and every
//! `(pid, tid)` track that appears, and the flow phases `ph:"s"` /
//! `ph:"t"` / `ph:"f"` — causal arrows ([`crate::trace::FlowEvent`])
//! Perfetto draws between the slices sharing a flow `id`. [`validate`]
//! re-parses a document and enforces exactly that schema, including
//! the flow contract: every flow event must fall inside a complete
//! event on its own track (arrows bind to slices, not to thin air),
//! every id must open with a `ph:"s"`, and an arrow must start no
//! later than it finishes. It is the check the exporter property
//! tests, the `ext_observability` smoke gate, and postmortem dumps
//! run.

use crate::trace::{pids, FlowPhase, TraceEvent};
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metadata(kind: &str, pid: u64, tid: u64, name: &str) -> Value {
    obj(vec![
        ("name", Value::Str(kind.to_string())),
        ("ph", Value::Str("M".into())),
        ("pid", Value::Num(pid as f64)),
        ("tid", Value::Num(tid as f64)),
        ("ts", Value::Num(0.0)),
        ("args", obj(vec![("name", Value::Str(name.to_string()))])),
    ])
}

/// Render events (plus optional `(pid, tid) → name` track labels) as a
/// Chrome trace-event JSON document. Complete events are sorted by
/// timestamp so `ts` is globally monotonic, and every process and track
/// that appears gets a `ph:"M"` name record (unnamed tracks fall back
/// to `"tid N"`).
pub fn render(events: &[TraceEvent], track_names: &[((u64, u64), String)]) -> String {
    render_full(events, &[], track_names)
}

/// As [`render`], with causal flow events interleaved: each
/// [`FlowEvent`](crate::trace::FlowEvent) becomes a `ph:"s"` / `"t"` /
/// `"f"` record carrying its correlation `id` (finish events add
/// `"bp":"e"` so viewers bind the arrow head to the enclosing slice).
/// All events are merged into one timestamp-sorted stream.
pub fn render_full(
    events: &[TraceEvent],
    flows: &[crate::trace::FlowEvent],
    track_names: &[((u64, u64), String)],
) -> String {
    // merge slices and flows into one ts-ordered stream; at equal ts a
    // slice sorts first so the enclosing interval opens before any
    // arrow leaves it
    enum Item<'a> {
        X(&'a TraceEvent),
        Flow(&'a crate::trace::FlowEvent),
    }
    let mut order: Vec<Item> = events
        .iter()
        .map(Item::X)
        .chain(flows.iter().map(Item::Flow))
        .collect();
    let key = |i: &Item| match i {
        Item::X(e) => (e.ts_us, 0u8, e.pid, e.tid),
        Item::Flow(f) => (f.ts_us, 1u8, f.pid, f.tid),
    };
    order.sort_by(|a, b| {
        let (ta, ka, pa, ia) = key(a);
        let (tb, kb, pb, ib) = key(b);
        ta.total_cmp(&tb)
            .then(ka.cmp(&kb))
            .then(pa.cmp(&pb))
            .then(ia.cmp(&ib))
    });

    let pids_seen: BTreeSet<u64> = events
        .iter()
        .map(|e| e.pid)
        .chain(flows.iter().map(|f| f.pid))
        .collect();
    let tracks_seen: BTreeSet<(u64, u64)> = events
        .iter()
        .map(|e| (e.pid, e.tid))
        .chain(flows.iter().map(|f| (f.pid, f.tid)))
        .collect();
    let names: BTreeMap<(u64, u64), &str> = track_names
        .iter()
        .map(|((p, t), n)| ((*p, *t), n.as_str()))
        .collect();

    let mut out: Vec<Value> = Vec::with_capacity(order.len() + pids_seen.len() + tracks_seen.len());
    for &pid in &pids_seen {
        out.push(metadata("process_name", pid, 0, &pids::name(pid)));
    }
    for &(pid, tid) in &tracks_seen {
        let fallback = format!("tid {tid}");
        let name = names.get(&(pid, tid)).copied().unwrap_or(&fallback);
        out.push(metadata("thread_name", pid, tid, name));
    }
    for item in order {
        match item {
            Item::X(e) => {
                let args = Value::Object(
                    e.args
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v)))
                        .collect(),
                );
                out.push(obj(vec![
                    ("name", Value::Str(e.name.clone())),
                    ("cat", Value::Str(e.cat.clone())),
                    ("ph", Value::Str("X".into())),
                    ("pid", Value::Num(e.pid as f64)),
                    ("tid", Value::Num(e.tid as f64)),
                    ("ts", Value::Num(e.ts_us)),
                    ("dur", Value::Num(e.dur_us)),
                    ("args", args),
                ]));
            }
            Item::Flow(f) => {
                // ids carry more than 53 significant bits, so a JSON
                // number would silently round — emit the hex string
                // form the trace format also accepts
                let mut fields = vec![
                    ("name", Value::Str(f.name.clone())),
                    ("cat", Value::Str(f.cat.clone())),
                    ("ph", Value::Str(f.phase.ph().into())),
                    ("id", Value::Str(format!("{:#x}", f.id))),
                    ("pid", Value::Num(f.pid as f64)),
                    ("tid", Value::Num(f.tid as f64)),
                    ("ts", Value::Num(f.ts_us)),
                ];
                if f.phase == FlowPhase::Finish {
                    fields.push(("bp", Value::Str("e".into())));
                }
                out.push(obj(fields));
            }
        }
    }
    let doc = obj(vec![
        ("displayTimeUnit", Value::Str("ms".into())),
        ("traceEvents", Value::Array(out)),
    ]);
    serde_json::to_string(&doc).unwrap_or_else(|_| String::from("{\"traceEvents\":[]}"))
}

/// What [`validate`] measured about a well-formed trace.
#[derive(Clone, Debug, Default)]
pub struct ChromeStats {
    /// Number of `ph:"X"` complete events.
    pub complete_events: usize,
    /// Number of `ph:"M"` metadata events.
    pub metadata_events: usize,
    /// Complete events per pid.
    pub events_per_pid: BTreeMap<u64, usize>,
    /// Distinct `(pid, tid)` tracks carrying complete events.
    pub tracks: usize,
    /// Number of flow events (`ph:"s"/"t"/"f"`).
    pub flow_events: usize,
    /// Distinct flow correlation ids.
    pub flow_ids: usize,
    /// Flow ids whose arrow is complete (both a start and a finish).
    pub flow_ids_complete: usize,
}

fn as_id(v: Option<&Value>, what: &str) -> Result<u64, String> {
    let n = v
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{what} missing or non-numeric"))?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("{what} must be a non-negative integer, got {n}"));
    }
    Ok(n as u64)
}

/// Parse a Chrome trace-event JSON document and enforce the exporter's
/// schema: a `traceEvents` array whose members are `ph:"X"` complete
/// events — non-empty name, integer pid/tid, finite `ts >= 0` and
/// `dur >= 0`, globally monotonic `ts` — `ph:"M"` process/thread name
/// records, or `ph:"s"/"t"/"f"` flow events. Every complete event's
/// pid and `(pid, tid)` must be matched by a metadata record. Flow
/// events must carry an id, fall inside a complete event on their own
/// track (the arrow binds to an enclosing slice), and every id must
/// open with exactly one `ph:"s"` that timestamps no later than any of
/// its steps or its finish. Any violation is an `Err` naming the
/// offending event.
pub fn validate(json: &str) -> Result<ChromeStats, String> {
    let doc: Value = serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or("missing `traceEvents` array")?;

    let mut stats = ChromeStats::default();
    let mut named_pids: BTreeSet<u64> = BTreeSet::new();
    let mut named_tracks: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut x_tracks: BTreeSet<(u64, u64)> = BTreeSet::new();
    // (pid, tid) -> slice intervals, for the flow binding pass
    let mut slices: BTreeMap<(u64, u64), Vec<(f64, f64)>> = BTreeMap::new();
    // flow index i -> (id, phase, pid, tid, ts, name)
    let mut flow_points: Vec<(u64, &str, u64, u64, f64, String)> = Vec::new();
    let mut last_ts = f64::NEG_INFINITY;

    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        let pid = as_id(ev.get("pid"), "pid").map_err(|e| format!("event {i}: {e}"))?;
        let tid = as_id(ev.get("tid"), "tid").map_err(|e| format!("event {i}: {e}"))?;
        let name = ev.get("name").and_then(Value::as_str).unwrap_or("");
        match ph {
            "M" => {
                let target = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("event {i}: metadata without args.name"))?;
                if target.is_empty() {
                    return Err(format!("event {i}: empty metadata name"));
                }
                match name {
                    "process_name" => {
                        named_pids.insert(pid);
                    }
                    "thread_name" => {
                        named_tracks.insert((pid, tid));
                    }
                    other => return Err(format!("event {i}: unknown metadata `{other}`")),
                }
                stats.metadata_events += 1;
            }
            "X" => {
                if name.is_empty() {
                    return Err(format!("event {i}: complete event without a name"));
                }
                let ts = ev
                    .get("ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i}: missing `ts`"))?;
                let dur = ev
                    .get("dur")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i}: missing `dur`"))?;
                if !ts.is_finite() || ts < 0.0 {
                    return Err(format!(
                        "event {i} (`{name}`): ts {ts} not finite/non-negative"
                    ));
                }
                if !dur.is_finite() || dur < 0.0 {
                    return Err(format!(
                        "event {i} (`{name}`): dur {dur} not finite/non-negative"
                    ));
                }
                if ts < last_ts {
                    return Err(format!(
                        "event {i} (`{name}`): ts {ts} breaks monotonic order (previous {last_ts})"
                    ));
                }
                last_ts = ts;
                x_tracks.insert((pid, tid));
                slices.entry((pid, tid)).or_default().push((ts, ts + dur));
                *stats.events_per_pid.entry(pid).or_insert(0) += 1;
                stats.complete_events += 1;
            }
            "s" | "t" | "f" => {
                if name.is_empty() {
                    return Err(format!("event {i}: flow event without a name"));
                }
                let id = match ev.get("id") {
                    Some(Value::Str(s)) => {
                        let hex = s.strip_prefix("0x").unwrap_or(s);
                        u64::from_str_radix(hex, 16)
                            .map_err(|_| format!("event {i} (`{name}`): unparseable id `{s}`"))?
                    }
                    other => as_id(other, "id").map_err(|e| format!("event {i}: {e}"))?,
                };
                let ts = ev
                    .get("ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("event {i}: missing `ts`"))?;
                if !ts.is_finite() || ts < 0.0 {
                    return Err(format!(
                        "event {i} (`{name}`): ts {ts} not finite/non-negative"
                    ));
                }
                flow_points.push((id, ph, pid, tid, ts, name.to_string()));
                stats.flow_events += 1;
            }
            other => return Err(format!("event {i}: unsupported phase `{other}`")),
        }
    }

    for &(pid, tid) in &x_tracks {
        if !named_pids.contains(&pid) {
            return Err(format!("pid {pid} has events but no process_name record"));
        }
        if !named_tracks.contains(&(pid, tid)) {
            return Err(format!(
                "track ({pid}, {tid}) has events but no thread_name record"
            ));
        }
    }
    stats.tracks = x_tracks.len();

    // -------- flow pass: binding + per-id ordering
    /// Timestamps of one flow id's start / step / finish points.
    #[derive(Default)]
    struct FlowTimes {
        starts: Vec<f64>,
        steps: Vec<f64>,
        finishes: Vec<f64>,
    }
    let mut per_id: BTreeMap<u64, FlowTimes> = BTreeMap::new();
    for (id, ph, pid, tid, ts, name) in &flow_points {
        let bound = slices
            .get(&(*pid, *tid))
            .is_some_and(|iv| iv.iter().any(|&(lo, hi)| *ts >= lo && *ts <= hi));
        if !bound {
            return Err(format!(
                "flow `{name}` (id {id:#x}, ph {ph}) at ts {ts} on track ({pid}, {tid}) \
                 has no enclosing slice"
            ));
        }
        let entry = per_id.entry(*id).or_default();
        match *ph {
            "s" => entry.starts.push(*ts),
            "t" => entry.steps.push(*ts),
            _ => entry.finishes.push(*ts),
        }
    }
    for (
        id,
        FlowTimes {
            starts,
            steps,
            finishes,
        },
    ) in &per_id
    {
        if starts.len() != 1 {
            return Err(format!(
                "flow id {id:#x}: {} start events (need exactly 1)",
                starts.len()
            ));
        }
        if finishes.len() > 1 {
            return Err(format!(
                "flow id {id:#x}: {} finish events (at most 1)",
                finishes.len()
            ));
        }
        let s = starts[0];
        let f = finishes.first().copied();
        if let Some(f) = f {
            if s > f {
                return Err(format!(
                    "flow id {id:#x}: starts at {s} after it finishes at {f}"
                ));
            }
        }
        for &t in steps {
            if t < s || f.is_some_and(|f| t > f) {
                return Err(format!(
                    "flow id {id:#x}: step at {t} outside the start..finish window"
                ));
            }
        }
    }
    stats.flow_ids = per_id.len();
    stats.flow_ids_complete = per_id.values().filter(|t| !t.finishes.is_empty()).count();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pid: u64, tid: u64, name: &str, ts: f64, dur: f64) -> TraceEvent {
        TraceEvent::complete(pid, tid, "test", name, ts, dur)
    }

    #[test]
    fn render_then_validate_roundtrip() {
        let events = vec![
            ev(pids::TRAINER, 1, "step", 100.0, 50.0).arg("loss", 3.25),
            ev(pids::SERVE, 7, "decode", 30.0, 10.0),
            ev(pids::SIM, 2, "forward", 0.0, 12.0),
        ];
        let tracks = vec![((pids::SERVE, 7), "req 7".to_string())];
        let json = render(&events, &tracks);
        let stats = validate(&json).expect("valid");
        assert_eq!(stats.complete_events, 3);
        assert_eq!(stats.events_per_pid.len(), 3);
        assert_eq!(stats.tracks, 3);
        // 3 process names + 3 thread names
        assert_eq!(stats.metadata_events, 6);
        assert!(json.contains("\"req 7\""));
    }

    #[test]
    fn export_sorts_out_of_order_events() {
        let events = vec![ev(1, 1, "late", 500.0, 1.0), ev(1, 1, "early", 2.0, 1.0)];
        let json = render(&events, &[]);
        validate(&json).expect("sorted on export");
        assert!(json.find("early").unwrap() < json.find("late").unwrap());
    }

    #[test]
    fn empty_trace_is_valid_but_zero() {
        let json = render(&[], &[]);
        let stats = validate(&json).expect("empty is structurally valid");
        assert_eq!(stats.complete_events, 0);
    }

    #[test]
    fn flow_events_render_and_validate() {
        use crate::trace::FlowEvent;
        let events = vec![
            ev(pids::PARALLEL, 1, "send-slice", 10.0, 5.0),
            ev(pids::PARALLEL, 2, "recv-slice", 12.0, 6.0),
        ];
        let id = (1u64 << 56) | 0xBEEF; // > 53 significant bits
        let flows = vec![
            FlowEvent::at(FlowPhase::Start, pids::PARALLEL, 1, "ring", "hop", id, 10.0),
            FlowEvent::at(
                FlowPhase::Finish,
                pids::PARALLEL,
                2,
                "ring",
                "hop",
                id,
                18.0,
            ),
        ];
        let json = render_full(&events, &flows, &[]);
        let stats = validate(&json).expect("flow trace validates");
        assert_eq!(stats.flow_events, 2);
        assert_eq!(stats.flow_ids, 1);
        assert_eq!(stats.flow_ids_complete, 1);
        assert!(json.contains("\"ph\":\"s\""));
        assert!(json.contains("\"bp\":\"e\""));
        assert!(
            json.contains(&format!("{id:#x}")),
            "hex id survives: {json}"
        );
    }

    #[test]
    fn rendered_bytes_are_pinned() {
        use crate::trace::FlowEvent;
        // three slices, one arrow: key order, number formatting (integral
        // floats print as integers), escaping and the hex flow id
        let events = vec![
            ev(pids::PARALLEL, 2, "recv \"slice\"\n", 12.5, 6.0),
            ev(pids::PARALLEL, 1, "send\\slice", 10.0, 5.25).arg("bytes", 4096.0),
            ev(pids::TRAINER, 1, "step\u{1}", 0.0, 0.1).arg("loss", 3.25),
        ];
        let id = (1u64 << 56) | 0xBEEF;
        let flows = vec![
            FlowEvent::at(FlowPhase::Start, pids::PARALLEL, 1, "ring", "hop", id, 10.0),
            FlowEvent::at(
                FlowPhase::Finish,
                pids::PARALLEL,
                2,
                "ring",
                "hop",
                id,
                18.5,
            ),
        ];
        let tracks = vec![((pids::PARALLEL, 2), "rank 1 (victim)".to_string())];
        let json = render_full(&events, &flows, &tracks);
        validate(&json).expect("the pinned document validates");
        assert_eq!(
            json,
            concat!(
                r#"{"displayTimeUnit":"ms","traceEvents":["#,
                r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"ts":0,"args":{"name":"trainer"}},"#,
                r#"{"name":"process_name","ph":"M","pid":4,"tid":0,"ts":0,"args":{"name":"parallel"}},"#,
                r#"{"name":"thread_name","ph":"M","pid":1,"tid":1,"ts":0,"args":{"name":"tid 1"}},"#,
                r#"{"name":"thread_name","ph":"M","pid":4,"tid":1,"ts":0,"args":{"name":"tid 1"}},"#,
                r#"{"name":"thread_name","ph":"M","pid":4,"tid":2,"ts":0,"args":{"name":"rank 1 (victim)"}},"#,
                r#"{"name":"step\u0001","cat":"test","ph":"X","pid":1,"tid":1,"ts":0,"dur":0.1,"args":{"loss":3.25}},"#,
                r#"{"name":"send\\slice","cat":"test","ph":"X","pid":4,"tid":1,"ts":10,"dur":5.25,"args":{"bytes":4096}},"#,
                r#"{"name":"hop","cat":"ring","ph":"s","id":"0x10000000000beef","pid":4,"tid":1,"ts":10},"#,
                r#"{"name":"recv \"slice\"\n","cat":"test","ph":"X","pid":4,"tid":2,"ts":12.5,"dur":6,"args":{}},"#,
                r#"{"name":"hop","cat":"ring","ph":"f","id":"0x10000000000beef","pid":4,"tid":2,"ts":18.5,"bp":"e"}"#,
                "]}"
            )
        );
    }

    #[test]
    fn validator_rejects_broken_flows() {
        // flow with no enclosing slice
        let orphan = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","pid":1,"tid":0,"ts":0,"args":{"name":"p"}},
            {"name":"thread_name","ph":"M","pid":1,"tid":1,"ts":0,"args":{"name":"t"}},
            {"name":"a","cat":"c","ph":"X","pid":1,"tid":1,"ts":0,"dur":5,"args":{}},
            {"name":"hop","cat":"c","ph":"s","id":"0x1","pid":1,"tid":1,"ts":99}
        ]}"#;
        assert!(validate(orphan).unwrap_err().contains("enclosing slice"));
        // finish before start
        let backwards = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","pid":1,"tid":0,"ts":0,"args":{"name":"p"}},
            {"name":"thread_name","ph":"M","pid":1,"tid":1,"ts":0,"args":{"name":"t"}},
            {"name":"a","cat":"c","ph":"X","pid":1,"tid":1,"ts":0,"dur":50,"args":{}},
            {"name":"hop","cat":"c","ph":"f","id":"0x2","pid":1,"tid":1,"ts":10,"bp":"e"},
            {"name":"hop","cat":"c","ph":"s","id":"0x2","pid":1,"tid":1,"ts":20}
        ]}"#;
        assert!(validate(backwards)
            .unwrap_err()
            .contains("after it finishes"));
        // finish with no start at all
        let headless = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","pid":1,"tid":0,"ts":0,"args":{"name":"p"}},
            {"name":"thread_name","ph":"M","pid":1,"tid":1,"ts":0,"args":{"name":"t"}},
            {"name":"a","cat":"c","ph":"X","pid":1,"tid":1,"ts":0,"dur":50,"args":{}},
            {"name":"hop","cat":"c","ph":"f","id":"0x3","pid":1,"tid":1,"ts":10,"bp":"e"}
        ]}"#;
        assert!(validate(headless).unwrap_err().contains("start events"));
        // flow without an id
        let unkeyed = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","pid":1,"tid":0,"ts":0,"args":{"name":"p"}},
            {"name":"thread_name","ph":"M","pid":1,"tid":1,"ts":0,"args":{"name":"t"}},
            {"name":"a","cat":"c","ph":"X","pid":1,"tid":1,"ts":0,"dur":50,"args":{}},
            {"name":"hop","cat":"c","ph":"s","pid":1,"tid":1,"ts":10}
        ]}"#;
        assert!(validate(unkeyed).is_err());
    }

    #[test]
    fn validator_rejects_bad_documents() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").is_err());
        // non-monotonic ts
        let bad = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","pid":1,"tid":0,"ts":0,"args":{"name":"p"}},
            {"name":"thread_name","ph":"M","pid":1,"tid":1,"ts":0,"args":{"name":"t"}},
            {"name":"a","cat":"c","ph":"X","pid":1,"tid":1,"ts":10,"dur":1,"args":{}},
            {"name":"b","cat":"c","ph":"X","pid":1,"tid":1,"ts":5,"dur":1,"args":{}}
        ]}"#;
        assert!(validate(bad).unwrap_err().contains("monotonic"));
        // negative duration
        let neg = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","pid":1,"tid":0,"ts":0,"args":{"name":"p"}},
            {"name":"thread_name","ph":"M","pid":1,"tid":1,"ts":0,"args":{"name":"t"}},
            {"name":"a","cat":"c","ph":"X","pid":1,"tid":1,"ts":1,"dur":-2,"args":{}}
        ]}"#;
        assert!(validate(neg).is_err());
        // unmatched track: X event without thread_name metadata
        let orphan = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","pid":1,"tid":0,"ts":0,"args":{"name":"p"}},
            {"name":"a","cat":"c","ph":"X","pid":1,"tid":9,"ts":1,"dur":2,"args":{}}
        ]}"#;
        assert!(validate(orphan).unwrap_err().contains("thread_name"));
    }
}
