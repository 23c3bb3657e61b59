//! Fault postmortem end to end: seeded kill → flight-recorder dump →
//! bundle read back from disk.
//!
//! Alone in its process: the experiment sets `MATGPT_POSTMORTEM_DIR`.

use matgpt_bench::experiments::{ext_obs_flight, Ctx};

#[test]
fn seeded_kill_dumps_a_valid_bundle_with_the_victim_flagged() {
    let n = ext_obs_flight::run(&Ctx::new(true)).expect("ext_obs_flight");
    assert_eq!(n.faults_fired, 1, "the seeded kill must fire once");
    assert_eq!(n.victims, [[2]], "one postmortem, victim rank 2");
    assert!(
        n.cause.contains("RankLost") || n.cause.contains("Stalled"),
        "cause `{}` names no failure kind",
        n.cause
    );
    assert!(n.trace.complete_events > 0, "trace holds no events");
    assert!(n.trace.flow_ids > 0, "trace holds no flow arrows");
    assert_eq!(
        n.trace.flow_ids_complete, n.trace.flow_ids,
        "postmortem keeps incomplete arrows"
    );
    // the victim's track is flagged and its final collective events —
    // the ring hops of the steps before the kill — made it into the dump
    let trace = std::fs::read_to_string(n.bundle.join("trace.json")).expect("trace.json");
    assert!(
        trace.contains("rank 2 (victim)"),
        "victim track not flagged"
    );
    assert!(
        trace.contains("ring.send") && trace.contains("ring.recv"),
        "postmortem trace lacks ring collective events"
    );
}
