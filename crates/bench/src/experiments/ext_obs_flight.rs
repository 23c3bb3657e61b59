//! Extension: the fault postmortem the always-on flight recorder buys.
//!
//! A 4-worker resilient epoch under a seeded kill dumps a postmortem
//! bundle to `target/obs/postmortem/recovery-0`, which is then read
//! back from disk as an operator would: manifest schema, `trace.json`
//! through [`chrome::validate`], `metrics.prom` through
//! [`prom::parse`]. `tests/obs_postmortem.rs` holds the claims: the
//! victim is flagged, every retained flow arrow is complete, the
//! victim's final ring hops made it into the dump.
//!
//! What the recorder costs is not measured here: it is on in every
//! `perf/` run, so its cost is inside `train_tok_s`, and
//! `obs.trace_overhead_share` prices the full recorder on top.

use super::{base_recipe, small_corpus, Ctx};
use matgpt_core::parallel::{DataParallel, ParallelConfig};
use matgpt_core::{FaultPlan, PretrainConfig, RecoveryPolicy, ResilienceConfig};
use matgpt_model::ArchKind;
use matgpt_obs::{chrome, prom};
use std::path::PathBuf;

/// What [`run`] found in the bundle, for `tests/obs_postmortem.rs`.
pub struct PostmortemNumbers {
    /// Kills the seeded plan fired.
    pub faults_fired: usize,
    /// Victim ranks of each dumped postmortem.
    pub victims: Vec<Vec<u64>>,
    /// The first postmortem's cause line.
    pub cause: String,
    /// `recovery-0`, holding `manifest.json`, `trace.json`, `metrics.prom`.
    pub bundle: PathBuf,
    /// [`chrome::validate`] over the bundle's `trace.json`.
    pub trace: chrome::ChromeStats,
}

/// Kill rank 2 at step 3 of a 4-worker run and read the bundle back.
pub fn run(ctx: &Ctx) -> Result<PostmortemNumbers, String> {
    let dir = PathBuf::from("target/obs/postmortem");
    let _ = std::fs::remove_dir_all(&dir);
    // set before any worker thread exists; resilience reads it at dump
    // time on the coordinator thread
    std::env::set_var("MATGPT_POSTMORTEM_DIR", &dir);

    let cfg = PretrainConfig {
        steps: if ctx.smoke { 6 } else { 10 },
        batch_seqs: 4,
        seq: 32,
        ..base_recipe(ArchKind::Llama)
    };
    let res = ResilienceConfig {
        snapshot_every: 2,
        faults: FaultPlan::kill(2, 3),
        policy: RecoveryPolicy::Respawn,
        ..ResilienceConfig::default()
    };
    let out =
        DataParallel::new(ParallelConfig::zero1(4)).train_resilient(&small_corpus(29), &cfg, res);
    let pm = out
        .resilience
        .postmortems
        .first()
        .ok_or("the seeded kill dumped no postmortem")?;

    let bundle = dir.join("recovery-0");
    let read = |name: &str| {
        std::fs::read_to_string(bundle.join(name))
            .map_err(|e| format!("read {}/{name}: {e}", bundle.display()))
    };
    if !read("manifest.json")?.contains("matgpt-postmortem/v1") {
        return Err("manifest lacks the matgpt-postmortem/v1 schema tag".into());
    }
    let trace = chrome::validate(&read("trace.json")?)
        .map_err(|e| format!("postmortem trace.json invalid: {e}"))?;
    prom::parse(&read("metrics.prom")?)
        .map_err(|e| format!("postmortem metrics.prom invalid: {e}"))?;
    // the event, thread and arrow counts depend on thread timing, so
    // they stay in the returned numbers and off the summary line
    println!(
        "postmortem bundle {}: cause `{}`, victims {:?}, every flow arrow complete: {}",
        bundle.display(),
        pm.cause,
        pm.victims,
        trace.flow_ids_complete == trace.flow_ids
    );
    Ok(PostmortemNumbers {
        faults_fired: out.resilience.faults_fired,
        victims: out
            .resilience
            .postmortems
            .iter()
            .map(|p| p.victims.clone())
            .collect(),
        cause: pm.cause.clone(),
        bundle,
        trace,
    })
}
