//! Extension: unified observability demo — records a small pretraining
//! run, serving runs at **both weight precisions** (f32 and int8), and
//! a simulated Frontier training step into **one** Chrome trace
//! (`target/obs/trace.json`, openable in Perfetto / `chrome://tracing`)
//! and **one** Prometheus exposition (`target/obs/metrics.prom`).
//! `tests/observability.rs` re-reads both from disk and holds the
//! claims: events from all three sources (trainer, serve,
//! frontier-sim), one complete flow arrow per request, and every
//! expected metric family including the per-precision quantization
//! series.

use super::{base_recipe, small_corpus, Ctx};
use crate::print_table;
use matgpt_core::{pretrain::Trainer, PretrainConfig};
use matgpt_frontier_sim::parallel::{simulate_step, Strategy, TrainSetup};
use matgpt_frontier_sim::power::PowerModel;
use matgpt_frontier_sim::trace as sim_trace;
use matgpt_model::{ArchKind, GptConfig, GptModel, SampleOptions, WeightPrecision};
use matgpt_obs::{chrome, pids, prom, Recorder, Registry};
use matgpt_serve::{Engine, EngineConfig};
use matgpt_tensor::{init, ParamStore};
use std::path::PathBuf;

/// What [`run`] wrote, for `tests/observability.rs`.
pub struct ObsArtifacts {
    /// Directory holding `trace.json` and `metrics.prom`.
    pub dir: PathBuf,
    /// Serving requests answered per precision; each carries one
    /// complete flow arrow.
    pub requests_per_precision: usize,
}

/// Record all three sources, write the trace and the exposition.
pub fn run(ctx: &Ctx) -> Result<ObsArtifacts, String> {
    let smoke = ctx.smoke;
    let rec = Recorder::global();
    rec.enable(); // enable first: the epoch starts now, timestamps stay small

    // ---- source 1: simulated Frontier step (Figs. 9/11/12 re-target)
    let setup = TrainSetup::new(
        GptConfig::paper_6_7b(ArchKind::Llama, 52_000),
        256,
        Strategy::Zero1,
    );
    let report = simulate_step(&setup);
    sim_trace::record_chrome(
        rec,
        Registry::global(),
        &setup,
        &report,
        &PowerModel::default(),
        2,
        report.step_s / 100.0,
    );

    // ---- source 2: a small measured pretraining run
    let steps = if smoke { 3 } else { 6 };
    let train_cfg = PretrainConfig {
        steps,
        batch_seqs: 2,
        ..base_recipe(ArchKind::Llama)
    };
    let mut trainer = Trainer::new(&small_corpus(11), &train_cfg);
    trainer.run_to_end();
    let checkpoint_bytes = trainer.checkpoint().len();

    // ---- source 3: concurrent serving runs at both weight precisions,
    // so the exposition carries the per-precision quantization series
    let n_req = if smoke { 4 } else { 8 };
    let opts = SampleOptions {
        temperature: 0.0,
        top_k: 0,
        max_new_tokens: 6,
        stop_token: None,
    };
    let engines: Vec<Engine> = [WeightPrecision::F32, WeightPrecision::Int8]
        .into_iter()
        .map(|precision| {
            let mut store = ParamStore::new();
            let mut rng = init::rng(0);
            let serve_cfg = GptConfig {
                max_seq: 128,
                ..GptConfig::tiny(ArchKind::Llama, 128)
            };
            let model = GptModel::new(serve_cfg, &mut store, &mut rng);
            let engine = Engine::new(
                model,
                store,
                EngineConfig {
                    precision,
                    ..EngineConfig::default()
                },
            );
            let handles: Vec<_> = (0..n_req)
                .map(|i| {
                    let plen = 8 + 4 * i;
                    let p: Vec<u32> = (0..plen as u32).map(|t| (t * 5 + i as u32) % 127).collect();
                    engine.submit(&p, opts).expect("admitted")
                })
                .collect();
            let answered = handles.into_iter().filter_map(|h| h.wait()).count();
            engine.shutdown(); // joins the scheduler, flushing its spans
            if answered == n_req {
                Ok(engine)
            } else {
                Err(format!(
                    "not every {precision} serving request was answered"
                ))
            }
        })
        .collect::<Result<_, _>>()?;

    // ---- export
    matgpt_obs::flush_thread();
    rec.disable();
    let json = rec.to_chrome_json();
    let registries: Vec<&Registry> = std::iter::once(Registry::global())
        .chain(engines.iter().map(|e| e.registry()))
        .collect();
    let text =
        prom::render_all(&registries).map_err(|e| format!("merged exposition invalid: {e}"))?;
    let dir = PathBuf::from("target/obs");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for (name, content) in [("trace.json", &json), ("metrics.prom", &text)] {
        std::fs::write(dir.join(name), content).map_err(|e| format!("write {name}: {e}"))?;
    }

    let stats = chrome::validate(&json).map_err(|e| format!("trace.json invalid: {e}"))?;
    let families = prom::parse(&text).map_err(|e| format!("metrics.prom invalid: {e}"))?;
    let per_pid = |pid: u64| stats.events_per_pid.get(&pid).copied().unwrap_or(0);
    print_table(
        "Unified trace (target/obs/trace.json)",
        &["source", "complete events"],
        &[
            vec![
                pids::name(pids::TRAINER),
                per_pid(pids::TRAINER).to_string(),
            ],
            vec![pids::name(pids::SERVE), per_pid(pids::SERVE).to_string()],
            vec![pids::name(pids::SIM), per_pid(pids::SIM).to_string()],
        ],
    );
    println!(
        "\ntracks: {}, metadata events: {}, flow arrows: {}/{} complete, \
         metric families: {}, trainer checkpoint image: {} bytes",
        stats.tracks,
        stats.metadata_events,
        stats.flow_ids_complete,
        stats.flow_ids,
        families.len(),
        checkpoint_bytes
    );
    println!("open target/obs/trace.json in Perfetto (ui.perfetto.dev) or chrome://tracing");
    Ok(ObsArtifacts {
        dir,
        requests_per_precision: n_req,
    })
}
