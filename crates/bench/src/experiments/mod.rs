//! Every table, figure, ablation and extension study, behind one
//! registry. [`REGISTRY`] is the only listing: `repro list` prints it,
//! `repro all` iterates it, and EXPERIMENTS.md's table is held to it by
//! a test.

pub mod ext_obs_flight;
pub mod ext_observability;
pub mod ext_paged_bench;
pub mod ext_resilience;
pub mod ext_tp;

mod ablation_batch_scaling;
mod ablation_kernel_knobs;
mod ablation_precision;
mod ablation_seq_sweep;
mod ablation_tp_mapping;
mod ext_bits_per_byte;
mod ext_formation_energy;
mod ext_gemm_roofline;
mod ext_gqa;
mod ext_inference_sim;
mod ext_parallel;
mod ext_quant;
mod ext_spec;
mod ext_tokenizer_study;
mod fig01_evolution;
mod fig02_layer_flops;
mod fig04_heatmap;
mod fig05_memory;
mod fig06_arch_throughput;
mod fig07_parallelism;
mod fig08_scaling;
mod fig09_step_trace;
mod fig10_kernel_breakdown;
mod fig11_messages;
mod fig12_power_traces;
mod suite;
mod table1_sources;
mod table2_architectures;
mod table3_hyperparams;
mod table4_energy;

use matgpt_core::{train_suite, MatGptSuite, OptChoice, PretrainConfig, SizeRole, SuiteScale};
use matgpt_corpus::{build_corpus, CorpusConfig};
use matgpt_model::{ArchKind, GptConfig, GptModel};
use matgpt_tensor::{init, ParamStore};
use matgpt_tokenizer::TokenizerKind;
use std::cell::OnceCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What every experiment is handed: the scale, and the trained suite
/// Figs. 13–17 and Table V share (trained on first use, once).
pub struct Ctx {
    /// `--smoke`: the fast reduced scale.
    pub smoke: bool,
    suite: OnceCell<MatGptSuite>,
}

impl Ctx {
    /// A context at full (`false`) or smoke (`true`) scale.
    pub fn new(smoke: bool) -> Self {
        Self {
            smoke,
            suite: OnceCell::new(),
        }
    }

    /// The controlled pre-training suite at this context's scale.
    pub fn suite(&self) -> &MatGptSuite {
        self.suite.get_or_init(|| {
            let scale = if self.smoke {
                SuiteScale::smoke()
            } else {
                SuiteScale::standard()
            };
            eprintln!("training suite at scale {scale:?} …");
            let suite = train_suite(&scale);
            println!(
                "suite: {} models, corpus {} docs / {} materials, screening acc {:.2}",
                suite.models.len(),
                suite.corpus.documents.len(),
                suite.corpus.materials.len(),
                suite.corpus.screening_accuracy
            );
            suite
        })
    }
}

/// The 90-document corpus the executed-training experiments share.
pub fn small_corpus(seed: u64) -> Vec<String> {
    build_corpus(&CorpusConfig {
        n_materials: 30,
        total_docs: 90,
        offtopic_fraction: 0.2,
        seed,
    })
    .documents
}

/// The recipe the executed-training experiments share (base model,
/// 300-token HF vocabulary, Adam); callers override steps and batch.
pub fn base_recipe(arch: ArchKind) -> PretrainConfig {
    PretrainConfig::scaled(
        arch,
        TokenizerKind::Hf,
        300,
        OptChoice::Adam,
        SizeRole::Base,
    )
}

/// The ≥512-hidden LLaMA the decode experiments share (4 layers, vocab
/// 1024, seeded weights): the shape the int8 drift bar is stated at.
fn decode_model() -> (GptModel, ParamStore) {
    let cfg = GptConfig {
        vocab_size: 1024,
        hidden: 512,
        layers: 4,
        heads: 8,
        kv_heads: None,
        max_seq: 384,
        ..GptConfig::tiny(ArchKind::Llama, 1024)
    };
    let mut store = ParamStore::new();
    let model = GptModel::new(cfg, &mut store, &mut init::rng(0));
    (model, store)
}

/// One registry row: name, what it regenerates, and the experiment.
pub type Row = (&'static str, &'static str, fn(&Ctx) -> Result<(), String>);

/// Every experiment `repro` can run, in reproduction order.
#[rustfmt::skip]
pub const REGISTRY: &[Row] = &[
    ("table1_sources", "Table I: data sources, paper numbers next to the synthetic pipeline's counts", table1_sources::run),
    ("table2_architectures", "Table II: architectures and tokenizer variants, parameter counts recomputed", table2_architectures::run),
    ("table3_hyperparams", "Table III: training hyper-parameters and the scaled-down recipes", table3_hyperparams::run),
    ("table4_energy", "Table IV: time and energy to pre-train 1.7B and 6.7B on 256 simulated GCDs", table4_energy::run),
    ("fig01_evolution", "Fig. 1: LLM releases per year by architecture branch", fig01_evolution::run),
    ("fig02_layer_flops", "Fig. 2: per-layer parameter and FLOP accounting for the 1.7B model", fig02_layer_flops::run),
    ("fig04_heatmap", "Fig. 4: architecture-throughput heatmap and the flash-attention boost", fig04_heatmap::run),
    ("fig05_memory", "Fig. 5: peak memory vs sequence length, with and without flash attention", fig05_memory::run),
    ("fig06_arch_throughput", "Fig. 6: NeoX vs LLaMA throughput on the flash-eligible grid", fig06_arch_throughput::run),
    ("fig07_parallelism", "Fig. 7: single-node throughput under the candidate parallelism strategies", fig07_parallelism::run),
    ("fig08_scaling", "Fig. 8: 8–256 GCD scaling and the comm/compute/IO breakdown", fig08_scaling::run),
    ("fig09_step_trace", "Fig. 9: runtime and power trace of one 6.7B ZeRO-1 step", fig09_step_trace::run),
    ("fig10_kernel_breakdown", "Fig. 10: per-layer latency by component and kernel shares", fig10_kernel_breakdown::run),
    ("fig11_messages", "Fig. 11: RCCL message histogram per distributed setting", fig11_messages::run),
    ("fig12_power_traces", "Fig. 12: power, memory and utilisation traces at 256 GCDs", fig12_power_traces::run),
    ("ablation_kernel_knobs", "Ablation: which kernel-model calibration knob carries which claim", ablation_kernel_knobs::run),
    ("ablation_batch_scaling", "Ablation: larger per-device batch vs scaling efficiency", ablation_batch_scaling::run),
    ("ablation_seq_sweep", "Ablation: flash-attention advantage vs context length", ablation_seq_sweep::run),
    ("ablation_tp_mapping", "Ablation: mapping the TP group onto the node topology", ablation_tp_mapping::run),
    ("ext_inference_sim", "Extension: simulated prefill/decode cost, KV pressure and the GQA payoff", ext_inference_sim::run),
    ("ext_fault_tolerance", "Extension: simulated goodput vs checkpoint interval against Young/Daly", suite::ext_fault_tolerance),
    ("fig13_loss_curves", "Fig. 13: training and validation losses of the controlled suite", suite::fig13_loss_curves),
    ("fig14_zero_shot", "Fig. 14: zero-shot accuracy across tokenizers, architectures and sizes", suite::fig14_zero_shot),
    ("fig15_few_shot", "Fig. 15: 3- and 5-shot accuracy of the large models", suite::fig15_few_shot),
    ("fig16_embedding_geometry", "Fig. 16: distance and cosine distributions of formula embeddings", suite::fig16_embedding_geometry),
    ("fig17_clustering", "Fig. 17: PCA + t-SNE clustering of formula embeddings", suite::fig17_clustering),
    ("table5_bandgap", "Table V: band-gap MAE of GNN baselines and LLM-embedding fusion", suite::table5_bandgap),
    ("ablation_precision", "Ablation: fp32 vs bf16 vs fp16 weight storage, real training", ablation_precision::run),
    ("ext_gqa", "Extension: multi-head vs grouped-query vs multi-query attention", ext_gqa::run),
    ("ext_tokenizer_study", "Extension: tokenizer fertility on formulas vs vocabulary size", ext_tokenizer_study::run),
    ("ext_formation_energy", "Extension: band gap vs formation energy as a GNN target", ext_formation_energy::run),
    ("ext_bits_per_byte", "Extension: bits per byte makes losses comparable across tokenizers", ext_bits_per_byte::run),
    ("ext_quant", "Extension: int8 decode — weight compression, logits and perplexity drift", ext_quant::run),
    ("ext_spec", "Extension: int8 self-draft speculative decoding — acceptance and stream identity", ext_spec::run),
    ("ext_paged_bench", "Extension: paged vs contiguous KV under a shared system prompt", |c| ext_paged_bench::run(c).map(drop)),
    ("ext_parallel", "Extension: executed DP and ZeRO-1 — ring traffic, shard sizes, critical path", ext_parallel::run),
    ("ext_tp", "Extension: executed TP=2 message census vs Fig. 11, and the 1F1B schedule", |c| ext_tp::run(c).map(drop)),
    ("ext_resilience", "Extension: executed kill/rollback goodput sweep against the Daly interval", |c| ext_resilience::run(c).map(drop)),
    ("ext_observability", "Extension: trainer, serving and simulator in one trace and one exposition", |c| ext_observability::run(c).map(drop)),
    ("ext_obs_flight", "Extension: seeded kill to flight-recorder postmortem bundle", |c| ext_obs_flight::run(c).map(drop)),
    ("ext_gemm_roofline", "Extension: the three GEMM entries against a measured FMA peak and stream rate", ext_gemm_roofline::run),
];

/// `rows` as the markdown table EXPERIMENTS.md carries.
pub fn list(rows: &[Row]) -> String {
    let mut out = String::from("| name | regenerates |\n|---|---|\n");
    for (name, about, _) in rows {
        out.push_str(&format!("| `{name}` | {about} |\n"));
    }
    out
}

/// Run `selected` in order, each behind `catch_unwind`, so one bad
/// figure does not hide the rest. Returns the names that failed.
pub fn run_rows(selected: &[&Row], ctx: &Ctx) -> Vec<&'static str> {
    let mut failed = Vec::new();
    for (name, _, run) in selected {
        if selected.len() > 1 {
            println!("\n################ {name} ################");
        }
        match catch_unwind(AssertUnwindSafe(|| run(ctx))) {
            Ok(Ok(())) => continue,
            Ok(Err(e)) => eprintln!("{name}: FAIL: {e}"),
            Err(_) => eprintln!("{name}: FAIL: panicked"),
        }
        failed.push(*name);
    }
    failed
}

/// `repro list | <name>… | all [--smoke]` over `rows`; returns the
/// process exit code.
pub fn cli(rows: &[Row], args: &[String]) -> u8 {
    let smoke = args.iter().any(|a| a == "--smoke");
    let names: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--smoke")
        .collect();
    let selected: Vec<&Row> = match names.as_slice() {
        [] => {
            eprintln!("usage: repro list | <name>… | all [--smoke]");
            return 2;
        }
        ["list"] => {
            print!("{}", list(rows));
            return 0;
        }
        ["all"] => rows.iter().collect(),
        _ => {
            let mut selected = Vec::new();
            for n in &names {
                match rows.iter().find(|r| r.0 == *n) {
                    Some(row) => selected.push(row),
                    None => {
                        eprintln!("repro: no experiment named `{n}` (see `repro list`)");
                        return 2;
                    }
                }
            }
            selected
        }
    };
    let failed = run_rows(&selected, &Ctx::new(smoke));
    if failed.is_empty() {
        return 0;
    }
    eprintln!("\nrepro: {} failed: {}", failed.len(), failed.join(", "));
    1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static RAN: AtomicUsize = AtomicUsize::new(0);

    fn ok(_: &Ctx) -> Result<(), String> {
        RAN.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    #[test]
    fn a_failing_row_fails_the_run_without_hiding_the_rest() {
        let rows: &[Row] = &[
            ("first", "", ok),
            ("returns_err", "", |_| Err("injected".into())),
            ("panics", "", |_| panic!("injected")),
            ("last", "", ok),
        ];
        let all: Vec<&Row> = rows.iter().collect();
        assert_eq!(
            run_rows(&all, &Ctx::new(true)),
            ["returns_err", "panics"],
            "failed names, in order"
        );
        assert_eq!(RAN.load(Ordering::SeqCst), 2, "rows after a failure run");
        assert_eq!(cli(rows, &["all".into(), "--smoke".into()]), 1);
        assert_eq!(cli(rows, &["first".into(), "last".into()]), 0);
        assert_eq!(cli(rows, &["no_such_row".into()]), 2);
    }

    #[test]
    fn experiments_md_carries_the_registry_table() {
        let md =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md"))
                .expect("read EXPERIMENTS.md");
        assert!(
            md.contains(&list(REGISTRY)),
            "EXPERIMENTS.md's table differs from `repro list`; paste its output"
        );
        let mut names: Vec<&str> = REGISTRY.iter().map(|r| r.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len(), "registry names are unique");
    }

    #[test]
    fn design_md_lists_exactly_the_shims() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut shims: Vec<String> = std::fs::read_dir(format!("{root}/shims"))
            .expect("read shims/")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        shims.sort();
        let md = std::fs::read_to_string(format!("{root}/DESIGN.md")).expect("read DESIGN.md");
        // §6's bullets: "* `name` — why"
        let listed: Vec<&str> = md
            .lines()
            .skip_while(|l| !l.starts_with("## 6. Dependencies"))
            .skip(1)
            .take_while(|l| !l.starts_with("## "))
            .filter_map(|l| l.strip_prefix("* `")?.split_once("` — "))
            .map(|(name, _)| name)
            .collect();
        assert_eq!(listed, shims, "DESIGN.md §6 differs from `ls shims`");
    }
}
