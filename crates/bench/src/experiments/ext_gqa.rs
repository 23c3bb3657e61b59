//! Extension: grouped-query attention — the LLaMA-2 "tweak to improve
//! inference performance" the paper mentions when surveying architectures.
//!
//! We train the same tiny LLaMA with full multi-head attention, GQA
//! (kv-heads = heads/2) and MQA (kv-heads = 1) and compare: training
//! quality stays close while the inference KV-cache shrinks
//! proportionally.

use super::Ctx;
use crate::{compare, print_table};
use matgpt_core::{OptChoice, PretrainConfig, SizeRole};
use matgpt_corpus::{build_corpus, CorpusConfig};
use matgpt_model::count::total_params;
use matgpt_model::{ArchKind, GptConfig};
use matgpt_tokenizer::TokenizerKind;

pub fn run(ctx: &Ctx) -> Result<(), String> {
    let corpus = build_corpus(&CorpusConfig {
        n_materials: 150,
        total_docs: 500,
        offtopic_fraction: 0.25,
        seed: 33,
    });

    // Note: the training driver builds its model from SizeRole; for this
    // study we train via a custom loop sharing the driver's recipe but
    // varying kv_heads on the small config.
    let mut rows = Vec::new();
    let mut losses = Vec::new();
    for (name, kv) in [
        ("MHA (8 kv)", None),
        ("GQA (4 kv)", Some(4)),
        ("MQA (1 kv)", Some(1)),
    ] {
        let mut cfg = PretrainConfig::scaled(
            ArchKind::Llama,
            TokenizerKind::Hf,
            512,
            OptChoice::Adam,
            SizeRole::Large, // 8 heads
        );
        cfg.steps = if ctx.smoke { 40 } else { 250 };
        cfg.seed = 17;
        let trained = pretrain_with_kv(&corpus.documents, &cfg, kv);
        let model_cfg = &trained.model.cfg;
        rows.push(vec![
            name.to_string(),
            format!("{}", total_params(model_cfg)),
            format!("{}", model_cfg.kv_cache_bytes_per_token()),
            format!("{:.3}", trained.curves.final_train()),
            format!("{:.3}", trained.curves.final_val()),
        ]);
        losses.push(trained.curves.final_val());
    }
    print_table(
        "Extension: multi-head vs grouped-query vs multi-query attention",
        &[
            "variant",
            "params",
            "KV-cache B/token",
            "train loss",
            "val loss",
        ],
        &rows,
    );

    println!("\n-- reference vs measured --");
    let spread = (losses[1] - losses[0]).abs() / losses[0];
    compare(
        "GQA matches MHA quality",
        "LLaMA-2 finding",
        &format!(
            "val {:.3} vs {:.3} ({:.1}% apart)",
            losses[1],
            losses[0],
            spread * 100.0
        ),
        if spread < 0.15 {
            "MATCH (within 15% at tiny scale)"
        } else {
            "CHECK"
        },
    );
    compare(
        "KV cache shrinks with kv-heads",
        "heads/kv ratio",
        "see column above",
        "INFO",
    );
    Ok(())
}

/// Pretrain with an overridden kv-head count (same recipe otherwise).
fn pretrain_with_kv(
    documents: &[String],
    cfg: &PretrainConfig,
    kv: Option<usize>,
) -> matgpt_core::Pretrained {
    // wrap the standard driver: build the tokenizer, then adjust the model
    // config through the same path by temporarily training and replacing.
    // The driver owns model construction, so we reimplement its loop here
    // minimally via the public API.
    use matgpt_model::GptModel;
    use matgpt_optim::{Adam, AdamConfig, CosineSchedule, LrSchedule, Optimizer};
    use matgpt_tensor::{init, ParamStore, Tape};

    let tokenizer = matgpt_core::train_tokenizer(cfg.tokenizer, cfg.vocab, documents);
    let vocab = tokenizer.vocab_size();
    let model_cfg = GptConfig {
        kv_heads: kv,
        max_seq: cfg.seq * 4,
        ..GptConfig::small(cfg.arch, vocab)
    };
    let mut rng = init::rng(cfg.seed);
    let mut store = ParamStore::new();
    let model = GptModel::new(model_cfg, &mut store, &mut rng);
    let mut dataset =
        matgpt_corpus::TokenDataset::new(documents, tokenizer.as_ref(), 0.08, cfg.seed ^ 0xda7a);
    let mut opt = Adam::new(AdamConfig::paper_adam());
    let schedule = CosineSchedule::paper(cfg.lr, cfg.steps);
    let mut train = Vec::new();
    let mut val = Vec::new();
    for step in 0..cfg.steps {
        let batch = dataset.sample_batch(cfg.batch_seqs, cfg.seq);
        store.zero_grads();
        let mut tape = Tape::new();
        let loss = model.loss(
            &mut tape,
            &store,
            &batch.inputs,
            &batch.targets,
            batch.batch,
            batch.seq,
        );
        let l = tape.value(loss).item();
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        store.clip_grad_norm(1.0);
        opt.step(&mut store, schedule.lr(step));
        if step % 20 == 0 || step + 1 == cfg.steps {
            train.push((step, l));
            val.push((
                step,
                matgpt_core::pretrain::validation_loss(&model, &store, &dataset, cfg.seq),
            ));
        }
    }
    matgpt_core::Pretrained {
        model,
        store,
        tokenizer,
        curves: matgpt_core::LossCurves {
            label: format!("{}-kv{:?}", cfg.label(), kv),
            train,
            val,
        },
        config: cfg.clone(),
    }
}
