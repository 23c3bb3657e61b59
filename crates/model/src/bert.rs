//! A BERT-style bidirectional encoder with a masked-LM head — the
//! MatSciBERT surrogate for the embedding comparisons of Table V and
//! Figs. 16–17.
//!
//! Standard post-2018 encoder recipe: learned absolute positional
//! embeddings (the paper contrasts these with the GPT variants' rotary
//! embeddings), pre-norm LayerNorm blocks, GELU MLP, full bidirectional
//! attention.

use crate::config::BertConfig;
use matgpt_tensor::{init, ParamId, ParamStore, Tape, Tensor, Var, IGNORE_INDEX};
use rand::Rng;

struct LayerIds {
    ln1_g: ParamId,
    ln1_b: ParamId,
    wq: ParamId,
    bq: ParamId,
    wk: ParamId,
    bk: ParamId,
    wv: ParamId,
    bv: ParamId,
    wo: ParamId,
    bo: ParamId,
    ln2_g: ParamId,
    ln2_b: ParamId,
    w1: ParamId,
    b1: ParamId,
    w2: ParamId,
    b2: ParamId,
}

/// The encoder model.
pub struct BertModel {
    /// Configuration.
    pub cfg: BertConfig,
    tok_emb: ParamId,
    pos_emb: ParamId,
    layers: Vec<LayerIds>,
    lnf_g: ParamId,
    lnf_b: ParamId,
    mlm_head: ParamId,
}

/// Token id used as the `[MASK]` symbol (reuses `<unk>`).
pub const MASK_TOKEN: u32 = matgpt_tokenizer_mask();

const fn matgpt_tokenizer_mask() -> u32 {
    0 // special::UNK — kept literal to avoid a tokenizer dependency here
}

impl BertModel {
    /// Create a model, registering parameters in `store`.
    pub fn new<R: Rng>(cfg: BertConfig, store: &mut ParamStore, rng: &mut R) -> Self {
        let h = cfg.hidden;
        let v = cfg.vocab_size;
        let m = 4 * h;
        let std = 0.02f32;
        let resid_std = std / (2.0 * cfg.layers as f32).sqrt();
        let tok_emb = store.add("bert.tok_emb", init::randn(&[v, h], std, rng));
        let pos_emb = store.add("bert.pos_emb", init::randn(&[cfg.max_seq, h], std, rng));
        let mut layers = Vec::with_capacity(cfg.layers);
        for l in 0..cfg.layers {
            let p = |n: &str| format!("bert.layer{l}.{n}");
            layers.push(LayerIds {
                ln1_g: store.add(p("ln1.g"), Tensor::full(&[h], 1.0)),
                ln1_b: store.add(p("ln1.b"), Tensor::zeros(&[h])),
                wq: store.add(p("wq"), init::randn(&[h, h], std, rng)),
                bq: store.add(p("bq"), Tensor::zeros(&[h])),
                wk: store.add(p("wk"), init::randn(&[h, h], std, rng)),
                bk: store.add(p("bk"), Tensor::zeros(&[h])),
                wv: store.add(p("wv"), init::randn(&[h, h], std, rng)),
                bv: store.add(p("bv"), Tensor::zeros(&[h])),
                wo: store.add(p("wo"), init::randn(&[h, h], resid_std, rng)),
                bo: store.add(p("bo"), Tensor::zeros(&[h])),
                ln2_g: store.add(p("ln2.g"), Tensor::full(&[h], 1.0)),
                ln2_b: store.add(p("ln2.b"), Tensor::zeros(&[h])),
                w1: store.add(p("w1"), init::randn(&[h, m], std, rng)),
                b1: store.add(p("b1"), Tensor::zeros(&[m])),
                w2: store.add(p("w2"), init::randn(&[m, h], resid_std, rng)),
                b2: store.add(p("b2"), Tensor::zeros(&[h])),
            });
        }
        let lnf_g = store.add("bert.lnf.g", Tensor::full(&[h], 1.0));
        let lnf_b = store.add("bert.lnf.b", Tensor::zeros(&[h]));
        let mlm_head = store.add("bert.mlm_head", init::randn(&[h, v], std, rng));
        Self {
            cfg,
            tok_emb,
            pos_emb,
            layers,
            lnf_g,
            lnf_b,
            mlm_head,
        }
    }

    /// Forward to final hidden states `[B*T, h]`.
    pub fn hidden_states(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        tokens: &[u32],
        batch: usize,
        seq: usize,
    ) -> Var {
        assert_eq!(tokens.len(), batch * seq);
        assert!(seq <= self.cfg.max_seq);
        let d = self.cfg.head_dim();
        let emb = tape.param(store, self.tok_emb);
        let tok = tape.embedding(emb, tokens);
        // learned positions, tiled across the batch
        let pos_ids: Vec<u32> = (0..batch)
            .flat_map(|_| (0..seq as u32).collect::<Vec<_>>())
            .collect();
        let pos_table = tape.param(store, self.pos_emb);
        let pos = tape.embedding(pos_table, &pos_ids);
        let mut x = tape.add(tok, pos);
        for layer in &self.layers {
            let g = tape.param(store, layer.ln1_g);
            let b = tape.param(store, layer.ln1_b);
            let n1 = tape.layernorm(x, g, b, self.cfg.norm_eps);
            let q = {
                let w = tape.param(store, layer.wq);
                let bq = tape.param(store, layer.bq);
                let y = tape.matmul(n1, w);
                tape.add_bias(y, bq)
            };
            let k = {
                let w = tape.param(store, layer.wk);
                let bk = tape.param(store, layer.bk);
                let y = tape.matmul(n1, w);
                tape.add_bias(y, bk)
            };
            let v = {
                let w = tape.param(store, layer.wv);
                let bv = tape.param(store, layer.bv);
                let y = tape.matmul(n1, w);
                tape.add_bias(y, bv)
            };
            let att = tape.bidirectional_attention(q, k, v, seq, d);
            let att = {
                let w = tape.param(store, layer.wo);
                let bo = tape.param(store, layer.bo);
                let y = tape.matmul(att, w);
                tape.add_bias(y, bo)
            };
            x = tape.add(x, att);
            let g2 = tape.param(store, layer.ln2_g);
            let b2v = tape.param(store, layer.ln2_b);
            let n2 = tape.layernorm(x, g2, b2v, self.cfg.norm_eps);
            let mlp = {
                let w1 = tape.param(store, layer.w1);
                let b1 = tape.param(store, layer.b1);
                let a = tape.matmul(n2, w1);
                let a = tape.add_bias(a, b1);
                let a = tape.gelu(a);
                let w2 = tape.param(store, layer.w2);
                let b2 = tape.param(store, layer.b2);
                let y = tape.matmul(a, w2);
                tape.add_bias(y, b2)
            };
            x = tape.add(x, mlp);
        }
        let g = tape.param(store, self.lnf_g);
        let b = tape.param(store, self.lnf_b);
        tape.layernorm(x, g, b, self.cfg.norm_eps)
    }

    /// Masked-LM loss on a pre-masked batch (`targets` is `IGNORE_INDEX`
    /// except at masked positions).
    pub fn mlm_loss(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        masked_inputs: &[u32],
        targets: &[u32],
        batch: usize,
        seq: usize,
    ) -> Var {
        let hid = self.hidden_states(tape, store, masked_inputs, batch, seq);
        let head = tape.param(store, self.mlm_head);
        let logits = tape.matmul(hid, head);
        tape.cross_entropy(logits, targets)
    }

    /// Mean-pooled embedding of a token sequence.
    pub fn embed(&self, store: &ParamStore, tokens: &[u32]) -> Vec<f32> {
        let seq = tokens.len().min(self.cfg.max_seq);
        let mut tape = Tape::new();
        let hid = self.hidden_states(&mut tape, store, &tokens[..seq], 1, seq);
        let pooled = tape.group_mean_rows(hid, seq);
        tape.value(pooled).data().to_vec()
    }
}

/// Apply BERT-style masking: each position is selected with probability
/// `mask_prob`; selected positions are replaced by [`MASK_TOKEN`] in the
/// inputs and kept as targets; everything else becomes `IGNORE_INDEX`.
pub fn mask_tokens<R: Rng>(tokens: &[u32], mask_prob: f32, rng: &mut R) -> (Vec<u32>, Vec<u32>) {
    let mut inputs = tokens.to_vec();
    let mut targets = vec![IGNORE_INDEX; tokens.len()];
    let mut any = false;
    for i in 0..tokens.len() {
        if rng.gen::<f32>() < mask_prob {
            targets[i] = tokens[i];
            inputs[i] = MASK_TOKEN;
            any = true;
        }
    }
    if !any && !tokens.is_empty() {
        // guarantee at least one masked position so the loss is defined
        let i = rng.gen_range(0..tokens.len());
        targets[i] = tokens[i];
        inputs[i] = MASK_TOKEN;
    }
    (inputs, targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgpt_tensor::init;

    fn tiny() -> (BertModel, ParamStore) {
        let mut store = ParamStore::new();
        let mut rng = init::rng(1);
        let cfg = BertConfig {
            vocab_size: 40,
            hidden: 16,
            layers: 2,
            heads: 2,
            max_seq: 12,
            norm_eps: 1e-5,
            mask_prob: 0.3,
        };
        (BertModel::new(cfg, &mut store, &mut rng), store)
    }

    #[test]
    fn forward_shapes() {
        let (model, store) = tiny();
        let tokens: Vec<u32> = (0..2 * 8).map(|i| (i % 40) as u32).collect();
        let mut tape = Tape::new();
        let h = model.hidden_states(&mut tape, &store, &tokens, 2, 8);
        assert_eq!(tape.value(h).shape(), &[16, 16]);
    }

    #[test]
    fn masking_marks_targets_consistently() {
        let tokens: Vec<u32> = (4..20).collect();
        let mut rng = init::rng(2);
        let (inputs, targets) = mask_tokens(&tokens, 0.3, &mut rng);
        let mut n_masked = 0;
        for i in 0..tokens.len() {
            if targets[i] != IGNORE_INDEX {
                assert_eq!(inputs[i], MASK_TOKEN);
                assert_eq!(targets[i], tokens[i]);
                n_masked += 1;
            } else {
                assert_eq!(inputs[i], tokens[i]);
            }
        }
        assert!(n_masked >= 1);
    }

    #[test]
    fn mlm_training_reduces_loss() {
        let (model, mut store) = tiny();
        let mut rng = init::rng(3);
        // a tiny repetitive "corpus"
        let tokens: Vec<u32> = (0..8).map(|i| 4 + (i % 4) as u32).collect();
        let eval_loss = |store: &ParamStore, rng: &mut rand_chacha::ChaCha8Rng| {
            let (inp, tgt) = mask_tokens(&tokens, 0.3, rng);
            let mut tape = Tape::new();
            let l = model.mlm_loss(&mut tape, store, &inp, &tgt, 1, 8);
            tape.value(l).item()
        };
        let before = eval_loss(&store, &mut rng);
        for _ in 0..20 {
            let (inp, tgt) = mask_tokens(&tokens, 0.3, &mut rng);
            store.zero_grads();
            let mut tape = Tape::new();
            let l = model.mlm_loss(&mut tape, &store, &inp, &tgt, 1, 8);
            tape.backward(l);
            tape.accumulate_param_grads(&mut store);
            store.for_each_param(|_, value, grad| {
                for (w, g) in value.data_mut().iter_mut().zip(grad.data()) {
                    *w -= 0.3 * g;
                }
            });
        }
        let after = eval_loss(&store, &mut rng);
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn bidirectional_embedding_uses_future_context() {
        // Changing a *later* token must change the embedding of the whole
        // sequence more than trivially — i.e. attention is not causal.
        let (model, store) = tiny();
        let e1 = model.embed(&store, &[5, 6, 7, 8]);
        let e2 = model.embed(&store, &[5, 6, 7, 9]);
        let diff: f32 = e1.iter().zip(e2.iter()).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-4, "future token must influence representation");
    }
}
