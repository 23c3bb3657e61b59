//! Message-passing GNN variants for materials property regression.
//!
//! Four variants of increasing feature complexity mirror the paper's
//! Table V baselines, plus optional LLM-embedding fusion (Fig. 3):
//!
//! | variant | conv layers | edge feats | node inputs |
//! |---|---|---|---|
//! | CGCNN   | 1 | 4-basis distances | species emb + descriptors |
//! | MEGNet  | 2 | 6-basis distances | species emb + descriptors |
//! | ALIGNN  | 3 | 8-basis + angles  | species emb + descriptors |
//! | MF-CGNN | 3 | 8-basis + angles  | species emb only (minimal) |

use crate::graph::{CrystalGraph, GraphOptions};
use matgpt_corpus::ELEMENTS;
use matgpt_tensor::{init, ParamId, ParamStore, Tape, Tensor, Var};
use rand::Rng;

/// The GNN baselines of Table V.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GnnVariant {
    /// Crystal graph convolutional network (Xie & Grossman).
    Cgcnn,
    /// MatErials Graph Network (Chen et al.).
    Megnet,
    /// Atomistic line graph NN (Choudhary & DeCost).
    Alignn,
    /// Minimal-feature crystal graph NN (Cong & Fung).
    MfCgnn,
}

impl GnnVariant {
    /// Label as in Table V.
    pub fn label(&self) -> &'static str {
        match self {
            GnnVariant::Cgcnn => "CGCNN",
            GnnVariant::Megnet => "MEGNet",
            GnnVariant::Alignn => "ALIGNN",
            GnnVariant::MfCgnn => "MF-CGNN",
        }
    }

    /// Graph-construction options for the variant.
    pub fn graph_options(&self) -> GraphOptions {
        match self {
            GnnVariant::Cgcnn => GraphOptions {
                k_neighbors: 4,
                n_basis: 4,
                r_max: 6.0,
                angles: false,
            },
            GnnVariant::Megnet => GraphOptions {
                k_neighbors: 4,
                n_basis: 6,
                r_max: 6.0,
                angles: false,
            },
            GnnVariant::Alignn | GnnVariant::MfCgnn => GraphOptions {
                k_neighbors: 4,
                n_basis: 8,
                r_max: 6.0,
                angles: true,
            },
        }
    }

    fn conv_layers(&self) -> usize {
        match self {
            GnnVariant::Cgcnn => 1,
            GnnVariant::Megnet => 2,
            GnnVariant::Alignn | GnnVariant::MfCgnn => 3,
        }
    }

    fn uses_descriptors(&self) -> bool {
        !matches!(self, GnnVariant::MfCgnn)
    }

    fn edge_dim(&self) -> usize {
        let o = self.graph_options();
        o.n_basis + if o.angles { 2 } else { 0 }
    }
}

struct ConvIds {
    w_msg: ParamId,
    b_msg: ParamId,
    w_upd: ParamId,
    b_upd: ParamId,
}

/// A GNN regressor with optional fused external (LLM) embedding.
pub struct GnnModel {
    /// Variant configuration.
    pub variant: GnnVariant,
    /// Hidden width.
    pub hidden: usize,
    /// External embedding dimension fused at readout (0 = none).
    pub fusion_dim: usize,
    species_emb: ParamId,
    proj_w: ParamId,
    proj_b: ParamId,
    convs: Vec<ConvIds>,
    r1_w: ParamId,
    r1_b: ParamId,
    r2_w: ParamId,
    r2_b: ParamId,
}

impl GnnModel {
    /// Create a model, registering parameters in `store`. `fusion_dim` is
    /// the width of the LLM embedding concatenated before readout (0 for
    /// the structure-only baselines).
    pub fn new<R: Rng>(
        variant: GnnVariant,
        hidden: usize,
        fusion_dim: usize,
        store: &mut ParamStore,
        rng: &mut R,
    ) -> Self {
        let d_emb = 16usize;
        let d_desc = if variant.uses_descriptors() { 5 } else { 0 };
        let d_in = d_emb + d_desc;
        let d_edge = variant.edge_dim();
        let p = |n: &str| format!("gnn.{}.{n}", variant.label());
        let species_emb = store.add(
            p("species"),
            init::randn(&[ELEMENTS.len(), d_emb], 0.3, rng),
        );
        let proj_w = store.add(p("proj.w"), init::xavier(d_in, hidden, rng));
        let proj_b = store.add(p("proj.b"), Tensor::zeros(&[hidden]));
        let mut convs = Vec::new();
        for l in 0..variant.conv_layers() {
            let q = |n: &str| format!("gnn.{}.conv{l}.{n}", variant.label());
            convs.push(ConvIds {
                w_msg: store.add(q("w_msg"), init::xavier(2 * hidden + d_edge, hidden, rng)),
                b_msg: store.add(q("b_msg"), Tensor::zeros(&[hidden])),
                w_upd: store.add(q("w_upd"), init::xavier(hidden, hidden, rng)),
                b_upd: store.add(q("b_upd"), Tensor::zeros(&[hidden])),
            });
        }
        let readout_in = hidden + fusion_dim;
        let r1_w = store.add(p("r1.w"), init::xavier(readout_in, hidden, rng));
        let r1_b = store.add(p("r1.b"), Tensor::zeros(&[hidden]));
        let r2_w = store.add(p("r2.w"), init::xavier(hidden, 1, rng));
        let r2_b = store.add(p("r2.b"), Tensor::zeros(&[1]));
        Self {
            variant,
            hidden,
            fusion_dim,
            species_emb,
            proj_w,
            proj_b,
            convs,
            r1_w,
            r1_b,
            r2_w,
            r2_b,
        }
    }

    /// Forward one graph to a scalar prediction. `fused` must be provided
    /// iff `fusion_dim > 0`.
    pub fn predict_var(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        g: &CrystalGraph,
        fused: Option<&[f32]>,
    ) -> Var {
        let n = g.species.len();
        let emb_table = tape.param(store, self.species_emb);
        let mut x = tape.embedding(emb_table, &g.species);
        if self.variant.uses_descriptors() {
            let desc: Vec<f32> = g.descriptors.iter().flatten().copied().collect();
            let d = tape.input(Tensor::from_vec(&[n, 5], desc));
            x = tape.concat(x, d);
        }
        let pw = tape.param(store, self.proj_w);
        let pb = tape.param(store, self.proj_b);
        let mut h = tape.linear(x, pw, pb);
        h = tape.silu(h);

        let src: Vec<u32> = g.edges.iter().map(|&(s, _)| s).collect();
        let dst: Vec<u32> = g.edges.iter().map(|&(_, d)| d).collect();
        let e_feats: Vec<f32> = g.edge_feats.iter().flatten().copied().collect();
        let d_edge = self.variant.edge_dim();

        for conv in &self.convs {
            let hi = tape.index_select(h, &dst);
            let hj = tape.index_select(h, &src);
            let pair = tape.concat(hi, hj);
            let ev = tape.input(Tensor::from_vec(&[g.edges.len(), d_edge], e_feats.clone()));
            let m_in = tape.concat(pair, ev);
            let wm = tape.param(store, conv.w_msg);
            let bm = tape.param(store, conv.b_msg);
            let msg = tape.linear(m_in, wm, bm);
            let msg = tape.silu(msg);
            let agg = tape.segment_sum(msg, &dst, n);
            let wu = tape.param(store, conv.w_upd);
            let bu = tape.param(store, conv.b_upd);
            let upd = tape.linear(agg, wu, bu);
            let upd = tape.tanh(upd);
            h = tape.add(h, upd);
        }

        let mut pooled = tape.group_mean_rows(h, n); // [1, hidden]
        if self.fusion_dim > 0 {
            let f = fused.expect("fusion embedding required");
            assert_eq!(f.len(), self.fusion_dim, "fusion dim mismatch");
            let fv = tape.input(Tensor::from_vec(&[1, self.fusion_dim], f.to_vec()));
            pooled = tape.concat(pooled, fv);
        }
        let w1 = tape.param(store, self.r1_w);
        let b1 = tape.param(store, self.r1_b);
        let hdn = tape.linear(pooled, w1, b1);
        let hdn = tape.silu(hdn);
        let w2 = tape.param(store, self.r2_w);
        let b2 = tape.param(store, self.r2_b);
        tape.linear(hdn, w2, b2)
    }

    /// Plain inference.
    pub fn predict(&self, store: &ParamStore, g: &CrystalGraph, fused: Option<&[f32]>) -> f32 {
        let mut tape = Tape::new();
        let y = self.predict_var(&mut tape, store, g, fused);
        tape.value(y).item()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build_graph;
    use matgpt_corpus::MaterialGenerator;

    #[test]
    fn all_variants_forward() {
        let mats = MaterialGenerator::new(4).generate(5);
        let mut rng = init::rng(0);
        for v in [
            GnnVariant::Cgcnn,
            GnnVariant::Megnet,
            GnnVariant::Alignn,
            GnnVariant::MfCgnn,
        ] {
            let mut store = ParamStore::new();
            let model = GnnModel::new(v, 16, 0, &mut store, &mut rng);
            for m in &mats {
                let g = build_graph(m, &v.graph_options());
                let y = model.predict(&store, &g, None);
                assert!(y.is_finite(), "{v:?}");
            }
        }
    }

    #[test]
    fn fusion_input_changes_prediction() {
        let mats = MaterialGenerator::new(5).generate(2);
        let mut rng = init::rng(1);
        let mut store = ParamStore::new();
        let model = GnnModel::new(GnnVariant::MfCgnn, 16, 4, &mut store, &mut rng);
        let g = build_graph(&mats[0], &GnnVariant::MfCgnn.graph_options());
        let a = model.predict(&store, &g, Some(&[0.0, 0.0, 0.0, 0.0]));
        let b = model.predict(&store, &g, Some(&[1.0, -1.0, 2.0, 0.5]));
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic]
    fn missing_fusion_panics() {
        let mats = MaterialGenerator::new(6).generate(1);
        let mut rng = init::rng(2);
        let mut store = ParamStore::new();
        let model = GnnModel::new(GnnVariant::Cgcnn, 8, 4, &mut store, &mut rng);
        let g = build_graph(&mats[0], &GnnVariant::Cgcnn.graph_options());
        let _ = model.predict(&store, &g, None);
    }

    #[test]
    fn gradient_flows_to_species_embedding() {
        let mats = MaterialGenerator::new(7).generate(1);
        let mut rng = init::rng(3);
        let mut store = ParamStore::new();
        let model = GnnModel::new(GnnVariant::MfCgnn, 8, 0, &mut store, &mut rng);
        let g = build_graph(&mats[0], &GnnVariant::MfCgnn.graph_options());
        let mut tape = Tape::new();
        let y = model.predict_var(&mut tape, &store, &g, None);
        let target = Tensor::from_vec(&[1, 1], vec![g.target]);
        let loss = tape.mse(y, &target);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut store);
        assert!(store.grad_norm() > 0.0);
        assert!(store.grad(model.species_emb).sq_norm() > 0.0);
    }
}
