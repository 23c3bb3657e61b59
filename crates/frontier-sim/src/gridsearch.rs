//! Architecture grid search under the paper's constraints, Eqs. (1)–(5),
//! regenerating the Fig. 4 heatmap and the A–H architecture marking.

use crate::kernels::{FlashVersion, KernelModel};
use matgpt_model::count::total_params;
use matgpt_model::{ArchKind, GptConfig};

/// The paper's architecture-search constraints.
#[derive(Clone, Copy, Debug)]
pub struct Constraints {
    /// Tensor-parallel degree `TP`.
    pub tp: usize,
    /// Pipeline-parallel degree `PP`.
    pub pp: usize,
    /// Data-parallel degree `DP`.
    pub dp: usize,
    /// Device-count granularity (8 GCDs per Frontier node).
    pub device_multiple: usize,
}

impl Default for Constraints {
    fn default() -> Self {
        Self {
            tp: 1,
            pp: 1,
            dp: 8,
            device_multiple: 8,
        }
    }
}

impl Constraints {
    /// Check Eqs. (1)–(5) for a candidate `(N_h, N_l, N_a)`.
    pub fn satisfied(&self, hidden: usize, layers: usize, heads: usize) -> bool {
        hidden.is_multiple_of(heads)                                   // (1) N_h % N_a == 0
            && hidden.is_multiple_of(self.tp)                          // (2) N_h % TP == 0
            && layers.is_multiple_of(self.pp)                          // (3) N_l % PP == 0
            && heads.is_multiple_of(self.tp)                           // (4) N_a % TP == 0
            && (self.tp * self.pp * self.dp).is_multiple_of(self.device_multiple)
        // (5)
    }
}

/// One evaluated grid cell.
#[derive(Clone, Debug)]
pub struct GridCell {
    /// Layers.
    pub layers: usize,
    /// Hidden size.
    pub hidden: usize,
    /// Heads (the paper couples heads to layers as in Table II).
    pub heads: usize,
    /// Head dimension.
    pub head_dim: usize,
    /// Total parameters.
    pub params: usize,
    /// Throughput without flash attention (TFLOPS/GCD).
    pub tflops_base: f64,
    /// Throughput with flash v1 (equals base when ineligible).
    pub tflops_v1: f64,
    /// Throughput with flash v2.
    pub tflops_v2: f64,
    /// Whether the head dim is a multiple of 8 (the A–H marking).
    pub head_mod8: bool,
}

/// Run the ~1B grid search of Fig. 4: for each layer count, hidden sizes
/// near the 1B-parameter iso-line, heads tied to layers (as in Table II),
/// filtered by the constraints.
pub fn one_b_grid(vocab: usize, seq: usize, km: &KernelModel, cons: &Constraints) -> Vec<GridCell> {
    let layer_options = [16usize, 20, 24, 28, 32];
    let mut cells = Vec::new();
    for &layers in &layer_options {
        let heads = layers; // Table II couples N_a = N_l
                            // scan hidden sizes (multiples of the head count, Eq. 1) across the
                            // band the paper's Fig. 4 heatmap covers
        let lo = 1536usize.div_ceil(heads) * heads;
        let mut hidden = lo;
        while hidden <= 2880 {
            if !cons.satisfied(hidden, layers, heads) {
                hidden += heads;
                continue;
            }
            let cfg = GptConfig {
                hidden,
                layers,
                heads,
                max_seq: seq,
                ..GptConfig::paper_1_7b(ArchKind::NeoX, vocab)
            };
            let params = total_params(&cfg);
            // keep the "around 1B" band (the paper's winner, 24×2304, sits
            // at 1.77B with the 52K vocabulary)
            if !(8e8..2.0e9).contains(&(params as f64)) {
                hidden += heads;
                continue;
            }
            let head_dim = hidden / heads;
            cells.push(GridCell {
                layers,
                hidden,
                heads,
                head_dim,
                params,
                tflops_base: km.achieved_tflops(&cfg, 16, seq, FlashVersion::None),
                tflops_v1: km.achieved_tflops(&cfg, 16, seq, FlashVersion::V1),
                tflops_v2: km.achieved_tflops(&cfg, 16, seq, FlashVersion::V2),
                head_mod8: head_dim % 8 == 0,
            });
            hidden += heads;
        }
    }
    cells
}

/// The best cell by base throughput.
pub fn best_cell(cells: &[GridCell]) -> Option<&GridCell> {
    cells
        .iter()
        .max_by(|a, b| a.tflops_base.partial_cmp(&b.tflops_base).unwrap())
}

/// Extrapolate the grid-search winner to a larger budget, as the paper
/// does for the 6.7B model: keep head_dim a "nice" multiple of 8 (128) and
/// scale layers/hidden together.
pub fn extrapolate_to_6_7b(arch: ArchKind, vocab: usize) -> GptConfig {
    GptConfig::paper_6_7b(arch, vocab)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraints_match_paper_equations() {
        let c = Constraints {
            tp: 2,
            pp: 2,
            dp: 4,
            device_multiple: 8,
        };
        // 2304 % 24 == 0, 2304 % 2 == 0, 24 % 2 == 0, 24 % 2 == 0, 16 % 8 == 0
        assert!(c.satisfied(2304, 24, 24));
        // violates Eq. (1)
        assert!(!c.satisfied(2300, 24, 24));
        // violates Eq. (3)
        assert!(!c.satisfied(2304, 23, 24));
        // violates Eq. (4)
        assert!(!c.satisfied(2304, 24, 27));
        // violates Eq. (5)
        let c2 = Constraints {
            tp: 1,
            pp: 1,
            dp: 3,
            device_multiple: 8,
        };
        assert!(!c2.satisfied(2304, 24, 24));
    }

    #[test]
    fn grid_covers_multiple_layer_counts_and_param_band() {
        let cells = one_b_grid(
            52_000,
            2048,
            &KernelModel::default(),
            &Constraints::default(),
        );
        assert!(cells.len() >= 15, "grid size {}", cells.len());
        let layer_set: std::collections::BTreeSet<usize> = cells.iter().map(|c| c.layers).collect();
        assert!(layer_set.len() >= 4);
        for c in &cells {
            assert!(
                (8e8..2.0e9).contains(&(c.params as f64)),
                "{} params {}",
                c.hidden,
                c.params
            );
        }
    }

    #[test]
    fn winner_is_24_layers_2304_hidden() {
        // Paper Fig. 4: the best case corresponds to 24 layers with a
        // hidden size of 2304.
        let cells = one_b_grid(
            52_000,
            2048,
            &KernelModel::default(),
            &Constraints::default(),
        );
        let best = best_cell(&cells).unwrap();
        assert_eq!((best.layers, best.hidden), (24, 2304), "winner {best:?}");
    }

    #[test]
    fn mod8_cells_dominate_top_of_each_layer_row() {
        // "We marked all the architectures with head dimensions satisfying
        // this criteria, and indeed they are among top performers for each
        // layer size."
        let cells = one_b_grid(
            52_000,
            2048,
            &KernelModel::default(),
            &Constraints::default(),
        );
        for layers in [16usize, 24, 32] {
            let row: Vec<&GridCell> = cells.iter().filter(|c| c.layers == layers).collect();
            if row.is_empty() {
                continue;
            }
            let best = row
                .iter()
                .max_by(|a, b| a.tflops_base.partial_cmp(&b.tflops_base).unwrap())
                .unwrap();
            assert!(best.head_mod8, "layer row {layers} best {best:?}");
        }
    }

    #[test]
    fn flash_only_boosts_eligible_cells() {
        let cells = one_b_grid(
            52_000,
            2048,
            &KernelModel::default(),
            &Constraints::default(),
        );
        let mut saw_ineligible = false;
        for c in &cells {
            if FlashVersion::V1.eligible(c.head_dim) {
                assert!(c.tflops_v1 > c.tflops_base, "{c:?}");
                assert!(c.tflops_v2 > c.tflops_v1, "{c:?}");
            } else {
                // v1 falls back to the naive kernel
                assert!((c.tflops_v1 - c.tflops_base).abs() < 1e-9, "{c:?}");
            }
            if FlashVersion::V2.eligible(c.head_dim) {
                assert!(c.tflops_v2 > c.tflops_base, "{c:?}");
            } else {
                saw_ineligible = true;
                assert!((c.tflops_v2 - c.tflops_base).abs() < 1e-9, "{c:?}");
            }
        }
        assert!(saw_ineligible, "grid should include non-mod-8 head dims");
    }
}
