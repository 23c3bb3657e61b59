//! The synthetic materials universe.
//!
//! Every downstream experiment shares this generative model. A material's
//! band gap decomposes as
//!
//! ```text
//! gap = f(structure) + g(composition) + noise
//! ```
//!
//! where `f` depends on bond lengths (visible to a structure-fed GNN) and
//! `g` depends on composition chemistry (electronegativity spread and
//! metallic fraction — the information the text corpus *writes about* and
//! an LLM embedding can therefore capture). This is the causal mechanism
//! behind the paper's Table V: GNN + LLM-embedding fusion beats
//! structure-only GNNs because the embedding carries `g`.

use crate::elements::ELEMENTS;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Band-gap category, as the paper describes ("materials in nature can be
/// classified by band gap into a few categories").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BandGapClass {
    /// Essentially zero gap.
    Conductor,
    /// 0.1 – 3 eV.
    Semiconductor,
    /// > 3 eV.
    Insulator,
}

impl BandGapClass {
    /// Classify a gap value in eV.
    pub fn from_gap(gap: f32) -> Self {
        if gap < 0.1 {
            BandGapClass::Conductor
        } else if gap < 3.0 {
            BandGapClass::Semiconductor
        } else {
            BandGapClass::Insulator
        }
    }

    /// Lower-case English name used in generated text.
    pub fn name(&self) -> &'static str {
        match self {
            BandGapClass::Conductor => "conductor",
            BandGapClass::Semiconductor => "semiconductor",
            BandGapClass::Insulator => "insulator",
        }
    }
}

/// One atomic site in the unit cell.
#[derive(Clone, Debug)]
pub struct Site {
    /// Index into [`Material::composition`].
    pub species: usize,
    /// Fractional coordinates in the unit cell.
    pub frac: [f32; 3],
}

/// A synthetic crystalline material.
#[derive(Clone, Debug)]
pub struct Material {
    /// Canonical chemical formula, e.g. `BaTiO3`.
    pub formula: String,
    /// (element index into [`ELEMENTS`], count in formula unit).
    pub composition: Vec<(usize, u8)>,
    /// Cubic lattice parameter in Å.
    pub lattice_a: f32,
    /// Atomic sites.
    pub sites: Vec<Site>,
    /// Ground-truth band gap in eV.
    pub band_gap: f32,
    /// Ground-truth formation energy in eV/atom (secondary property).
    pub formation_energy: f32,
    /// Band-gap class.
    pub class: BandGapClass,
}

impl Material {
    /// Cartesian coordinates of a site in Å.
    pub fn cartesian(&self, site: usize) -> [f32; 3] {
        let f = self.sites[site].frac;
        [
            f[0] * self.lattice_a,
            f[1] * self.lattice_a,
            f[2] * self.lattice_a,
        ]
    }

    /// Minimum-image distance between two sites in Å.
    pub fn distance(&self, i: usize, j: usize) -> f32 {
        let a = self.sites[i].frac;
        let b = self.sites[j].frac;
        let mut d2 = 0.0f32;
        for k in 0..3 {
            let mut df = (a[k] - b[k]).abs();
            if df > 0.5 {
                df = 1.0 - df;
            }
            let dx = df * self.lattice_a;
            d2 += dx * dx;
        }
        d2.sqrt()
    }

    /// Mean nearest-neighbour bond length in Å (the structure signal).
    pub fn mean_bond_length(&self) -> f32 {
        let n = self.sites.len();
        if n < 2 {
            return self.lattice_a;
        }
        let mut total = 0.0f32;
        for i in 0..n {
            let mut best = f32::INFINITY;
            for j in 0..n {
                if i != j {
                    best = best.min(self.distance(i, j));
                }
            }
            total += best;
        }
        total / n as f32
    }

    /// Composition-weighted electronegativity spread (ionicity proxy).
    pub fn ionicity(&self) -> f32 {
        let chis: Vec<(f32, f32)> = self
            .composition
            .iter()
            .map(|&(e, c)| (ELEMENTS[e].electronegativity, c as f32))
            .collect();
        let total: f32 = chis.iter().map(|&(_, c)| c).sum();
        let mean: f32 = chis.iter().map(|&(x, c)| x * c).sum::<f32>() / total;
        (chis
            .iter()
            .map(|&(x, c)| c * (x - mean) * (x - mean))
            .sum::<f32>()
            / total)
            .sqrt()
    }

    /// Composition-weighted metallic fraction.
    pub fn metallic_fraction(&self) -> f32 {
        let total: f32 = self.composition.iter().map(|&(_, c)| c as f32).sum();
        self.composition
            .iter()
            .filter(|&&(e, _)| ELEMENTS[e].metallic)
            .map(|&(_, c)| c as f32)
            .sum::<f32>()
            / total
    }
}

/// Coefficients of the ground-truth band-gap model. Exposed so tests and
/// DESIGN.md can reference the exact construction.
pub mod gap_model {
    /// Weight of the structure term (bond-length driven).
    pub const STRUCTURE_W: f32 = 2.0;
    /// Bond-length offset (Å).
    pub const BOND_REF: f32 = 2.1;
    /// Weight of the ionicity (composition) term.
    pub const IONICITY_W: f32 = 2.4;
    /// Weight of the non-metallic-fraction (composition) term.
    pub const NONMETAL_W: f32 = 1.6;
    /// Global offset.
    pub const OFFSET: f32 = -0.9;
    /// Gaussian noise sigma (eV).
    pub const NOISE: f32 = 0.15;

    /// Structure component of the gap.
    pub fn f_structure(mean_bond: f32) -> f32 {
        STRUCTURE_W * (mean_bond - BOND_REF)
    }

    /// Composition component of the gap.
    pub fn g_composition(ionicity: f32, metallic_fraction: f32) -> f32 {
        IONICITY_W * ionicity + NONMETAL_W * (1.0 - metallic_fraction) + OFFSET
    }
}

/// Deterministic generator of synthetic materials.
pub struct MaterialGenerator {
    rng: ChaCha8Rng,
}

impl MaterialGenerator {
    /// New generator with a fixed seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Generate `n` materials.
    pub fn generate(&mut self, n: usize) -> Vec<Material> {
        (0..n).map(|_| self.one()).collect()
    }

    fn one(&mut self) -> Material {
        let rng = &mut self.rng;
        // composition: 2-4 distinct elements with counts 1-3
        let k = rng.gen_range(2..=4usize);
        let mut picked: Vec<usize> = Vec::new();
        while picked.len() < k {
            let e = rng.gen_range(0..ELEMENTS.len());
            if !picked.contains(&e) {
                picked.push(e);
            }
        }
        picked.sort_unstable(); // canonical element order by table position
        let composition: Vec<(usize, u8)> = picked
            .into_iter()
            .map(|e| (e, rng.gen_range(1..=3u8)))
            .collect();
        let formula = composition
            .iter()
            .map(|&(e, c)| {
                if c == 1 {
                    ELEMENTS[e].symbol.to_string()
                } else {
                    format!("{}{}", ELEMENTS[e].symbol, c)
                }
            })
            .collect::<String>();

        // sites: one per formula-unit atom on a jittered grid
        let n_atoms: usize = composition.iter().map(|&(_, c)| c as usize).sum();
        let grid = (n_atoms as f32).cbrt().ceil() as usize;
        let lattice_a = rng.gen_range(3.4..6.8f32);
        let mut sites = Vec::with_capacity(n_atoms);
        let mut cell = 0usize;
        for (sp, &(_, count)) in composition.iter().enumerate() {
            for _ in 0..count {
                let gx = cell % grid;
                let gy = (cell / grid) % grid;
                let gz = cell / (grid * grid);
                cell += 1;
                let jitter = 0.25 / grid as f32;
                let frac = [
                    (gx as f32 + 0.5) / grid as f32 + rng.gen_range(-jitter..jitter),
                    (gy as f32 + 0.5) / grid as f32 + rng.gen_range(-jitter..jitter),
                    (gz as f32 + 0.5) / grid as f32 + rng.gen_range(-jitter..jitter),
                ];
                sites.push(Site { species: sp, frac });
            }
        }

        let mut m = Material {
            formula,
            composition,
            lattice_a,
            sites,
            band_gap: 0.0,
            formation_energy: 0.0,
            class: BandGapClass::Conductor,
        };
        let noise: f32 = {
            // Box-Muller
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
        };
        let raw = gap_model::f_structure(m.mean_bond_length())
            + gap_model::g_composition(m.ionicity(), m.metallic_fraction())
            + gap_model::NOISE * noise;
        m.band_gap = raw.clamp(0.0, 9.0);
        m.class = BandGapClass::from_gap(m.band_gap);
        // formation energy: a smoother function of the same physics with
        // far less noise — the paper notes it is easier to predict than
        // the band gap
        m.formation_energy = -(1.5 * m.ionicity()
            + 0.8 * (1.0 - m.metallic_fraction())
            + 0.3 * (m.mean_bond_length() - 2.1))
            + 0.02 * noise;
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = MaterialGenerator::new(7).generate(5);
        let b = MaterialGenerator::new(7).generate(5);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.formula, y.formula);
            assert_eq!(x.band_gap, y.band_gap);
        }
    }

    #[test]
    fn gaps_cover_all_classes() {
        let mats = MaterialGenerator::new(1).generate(500);
        let mut counts = [0usize; 3];
        for m in &mats {
            match m.class {
                BandGapClass::Conductor => counts[0] += 1,
                BandGapClass::Semiconductor => counts[1] += 1,
                BandGapClass::Insulator => counts[2] += 1,
            }
        }
        assert!(counts.iter().all(|&c| c > 10), "class counts {counts:?}");
    }

    #[test]
    fn gap_is_bounded_and_finite() {
        for m in MaterialGenerator::new(2).generate(200) {
            assert!(m.band_gap.is_finite());
            assert!((0.0..=9.0).contains(&m.band_gap), "{}", m.band_gap);
        }
    }

    #[test]
    fn class_thresholds() {
        assert_eq!(BandGapClass::from_gap(0.0), BandGapClass::Conductor);
        assert_eq!(BandGapClass::from_gap(1.5), BandGapClass::Semiconductor);
        assert_eq!(BandGapClass::from_gap(5.0), BandGapClass::Insulator);
    }

    #[test]
    fn formula_is_canonical_and_nonempty() {
        for m in MaterialGenerator::new(3).generate(50) {
            assert!(!m.formula.is_empty());
            assert!(m.formula.chars().next().unwrap().is_ascii_uppercase());
            // element order follows the table, so regenerating from
            // composition reproduces the formula
            let rebuilt: String = m
                .composition
                .iter()
                .map(|&(e, c)| {
                    if c == 1 {
                        ELEMENTS[e].symbol.to_string()
                    } else {
                        format!("{}{}", ELEMENTS[e].symbol, c)
                    }
                })
                .collect();
            assert_eq!(rebuilt, m.formula);
        }
    }

    #[test]
    fn minimum_image_distance_is_symmetric_and_bounded() {
        let mats = MaterialGenerator::new(4).generate(10);
        for m in &mats {
            let n = m.sites.len();
            for i in 0..n {
                for j in 0..n {
                    let dij = m.distance(i, j);
                    let dji = m.distance(j, i);
                    assert!((dij - dji).abs() < 1e-6);
                    // max minimum-image distance is a*sqrt(3)/2
                    assert!(dij <= m.lattice_a * 0.9);
                }
            }
        }
    }

    #[test]
    fn composition_signal_moves_the_gap() {
        // ionic, non-metallic composition must out-gap a fully metallic one
        let g_ionic = gap_model::g_composition(1.2, 0.2);
        let g_metal = gap_model::g_composition(0.1, 1.0);
        assert!(g_ionic > g_metal + 1.0);
    }

    #[test]
    fn structure_signal_moves_the_gap() {
        assert!(gap_model::f_structure(2.8) > gap_model::f_structure(1.8) + 1.0);
    }
}
