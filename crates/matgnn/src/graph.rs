//! Crystal graphs built from the synthetic materials universe.
//!
//! Nodes are atomic sites; edges connect each site to its `k` nearest
//! neighbours under the minimum-image convention. Edge features are
//! Gaussian-expanded distances (the CGCNN recipe); the ALIGNN-style
//! variant additionally carries bond-angle statistics from the line graph.

use matgpt_corpus::{Material, ELEMENTS};

/// A materials graph ready for message passing.
#[derive(Clone, Debug)]
pub struct CrystalGraph {
    /// Element-table index per node.
    pub species: Vec<u32>,
    /// Fixed physical descriptors per node (electronegativity, radius,
    /// valence, mass, metallic) — used by descriptor-fed variants.
    pub descriptors: Vec<Vec<f32>>,
    /// Directed edges (src, dst); both directions present.
    pub edges: Vec<(u32, u32)>,
    /// Per-edge feature vectors.
    pub edge_feats: Vec<Vec<f32>>,
    /// Regression target (band gap, eV).
    pub target: f32,
    /// The formula (for joining with LLM embeddings).
    pub formula: String,
}

/// Graph-construction options.
#[derive(Clone, Copy, Debug)]
pub struct GraphOptions {
    /// Neighbours per node.
    pub k_neighbors: usize,
    /// Gaussian distance-expansion basis size.
    pub n_basis: usize,
    /// Max distance covered by the basis (Å).
    pub r_max: f32,
    /// Whether to append line-graph angle statistics to edge features.
    pub angles: bool,
}

impl Default for GraphOptions {
    fn default() -> Self {
        Self {
            k_neighbors: 4,
            n_basis: 8,
            r_max: 6.0,
            angles: false,
        }
    }
}

/// Gaussian radial basis expansion of a distance.
pub fn expand_distance(d: f32, n_basis: usize, r_max: f32) -> Vec<f32> {
    let sigma = r_max / n_basis as f32;
    (0..n_basis)
        .map(|i| {
            let mu = r_max * (i as f32 + 0.5) / n_basis as f32;
            (-(d - mu) * (d - mu) / (2.0 * sigma * sigma)).exp()
        })
        .collect()
}

/// Normalised physical descriptors for an element-table index.
pub fn element_descriptors(e: usize) -> Vec<f32> {
    let el = &ELEMENTS[e];
    vec![
        el.electronegativity / 4.0,
        el.radius / 2.2,
        el.valence as f32 / 12.0,
        el.mass / 210.0,
        if el.metallic { 1.0 } else { 0.0 },
    ]
}

/// Which material property the graph's regression target is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PropertyTarget {
    /// Band gap in eV (the paper's task).
    BandGap,
    /// Formation energy in eV/atom ("easier than band gap", per the paper).
    FormationEnergy,
}

impl PropertyTarget {
    /// Ground-truth value for a material.
    pub fn of(&self, m: &Material) -> f32 {
        match self {
            PropertyTarget::BandGap => m.band_gap,
            PropertyTarget::FormationEnergy => m.formation_energy,
        }
    }
}

/// Build a crystal graph with an explicit regression target.
pub fn build_graph_with_target(
    m: &Material,
    opts: &GraphOptions,
    target: PropertyTarget,
) -> CrystalGraph {
    let mut g = build_graph(m, opts);
    g.target = target.of(m);
    g
}

/// Build a crystal graph from a material (band-gap target).
pub fn build_graph(m: &Material, opts: &GraphOptions) -> CrystalGraph {
    let n = m.sites.len();
    let species: Vec<u32> = (0..n)
        .map(|i| m.composition[m.sites[i].species].0 as u32)
        .collect();
    let descriptors = species
        .iter()
        .map(|&e| element_descriptors(e as usize))
        .collect();

    // k-nearest-neighbour directed edges
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut dists: Vec<f32> = Vec::new();
    for i in 0..n {
        let mut nb: Vec<(f32, usize)> = (0..n)
            .filter(|&j| j != i)
            .map(|j| (m.distance(i, j), j))
            .collect();
        nb.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for &(d, j) in nb.iter().take(opts.k_neighbors) {
            edges.push((j as u32, i as u32)); // message flows src -> dst
            dists.push(d);
        }
    }

    // neighbour lists for angle statistics
    let mut edge_feats: Vec<Vec<f32>> = edges
        .iter()
        .zip(dists.iter())
        .map(|(_, &d)| expand_distance(d, opts.n_basis, opts.r_max))
        .collect();

    if opts.angles {
        // for edge (j -> i): mean and spread of cos(angle k-i-j) over the
        // other neighbours k of i — a cheap line-graph summary
        let cart: Vec<[f32; 3]> = (0..n).map(|i| m.cartesian(i)).collect();
        let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(src, dst) in &edges {
            neighbors[dst as usize].push(src as usize);
        }
        for (idx, &(src, dst)) in edges.iter().enumerate() {
            let i = dst as usize;
            let j = src as usize;
            let vij = sub(cart[j], cart[i]);
            let mut cosines = Vec::new();
            for &k in &neighbors[i] {
                if k == j {
                    continue;
                }
                let vik = sub(cart[k], cart[i]);
                cosines.push(cos_angle(vij, vik));
            }
            let (mean, spread) = if cosines.is_empty() {
                (0.0, 0.0)
            } else {
                let mean: f32 = cosines.iter().sum::<f32>() / cosines.len() as f32;
                let var: f32 = cosines.iter().map(|c| (c - mean) * (c - mean)).sum::<f32>()
                    / cosines.len() as f32;
                (mean, var.sqrt())
            };
            edge_feats[idx].push(mean);
            edge_feats[idx].push(spread);
        }
    }

    CrystalGraph {
        species,
        descriptors,
        edges,
        edge_feats,
        target: m.band_gap,
        formula: m.formula.clone(),
    }
}

fn sub(a: [f32; 3], b: [f32; 3]) -> [f32; 3] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

fn cos_angle(a: [f32; 3], b: [f32; 3]) -> f32 {
    let dot = a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
    let na = (a[0] * a[0] + a[1] * a[1] + a[2] * a[2]).sqrt();
    let nb = (b[0] * b[0] + b[1] * b[1] + b[2] * b[2]).sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na * nb)).clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgpt_corpus::MaterialGenerator;

    #[test]
    fn graphs_have_expected_shapes() {
        let mats = MaterialGenerator::new(1).generate(10);
        let opts = GraphOptions::default();
        for m in &mats {
            let g = build_graph(m, &opts);
            let n = m.sites.len();
            assert_eq!(g.species.len(), n);
            assert_eq!(g.descriptors.len(), n);
            let k = opts.k_neighbors.min(n - 1);
            assert_eq!(g.edges.len(), n * k);
            assert_eq!(g.edge_feats.len(), g.edges.len());
            assert!(g.edge_feats.iter().all(|f| f.len() == opts.n_basis));
            assert_eq!(g.target, m.band_gap);
        }
    }

    #[test]
    fn angle_features_extend_edges() {
        let mats = MaterialGenerator::new(2).generate(5);
        let opts = GraphOptions {
            angles: true,
            ..GraphOptions::default()
        };
        for m in &mats {
            let g = build_graph(m, &opts);
            assert!(g.edge_feats.iter().all(|f| f.len() == opts.n_basis + 2));
            for f in &g.edge_feats {
                let mean_cos = f[opts.n_basis];
                assert!((-1.0..=1.0).contains(&mean_cos));
            }
        }
    }

    #[test]
    fn distance_expansion_peaks_at_matching_basis() {
        let e = expand_distance(3.0, 8, 6.0);
        // basis centres at 0.375, 1.125, ..., 5.625; nearest to 3.0 is idx 3 (2.625) or 4 (3.375)
        let max_idx = e
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(max_idx == 3 || max_idx == 4, "{max_idx}");
        assert!(e.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn descriptors_are_normalised() {
        for e in 0..ELEMENTS.len() {
            let d = element_descriptors(e);
            assert_eq!(d.len(), 5);
            assert!(d.iter().all(|&v| (0.0..=1.2).contains(&v)), "{d:?}");
        }
    }

    #[test]
    fn property_target_switches_label() {
        let mats = MaterialGenerator::new(8).generate(5);
        let opts = GraphOptions::default();
        for m in &mats {
            let g_gap = build_graph_with_target(m, &opts, PropertyTarget::BandGap);
            let g_form = build_graph_with_target(m, &opts, PropertyTarget::FormationEnergy);
            assert_eq!(g_gap.target, m.band_gap);
            assert_eq!(g_form.target, m.formation_energy);
            assert_eq!(g_gap.edges, g_form.edges, "structure identical");
        }
    }

    #[test]
    fn edges_are_directed_into_dst() {
        let mats = MaterialGenerator::new(3).generate(3);
        let g = build_graph(&mats[0], &GraphOptions::default());
        let n = mats[0].sites.len() as u32;
        for &(s, d) in &g.edges {
            assert!(s < n && d < n);
            assert_ne!(s, d);
        }
    }
}
