//! Embedding-geometry analysis (paper Fig. 16): pairwise Euclidean
//! distances and cosine similarities, with histogram/density summaries.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Euclidean distance between two vectors.
pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f32>()
        .sqrt()
}

/// Cosine similarity between two vectors (0 when either is zero).
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// Sample up to `max_pairs` distinct index pairs (deterministic).
fn sample_pairs(n: usize, max_pairs: usize, seed: u64) -> Vec<(usize, usize)> {
    let total = n * (n - 1) / 2;
    if total <= max_pairs {
        let mut out = Vec::with_capacity(total);
        for i in 0..n {
            for j in i + 1..n {
                out.push((i, j));
            }
        }
        return out;
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..max_pairs)
        .map(|_| {
            let i = rng.gen_range(0..n);
            let mut j = rng.gen_range(0..n);
            while j == i {
                j = rng.gen_range(0..n);
            }
            (i.min(j), i.max(j))
        })
        .collect()
}

/// Pairwise Euclidean distances over (sampled) pairs.
pub fn pairwise_euclidean(x: &[Vec<f32>], max_pairs: usize) -> Vec<f32> {
    sample_pairs(x.len(), max_pairs, 11)
        .into_iter()
        .map(|(i, j)| euclidean(&x[i], &x[j]))
        .collect()
}

/// Pairwise cosine similarities over (sampled) pairs.
pub fn pairwise_cosine(x: &[Vec<f32>], max_pairs: usize) -> Vec<f32> {
    sample_pairs(x.len(), max_pairs, 13)
        .into_iter()
        .map(|(i, j)| cosine(&x[i], &x[j]))
        .collect()
}

/// A fixed-bin histogram with density normalisation.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// Left edge of the first bin.
    pub lo: f32,
    /// Right edge of the last bin.
    pub hi: f32,
    /// Per-bin densities (integrate to 1).
    pub density: Vec<f64>,
    /// Raw counts.
    pub counts: Vec<usize>,
}

impl Histogram {
    /// Build from values with `bins` bins over `[lo, hi]`.
    pub fn new(values: &[f32], bins: usize, lo: f32, hi: f32) -> Self {
        assert!(bins > 0 && hi > lo);
        let mut counts = vec![0usize; bins];
        for &v in values {
            if v.is_finite() && v >= lo && v <= hi {
                let mut b = ((v - lo) / (hi - lo) * bins as f32) as usize;
                if b >= bins {
                    b = bins - 1;
                }
                counts[b] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        let width = (hi - lo) as f64 / bins as f64;
        let density = counts
            .iter()
            .map(|&c| {
                if total == 0 {
                    0.0
                } else {
                    c as f64 / total as f64 / width
                }
            })
            .collect();
        Self {
            lo,
            hi,
            density,
            counts,
        }
    }

    /// Bin centre of index `i`.
    pub fn center(&self, i: usize) -> f32 {
        let width = (self.hi - self.lo) / self.counts.len() as f32;
        self.lo + width * (i as f32 + 0.5)
    }

    /// Index of the densest bin.
    pub fn mode_bin(&self) -> usize {
        self.density
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// Mean and standard deviation.
pub fn mean_std(values: &[f32]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().map(|&v| v as f64).sum::<f64>() / n;
    let var = values
        .iter()
        .map(|&v| (v as f64 - mean) * (v as f64 - mean))
        .sum::<f64>()
        / n;
    (mean, var.sqrt())
}

/// Geometry summary of one embedding set (one row of Fig. 16's legend).
#[derive(Clone, Debug)]
pub struct GeometrySummary {
    /// Model label.
    pub model: String,
    /// Mean pairwise Euclidean distance.
    pub mean_distance: f64,
    /// Std of pairwise distance.
    pub std_distance: f64,
    /// Mean pairwise cosine similarity.
    pub mean_cosine: f64,
    /// Std of pairwise cosine.
    pub std_cosine: f64,
}

/// Summarise the geometry of an embedding set.
pub fn summarize(model: &str, embeddings: &[Vec<f32>], max_pairs: usize) -> GeometrySummary {
    let d = pairwise_euclidean(embeddings, max_pairs);
    let c = pairwise_cosine(embeddings, max_pairs);
    let (md, sd) = mean_std(&d);
    let (mc, sc) = mean_std(&c);
    GeometrySummary {
        model: model.to_string(),
        mean_distance: md,
        std_distance: sd,
        mean_cosine: mc,
        std_cosine: sc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_and_cosine_basics() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn pairwise_counts() {
        let x = vec![vec![0.0f32], vec![1.0], vec![2.0], vec![3.0]];
        let d = pairwise_euclidean(&x, 1000);
        assert_eq!(d.len(), 6); // C(4,2)
        let d = pairwise_euclidean(&x, 3);
        assert_eq!(d.len(), 3); // sampled
    }

    #[test]
    fn histogram_density_integrates_to_one() {
        let vals: Vec<f32> = (0..1000).map(|i| (i % 100) as f32 / 10.0).collect();
        let h = Histogram::new(&vals, 20, 0.0, 10.0);
        let width = 0.5f64;
        let integral: f64 = h.density.iter().map(|d| d * width).sum();
        assert!((integral - 1.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_mode_finds_peak() {
        let mut vals = vec![5.0f32; 100];
        vals.extend(vec![1.0f32; 10]);
        let h = Histogram::new(&vals, 10, 0.0, 10.0);
        assert_eq!(h.mode_bin(), 5);
        assert!((h.center(5) - 5.5).abs() < 1e-6);
    }

    #[test]
    fn tight_cluster_has_smaller_distances_and_higher_cosines() {
        // the Fig. 16 phenomenon in miniature
        let tight: Vec<Vec<f32>> = (0..20).map(|i| vec![1.0 + 0.01 * i as f32, 1.0]).collect();
        let spread: Vec<Vec<f32>> = (0..20)
            .map(|i| vec![(i as f32 * 0.7).sin() * 5.0, (i as f32 * 0.3).cos() * 5.0])
            .collect();
        let st = summarize("tight", &tight, 500);
        let sp = summarize("spread", &spread, 500);
        assert!(st.mean_distance < sp.mean_distance);
        assert!(st.mean_cosine > sp.mean_cosine);
    }

    #[test]
    fn mean_std_empty_and_constant() {
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        let (m, s) = mean_std(&[2.0, 2.0, 2.0]);
        assert_eq!(m, 2.0);
        assert_eq!(s, 0.0);
    }
}
