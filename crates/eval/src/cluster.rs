//! k-means clustering and cluster-structure metrics for the Fig. 17
//! embedding-space comparison.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// k-means result.
#[derive(Clone, Debug)]
pub struct KMeans {
    /// Cluster centres.
    pub centers: Vec<Vec<f32>>,
    /// Per-point assignment.
    pub assignment: Vec<usize>,
    /// Sum of squared distances to assigned centres.
    pub inertia: f64,
}

fn sq_dist(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (*x as f64 - *y as f64).powi(2))
        .sum()
}

/// Lloyd's algorithm with k-means++-style greedy seeding.
pub fn kmeans(data: &[Vec<f32>], k: usize, seed: u64, iters: usize) -> KMeans {
    let n = data.len();
    assert!(k >= 1 && n >= k, "need at least k points");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // seeding: first centre random, then farthest-distance-weighted
    let mut centers: Vec<Vec<f32>> = vec![data[rng.gen_range(0..n)].clone()];
    while centers.len() < k {
        let dists: Vec<f64> = data
            .iter()
            .map(|p| {
                centers
                    .iter()
                    .map(|c| sq_dist(p, c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let total: f64 = dists.iter().sum();
        if total <= 0.0 {
            centers.push(data[rng.gen_range(0..n)].clone());
            continue;
        }
        let mut r = rng.gen::<f64>() * total;
        let mut pick = n - 1;
        for (i, d) in dists.iter().enumerate() {
            r -= d;
            if r <= 0.0 {
                pick = i;
                break;
            }
        }
        centers.push(data[pick].clone());
    }

    let d = data[0].len();
    let mut assignment = vec![0usize; n];
    for _ in 0..iters {
        let mut changed = false;
        for (i, p) in data.iter().enumerate() {
            let best = (0..k)
                .min_by(|&a, &b| {
                    sq_dist(p, &centers[a])
                        .partial_cmp(&sq_dist(p, &centers[b]))
                        .unwrap()
                })
                .unwrap();
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        let mut sums = vec![vec![0.0f64; d]; k];
        let mut counts = vec![0usize; k];
        for (i, p) in data.iter().enumerate() {
            counts[assignment[i]] += 1;
            for (s, &v) in sums[assignment[i]].iter_mut().zip(p.iter()) {
                *s += v as f64;
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                centers[c] = sums[c]
                    .iter()
                    .map(|&s| (s / counts[c] as f64) as f32)
                    .collect();
            }
        }
        if !changed {
            break;
        }
    }
    let inertia = data
        .iter()
        .enumerate()
        .map(|(i, p)| sq_dist(p, &centers[assignment[i]]))
        .sum();
    KMeans {
        centers,
        assignment,
        inertia,
    }
}

/// Mean silhouette coefficient of a clustering (−1..1, higher = better
/// separated).
pub fn silhouette(data: &[Vec<f32>], km: &KMeans) -> f64 {
    let n = data.len();
    let k = km.centers.len();
    if k < 2 || n < 3 {
        return 0.0;
    }
    let mut total = 0.0f64;
    let mut counted = 0usize;
    for i in 0..n {
        let own = km.assignment[i];
        let mut intra = (0.0f64, 0usize);
        let mut inter_best = f64::INFINITY;
        for c in 0..k {
            let mut acc = (0.0f64, 0usize);
            for j in 0..n {
                if j == i || km.assignment[j] != c {
                    continue;
                }
                acc = (acc.0 + sq_dist(&data[i], &data[j]).sqrt(), acc.1 + 1);
            }
            if c == own {
                intra = acc;
            } else if acc.1 > 0 {
                inter_best = inter_best.min(acc.0 / acc.1 as f64);
            }
        }
        if intra.1 == 0 || !inter_best.is_finite() {
            continue;
        }
        let a = intra.0 / intra.1 as f64;
        let s = (inter_best - a) / a.max(inter_best);
        total += s;
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

/// Pick the k in `2..=k_max` with the best silhouette; returns (k, score).
pub fn choose_k(data: &[Vec<f32>], k_max: usize, seed: u64) -> (usize, f64) {
    let mut best = (2usize, f64::NEG_INFINITY);
    for k in 2..=k_max.min(data.len().saturating_sub(1)).max(2) {
        let km = kmeans(data, k, seed, 50);
        let s = silhouette(data, &km);
        if s > best.1 {
            best = (k, s);
        }
    }
    best
}

/// Cluster-purity of a clustering against ground-truth labels — how well
/// the embedding clusters align with band-gap classes.
pub fn purity(km: &KMeans, labels: &[usize]) -> f64 {
    assert_eq!(km.assignment.len(), labels.len());
    let k = km.centers.len();
    let n = labels.len();
    if n == 0 {
        return 0.0;
    }
    let n_labels = labels.iter().copied().max().unwrap_or(0) + 1;
    let mut majority = 0usize;
    for c in 0..k {
        let mut counts = vec![0usize; n_labels];
        for i in 0..n {
            if km.assignment[i] == c {
                counts[labels[i]] += 1;
            }
        }
        majority += counts.into_iter().max().unwrap_or(0);
    }
    majority as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(k: usize, per: usize, sep: f32) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for c in 0..k {
            for i in 0..per {
                let jx = ((c * per + i) as f32 * 0.631).sin() * 0.3;
                let jy = ((c * per + i) as f32 * 0.417).cos() * 0.3;
                data.push(vec![c as f32 * sep + jx, jy]);
                labels.push(c);
            }
        }
        (data, labels)
    }

    #[test]
    fn kmeans_recovers_separated_blobs() {
        let (data, labels) = blobs(3, 20, 10.0);
        let km = kmeans(&data, 3, 1, 100);
        assert!(
            purity(&km, &labels) > 0.95,
            "purity {}",
            purity(&km, &labels)
        );
        assert!(km.inertia < 60.0 * 0.5, "inertia {}", km.inertia);
    }

    #[test]
    fn silhouette_prefers_true_k() {
        let (data, _) = blobs(3, 15, 8.0);
        let (k, s) = choose_k(&data, 6, 2);
        assert_eq!(k, 3, "chose k = {k} (score {s})");
        assert!(s > 0.5);
    }

    #[test]
    fn single_blob_has_low_silhouette_at_any_k() {
        let (data, _) = blobs(1, 40, 0.0);
        let (_, s) = choose_k(&data, 5, 3);
        assert!(s < 0.7, "one blob should not split cleanly: {s}");
    }

    #[test]
    fn kmeans_deterministic_per_seed() {
        let (data, _) = blobs(2, 10, 5.0);
        let a = kmeans(&data, 2, 7, 50);
        let b = kmeans(&data, 2, 7, 50);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn purity_bounds() {
        let (data, labels) = blobs(2, 10, 6.0);
        let km = kmeans(&data, 2, 1, 50);
        let p = purity(&km, &labels);
        assert!((0.5..=1.0).contains(&p));
    }

    #[test]
    fn inertia_decreases_with_k() {
        let (data, _) = blobs(4, 10, 4.0);
        let i2 = kmeans(&data, 2, 1, 60).inertia;
        let i4 = kmeans(&data, 4, 1, 60).inertia;
        assert!(i4 < i2);
    }
}
