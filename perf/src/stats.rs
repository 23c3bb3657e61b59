//! Order statistics for the benchmark's timings.
//!
//! An end-to-end timing is the 10th percentile of its units
//! ([`undisturbed`]); a per-layer timing is the median of its
//! repetitions ([`median`]). Never a minimum and never a mean over the
//! run. Rates are made from the quantile of the seconds, so a rate and a
//! time of the same samples sit at the same point of the distribution.
//! All quantiles are nearest-rank, so each reported value is a sample
//! that was observed.

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [u32; 4] = [99, 95, 90, 75];

/// Samples that must lie beyond a percentile before it is reported.
const TAIL_MIN_BEYOND: usize = 10;

/// The `q`-quantile (0 < q <= 1) of `samples` by nearest rank: the
/// `ceil(q * n)`-th smallest sample. `None` on an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median by nearest rank (the lower middle sample for even `n`);
/// 0.0 when there are no samples, so an absent timing reads as "not
/// measured" in the tables.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// Samples a 10th percentile needs: with twenty it is the second
/// smallest, with fewer it is the minimum.
const UNDISTURBED_MIN_SAMPLES: usize = 20;

/// What a unit costs when nothing else has the core: the 10th
/// percentile of twenty or more samples, the median of fewer.
///
/// The vCPUs share their cores with other guests. A neighbour can only
/// add to a unit's time, never take from it, and it comes and goes
/// within a run, so short units fall into an undisturbed mode and a
/// disturbed one and the median jumps between the two whenever the
/// disturbed share crosses a half. Over six back-to-back `l2_solo` runs
/// the median of `tpot_ms` read 0.074-0.097 (max / min 1.33), the lower
/// quartile 1.09 and the 10th percentile 1.055; a train step 1.11, 1.05
/// and 1.035; over ten runs the medians spread 21-57 % of their median
/// between the quartiles, more than any bound a benchmark may state.
/// The 10th percentile stays in the undisturbed mode until nine tenths
/// of a run are disturbed. What it cannot see is a cost the product
/// itself pays in fewer than nine units of ten; the traced run reports
/// medians and tails for that.
pub fn undisturbed(samples: &[f64]) -> f64 {
    if samples.len() >= UNDISTURBED_MIN_SAMPLES {
        quantile(samples, 0.1).unwrap_or(0.0)
    } else {
        median(samples)
    }
}

/// Distance between the quartiles as a share of the median.
pub fn iqr_share(samples: &[f64]) -> f64 {
    match (
        quantile(samples, 0.25),
        quantile(samples, 0.5),
        quantile(samples, 0.75),
    ) {
        (Some(lo), Some(mid), Some(hi)) if mid > 0.0 => (hi - lo) / mid,
        _ => 0.0,
    }
}

/// The value at percentile `pct`, or `None` when fewer than ten samples
/// lie beyond it — a p90 of 60 samples is the 6th largest and moves
/// with every outlier, so it is refused rather than reported.
pub fn percentile_if_supported(samples: &[f64], pct: u32) -> Option<f64> {
    assert!(pct > 0 && pct < 100, "percentile {pct} outside (0, 100)");
    // in hundredths of a sample, so 100 samples at p90 are exactly ten
    if samples.len() * (100 - pct as usize) < TAIL_MIN_BEYOND * 100 {
        return None;
    }
    quantile(samples, pct as f64 / 100.0)
}

/// The highest percentile with at least ten samples beyond it, and its
/// value.
pub fn tail(samples: &[f64]) -> Option<(u32, f64)> {
    TAIL_PERCENTILES
        .iter()
        .find_map(|&pct| percentile_if_supported(samples, pct).map(|v| (pct, v)))
}

/// What is reported for one timing: sample count, the undisturbed
/// value an end-to-end metric is made from, the median, and the tail.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub undisturbed: f64,
    pub median: f64,
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Self {
        Self {
            n: samples.len(),
            undisturbed: undisturbed(samples),
            median: median(samples),
            tail: tail(samples),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // shuffled deterministically so sorting is exercised
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn quantile_is_the_stated_order_statistic() {
        let s = ramp(101); // values 1..=101
        assert_eq!(quantile(&s, 0.5), Some(51.0));
        assert_eq!(quantile(&s, 0.25), Some(26.0));
        assert_eq!(quantile(&s, 1.0), Some(101.0));
        assert_eq!(quantile(&s, 0.001), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn median_of_even_count_is_the_lower_middle_sample() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn undisturbed_is_the_tenth_percentile_of_twenty_or_more() {
        assert_eq!(undisturbed(&ramp(100)), 10.0);
        assert_eq!(undisturbed(&ramp(60)), 6.0);
        // the second smallest of twenty, never the minimum
        assert_eq!(undisturbed(&ramp(20)), 2.0);
        // too few for a low percentile: the median stands
        assert_eq!(undisturbed(&ramp(19)), 10.0);
        assert_eq!(undisturbed(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(undisturbed(&[]), 0.0);
        // a disturbed half moves the median and leaves this alone
        let mut half: Vec<f64> = vec![1.0; 30];
        half.extend(vec![1.8; 31]);
        assert_eq!((undisturbed(&half), median(&half)), (1.0, 1.8));
    }

    #[test]
    fn p90_is_refused_below_a_hundred_samples() {
        assert_eq!(percentile_if_supported(&ramp(99), 90), None);
        assert_eq!(percentile_if_supported(&ramp(100), 90), Some(90.0));
        assert_eq!(percentile_if_supported(&ramp(60), 90), None);
    }

    #[test]
    fn tail_is_the_highest_supported_percentile() {
        assert_eq!(tail(&ramp(39)), None);
        assert_eq!(tail(&ramp(40)), Some((75, 30.0)));
        assert_eq!(tail(&ramp(100)), Some((90, 90.0)));
        assert_eq!(tail(&ramp(200)), Some((95, 190.0)));
        assert_eq!(tail(&ramp(1000)), Some((99, 990.0)));
    }

    #[test]
    fn iqr_share_is_quartile_distance_over_median() {
        let s = ramp(100); // q25 = 25, q50 = 50, q75 = 75
        assert!((iqr_share(&s) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[]), 0.0);
    }
}
