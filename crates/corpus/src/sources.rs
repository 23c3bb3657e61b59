//! The data-source registry mirroring the paper's Table I.
//!
//! The paper aggregates four bibliographic sources (CORE, MAG, Aminer,
//! SCOPUS) totalling 26.5 M abstracts, 0.3 M full texts and ~15 B tokens.
//! We reproduce the registry with the paper's headline numbers and a
//! configurable down-scaling factor that maps each source to a synthetic
//! document budget for actual generation.

/// One bibliographic data source.
#[derive(Clone, Debug)]
pub struct DataSource {
    /// Source name as in Table I.
    pub name: &'static str,
    /// Millions of abstracts in the paper.
    pub abstracts_m: f64,
    /// Millions of full-text documents in the paper (0 if none).
    pub full_text_m: f64,
    /// Billions of tokens contributed in the paper.
    pub tokens_b: f64,
    /// Whether the source arrives pre-filtered to materials science
    /// (SCOPUS does; the rest require classifier screening).
    pub prefiltered: bool,
}

/// The paper's Table I.
pub const SOURCES: &[DataSource] = &[
    DataSource {
        name: "CORE",
        abstracts_m: 2.5,
        full_text_m: 0.3,
        tokens_b: 8.8,
        prefiltered: false,
    },
    DataSource {
        name: "MAG",
        abstracts_m: 15.0,
        full_text_m: 0.0,
        tokens_b: 3.5,
        prefiltered: false,
    },
    DataSource {
        name: "Aminer",
        abstracts_m: 3.0,
        full_text_m: 0.0,
        tokens_b: 1.2,
        prefiltered: false,
    },
    DataSource {
        name: "SCOPUS",
        abstracts_m: 6.0,
        full_text_m: 0.0,
        tokens_b: 1.5,
        prefiltered: true,
    },
];

/// Aggregate totals across sources — must match Table I's "All" row.
pub fn totals() -> (f64, f64, f64) {
    let a = SOURCES.iter().map(|s| s.abstracts_m).sum();
    let f = SOURCES.iter().map(|s| s.full_text_m).sum();
    let t = SOURCES.iter().map(|s| s.tokens_b).sum();
    (a, f, t)
}

/// Number of synthetic documents to generate for a source, given a total
/// synthetic budget. Budgets are proportional to the paper's abstract
/// counts.
pub fn synthetic_budget(source: &DataSource, total_docs: usize) -> usize {
    let (all_abstracts, _, _) = totals();
    ((source.abstracts_m / all_abstracts) * total_docs as f64).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_table_one() {
        let (a, f, t) = totals();
        assert!((a - 26.5).abs() < 1e-9, "abstracts {a}");
        assert!((f - 0.3).abs() < 1e-9, "full texts {f}");
        assert!((t - 15.0).abs() < 1e-9, "tokens {t}");
    }

    #[test]
    fn budgets_sum_to_total_within_rounding() {
        let total = 10_000;
        let sum: usize = SOURCES.iter().map(|s| synthetic_budget(s, total)).sum();
        assert!((sum as i64 - total as i64).abs() <= SOURCES.len() as i64);
    }

    #[test]
    fn scopus_is_prefiltered_others_not() {
        for s in SOURCES {
            assert_eq!(s.prefiltered, s.name == "SCOPUS");
        }
    }

    #[test]
    fn mag_is_largest_by_abstracts() {
        let max = SOURCES
            .iter()
            .max_by(|a, b| a.abstracts_m.partial_cmp(&b.abstracts_m).unwrap())
            .unwrap();
        assert_eq!(max.name, "MAG");
    }
}
