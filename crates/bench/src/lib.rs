#![warn(missing_docs)]

//! # matgpt-bench
//!
//! The reproduction harness: every table and figure of the paper, plus
//! the ablations and extension studies, as rows of one registry
//! ([`experiments::REGISTRY`]) behind one executable,
//! `repro list | <name>… | all [--smoke]`.
//!
//! Every experiment prints the paper's reference values next to the
//! measured ones so EXPERIMENTS.md can be regenerated mechanically;
//! `--smoke` selects a fast, reduced scale. Performance is measured
//! elsewhere, by the repo benchmark in `perf/`.

pub mod experiments;

use std::fmt::Display;

/// Render an ASCII table.
pub fn print_table<H: Display, C: Display>(title: &str, headers: &[H], rows: &[Vec<C>]) {
    println!("\n== {title} ==");
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    let ncol = head.len();
    let mut widths: Vec<usize> = head.iter().map(|h| h.len()).collect();
    for row in &body {
        for (i, cell) in row.iter().enumerate().take(ncol) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate().take(ncol) {
            s.push_str(&format!(" {:<w$} |", c, w = widths[i]));
        }
        println!("{s}");
    };
    line(&head);
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{:-<w$}|", "", w = w + 2));
    }
    println!("{sep}");
    for row in &body {
        line(row);
    }
}

/// Print one named series as `x y` pairs (gnuplot-ready).
pub fn print_series<X: Display, Y: Display>(name: &str, points: &[(X, Y)]) {
    println!("\n# series: {name}");
    for (x, y) in points {
        println!("{x}\t{y}");
    }
}

/// Print a paper-vs-measured comparison line.
pub fn compare(metric: &str, paper: &str, measured: &str, verdict: &str) {
    println!("  {metric:<44} paper: {paper:<18} measured: {measured:<18} [{verdict}]");
}

/// The verdict tag of a [`compare`] line whose claim is exact.
pub fn verdict(ok: bool) -> &'static str {
    if ok {
        "MATCH"
    } else {
        "MISMATCH"
    }
}

/// Simple ASCII heat cell for heatmap rendering.
pub fn heat_char(v: f64, lo: f64, hi: f64) -> char {
    const RAMP: [char; 8] = ['.', ':', '-', '=', '+', '*', '#', '@'];
    if !v.is_finite() || hi <= lo {
        return '?';
    }
    let t = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
    RAMP[(t * (RAMP.len() - 1) as f64).round() as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heat_char_spans_ramp() {
        assert_eq!(heat_char(0.0, 0.0, 1.0), '.');
        assert_eq!(heat_char(1.0, 0.0, 1.0), '@');
        assert_eq!(heat_char(f64::NAN, 0.0, 1.0), '?');
    }

    #[test]
    fn table_printing_does_not_panic() {
        print_table("t", &["a", "b"], &[vec!["1", "22"], vec!["333", "4"]]);
        print_series("s", &[(1, 2.0), (2, 3.0)]);
        compare("m", "1", "2", "ok");
    }
}
