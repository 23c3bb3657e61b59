//! The exact and closed-form claims of the executed-parallelism,
//! paged-KV and resilience experiments, asserted on the numbers
//! `repro` prints. None of them reads a wall clock.

use matgpt_bench::experiments::{ext_paged_bench, ext_resilience, ext_tp, Ctx};

#[test]
fn executed_tp2_message_histogram_matches_simulated_fig11() {
    let n = ext_tp::run(&Ctx::new(true)).expect("ext_tp");
    assert!(n.wire_exact, "per-rank wire bytes left the closed forms");
    assert!(
        n.fig11_tp_agreement >= 0.9,
        "executed vs simulated TP=2 histogram overlap {}",
        n.fig11_tp_agreement
    );
}

#[test]
fn paged_kv_shares_the_prefix_and_halves_peak_memory() {
    let n = ext_paged_bench::run(&Ctx::new(true)).expect("ext_paged_bench");
    assert!(n.streams_equal, "paged and contiguous streams differ");
    // 16 requests, 64-token prefix = 4 blocks of 16: the first request
    // allocates them, the other 15 fork them; every request allocates
    // 2 blocks of its own for 8 tail + 16 new tokens
    assert_eq!((n.block_allocs, n.block_shares), (4 + 16 * 2, 15 * 4));
    assert!(n.prefix_reuse() >= 0.5, "reuse {}", n.prefix_reuse());
    assert!(
        n.kv_peak_reduction() >= 2.0,
        "peak KV {} B contiguous vs {} B paged",
        n.contig_kv_peak_bytes,
        n.paged_kv_peak_bytes
    );
}

#[test]
fn measured_goodput_optimum_sits_on_the_daly_interval() {
    let n = ext_resilience::run(&Ctx::new(true)).expect("ext_resilience");
    assert!(
        n.within_one_step,
        "optimum more than one grid step from Daly"
    );
    assert!(
        n.goodput_daly_ratio >= 0.95,
        "goodput at the Daly point is {}x the peak",
        n.goodput_daly_ratio
    );
}
