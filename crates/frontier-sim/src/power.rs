//! Power, energy and cost model (paper Table IV, Figs. 9 and 12).
//!
//! An MI250X has a single power sensor covering both GCDs. Power is
//! phase-dependent: high during dense compute, markedly lower during
//! communication (the oscillation the paper's traces show), intermediate
//! during data movement.

use crate::parallel::{StepReport, TrainSetup};

/// Phase-dependent power draw of one MI250X (both GCDs), watts.
#[derive(Clone, Copy, Debug)]
pub struct PowerModel {
    /// Idle draw.
    pub idle_w: f64,
    /// Draw during dense GEMM compute.
    pub compute_w: f64,
    /// Draw during RCCL communication.
    pub comm_w: f64,
    /// Draw during host/device data movement.
    pub io_w: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        Self {
            idle_w: 90.0,
            compute_w: 490.0,
            comm_w: 280.0,
            io_w: 350.0,
        }
    }
}

impl PowerModel {
    /// Mean power of one MI250X over a step, from the phase breakdown.
    pub fn mean_power(&self, report: &StepReport) -> f64 {
        let (c, m, i) = report.breakdown();
        c * self.compute_w + m * self.comm_w + i * self.io_w
    }

    /// Energy efficiency in TFLOPS/W — the paper computes this as the
    /// two-GCD throughput over the MI250X power.
    pub fn efficiency(&self, report: &StepReport) -> f64 {
        2.0 * report.tflops_per_gcd / self.mean_power(report)
    }
}

/// Aggregate accounting of a full pre-training run (Table IV).
#[derive(Clone, Debug)]
pub struct TrainingRun {
    /// GPUs (GCDs) used.
    pub gcds: usize,
    /// Wall-clock hours.
    pub hours: f64,
    /// Total energy in MWh.
    pub energy_mwh: f64,
    /// TFLOPS/W efficiency.
    pub efficiency: f64,
    /// Mean per-MI250X power (W).
    pub mean_power_w: f64,
    /// Optimizer steps executed.
    pub steps: usize,
}

/// Account a full run of `total_tokens` training tokens.
pub fn training_run(
    setup: &TrainSetup,
    report: &StepReport,
    power: &PowerModel,
    total_tokens: f64,
) -> TrainingRun {
    let steps = (total_tokens / report.tokens_per_step as f64).ceil() as usize;
    let seconds = steps as f64 * report.step_s;
    let mean_power = power.mean_power(report);
    let n_mi250x = (setup.n_gcds as f64 / 2.0).ceil();
    let energy_wh = mean_power * n_mi250x * seconds / 3600.0;
    TrainingRun {
        gcds: setup.n_gcds,
        hours: seconds / 3600.0,
        energy_mwh: energy_wh / 1e6,
        efficiency: power.efficiency(report),
        mean_power_w: mean_power,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{simulate_step, Strategy};
    use matgpt_model::{ArchKind, GptConfig};

    fn run(cfg: GptConfig, strat: Strategy, micro_batch: usize) -> (TrainSetup, StepReport) {
        let mut s = TrainSetup::new(cfg, 256, strat);
        s.micro_batch = micro_batch;
        let r = simulate_step(&s);
        (s, r)
    }

    #[test]
    fn table4_power_levels() {
        // Paper: mean power 476 W (1.7B) and 434 W (6.7B) per MI250X —
        // the larger model communicates more, so it draws *less*.
        let pm = PowerModel::default();
        let (_, r17) = run(
            GptConfig::paper_1_7b(ArchKind::Llama, 52_000),
            Strategy::DataParallel,
            8,
        );
        let (_, r67) = run(
            GptConfig::paper_6_7b(ArchKind::Llama, 52_000),
            Strategy::Zero1,
            2,
        );
        let p17 = pm.mean_power(&r17);
        let p67 = pm.mean_power(&r67);
        assert!(p17 > p67, "1.7B {p17} should out-draw 6.7B {p67}");
        assert!((430.0..500.0).contains(&p17), "1.7B power {p17}");
        assert!((380.0..470.0).contains(&p67), "6.7B power {p67}");
    }

    #[test]
    fn table4_efficiency_band() {
        // Paper: 0.33 (1.7B) and 0.27 (6.7B) TFLOPS/W.
        let pm = PowerModel::default();
        let (_, r17) = run(
            GptConfig::paper_1_7b(ArchKind::Llama, 52_000),
            Strategy::DataParallel,
            8,
        );
        let (_, r67) = run(
            GptConfig::paper_6_7b(ArchKind::Llama, 52_000),
            Strategy::Zero1,
            2,
        );
        let e17 = pm.efficiency(&r17);
        let e67 = pm.efficiency(&r67);
        assert!(e17 > e67, "1.7B more efficient");
        assert!((0.25..0.45).contains(&e17), "1.7B eff {e17}");
        assert!((0.2..0.4).contains(&e67), "6.7B eff {e67}");
    }

    #[test]
    fn table4_time_ratio() {
        // Paper: 4.1 h vs 16.5 h on the same 15 B tokens — a ratio of ~4
        // tracking the parameter ratio.
        let pm = PowerModel::default();
        let (s17, r17) = run(
            GptConfig::paper_1_7b(ArchKind::Llama, 52_000),
            Strategy::DataParallel,
            8,
        );
        let (s67, r67) = run(
            GptConfig::paper_6_7b(ArchKind::Llama, 52_000),
            Strategy::Zero1,
            8,
        );
        // same token budget regardless of per-device batch
        let t17 = training_run(&s17, &r17, &pm, 15e9);
        let t67 = training_run(&s67, &r67, &pm, 15e9);
        let ratio = t67.hours / t17.hours;
        assert!((3.0..5.5).contains(&ratio), "time ratio {ratio}");
        let energy_ratio = t67.energy_mwh / t17.energy_mwh;
        assert!(
            (2.8..5.5).contains(&energy_ratio),
            "energy ratio {energy_ratio}"
        );
    }

    #[test]
    fn energy_scales_linearly_with_tokens() {
        let pm = PowerModel::default();
        let (s, r) = run(
            GptConfig::paper_1_7b(ArchKind::Llama, 52_000),
            Strategy::DataParallel,
            8,
        );
        let a = training_run(&s, &r, &pm, 15e9);
        let b = training_run(&s, &r, &pm, 30e9);
        assert!((b.energy_mwh / a.energy_mwh - 2.0).abs() < 0.01);
        assert!((b.hours / a.hours - 2.0).abs() < 0.01);
    }

    #[test]
    fn power_is_between_comm_and_compute_levels() {
        let pm = PowerModel::default();
        let (_, r) = run(
            GptConfig::paper_6_7b(ArchKind::Llama, 52_000),
            Strategy::Zero1,
            1,
        );
        let p = pm.mean_power(&r);
        assert!(p > pm.comm_w && p < pm.compute_w);
    }
}
