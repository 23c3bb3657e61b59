//! Failure injection and checkpoint-restart accounting.
//!
//! Jobs at Frontier scale see node failures as a matter of course: the
//! paper's training runs survive them with periodic checkpointing and
//! restart. This module injects a seeded failure process into the
//! analytic step model — per-node exponential failures, transient
//! straggler GCDs, degraded links — and accounts a full run under a
//! fail → detect → restart-from-checkpoint loop, reporting goodput,
//! lost work and overhead as functions of the checkpoint interval,
//! alongside the Young/Daly optimal-interval predictions.

use crate::parallel::{StepReport, TrainSetup};
use crate::power::{training_run, PowerModel, TrainingRun};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The failure/perturbation model of one job allocation.
///
/// Failures are exponential per node (memoryless, the standard MTBF
/// abstraction); stragglers and degraded links are transient per-step
/// perturbations that slow the bulk-synchronous step without killing it.
#[derive(Clone, Copy, Debug)]
pub struct FaultModel {
    /// Mean time between failures of one node, hours.
    pub node_mtbf_hours: f64,
    /// GCDs per node (Frontier: 4 MI250X = 8 GCDs).
    pub gcds_per_node: usize,
    /// Time from failure to the scheduler noticing, seconds.
    pub detect_s: f64,
    /// Relaunch + checkpoint-reload time after detection, seconds.
    pub restart_s: f64,
    /// Blocking checkpoint write time, seconds (Daly's δ).
    pub checkpoint_write_s: f64,
    /// Per-GCD per-step probability of a transient straggler.
    pub straggler_prob: f64,
    /// Compute slowdown factor while a straggler drags the step.
    pub straggler_slowdown: f64,
    /// Per-node per-step probability of a degraded link.
    pub degraded_link_prob: f64,
    /// Exposed-communication slowdown factor on a degraded link.
    pub degraded_link_slowdown: f64,
    /// Master seed for the failure process.
    pub seed: u64,
}

impl Default for FaultModel {
    fn default() -> Self {
        Self {
            // ~25k node-hours between failures: a 32-node job fails
            // about every 33 days, the full 9408-node machine every
            // ~2.7 h — the order of magnitude leadership systems report.
            node_mtbf_hours: 25_000.0,
            gcds_per_node: 8,
            detect_s: 30.0,
            restart_s: 300.0,
            checkpoint_write_s: 60.0,
            straggler_prob: 1e-4,
            straggler_slowdown: 2.0,
            degraded_link_prob: 5e-5,
            degraded_link_slowdown: 3.0,
            seed: 0xfa17,
        }
    }
}

impl FaultModel {
    /// Mean time between failures of the whole `n_gcds`-GCD job, seconds
    /// (the per-node rate summed over the allocation).
    pub fn job_mtbf_s(&self, n_gcds: usize) -> f64 {
        let nodes = (n_gcds as f64 / self.gcds_per_node as f64).ceil().max(1.0);
        self.node_mtbf_hours * 3600.0 / nodes
    }

    /// Young's optimal checkpoint interval `sqrt(2 δ M)`, seconds.
    pub fn young_interval_s(&self, n_gcds: usize) -> f64 {
        (2.0 * self.checkpoint_write_s * self.job_mtbf_s(n_gcds)).sqrt()
    }

    /// Daly's higher-order refinement of the optimal interval, seconds.
    pub fn daly_interval_s(&self, n_gcds: usize) -> f64 {
        let delta = self.checkpoint_write_s;
        let m = self.job_mtbf_s(n_gcds);
        if delta >= 2.0 * m {
            return m;
        }
        let x = delta / (2.0 * m);
        (2.0 * delta * m).sqrt() * (1.0 + x.sqrt() / 3.0 + x / 9.0) - delta
    }

    /// Sample the seeded failure schedule one executed run would see:
    /// exponential arrivals at the job MTBF over `horizon_steps` steps
    /// of `step_s` seconds each, each failure killing a uniformly drawn
    /// rank in `0..workers`. Returned as `(step, rank)` pairs sorted by
    /// step — the input an executed-training fault injector replays, so
    /// measured goodput and [`resilient_training_run`] face the same
    /// failure process.
    pub fn sample_failure_schedule(
        &self,
        workers: usize,
        horizon_steps: usize,
        step_s: f64,
    ) -> Vec<(usize, usize)> {
        assert!(workers > 0, "need at least one rank");
        assert!(step_s > 0.0, "steps take positive time");
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0xfa17_5eed);
        let mtbf = self.job_mtbf_s(workers);
        let mut out = Vec::new();
        if !mtbf.is_finite() {
            return out;
        }
        let horizon_s = horizon_steps as f64 * step_s;
        let mut t = -mtbf * (1.0 - rng.gen::<f64>()).ln();
        while t < horizon_s {
            let step = (t / step_s) as usize;
            let rank = rng.gen_range(0..workers);
            out.push((step.min(horizon_steps.saturating_sub(1)), rank));
            t += -mtbf * (1.0 - rng.gen::<f64>()).ln();
        }
        out
    }
}

/// Executed-vs-predicted agreement on the goodput-vs-interval curve.
///
/// Given a measured sweep (`intervals` with their `goodput` values) and
/// a predicted optimal interval (e.g. [`FaultModel::daly_interval_s`]),
/// reports where the measured optimum landed, which grid point the
/// prediction names, and whether they are within one grid step of each
/// other — the acceptance form of the executed-vs-simulated claim.
#[derive(Clone, Copy, Debug)]
pub struct IntervalAgreement {
    /// Index of the measured goodput maximum in the sweep grid.
    pub measured_idx: usize,
    /// Index of the grid interval closest to the predicted optimum.
    pub predicted_idx: usize,
    /// `|measured_idx − predicted_idx| ≤ 1`.
    pub within_one_step: bool,
}

/// Compare a measured goodput sweep against a predicted optimal
/// interval. Panics on empty or mismatched inputs — the sweep is
/// caller-constructed, so shape errors are bugs, not data.
pub fn interval_agreement(intervals: &[f64], goodput: &[f64], predicted: f64) -> IntervalAgreement {
    assert!(!intervals.is_empty(), "sweep needs at least one interval");
    assert_eq!(intervals.len(), goodput.len(), "one goodput per interval");
    let argbest = |vals: &mut dyn Iterator<Item = (usize, f64)>| -> usize {
        vals.fold((0usize, f64::NEG_INFINITY), |best, (i, v)| {
            if v > best.1 {
                (i, v)
            } else {
                best
            }
        })
        .0
    };
    let measured_idx = argbest(&mut goodput.iter().copied().enumerate());
    let predicted_idx = argbest(
        &mut intervals
            .iter()
            .map(|&i| -(i - predicted).abs())
            .enumerate(),
    );
    IntervalAgreement {
        measured_idx,
        predicted_idx,
        within_one_step: measured_idx.abs_diff(predicted_idx) <= 1,
    }
}

/// Aggregate accounting of a failure-prone run (means over replications).
#[derive(Clone, Debug)]
pub struct ResilientTrainingRun {
    /// The failure-free accounting of the same job ([`training_run`]).
    pub ideal: TrainingRun,
    /// Checkpoint interval used, seconds of useful work between writes.
    pub checkpoint_interval_s: f64,
    /// Mean failures survived per replication.
    pub failures: f64,
    /// Mean wall-clock hours to completion.
    pub wall_hours: f64,
    /// Committed productive hours (steps that made it into a
    /// checkpoint or the final state, at ideal step time).
    pub useful_hours: f64,
    /// Hours of work discarded by rollbacks.
    pub lost_hours: f64,
    /// Hours spent writing checkpoints.
    pub checkpoint_hours: f64,
    /// Hours of failure detection + restart downtime.
    pub downtime_hours: f64,
    /// Extra hours stragglers/degraded links added to committed steps.
    pub slowdown_hours: f64,
    /// `useful_hours / wall_hours` — the headline goodput.
    pub goodput: f64,
    /// Total energy in MWh, idle draw during downtime included.
    pub energy_mwh: f64,
    /// Seeded replications averaged over.
    pub replications: usize,
}

/// One replication's raw second-accounting.
#[derive(Clone, Copy, Debug, Default)]
struct RunTally {
    failures: f64,
    wall_s: f64,
    useful_s: f64,
    lost_s: f64,
    ckpt_s: f64,
    down_s: f64,
    slowdown_s: f64,
}

/// Account a full `total_tokens` run under `faults`, checkpointing every
/// `interval_s` seconds of useful work, averaged over `replications`
/// seeded failure histories.
pub fn resilient_training_run(
    setup: &TrainSetup,
    report: &StepReport,
    power: &PowerModel,
    faults: &FaultModel,
    total_tokens: f64,
    interval_s: f64,
    replications: usize,
) -> ResilientTrainingRun {
    let ideal = training_run(setup, report, power, total_tokens);
    let replications = replications.max(1);
    let mut mean = RunTally::default();
    for rep in 0..replications {
        let t = simulate_replication(setup, report, faults, ideal.steps, interval_s, rep as u64);
        mean.failures += t.failures;
        mean.wall_s += t.wall_s;
        mean.useful_s += t.useful_s;
        mean.lost_s += t.lost_s;
        mean.ckpt_s += t.ckpt_s;
        mean.down_s += t.down_s;
        mean.slowdown_s += t.slowdown_s;
    }
    let n = replications as f64;
    let (wall, useful) = (mean.wall_s / n, mean.useful_s / n);

    // energy: productive and discarded compute at the phase-weighted mean
    // power, checkpoint writes at IO power, downtime at idle
    let n_mi250x = (setup.n_gcds as f64 / 2.0).ceil();
    let busy = (mean.useful_s + mean.slowdown_s + mean.lost_s) / n;
    let energy_wh = n_mi250x
        * (busy * power.mean_power(report)
            + mean.ckpt_s / n * power.io_w
            + mean.down_s / n * power.idle_w)
        / 3600.0;

    ResilientTrainingRun {
        ideal,
        checkpoint_interval_s: interval_s,
        failures: mean.failures / n,
        wall_hours: wall / 3600.0,
        useful_hours: useful / 3600.0,
        lost_hours: mean.lost_s / n / 3600.0,
        checkpoint_hours: mean.ckpt_s / n / 3600.0,
        downtime_hours: mean.down_s / n / 3600.0,
        slowdown_hours: mean.slowdown_s / n / 3600.0,
        goodput: if wall > 0.0 { useful / wall } else { 1.0 },
        energy_mwh: energy_wh / 1e6,
        replications,
    }
}

/// Sweep checkpoint intervals, returning one accounting per interval —
/// the goodput-vs-interval curve whose peak Young/Daly predict.
#[allow(clippy::too_many_arguments)]
pub fn goodput_sweep(
    setup: &TrainSetup,
    report: &StepReport,
    power: &PowerModel,
    faults: &FaultModel,
    total_tokens: f64,
    intervals_s: &[f64],
    replications: usize,
) -> Vec<ResilientTrainingRun> {
    intervals_s
        .iter()
        .map(|&i| {
            resilient_training_run(setup, report, power, faults, total_tokens, i, replications)
        })
        .collect()
}

/// Walk one failure history: execute steps, checkpoint every
/// `interval_s` of useful work, roll back to the last checkpoint on
/// failure. Returns the second-accounting of the whole run.
fn simulate_replication(
    setup: &TrainSetup,
    report: &StepReport,
    faults: &FaultModel,
    steps_needed: usize,
    interval_s: f64,
    replication: u64,
) -> RunTally {
    let mut rng = ChaCha8Rng::seed_from_u64(faults.seed ^ (0x5eed << 8) ^ replication);
    let mtbf = faults.job_mtbf_s(setup.n_gcds);
    let interval = interval_s.max(report.step_s);
    let nodes = (setup.n_gcds as f64 / faults.gcds_per_node as f64).ceil();
    // a bulk-synchronous step waits for its slowest rank, so one
    // straggler (or bad link) anywhere slows everyone
    let p_straggle = 1.0 - (1.0 - faults.straggler_prob).powi(setup.n_gcds as i32);
    let p_link = 1.0 - (1.0 - faults.degraded_link_prob).powi(nodes as i32);

    let exp_sample = |rng: &mut ChaCha8Rng| -> f64 { -mtbf * (1.0 - rng.gen::<f64>()).ln() };

    let mut t = RunTally::default();
    let mut committed = 0usize; // steps safely in the last checkpoint
    let mut uncommitted = 0usize; // steps done since then
    let mut since_ckpt_s = 0.0; // actual seconds spent on those steps
    let mut next_fail = exp_sample(&mut rng);

    while committed + uncommitted < steps_needed {
        // duration of the next step under transient perturbations
        let mut d = report.step_s;
        if p_straggle > 0.0 && rng.gen_bool(p_straggle) {
            d += (faults.straggler_slowdown - 1.0) * report.compute_s;
        }
        if p_link > 0.0 && rng.gen_bool(p_link) {
            d += (faults.degraded_link_slowdown - 1.0) * report.comm_exposed_s;
        }

        if t.wall_s + d > next_fail {
            // failure mid-step: everything since the checkpoint is lost
            t.failures += 1.0;
            t.lost_s += since_ckpt_s + (next_fail - t.wall_s).max(0.0);
            t.wall_s = next_fail + faults.detect_s + faults.restart_s;
            t.down_s += faults.detect_s + faults.restart_s;
            uncommitted = 0;
            since_ckpt_s = 0.0;
            next_fail = t.wall_s + exp_sample(&mut rng);
            continue;
        }
        t.wall_s += d;
        since_ckpt_s += d;
        uncommitted += 1;

        let finished = committed + uncommitted >= steps_needed;
        if since_ckpt_s >= interval && !finished {
            // a failure during the write tears the checkpoint: the
            // in-flight interval is lost along with the write time
            if t.wall_s + faults.checkpoint_write_s > next_fail {
                t.failures += 1.0;
                t.lost_s += since_ckpt_s + (next_fail - t.wall_s).max(0.0);
                t.wall_s = next_fail + faults.detect_s + faults.restart_s;
                t.down_s += faults.detect_s + faults.restart_s;
                uncommitted = 0;
                since_ckpt_s = 0.0;
                next_fail = t.wall_s + exp_sample(&mut rng);
                continue;
            }
            t.wall_s += faults.checkpoint_write_s;
            t.ckpt_s += faults.checkpoint_write_s;
            let ideal = uncommitted as f64 * report.step_s;
            t.useful_s += ideal;
            t.slowdown_s += since_ckpt_s - ideal;
            committed += uncommitted;
            uncommitted = 0;
            since_ckpt_s = 0.0;
        }
    }
    // the final partial interval commits with the run's end state
    let ideal = uncommitted as f64 * report.step_s;
    t.useful_s += ideal;
    t.slowdown_s += since_ckpt_s - ideal;
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{simulate_step, Strategy};
    use matgpt_model::{ArchKind, GptConfig};

    fn setup_256() -> (TrainSetup, StepReport) {
        let mut s = TrainSetup::new(
            GptConfig::paper_1_7b(ArchKind::Llama, 52_000),
            256,
            Strategy::DataParallel,
        );
        s.micro_batch = 8;
        let r = simulate_step(&s);
        (s, r)
    }

    /// A harsh model for fast statistics: job MTBF ≈ 1 h at 256 GCDs.
    fn harsh() -> FaultModel {
        FaultModel {
            node_mtbf_hours: 32.0,
            checkpoint_write_s: 60.0,
            ..FaultModel::default()
        }
    }

    #[test]
    fn young_and_daly_intervals_are_sane() {
        let fm = harsh();
        let m = fm.job_mtbf_s(256);
        assert!((m - 3600.0).abs() < 1.0, "job MTBF {m}");
        let young = fm.young_interval_s(256);
        assert!((young - (2.0f64 * 60.0 * 3600.0).sqrt()).abs() < 1.0);
        let daly = fm.daly_interval_s(256);
        // Daly's correction is small and downward-ish near this regime
        assert!(
            (daly - young).abs() < 0.2 * young,
            "daly {daly} vs young {young}"
        );
    }

    #[test]
    fn failure_free_goodput_is_checkpoint_bound() {
        let (s, r) = setup_256();
        let fm = FaultModel {
            node_mtbf_hours: f64::INFINITY,
            straggler_prob: 0.0,
            degraded_link_prob: 0.0,
            ..FaultModel::default()
        };
        let interval = 1800.0;
        let run = resilient_training_run(&s, &r, &PowerModel::default(), &fm, 15e9, interval, 4);
        assert_eq!(run.failures, 0.0);
        assert_eq!(run.lost_hours, 0.0);
        // goodput ≈ τ / (τ + δ), a touch above since the tail interval
        // skips its write
        let bound = interval / (interval + fm.checkpoint_write_s);
        assert!(
            run.goodput >= bound - 1e-6 && run.goodput < 1.0,
            "goodput {} vs bound {bound}",
            run.goodput
        );
    }

    #[test]
    fn replications_are_seed_deterministic() {
        let (s, r) = setup_256();
        let pm = PowerModel::default();
        let a = resilient_training_run(&s, &r, &pm, &harsh(), 15e9, 600.0, 6);
        let b = resilient_training_run(&s, &r, &pm, &harsh(), 15e9, 600.0, 6);
        assert_eq!(a.goodput, b.goodput);
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.energy_mwh, b.energy_mwh);
    }

    #[test]
    fn failures_cost_wallclock_and_energy() {
        let (s, r) = setup_256();
        let pm = PowerModel::default();
        let fm = harsh();
        let run = resilient_training_run(&s, &r, &pm, &fm, 15e9, fm.young_interval_s(256), 8);
        assert!(
            run.failures > 0.5,
            "harsh MTBF should fail: {}",
            run.failures
        );
        assert!(run.wall_hours > run.ideal.hours);
        assert!(run.energy_mwh > run.ideal.energy_mwh);
        assert!(
            run.goodput < 1.0 && run.goodput > 0.3,
            "goodput {}",
            run.goodput
        );
        // the tallies close: wall = useful + slowdown + lost + ckpt + down
        let sum = run.useful_hours
            + run.slowdown_hours
            + run.lost_hours
            + run.checkpoint_hours
            + run.downtime_hours;
        assert!(
            (sum - run.wall_hours).abs() < 1e-6 * run.wall_hours.max(1.0),
            "tally {sum} vs wall {}",
            run.wall_hours
        );
    }

    #[test]
    fn failure_schedule_is_seeded_and_respects_mtbf() {
        let fm = harsh();
        let a = fm.sample_failure_schedule(4, 1000, 60.0);
        let b = fm.sample_failure_schedule(4, 1000, 60.0);
        assert_eq!(a, b, "same seed, same schedule");
        // 1000 steps × 60 s at ~1.1 h job MTBF (4 GCDs on one node):
        // expect failures, all in range and sorted
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        for &(step, rank) in &a {
            assert!(step < 1000 && rank < 4);
        }
        let infallible = FaultModel {
            node_mtbf_hours: f64::INFINITY,
            ..FaultModel::default()
        };
        assert!(infallible.sample_failure_schedule(4, 1000, 60.0).is_empty());
    }

    #[test]
    fn interval_agreement_flags_adjacent_and_distant_optima() {
        let grid = [2.0, 4.0, 8.0, 16.0];
        // measured peak at 8, predicted 5.6 → nearest grid 4: adjacent
        let a = interval_agreement(&grid, &[0.4, 0.5, 0.55, 0.45], 5.6);
        assert_eq!((a.measured_idx, a.predicted_idx), (2, 1));
        assert!(a.within_one_step);
        // measured peak at 2, predicted 16: two grid steps apart
        let b = interval_agreement(&grid, &[0.6, 0.5, 0.4, 0.3], 16.0);
        assert!(!b.within_one_step);
    }

    #[test]
    fn sweep_returns_one_run_per_interval() {
        let (s, r) = setup_256();
        let pm = PowerModel::default();
        let fm = harsh();
        let runs = goodput_sweep(&s, &r, &pm, &fm, 15e9, &[300.0, 900.0], 2);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].checkpoint_interval_s, 300.0);
        assert_eq!(runs[1].checkpoint_interval_s, 900.0);
    }
}
