//! Deployment planning: turn the paper's observations into an API.
//!
//! The paper closes with "practical guidance for building LLMs on HPC
//! systems". This module makes the guidance executable: given a model, a
//! token budget and constraints (deadline, energy cap, GPU allocation),
//! enumerate feasible (strategy × GPU-count × micro-batch) plans with the
//! step simulator and rank them.

use crate::kernels::FlashVersion;
use crate::parallel::{simulate_step, Strategy, TrainSetup};
use crate::power::{training_run, PowerModel, TrainingRun};
use matgpt_model::GptConfig;

/// What the planner may spend.
#[derive(Clone, Copy, Debug)]
pub struct PlanConstraints {
    /// Largest GPU (GCD) allocation available.
    pub max_gcds: usize,
    /// Wall-clock deadline in hours (None = unbounded).
    pub max_hours: Option<f64>,
    /// Energy cap in MWh (None = unbounded).
    pub max_energy_mwh: Option<f64>,
}

impl Default for PlanConstraints {
    fn default() -> Self {
        Self {
            max_gcds: 1024,
            max_hours: None,
            max_energy_mwh: None,
        }
    }
}

/// What to optimise once constraints are met.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanObjective {
    /// Minimise wall-clock time.
    Time,
    /// Minimise total energy.
    Energy,
    /// Minimise GPU-hours (allocation cost).
    GpuHours,
}

/// One evaluated plan.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Strategy used.
    pub strategy: Strategy,
    /// GCDs used.
    pub gcds: usize,
    /// Micro-batch per replica.
    pub micro_batch: usize,
    /// Projected run accounting.
    pub run: TrainingRun,
    /// Per-GCD throughput.
    pub tflops_per_gcd: f64,
    /// GPU-hours consumed.
    pub gpu_hours: f64,
}

/// Enumerate and rank feasible plans for pre-training `cfg` on
/// `total_tokens` tokens.
pub fn plan_training(
    cfg: &GptConfig,
    total_tokens: f64,
    constraints: &PlanConstraints,
    objective: PlanObjective,
) -> Vec<Plan> {
    let pm = PowerModel::default();
    let strategies = [
        Strategy::DataParallel,
        Strategy::Zero1,
        Strategy::TensorParallel(2),
        Strategy::PipelineParallel(2),
    ];
    let mut plans = Vec::new();
    let mut gcds = 8usize;
    while gcds <= constraints.max_gcds {
        for strat in strategies {
            for micro_batch in [1usize, 2, 4, 8] {
                let mut setup = TrainSetup::new(cfg.clone(), gcds, strat);
                setup.micro_batch = micro_batch;
                setup.flash = FlashVersion::V2;
                let report = simulate_step(&setup);
                if !report.fits_memory {
                    continue;
                }
                let run = training_run(&setup, &report, &pm, total_tokens);
                if let Some(h) = constraints.max_hours {
                    if run.hours > h {
                        continue;
                    }
                }
                if let Some(e) = constraints.max_energy_mwh {
                    if run.energy_mwh > e {
                        continue;
                    }
                }
                plans.push(Plan {
                    strategy: strat,
                    gcds,
                    micro_batch,
                    gpu_hours: run.hours * gcds as f64,
                    tflops_per_gcd: report.tflops_per_gcd,
                    run,
                });
            }
        }
        gcds *= 2;
    }
    plans.sort_by(|a, b| {
        let key = |p: &Plan| match objective {
            PlanObjective::Time => p.run.hours,
            PlanObjective::Energy => p.run.energy_mwh,
            PlanObjective::GpuHours => p.gpu_hours,
        };
        key(a).partial_cmp(&key(b)).unwrap()
    });
    plans
}

/// The single best plan, if any configuration is feasible.
pub fn best_plan(
    cfg: &GptConfig,
    total_tokens: f64,
    constraints: &PlanConstraints,
    objective: PlanObjective,
) -> Option<Plan> {
    plan_training(cfg, total_tokens, constraints, objective)
        .into_iter()
        .next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use matgpt_model::ArchKind;

    fn cfg67() -> GptConfig {
        GptConfig::paper_6_7b(ArchKind::Llama, 52_000)
    }

    #[test]
    fn planner_finds_feasible_plans_and_ranks_them() {
        let plans = plan_training(
            &cfg67(),
            15e9,
            &PlanConstraints::default(),
            PlanObjective::Time,
        );
        assert!(!plans.is_empty());
        for w in plans.windows(2) {
            assert!(w[0].run.hours <= w[1].run.hours);
        }
        // every surviving plan fits memory (filter applied)
        assert!(plans.iter().all(|p| p.gcds <= 1024));
    }

    #[test]
    fn fastest_plan_uses_many_gpus_cheapest_uses_few() {
        let fast = best_plan(
            &cfg67(),
            15e9,
            &PlanConstraints::default(),
            PlanObjective::Time,
        )
        .unwrap();
        let cheap = best_plan(
            &cfg67(),
            15e9,
            &PlanConstraints::default(),
            PlanObjective::GpuHours,
        )
        .unwrap();
        assert!(
            fast.gcds >= cheap.gcds,
            "fast {} vs cheap {}",
            fast.gcds,
            cheap.gcds
        );
        assert!(cheap.gpu_hours <= fast.gpu_hours);
    }

    #[test]
    fn deadline_constraint_filters_slow_plans() {
        let unconstrained = plan_training(
            &cfg67(),
            15e9,
            &PlanConstraints::default(),
            PlanObjective::GpuHours,
        );
        let slowest = unconstrained
            .iter()
            .map(|p| p.run.hours)
            .fold(0.0, f64::max);
        let tight = PlanConstraints {
            max_hours: Some(slowest / 4.0),
            ..PlanConstraints::default()
        };
        let constrained = plan_training(&cfg67(), 15e9, &tight, PlanObjective::GpuHours);
        assert!(constrained.len() < unconstrained.len());
        assert!(constrained.iter().all(|p| p.run.hours <= slowest / 4.0));
    }

    #[test]
    fn infeasible_constraints_yield_empty() {
        let impossible = PlanConstraints {
            max_gcds: 8,
            max_hours: Some(1e-6),
            max_energy_mwh: None,
        };
        assert!(best_plan(&cfg67(), 15e9, &impossible, PlanObjective::Time).is_none());
    }

    #[test]
    fn paper_guidance_emerges_zero_or_dp_preferred() {
        // Observation 2: minimal model parallelism. The best plan should
        // not be pipeline parallelism.
        let best = best_plan(
            &cfg67(),
            15e9,
            &PlanConstraints::default(),
            PlanObjective::GpuHours,
        )
        .unwrap();
        assert!(
            !matches!(best.strategy, Strategy::PipelineParallel(_)),
            "{:?}",
            best.strategy
        );
    }
}
