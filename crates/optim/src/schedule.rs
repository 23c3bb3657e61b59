//! Learning-rate schedules.

/// A learning-rate schedule over discrete steps.
pub trait LrSchedule {
    /// Learning rate at step `step` (0-based).
    fn lr(&self, step: usize) -> f32;
}

/// Constant learning rate.
#[derive(Clone, Copy, Debug)]
pub struct ConstantSchedule(pub f32);

impl LrSchedule for ConstantSchedule {
    fn lr(&self, _step: usize) -> f32 {
        self.0
    }
}

/// Linear warmup followed by cosine decay to `final_lr`.
///
/// This is the paper's schedule: "the cosine learning rate scheduler is
/// employed with an initial learning rate [...] and a final learning rate
/// set to 10 % of the initial learning rate. We use 1 % of the total batch
/// steps for warmup."
#[derive(Clone, Copy, Debug)]
pub struct CosineSchedule {
    /// Peak learning rate reached at the end of warmup.
    pub base_lr: f32,
    /// Final learning rate after decay.
    pub final_lr: f32,
    /// Number of linear warmup steps.
    pub warmup_steps: usize,
    /// Total scheduled steps (decay finishes here).
    pub total_steps: usize,
}

impl CosineSchedule {
    /// The paper's recipe: warmup over 1 % of steps, decay to 10 % of base.
    pub fn paper(base_lr: f32, total_steps: usize) -> Self {
        Self {
            base_lr,
            final_lr: base_lr * 0.1,
            warmup_steps: (total_steps / 100).max(1),
            total_steps,
        }
    }
}

impl LrSchedule for CosineSchedule {
    fn lr(&self, step: usize) -> f32 {
        if self.warmup_steps > 0 && step < self.warmup_steps {
            return self.base_lr * (step + 1) as f32 / self.warmup_steps as f32;
        }
        if step >= self.total_steps {
            return self.final_lr;
        }
        let progress = (step - self.warmup_steps) as f32
            / (self.total_steps - self.warmup_steps).max(1) as f32;
        let cos = 0.5 * (1.0 + (std::f32::consts::PI * progress).cos());
        self.final_lr + (self.base_lr - self.final_lr) * cos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_ramps_linearly() {
        let s = CosineSchedule {
            base_lr: 1.0,
            final_lr: 0.1,
            warmup_steps: 10,
            total_steps: 100,
        };
        assert!((s.lr(0) - 0.1).abs() < 1e-6);
        assert!((s.lr(4) - 0.5).abs() < 1e-6);
        assert!((s.lr(9) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn decay_reaches_final() {
        let s = CosineSchedule::paper(0.01, 1000);
        assert!((s.lr(999) - 0.001).abs() < 1e-4);
        assert!((s.lr(5000) - 0.001).abs() < 1e-7);
    }

    #[test]
    fn schedule_is_monotone_after_warmup() {
        let s = CosineSchedule::paper(0.01, 500);
        let mut prev = f32::INFINITY;
        for step in s.warmup_steps..s.total_steps {
            let lr = s.lr(step);
            assert!(lr <= prev + 1e-9, "non-monotone at {step}");
            prev = lr;
        }
    }

    #[test]
    fn paper_recipe_proportions() {
        let s = CosineSchedule::paper(0.01, 10_000);
        assert_eq!(s.warmup_steps, 100);
        assert!((s.final_lr - 0.001).abs() < 1e-9);
    }

    #[test]
    fn constant_schedule() {
        let s = ConstantSchedule(0.3);
        assert_eq!(s.lr(0), 0.3);
        assert_eq!(s.lr(10_000), 0.3);
    }
}
