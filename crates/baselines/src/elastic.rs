//! Elastic-training baselines: TorchElastic-like and Pollux-like jobs.
//!
//! Both adapt the *training procedure* to the resource count — which is
//! precisely what makes their accuracy a function of the resource schedule.
//! EasyScale's contribution is refusing to do that; these exist to reproduce
//! the motivation figures (2, 3, 4).

use crate::spmd::{SpmdConfig, SpmdTrainer};
use data::Dataset;
use models::Workload;
use optim::{LrSchedule, StepLr};

/// How a job re-tunes batch size and learning rate when its world size
/// changes — the only thing the two elastic baselines disagree on.
#[derive(Clone, Copy)]
enum ScalingRule {
    /// Per-GPU batch fixed, LR linear in the world size (Goyal et al.).
    TorchElastic,
    /// Batch size and LR co-adapted to the resource count for goodput.
    Pollux,
}

impl ScalingRule {
    /// Per-GPU batch at world size `w`. Pollux's goodput model grows it on
    /// small worlds to keep GPUs saturated and shrinks toward the base on
    /// large worlds (statistical efficiency).
    fn batch_at(self, base: &SpmdConfig, w: u32) -> usize {
        match self {
            ScalingRule::TorchElastic => base.batch_size,
            ScalingRule::Pollux => {
                let scale = (base.world as f64 / w as f64).sqrt().clamp(1.0, 4.0);
                ((base.batch_size as f64 * scale) as usize).max(1)
            }
        }
    }

    /// The configuration a job tuned for `base` restarts with at `world`.
    fn config_at(self, base: &SpmdConfig, world: u32) -> SpmdConfig {
        SpmdConfig { world, batch_size: self.batch_at(base, world), ..base.clone() }
    }
}

/// An elastic baseline job: world = GPU count, a full restart on every
/// resource change, hyper-parameters re-tuned for the new world by the
/// scaling rule its constructor picked.
pub struct ElasticJob {
    rule: ScalingRule,
    /// What the hyper-parameters were tuned for (`world` = base workers).
    base: SpmdConfig,
    base_schedule: StepLr,
    trainer: SpmdTrainer,
    /// Fractional epochs completed (world sizes advance them at different rates).
    epochs: f64,
}

impl ElasticJob {
    /// TorchElastic-style job starting with `initial_world` GPUs: per-GPU
    /// batch fixed at `batch_size`, LR scaled linearly from `base_workers`.
    pub fn torch_elastic(
        workload: Workload,
        seed: u64,
        base_workers: u32,
        initial_world: u32,
        base_schedule: StepLr,
        dataset_len: usize,
        batch_size: usize,
    ) -> Self {
        let base = SpmdConfig::new(workload, seed, base_workers)
            .with_dataset_len(dataset_len)
            .with_batch_size(batch_size);
        Self::new(ScalingRule::TorchElastic, base, base_schedule, initial_world)
    }

    /// Pollux-style job starting with `initial_world` GPUs: per-GPU batch
    /// and LR re-tuned from `base_batch` at `base_workers` on every scale.
    pub fn pollux(
        workload: Workload,
        seed: u64,
        base_workers: u32,
        initial_world: u32,
        base_schedule: StepLr,
        dataset_len: usize,
        base_batch: usize,
    ) -> Self {
        let base = SpmdConfig::new(workload, seed, base_workers)
            .with_dataset_len(dataset_len)
            .with_batch_size(base_batch);
        Self::new(ScalingRule::Pollux, base, base_schedule, initial_world)
    }

    fn new(rule: ScalingRule, base: SpmdConfig, base_schedule: StepLr, world: u32) -> Self {
        let trainer = SpmdTrainer::new(rule.config_at(&base, world));
        ElasticJob { rule, base, base_schedule, trainer, epochs: 0.0 }
    }

    /// The per-GPU batch size the scaling rule picks at world size `w`.
    pub fn tuned_batch(&self, w: u32) -> usize {
        self.rule.batch_at(&self.base, w)
    }

    /// The LR at the current world size and epoch: the linear scaling rule,
    /// or square-root scaling of the effective global batch (AdaScale-ish).
    pub fn current_lr(&self) -> f32 {
        let world = self.trainer.world();
        let lr = self.base_schedule.lr(self.epochs as u64);
        match self.rule {
            ScalingRule::TorchElastic => lr * world as f32 / self.base.world as f32,
            ScalingRule::Pollux => {
                let global = world as f64 * self.tuned_batch(world) as f64;
                let base_global = self.base.world as f64 * self.base.batch_size as f64;
                lr * (global / base_global).sqrt() as f32
            }
        }
    }

    /// Resource change: restart re-tuned for the new world size, carrying
    /// parameters and optimizer state — and silently dropping sampler
    /// position, BN stats, and bucket layout, as the real systems do.
    pub fn set_world(&mut self, world: u32) {
        if world == self.trainer.world() {
            return;
        }
        let params = self.trainer.flat_params();
        let velocity = self.trainer.opt_velocity();
        self.trainer =
            SpmdTrainer::restarted(self.rule.config_at(&self.base, world), &params, &velocity);
    }

    /// One global step; returns the mean loss.
    pub fn step(&mut self) -> f32 {
        let lr = self.current_lr();
        let loss = self.trainer.step(lr);
        self.epochs += 1.0 / self.trainer.steps_per_epoch() as f64;
        loss
    }

    /// Run a whole epoch at the current world size; returns the last loss.
    pub fn run_epoch(&mut self) -> f32 {
        (0..self.trainer.steps_per_epoch()).map(|_| self.step()).last().unwrap_or(0.0)
    }

    /// Evaluate (overall, per-class) accuracy.
    pub fn evaluate(&mut self, dataset: &dyn Dataset, batch: usize) -> (f64, Vec<f64>) {
        self.trainer.evaluate(dataset, batch)
    }

    /// Flat parameters.
    pub fn flat_params(&self) -> Vec<f32> {
        self.trainer.flat_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule() -> StepLr {
        StepLr { base_lr: 0.05, gamma: 0.1, step_epochs: 20 }
    }

    #[test]
    fn torchelastic_scales_lr_linearly() {
        let mut job = ElasticJob::torch_elastic(Workload::ResNet18, 3, 4, 4, schedule(), 128, 8);
        assert!((job.current_lr() - 0.05).abs() < 1e-7);
        job.set_world(8);
        assert!((job.current_lr() - 0.10).abs() < 1e-7);
        job.set_world(1);
        assert!((job.current_lr() - 0.0125).abs() < 1e-7);
    }

    #[test]
    fn torchelastic_resource_schedule_changes_accuracy() {
        // Same job, two different resource schedules ⇒ different parameters.
        let mut stable = ElasticJob::torch_elastic(Workload::ResNet18, 3, 4, 4, schedule(), 128, 8);
        let mut bouncy = ElasticJob::torch_elastic(Workload::ResNet18, 3, 4, 4, schedule(), 128, 8);
        for i in 0..12 {
            stable.step();
            if i == 4 {
                bouncy.set_world(2);
            }
            if i == 8 {
                bouncy.set_world(8);
            }
            bouncy.step();
        }
        assert_ne!(stable.flat_params(), bouncy.flat_params());
    }

    #[test]
    fn pollux_retunes_batch_on_scale() {
        let job = ElasticJob::pollux(Workload::ResNet18, 3, 4, 4, schedule(), 256, 8);
        assert_eq!(job.tuned_batch(4), 8, "base world keeps base batch");
        assert!(job.tuned_batch(1) > 8, "small worlds grow the per-GPU batch");
    }

    #[test]
    fn pollux_sqrt_scaling_is_gentler_than_linear() {
        let mut p = ElasticJob::pollux(Workload::ResNet18, 3, 4, 4, schedule(), 256, 8);
        let t = ElasticJob::torch_elastic(Workload::ResNet18, 3, 4, 8, schedule(), 256, 8);
        p.set_world(8);
        // Pollux at world 8: global = 8·8 = 64 vs base 32 ⇒ lr·√2.
        // TorchElastic at world 8: lr·2.
        assert!(p.current_lr() < t.current_lr());
        assert!(p.current_lr() > schedule().base_lr);
    }

    #[test]
    fn elastic_baselines_train() {
        let mut job = ElasticJob::torch_elastic(Workload::ResNet18, 3, 2, 2, schedule(), 256, 8);
        let first = job.step();
        for _ in 0..20 {
            job.step();
        }
        let last = job.step();
        assert!(last < first, "TE still learns: {first} → {last}");
    }
}
