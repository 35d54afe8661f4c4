//! A plain fixed-world SPMD data-parallel trainer — "PyTorch DDP" without
//! any EasyScale machinery.
//!
//! One logical worker per physical GPU; the world size *is* the GPU count.
//! Per-rank implicit state (BatchNorm stats) and dropout streams, a shared
//! parameter/optimizer replica, ring all-reduce over physical ranks.
//! Deliberately implemented without `easyscale::Engine` so that
//! `Engine` (with one EST per GPU) and `SpmdTrainer` can be checked against
//! each other bit-for-bit.

use comm::ElasticDdp;
use data::{AugmentConfig, Augmenter, Dataset, DistributedSampler, ShardedLoader};
use device::GpuType;
use easyscale::{Determinism, JobConfig};
use esrng::{EsRng, RngState, StreamKey, StreamKind};
use models::model::ExecCtx;
use models::zoo::{self, build_proxy, InputKind};
use models::{ImplicitState, Model, Workload};
use optim::Sgd;

use tensor::ops::{cross_entropy, softmax_rows};
use tensor::KernelProfile;

/// Configuration of a fixed-world SPMD job.
#[derive(Debug, Clone)]
pub struct SpmdConfig {
    /// Workload proxy.
    pub workload: Workload,
    /// Global seed.
    pub seed: u64,
    /// World size (== GPU count).
    pub world: u32,
    /// Per-rank batch size.
    pub batch_size: usize,
    /// Dataset size.
    pub dataset_len: usize,
    /// SGD momentum.
    pub momentum: f32,
    /// SGD weight decay.
    pub weight_decay: f32,
    /// GPU type all ranks run on.
    pub gpu: GpuType,
    /// Kernel determinism (DDP-homo uses deterministic vendor kernels;
    /// DDP-heter additionally uses hardware-agnostic ones).
    pub determinism: Determinism,
    /// Gradient bucket capacity.
    pub bucket_cap_bytes: usize,
    /// Data augmentation.
    pub augment: bool,
}

impl SpmdConfig {
    /// Defaults matching `easyscale::JobConfig::new` so the cross-validation
    /// tests compare like for like.
    pub fn new(workload: Workload, seed: u64, world: u32) -> Self {
        let j = JobConfig::new(workload, seed, world);
        SpmdConfig {
            workload,
            seed,
            world,
            batch_size: j.batch_size,
            dataset_len: j.dataset_len,
            momentum: j.momentum,
            weight_decay: j.weight_decay,
            gpu: GpuType::V100,
            determinism: j.determinism,
            bucket_cap_bytes: j.bucket_cap_bytes,
            augment: j.augment,
        }
    }

    /// Override the dataset length.
    pub fn with_dataset_len(mut self, len: usize) -> Self {
        self.dataset_len = len;
        self
    }

    /// Override the per-rank batch size.
    pub fn with_batch_size(mut self, b: usize) -> Self {
        self.batch_size = b;
        self
    }
}

struct RankState {
    implicit: ImplicitState,
    dropout: RngState,
}

/// Fixed-world SPMD data-parallel trainer.
pub struct SpmdTrainer {
    config: SpmdConfig,
    model: Model,
    loader: ShardedLoader,
    ranks: Vec<RankState>,
    ddp: ElasticDdp,
    opt: Sgd,
    profile: KernelProfile,
    step: u64,
    steps_per_epoch: u64,
}

impl SpmdTrainer {
    /// Fresh trainer.
    pub fn new(config: SpmdConfig) -> Self {
        let model = build_proxy(config.workload, config.seed);
        // Same dataset constructor EasyScale uses: baselines must train on
        // the identical task or the comparison figures mean nothing.
        let dataset = easyscale::worker::make_dataset(
            &JobConfig::new(config.workload, config.seed, config.world)
                .with_dataset_len(config.dataset_len),
        );
        let augmenter = if config.augment && zoo::input_kind(config.workload) == InputKind::Image {
            Some(Augmenter::new(AugmentConfig::default()))
        } else {
            None
        };
        let loader = ShardedLoader::new(
            dataset,
            config.world,
            config.batch_size,
            config.seed,
            true,
            augmenter,
        );
        let implicit = model.implicit_state();
        let ranks = (0..config.world)
            .map(|r| RankState {
                implicit: implicit.clone(),
                dropout: EsRng::for_stream(config.seed, StreamKey::ranked(StreamKind::Dropout, r))
                    .state(),
            })
            .collect();
        let sizes = model.param_sizes();
        let ddp = ElasticDdp::new(&sizes, config.world, config.bucket_cap_bytes);
        let opt = Sgd::new(sizes.iter().sum(), config.momentum, config.weight_decay);
        let profile = config.determinism.profile_for(config.gpu);
        let steps_per_epoch =
            DistributedSampler::new(config.dataset_len, config.world, config.seed, true)
                .batches_per_epoch(config.batch_size) as u64;
        SpmdTrainer { config, model, loader, ranks, ddp, opt, profile, step: 0, steps_per_epoch }
    }

    /// Fresh trainer that *continues* another job's parameters and optimizer
    /// state — the restart path elastic baselines use when the world size
    /// changes. Note everything else (sampler position, BN stats, bucket
    /// layout) is rebuilt from scratch: exactly the state loss that makes
    /// these baselines accuracy-inconsistent.
    pub fn restarted(config: SpmdConfig, params: &[f32], velocity: &[f32]) -> Self {
        let mut t = Self::new(config);
        t.model.load_flat_params(params);
        t.opt.restore_state(velocity);
        t
    }

    /// World size.
    pub fn world(&self) -> u32 {
        self.config.world
    }

    /// Steps per epoch at the current world size.
    pub fn steps_per_epoch(&self) -> u64 {
        self.steps_per_epoch
    }

    /// Global steps completed.
    pub fn global_step(&self) -> u64 {
        self.step
    }

    /// Flat parameters.
    pub fn flat_params(&self) -> Vec<f32> {
        self.model.flat_params()
    }

    /// Optimizer velocity.
    pub fn opt_velocity(&self) -> Vec<f32> {
        self.opt.state().to_vec()
    }

    /// One global step at learning rate `lr`; returns the mean loss.
    pub fn step(&mut self, lr: f32) -> f32 {
        let mut grads: Vec<Vec<f32>> = Vec::with_capacity(self.config.world as usize);
        let mut losses = Vec::with_capacity(self.config.world as usize);
        for r in 0..self.config.world {
            let state = &mut self.ranks[r as usize];
            self.model.set_implicit_state(&state.implicit);
            let mut dropout = EsRng::restore(state.dropout);
            let batch = self.loader.next_batch(r);
            let mut ctx = ExecCtx { profile: self.profile, training: true, dropout: &mut dropout };
            let logits = self.model.forward(&batch.features, &mut ctx);
            let probs = softmax_rows(&logits, &self.profile);
            let (loss, grad_logits) = cross_entropy(&probs, &batch.labels, &self.profile);
            self.model.backward(&grad_logits, &mut ctx);
            grads.push(self.model.take_flat_grads());
            state.implicit = self.model.implicit_state();
            state.dropout = dropout.state();
            losses.push(loss);
        }
        let avg = self.ddp.allreduce_avg(&grads);
        let params = self.model.flat_params();
        let delta = self.opt.step(&params, &avg, lr);
        self.model.apply_flat_delta(&delta);
        if !self.ddp.is_rebuilt() {
            let order = easyscale::determinism::fresh_ready_order(self.model.param_sizes().len());
            self.ddp.rebuild_from_ready_order(&order, self.config.bucket_cap_bytes);
        }
        self.step += 1;
        losses.iter().sum::<f32>() / losses.len() as f32
    }

    /// Evaluate overall and per-class accuracy with rank 0's implicit state.
    pub fn evaluate(&mut self, dataset: &dyn Dataset, batch_size: usize) -> (f64, Vec<f64>) {
        self.model.set_implicit_state(&self.ranks[0].implicit.clone());
        let classes = dataset.num_classes() as usize;
        let mut correct = vec![0u64; classes];
        let mut total = vec![0u64; classes];
        let feat_shape = dataset.feature_shape();
        let feat_len: usize = feat_shape.iter().product();
        let mut dropout = EsRng::restore(self.ranks[0].dropout);
        let n = dataset.len();
        let mut i = 0;
        while i < n {
            let end = (i + batch_size).min(n);
            let b = end - i;
            let mut features = Vec::with_capacity(b * feat_len);
            let mut labels = Vec::with_capacity(b);
            for idx in i..end {
                let (x, y) = dataset.sample(idx as u32);
                features.extend_from_slice(x.data());
                labels.push(y);
            }
            let mut shape = vec![b];
            shape.extend_from_slice(&feat_shape);
            let x = tensor::Tensor::from_vec(features, &shape);
            let mut ctx = ExecCtx { profile: self.profile, training: false, dropout: &mut dropout };
            let logits = self.model.forward(&x, &mut ctx);
            let ld = logits.data();
            for (j, &label) in labels.iter().enumerate() {
                let row = &ld[j * classes..(j + 1) * classes];
                let pred = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .map(|(k, _)| k)
                    .unwrap();
                total[label as usize] += 1;
                if pred == label as usize {
                    correct[label as usize] += 1;
                }
            }
            i = end;
        }
        let overall = correct.iter().sum::<u64>() as f64 / total.iter().sum::<u64>().max(1) as f64;
        let per_class = correct
            .iter()
            .zip(&total)
            .map(|(&c, &t)| if t == 0 { 0.0 } else { c as f64 / t as f64 })
            .collect();
        (overall, per_class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_world_runs_are_reproducible() {
        let mk =
            || SpmdTrainer::new(SpmdConfig::new(Workload::ResNet18, 5, 2).with_dataset_len(128));
        let mut a = mk();
        let mut b = mk();
        for _ in 0..3 {
            let la = a.step(0.05);
            let lb = b.step(0.05);
            assert_eq!(la.to_bits(), lb.to_bits());
        }
        assert_eq!(a.flat_params(), b.flat_params());
    }

    #[test]
    fn different_world_sizes_differ() {
        let mut w2 =
            SpmdTrainer::new(SpmdConfig::new(Workload::ResNet18, 5, 2).with_dataset_len(128));
        let mut w4 =
            SpmdTrainer::new(SpmdConfig::new(Workload::ResNet18, 5, 4).with_dataset_len(128));
        for _ in 0..2 {
            w2.step(0.05);
            w4.step(0.05);
        }
        assert_ne!(
            w2.flat_params(),
            w4.flat_params(),
            "global batch differs with world size: trajectories diverge"
        );
    }

    #[test]
    fn restart_carries_params_but_loses_progress_state() {
        let mut t =
            SpmdTrainer::new(SpmdConfig::new(Workload::ResNet18, 5, 4).with_dataset_len(128));
        for _ in 0..3 {
            t.step(0.05);
        }
        let params = t.flat_params();
        let restarted = SpmdTrainer::restarted(
            SpmdConfig::new(Workload::ResNet18, 5, 2).with_dataset_len(128),
            &params,
            &t.opt_velocity(),
        );
        assert_eq!(restarted.flat_params(), params, "parameters survive the restart");
        assert_eq!(restarted.global_step(), 0, "but progress bookkeeping restarts");
    }

    #[test]
    fn spmd_matches_easyscale_engine_bitwise() {
        // Cross-validation: two independent implementations of 2-worker DDP
        // must agree bit for bit.
        use easyscale::{Engine, JobConfig, Placement};
        let mut spmd =
            SpmdTrainer::new(SpmdConfig::new(Workload::ResNet18, 9, 2).with_dataset_len(128));
        let cfg = JobConfig::new(Workload::ResNet18, 9, 2).with_dataset_len(128);
        let lr = cfg.lr;
        let mut engine = Engine::new(cfg, Placement::one_est_per_gpu(2, GpuType::V100));
        for _ in 0..4 {
            let l_spmd = spmd.step(lr.base_lr);
            let r = engine.step();
            assert_eq!(l_spmd.to_bits(), r.mean_loss.to_bits(), "losses must match bitwise");
        }
        let a = spmd.flat_params();
        let b = engine.flat_params();
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}
