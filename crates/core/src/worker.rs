//! The EasyScale worker: one process, one GPU, one CUDA context — hosting
//! any number of ESTs in the time-slicing manner of Figure 6.
//!
//! A worker owns exactly one model/optimizer-state replica (shared by all of
//! its ESTs, since parameters only change at global-step boundaries), one
//! shared data-worker pool, and the contexts of the ESTs currently assigned
//! to it. `run_local_steps` executes each EST for one mini-batch, context-
//! switching between them: swap in the EST's RNG position and BatchNorm
//! stats, run forward/backward, swap the produced gradient out ("to CPU"),
//! and capture the updated context.

use crate::checkpoint::RestoreError;
use crate::est::EstContext;
use crate::placement::Slot;
use crate::pool::WorkerSnapshot;
use crate::JobConfig;
use data::{
    AugmentConfig, Augmenter, DataWorkerPool, Dataset, LoaderCheckpoint, ShardedLoader,
    SyntheticImageDataset, SyntheticSequenceDataset,
};
use models::model::ExecCtx;
use models::zoo::{self, build_proxy, build_proxy_undrawn, InputKind};
use models::Model;
use std::sync::Arc;
use tensor::ops::{cross_entropy, softmax_rows};
use tensor::{Autotuner, KernelProfile, Tensor};

/// Result of one EST's local step.
#[derive(Debug, Clone)]
pub struct LocalStep {
    /// The EST's virtual rank.
    pub vrank: u32,
    /// Flat gradient (reverse-topological order) — the buffer that would be
    /// asynchronously copied to host during the context switch.
    pub grad: Vec<f32>,
    /// Training loss of the mini-batch.
    pub loss: f32,
}

/// Build the training dataset a workload proxy consumes.
pub fn make_dataset(config: &JobConfig) -> Arc<dyn Dataset> {
    match zoo::input_kind(config.workload) {
        InputKind::Image => {
            Arc::new(SyntheticImageDataset::cifar_like(config.seed, config.dataset_len))
        }
        InputKind::Sequence => Arc::new(SyntheticSequenceDataset::new(
            config.seed,
            config.dataset_len,
            zoo::SEQ_LEN,
            zoo::VOCAB as u32,
            zoo::NUM_CLASSES as u32,
        )),
    }
}

/// Build the matching held-out evaluation split: same task (same seed and
/// class structure), sample indices offset past the training set.
pub fn make_eval_dataset(config: &JobConfig, len: usize) -> Arc<dyn Dataset> {
    let offset = config.dataset_len as u32;
    match zoo::input_kind(config.workload) {
        InputKind::Image => {
            Arc::new(SyntheticImageDataset::cifar_like(config.seed, len).with_offset(offset))
        }
        InputKind::Sequence => Arc::new(
            SyntheticSequenceDataset::new(
                config.seed,
                len,
                zoo::SEQ_LEN,
                zoo::VOCAB as u32,
                zoo::NUM_CLASSES as u32,
            )
            .with_offset(offset),
        ),
    }
}

/// One physical worker.
pub struct EasyScaleWorker {
    model: Model,
    pool: DataWorkerPool,
    contexts: Vec<EstContext>,
    base_profile: KernelProfile,
    autotuner: Autotuner,
    op_key: u64,
}

impl EasyScaleWorker {
    /// Create a worker for `slot` with a freshly initialized model, fresh
    /// EST contexts and a dataset of its own.
    pub fn new(config: &JobConfig, slot: &Slot) -> Self {
        Self::fresh(config, slot, make_dataset(config))
    }

    /// [`EasyScaleWorker::new`] over the engine's shared `dataset`.
    pub(crate) fn fresh(config: &JobConfig, slot: &Slot, dataset: Arc<dyn Dataset>) -> Self {
        let model = build_proxy(config.workload, config.seed);
        let implicit = model.implicit_state();
        let contexts = slot
            .vranks
            .iter()
            .map(|&r| EstContext::fresh(config.seed, r, implicit.clone()))
            .collect();
        Self::assemble(config, slot, model, dataset, contexts)
    }

    /// A worker for `slot` that continues from saved state — a checkpoint's,
    /// or the engine's mirror and a recovery snapshot: the replica is built
    /// undrawn and filled from `params`, the contexts are `saved`'s and the
    /// loader opens at its cursors, so nothing is initialised only to be
    /// overwritten. Bit for bit what [`EasyScaleWorker::new`] followed by
    /// `load_flat_params`, `restore_pool` and `set_contexts` gives
    /// (`restored_equals_overwritten`).
    pub(crate) fn restored(
        config: &JobConfig,
        slot: &Slot,
        dataset: Arc<dyn Dataset>,
        params: &[f32],
        saved: WorkerSnapshot,
    ) -> Result<Self, RestoreError> {
        let WorkerSnapshot { contexts, loader } = saved;
        let mut model = build_proxy_undrawn(config.workload);
        RestoreError::count("parameters", params.len(), model.num_params())?;
        RestoreError::count("loader cursors", loader.cursors.len(), config.n_ests as usize)?;
        if loader.seed != config.seed {
            return Err(RestoreError::Seed(loader.seed));
        }
        let implicit = model.implicit_state();
        if let Some(c) = contexts.iter().find(|c| !implicit.same_shape(&c.implicit)) {
            return Err(RestoreError::ImplicitState(c.vrank));
        }
        model.load_flat_params(params);
        let mut w = Self::assemble(config, slot, model, dataset, contexts);
        w.pool.restore(&loader);
        Ok(w)
    }

    fn assemble(
        config: &JobConfig,
        slot: &Slot,
        model: Model,
        dataset: Arc<dyn Dataset>,
        contexts: Vec<EstContext>,
    ) -> Self {
        let augmenter = if config.augment && zoo::input_kind(config.workload) == InputKind::Image {
            Some(Augmenter::new(AugmentConfig::default()))
        } else {
            None
        };
        let loader = ShardedLoader::new(
            dataset,
            config.n_ests,
            config.batch_size,
            config.seed,
            true,
            augmenter,
        );
        EasyScaleWorker {
            model,
            pool: DataWorkerPool::new(loader, config.data_workers, 2),
            contexts,
            base_profile: config.determinism.profile_for(slot.gpu),
            autotuner: Autotuner::new(config.determinism.autotune_policy()),
            op_key: config.seed ^ (config.workload.name().len() as u64) << 32,
        }
    }

    /// Assigned EST contexts (slot order).
    pub fn contexts(&self) -> &[EstContext] {
        &self.contexts
    }

    /// Number of ESTs this worker hosts — its heartbeat load.
    pub fn n_ests(&self) -> u32 {
        self.contexts.len() as u32
    }

    /// Replace the assigned EST contexts (used on restore/rescale).
    pub fn set_contexts(&mut self, contexts: Vec<EstContext>) {
        self.contexts = contexts;
    }

    /// The model replica.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Flat parameters of the replica.
    pub fn flat_params(&self) -> Vec<f32> {
        self.model.flat_params()
    }

    /// Load flat parameters (restore path).
    pub fn load_flat_params(&mut self, flat: &[f32]) {
        self.model.load_flat_params(flat);
    }

    /// Apply a flat parameter delta (the per-global-step optimizer update,
    /// identical on every worker).
    pub fn apply_update(&mut self, delta: &[f32]) {
        self.model.apply_flat_delta(delta);
    }

    /// Per-worker data pool checkpoint (cursors of *all* ranks; only the
    /// locally-owned ones have advanced).
    pub fn pool_checkpoint(&self) -> LoaderCheckpoint {
        self.pool.checkpoint()
    }

    /// Restore the data pool cursors.
    pub fn restore_pool(&mut self, ckpt: &LoaderCheckpoint) {
        self.pool.restore(ckpt);
    }

    /// The kernel profile this worker's next local step will use (autotuning
    /// may override the algorithm id under non-deterministic policies).
    pub fn step_profile(&mut self) -> KernelProfile {
        let mut p = self.base_profile;
        if let tensor::AutotunePolicy::Benchmark { .. } = self.autotuner.policy() {
            p.algo_id = self.autotuner.select(self.op_key);
        }
        p
    }

    /// Execute one local step per assigned EST, in slot order, with context
    /// switching between them. Returns each EST's gradient and loss.
    pub fn run_local_steps(&mut self) -> Vec<LocalStep> {
        self.run_local_steps_opts(true).into_iter().map(|(s, _)| s).collect()
    }

    /// Like [`EasyScaleWorker::run_local_steps`], but with per-EST wall-time
    /// measurements, and optionally with context switching disabled
    /// (`context_switching = false` skips the implicit-state swap and RNG
    /// capture — NOT accuracy-consistent; exists to measure the switching
    /// overhead, Fig 11).
    pub fn run_local_steps_opts(
        &mut self,
        context_switching: bool,
    ) -> Vec<(LocalStep, std::time::Duration)> {
        let profile = self.step_profile();
        let mut out = Vec::with_capacity(self.contexts.len());
        for i in 0..self.contexts.len() {
            // Wall-clock stays behind obs: the elapsed value is returned for
            // the Fig 11/13 overhead experiments but never feeds the math.
            let watch = obs::Stopwatch::start();
            let est = &mut self.contexts[i];
            // — Context switch in: restore the EST's implicit states. —
            if context_switching {
                let load_span = obs::span("worker.ctx_switch_load");
                self.model.set_implicit_state(&est.implicit);
                drop(load_span);
            }
            let mut dropout = est.dropout_rng();

            let batch = self.pool.next_batch(est.vrank);
            let mut ctx = ExecCtx { profile, training: true, dropout: &mut dropout };
            let logits = self.model.forward(&batch.features, &mut ctx);
            let probs = softmax_rows(&logits, &profile);
            let (loss, grad_logits) = cross_entropy(&probs, &batch.labels, &profile);
            self.model.backward_params(&grad_logits, &mut ctx);

            // — Context switch out: capture gradient ("async D2H copy") and
            //   the EST's mutated implicit states; the working set goes back
            //   to the thread's buffer cache for the next EST. —
            let grad = self.model.take_flat_grads();
            if context_switching {
                let save_span = obs::span("worker.ctx_switch_save");
                self.model.save_implicit_state(&mut est.implicit);
                est.dropout = dropout.state();
                drop(save_span);
            }
            est.steps += 1;
            est.last_loss = loss;
            let elapsed = watch.lap_observe("worker.local_step_us");
            out.push((LocalStep { vrank: est.vrank, grad, loss }, elapsed));
        }
        out
    }

    /// Evaluate accuracy on a dataset using the given EST's implicit state
    /// (rank 0 by convention, like saving `module` from rank 0 in DDP).
    /// Returns (overall accuracy, per-class accuracy).
    pub fn evaluate(
        &mut self,
        dataset: &dyn Dataset,
        batch_size: usize,
        est_index: usize,
    ) -> (f64, Vec<f64>) {
        self.model.set_implicit_state(&self.contexts[est_index].implicit.clone());
        let mut dropout = self.contexts[est_index].dropout_rng(); // unused in eval mode
        let mut ctx =
            ExecCtx { profile: self.base_profile, training: false, dropout: &mut dropout };
        accuracy(&mut self.model, dataset, batch_size, &mut ctx)
    }
}

/// Overall and per-class accuracy of `model` on `dataset`, forwarded
/// `batch_size` samples at a time under `ctx` (evaluation mode). A sample's
/// prediction is its largest logit under `f32::total_cmp`, a total order, so
/// NaN logits still predict a class. Every trainer that reports accuracy
/// calls this one routine.
pub fn accuracy(
    model: &mut Model,
    dataset: &dyn Dataset,
    batch_size: usize,
    ctx: &mut ExecCtx<'_>,
) -> (f64, Vec<f64>) {
    let classes = dataset.num_classes() as usize;
    let mut correct = vec![0u64; classes];
    let mut total = vec![0u64; classes];
    let feat_shape = dataset.feature_shape();
    let feat_len: usize = feat_shape.iter().product();
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
        let logits = model.forward(&Tensor::from_vec(features, &shape), ctx);
        let ld = logits.data();
        for (j, &label) in labels.iter().enumerate() {
            let row = &ld[j * classes..(j + 1) * classes];
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(k, _)| k)
                .expect("a dataset has at least one class");
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Determinism;
    use device::GpuType;
    use models::Workload;

    fn config() -> JobConfig {
        JobConfig::new(Workload::ResNet18, 11, 4).with_dataset_len(128)
    }

    #[test]
    fn local_steps_cover_assigned_ranks() {
        let cfg = config();
        let slot = Slot { gpu: GpuType::V100, vranks: vec![1, 3] };
        let mut w = EasyScaleWorker::new(&cfg, &slot);
        let steps = w.run_local_steps();
        assert_eq!(steps.iter().map(|s| s.vrank).collect::<Vec<_>>(), vec![1, 3]);
        assert!(steps.iter().all(|s| s.loss.is_finite()));
        assert!(steps.iter().all(|s| s.grad.iter().any(|&g| g != 0.0)));
    }

    #[test]
    fn context_switching_keeps_est_states_separate() {
        let cfg = config();
        let slot = Slot { gpu: GpuType::V100, vranks: vec![0, 1] };
        let mut w = EasyScaleWorker::new(&cfg, &slot);
        w.run_local_steps();
        let c0 = &w.contexts()[0];
        let c1 = &w.contexts()[1];
        // Each EST consumed its own data and dropout, so their BN running
        // stats and RNG positions differ.
        assert_ne!(c0.implicit, c1.implicit, "BN stats are per-EST");
        assert_ne!(c0.dropout, c1.dropout);
        assert_eq!(c0.steps, 1);
    }

    #[test]
    fn gradient_is_placement_invariant_per_est() {
        // The same EST (same vrank) produces bitwise-identical gradients on
        // its first local step whether it shares a worker or not.
        let cfg = config();
        let mut solo = EasyScaleWorker::new(&cfg, &Slot { gpu: GpuType::V100, vranks: vec![2] });
        let mut shared =
            EasyScaleWorker::new(&cfg, &Slot { gpu: GpuType::V100, vranks: vec![0, 1, 2, 3] });
        let g_solo = solo.run_local_steps().remove(0);
        let g_shared = shared.run_local_steps().remove(2);
        assert_eq!(g_solo.vrank, g_shared.vrank);
        assert_eq!(g_solo.loss.to_bits(), g_shared.loss.to_bits());
        let identical =
            g_solo.grad.iter().zip(&g_shared.grad).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(identical, "EST gradients must not depend on co-residents");
    }

    #[test]
    fn d2_makes_gradients_gpu_type_invariant() {
        let cfg = config().with_determinism(Determinism::d1_d2());
        let mut v100 = EasyScaleWorker::new(&cfg, &Slot { gpu: GpuType::V100, vranks: vec![0] });
        let mut t4 = EasyScaleWorker::new(&cfg, &Slot { gpu: GpuType::T4, vranks: vec![0] });
        let a = v100.run_local_steps().remove(0);
        let b = t4.run_local_steps().remove(0);
        assert!(a.grad.iter().zip(&b.grad).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn without_d2_gpu_types_disagree() {
        let cfg = config().with_determinism(Determinism::d1());
        let mut v100 = EasyScaleWorker::new(&cfg, &Slot { gpu: GpuType::V100, vranks: vec![0] });
        let mut t4 = EasyScaleWorker::new(&cfg, &Slot { gpu: GpuType::T4, vranks: vec![0] });
        let a = v100.run_local_steps().remove(0);
        let b = t4.run_local_steps().remove(0);
        let differs = a.grad.iter().zip(&b.grad).any(|(x, y)| x.to_bits() != y.to_bits());
        assert!(differs, "vendor kernels on different GPUs must diverge (the D2 hazard)");
    }

    /// The thread's buffer cache is a fixed point of the local step: after
    /// the second round it holds what it holds after the twentieth, for each
    /// of the three benchmark proxies — and a second worker of the same job
    /// stepped on this thread (the reference engine's eight are) adds nothing
    /// to it: it takes its prefetched batches out and steps on the rest.
    #[test]
    fn steady_local_steps_leave_the_buffer_cache_where_they_found_it() {
        for (workload, batch) in
            [(Workload::ResNet18, 8), (Workload::Bert, 8), (Workload::NeuMF, 1)]
        {
            let cfg = JobConfig::new(workload, 11, 4).with_dataset_len(256).with_batch_size(batch);
            let slot = |r| Slot { gpu: GpuType::V100, vranks: vec![r, r + 1] };
            let (mut a, mut b) =
                (EasyScaleWorker::new(&cfg, &slot(0)), EasyScaleWorker::new(&cfg, &slot(2)));
            let mut cached = Vec::new();
            for round in 0..20 {
                drop(a.run_local_steps());
                if round >= 10 {
                    drop(b.run_local_steps());
                }
                cached.push(tensor::cached_bytes());
            }
            let flat = |r: &[usize]| r.iter().all(|&c| c == r[0]);
            assert!(cached[1] > 0, "{}: the working set is cached", workload.name());
            assert!(flat(&cached[1..10]) && flat(&cached[10..]), "{}: {cached:?}", workload.name());
            assert!(cached[19] <= cached[1], "{}: {cached:?}", workload.name());
        }
    }

    /// What restore and respawn did before [`EasyScaleWorker::restored`]:
    /// initialise a whole worker, then overwrite what was initialised. Kept
    /// as the reference.
    fn overwritten(
        cfg: &JobConfig,
        slot: &Slot,
        params: &[f32],
        snap: &WorkerSnapshot,
    ) -> EasyScaleWorker {
        let mut w = EasyScaleWorker::new(cfg, slot);
        w.load_flat_params(params);
        w.restore_pool(&snap.loader);
        w.set_contexts(snap.contexts.clone());
        w
    }

    #[test]
    fn restored_equals_overwritten() {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let state = |w: &EasyScaleWorker| {
            let s = WorkerSnapshot::capture(w);
            (bits(&w.flat_params()), s.contexts, s.loader)
        };
        for workload in models::WORKLOADS {
            for gpu in [GpuType::V100, GpuType::T4] {
                let tag = format!("{} on {gpu:?}", workload.name());
                let cfg = JobConfig::new(workload, 11, 4).with_dataset_len(128).with_batch_size(4);
                let slot = Slot { gpu, vranks: vec![1, 3] };
                // State worth restoring: two rounds in, parameters moved.
                let mut donor = EasyScaleWorker::new(&cfg, &slot);
                let grad = donor.run_local_steps().remove(0).grad;
                donor.apply_update(&grad.iter().map(|g| -0.05 * g).collect::<Vec<f32>>());
                donor.run_local_steps();
                let (params, snap) = (donor.flat_params(), WorkerSnapshot::capture(&donor));

                let dataset = make_dataset(&cfg);
                let mut new =
                    EasyScaleWorker::restored(&cfg, &slot, dataset, &params, snap.clone())
                        .expect("a worker's own state fits its job");
                let mut old = overwritten(&cfg, &slot, &params, &snap);
                assert_eq!(bits(&new.flat_params()), bits(&params), "{tag}");
                assert!(state(&new) == state(&old), "{tag}: as built");
                for round in 0..3 {
                    for (n, o) in new.run_local_steps().iter().zip(old.run_local_steps()) {
                        assert_eq!((n.vrank, n.loss.to_bits()), (o.vrank, o.loss.to_bits()));
                        assert_eq!(bits(&n.grad), bits(&o.grad), "{tag}: round {round}");
                    }
                    assert!(state(&new) == state(&old), "{tag}: after round {round}");
                }
            }
        }
    }

    #[test]
    fn evaluate_returns_sane_accuracy() {
        let cfg = config();
        let mut w = EasyScaleWorker::new(&cfg, &Slot { gpu: GpuType::V100, vranks: vec![0] });
        let eval = SyntheticImageDataset::cifar_like(999, 100);
        let (overall, per_class) = w.evaluate(&eval, 16, 0);
        assert!((0.0..=1.0).contains(&overall));
        assert_eq!(per_class.len(), 10);
    }
}
