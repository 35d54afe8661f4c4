//! The elastic training engine: global-step orchestration over any
//! placement, with bitwise placement-invariance.
//!
//! One global step = every EST runs one local step (mini-batch) on its
//! current physical worker, the per-EST gradients are all-reduced over
//! *virtual* ranks, and one optimizer update is applied to every worker's
//! parameter replica. Physical workers run on **persistent OS threads**
//! (`core::pool`) that live for the engine's lifetime and are respawned
//! only on rescale; the engine drives each over its own command channel and
//! reads their replies one channel at a time in worker order, so thread
//! interleaving cannot influence a single output bit (the N-thread
//! ≡ 1-thread invariant — docs/PARALLELISM.md). The merge — all-reduce and
//! optimizer — runs once, on the engine thread, where the returned gradients
//! already are: no proxy here has a gradient large enough for a second
//! cross-thread round trip to pay for itself.

use crate::checkpoint::{JobCheckpoint, RestoreError};
use crate::determinism::{fresh_ready_order, restart_ready_order};
use crate::est::EstContext;
use crate::placement::Placement;
use crate::pool::{
    ExecMode, ExecOptions, PoolError, PoolStats, RespawnFn, ThreadFault, WorkerPool, WorkerSnapshot,
};
use crate::worker::{make_dataset, EasyScaleWorker, LocalStep};
use crate::JobConfig;
use comm::{CommError, ElasticDdp, FaultScript, RetryPolicy};
use data::{Dataset, DistributedSampler};
use optim::{LrSchedule, Sgd};
use std::borrow::Cow;
use std::sync::Arc;

/// Outcome of one global step.
#[derive(Debug, Clone)]
pub struct StepResult {
    /// Global step index (0-based, value before the step).
    pub step: u64,
    /// Epoch the step belonged to.
    pub epoch: u64,
    /// Learning rate used.
    pub lr: f32,
    /// Per-EST losses in virtual-rank order.
    pub losses: Vec<f32>,
    /// Mean loss across ESTs.
    pub mean_loss: f32,
    /// ESTs each physical worker carried this step, in slot order — the
    /// heartbeat payload: per-worker step timings are derived from these
    /// loads through the perf model, never from a wall clock.
    pub per_worker_load: Vec<u32>,
}

impl StepResult {
    /// The last virtual rank's loss — the series Fig 9 plots.
    pub fn last_worker_loss(&self) -> f32 {
        *self.losses.last().expect("at least one EST")
    }
}

/// Evaluation result.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// Overall accuracy in [0,1].
    pub overall: f64,
    /// Per-class accuracy in [0,1].
    pub per_class: Vec<f64>,
}

/// How the engine executes workers: the supervised persistent pool
/// (default), or everything on the caller's thread — the N≡1 reference.
enum Backend {
    /// Workers owned by the engine, stepped sequentially on the caller's
    /// thread. Cannot fault independently: every error list is empty.
    SingleThread(Vec<EasyScaleWorker>),
    /// Workers moved onto persistent pool threads. A faulted worker is
    /// replaced via `respawn` and the step round replayed, reported in the
    /// error list.
    Pool(Box<WorkerPool>),
}

impl Backend {
    fn build(workers: Vec<EasyScaleWorker>, exec: &ExecOptions) -> Backend {
        match exec.mode {
            ExecMode::Pool => {
                Backend::Pool(Box::new(WorkerPool::spawn(workers, &exec.device_ids, exec.drain)))
            }
            ExecMode::SingleThread => Backend::SingleThread(workers),
        }
    }

    /// One concurrent (or sequential) local-step round, in worker order.
    fn run_steps(
        &mut self,
        epoch: u64,
        lr: f32,
        respawn: &mut RespawnFn<'_>,
    ) -> (Vec<LocalStep>, Vec<PoolError>) {
        match self {
            Backend::SingleThread(workers) => {
                (workers.iter_mut().flat_map(|w| w.run_local_steps()).collect(), Vec::new())
            }
            Backend::Pool(pool) => pool.run_steps_supervised(epoch, lr, respawn),
        }
    }

    /// Apply the optimizer delta to every replica (the pool's workers apply
    /// it at the start of their next step).
    fn apply(&mut self, delta: &Arc<Vec<f32>>) {
        match self {
            Backend::SingleThread(workers) => {
                for w in workers.iter_mut() {
                    w.apply_update(delta);
                }
            }
            Backend::Pool(pool) => pool.apply(delta),
        }
    }

    /// Every worker's EST contexts and loader cursors as of the last step,
    /// in worker order (for the pool, the recovery seeds its step round
    /// stored: `WorkerPool::seeds`).
    fn seeds(&self) -> Vec<Cow<'_, WorkerSnapshot>> {
        match self {
            Backend::SingleThread(workers) => {
                workers.iter().map(|w| Cow::Owned(WorkerSnapshot::capture(w))).collect()
            }
            Backend::Pool(pool) => pool.seeds().map(Cow::Borrowed).collect(),
        }
    }
}

/// One supervised pool recovery, as recorded by the engine: which worker
/// faulted during which step's round, and the *deterministic*
/// virtual-time detection latency charged for it (an upper bound: the drain
/// policy's whole backoff budget — a pure function of the policy, never a
/// wall clock).
/// Consumers ([`Engine::take_pool_recoveries`]) feed these into health
/// tracking and detection-latency accounting; none of it ever touches the
/// bitwise outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolRecovery {
    /// Global step during which the fault surfaced.
    pub step: u64,
    /// Worker slot index that was replaced.
    pub worker: usize,
    /// Device id of the replaced `esw-dev<id>` thread.
    pub device: u32,
    /// Fault classification (`worker-dead` / `drain-timeout`).
    pub kind: &'static str,
    /// Panic payload harvested from a dead worker thread, if any.
    pub panic_msg: Option<String>,
    /// Deterministic detection latency in virtual microseconds: the drain
    /// policy's total backoff budget ([`RetryPolicy::total_backoff_us`]),
    /// an upper bound — a silent live thread takes all of it, while a dead
    /// one is found as soon as its reply channel disconnects.
    pub virtual_latency_us: u64,
}

/// Build a bitwise-identical copy of worker slot `idx` — a faulted slot's
/// replacement, or the replica [`Engine::evaluate`] runs on: a worker on
/// the slot's placement over the engine's dataset, continuing from the
/// engine-held param mirror (proven bitwise-equal to every replica) and the
/// slot's recovery snapshot (pre-interrupted-step EST contexts and loader
/// cursors). This is the [`Engine::from_checkpoint`] restore recipe scoped
/// to a single slot — the same constructor — which is why replaying the
/// interrupted step lands on the fault-free bits.
pub(crate) fn build_replacement(
    config: &JobConfig,
    placement: &Placement,
    dataset: &Arc<dyn Dataset>,
    params: &[f32],
    idx: usize,
    snap: &WorkerSnapshot,
) -> Box<EasyScaleWorker> {
    let slot = &placement.slots[idx];
    let w = EasyScaleWorker::restored(config, slot, dataset.clone(), params, snap.clone());
    Box::new(w.expect("the engine's own mirror and snapshots fit its job"))
}

/// The EasyScale job engine.
pub struct Engine {
    config: JobConfig,
    placement: Placement,
    /// The training set: built once per engine, shared by its workers, by
    /// every replacement a recovery builds and by evaluation's replica.
    dataset: Arc<dyn Dataset>,
    backend: Backend,
    /// Engine-side mirror of the flat parameters. Every replica applies the
    /// identical elementwise delta, so the mirror stays bitwise equal to
    /// all of them (asserted by `mirror_matches_replica_bitwise`).
    params: Vec<f32>,
    /// Number of parameter tensors (for bucket rebuild orders).
    n_param_tensors: usize,
    ddp: ElasticDdp,
    opt: Sgd,
    global_step: u64,
    steps_per_epoch: u64,
    /// True when the engine was restored without the D1 layout — the next
    /// bucket rebuild will observe a fresh (timing-perturbed) ready order.
    restarted_without_layout: bool,
    /// Armed transient comm faults (empty in production; the faultsim
    /// harness arms scripts from its seeded schedule).
    comm_faults: FaultScript,
    /// Execution options, preserved across rescale.
    exec: ExecOptions,
    /// Supervised pool recoveries not yet drained by
    /// [`Engine::take_pool_recoveries`].
    pool_recoveries: Vec<PoolRecovery>,
}

impl Engine {
    /// Start a fresh job on `placement` with the default execution mode
    /// (persistent worker-thread pool).
    pub fn new(config: JobConfig, placement: Placement) -> Self {
        Self::new_opts(config, placement, ExecOptions::default())
    }

    /// Start a fresh job on `placement` with explicit execution options.
    pub fn new_opts(config: JobConfig, placement: Placement, exec: ExecOptions) -> Self {
        placement.validate(config.n_ests).unwrap_or_else(|e| panic!("invalid placement: {e}"));
        let dataset = make_dataset(&config);
        let workers: Vec<EasyScaleWorker> = placement
            .slots
            .iter()
            .map(|s| EasyScaleWorker::fresh(&config, s, dataset.clone()))
            .collect();
        let param_sizes = workers[0].model().param_sizes();
        let n_params: usize = param_sizes.iter().sum();
        let params = workers[0].flat_params();
        let ddp = ElasticDdp::new(&param_sizes, config.n_ests, config.bucket_cap_bytes);
        let opt = Sgd::new(n_params, config.momentum, config.weight_decay);
        let steps_per_epoch = Self::compute_steps_per_epoch(&config);
        let backend = Backend::build(workers, &exec);
        Engine {
            config,
            placement,
            dataset,
            backend,
            params,
            n_param_tensors: param_sizes.len(),
            ddp,
            opt,
            global_step: 0,
            steps_per_epoch,
            restarted_without_layout: false,
            comm_faults: FaultScript::none(),
            exec,
            pool_recoveries: Vec::new(),
        }
    }

    /// Resume a job from an on-demand checkpoint on a (possibly different,
    /// possibly heterogeneous) placement, with the default execution mode.
    pub fn from_checkpoint(config: JobConfig, placement: Placement, ckpt: &JobCheckpoint) -> Self {
        Self::from_checkpoint_opts(config, placement, ckpt, ExecOptions::default())
    }

    /// [`Engine::from_checkpoint`] with explicit execution options. Panics
    /// where [`Engine::try_from_checkpoint_opts`] returns an error.
    pub fn from_checkpoint_opts(
        config: JobConfig,
        placement: Placement,
        ckpt: &JobCheckpoint,
        exec: ExecOptions,
    ) -> Self {
        Self::try_from_checkpoint_opts(config, placement, ckpt, exec)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Resume a job from `ckpt` on `placement`, or say why `ckpt` — which
    /// may be any file that verified — is not a checkpoint of this job.
    /// Builds one dataset and, per worker, a replica filled from the
    /// checkpoint's parameters, holding the checkpoint's contexts of its
    /// ESTs and resuming at its loader cursors
    /// ([`EasyScaleWorker::restored`]); nothing is initialised first.
    pub fn try_from_checkpoint_opts(
        config: JobConfig,
        placement: Placement,
        ckpt: &JobCheckpoint,
        exec: ExecOptions,
    ) -> Result<Self, RestoreError> {
        placement.validate(config.n_ests).map_err(RestoreError::Placement)?;
        let n_params = ckpt.params.len();
        RestoreError::count("EST contexts", ckpt.est_contexts.len(), config.n_ests as usize)?;
        RestoreError::count("velocity elements", ckpt.opt_velocity.len(), n_params)?;
        let dataset = make_dataset(&config);
        let workers = placement
            .slots
            .iter()
            .map(|slot| {
                let contexts =
                    slot.vranks.iter().map(|&r| ckpt.est_contexts[r as usize].clone()).collect();
                let snap = WorkerSnapshot { contexts, loader: ckpt.loader.clone() };
                EasyScaleWorker::restored(&config, slot, dataset.clone(), &ckpt.params, snap)
            })
            .collect::<Result<Vec<EasyScaleWorker>, RestoreError>>()?;
        let param_sizes = workers[0].model().param_sizes();
        if ckpt.comm.layout.param_sizes() != param_sizes || ckpt.comm.vworld != config.n_ests {
            return Err(RestoreError::BucketLayout);
        }
        let (ddp, restarted_without_layout) = if config.determinism.pin_bucket_layout {
            // D1: reinstate the recorded gradient-bucket mapping and disable
            // reconstruction.
            (ElasticDdp::restore(ckpt.comm.clone()), false)
        } else {
            // Non-D1 frameworks rebuild communication from scratch: the
            // bucket mapping will be re-derived from restart timing.
            (ElasticDdp::new(&param_sizes, config.n_ests, config.bucket_cap_bytes), true)
        };
        let mut opt = Sgd::new(n_params, config.momentum, config.weight_decay);
        opt.restore_state(&ckpt.opt_velocity);
        let steps_per_epoch = Self::compute_steps_per_epoch(&config);
        let n_param_tensors = param_sizes.len();
        let backend = Backend::build(workers, &exec);
        Ok(Engine {
            config,
            placement,
            dataset,
            backend,
            params: ckpt.params.clone(),
            n_param_tensors,
            ddp,
            opt,
            global_step: ckpt.global_step,
            steps_per_epoch,
            restarted_without_layout,
            comm_faults: FaultScript::none(),
            exec,
            pool_recoveries: Vec::new(),
        })
    }

    fn compute_steps_per_epoch(config: &JobConfig) -> u64 {
        let sampler = DistributedSampler::new(config.dataset_len, config.n_ests, config.seed, true);
        let bpe = sampler.batches_per_epoch(config.batch_size) as u64;
        assert!(bpe > 0, "batch size too large for the per-EST shard");
        bpe
    }

    /// The job configuration.
    pub fn config(&self) -> &JobConfig {
        &self.config
    }

    /// The active placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Global steps completed.
    pub fn global_step(&self) -> u64 {
        self.global_step
    }

    /// Current epoch (by EST progress).
    pub fn epoch(&self) -> u64 {
        self.global_step / self.steps_per_epoch
    }

    /// Mini-batches per EST per epoch.
    pub fn steps_per_epoch(&self) -> u64 {
        self.steps_per_epoch
    }

    /// Flat model parameters (identical bitwise on every worker replica;
    /// served from the engine-side mirror, so it never blocks on workers).
    pub fn flat_params(&self) -> Vec<f32> {
        self.params.clone()
    }

    /// ESTs hosted by each physical worker, in slot order. This is the
    /// deterministic "step timing" source for heartbeats: a worker's local
    /// step time is its EST count pushed through the perf model, so two
    /// runs of the same schedule report identical timings regardless of
    /// real thread scheduling.
    pub fn worker_loads(&self) -> Vec<u32> {
        self.placement.slots.iter().map(|s| s.vranks.len() as u32).collect()
    }

    /// Counters of the persistent worker pool, `None` for single-thread
    /// execution. Tests use this (plus an empty recovery log) to prove
    /// worker threads survive across global steps.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        match &self.backend {
            Backend::Pool(pool) => Some(pool.stats()),
            Backend::SingleThread(_) => None,
        }
    }

    /// Arm transient comm faults for upcoming all-reduces (fault injection;
    /// see `comm::retry`). Production callers never touch this.
    pub fn inject_comm_faults(&mut self, script: FaultScript) {
        self.comm_faults = script;
    }

    /// Injected comm faults not yet consumed.
    pub fn pending_comm_faults(&self) -> u32 {
        self.comm_faults.pending()
    }

    /// One global step: local steps on all workers (concurrently), virtual-
    /// rank all-reduce, shared optimizer update. Panics if the all-reduce
    /// fails permanently — use [`Engine::try_step`] to handle that as a
    /// recoverable worker crash.
    pub fn step(&mut self) -> StepResult {
        self.try_step().expect("allreduce failed permanently (retries exhausted)")
    }

    /// Fallible variant of [`Engine::step`]. On `Err` the engine is
    /// poisoned — local steps already consumed data-loader and RNG state —
    /// so the caller must discard it and recover from a durable checkpoint
    /// (the Sync-SGD worker-crash path of paper §2.1).
    pub fn try_step(&mut self) -> Result<StepResult, CommError> {
        // Observation-only: spans/counters never feed back into the step
        // (see DESIGN.md, "Metrics stay off the merge path").
        let _step_span = obs::span("engine.global_step");
        let epoch = self.epoch();
        let lr = self.config.lr.lr(epoch);
        let step = self.global_step;

        // Local steps. Workers run in parallel (persistent pool threads by
        // default); each owns its model replica, pool, and contexts, so no
        // synchronization is needed until merge. Pool execution is
        // supervised: a worker that dies or goes silent is replaced by a
        // bitwise-identical rebuild from the param mirror and the slot's
        // last recovery seed (`build_replacement`) and the round is
        // replayed — so `locals` is the same set of bits whether or not a
        // fault happened. Each recovery is logged as a `PoolRecovery`.
        let Engine { config, placement, dataset, params, backend, .. } = self;
        let mut respawn = |err: &PoolError, snap: &WorkerSnapshot| {
            build_replacement(config, placement, dataset, params, err.worker(), snap)
        };
        let (mut locals, faults) = backend.run_steps(epoch, lr, &mut respawn);
        let virtual_latency_us = self.exec.drain.total_backoff_us();
        self.pool_recoveries.extend(faults.iter().map(|e| PoolRecovery {
            step,
            worker: e.worker(),
            device: e.device(),
            kind: e.kind(),
            panic_msg: e.panic_msg().map(str::to_owned),
            virtual_latency_us,
        }));
        // Deterministic merge: virtual-rank order, independent of thread
        // completion order.
        let merge_span = obs::span("merge");
        locals.sort_by_key(|l| l.vrank);
        debug_assert_eq!(locals.len(), self.config.n_ests as usize);

        let losses: Vec<f32> = locals.iter().map(|l| l.loss).collect();
        let grads: Vec<Vec<f32>> = locals.into_iter().map(|l| l.grad).collect();

        // Gradient synchronization over virtual ranks, on this thread, under
        // the bounded retry policy. A successful retried all-reduce is
        // bitwise identical to an unfaulted one (comm::retry), so transient
        // faults never reach the parameters.
        let (avg, _retry_stats) = self.ddp.allreduce_avg_with_retry(
            &grads,
            &RetryPolicy::default(),
            &mut self.comm_faults,
        )?;

        // One optimizer update, applied identically to every replica (and
        // to the engine-side mirror — elementwise, so bitwise equal).
        let delta = self.opt.step(&self.params, &avg, lr);
        for (p, d) in self.params.iter_mut().zip(&delta) {
            *p += d;
        }
        let delta = Arc::new(delta);
        self.backend.apply(&delta);

        // DDP's end-of-first-mini-batch bucket rebuild (§3.3): deterministic
        // on a fresh start, timing-perturbed after a non-D1 restart.
        if !self.ddp.is_rebuilt() {
            let order = if self.restarted_without_layout {
                restart_ready_order(self.n_param_tensors)
            } else {
                fresh_ready_order(self.n_param_tensors)
            };
            self.ddp.rebuild_from_ready_order(&order, self.config.bucket_cap_bytes);
        }
        drop(merge_span);
        obs::counter_add("engine.steps_total", 1);

        self.global_step += 1;
        let mean_loss = losses.iter().sum::<f32>() / losses.len() as f32;
        let per_worker_load = self.worker_loads();
        Ok(StepResult { step, epoch, lr, losses, mean_loss, per_worker_load })
    }

    /// Run `n` global steps, returning the per-step results.
    pub fn run(&mut self, n: u64) -> Vec<StepResult> {
        (0..n).map(|_| self.step()).collect()
    }

    /// Take an on-demand checkpoint (paper Figure 6) from the parameter
    /// mirror and the contexts and cursors the last step returned — no
    /// worker is asked, so no thread fault can strike here. The `&mut`
    /// receiver is kept for the callers written against it.
    pub fn checkpoint(&mut self) -> JobCheckpoint {
        let _ckpt_span = obs::span("engine.checkpoint");
        let snaps = self.backend.seeds();
        // EST contexts gathered from their current owners, in vrank order.
        let mut contexts: Vec<Option<EstContext>> = vec![None; self.config.n_ests as usize];
        for s in snaps.iter() {
            for c in &s.contexts {
                contexts[c.vrank as usize] = Some(c.clone());
            }
        }
        let est_contexts: Vec<EstContext> =
            contexts.into_iter().map(|c| c.expect("placement covered all ranks")).collect();

        // Merge loader cursors: each rank's cursor comes from its owner.
        let mut loader = snaps[0].loader.clone();
        for (s, slot) in snaps.iter().zip(&self.placement.slots) {
            for &r in &slot.vranks {
                loader.cursors[r as usize] = s.loader.cursors[r as usize];
            }
        }

        let ckpt = JobCheckpoint {
            est_contexts,
            loader,
            comm: self.ddp.checkpoint(),
            global_step: self.global_step,
            params: self.params.clone(),
            opt_velocity: self.opt.state().to_vec(),
        };
        obs::counter_add("engine.checkpoints_total", 1);
        obs::gauge_set("engine.checkpoint_bytes", ckpt.approx_bytes() as f64);
        ckpt
    }

    /// Scale in/out: checkpoint, rebuild on the new placement, resume —
    /// this is where pool threads are torn down and respawned (the *only*
    /// such point; ordinary steps reuse the persistent threads). This is
    /// the complete "resource reconfiguration" path of Figure 5.
    pub fn rescale(self, new_placement: Placement) -> Engine {
        let exec = self.exec.clone();
        self.rescale_opts(new_placement, exec)
    }

    /// [`Engine::rescale`] with new execution options (e.g. fresh stable
    /// device ids for the surviving workers).
    pub fn rescale_opts(mut self, new_placement: Placement, exec: ExecOptions) -> Engine {
        let ckpt = self.checkpoint();
        let mut next = Engine::from_checkpoint_opts(self.config, new_placement, &ckpt, exec);
        // Recoveries observed but not yet drained survive the rescale.
        next.pool_recoveries = std::mem::take(&mut self.pool_recoveries);
        next
    }

    /// Arm a real [`ThreadFault`] on pool worker `worker % n` (faultsim
    /// chaos), consumed at that worker's next step command. Returns the
    /// armed slot index, or `None` for single-thread execution (no worker
    /// threads exist to fault).
    pub fn inject_thread_fault(&mut self, worker: usize, fault: ThreadFault) -> Option<usize> {
        match &self.backend {
            Backend::Pool(pool) => Some(pool.arm_fault(worker, fault)),
            Backend::SingleThread(_) => None,
        }
    }

    /// Drain the supervised pool recoveries recorded since the last call
    /// (in detection order). The harness feeds these into `sched::health`
    /// and its detection-latency accounting.
    pub fn take_pool_recoveries(&mut self) -> Vec<PoolRecovery> {
        std::mem::take(&mut self.pool_recoveries)
    }

    /// Evaluate on `dataset` using virtual rank 0's implicit state, on the
    /// calling thread. The forward passes run on a replica of the worker
    /// hosting rank 0, built from the parameter mirror and that worker's
    /// last step seed: bit for bit the worker itself, since the mirror
    /// equals every replica (`mirror_matches_replica_bitwise`) and the delta,
    /// which follows the seed, changes only parameters. The replica is then
    /// dropped, which loses nothing: evaluation changes neither contexts
    /// nor cursors.
    pub fn evaluate(&self, dataset: &dyn Dataset, batch_size: usize) -> EvalResult {
        let (wi, ci) = self
            .placement
            .slots
            .iter()
            .enumerate()
            .find_map(|(wi, s)| s.vranks.iter().position(|&r| r == 0).map(|ci| (wi, ci)))
            .expect("rank 0 is always placed");
        let seed = &self.backend.seeds()[wi];
        let mut replica =
            build_replacement(&self.config, &self.placement, &self.dataset, &self.params, wi, seed);
        let (overall, per_class) = replica.evaluate(dataset, batch_size, ci);
        EvalResult { overall, per_class }
    }

    /// Build the held-out evaluation dataset for the config's workload:
    /// the *same task* (same seed, same class structure) with sample indices
    /// offset past the training set, so evaluation data is fresh but
    /// evaluates the learned task.
    pub fn eval_dataset(&self, len: usize) -> std::sync::Arc<dyn Dataset> {
        crate::worker::make_eval_dataset(&self.config, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::{ExecMode, ExecOptions};
    use crate::Determinism;
    use device::GpuType;
    use models::Workload;

    fn config() -> JobConfig {
        JobConfig::new(Workload::ResNet18, 21, 4).with_dataset_len(128)
    }

    fn params_bits(e: &Engine) -> Vec<u32> {
        e.flat_params().iter().map(|p| p.to_bits()).collect()
    }

    #[test]
    fn headline_claim_elasticity_is_bitwise_invisible() {
        // 4 logical workers on 4, 2, and 1 V100s: identical bits.
        let mut four = Engine::new(config(), Placement::one_est_per_gpu(4, GpuType::V100));
        let mut two = Engine::new(config(), Placement::homogeneous(4, 2, GpuType::V100));
        let mut one = Engine::new(config(), Placement::homogeneous(4, 1, GpuType::V100));
        for _ in 0..4 {
            four.step();
            two.step();
            one.step();
        }
        assert_eq!(params_bits(&four), params_bits(&two));
        assert_eq!(params_bits(&four), params_bits(&one));
    }

    #[test]
    fn d2_makes_heterogeneity_bitwise_invisible() {
        let cfg = config().with_determinism(Determinism::d1_d2());
        let mut homo = Engine::new(cfg.clone(), Placement::one_est_per_gpu(4, GpuType::V100));
        let mut hetero = Engine::new(
            cfg,
            Placement::heterogeneous(&[(GpuType::V100, 2), (GpuType::P100, 1), (GpuType::T4, 1)]),
        );
        for _ in 0..3 {
            homo.step();
            hetero.step();
        }
        assert_eq!(params_bits(&homo), params_bits(&hetero));
    }

    #[test]
    fn without_d2_heterogeneity_is_visible() {
        let cfg = config().with_determinism(Determinism::d1());
        let mut homo = Engine::new(cfg.clone(), Placement::one_est_per_gpu(4, GpuType::V100));
        let mut hetero =
            Engine::new(cfg, Placement::heterogeneous(&[(GpuType::V100, 2), (GpuType::P100, 2)]));
        homo.step();
        hetero.step();
        assert_ne!(params_bits(&homo), params_bits(&hetero));
    }

    #[test]
    fn d1_checkpoint_restart_is_bitwise_invisible() {
        let mut reference = Engine::new(config(), Placement::one_est_per_gpu(4, GpuType::V100));
        let mut elastic = Engine::new(config(), Placement::one_est_per_gpu(4, GpuType::V100));
        for _ in 0..3 {
            reference.step();
            elastic.step();
        }
        // Scale in to 2 GPUs, then to a single GPU.
        let mut elastic = elastic.rescale(Placement::homogeneous(4, 2, GpuType::V100));
        for _ in 0..3 {
            reference.step();
            elastic.step();
        }
        let mut elastic = elastic.rescale(Placement::homogeneous(4, 1, GpuType::V100));
        for _ in 0..3 {
            reference.step();
            elastic.step();
        }
        assert_eq!(params_bits(&reference), params_bits(&elastic));
        assert_eq!(reference.global_step(), elastic.global_step());
    }

    #[test]
    fn without_d1_restart_diverges() {
        let cfg = config().with_determinism(Determinism::d0());
        let mut reference = Engine::new(cfg.clone(), Placement::one_est_per_gpu(4, GpuType::V100));
        let mut elastic = Engine::new(cfg, Placement::one_est_per_gpu(4, GpuType::V100));
        for _ in 0..2 {
            reference.step();
            elastic.step();
        }
        assert_eq!(params_bits(&reference), params_bits(&elastic), "identical until restart");
        let mut elastic = elastic.rescale(Placement::homogeneous(4, 2, GpuType::V100));
        for _ in 0..3 {
            reference.step();
            elastic.step();
        }
        assert_ne!(
            params_bits(&reference),
            params_bits(&elastic),
            "D0 loses the bucket layout on restart and drifts"
        );
    }

    #[test]
    fn losses_decrease_on_average() {
        let mut e = Engine::new(
            JobConfig::new(Workload::ResNet18, 3, 2).with_dataset_len(256),
            Placement::homogeneous(2, 1, GpuType::V100),
        );
        let results = e.run(2 * e.steps_per_epoch());
        let first: f32 = results[..4].iter().map(|r| r.mean_loss).sum::<f32>() / 4.0;
        let n = results.len();
        let last: f32 = results[n - 4..].iter().map(|r| r.mean_loss).sum::<f32>() / 4.0;
        assert!(last < first, "training must actually learn: {first} → {last}");
    }

    #[test]
    fn step_result_bookkeeping() {
        let mut e = Engine::new(config(), Placement::homogeneous(4, 2, GpuType::V100));
        let r = e.step();
        assert_eq!(r.step, 0);
        assert_eq!(r.epoch, 0);
        assert_eq!(r.losses.len(), 4);
        assert!((r.lr - 0.05).abs() < 1e-9);
        assert_eq!(e.global_step(), 1);
    }

    #[test]
    fn evaluate_runs_on_any_placement() {
        let mut e = Engine::new(config(), Placement::homogeneous(4, 2, GpuType::V100));
        e.step();
        let eval = e.eval_dataset(64);
        let r = e.evaluate(eval.as_ref(), 16);
        assert!((0.0..=1.0).contains(&r.overall));
        assert_eq!(r.per_class.len(), 10);
    }

    #[test]
    fn transient_comm_faults_are_bitwise_invisible() {
        let mut clean = Engine::new(config(), Placement::homogeneous(4, 2, GpuType::V100));
        let mut faulty = Engine::new(config(), Placement::homogeneous(4, 2, GpuType::V100));
        for i in 0..4 {
            if i == 1 || i == 2 {
                // Two transient failures per step: retried, then succeeds.
                faulty.inject_comm_faults(FaultScript::failures(2));
            }
            clean.step();
            faulty.step();
        }
        assert_eq!(params_bits(&clean), params_bits(&faulty));
        assert_eq!(faulty.pending_comm_faults(), 0);
    }

    #[test]
    fn exhausted_comm_retries_fail_the_step() {
        let mut e = Engine::new(config(), Placement::homogeneous(4, 2, GpuType::V100));
        let policy = RetryPolicy::default();
        e.inject_comm_faults(FaultScript::failures(policy.max_attempts));
        let err = e.try_step().unwrap_err();
        assert_eq!(err, CommError::RetriesExhausted { attempts: policy.max_attempts });
        // The engine is poisoned (loader cursors advanced without an
        // update); a real caller now recovers from the durable store.
    }

    #[test]
    fn all_exec_modes_are_bitwise_identical() {
        // The tentpole invariant at engine level: pool (N persistent
        // threads) and single-thread execution produce the same bits —
        // including across a mid-run rescale.
        let exec = |mode| ExecOptions { mode, ..ExecOptions::default() };
        let p = || Placement::one_est_per_gpu(4, GpuType::V100);
        let mut pool = Engine::new_opts(config(), p(), exec(ExecMode::Pool));
        let mut single = Engine::new_opts(config(), p(), exec(ExecMode::SingleThread));
        for _ in 0..2 {
            pool.step();
            single.step();
        }
        let shrink = Placement::homogeneous(4, 2, GpuType::V100);
        let mut pool = pool.rescale(shrink.clone());
        let mut single = single.rescale(shrink);
        for _ in 0..2 {
            pool.step();
            single.step();
        }
        assert_eq!(params_bits(&pool), params_bits(&single));
    }

    #[test]
    fn pool_threads_survive_across_steps() {
        // The no-respawn guarantee: three global steps served by the same
        // four threads. Every respawn is logged as a recovery, so an empty
        // log at steps_served == 3 proves no respawn happened.
        let mut e = Engine::new(config(), Placement::one_est_per_gpu(4, GpuType::V100));
        assert_eq!(e.pool_stats(), Some(crate::pool::PoolStats { workers: 4, steps_served: 0 }));
        for _ in 0..3 {
            e.step();
        }
        assert_eq!(e.pool_stats(), Some(crate::pool::PoolStats { workers: 4, steps_served: 3 }));
        assert!(e.take_pool_recoveries().is_empty());
        // Single-thread execution has no pool.
        let inline = Engine::new_opts(
            config(),
            Placement::one_est_per_gpu(4, GpuType::V100),
            ExecOptions { mode: ExecMode::SingleThread, ..ExecOptions::default() },
        );
        assert_eq!(inline.pool_stats(), None);
    }

    /// Under the default policy a panicked worker is found when its reply
    /// channel disconnects, not after the 6.4 s budget; the recovery still
    /// charges the whole budget as its virtual latency.
    #[test]
    fn a_panicked_worker_is_replaced_without_waiting_out_the_budget() {
        let mut e = Engine::new(config(), Placement::homogeneous(4, 2, GpuType::V100));
        e.step();
        assert_eq!(e.inject_thread_fault(1, crate::pool::ThreadFault::Panic), Some(1));
        let started = std::time::Instant::now();
        e.step();
        let took = started.elapsed();
        assert!(took < std::time::Duration::from_secs(1), "the faulted step took {took:?}");
        let recs = e.take_pool_recoveries();
        assert_eq!(recs.len(), 1, "{recs:?}");
        assert_eq!((recs[0].worker, recs[0].kind), (1, "worker-dead"));
        assert_eq!(recs[0].virtual_latency_us, 6_375_000);
    }

    #[test]
    fn mirror_matches_replica_bitwise() {
        // The engine-side parameter mirror must track every replica exactly;
        // the checkpoint (built from the mirror) loads into a worker whose
        // replica then produces the same bits going forward.
        let mut e = Engine::new(config(), Placement::homogeneous(4, 2, GpuType::V100));
        e.step();
        e.step();
        let mirror = e.flat_params();
        let ckpt = e.checkpoint();
        assert_eq!(
            mirror.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            ckpt.params.iter().map(|p| p.to_bits()).collect::<Vec<_>>()
        );
        // A restored engine (replicas loaded from the mirror's values)
        // continues identically to the original.
        let mut restored =
            Engine::from_checkpoint(e.config().clone(), e.placement().clone(), &ckpt);
        e.step();
        restored.step();
        assert_eq!(params_bits(&e), params_bits(&restored));
    }

    #[test]
    fn attention_workload_is_also_placement_invariant() {
        let cfg = JobConfig::new(Workload::Bert, 77, 4).with_dataset_len(128);
        let mut a = Engine::new(cfg.clone(), Placement::one_est_per_gpu(4, GpuType::V100));
        let mut b = Engine::new(cfg, Placement::homogeneous(4, 1, GpuType::V100));
        for _ in 0..3 {
            a.step();
            b.step();
        }
        assert_eq!(params_bits(&a), params_bits(&b));
    }

    /// A file that verifies is not thereby a checkpoint of *this* job: one
    /// saved by another workload or another EST count comes back from the
    /// store intact and is refused by name, not by a slice panic deep in
    /// `load_flat_params`.
    #[test]
    fn a_verified_checkpoint_of_another_job_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("easyscale-misfit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let through_store = |cfg: JobConfig| {
            let n = cfg.n_ests;
            let mut e = Engine::new(cfg, Placement::homogeneous(n, 2, GpuType::V100));
            e.run(2);
            let store = crate::CheckpointStore::open(&dir, "misfit").unwrap();
            store.save(&e.checkpoint()).unwrap();
            store.load_latest_valid().unwrap().expect("just saved").0
        };
        let refusal = |ckpt: &JobCheckpoint| {
            let placement = Placement::homogeneous(4, 1, GpuType::V100);
            let exec = ExecOptions::default();
            match Engine::try_from_checkpoint_opts(config(), placement, ckpt, exec) {
                Ok(_) => panic!("restored a job from another job's checkpoint"),
                Err(e) => e,
            }
        };
        let own = through_store(config());
        let n_params = own.params.len();

        let bert = through_store(JobConfig::new(Workload::Bert, 21, 4).with_dataset_len(128));
        let e = refusal(&bert);
        assert_eq!(e, RestoreError::Count("parameters", bert.params.len(), n_params));
        assert!(e.to_string().contains(&format!("{} parameters", bert.params.len())), "{e}");
        // The same length and layers whose implicit state is another shape.
        let mut grafted = own.clone();
        grafted.est_contexts[2].implicit = bert.est_contexts[2].implicit.clone();
        assert_eq!(refusal(&grafted), RestoreError::ImplicitState(2));

        let eight = through_store(JobConfig::new(Workload::ResNet18, 21, 8).with_dataset_len(128));
        assert_eq!(refusal(&eight), RestoreError::Count("EST contexts", 8, 4));
        assert_eq!(
            refusal(&eight).to_string(),
            "checkpoint mismatch: 8 EST contexts, the job has 4"
        );

        let mut short = own.clone();
        short.opt_velocity.pop();
        assert_eq!(
            refusal(&short),
            RestoreError::Count("velocity elements", n_params - 1, n_params)
        );
        let mut cursors = own.clone();
        cursors.loader.cursors.pop();
        assert_eq!(refusal(&cursors), RestoreError::Count("loader cursors", 3, 4));
        let mut seed = own.clone();
        seed.loader.seed = 22;
        assert_eq!(refusal(&seed), RestoreError::Seed(22));
        let mut layout = own.clone();
        layout.comm.vworld = 8;
        assert_eq!(refusal(&layout), RestoreError::BucketLayout);

        let gap = Placement::heterogeneous(&[(GpuType::V100, 3)]);
        let e = Engine::try_from_checkpoint_opts(config(), gap, &own, ExecOptions::default());
        assert!(matches!(e, Err(RestoreError::Placement(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
