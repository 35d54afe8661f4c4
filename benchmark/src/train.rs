//! `train_compute` and `train_sync`: one job trained in steady state on
//! two pool workers, then rescaled and faulted a few times.

use crate::calib::{millis, raw_secs as raw, secs, Calibrator, Kind, Timed};
use crate::catalog::{FAULT_STALL_MS, RESCALE_STALL_MS, SETUP_S, WORK_PER_S};
use crate::job::{self, JobSpec, N_ESTS};
use crate::probes;
use crate::report::{floats, obj, summary_json, Metrics, Ops};
use crate::spans::{self, Tracer};
use crate::stats::{median, p25, summarize, tail};
use crate::Scale;
use comm::{ElasticDdp, FaultScript, RetryPolicy};
use data::DistributedSampler;
use easyscale::determinism::fresh_ready_order;
use easyscale::pool::PoolError;
use easyscale::{
    EasyScaleWorker, Engine, ExecMode, JobConfig, Placement, WorkerPool, WorkerSnapshot,
};
use obs::sink::MemorySink;
use optim::{LrSchedule, Sgd};
use serde_json::Value;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// How one training workload is cut into blocks of fixed work.
#[derive(Debug, Clone, Copy)]
pub struct TrainPlan {
    pub name: &'static str,
    pub spec: JobSpec,
    /// Steps per timed block of the untraced run.
    pub block_steps: usize,
    /// Steps per block of the traced run, which alternates four variants.
    pub traced_block_steps: usize,
    /// The step at which parameters are compared with the reference run.
    pub check_steps: u64,
    /// The calibration kernel timed beside every block of steps.
    pub step_kind: Kind,
}

pub const COMPUTE: TrainPlan = TrainPlan {
    name: crate::catalog::TRAIN_COMPUTE,
    spec: job::COMPUTE,
    block_steps: 50,
    traced_block_steps: 5,
    check_steps: 100,
    step_kind: Kind::Dense2,
};

pub const SYNC: TrainPlan = TrainPlan {
    name: crate::catalog::TRAIN_SYNC,
    spec: job::SYNC,
    block_steps: 2000,
    traced_block_steps: 200,
    check_steps: 200,
    step_kind: Kind::Dense2,
};

impl TrainPlan {
    fn scaled(mut self, scale: &Scale) -> Self {
        if scale.smoke {
            self.block_steps = (self.block_steps / 10).max(2);
            self.traced_block_steps = (self.traced_block_steps / 5).max(2);
            self.check_steps = 10;
        }
        self
    }
}

/// Build the job the way a user does and run its first step.
fn set_up(cfg: &JobConfig, ops: &mut Ops) -> Engine {
    let mut engine = Engine::new_opts(cfg.clone(), job::two_workers(), job::exec(ExecMode::Pool));
    job::step(&mut engine, ops);
    engine
}

/// Parameters and loss of the reference run at `steps`.
fn reference_at(cfg: &JobConfig, steps: u64, ops: &mut Ops) -> (u64, f32) {
    let mut reference = job::reference_engine(cfg);
    let mut loss = f32::NAN;
    for _ in 0..steps {
        loss = job::step(&mut reference, ops);
    }
    (job::params_fnv(&reference), loss)
}

pub fn run_untraced(
    plan: TrainPlan,
    seed: u64,
    scale: &Scale,
    out: &Path,
) -> Result<(Ops, Metrics, Value), String> {
    let plan = plan.scaled(scale);
    job::require_cores(&job::two_workers())?;
    let cfg = plan.spec.config(seed);
    let mut ops = Ops::default();

    let mut building = Calibrator::new(Kind::Ordered);
    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..scale.setup_reps() {
        drop(engine.take());
        let (built, took) = building.time(|| set_up(&cfg, &mut ops));
        setups.push(took);
        engine = Some(built);
    }
    let mut engine = engine.expect("at least one set-up");
    job::pin_workers(&engine);

    // Output check, which also lets caches and lazy set-up settle: the pool
    // run must land on the reference run's bits.
    let (ref_fnv, ref_loss) = reference_at(&cfg, plan.check_steps, &mut ops);
    let mut loss = f32::NAN;
    while engine.global_step() < plan.check_steps {
        loss = job::step(&mut engine, &mut ops);
    }
    let fnv = job::params_fnv(&engine);
    ops.check(fnv == ref_fnv && loss.to_bits() == ref_loss.to_bits(), || {
        format!(
            "{}: at step {} pool run has params {fnv:016x} loss {loss}, reference {ref_fnv:016x} loss {ref_loss}",
            plan.name, plan.check_steps
        )
    });

    let mut stepping = Calibrator::new(plan.step_kind);
    // Per-step latencies are the traced run's business: here nothing is
    // recorded inside a block, so the harness neither slows a step nor
    // grows the process the run's peak memory is read from.
    let mut blocks = Vec::new();
    let start = Instant::now();
    while job::secs(start) < scale.seconds || blocks.len() < scale.min_blocks() {
        let ((), took) = stepping.time(|| {
            for _ in 0..plan.block_steps {
                job::step(&mut engine, &mut ops);
            }
        });
        blocks.push(took);
    }

    // The same job, now rescaled and faulted: a twin restored once from the
    // same checkpoint, never touched again, says what the bits must be.
    let store = job::open_store(out, plan.name).map_err(|e| e.to_string())?;
    let mut twin = Engine::from_checkpoint_opts(
        cfg.clone(),
        Placement::one_est_per_gpu(N_ESTS, device::GpuType::V100),
        &engine.checkpoint(),
        job::exec(ExecMode::SingleThread),
    );
    let mut rescales = Vec::new();
    building.refresh();
    for r in 0..scale.tail_rescales() {
        let next = if r % 2 == 0 { job::one_worker() } else { job::two_workers() };
        let (rebuilt, took) =
            building.time(|| job::rescale_through_store(engine, &store, next, &mut ops));
        engine = rebuilt;
        job::pin_workers(&engine);
        rescales.push(took);
        job::step(&mut twin, &mut ops);
        check_twin(&engine, &twin, "rescale", &mut ops);
    }
    let mut faults = Vec::new();
    for f in 0..scale.tail_faults() {
        let clean: Vec<f64> = (0..4)
            .map(|_| {
                let t = Instant::now();
                job::step(&mut engine, &mut ops);
                job::ms(t)
            })
            .collect();
        let slot = (seed as usize + f) % engine.placement().n_workers();
        faults.push(job::faulted_step(&mut engine, slot, &mut ops) - median(&clean));
        job::pin_workers(&engine);
        for _ in 0..5 {
            job::step(&mut twin, &mut ops);
        }
        check_twin(&engine, &twin, "fault", &mut ops);
    }
    job::remove_store(out, plan.name);

    let mut metrics = Metrics::new();
    metrics.insert(WORK_PER_S, plan.block_steps as f64 / p25(&secs(&blocks)));
    // Scaling in to one worker and back out to two are different work (the
    // first step runs eight ESTs in a row, or four), so the two directions
    // are never pooled: the metric is the mean of their fast quartiles.
    let direction =
        |d: usize| -> Vec<Timed> { rescales.iter().skip(d).step_by(2).copied().collect() };
    let rescale_ms = (p25(&millis(secs(&direction(0)))) + p25(&millis(secs(&direction(1))))) / 2.0;
    metrics.insert(RESCALE_STALL_MS, rescale_ms);
    metrics.insert(FAULT_STALL_MS, p25(&faults));
    metrics.insert(SETUP_S, median(&secs(&setups)));
    let detail = obj(vec![
        ("block_steps", Value::U64(plan.block_steps as u64)),
        ("block_s", summary_json(&summarize(&secs(&blocks)), "s")),
        ("block_raw_s", summary_json(&summarize(&raw(&blocks)), "s")),
        ("blocks_s", floats(&secs(&blocks))),
        ("blocks_raw_s", floats(&raw(&blocks))),
        ("rescale_stall_ms", summary_json(&summarize(&millis(secs(&rescales))), "ms")),
        ("rescale_stall_raw_ms", summary_json(&summarize(&millis(raw(&rescales))), "ms")),
        ("fault_stall_ms", summary_json(&summarize(&faults), "ms")),
        ("setup_s", summary_json(&summarize(&secs(&setups)), "s")),
        ("setup_raw_s", summary_json(&summarize(&raw(&setups)), "s")),
        (
            "calibration",
            obj(vec![
                (stepping.kind().name(), Value::F64(stepping.median_ms())),
                (building.kind().name(), Value::F64(building.median_ms())),
            ]),
        ),
        ("check.step", Value::U64(plan.check_steps)),
        ("check.params_fnv64", Value::Str(format!("{fnv:016x}"))),
        ("check.loss_final", Value::F64(loss as f64)),
        ("final.step", Value::U64(engine.global_step())),
        ("final.params_fnv64", Value::Str(format!("{:016x}", job::params_fnv(&engine)))),
    ]);
    Ok((ops, metrics, detail))
}

fn check_twin(engine: &Engine, twin: &Engine, after: &str, ops: &mut Ops) {
    let (a, b) = (job::params_fnv(engine), job::params_fnv(twin));
    ops.check(a == b && engine.global_step() == twin.global_step(), || {
        format!(
            "after a {after}: step {} params {a:016x}, untouched twin step {} params {b:016x}",
            engine.global_step(),
            twin.global_step()
        )
    });
}

/// The engine's own step sequence, driven from outside over a bare
/// `WorkerPool` so that each call can be bracketed by a span. Only the
/// supervised entry points are used.
struct Decomposed {
    cfg: JobConfig,
    placement: Placement,
    pool: WorkerPool,
    params: Vec<f32>,
    n_param_tensors: usize,
    ddp: Arc<ElasticDdp>,
    opt: Sgd,
    global_step: u64,
    steps_per_epoch: u64,
    /// The last step's per-EST gradients, kept for the all-reduce probe.
    last_grads: Arc<Vec<Vec<f32>>>,
}

/// The engine's recipe for replacing a faulted worker. No fault is injected
/// into a traced run, so a call means the pool lost a healthy worker.
fn replacement(
    cfg: &JobConfig,
    placement: &Placement,
    params: &[f32],
    err: &PoolError,
    snap: &WorkerSnapshot,
) -> Box<EasyScaleWorker> {
    eprintln!("traced pool respawned a worker nobody faulted: {err}");
    let mut w = EasyScaleWorker::new(cfg, &placement.slots[err.worker()]);
    w.load_flat_params(params);
    w.restore_pool(&snap.loader);
    w.set_contexts(snap.contexts.clone());
    Box::new(w)
}

impl Decomposed {
    fn new(cfg: &JobConfig, placement: Placement) -> Self {
        let workers = probes::scratch_workers(cfg, &placement);
        let sizes = workers[0].model().param_sizes();
        let params = workers[0].flat_params();
        let sampler = DistributedSampler::new(cfg.dataset_len, cfg.n_ests, cfg.seed, true);
        Decomposed {
            cfg: cfg.clone(),
            pool: WorkerPool::spawn(workers, &[], job::chaos_drain()),
            placement,
            n_param_tensors: sizes.len(),
            ddp: Arc::new(ElasticDdp::new(&sizes, cfg.n_ests, cfg.bucket_cap_bytes)),
            opt: Sgd::new(params.len(), cfg.momentum, cfg.weight_decay),
            params,
            global_step: 0,
            steps_per_epoch: sampler.batches_per_epoch(cfg.batch_size) as u64,
            last_grads: Arc::new(Vec::new()),
        }
    }

    fn step(&mut self, tr: &mut Tracer, ops: &mut Ops) {
        let op = self.global_step;
        let epoch = self.global_step / self.steps_per_epoch;
        let lr = self.cfg.lr.lr(epoch);
        let Decomposed { cfg, placement, pool, params, ddp, opt, .. } = self;
        let root = tr.enter("step", op);

        let s = tr.enter("pool.run_steps", op);
        let (mut locals, step_faults) = {
            let mut respawn = |err: &PoolError, snap: &WorkerSnapshot| {
                replacement(cfg, placement, params, err, snap)
            };
            pool.run_steps_supervised(epoch, lr, &mut respawn)
        };
        tr.exit(s);

        let s = tr.enter("merge", op);
        locals.sort_by_key(|l| l.vrank);
        let grads: Arc<Vec<Vec<f32>>> = Arc::new(locals.into_iter().map(|l| l.grad).collect());
        tr.exit(s);

        let s = tr.enter("pool.reduce", op);
        let mut reduce_faults = Vec::new();
        let reduced = {
            let mut respawn = |err: &PoolError, snap: &WorkerSnapshot| {
                replacement(cfg, placement, params, err, snap)
            };
            comm::retry_reduce(&RetryPolicy::default(), &mut FaultScript::none(), || {
                let (avg, faults) = pool.reduce_supervised(ddp, &grads, &mut respawn);
                reduce_faults.extend(faults);
                avg
            })
        };
        tr.exit(s);
        let avg = match reduced {
            Ok((avg, _)) => avg,
            Err(e) => {
                ops.fail(format!("traced step {op}: all-reduce failed: {e}"));
                tr.exit(root);
                return;
            }
        };

        let s = tr.enter("optim.step", op);
        let delta = opt.step(params, &avg, lr);
        tr.exit(s);

        let s = tr.enter("mirror.update", op);
        for (p, d) in params.iter_mut().zip(&delta) {
            *p += d;
        }
        let delta = Arc::new(delta);
        tr.exit(s);

        let s = tr.enter("pool.apply", op);
        pool.apply(&delta);
        tr.exit(s);

        if !ddp.is_rebuilt() {
            let s = tr.enter("ddp.rebuild", op);
            Arc::make_mut(ddp).rebuild_from_ready_order(
                &fresh_ready_order(self.n_param_tensors),
                cfg.bucket_cap_bytes,
            );
            tr.exit(s);
        }
        tr.exit(root);

        let faults = step_faults.len() + reduce_faults.len();
        if faults == 0 {
            ops.ok(1);
        } else {
            ops.fail(format!("traced step {op}: {faults} worker(s) lost with no fault injected"));
        }
        self.last_grads = grads;
        self.global_step += 1;
    }
}

/// One timed block of `steps` engine steps; returns per-step milliseconds.
fn engine_block(engine: &mut Engine, steps: usize, ops: &mut Ops) -> Vec<f64> {
    (0..steps)
        .map(|_| {
            let t = Instant::now();
            job::step(engine, ops);
            job::ms(t)
        })
        .collect()
}

/// The traced section of one training workload: the decomposed step under
/// spans, alternating with untraced `Engine::step` blocks (pool, pool with
/// obs on, single thread) of the same job, then the single-layer probes.
pub fn run_traced(
    plan: TrainPlan,
    seed: u64,
    scale: &Scale,
    out: &Path,
) -> Result<(Ops, Metrics), String> {
    let plan = plan.scaled(scale);
    let placement = job::two_workers();
    job::require_cores(&placement)?;
    let cfg = plan.spec.config(seed);
    let mut ops = Ops::default();
    let reps = scale.probe_reps();
    let mut m = Metrics::new();

    let engine_new: Vec<f64> = (0..reps.min(5))
        .map(|_| {
            let t = Instant::now();
            drop(Engine::new_opts(cfg.clone(), placement.clone(), job::exec(ExecMode::Pool)));
            job::ms(t)
        })
        .collect();
    m.insert("engine.new_ms", median(&engine_new));

    let mut pool_engine =
        Engine::new_opts(cfg.clone(), placement.clone(), job::exec(ExecMode::Pool));
    let mut obs_engine =
        Engine::new_opts(cfg.clone(), placement.clone(), job::exec(ExecMode::Pool));
    let mut single_engine =
        Engine::new_opts(cfg.clone(), placement.clone(), job::exec(ExecMode::SingleThread));
    let mut decomposed = Decomposed::new(&cfg, placement.clone());
    let mut inline_workers = probes::scratch_workers(&cfg, &placement);
    let mut tr = Tracer::new();
    // Three pools of two workers are alive at once; only one steps at a time.
    crate::pin::pool_workers(3 * placement.n_workers());

    // The first step rebuilds the bucket layout: keep it out of the blocks.
    job::step(&mut pool_engine, &mut ops);
    job::step(&mut obs_engine, &mut ops);
    job::step(&mut single_engine, &mut ops);
    decomposed.step(&mut Tracer::new(), &mut ops);

    let steps = plan.traced_block_steps;
    let (mut pool_blocks, mut obs_blocks, mut single_blocks, mut traced_blocks) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut step_ms = Vec::new();
    let (mut local_us, mut contended_us, mut slowest_us, mut allreduce_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while job::secs(start) < scale.seconds || pool_blocks.len() < scale.min_blocks() {
        let block = engine_block(&mut pool_engine, steps, &mut ops);
        pool_blocks.push(block.iter().sum::<f64>());
        step_ms.extend(block);

        obs::enable(Box::new(MemorySink::shared()));
        obs_blocks.push(engine_block(&mut obs_engine, steps, &mut ops).iter().sum::<f64>());
        obs::disable();
        obs::reset();

        let t = Instant::now();
        for _ in 0..steps {
            decomposed.step(&mut tr, &mut ops);
        }
        traced_blocks.push(job::ms(t));

        single_blocks.push(engine_block(&mut single_engine, steps, &mut ops).iter().sum::<f64>());

        local_us.push(probes::local_step_us(&mut inline_workers));
        let (per_est, slowest) = probes::contended_steps_us(&mut inline_workers, 5);
        contended_us.push(per_est);
        slowest_us.push(slowest);
        let t = Instant::now();
        std::hint::black_box(decomposed.ddp.allreduce_avg(&decomposed.last_grads));
        allreduce_us.push(job::ms(t) * 1e3);
    }

    // The traced sequence is the engine's: same steps, same bits.
    let (a, b) = (job::params_fnv(&pool_engine), job::fnv64(&decomposed.params));
    ops.check(a == b && pool_engine.global_step() == decomposed.global_step, || {
        format!(
            "{}: decomposed step diverged from Engine::step: step {} params {b:016x} vs step {} params {a:016x}",
            plan.name,
            decomposed.global_step,
            pool_engine.global_step()
        )
    });

    let breakdown = spans::finish(&tr, out, plan.name, &mut ops)?;
    let self_p50 = |name: &str| breakdown.self_p50_ms(name);
    let ratio = breakdown.parts_over_whole;

    let (tail_pct, tail_ms) = tail(&step_ms);
    let step_p25 = p25(&step_ms);
    m.insert("engine.step_ms_p50", median(&step_ms));
    m.insert("engine.step_ms_tail", tail_ms);
    m.insert("engine.est_step_us", step_p25 * 1e3 / N_ESTS as f64);
    m.insert("pool.run_steps_ms", self_p50("pool.run_steps"));
    m.insert("pool.reduce_ms", self_p50("pool.reduce"));
    m.insert("pool.apply_us", self_p50("pool.apply") * 1e3);
    m.insert("pool.sync_us", self_p50("pool.run_steps") * 1e3 - median(&slowest_us));
    m.insert("pool.speedup_vs_single", p25(&single_blocks) / p25(&pool_blocks));
    m.insert("optim.step_us", self_p50("optim.step") * 1e3);
    m.insert("obs.enabled_step_ratio", p25(&obs_blocks) / p25(&pool_blocks));
    m.insert("trace.overhead_frac", p25(&traced_blocks) / p25(&pool_blocks) - 1.0);
    m.insert("trace.parts_over_whole", ratio);
    m.insert("worker.local_step_us", median(&local_us));
    m.insert("worker.contended_step_us", median(&contended_us));
    m.insert("comm.allreduce_us", median(&allreduce_us));
    m.insert(
        "comm.allreduce_bytes_per_step",
        (cfg.n_ests as usize * decomposed.params.len() * 4) as f64,
    );
    m.insert("comm.buckets_per_step", decomposed.ddp.layout().num_buckets() as f64);
    m.insert("comm.reduce_calls_per_step", placement.n_workers() as f64);
    drop((pool_engine, obs_engine, single_engine, decomposed));

    m.insert("pool.snapshot_capture_us", probes::snapshot_capture_us(&inline_workers[0], reps));
    m.insert("worker.ctx_switch_us", probes::ctx_switch_us(&cfg, &placement.slots[0], reps));
    m.insert("worker.new_ms", probes::worker_new_ms(&cfg, &placement.slots[0], reps.min(10)));
    m.insert("data.dataset_build_ms", probes::dataset_build_ms(&cfg, reps.min(10)));
    m.insert("data.next_batch_us", probes::next_batch_us(&cfg, reps));
    let (forward, backward) = probes::forward_backward_us(&cfg, reps);
    m.insert("models.forward_us", forward);
    m.insert("models.backward_us", backward);
    m.insert("models.apply_delta_us", probes::apply_delta_us(&cfg, reps));
    let (sum, dot, axpy) = probes::tensor_kernels_us(reps);
    m.insert("tensor.sum_us_64k", sum);
    m.insert("tensor.dot_us_64k", dot);
    m.insert("tensor.axpy_us_64k", axpy);
    m.insert("comm.exchange_roundtrip_us", probes::exchange_roundtrip_us(reps * 10));

    eprintln!(
        "  {}: {} rotations of {steps} steps; step p50 {:.3} ms, tail p{tail_pct} {tail_ms:.3} ms over {} steps",
        plan.name,
        pool_blocks.len(),
        median(&step_ms),
        step_ms.len()
    );
    Ok((ops, m))
}
