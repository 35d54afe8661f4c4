//! Single-layer timings taken beside a traced run: each calls one public
//! function of one crate, repeatedly, on the job the section is about, and
//! keeps the median.

use crate::job;
use crate::stats::median;
use comm::{Exchange, RetryPolicy};
use data::{AugmentConfig, Augmenter, DataWorkerPool, ShardedLoader};
use easyscale::worker::make_dataset;
use easyscale::{
    EasyScaleWorker, EstContext, JobConfig, Placement, Slot, WorkerPool, WorkerSnapshot,
};
use models::zoo::{self, build_proxy, InputKind};
use models::ExecCtx;
use std::hint::black_box;
use std::time::Instant;
use tensor::ops::{cross_entropy, softmax_rows};
use tensor::{KernelProfile, Tensor};

/// Median of `reps` samples of `f`, each a wall time in microseconds.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

pub fn worker_new_ms(cfg: &JobConfig, slot: &Slot, reps: usize) -> f64 {
    median_us(reps, || drop(black_box(EasyScaleWorker::new(cfg, slot)))) / 1e3
}

pub fn dataset_build_ms(cfg: &JobConfig, reps: usize) -> f64 {
    median_us(reps, || drop(black_box(make_dataset(cfg)))) / 1e3
}

/// Context-switch cost per EST: a local-step round with the implicit-state
/// swap and RNG capture, minus one without, on a scratch worker.
pub fn ctx_switch_us(cfg: &JobConfig, slot: &Slot, reps: usize) -> f64 {
    let mut worker = EasyScaleWorker::new(cfg, slot);
    worker.run_local_steps();
    let mut with = Vec::with_capacity(reps);
    let mut without = Vec::with_capacity(reps);
    for _ in 0..reps {
        for (switching, into) in [(true, &mut with), (false, &mut without)] {
            let t = Instant::now();
            black_box(worker.run_local_steps_opts(switching));
            into.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    (median(&with) - median(&without)) / slot.vranks.len() as f64
}

/// Local-step time per EST of each slot's worker, one worker at a time on
/// this thread, microseconds.
pub fn local_step_us(workers: &mut [EasyScaleWorker]) -> f64 {
    let per_est: Vec<f64> = workers
        .iter_mut()
        .map(|w| {
            let t = Instant::now();
            black_box(w.run_local_steps());
            t.elapsed().as_secs_f64() * 1e6 / w.n_ests() as f64
        })
        .collect();
    median(&per_est)
}

/// The same rounds with every worker stepping at once, each on its own
/// thread, as they do inside the pool but with none of its plumbing: the
/// local step under whatever the workers cost each other on this host.
/// Returns `(us_per_est, slowest_us)` over `rounds` back-to-back rounds.
pub fn contended_steps_us(workers: &mut [EasyScaleWorker], rounds: usize) -> (f64, f64) {
    let start = std::sync::Barrier::new(workers.len());
    let per_worker: Vec<(f64, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|w| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    let samples: Vec<f64> = (0..rounds)
                        .map(|_| {
                            let t = Instant::now();
                            black_box(w.run_local_steps());
                            t.elapsed().as_secs_f64() * 1e6
                        })
                        .collect();
                    let us = median(&samples);
                    (us / w.n_ests() as f64, us)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a scratch worker panicked")).collect()
    });
    let per_est: Vec<f64> = per_worker.iter().map(|p| p.0).collect();
    (median(&per_est), per_worker.iter().map(|p| p.1).fold(0.0, f64::max))
}

pub fn scratch_workers(cfg: &JobConfig, placement: &Placement) -> Vec<EasyScaleWorker> {
    placement.slots.iter().map(|s| EasyScaleWorker::new(cfg, s)).collect()
}

pub fn pool_spawn_ms(cfg: &JobConfig, placement: &Placement, reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let workers = scratch_workers(cfg, placement);
            let t = Instant::now();
            drop(WorkerPool::spawn(workers, &[], job::chaos_drain()));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

pub fn snapshot_capture_us(worker: &EasyScaleWorker, reps: usize) -> f64 {
    median_us(reps, || drop(black_box(WorkerSnapshot::capture(worker))))
}

/// The data pool a worker builds for itself, built the same way.
fn data_pool(cfg: &JobConfig) -> DataWorkerPool {
    let image = zoo::input_kind(cfg.workload) == InputKind::Image;
    let augmenter = (cfg.augment && image).then(|| Augmenter::new(AugmentConfig::default()));
    let loader = ShardedLoader::new(
        make_dataset(cfg),
        cfg.n_ests,
        cfg.batch_size,
        cfg.seed,
        true,
        augmenter,
    );
    DataWorkerPool::new(loader, cfg.data_workers, 2)
}

pub fn next_batch_us(cfg: &JobConfig, reps: usize) -> f64 {
    let mut pool = data_pool(cfg);
    pool.next_batch(0);
    median_us(reps, || drop(black_box(pool.next_batch(0))))
}

/// `(forward_us, backward_us)` of one mini-batch through the proxy model,
/// with the loss between them as the worker computes it.
pub fn forward_backward_us(cfg: &JobConfig, reps: usize) -> (f64, f64) {
    let mut model = build_proxy(cfg.workload, cfg.seed);
    let mut pool = data_pool(cfg);
    let profile = cfg.determinism.profile_for(device::GpuType::V100);
    let mut dropout = EstContext::fresh(cfg.seed, 0, model.implicit_state()).dropout_rng();
    let mut forward = Vec::with_capacity(reps);
    let mut backward = Vec::with_capacity(reps);
    for _ in 0..reps {
        let batch = pool.next_batch(0);
        let mut ctx = ExecCtx { profile, training: true, dropout: &mut dropout };
        let t = Instant::now();
        let logits = model.forward(&batch.features, &mut ctx);
        forward.push(t.elapsed().as_secs_f64() * 1e6);
        let probs = softmax_rows(&logits, &profile);
        let (_, grad_logits) = cross_entropy(&probs, &batch.labels, &profile);
        let t = Instant::now();
        black_box(model.backward(&grad_logits, &mut ctx));
        backward.push(t.elapsed().as_secs_f64() * 1e6);
        model.zero_grads();
    }
    (median(&forward), median(&backward))
}

pub fn apply_delta_us(cfg: &JobConfig, reps: usize) -> f64 {
    let mut model = build_proxy(cfg.workload, cfg.seed);
    let delta = vec![1e-9f32; model.num_params()];
    median_us(reps, || model.apply_flat_delta(black_box(&delta)))
}

/// `(sum, dot, axpy)` over 65 536 f32, microseconds: bench_gate's three
/// `kernel_*_len65536` benches, same inputs.
pub fn tensor_kernels_us(reps: usize) -> (f64, f64, f64) {
    let data: Vec<f32> =
        (0..65_536).map(|i| ((i * 31) as f32).sin() * 10f32.powi(i % 5 - 2)).collect();
    let sum_profile =
        KernelProfile { reduce_block: 128, tile_k: 16, algo_id: 0, deterministic: true };
    let sum = median_us(reps, || {
        black_box(tensor::kernels::blocked_sum(black_box(&data), &sum_profile));
    });
    let agnostic = KernelProfile::hardware_agnostic();
    let other: Vec<f32> = data.iter().map(|x| x * 0.5 + 1.0).collect();
    let dot = median_us(reps, || {
        black_box(tensor::ops::dot(black_box(&data), black_box(&other), &agnostic));
    });
    let mut x = Tensor::from_slice(&data);
    let y = Tensor::from_slice(&data);
    let axpy = median_us(reps, || x.axpy_(black_box(1e-6), black_box(&y)));
    (sum, dot, axpy)
}

/// One hop out and one hop back between two threads over keyed exchanges:
/// this thread publishes, a second thread drains and publishes the reply,
/// this thread drains it under the pool's deadline policy.
pub fn exchange_roundtrip_us(reps: usize) -> f64 {
    let mut there: Exchange<u64> = Exchange::new();
    let mut back: Exchange<u64> = Exchange::new();
    let ping = there.handle();
    let pong = back.handle();
    there.seal();
    back.seal();
    let policy = job::chaos_drain();
    let mut samples = Vec::with_capacity(reps);
    std::thread::scope(|s| {
        s.spawn(move || {
            for _ in 0..reps {
                let (_, n) = there.drain_sorted(1).pop().expect("one ping");
                pong.publish(0, n);
            }
        });
        for i in 0..reps as u64 {
            let t = Instant::now();
            ping.publish(0, i);
            let reply = back.drain_deadline(1, &policy).expect("the echo thread answers");
            samples.push(t.elapsed().as_secs_f64() * 1e6);
            assert_eq!(reply[0].1, i);
        }
    });
    median(&samples)
}

/// How long a deadline drain waits for a publisher that never publishes:
/// what a dead worker costs before the supervisor acts.
pub fn drain_detect_ms(policy: &RetryPolicy, reps: usize) -> f64 {
    let mut exchange: Exchange<u64> = Exchange::new();
    let _silent = exchange.handle();
    exchange.seal();
    median_us(reps, || {
        assert!(exchange.drain_deadline(1, policy).is_err(), "nobody publishes");
    }) / 1e3
}
