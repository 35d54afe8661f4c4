//! What the three training workloads share: job definitions, placements,
//! the timed rescale and fault operations, and the output checks.

use crate::report::Ops;
use comm::RetryPolicy;
use device::GpuType;
use easyscale::{
    CheckpointStore, Determinism, Engine, ExecMode, ExecOptions, JobConfig, Placement, ThreadFault,
};
use models::Workload;
use std::path::Path;
use std::time::Instant;

pub const N_ESTS: u32 = 8;

/// The pool's drain policy in every workload: faultsim's chaos policy, 6
/// windows from 10 ms, 630 ms in all. Under `ExecOptions::default()` one
/// injected panic would stall a step for 6.4 s.
pub fn chaos_drain() -> RetryPolicy {
    RetryPolicy { max_attempts: 6, base_backoff_us: 10_000, backoff_multiplier: 2 }
}

pub fn exec(mode: ExecMode) -> ExecOptions {
    ExecOptions { mode, device_ids: Vec::new(), drain: chaos_drain() }
}

/// One training job of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    pub workload: Workload,
    pub batch: usize,
    pub dataset: usize,
    pub d2: bool,
}

pub const COMPUTE: JobSpec =
    JobSpec { workload: Workload::ResNet18, batch: 8, dataset: 4096, d2: false };
pub const SYNC: JobSpec = JobSpec { workload: Workload::NeuMF, batch: 1, dataset: 2048, d2: false };
pub const CHURN: JobSpec = JobSpec { workload: Workload::Bert, batch: 8, dataset: 2048, d2: true };

impl JobSpec {
    /// `seed` is the only thing the run's `--seed` reaches the program by.
    pub fn config(&self, seed: u64) -> JobConfig {
        let determinism = if self.d2 { Determinism::d1_d2() } else { Determinism::d1() };
        JobConfig::new(self.workload, seed, N_ESTS)
            .with_dataset_len(self.dataset)
            .with_batch_size(self.batch)
            .with_determinism(determinism)
    }
}

/// 8 ESTs round-robin over two V100 workers: the steady-state placement.
pub fn two_workers() -> Placement {
    Placement::homogeneous(N_ESTS, 2, GpuType::V100)
}

pub fn one_worker() -> Placement {
    Placement::homogeneous(N_ESTS, 1, GpuType::V100)
}

/// The single-device-semantics reference: one EST per GPU, everything on
/// the caller's thread, never rescaled, never faulted.
pub fn reference_engine(cfg: &JobConfig) -> Engine {
    Engine::new_opts(
        cfg.clone(),
        Placement::one_est_per_gpu(N_ESTS, GpuType::V100),
        exec(ExecMode::SingleThread),
    )
}

/// Refuse a placement with more workers than cores: its threads would
/// time-slice and every number would be about the host's scheduler.
pub fn require_cores(placement: &Placement) -> Result<(), String> {
    let cores = crate::host::cores();
    if placement.n_workers() > cores {
        return Err(format!(
            "placement has {} workers but the host has {cores} core(s); refusing to measure",
            placement.n_workers()
        ));
    }
    Ok(())
}

pub fn fnv64(params: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in params {
        for b in p.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

pub fn params_fnv(engine: &Engine) -> u64 {
    fnv64(&engine.flat_params())
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One whole rescale, from the `checkpoint()` call to the return of the
/// first step on `next`: checkpoint, durable save, load of the newest valid
/// file, rebuild on the new placement, teardown of the old engine, first
/// step. The caller times it.
pub fn rescale_through_store(
    mut engine: Engine,
    store: &CheckpointStore,
    next: Placement,
    ops: &mut Ops,
) -> Engine {
    let cfg = engine.config().clone();
    let failed_before = ops.failed;
    let ckpt = engine.checkpoint();
    let loaded = match store.save(&ckpt).and_then(|_| store.load_latest_valid()) {
        Ok(Some((loaded, 0))) => loaded,
        Ok(Some((loaded, skipped))) => {
            ops.fail(format!("store skipped {skipped} corrupt file(s) nobody injected"));
            loaded
        }
        Ok(None) => {
            ops.fail("store holds no valid checkpoint right after a save");
            ckpt
        }
        Err(e) => {
            ops.fail(format!("checkpoint store: {e}"));
            ckpt
        }
    };
    let mut rebuilt = Engine::from_checkpoint_opts(cfg, next, &loaded, exec(ExecMode::Pool));
    drop(engine);
    step(&mut rebuilt, ops);
    if ops.failed == failed_before {
        ops.ok(1);
    }
    rebuilt
}

/// Hold every pool worker of `engine` on its own core (see `pin`). Threads
/// are respawned by a rescale and by a recovery, so call it after each.
pub fn pin_workers(engine: &Engine) {
    crate::pin::pool_workers(engine.placement().n_workers());
}

/// One global step; an `Err` counts as a failed operation.
pub fn step(engine: &mut Engine, ops: &mut Ops) -> f32 {
    match engine.try_step() {
        Ok(r) => {
            ops.ok(1);
            r.mean_loss
        }
        Err(e) => {
            ops.fail(format!("step {} failed: {e}", engine.global_step()));
            f32::NAN
        }
    }
}

/// Arm a panic on pool worker `slot`, run the step that hits it, and return
/// that step's wall time in milliseconds. The supervisor must report
/// exactly one recovery.
pub fn faulted_step(engine: &mut Engine, slot: usize, ops: &mut Ops) -> f64 {
    engine.take_pool_recoveries();
    if engine.inject_thread_fault(slot, ThreadFault::Panic).is_none() {
        ops.fail("engine has no pool threads to fault");
    }
    let t = Instant::now();
    step(engine, ops);
    let stall = ms(t);
    let recoveries = engine.take_pool_recoveries();
    ops.check(recoveries.len() == 1 && recoveries[0].kind == "worker-dead", || {
        format!("one injected panic gave {} recoveries: {recoveries:?}", recoveries.len())
    });
    stall
}

/// The injected panics are expected: keep their messages off the terminal
/// and let every other panic through.
pub fn silence_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.starts_with("injected ThreadPanic"));
        if !injected {
            default(info);
        }
    }));
}

/// A fresh, empty checkpoint directory under `out`.
pub fn open_store(out: &Path, name: &str) -> std::io::Result<CheckpointStore> {
    let dir = out.join(format!("ckpt-{name}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    CheckpointStore::open(&dir, name)
}

pub fn remove_store(out: &Path, name: &str) {
    let _ = std::fs::remove_dir_all(out.join(format!("ckpt-{name}-{}", std::process::id())));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_sees_bits_not_values() {
        assert_eq!(fnv64(&[]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(&[0.0]), fnv64(&[-0.0]), "signed zeros differ in bits");
        assert_ne!(fnv64(&[1.0, 2.0]), fnv64(&[2.0, 1.0]));
    }

    #[test]
    fn seed_reaches_the_job_config() {
        let cfg = CHURN.config(77);
        assert_eq!((cfg.seed, cfg.n_ests, cfg.batch_size, cfg.dataset_len), (77, 8, 8, 2048));
        assert!(cfg.determinism.hardware_agnostic);
        assert!(!COMPUTE.config(1).determinism.hardware_agnostic);
    }
}
