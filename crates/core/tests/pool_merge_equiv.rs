//! The Pool merge path is bitwise unchanged by the kernel vectorization.
//!
//! `nthread_eq_single`-style check, one level deeper: the persistent
//! worker-pool's partitioned merge (`WorkerPool::reduce_supervised`, which fans
//! `reduce_buckets` out across worker threads and drains partials in
//! canonical order) must still reproduce — bit for bit — a from-scratch
//! oracle built on the *scalar* ring kernel, proving the vectorized
//! `ring_allreduce_gather` the pool now rides on changed no accumulation
//! tree anywhere in the merge.

use std::sync::Arc;

use comm::{ring_allreduce_scalar, ElasticDdp, RingSpec};
use device::GpuType;
use easyscale::{
    EasyScaleWorker, ExecOptions, JobConfig, Placement, PoolError, WorkerPool, WorkerSnapshot,
};
use models::Workload;

/// Scalar-oracle allreduce-average: per bucket, the element-outer /
/// rank-inner reference kernel; then the single average multiply.
fn scalar_oracle_avg(ddp: &ElasticDdp, grads: &[Vec<f32>]) -> Vec<f32> {
    let views: Vec<&[f32]> = grads.iter().map(|g| g.as_slice()).collect();
    let spec = RingSpec { nranks: grads.len() };
    let mut out = vec![0.0f32; grads[0].len()];
    for bucket in ddp.layout().buckets() {
        ring_allreduce_scalar(&views, &ddp.layout().bucket_positions(bucket), &spec, &mut out);
    }
    let scale = 1.0 / grads.len() as f32;
    for v in &mut out {
        *v *= scale;
    }
    out
}

#[test]
fn pool_reduce_matches_scalar_oracle_bitwise() {
    // Several worker counts: the bucket→partition assignment changes with
    // the thread count, so each W exercises a different merge fan-out; every
    // one must land on the same oracle bits.
    for gpus in [1u32, 2, 3, 4] {
        let n_ests = 4u32;
        let cfg = JobConfig::new(Workload::ResNet18, 7, n_ests).with_dataset_len(128);
        let placement = Placement::homogeneous(n_ests, gpus, GpuType::V100);
        let workers: Vec<EasyScaleWorker> =
            placement.slots.iter().map(|s| EasyScaleWorker::new(&cfg, s)).collect();
        let sizes = workers[0].model().param_sizes();
        let mut pool = WorkerPool::spawn(workers, &[], ExecOptions::default().drain);
        let mut respawn = |err: &PoolError, _: &WorkerSnapshot| -> Box<EasyScaleWorker> {
            panic!("fault-free run asked for a respawn: {err}")
        };

        let (mut locals, step_errors) = pool.run_steps_supervised(0, 0.05, &mut respawn);
        assert!(step_errors.is_empty(), "fault-free step round reported {step_errors:?}");
        locals.sort_by_key(|l| l.vrank);
        let grads: Arc<Vec<Vec<f32>>> = Arc::new(locals.into_iter().map(|l| l.grad).collect());
        let ddp = Arc::new(ElasticDdp::new(&sizes, cfg.n_ests, cfg.bucket_cap_bytes));

        let oracle = scalar_oracle_avg(&ddp, &grads);
        let (pooled, reduce_errors) = pool.reduce_supervised(&ddp, &grads, &mut respawn);
        assert!(reduce_errors.is_empty(), "fault-free reduce reported {reduce_errors:?}");
        assert_eq!(pooled.len(), oracle.len());
        assert!(
            pooled.iter().zip(&oracle).all(|(a, b)| a.to_bits() == b.to_bits()),
            "pool merge diverged from the scalar oracle at gpus={gpus}"
        );
    }
}
