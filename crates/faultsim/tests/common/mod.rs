//! Fixtures shared by the faultsim integration tests (each test binary
//! pulls this in with `mod common;` and uses the part it needs).
#![allow(dead_code)]

use std::path::PathBuf;

use device::GpuType;
use easyscale::{Determinism, JobConfig};
use faultsim::HarnessConfig;
use models::Workload;
use sched::HealthPolicy;

/// A fresh, unique-per-process store directory for one run.
pub fn store_dir(suite: &str, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("easyscale-{suite}-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An 8-EST job on an 8-GPU cluster starting on `gpus` GPUs: every worker
/// count from 1 to 8 is a legal placement, and a ±1 rescale is always
/// schedulable.
pub fn wide_cfg(gpus: u32) -> impl Fn(PathBuf) -> HarnessConfig {
    move |store_dir| {
        let job = JobConfig::new(Workload::NeuMF, 4242, 8)
            .with_dataset_len(64)
            .with_determinism(Determinism::d1_d2());
        let lease_us = 2 * HarnessConfig::worst_step_us(&job, GpuType::V100);
        let mut cfg = HarnessConfig::default_chaos(store_dir);
        cfg.job = job;
        cfg.total_steps = 5;
        cfg.initial_gpus = gpus;
        cfg.cluster_gpus = 8;
        cfg.health = HealthPolicy::with_lease(lease_us);
        cfg.start_order = (0..gpus).collect();
        cfg
    }
}
