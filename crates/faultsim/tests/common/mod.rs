//! Fixtures shared by the faultsim integration tests (each test binary
//! pulls this in with `mod common;` and uses the part it needs).
#![allow(dead_code)]

use std::path::PathBuf;

use easyscale::{Determinism, ExecMode, JobConfig};
use faultsim::{FaultHarness, FaultSchedule, HarnessConfig, RunReport, DETECT_STEPS};
use models::Workload;

/// A fresh, unique-per-process store directory for one run.
pub fn store_dir(suite: &str, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("easyscale-{suite}-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The configuration `faultsim::run_case` uses: the chaos default, run for
/// `DETECT_STEPS` steps.
pub fn detect_cfg(store_dir: PathBuf) -> HarnessConfig {
    let mut cfg = HarnessConfig::default_chaos(store_dir);
    cfg.total_steps = DETECT_STEPS;
    cfg
}

/// An 8-EST job on an 8-GPU cluster starting on `gpus` GPUs: every worker
/// count from 1 to 8 is a legal placement, and a ±1 rescale is always
/// schedulable.
pub fn wide_cfg(gpus: u32) -> impl Fn(PathBuf) -> HarnessConfig {
    move |store_dir| {
        let mut cfg = HarnessConfig::default_chaos(store_dir);
        cfg.job = JobConfig::new(Workload::NeuMF, 4242, 8)
            .with_dataset_len(64)
            .with_determinism(Determinism::d1_d2());
        cfg.total_steps = 5;
        cfg.initial_gpus = gpus;
        cfg.cluster_gpus = 8;
        cfg
    }
}

/// Run `schedule` twice — once on the persistent N-thread pool, once
/// single-threaded — and assert the runs are byte-identical in every
/// deterministic output: final params, the supervisor's health-event log,
/// simulated elapsed time, crashes and replayed steps. Returns
/// `(pool, single)` for further per-suite assertions.
pub fn assert_pool_eq_single(
    tag: &str,
    make_cfg: impl Fn(PathBuf) -> HarnessConfig,
    schedule: &FaultSchedule,
) -> (RunReport, RunReport) {
    let run = |mode: ExecMode, side: &str| {
        let dir = store_dir("pool-eq-single", &format!("{tag}-{side}"));
        let mut cfg = make_cfg(dir.clone());
        cfg.exec_mode = mode;
        let report = FaultHarness::new(cfg, schedule.clone()).run();
        let _ = std::fs::remove_dir_all(&dir);
        report
    };
    let pool = run(ExecMode::Pool, "pool");
    let single = run(ExecMode::SingleThread, "single");

    assert_eq!(
        pool.params_bits(),
        single.params_bits(),
        "[{tag}] N-thread params must be byte-identical to 1-thread \
         (seed {}, kinds {:?})",
        schedule.seed,
        schedule.kinds()
    );
    // The health log is the detection record; Debug shows every field of
    // every event, so string equality is byte-identity of the log. It must
    // never see a thread fault either.
    assert_eq!(
        format!("{:?}", pool.health_events),
        format!("{:?}", single.health_events),
        "[{tag}] health logs must match"
    );
    assert_eq!(
        pool.sim_elapsed_us, single.sim_elapsed_us,
        "[{tag}] simulated time must match (it derives from EST loads, not threads; \
         thread-fault recovery is real time, never virtual)"
    );
    assert_eq!(pool.crashes, single.crashes, "[{tag}] crash counts must match");
    assert_eq!(pool.replayed_steps, single.replayed_steps, "[{tag}] replay counts must match");
    (pool, single)
}
