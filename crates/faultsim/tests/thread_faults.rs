//! PR 9's tentpole, end to end: **real OS-thread faults inside the worker
//! pool are bitwise-invisible.** A pool thread that panics, stalls forever,
//! or silently drops its reply is reaped by the supervised drain deadline,
//! respawned from the engine's param mirror, and its round replayed — so a
//! pool run under any thread-fault schedule is byte-identical to the
//! single-thread run (where thread faults are structural no-ops): final
//! params, the MAIN supervisor health log, and simulated time all match.
//!
//! On top of byte-identity, every armed fault a step round consumed must
//! come back as a pool recovery on its slot (`RunReport::thread_detections`,
//! charged the drain policy's deterministic latency), and each one costs at
//! least one recorded respawn.

mod common;

use common::wide_cfg;
use faultsim::{FaultEvent, FaultKind, FaultSchedule, HarnessConfig, RunReport};
use std::path::PathBuf;

/// Run `schedule` on the pool and single-threaded, assert the deterministic
/// outputs are byte-identical, then assert the pool run's thread-fault
/// detection story: every armed fault tracked, every non-superseded one
/// resolved by its recovery, every detection backed by a respawn.
fn assert_thread_faults_invisible(
    tag: &str,
    make_cfg: impl Fn(PathBuf) -> HarnessConfig,
    schedule: FaultSchedule,
) {
    let (pool, single) = common::assert_pool_eq_single(tag, make_cfg, &schedule);
    assert_detections(tag, &schedule, &pool);
    // Single-thread engines have no pool threads: nothing to detect.
    assert!(single.thread_detections.is_empty(), "[{tag}] single-thread arms nothing");
    assert_eq!(single.pool_respawns, 0, "[{tag}] single-thread respawns nothing");
}

fn assert_detections(tag: &str, schedule: &FaultSchedule, pool: &RunReport) {
    let armed = schedule.events.iter().filter(|e| e.kind.is_thread_fault()).count();
    assert_eq!(
        pool.thread_detections.len(),
        armed,
        "[{tag}] every thread-fault event arms exactly one detection record"
    );
    assert!(
        pool.all_thread_faults_detected_within_bound(),
        "[{tag}] a thread fault missed its latency bound: {:?}",
        pool.thread_detections
    );
    let live: Vec<_> = pool.thread_detections.iter().filter(|d| !d.superseded).collect();
    for d in &live {
        assert!(d.detected_at_us.is_some(), "[{tag}] undetected live fault: {d:?}");
        assert!(
            d.latency_us.is_some_and(|l| l <= d.bound_us),
            "[{tag}] latency above bound: {d:?}"
        );
    }
    // Each live detection was resolved by a real recovery; spurious
    // deadline hits may add more respawns, never fewer.
    assert!(
        pool.pool_respawns >= live.len() as u64,
        "[{tag}] {} live faults but only {} respawns",
        live.len(),
        pool.pool_respawns
    );
}

// ---- hand-authored schedules -------------------------------------------

#[test]
fn hand_one_of_each_fault_kind_is_bitwise_invisible() {
    assert_thread_faults_invisible(
        "one-of-each",
        HarnessConfig::default_chaos,
        FaultSchedule::from_events(vec![
            FaultEvent { step: 1, kind: FaultKind::ThreadPanic { worker: 0 } },
            FaultEvent { step: 3, kind: FaultKind::ThreadStall { worker: 1 } },
            FaultEvent { step: 5, kind: FaultKind::ReplyDrop { worker: 0 } },
        ]),
    );
}

#[test]
fn hand_wide_pool_survives_faults_on_high_workers() {
    assert_thread_faults_invisible(
        "wide-w8",
        wide_cfg(8),
        FaultSchedule::from_events(vec![
            FaultEvent { step: 1, kind: FaultKind::ThreadPanic { worker: 3 } },
            FaultEvent { step: 2, kind: FaultKind::ReplyDrop { worker: 7 } },
            FaultEvent { step: 3, kind: FaultKind::ThreadStall { worker: 5 } },
        ]),
    );
}

#[test]
fn hand_thread_faults_compose_with_a_process_crash() {
    // The crash tears the whole pool down mid-run: recoveries already
    // caught must still resolve, the fault armed after the rebuild must
    // still be caught, and the bits must still match the single-thread run
    // taking the same crash.
    assert_thread_faults_invisible(
        "mixed-crash",
        HarnessConfig::default_chaos,
        FaultSchedule::from_events(vec![
            FaultEvent { step: 1, kind: FaultKind::ThreadPanic { worker: 1 } },
            FaultEvent { step: 3, kind: FaultKind::WorkerCrash },
            FaultEvent { step: 5, kind: FaultKind::ThreadStall { worker: 0 } },
        ]),
    );
}

// ---- seeded schedules, worker counts 2..=8 -----------------------------

#[test]
fn seeded_thread_fault_matrix_is_bitwise_invisible() {
    // Seven seeded schedules spanning every pool width from 2 to 8
    // workers; `generate_thread_faults` draws all three fault kinds.
    for seed in 0u64..7 {
        let gpus = 2 + (seed as u32 % 7); // 2..=8
        let schedule = FaultSchedule::generate_thread_faults(seed, 5, 3);
        assert_thread_faults_invisible(&format!("seed{seed}-w{gpus}"), wide_cfg(gpus), schedule);
    }
}
