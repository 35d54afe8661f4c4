//! The silent-fault detection matrix, as integration tests.
//!
//! Nothing announces these faults: the AIMaster supervisor must discover a
//! dead device from its lapsed heartbeat lease, a creeping straggler from
//! its z-score, and a muted device from its silence — and every case must
//! end with final parameters byte-identical to the fault-free run, with
//! detection inside the precomputed SimClock latency bound.
//!
//! The determinism tests pin the health-event log itself: serialized
//! byte-for-byte equal across repeat runs and across shuffled worker
//! start orders.

mod common;

use common::detect_cfg;
use faultsim::{
    run_case, run_fault_free, silent_matrix, FaultEvent, FaultHarness, FaultKind, FaultSchedule,
};
use sched::{HealthState, TransitionCause};
use std::path::PathBuf;

fn tmp(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("easyscale-detect-matrix-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The headline assertion: every matrix case — three hand-authored
/// schedules covering each silent kind plus three seeded ones — is
/// detected within its latency bound AND converges byte-identically.
#[test]
fn silent_fault_matrix_detects_within_bounds_and_stays_bitwise() {
    let cases = silent_matrix();
    assert!(cases.len() >= 6, "the matrix must hold at least 6 schedules");
    let mut kinds_seen = std::collections::BTreeSet::new();
    for case in &cases {
        for ev in &case.schedule.events {
            assert!(ev.kind.is_silent(), "{}: only silent kinds belong here", case.name);
            kinds_seen.insert(ev.kind.name());
        }
    }
    assert_eq!(
        kinds_seen.into_iter().collect::<Vec<_>>(),
        vec!["creeping_straggler", "heartbeat_drop", "silent_crash"],
        "the matrix must cover every silent kind"
    );

    for case in &cases {
        let dir = tmp(&format!("matrix-{}", case.name));
        let outcome = run_case(case, &dir);
        assert!(
            outcome.bitwise_identical,
            "{}: final params diverged from the fault-free run",
            case.name
        );
        assert!(
            outcome.all_detected_within_bound,
            "{}: a detection missed its latency bound: {:?}",
            case.name, outcome.detections
        );
        assert!(
            !outcome.detections.is_empty(),
            "{}: every case must arm at least one detection",
            case.name
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A silent crash is discovered through its lapsed lease: the device is
/// quarantined with `LeaseMiss` as the cause, evicted with a crash
/// assumed (checkpoint fallback), and never readmitted.
#[test]
fn silent_crash_is_quarantined_on_lease_miss_and_rolled_back() {
    let dir = tmp("crash-cause");
    let cfg = detect_cfg(dir.clone());
    let reference = run_fault_free(&cfg);
    let schedule = FaultSchedule::from_events(vec![FaultEvent {
        step: 3,
        kind: FaultKind::SilentCrash { worker: 0 },
    }]);
    let report = FaultHarness::new(cfg, schedule).run();
    assert_eq!(report.final_params, reference);
    let quarantine = report
        .health_events
        .iter()
        .find(|e| e.to == HealthState::Quarantined)
        .expect("the corpse must be quarantined");
    assert!(
        matches!(quarantine.cause, TransitionCause::LeaseMiss { .. }),
        "a silent crash is a lease story, got {:?}",
        quarantine.cause
    );
    assert_eq!(report.evictions, 1);
    assert_eq!(report.readmissions, 0, "a dead device never comes back");
    assert!(report.crashes >= 1, "lost lease ⇒ fall back to the last-good checkpoint");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A creeping straggler is discovered through its z-score: quarantined
/// with `StragglerScore` as the cause, evicted *without* a rollback
/// (it is slow, not dead), and flap-damped — each failed probation doubles
/// the backoff until the quarantine becomes permanent.
#[test]
fn creeping_straggler_is_scored_out_and_flap_damped() {
    let dir = tmp("creep-cause");
    let cfg = detect_cfg(dir.clone());
    let reference = run_fault_free(&cfg);
    let schedule = FaultSchedule::from_events(vec![FaultEvent {
        step: 2,
        kind: FaultKind::CreepingStraggler { worker: 0, start_milli: 1200, ramp_milli: 400 },
    }]);
    let report = FaultHarness::new(cfg, schedule).run();
    assert_eq!(report.final_params, reference);
    assert!(
        report.health_events.iter().any(|e| e.to == HealthState::Quarantined
            && matches!(e.cause, TransitionCause::StragglerScore { .. })),
        "a creeper is a score story: {:?}",
        report.health_events
    );
    assert_eq!(report.crashes, 0, "a straggler is alive: no checkpoint fallback");
    assert!(report.evictions >= 1);
    assert!(
        report.readmissions >= 1,
        "backoff elapses, the creeper gets a probation it then fails"
    );
    assert!(
        report.evictions > report.readmissions,
        "every readmission of a still-creeping device fails probation and re-evicts"
    );
    assert!(
        report.health_events.iter().any(|e| matches!(e.cause, TransitionCause::FlapLimit)),
        "repeated failed probations must end in a permanent quarantine"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A long heartbeat drop trips the lease into Suspect; when the beats
/// resume the device recovers (`HeartbeatResumed`). A benign two-beat drop
/// must not be quarantined. Both runs stay byte-identical trivially —
/// detection never touches the numeric path.
#[test]
fn heartbeat_drop_goes_suspect_then_recovers() {
    let dir = tmp("drop-cause");
    let cfg = detect_cfg(dir.clone());
    let reference = run_fault_free(&cfg);
    // Injected at step 0 so the mute ends with rounds to spare: the beats
    // must actually resume for the recovery transition to exist.
    let schedule = FaultSchedule::from_events(vec![
        FaultEvent { step: 0, kind: FaultKind::HeartbeatDrop { worker: 1, beats: 12 } },
        FaultEvent { step: 8, kind: FaultKind::HeartbeatDrop { worker: 0, beats: 2 } },
    ]);
    let report = FaultHarness::new(cfg, schedule).run();
    assert_eq!(report.final_params, reference);
    let muted = report
        .health_events
        .iter()
        .find(|e| e.to == HealthState::Suspect)
        .expect("a 12-beat mute must at least raise suspicion");
    assert!(
        report.health_events.iter().any(|e| e.device == muted.device
            && e.to == HealthState::Healthy
            && matches!(e.cause, TransitionCause::HeartbeatResumed)),
        "once beats resume, the device must be cleared: {:?}",
        report.health_events
    );
    // The benign 2-beat drop targets the *other* device; it must never be
    // quarantined for it.
    assert!(
        !report
            .health_events
            .iter()
            .any(|e| e.device != muted.device && e.to == HealthState::Quarantined),
        "a 2-beat drop is benign: {:?}",
        report.health_events
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The health-event log is a pure function of `(config, schedule)`:
/// running the same case twice yields serialized logs equal byte for byte.
#[test]
fn health_event_log_is_byte_identical_across_repeat_runs() {
    for case in silent_matrix() {
        let dir_a = tmp(&format!("repeat-a-{}", case.name));
        let dir_b = tmp(&format!("repeat-b-{}", case.name));
        let a = run_case(&case, &dir_a);
        let b = run_case(&case, &dir_b);
        assert_eq!(
            serde_json::to_vec(&a.health_events).unwrap(),
            serde_json::to_vec(&b.health_events).unwrap(),
            "{}: health-event log must be deterministic",
            case.name
        );
        assert_eq!(
            serde_json::to_vec(&a.detections).unwrap(),
            serde_json::to_vec(&b.detections).unwrap(),
            "{}: detection records must be deterministic",
            case.name
        );
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }
}

/// The order workers announce themselves in is a race in real clusters;
/// here it must be invisible: any permutation of `start_order` yields the
/// same health-event log, byte for byte (the heartbeat bus canonicalizes
/// and the tracker iterates in device order).
#[test]
fn health_event_log_is_invariant_under_shuffled_start_order() {
    let schedule = FaultSchedule::from_events(vec![FaultEvent {
        step: 3,
        kind: FaultKind::SilentCrash { worker: 1 },
    }]);
    let mut logs = Vec::new();
    for (tag, order) in [("fwd", vec![0, 1]), ("rev", vec![1, 0])] {
        let dir = tmp(&format!("order-{tag}"));
        let mut cfg = detect_cfg(dir.clone());
        cfg.start_order = order;
        let report = FaultHarness::new(cfg, schedule.clone()).run();
        logs.push((serde_json::to_vec(&report.health_events).unwrap(), report.params_bits()));
        std::fs::remove_dir_all(&dir).unwrap();
    }
    assert_eq!(logs[0].0, logs[1].0, "start order must not leak into the health log");
    assert_eq!(logs[0].1, logs[1].1, "nor, of course, into the bits");
}
