//! The chaos matrix: every fault schedule converges to the fault-free bits.
//!
//! Each case drives a real engine (NeuMF, nEST=4, D1+D2) through a fault
//! schedule — seeded or hand-authored — and asserts the repo's strongest
//! claim: the final model parameters are **byte-identical** to the
//! fault-free run. The hand-authored schedules guarantee every
//! [`FaultKind`] is covered even if the seeded draws happen to miss one;
//! the seeded schedules cover interactions between faults.

mod common;

use std::path::PathBuf;

use faultsim::{
    run_fault_free, FaultEvent, FaultHarness, FaultKind, FaultSchedule, HarnessConfig, RunReport,
    DETECT_STEPS,
};

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("easyscale-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run one schedule and assert byte-identity against the fault-free
/// reference. Returns the report for additional per-case assertions.
fn assert_converges(tag: &str, schedule: FaultSchedule) -> RunReport {
    let dir = store_dir(tag);
    let cfg = HarnessConfig::default_chaos(dir.clone());
    let reference: Vec<u32> = run_fault_free(&cfg).iter().map(|p| p.to_bits()).collect();
    let report = FaultHarness::new(cfg, schedule.clone()).run();
    assert_eq!(
        report.params_bits(),
        reference,
        "schedule (seed {}, kinds {:?}) must converge to the fault-free bits",
        schedule.seed,
        schedule.kinds()
    );
    let _ = std::fs::remove_dir_all(&dir);
    report
}

// ---- hand-authored schedules: guaranteed coverage of every fault kind ----

#[test]
fn chaos_crash_and_checkpoint_damage() {
    // Crash, then a torn checkpoint write, then at-rest bit rot — all three
    // recovery paths through the durable store in one run.
    let report = assert_converges(
        "ckpt-damage",
        FaultSchedule::from_events(vec![
            FaultEvent { step: 2, kind: FaultKind::WorkerCrash },
            FaultEvent { step: 5, kind: FaultKind::TornCheckpoint { keep_frac_milli: 400 } },
            // Any bit: the checksum covers the stored bytes, so every flip
            // forces the last-good fallback. This one is deep in the payload.
            FaultEvent { step: 8, kind: FaultKind::BitFlippedCheckpoint { bit_index: 54_321 } },
        ]),
    );
    assert_eq!(report.crashes, 3);
    assert_eq!(report.recoveries, 3);
    assert!(
        report.torn_files_skipped >= 2,
        "torn + bit-flipped newest files must both be skipped, got {}",
        report.torn_files_skipped
    );
}

#[test]
fn chaos_elasticity_round_trip() {
    // Scale out onto the free GPUs, get preempted below the start size,
    // scale back in to a single survivor.
    let report = assert_converges(
        "elastic",
        FaultSchedule::from_events(vec![
            FaultEvent { step: 2, kind: FaultKind::ScaleOut { gpus: 2 } },
            FaultEvent { step: 5, kind: FaultKind::Preemption { gpus: 3 } },
            FaultEvent { step: 8, kind: FaultKind::ScaleIn { gpus: 2 } },
        ]),
    );
    assert_eq!(report.final_gpus, 1, "preempted to 1, scale-in floors at 1");
    assert_eq!(report.crashes, 0, "elastic events are planned, not crashes");
}

#[test]
fn chaos_comm_faults_transient_and_fatal() {
    // Two transient failures (inside the 4-attempt budget: absorbed by
    // retry, bitwise invisible) and one fatal burst (5 ≥ budget: the step
    // fails and the crash path runs), with a straggler dilating the middle.
    let report = assert_converges(
        "comm",
        FaultSchedule::from_events(vec![
            FaultEvent { step: 2, kind: FaultKind::CommFailure { failures: 2 } },
            FaultEvent {
                step: 4,
                kind: FaultKind::Straggler { worker: 1, factor_milli: 2500, steps: 2 },
            },
            FaultEvent { step: 7, kind: FaultKind::CommFailure { failures: 5 } },
        ]),
    );
    assert_eq!(report.crashes, 1, "only the exhausted burst kills the worker");
    assert_eq!(report.recoveries, 1);
    assert!(
        report.injected.iter().any(|e| e.kind == "comm_exhausted"),
        "the fatal burst must be recorded: {:?}",
        report.injected
    );
}

// ---- seeded schedules: fault interactions under random composition ----

#[test]
fn chaos_seeded_matrix() {
    // Six seeded schedules, 6 events each over 10 steps. Together with the
    // three hand-authored cases above this is a 9-schedule matrix; the
    // hand-authored ones already guarantee per-kind coverage, so the seeds
    // are free to land anywhere.
    for seed in [11, 22, 33, 44, 55, 66] {
        let schedule = FaultSchedule::generate(seed, 10, 6);
        let report = assert_converges(&format!("seed{seed}"), schedule.clone());
        assert_eq!(
            report.injected.len(),
            schedule.events.len()
                + report.injected.iter().filter(|e| e.kind == "comm_exhausted").count(),
            "every scheduled event fires exactly once (plus derived \
             comm-exhaustion records): {:?}",
            report.injected
        );
    }
}

#[test]
fn chaos_same_seed_reproduces_exactly() {
    let a = assert_converges("repro-a", FaultSchedule::generate(99, 10, 5));
    let b = assert_converges("repro-b", FaultSchedule::generate(99, 10, 5));
    assert_eq!(a.params_bits(), b.params_bits());
    assert_eq!(a.crashes, b.crashes);
    assert_eq!(a.replayed_steps, b.replayed_steps);
    assert_eq!(a.sim_elapsed_us, b.sim_elapsed_us, "simulated time is deterministic too");
}

#[test]
fn chaos_schedule_json_roundtrip_drives_identical_run() {
    // A schedule replayed from its JSON artifact behaves exactly like the
    // original — the property CI relies on to make failures replayable.
    let original = FaultSchedule::generate(123, 10, 6);
    let replayed = FaultSchedule::from_json(&original.to_json()).expect("roundtrip");
    assert_eq!(original, replayed);
    let a = assert_converges("json-a", original);
    let b = assert_converges("json-b", replayed);
    assert_eq!(a.params_bits(), b.params_bits());
    assert_eq!(a.sim_elapsed_us, b.sim_elapsed_us);
}

#[test]
fn chaos_unsorted_artifact_runs_like_the_sorted_one() {
    // A hand-edited artifact listing step 8 before step 2: the harness fires
    // events in list order, so loading must sort — or the "step 2" crash
    // would run at step 8 while the report still printed step 2.
    let sorted = FaultSchedule::from_events(vec![
        FaultEvent { step: 2, kind: FaultKind::WorkerCrash },
        FaultEvent { step: 8, kind: FaultKind::ScaleOut { gpus: 1 } },
    ]);
    let hand_edited =
        FaultSchedule { seed: 0, events: sorted.events.iter().rev().cloned().collect() };
    let loaded = FaultSchedule::from_json(&hand_edited.to_json()).expect("valid artifact");
    let a = assert_converges("sorted", sorted);
    let b = assert_converges("unsorted", loaded);
    let outcomes = |r: &RunReport| -> Vec<(u64, &'static str, String)> {
        r.injected.iter().map(|e| (e.step, e.kind, e.outcome.clone())).collect()
    };
    assert_eq!(outcomes(&a), outcomes(&b));
    assert!(outcomes(&a)[0].2.contains("recovered from checkpoint step 2"), "{:?}", outcomes(&a));
    assert_eq!(a.params_bits(), b.params_bits());
    assert_eq!(a.sim_elapsed_us, b.sim_elapsed_us);
    assert_eq!(a.replayed_steps, b.replayed_steps);
}

#[test]
fn chaos_events_are_observable() {
    // Injected and recovered events land in the obs registry. The registry
    // is process-global and tests run in parallel, so assert growth (>=)
    // rather than absolute counts.
    let sink = obs::sink::MemorySink::shared();
    obs::enable(Box::new(sink));
    let before_injected = obs::counter_value("faultsim.injected_total").unwrap_or(0);
    let before_recovered = obs::counter_value("faultsim.recoveries").unwrap_or(0);

    let report = assert_converges(
        "observable",
        FaultSchedule::from_events(vec![
            FaultEvent { step: 2, kind: FaultKind::WorkerCrash },
            FaultEvent { step: 5, kind: FaultKind::TornCheckpoint { keep_frac_milli: 300 } },
        ]),
    );
    assert_eq!(report.crashes, 2);

    let injected = obs::counter_value("faultsim.injected_total").unwrap_or(0);
    let recovered = obs::counter_value("faultsim.recoveries").unwrap_or(0);
    assert!(injected >= before_injected + 2, "both events recorded: {injected}");
    assert!(recovered >= before_recovered + 2, "both recoveries recorded: {recovered}");
    assert!(
        obs::counter_value("faultsim.injected.crash").unwrap_or(0) >= 1,
        "per-kind counters exist"
    );
}

#[test]
fn chaos_replay_never_refires_events() {
    // A crash at step 3 rewinds to the step-2 checkpoint; the scale-out
    // that fired at the same step-3 boundary must NOT fire again when the
    // replay reaches step 3 — otherwise the event count and the allocation
    // would both drift.
    let report = assert_converges(
        "one-shot",
        FaultSchedule::from_events(vec![
            FaultEvent { step: 3, kind: FaultKind::ScaleOut { gpus: 1 } },
            FaultEvent { step: 3, kind: FaultKind::WorkerCrash },
        ]),
    );
    let scale_outs = report.injected.iter().filter(|e| e.kind == "scale_out").count();
    assert_eq!(scale_outs, 1, "one-shot semantics: {:?}", report.injected);
    assert!(report.replayed_steps >= 1);
}

// ---- all three generator families in one schedule -----------------------

#[test]
fn chaos_mixed_families_converge() {
    // The generators are disjoint families (announced / silent / thread)
    // and every other seeded matrix draws from one of them. Here one
    // schedule concatenates all three, so a supervisor eviction can land
    // between a rescale and an armed thread fault, on the 14-step detection
    // config. Asserted: byte-identity, and that every thread fault still
    // live at the end got its recovery. The silent latency *bound* is not
    // asserted here: under cross-family interference it is missed on some
    // seeds while the bits stay identical (docs/HEALTH.md, "What the bound
    // does not cover").
    for seed in [3u64, 5, 8, 13, 21, 37] {
        let mut events = FaultSchedule::generate(seed, DETECT_STEPS, 3).events;
        events.extend(FaultSchedule::generate_silent(seed, DETECT_STEPS, 2).events);
        events.extend(FaultSchedule::generate_thread_faults(seed, DETECT_STEPS, 2).events);
        let schedule = FaultSchedule { seed, ..FaultSchedule::from_events(events) };

        let dir = store_dir(&format!("mixed{seed}"));
        let cfg = common::detect_cfg(dir.clone());
        let reference: Vec<u32> = run_fault_free(&cfg).iter().map(|p| p.to_bits()).collect();
        let report = FaultHarness::new(cfg, schedule.clone()).run();
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(report.params_bits(), reference, "mixed seed {seed}: {:?}", schedule.events);
        assert_eq!(report.thread_detections.len(), 2, "mixed seed {seed}: one record per arm");
        assert!(
            report.all_thread_faults_detected_within_bound(),
            "mixed seed {seed}: a live thread fault never got its recovery: {:?}",
            report.thread_detections
        );
    }
}
