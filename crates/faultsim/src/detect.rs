//! The silent-fault detection matrix: the suite of schedules the
//! self-healing control plane must handle *without being told anything*.
//!
//! Every case injects only silent fault kinds ([`FaultKind::is_silent`]) —
//! crash-without-notification, creeping straggler, heartbeat drop — and
//! asserts the two halves of the paper's §4 claim:
//!
//! 1. **bounded detection**: each non-superseded fault is flagged by the
//!    supervisor within its precomputed SimClock latency bound;
//! 2. **consistency**: the final model parameters are byte-identical to
//!    the fault-free run — detection and self-healing live entirely on the
//!    allocation path, never on the numeric path.
//!
//! [`run_matrix`] is what `scripts/ci.sh detect` runs; its report is
//! serialized to `results/detect_report.json`.

use std::path::Path;

use serde::Serialize;

use crate::harness::{run_judged, HarnessConfig, RunSummary};
use crate::schedule::{FaultEvent, FaultKind, FaultSchedule};

/// Seeds for the generated half of the matrix.
pub const DETECT_SEEDS: [u64; 3] = [70, 71, 72];

/// Steps a detection case runs: the chaos default's cluster, but long
/// enough that a creeping straggler injected in the first half always has
/// the timed rounds left for its score to converge.
pub const DETECT_STEPS: u64 = 14;

/// One matrix case: a named silent-fault schedule.
#[derive(Debug, Clone)]
pub struct DetectCase {
    /// Stable case name (used in reports and failure messages).
    pub name: String,
    /// The schedule to inject. Must contain only silent kinds.
    pub schedule: FaultSchedule,
}

/// The full silent-fault matrix: three hand-authored schedules covering
/// each silent kind in isolation, plus one generated schedule per seed in
/// [`DETECT_SEEDS`].
pub fn silent_matrix() -> Vec<DetectCase> {
    let ev = |step, kind| FaultEvent { step, kind };
    let hand = [
        ("silent-crash", vec![ev(3, FaultKind::SilentCrash { worker: 1 })]),
        (
            "creeping-straggler",
            vec![ev(
                2,
                FaultKind::CreepingStraggler { worker: 0, start_milli: 1200, ramp_milli: 400 },
            )],
        ),
        (
            "heartbeat-drop",
            vec![
                ev(0, FaultKind::HeartbeatDrop { worker: 1, beats: 12 }),
                // A benign-length drop on the other device: short enough
                // that the lease may survive it — the detector must not be
                // required to flag it, and the run must stay byte-identical
                // either way.
                ev(8, FaultKind::HeartbeatDrop { worker: 0, beats: 2 }),
            ],
        ),
    ];
    let hand = hand.into_iter().map(|(name, events)| DetectCase {
        name: name.to_string(),
        schedule: FaultSchedule::from_events(events),
    });
    let seeded = DETECT_SEEDS.into_iter().map(|seed| DetectCase {
        name: format!("seeded-{seed}"),
        schedule: FaultSchedule::generate_silent(seed, DETECT_STEPS, 2),
    });
    hand.chain(seeded).collect()
}

/// The matrix report `scripts/ci.sh detect` gates on.
#[derive(Debug, Clone, Serialize)]
pub struct DetectReport {
    /// Every case outcome, in matrix order.
    pub cases: Vec<RunSummary>,
    /// `"pass"` when every case passed, `"fail"` otherwise.
    pub status: String,
}

impl DetectReport {
    /// Whether every case passed.
    pub fn passed(&self) -> bool {
        self.cases.iter().all(RunSummary::passed)
    }
}

/// Run one case on the chaos default stretched to [`DETECT_STEPS`],
/// judged against the fault-free reference. `store_dir` must be unique per
/// case.
pub fn run_case(case: &DetectCase, store_dir: &Path) -> RunSummary {
    let mut cfg = HarnessConfig::default_chaos(store_dir.to_path_buf());
    cfg.total_steps = DETECT_STEPS;
    run_judged(&case.name, cfg, &case.schedule).1
}

/// Run the whole matrix under `base_dir` (one store subdirectory per case).
pub fn run_matrix(base_dir: &Path) -> DetectReport {
    let mut cases = Vec::new();
    for case in silent_matrix() {
        let dir = base_dir.join(&case.name);
        let _ = std::fs::remove_dir_all(&dir);
        let outcome = run_case(&case, &dir);
        obs::counter_add("faultsim.detect_cases_total", 1);
        if !outcome.passed() {
            obs::counter_add("faultsim.detect_cases_failed", 1);
        }
        cases.push(outcome);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let status = if cases.iter().all(RunSummary::passed) { "pass" } else { "fail" };
    DetectReport { cases, status: status.to_string() }
}
