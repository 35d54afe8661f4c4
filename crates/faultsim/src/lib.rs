//! faultsim — deterministic fault injection for the EasyScale engine.
//!
//! A seeded [`FaultSchedule`] injects worker crashes, stragglers, GPU
//! preemptions, elastic scale-out/in, transient all-reduce failures, and
//! torn or bit-flipped checkpoint writes into a real training loop, at
//! global-step boundaries. The harness ([`FaultHarness`]) recovers from
//! each fault through the subsystem that owns it — durable checkpoints,
//! bounded comm retries, checksum fallback, scheduler re-proposal — and the
//! chaos-matrix tests assert the repo's strongest claim: **at full
//! determinism (D1+D2), the final model parameters after any fault schedule
//! are byte-identical to the fault-free run.**
//!
//! The *silent* fault kinds (crash-without-notification, creeping
//! straggler, heartbeat drop — [`FaultKind::is_silent`]) announce nothing:
//! the AIMaster's self-healing loop ([`sched::Supervisor`]) must discover
//! them from heartbeat leases and straggler scores alone, and the
//! [`detect`] matrix additionally asserts **bounded detection latency** on
//! SimClock time. The *thread* fault kinds ([`FaultKind::is_thread_fault`])
//! are real panics, stalls and dropped replies on pool worker threads; each
//! must come back as one supervised pool recovery, invisible to every
//! deterministic output.
//!
//! One driver, one of each: [`FaultHarness`] keeps one device table, one
//! detection ledger and one engine-building function; a run yields one
//! [`RunReport`], and [`run_judged`] adds its one serialisable view
//! ([`RunSummary`]: what `--json` prints and `detect_report.json` holds).
//! [`FaultSchedule::from_json`] is the one way a schedule enters from
//! outside: sorted, validated, a typed [`ScheduleError`] otherwise.
//!
//! Everything is a pure function of `(config, schedule)`: schedules come
//! from `esrng` Philox streams or JSON, time is simulated
//! ([`device::SimClock`]), and no wall clock is ever read — so any chaos
//! failure replays exactly from its seed.
//!
//! # Quick start
//!
//! ```
//! use faultsim::{FaultHarness, FaultSchedule, HarnessConfig, run_fault_free};
//!
//! let dir = std::env::temp_dir().join(format!("faultsim-doc-{}", std::process::id()));
//! let cfg = HarnessConfig::default_chaos(dir.clone());
//! let reference = run_fault_free(&cfg);
//! let schedule = FaultSchedule::generate(7, cfg.total_steps, 3);
//! let report = FaultHarness::new(cfg, schedule).run();
//! assert_eq!(report.final_params, reference); // byte-identical under faults
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![deny(missing_docs)]

pub mod detect;
pub mod harness;
pub mod schedule;

pub use detect::{run_case, run_matrix, silent_matrix, DetectCase, DetectReport, DETECT_STEPS};
pub use harness::{
    run_fault_free, run_judged, DetectionRecord, FaultHarness, HarnessConfig, InjectedEvent,
    RunReport, RunSummary,
};
pub use schedule::{FaultEvent, FaultKind, FaultSchedule, ScheduleError};
