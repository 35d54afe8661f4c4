//! The harness's own oracle: every deterministic output of a chaos run,
//! pinned per schedule as one FNV-1a-64 digest.
//!
//! The matrices next to this file assert *relations* (chaos ≡ fault-free,
//! pool ≡ single-thread, detected within bound). None of them would notice
//! a rewrite of the harness's bookkeeping that moved a `SimClock` value, a
//! health-log entry or a detection record while keeping those relations —
//! this file does. A digest covers the final parameter bits, the MAIN
//! health log, every field of every silent-fault detection record, every
//! injected `(step, kind, outcome)`, and the report's scalars; for thread
//! faults only what is a function of the schedule (device, kind, injection
//! instant, superseded, resolved-or-not — their latency is a policy
//! constant and deliberately left out). `pool_respawns` / `pool_quarantines`
//! stay out too: a spurious deadline hit on a loaded host may add one.
//!
//! Generator output is pinned as well (`to_json()` of seeds 0..16), so a
//! shared draw loop cannot silently reorder a draw.
//!
//! On a mismatch the test prints the whole table it computed, ready to
//! paste — but a changed digest is a behaviour change and has to be
//! explained, not pasted.

mod common;

use std::path::PathBuf;

use common::{store_dir, wide_cfg};
use faultsim::{
    silent_matrix, FaultEvent, FaultHarness, FaultKind, FaultSchedule, HarnessConfig, RunReport,
};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// One field: its text, then a separator no field contains.
    fn field(&mut self, text: &str) {
        self.bytes(text.as_bytes());
        self.bytes(&[0x1f]);
    }
}

fn digest(r: &RunReport) -> u64 {
    let mut h = Fnv::new();
    for bits in r.params_bits() {
        h.bytes(&bits.to_le_bytes());
    }
    h.field(&format!("{:?}", r.health_events));
    for d in &r.detections {
        h.field(&format!(
            "{} {} {} {} {:?} {:?} {} {}",
            d.device,
            d.kind,
            d.injected_at_us,
            d.bound_us,
            d.detected_at_us,
            d.latency_us,
            d.within_bound,
            d.superseded
        ));
    }
    for e in &r.injected {
        h.field(&format!("{} {} {}", e.step, e.kind, e.outcome));
    }
    h.field(&format!(
        "{} {} {} {} {} {} {} {}",
        r.sim_elapsed_us,
        r.crashes,
        r.recoveries,
        r.replayed_steps,
        r.torn_files_skipped,
        r.final_gpus,
        r.evictions,
        r.readmissions
    ));
    for d in &r.thread_detections {
        h.field(&format!(
            "{} {} {} {} {}",
            d.device,
            d.kind,
            d.injected_at_us,
            d.superseded,
            d.detected_at_us.is_some()
        ));
    }
    h.0
}

fn run(
    tag: &str,
    make_cfg: impl Fn(PathBuf) -> HarnessConfig,
    schedule: FaultSchedule,
) -> RunReport {
    let dir = store_dir("golden", tag);
    let report = FaultHarness::new(make_cfg(dir.clone()), schedule).run();
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// The 14-step detection config (`default_chaos` with a longer run).
fn detect_cfg(dir: PathBuf) -> HarnessConfig {
    let mut cfg = HarnessConfig::default_chaos(dir);
    cfg.total_steps = 14;
    cfg
}

fn check(table: &str, expected: &[(&str, u64)], actual: &[(String, u64)]) {
    let same = expected.len() == actual.len()
        && expected.iter().zip(actual).all(|(e, a)| e.0 == a.0 && e.1 == a.1);
    if !same {
        let rows: String =
            actual.iter().map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n")).collect();
        panic!("{table}: digests moved. Computed:\n{rows}");
    }
}

fn ev(step: u64, kind: FaultKind) -> FaultEvent {
    FaultEvent { step, kind }
}

// ---- announced faults on the chaos default ------------------------------

const CHAOS: &[(&str, u64)] = &[
    ("ckpt-damage", 0xd65949f4a4e31d8b),
    ("elastic", 0x7833c16276db1128),
    ("comm", 0xa8e2c416d47bc64b),
    ("seed-11", 0x489daa9e3138daa1),
    ("seed-22", 0x5b0faeefbe81989c),
    ("seed-33", 0x9f815b586ef2a324),
    ("seed-44", 0x2cb57c5301266382),
    ("seed-55", 0x59959e1a5de88ef2),
    ("seed-66", 0x7c26b8652acf1cfd),
    ("seed-99", 0xb2a93f05b0317a2f),
    ("seed-123", 0x89dfd316a23414b6),
];

/// `faultsim --seed S --steps 10 --events 6 --json` on the parent:
/// (seed, crashes, replayed_steps, torn_files_skipped, sim_elapsed_us, final_gpus).
const CHAOS_ANCHORS: [(u64, u32, u64, u32, u64, u32); 6] = [
    (11, 4, 3, 2, 18_604_600, 2),
    (22, 3, 5, 2, 12_483_000, 4),
    (33, 1, 1, 0, 15_744_691, 2),
    (44, 2, 3, 2, 9_462_952, 4),
    (55, 1, 1, 0, 12_807_207, 1),
    (66, 2, 1, 0, 15_706_004, 1),
];

#[test]
fn chaos_schedules_are_pinned() {
    let hand = [
        (
            "ckpt-damage",
            vec![
                ev(2, FaultKind::WorkerCrash),
                ev(5, FaultKind::TornCheckpoint { keep_frac_milli: 400 }),
                ev(8, FaultKind::BitFlippedCheckpoint { bit_index: 54_321 }),
            ],
        ),
        (
            "elastic",
            vec![
                ev(2, FaultKind::ScaleOut { gpus: 2 }),
                ev(5, FaultKind::Preemption { gpus: 3 }),
                ev(8, FaultKind::ScaleIn { gpus: 2 }),
            ],
        ),
        (
            "comm",
            vec![
                ev(2, FaultKind::CommFailure { failures: 2 }),
                ev(4, FaultKind::Straggler { worker: 1, factor_milli: 2500, steps: 2 }),
                ev(7, FaultKind::CommFailure { failures: 5 }),
            ],
        ),
    ];
    let mut actual = Vec::new();
    for (name, events) in hand {
        let r = run(name, HarnessConfig::default_chaos, FaultSchedule::from_events(events));
        actual.push((name.to_string(), digest(&r)));
    }
    for seed in [11u64, 22, 33, 44, 55, 66, 99, 123] {
        let name = format!("seed-{seed}");
        let r = run(&name, HarnessConfig::default_chaos, FaultSchedule::generate(seed, 10, 6));
        if let Some(a) = CHAOS_ANCHORS.iter().find(|a| a.0 == seed) {
            assert_eq!(
                (r.crashes, r.replayed_steps, r.torn_files_skipped, r.sim_elapsed_us, r.final_gpus),
                (a.1, a.2, a.3, a.4, a.5),
                "{name}: anchor moved"
            );
        }
        actual.push((name, digest(&r)));
    }
    check("CHAOS", CHAOS, &actual);
}

// ---- the benchmark's own chaos run --------------------------------------

const BENCH: &[(&str, u64)] = &[
    ("bench-1-replayed-13", 0x029a12a64650eda6),
    ("bench-20230811-replayed-4", 0xc1671754000f923e),
];

/// What `benchmark/src/churn.rs::chaos_run` drives at full scale;
/// `faultsim.replayed_steps` is one of the benchmark's per-layer metrics.
#[test]
fn the_benchmarks_chaos_run_is_pinned() {
    let mut actual = Vec::new();
    for seed in [1u64, 20_230_811] {
        let name = format!("bench-{seed}");
        let make_cfg = |dir| {
            let mut cfg = HarnessConfig::default_chaos(dir);
            cfg.job.seed = seed;
            cfg.total_steps = 60;
            cfg
        };
        let r = run(&name, make_cfg, FaultSchedule::generate(seed, 60, 12));
        actual.push((format!("{name}-replayed-{}", r.replayed_steps), digest(&r)));
    }
    check("BENCH", BENCH, &actual);
}

// ---- silent faults on the 14-step detection config ----------------------

const SILENT: &[(&str, u64)] = &[
    ("silent-crash", 0xc5f476a45b7ac840),
    ("creeping-straggler", 0xf2eba606257719fd),
    ("heartbeat-drop", 0xa37144677e513ed5),
    ("seeded-70", 0xf68ee45a49eaba88),
    ("seeded-71", 0xfb9e2c95299a6619),
    ("seeded-72", 0x82e237afd1d0f961),
];

/// (case, evictions, readmissions) measured on the parent.
const SILENT_ANCHORS: [(&str, u32, u32); 6] = [
    ("silent-crash", 1, 0),
    ("creeping-straggler", 3, 2),
    ("heartbeat-drop", 0, 0),
    ("seeded-70", 1, 0),
    ("seeded-71", 1, 0),
    ("seeded-72", 1, 0),
];

#[test]
fn silent_matrix_is_pinned() {
    let mut actual = Vec::new();
    for (case, anchor) in silent_matrix().into_iter().zip(SILENT_ANCHORS) {
        let r = run(&case.name, detect_cfg, case.schedule);
        assert_eq!(
            (case.name.as_str(), r.evictions, r.readmissions),
            anchor,
            "{}: anchor moved",
            case.name
        );
        actual.push((case.name, digest(&r)));
    }
    check("SILENT", SILENT, &actual);
}

// ---- real thread faults on the pool -------------------------------------

const THREAD_HAND: &[(&str, u64)] = &[
    ("one-of-each", 0xdce8398bdc37dc89),
    ("wide-w8", 0xda3d587ef5c28c08),
    ("mixed-crash", 0xb4adef9fbb75a90c),
];

#[test]
fn hand_authored_thread_fault_schedules_are_pinned() {
    let one_of_each = FaultSchedule::from_events(vec![
        ev(1, FaultKind::ThreadPanic { worker: 0 }),
        ev(3, FaultKind::ThreadStall { worker: 1 }),
        ev(5, FaultKind::ReplyDrop { worker: 0 }),
    ]);
    let wide = FaultSchedule::from_events(vec![
        ev(1, FaultKind::ThreadPanic { worker: 3 }),
        ev(2, FaultKind::ReplyDrop { worker: 7 }),
        ev(3, FaultKind::ThreadStall { worker: 5 }),
    ]);
    let mixed_crash = FaultSchedule::from_events(vec![
        ev(1, FaultKind::ThreadPanic { worker: 1 }),
        ev(3, FaultKind::WorkerCrash),
        ev(5, FaultKind::ThreadStall { worker: 0 }),
    ]);
    let actual = vec![
        (
            "one-of-each".to_string(),
            digest(&run("one-of-each", HarnessConfig::default_chaos, one_of_each)),
        ),
        ("wide-w8".to_string(), digest(&run("wide-w8", wide_cfg(8), wide))),
        (
            "mixed-crash".to_string(),
            digest(&run("mixed-crash", HarnessConfig::default_chaos, mixed_crash)),
        ),
    ];
    check("THREAD_HAND", THREAD_HAND, &actual);
}

const THREAD_SEEDED: &[(&str, u64)] = &[
    ("seed0-w2", 0xa8d361053cf157d1),
    ("seed1-w3", 0x3efde1ffbd4fb157),
    ("seed2-w4", 0x1c3206cbbd43f837),
    ("seed3-w5", 0x3d3cb08ab4d06952),
    ("seed4-w6", 0x3c53b2954a7f5f9a),
    ("seed5-w7", 0x2e559abe7b305f05),
    ("seed6-w8", 0x2227cb56d0023e31),
];

#[test]
fn seeded_thread_fault_schedules_are_pinned() {
    let mut actual = Vec::new();
    for seed in 0u64..7 {
        let gpus = 2 + (seed as u32 % 7);
        let name = format!("seed{seed}-w{gpus}");
        let r = run(&name, wide_cfg(gpus), FaultSchedule::generate_thread_faults(seed, 5, 3));
        actual.push((name, digest(&r)));
    }
    check("THREAD_SEEDED", THREAD_SEEDED, &actual);
}

// ---- the generators -----------------------------------------------------

const GENERATORS: &[(&str, u64)] = &[
    ("generate", 0x5e0ac835d9c67cab),
    ("generate_silent", 0x4bed1ac624bb9188),
    ("generate_thread_faults", 0x5d3f660c44c5f31a),
];

#[test]
fn generator_output_is_pinned() {
    type Generator = fn(u64) -> FaultSchedule;
    let generators: [(&str, Generator); 3] = [
        ("generate", |s| FaultSchedule::generate(s, 10, 6)),
        ("generate_silent", |s| FaultSchedule::generate_silent(s, 14, 3)),
        ("generate_thread_faults", |s| FaultSchedule::generate_thread_faults(s, 10, 4)),
    ];
    let mut actual = Vec::new();
    for (name, generate) in generators {
        let mut h = Fnv::new();
        for seed in 0u64..16 {
            h.field(&generate(seed).to_json());
        }
        actual.push((name.to_string(), h.0));
    }
    check("GENERATORS", GENERATORS, &actual);
}
