//! Cross-commit oracle for the supervised pool round: what the engine logs
//! and counts when a worker thread faults, and the parameters it trains
//! through the recovery.
//!
//! `thread_faults` and the chaos matrix compare a faulted engine with a
//! clean one *inside one commit*; a rewrite of `WorkerPool::round` that
//! changed which faults it reports, how it classifies them or what it
//! charges for them would move both sides together. This file pins those.
//! Each case runs ResNet18 (4 ESTs on two workers named `esw-dev3` and
//! `esw-dev8`, the benchmark's drain policy) for 2 steps, arms the case's
//! faults, and runs 2 more. Its row holds every `take_pool_recoveries()`
//! entry as `(step, worker, device, kind, virtual_latency_us)`, the
//! `engine.pool.{spawns,quarantines,respawns}_total` and
//! `engine.drain_timeout` counters, and the FNV-1a-64 of the parameter
//! bits, which must also equal a `SingleThread` twin's.
//!
//! `obs` is process-global, so every case runs inside the one `#[test]`.
//! On a mismatch the test prints the whole table it computed; a changed row
//! is a behaviour change and has to be explained, not pasted.

use comm::RetryPolicy;
use device::GpuType;
use easyscale::{Engine, ExecMode, ExecOptions, JobConfig, Placement, ThreadFault};
use models::Workload;
use obs::sink::MemorySink;

/// The benchmark's drain policy: 6 windows from 10 ms, 630 ms in all.
fn exec(mode: ExecMode) -> ExecOptions {
    let drain = RetryPolicy { max_attempts: 6, base_backoff_us: 10_000, backoff_multiplier: 2 };
    ExecOptions { mode, device_ids: vec![3, 8], drain }
}

fn engine(mode: ExecMode) -> Engine {
    let cfg = JobConfig::new(Workload::ResNet18, 5150, 4).with_dataset_len(128);
    Engine::new_opts(cfg, Placement::homogeneous(4, 2, GpuType::V100), exec(mode))
}

fn fnv(params: &[f32]) -> u64 {
    let bytes = params.iter().flat_map(|p| p.to_bits().to_le_bytes());
    bytes.fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// One case's row: recoveries, counters and the parameter digest.
fn row(faults: &[(usize, ThreadFault)]) -> String {
    obs::reset();
    let mut pool = engine(ExecMode::Pool);
    let mut twin = engine(ExecMode::SingleThread);
    pool.run(2);
    twin.run(2);
    for &(worker, fault) in faults {
        assert_eq!(pool.inject_thread_fault(worker, fault), Some(worker));
    }
    pool.run(2);
    twin.run(2);
    let params = fnv(&pool.flat_params());
    assert_eq!(params, fnv(&twin.flat_params()), "{faults:?}: Pool and SingleThread differ");
    let recoveries: Vec<_> = pool
        .take_pool_recoveries()
        .into_iter()
        .map(|r| (r.step, r.worker, r.device, r.kind, r.virtual_latency_us))
        .collect();
    drop(pool);
    let counters: Vec<u64> = [
        "engine.pool.spawns_total",
        "engine.pool.quarantines_total",
        "engine.pool.respawns_total",
        "engine.drain_timeout",
    ]
    .iter()
    .map(|name| obs::counter_value(name).unwrap_or(0))
    .collect();
    format!("{recoveries:?} counters {counters:?} params 0x{params:016x}")
}

/// Taken on the parent of the rewrite that reads one reply channel per
/// slot instead of a shared keyed exchange; the debug and the release
/// profile read the same.
const GOLDEN: &[(&str, &str)] = &[
    (
        "Panic on 1",
        "[(2, 1, 8, \"worker-dead\", 630000)] counters [2, 1, 1, 1] params 0xe0ee96b6226ad3c0",
    ),
    (
        "Stall on 1",
        "[(2, 1, 8, \"drain-timeout\", 630000)] counters [2, 1, 1, 1] params 0xe0ee96b6226ad3c0",
    ),
    (
        "ReplyDrop on 1",
        "[(2, 1, 8, \"drain-timeout\", 630000)] counters [2, 1, 1, 1] params 0xe0ee96b6226ad3c0",
    ),
    (
        "Panic on 0, Stall on 1",
        "[(2, 0, 3, \"worker-dead\", 630000), (2, 1, 8, \"drain-timeout\", 630000)] counters [2, 2, 2, 2] params 0xe0ee96b6226ad3c0",
    ),
];

#[test]
fn pool_recoveries_and_counters_are_pinned_per_fault_kind() {
    let cases: [(&str, &[(usize, ThreadFault)]); 4] = [
        ("Panic on 1", &[(1, ThreadFault::Panic)]),
        ("Stall on 1", &[(1, ThreadFault::Stall)]),
        ("ReplyDrop on 1", &[(1, ThreadFault::ReplyDrop)]),
        ("Panic on 0, Stall on 1", &[(0, ThreadFault::Panic), (1, ThreadFault::Stall)]),
    ];
    obs::enable(Box::new(MemorySink::shared()));
    let actual: Vec<(&str, String)> = cases.iter().map(|&(name, f)| (name, row(f))).collect();
    obs::disable();
    let same = GOLDEN.len() == actual.len()
        && GOLDEN.iter().zip(&actual).all(|(e, a)| e.0 == a.0 && e.1 == a.1);
    if !same {
        let rows: String =
            actual.iter().map(|(name, r)| format!("    ({name:?}, {r:?}),\n")).collect();
        panic!("pool_recovery_golden: rows moved. Computed:\n{rows}");
    }
}
