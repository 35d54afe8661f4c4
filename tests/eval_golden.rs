//! Cross-commit oracle for `Engine::evaluate`: the accuracy a job reports
//! before and after a rescale, pinned as one FNV-1a-64 digest per case, and
//! the same under `ExecMode::Pool` as under `SingleThread`.
//!
//! `restore_golden.rs` pins what a job holds after a restore and after a
//! respawn, and `figs` pins accuracy of ResNet18 under `Pool` only. This file
//! pins the evaluation path itself: for ResNet18, Bert and NeuMF (4 ESTs),
//! 3 steps on two workers → evaluate → rescale to one worker → 2 steps →
//! evaluate, digesting the bits of `overall` and of every `per_class` entry
//! of both evaluations. One more `Pool` case panics worker 1's thread at
//! step 2, so the first evaluation follows a supervised respawn.
//!
//! On a mismatch the test prints the whole table it computed; a changed
//! digest is a behaviour change and has to be explained, not pasted.

use comm::RetryPolicy;
use device::GpuType;
use easyscale::{Engine, EvalResult, ExecMode, ExecOptions, JobConfig, Placement, ThreadFault};
use models::Workload;

/// The benchmark's drain policy (first window 10 ms, 630 ms in all).
fn exec(mode: ExecMode) -> ExecOptions {
    let drain = RetryPolicy { max_attempts: 6, base_backoff_us: 10_000, backoff_multiplier: 2 };
    ExecOptions { mode, device_ids: Vec::new(), drain }
}

fn fold(h: u64, x: u64) -> u64 {
    x.to_le_bytes().iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

fn eval_digest(workload: Workload, mode: ExecMode, panic_at_step_2: bool) -> u64 {
    let cfg = JobConfig::new(workload, 4242, 4).with_dataset_len(128).with_batch_size(4);
    let mut engine = Engine::new_opts(cfg, Placement::homogeneous(4, 2, GpuType::V100), exec(mode));
    let eval = engine.eval_dataset(48);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut digest = |r: EvalResult| {
        h = r.per_class.iter().fold(fold(h, r.overall.to_bits()), |h, p| fold(h, p.to_bits()));
    };
    engine.run(2);
    if panic_at_step_2 {
        assert_eq!(engine.inject_thread_fault(1, ThreadFault::Panic), Some(1));
    }
    engine.run(1);
    digest(engine.evaluate(eval.as_ref(), 16));
    let mut engine = engine.rescale(Placement::homogeneous(4, 1, GpuType::V100));
    engine.run(2);
    digest(engine.evaluate(eval.as_ref(), 16));
    let recoveries = engine.take_pool_recoveries();
    assert_eq!(recoveries.len(), usize::from(panic_at_step_2), "{recoveries:?}");
    h
}

/// Taken on the parent of the rewrite that evaluates on a replica built from
/// the parameter mirror instead of a worker lent out of its thread; the
/// debug and the release profile read the same.
const GOLDEN: &[(&str, u64)] = &[
    ("ResNet18 Pool", 0xd38839fa75813865),
    ("ResNet18 SingleThread", 0xd38839fa75813865),
    ("Bert Pool", 0x9361606e3d3c8890),
    ("Bert SingleThread", 0x9361606e3d3c8890),
    ("NeuMF Pool", 0x887614827542dd28),
    ("NeuMF SingleThread", 0x887614827542dd28),
    ("ResNet18 Pool, panic on worker 1 at step 2", 0xd38839fa75813865),
];

#[test]
fn evaluation_is_pinned_and_pool_equals_single_thread() {
    let mut actual: Vec<(String, u64)> = Vec::new();
    for w in [Workload::ResNet18, Workload::Bert, Workload::NeuMF] {
        let pool = eval_digest(w, ExecMode::Pool, false);
        let single = eval_digest(w, ExecMode::SingleThread, false);
        assert_eq!(pool, single, "{}: Pool and SingleThread evaluate differently", w.name());
        actual.push((format!("{} Pool", w.name()), pool));
        actual.push((format!("{} SingleThread", w.name()), single));
    }
    let faulted = eval_digest(Workload::ResNet18, ExecMode::Pool, true);
    actual.push(("ResNet18 Pool, panic on worker 1 at step 2".to_string(), faulted));
    assert_eq!(faulted, actual[1].1, "a respawn is invisible to evaluation");
    let same = GOLDEN.len() == actual.len()
        && GOLDEN.iter().zip(&actual).all(|(e, a)| e.0 == a.0 && e.1 == a.1);
    if !same {
        let rows: String =
            actual.iter().map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n")).collect();
        panic!("eval_golden: digests moved. Computed:\n{rows}");
    }
}
