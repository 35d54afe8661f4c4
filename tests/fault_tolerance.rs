//! Integration: failure recovery. The paper's motivation (§2.1) is that
//! Sync-SGD jobs *fail* when any worker is revoked; EasyScale jobs instead
//! checkpoint and continue. These tests inject "crashes" (dropping the
//! engine) at various points and verify recovery is bitwise-lossless from
//! the durable store.

use device::GpuType;
use easyscale::{CheckpointStore, Engine, JobConfig, Placement};
use models::Workload;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("easyscale-ft-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg() -> JobConfig {
    JobConfig::new(Workload::ResNet18, 77, 4).with_dataset_len(128)
}

/// Crash after every checkpoint; recover on a different placement each
/// time; final model identical to the never-crashed reference.
#[test]
fn crash_recover_loop_is_lossless() {
    let dir = tmpdir("loop");
    let store = CheckpointStore::open(&dir, "job").unwrap();

    let mut reference = Engine::new(cfg(), Placement::one_est_per_gpu(4, GpuType::V100));

    let placements = [
        Placement::one_est_per_gpu(4, GpuType::V100),
        Placement::homogeneous(4, 2, GpuType::V100),
        Placement::homogeneous(4, 1, GpuType::V100),
        Placement::homogeneous(4, 3, GpuType::V100),
    ];
    // First incarnation.
    let mut engine = Some(Engine::new(cfg(), placements[0].clone()));
    for (i, placement) in placements.iter().enumerate().skip(1) {
        let e = engine.as_mut().unwrap();
        for _ in 0..3 {
            e.step();
            reference.step();
        }
        store.save(&e.checkpoint()).unwrap();
        // 💥 crash: the incarnation is dropped without further ceremony.
        drop(engine.take());
        // Recovery: a fresh process loads the latest durable checkpoint.
        let ckpt = store.load_latest().unwrap().expect("checkpoint exists");
        engine = Some(Engine::from_checkpoint(cfg(), placement.clone(), &ckpt));
        assert_eq!(engine.as_ref().unwrap().global_step(), (i as u64) * 3);
    }
    let e = engine.as_mut().unwrap();
    for _ in 0..3 {
        e.step();
        reference.step();
    }
    assert_eq!(reference.flat_params(), e.flat_params());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Work done after the last checkpoint is lost on a crash — and replaying
/// it lands on exactly the same bits (no divergent replay).
#[test]
fn replay_after_crash_is_exact() {
    let dir = tmpdir("replay");
    let store = CheckpointStore::open(&dir, "job").unwrap();
    let mut e = Engine::new(cfg(), Placement::homogeneous(4, 2, GpuType::V100));
    e.run(4);
    store.save(&e.checkpoint()).unwrap();
    // Two more steps that will be lost and replayed.
    let after_6 = {
        e.run(2);
        e.flat_params()
    };
    // 💥 crash; recover and replay the same two steps.
    let ckpt = store.load_latest().unwrap().unwrap();
    let mut recovered =
        Engine::from_checkpoint(cfg(), Placement::homogeneous(4, 1, GpuType::V100), &ckpt);
    recovered.run(2);
    assert_eq!(recovered.global_step(), 6);
    assert_eq!(after_6, recovered.flat_params(), "replayed steps are bitwise identical");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A stale checkpoint (not the latest) also restores consistently — the
/// retention window is a real recovery surface, not just the newest file.
#[test]
fn older_checkpoints_are_also_valid_recovery_points() {
    let dir = tmpdir("stale");
    let store = CheckpointStore::open(&dir, "job").unwrap().with_keep_last(5);
    let mut e = Engine::new(cfg(), Placement::homogeneous(4, 2, GpuType::V100));
    let mut param_history = Vec::new();
    for _ in 0..4 {
        e.step();
        store.save(&e.checkpoint()).unwrap();
        param_history.push(e.flat_params());
    }
    // Restore from step 2 (not the newest), replay to step 4.
    let ckpt = store.load(2).unwrap();
    let mut old =
        Engine::from_checkpoint(cfg(), Placement::homogeneous(4, 4, GpuType::V100), &ckpt);
    old.run(2);
    assert_eq!(old.flat_params(), param_history[3]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A torn checkpoint write (truncated file at the final path) is detected
/// on load, and recovery falls back to the last good checkpoint — then
/// replays to exactly the bits the lost steps had produced.
#[test]
fn torn_checkpoint_falls_back_and_replays_exactly() {
    let dir = tmpdir("torn");
    let store = CheckpointStore::open(&dir, "job").unwrap().with_keep_last(5);
    let mut e = Engine::new(cfg(), Placement::homogeneous(4, 2, GpuType::V100));
    e.run(3);
    store.save(&e.checkpoint()).unwrap(); // step 3: good
    e.run(2);
    let after_5 = e.flat_params();
    // 💥 the step-5 checkpoint write is interrupted partway, then the
    // process dies: the newest file on disk is torn.
    store.save_torn(&e.checkpoint(), 500).unwrap();
    drop(e);

    // The newest file must not load; the fallback walk must land on step 3.
    assert!(store.load(5).is_err(), "torn file must fail verification");
    let (ckpt, skipped) = store.load_latest_valid().unwrap().expect("good checkpoint exists");
    assert_eq!(skipped, 1);
    assert_eq!(ckpt.global_step, 3);
    let mut recovered =
        Engine::from_checkpoint(cfg(), Placement::homogeneous(4, 1, GpuType::V100), &ckpt);
    recovered.run(2);
    assert_eq!(recovered.flat_params(), after_5, "replay past the torn file is bitwise exact");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// At-rest bit damage in the newest checkpoint is caught by the checksum
/// over the stored bytes, and resuming from the undamaged predecessor is
/// bitwise identical to never having crashed.
#[test]
fn bitflipped_checkpoint_is_detected_and_survivable() {
    let dir = tmpdir("bitflip");
    let store = CheckpointStore::open(&dir, "job").unwrap().with_keep_last(5);
    let mut e = Engine::new(cfg(), Placement::homogeneous(4, 2, GpuType::V100));
    e.run(2);
    store.save(&e.checkpoint()).unwrap(); // step 2: good
    e.run(2);
    store.save(&e.checkpoint()).unwrap(); // step 4: about to rot
    let after_6 = {
        e.run(2);
        e.flat_params()
    };
    drop(e); // 💥

    // Any bit will do: the checksum covers every stored byte (the sweep is
    // in tests/store_format.rs). This one lands in a parameter's mantissa.
    store.inject_bitflip(4, 100_003).unwrap();
    assert!(store.load(4).is_err(), "bit-flipped file must fail verification");
    let (ckpt, skipped) = store.load_latest_valid().unwrap().expect("good checkpoint exists");
    assert_eq!(skipped, 1);
    assert_eq!(ckpt.global_step, 2);
    let mut recovered =
        Engine::from_checkpoint(cfg(), Placement::homogeneous(4, 4, GpuType::V100), &ckpt);
    recovered.run(4);
    assert_eq!(recovered.flat_params(), after_6, "resume from last good is bitwise exact");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Recovery works across workload families (conv with BN state, attention
/// with dropout/LayerNorm, embedding MLP).
#[test]
fn recovery_covers_all_state_kinds() {
    for w in [Workload::ResNet18, Workload::Bert, Workload::NeuMF] {
        let cfg = JobConfig::new(w, 55, 2).with_dataset_len(128);
        let mut reference = Engine::new(cfg.clone(), Placement::one_est_per_gpu(2, GpuType::V100));
        let mut live = Engine::new(cfg.clone(), Placement::one_est_per_gpu(2, GpuType::V100));
        reference.run(2);
        live.run(2);
        let ckpt = live.checkpoint();
        drop(live); // 💥
        let mut recovered =
            Engine::from_checkpoint(cfg, Placement::homogeneous(2, 1, GpuType::V100), &ckpt);
        reference.run(2);
        recovered.run(2);
        assert_eq!(reference.flat_params(), recovered.flat_params(), "{}", w.name());
    }
}
