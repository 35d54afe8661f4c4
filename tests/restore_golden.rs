//! Cross-commit oracle for the restore and respawn paths: what a job holds
//! after it went through the durable store onto another placement, and
//! after a worker thread died and was rebuilt, pinned as one FNV-1a-64
//! digest per case.
//!
//! `determinism_matrix.rs` and the faultsim suites compare a restored or a
//! recovered engine with a never-disturbed one *inside one commit*; nothing
//! would notice a rewrite of `Engine::from_checkpoint_opts`, of the respawn
//! recipe or of the checkpoint file that moved both sides together. This
//! file does. For each of the nine proxies (8 ESTs, batch 4, a 128-sample
//! dataset so that the six steps cross an epoch boundary, pool execution;
//! D1 + D2 for the attention family as in the benchmark's `elastic_churn`,
//! D1 for the others as in its two training jobs) and each position of the
//! benchmark's ring of placements — two V100 workers, one V100 worker, a
//! V100 with five ESTs beside a T4 with three: 3 steps → `checkpoint` → `CheckpointStore::save` →
//! `load_latest_valid` → `from_checkpoint_opts` on the next placement of
//! the ring → 3 steps → `checkpoint`. The digest covers the parameter bits,
//! every EST's loss bits of all six steps, and the second checkpoint's
//! progress, optimizer velocity, EST contexts (dropout position, implicit
//! tensors, steps, last loss) and loader cursors — state, never file bytes,
//! so the file format is free to change. One more case per proxy arms a
//! `ThreadFault::Panic` on the second of two workers before step 3 of 5 and
//! digests the same things after the supervised respawn.
//!
//! On a mismatch the test prints the whole table it computed, ready to
//! paste — but a changed digest is a behaviour change and has to be
//! explained, not pasted.

use comm::RetryPolicy;
use device::GpuType;
use easyscale::{
    CheckpointStore, Determinism, Engine, ExecMode, ExecOptions, JobCheckpoint, JobConfig,
    Placement, ThreadFault,
};
use esrng::RngState;
use models::{Workload, WORKLOADS};

const N_ESTS: u32 = 8;

/// The ring `benchmark/src/churn.rs` rescales around.
fn ring() -> [Placement; 3] {
    [
        Placement::homogeneous(N_ESTS, 2, GpuType::V100),
        Placement::homogeneous(N_ESTS, 1, GpuType::V100),
        Placement::heterogeneous(&[(GpuType::V100, 5), (GpuType::T4, 3)]),
    ]
}

fn config(workload: Workload) -> JobConfig {
    let attention =
        matches!(workload, Workload::Bert | Workload::Electra | Workload::SwinTransformer);
    let det = if attention { Determinism::d1_d2() } else { Determinism::d1() };
    JobConfig::new(workload, 2323, N_ESTS)
        .with_dataset_len(128)
        .with_batch_size(4)
        .with_determinism(det)
}

/// Pool execution under the benchmark's drain policy (6 windows from 10 ms,
/// 630 ms in all): an injected panic costs the suite that, not the default
/// policy's 6.4 s, and a debug-profile ResNet50 round still fits inside it.
fn exec() -> ExecOptions {
    let drain = RetryPolicy { max_attempts: 6, base_backoff_us: 10_000, backoff_multiplier: 2 };
    ExecOptions { mode: ExecMode::Pool, device_ids: Vec::new(), drain }
}

struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f32s(&mut self, xs: &[f32]) {
        self.u64(xs.len() as u64);
        for x in xs {
            self.u64(x.to_bits() as u64);
        }
    }

    fn rng(&mut self, s: &RngState) {
        for x in [s.key, s.counter_hi, s.counter_lo, s.lane as u64] {
            self.u64(x);
        }
    }

    /// Everything a checkpoint holds except the bucket layout (a function
    /// of the model, pinned by `determinism_matrix.rs`).
    fn checkpoint(&mut self, ckpt: &JobCheckpoint) {
        self.u64(ckpt.global_step);
        self.f32s(&ckpt.params);
        self.f32s(&ckpt.opt_velocity);
        for c in &ckpt.est_contexts {
            self.u64(c.vrank as u64);
            self.rng(&c.dropout);
            self.u64(c.steps);
            self.u64(c.last_loss.to_bits() as u64);
            for layer in &c.implicit.per_layer {
                self.u64(layer.len() as u64);
                for t in layer {
                    self.f32s(t.data());
                }
            }
        }
        self.u64(ckpt.loader.seed);
        for cur in &ckpt.loader.cursors {
            self.u64(cur.epoch);
            self.u64(cur.batch as u64);
            self.rng(&cur.aug_state);
        }
    }
}

fn steps(engine: &mut Engine, n: usize, h: &mut Fnv) {
    for _ in 0..n {
        h.f32s(&engine.step().losses);
    }
}

fn digest_of(mut engine: Engine, mut h: Fnv) -> u64 {
    h.f32s(&engine.flat_params());
    h.checkpoint(&engine.checkpoint());
    h.0
}

/// 3 steps at ring position `from`, through the store, 3 steps at the next.
fn restore_digest(workload: Workload, from: usize) -> u64 {
    let dir = std::env::temp_dir().join(format!(
        "easyscale-restore-golden-{}-{from}-{}",
        workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir, "golden").unwrap();
    let cfg = config(workload);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);

    let mut engine = Engine::new_opts(cfg.clone(), ring()[from].clone(), exec());
    steps(&mut engine, 3, &mut h);
    store.save(&engine.checkpoint()).unwrap();
    drop(engine);
    let (loaded, skipped) = store.load_latest_valid().unwrap().expect("a checkpoint was saved");
    assert_eq!(skipped, 0);
    let mut engine =
        Engine::from_checkpoint_opts(cfg, ring()[(from + 1) % 3].clone(), &loaded, exec());
    steps(&mut engine, 3, &mut h);
    std::fs::remove_dir_all(&dir).unwrap();
    digest_of(engine, h)
}

/// 5 steps on two workers; the second one's thread panics at the third.
fn recovery_digest(workload: Workload) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut engine = Engine::new_opts(config(workload), ring()[0].clone(), exec());
    steps(&mut engine, 2, &mut h);
    assert_eq!(engine.inject_thread_fault(1, ThreadFault::Panic), Some(1));
    steps(&mut engine, 3, &mut h);
    let recoveries = engine.take_pool_recoveries();
    assert_eq!(recoveries.len(), 1, "{}: {recoveries:?}", workload.name());
    assert_eq!((recoveries[0].worker, recoveries[0].kind), (1, "worker-dead"));
    digest_of(engine, h)
}

/// Taken on 9e8b2c8, the parent of the restore rewrite; the debug and the
/// release profile read the same. The attention family is one proxy under
/// three names, and under D1 + D2 its three ring rows are one digest: the
/// T4 runs the V100's kernels, so where the six steps ran cannot show. The
/// D1 jobs read differently from each ring position because the T4's own
/// kernels take part in a different three of the six steps.
const GOLDEN: &[(&str, u64)] = &[
    ("ShuffleNetv2 2xV100 -> 1xV100", 0x30b5c548ecbaf4bf),
    ("ShuffleNetv2 1xV100 -> V100+T4", 0xcf0953279af0d431),
    ("ShuffleNetv2 V100+T4 -> 2xV100", 0xb67c6d31b5045150),
    ("ShuffleNetv2 panic on worker 1", 0x2a9c09263e3902a0),
    ("ResNet50 2xV100 -> 1xV100", 0xab56139129d326b8),
    ("ResNet50 1xV100 -> V100+T4", 0xb616517b616cf9d6),
    ("ResNet50 V100+T4 -> 2xV100", 0x3c8943120eb09000),
    ("ResNet50 panic on worker 1", 0xc67fd744acbcc092),
    ("VGG19 2xV100 -> 1xV100", 0x6a97948549b2b402),
    ("VGG19 1xV100 -> V100+T4", 0x8976c0ad64c36915),
    ("VGG19 V100+T4 -> 2xV100", 0xbb88cf112ef6e013),
    ("VGG19 panic on worker 1", 0x8eae53a5d897875c),
    ("YOLOv3 2xV100 -> 1xV100", 0x1ce9ea2fd93abd4c),
    ("YOLOv3 1xV100 -> V100+T4", 0x8422211155bca7d1),
    ("YOLOv3 V100+T4 -> 2xV100", 0xc82c8130656edfb3),
    ("YOLOv3 panic on worker 1", 0x8f5da69085ce4896),
    ("NeuMF 2xV100 -> 1xV100", 0xc9a047a39a228a55),
    ("NeuMF 1xV100 -> V100+T4", 0x3184fe4c4ef42b42),
    ("NeuMF V100+T4 -> 2xV100", 0x752b9a65adb0b972),
    ("NeuMF panic on worker 1", 0x7427369d9b7d8290),
    ("Bert 2xV100 -> 1xV100", 0x443fa935c1797c4d),
    ("Bert 1xV100 -> V100+T4", 0x443fa935c1797c4d),
    ("Bert V100+T4 -> 2xV100", 0x443fa935c1797c4d),
    ("Bert panic on worker 1", 0x97df4d0f74f262d3),
    ("Electra 2xV100 -> 1xV100", 0x443fa935c1797c4d),
    ("Electra 1xV100 -> V100+T4", 0x443fa935c1797c4d),
    ("Electra V100+T4 -> 2xV100", 0x443fa935c1797c4d),
    ("Electra panic on worker 1", 0x97df4d0f74f262d3),
    ("SwinTransformer 2xV100 -> 1xV100", 0x443fa935c1797c4d),
    ("SwinTransformer 1xV100 -> V100+T4", 0x443fa935c1797c4d),
    ("SwinTransformer V100+T4 -> 2xV100", 0x443fa935c1797c4d),
    ("SwinTransformer panic on worker 1", 0x97df4d0f74f262d3),
];

#[test]
fn restored_and_respawned_state_is_pinned_for_every_proxy() {
    let mut actual: Vec<(String, u64)> = Vec::new();
    for w in WORKLOADS {
        for from in 0..3 {
            let tag = ["2xV100 -> 1xV100", "1xV100 -> V100+T4", "V100+T4 -> 2xV100"][from];
            actual.push((format!("{} {tag}", w.name()), restore_digest(w, from)));
        }
        actual.push((format!("{} panic on worker 1", w.name()), recovery_digest(w)));
    }
    let same = GOLDEN.len() == actual.len()
        && GOLDEN.iter().zip(&actual).all(|(e, a)| e.0 == a.0 && e.1 == a.1);
    if !same {
        let rows: String =
            actual.iter().map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n")).collect();
        panic!("restore_golden: digests moved. Computed:\n{rows}");
    }
}
