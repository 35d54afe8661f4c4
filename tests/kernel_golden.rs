//! Cross-commit oracle for the conv, attention and MLP kernel paths: the
//! trained parameter bits and the last loss, pinned per (workload,
//! determinism level, placement) as one FNV-1a-64 digest.
//!
//! The `_scalar` oracles and `vectorized_equiv.rs` compare a kernel with
//! its reference *inside one commit*; `harness_golden.rs` pins parameter
//! bits across commits for NeuMF only. Nothing else would notice a kernel
//! rewrite that kept `kernel ≡ oracle` by moving both, or that changed the
//! order in which a layer feeds its kernels (the per-sample `gw`/`gb`
//! accumulation in `Conv2d::backward` is part of the tree). This file does:
//! 6 steps, `ExecMode::SingleThread`, 4 ESTs, batch 8, for the five proxies
//! that between them reach every kernel shape — ResNet18 (3×3 conv + BN +
//! residual), ShuffleNetV2 (the stride-2 + pad conv), Vgg19 (deepest conv
//! stack, `Flatten` head), Bert (attention's six `matmul_a_bt` products) and
//! NeuMF (batch-shaped `Dense`) — each under D1 on two V100s (`tile_k` 16,
//! `reduce_block` 80, algo 2), under D1 on a V100/P100/T4 mix (P100/T4:
//! `tile_k` 8, blocks 56/40, algos 2/1 — the only place those tree shapes
//! train) and under D1+D2 on the same mix.
//!
//! On a mismatch the test prints the whole table it computed, ready to
//! paste — but a changed digest is a behaviour change and has to be
//! explained, not pasted.

use device::GpuType;
use easyscale::{Determinism, Engine, ExecMode, ExecOptions, JobConfig, Placement};
use models::Workload;

const STEPS: usize = 6;

fn digest(workload: Workload, det: Determinism, placement: Placement) -> u64 {
    let cfg = JobConfig::new(workload, 4242, 4).with_dataset_len(256).with_determinism(det);
    assert_eq!(cfg.batch_size, 8, "the digests below were taken at batch 8");
    let exec = ExecOptions { mode: ExecMode::SingleThread, ..ExecOptions::default() };
    let mut engine = Engine::new_opts(cfg, placement, exec);
    let mut last_loss = 0.0f32;
    for _ in 0..STEPS {
        last_loss = engine.step().mean_loss;
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let words = engine.flat_params().into_iter().chain([last_loss]).map(f32::to_bits);
    for b in words.flat_map(u32::to_le_bytes) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn hetero() -> Placement {
    Placement::heterogeneous(&[(GpuType::V100, 2), (GpuType::P100, 1), (GpuType::T4, 1)])
}

/// Taken on the parent of the kernel rewrite (a6a6eab). Bert reads the same
/// on 2 × V100 and under D2 because both tile at 16 and no reduction it
/// makes is longer than two tiles (where algo 0 and algo 2 walk the same
/// order) or one block of 32; the hetero D1 row (`tile_k` 8, algo 1 on the
/// T4) is where its combine order matters.
const GOLDEN: &[(&str, u64)] = &[
    ("ResNet18 d1 2xV100", 0x6de7bd507f06e4f2),
    ("ResNet18 d1 hetero", 0x57ac05a74b0e47d3),
    ("ResNet18 d1+d2 hetero", 0x00f6892db570d45a),
    ("ShuffleNetv2 d1 2xV100", 0xd0af515a2157092a),
    ("ShuffleNetv2 d1 hetero", 0xeb1b68fdd48c98ff),
    ("ShuffleNetv2 d1+d2 hetero", 0x0584aa3882e71a44),
    ("VGG19 d1 2xV100", 0x260e1c41287886c2),
    ("VGG19 d1 hetero", 0x5c582c3fb90e1f13),
    ("VGG19 d1+d2 hetero", 0x43f9ae9ba8ea7ecc),
    ("Bert d1 2xV100", 0xcf1dd5fe49d655fb),
    ("Bert d1 hetero", 0x5bd3a5b07d8ddbf5),
    ("Bert d1+d2 hetero", 0xcf1dd5fe49d655fb),
    ("NeuMF d1 2xV100", 0x3d623aa97be244c7),
    ("NeuMF d1 hetero", 0x4a0761a23fcbc96e),
    ("NeuMF d1+d2 hetero", 0x7764e77dcd5b8a49),
];

#[test]
fn trained_bits_are_pinned_for_every_kernel_path() {
    let workloads = [
        Workload::ResNet18,
        Workload::ShuffleNetV2,
        Workload::Vgg19,
        Workload::Bert,
        Workload::NeuMF,
    ];
    let mut actual: Vec<(String, u64)> = Vec::new();
    for w in workloads {
        let cases = [
            ("d1 2xV100", Determinism::d1(), Placement::homogeneous(4, 2, GpuType::V100)),
            ("d1 hetero", Determinism::d1(), hetero()),
            ("d1+d2 hetero", Determinism::d1_d2(), hetero()),
        ];
        for (tag, det, placement) in cases {
            actual.push((format!("{} {tag}", w.name()), digest(w, det, placement)));
        }
    }
    let same = GOLDEN.len() == actual.len()
        && GOLDEN.iter().zip(&actual).all(|(e, a)| e.0 == a.0 && e.1 == a.1);
    if !same {
        let rows: String =
            actual.iter().map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n")).collect();
        panic!("kernel_golden: digests moved. Computed:\n{rows}");
    }
}
