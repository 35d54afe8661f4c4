//! Integration: the baselines behave like the systems they model, and the
//! contrast with EasyScale holds end to end.

use baselines::spmd::{SpmdConfig, SpmdTrainer};
use baselines::ElasticJob;
use data::SyntheticImageDataset;
use device::GpuType;
use easyscale::{Engine, JobConfig, Placement};
use models::Workload;
use optim::StepLr;

fn schedule() -> StepLr {
    StepLr { base_lr: 0.05, gamma: 0.1, step_epochs: 20 }
}

/// DDP (SpmdTrainer) and EasyScale with one EST per GPU are two independent
/// implementations of the same semantics — every workload family, bitwise.
#[test]
fn spmd_engine_cross_validation_all_families() {
    for w in [Workload::ResNet18, Workload::NeuMF, Workload::Bert] {
        let mut spmd = SpmdTrainer::new(SpmdConfig::new(w, 17, 4).with_dataset_len(128));
        let cfg = JobConfig::new(w, 17, 4).with_dataset_len(128);
        let lr = cfg.lr.base_lr;
        let mut engine = Engine::new(cfg, Placement::one_est_per_gpu(4, GpuType::V100));
        for _ in 0..3 {
            let a = spmd.step(lr);
            let b = engine.step().mean_loss;
            assert_eq!(a.to_bits(), b.to_bits(), "{}", w.name());
        }
        let pa = spmd.flat_params();
        let pb = engine.flat_params();
        assert!(pa.iter().zip(&pb).all(|(x, y)| x.to_bits() == y.to_bits()), "{}", w.name());
    }
}

/// TorchElastic under two different resource schedules ends at different
/// models AND different accuracies — the paper's core complaint.
#[test]
fn torchelastic_accuracy_depends_on_resource_schedule() {
    let mk = || ElasticJob::torch_elastic(Workload::ResNet18, 5, 4, 4, schedule(), 256, 8);
    let mut stable = mk();
    let mut elastic = mk();
    for epoch in 0..6 {
        stable.run_epoch();
        elastic.set_world([4u32, 1, 8][epoch % 3]);
        elastic.run_epoch();
    }
    let eval = SyntheticImageDataset::eval_split(5, 256, 256);
    let (acc_stable, pc_stable) = stable.evaluate(&eval, 64);
    let (acc_elastic, pc_elastic) = elastic.evaluate(&eval, 64);
    assert!(
        acc_stable != acc_elastic || pc_stable != pc_elastic,
        "schedules must be distinguishable in accuracy"
    );
}

/// EasyScale under the *same* two schedules ends bitwise-equal — the
/// side-by-side contrast.
#[test]
fn easyscale_accuracy_ignores_resource_schedule() {
    let cfg = JobConfig::new(Workload::ResNet18, 5, 4).with_dataset_len(256);
    let mut stable = Engine::new(cfg.clone(), Placement::one_est_per_gpu(4, GpuType::V100));
    let mut elastic = Engine::new(cfg, Placement::one_est_per_gpu(4, GpuType::V100));
    let spe = stable.steps_per_epoch();
    for epoch in 0..6usize {
        let gpus = [4u32, 1, 3][epoch % 3];
        elastic = elastic.rescale(Placement::homogeneous(4, gpus, GpuType::V100));
        for _ in 0..spe {
            stable.step();
            elastic.step();
        }
    }
    assert_eq!(stable.flat_params(), elastic.flat_params());
}

/// Pollux's adaptive batch size really changes the global batch (and hence
/// the trajectory) when resources change.
#[test]
fn pollux_adapts_batch_and_diverges() {
    let mut fixed = ElasticJob::pollux(Workload::ResNet18, 5, 4, 4, schedule(), 256, 8);
    let mut scaled = ElasticJob::pollux(Workload::ResNet18, 5, 4, 4, schedule(), 256, 8);
    scaled.set_world(1);
    assert!(scaled.tuned_batch(1) > fixed.tuned_batch(4));
    for _ in 0..10 {
        fixed.step();
        scaled.step();
    }
    assert_ne!(fixed.flat_params(), scaled.flat_params());
}

/// The gradient-accumulation-free restart of the baselines loses BatchNorm
/// state: restarting a conv model changes subsequent losses even at the
/// same world size (EasyScale's checkpoint does not).
#[test]
fn baseline_restart_is_lossy_where_easyscale_is_not() {
    // Baseline: restart at the same world size drops sampler position and
    // BN stats; the loss sequence after the "restart" differs from the
    // uninterrupted run.
    let mut uninterrupted =
        SpmdTrainer::new(SpmdConfig::new(Workload::ResNet18, 9, 2).with_dataset_len(128));
    let mut restarted =
        SpmdTrainer::new(SpmdConfig::new(Workload::ResNet18, 9, 2).with_dataset_len(128));
    let mut a = Vec::new();
    let mut b = Vec::new();
    for _ in 0..3 {
        a.push(uninterrupted.step(0.05));
        b.push(restarted.step(0.05));
    }
    let params = restarted.flat_params();
    let velocity = restarted.opt_velocity();
    let mut restarted = SpmdTrainer::restarted(
        SpmdConfig::new(Workload::ResNet18, 9, 2).with_dataset_len(128),
        &params,
        &velocity,
    );
    for _ in 0..3 {
        a.push(uninterrupted.step(0.05));
        b.push(restarted.step(0.05));
    }
    assert_ne!(
        a.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        b.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
        "baseline restart must be observable"
    );

    // EasyScale: the same interruption pattern is invisible.
    let cfg = JobConfig::new(Workload::ResNet18, 9, 2).with_dataset_len(128);
    let mut un = Engine::new(cfg.clone(), Placement::one_est_per_gpu(2, GpuType::V100));
    let mut re = Engine::new(cfg, Placement::one_est_per_gpu(2, GpuType::V100));
    for _ in 0..3 {
        un.step();
        re.step();
    }
    let mut re = re.rescale(Placement::one_est_per_gpu(2, GpuType::V100));
    for _ in 0..3 {
        let x = un.step();
        let y = re.step();
        assert_eq!(x.mean_loss.to_bits(), y.mean_loss.to_bits());
    }
}
