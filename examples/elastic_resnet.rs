//! Elastic training through a realistic resource schedule — the scenario
//! the paper's introduction motivates: a training job on a shared cluster
//! whose GPU count fluctuates as higher-priority work comes and goes.
//!
//! The job survives five resource reconfigurations (including losing all
//! but one GPU and borrowing heterogeneous P100/T4 capacity under D2) and
//! finishes with exactly the model a dedicated 4-GPU run would produce.
//!
//! Run with: `cargo run --release --example elastic_resnet`

use device::GpuType;
use easyscale::{Determinism, Engine, JobConfig, Placement};
use models::Workload;

fn main() {
    let config = JobConfig::new(Workload::ResNet18, 7, 4)
        .with_dataset_len(512)
        .with_determinism(Determinism::d1_d2()); // heterogeneous-safe

    // The dedicated-cluster reference this job's accuracy is promised
    // against: 4 fixed V100s for the whole run.
    let mut reference = Engine::new(config.clone(), Placement::one_est_per_gpu(4, GpuType::V100));

    // The elastic run: the cluster gives and takes GPUs over time.
    let schedule: Vec<(&str, Placement)> = vec![
        ("4x V100 (full gang)", Placement::one_est_per_gpu(4, GpuType::V100)),
        ("2x V100 (serving spike took half)", Placement::homogeneous(4, 2, GpuType::V100)),
        ("1x V100 (deep preemption)", Placement::homogeneous(4, 1, GpuType::V100)),
        (
            "1x V100 + 2x P100 (borrowed heterogeneous idle GPUs)",
            Placement::heterogeneous(&[(GpuType::V100, 2), (GpuType::P100, 1), (GpuType::P100, 1)]),
        ),
        (
            "2x P100 + 2x T4 (V100s fully reclaimed)",
            Placement::heterogeneous(&[
                (GpuType::P100, 1),
                (GpuType::P100, 1),
                (GpuType::T4, 1),
                (GpuType::T4, 1),
            ]),
        ),
        ("4x V100 (gang restored)", Placement::one_est_per_gpu(4, GpuType::V100)),
    ];

    let steps_per_phase = 12;
    let mut elastic: Option<Engine> = None;
    for (desc, placement) in schedule {
        elastic = Some(match elastic.take() {
            None => Engine::new(config.clone(), placement),
            Some(e) => e.rescale(placement), // on-demand checkpoint + restore
        });
        let e = elastic.as_mut().unwrap();
        println!(
            "[step {:>3}] scaling to {desc} ({} workers)",
            e.global_step(),
            e.placement().n_workers()
        );
        for _ in 0..steps_per_phase {
            let a = reference.step();
            let b = e.step();
            assert_eq!(
                a.mean_loss.to_bits(),
                b.mean_loss.to_bits(),
                "elastic loss must track the reference bitwise"
            );
        }
    }

    let e = elastic.unwrap();
    assert_eq!(reference.flat_params(), e.flat_params());
    let eval = e.eval_dataset(512);
    let acc = e.evaluate(eval.as_ref(), 64);
    println!(
        "\n✓ survived 5 reconfigurations, {} global steps, final accuracy {:.3}",
        e.global_step(),
        acc.overall
    );
    println!("✓ parameters bitwise-identical to the dedicated 4-GPU reference");
}
