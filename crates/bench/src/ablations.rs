//! Ablations beyond the paper: bucket capacity, gradient-copy overlap, and
//! the Eq 1 EST balancer.

use bench::{print_table, row, Fig};
use comm::ElasticDdp;
use device::{GpuType, PerfModel};
use easyscale::{Engine, JobConfig, Placement};
use models::{Workload, WORKLOADS};
use sched::Companion;
use serde::Serialize;

#[derive(Serialize)]
struct CapRow {
    cap_bytes: usize,
    buckets: usize,
    bitwise_after_rescale: bool,
}

/// Ablation: gradient-bucket capacity. (a) The D1 guarantee is independent
/// of the cap — any cap, restored faithfully, stays bitwise; (b) different
/// caps produce different bits from each other (the cap genuinely is part
/// of the state D1 must pin), with measurable sync-cost differences.
pub fn abl_bucket_cap() -> Fig {
    let caps = [256usize, 1024, 4096, 16_384, 1 << 20];
    let mut rows = Vec::new();
    let mut final_params: Vec<Vec<u32>> = Vec::new();
    for &cap in &caps {
        // (a) elasticity consistency at this cap.
        let mut config = JobConfig::new(Workload::ResNet18, 5, 4).with_dataset_len(128);
        config.bucket_cap_bytes = cap;
        let mut reference =
            Engine::new(config.clone(), Placement::one_est_per_gpu(4, GpuType::V100));
        let mut elastic = Engine::new(config.clone(), Placement::one_est_per_gpu(4, GpuType::V100));
        reference.run(5);
        elastic.run(2);
        let mut elastic = elastic.rescale(Placement::homogeneous(4, 1, GpuType::V100));
        elastic.run(3);
        let bitwise = reference.flat_params() == elastic.flat_params();

        // (b) sync cost at this cap: read off a clock, so printed only.
        let sizes = vec![500usize; 32];
        let ddp = ElasticDdp::new(&sizes, 4, cap);
        let grads: Vec<Vec<f32>> =
            (0..4).map(|r| (0..16_000).map(|i| ((i + r) as f32 * 0.3).sin()).collect()).collect();
        let us = bench::mean_us(50, || ddp.allreduce_avg(&grads));
        println!("cap {cap} B: all-reduce {us:.1} us (timed on the host, not tracked)");

        final_params.push(reference.flat_params().iter().map(|p| p.to_bits()).collect());
        rows.push(CapRow {
            cap_bytes: cap,
            buckets: ddp.layout().num_buckets(),
            bitwise_after_rescale: bitwise,
        });
    }
    print_table(&rows);
    assert!(rows.iter().all(|r| r.bitwise_after_rescale), "D1 must hold at every cap");
    let distinct: std::collections::HashSet<&Vec<u32>> = final_params.iter().collect();
    assert!(distinct.len() > 1, "different caps are different training runs (bits differ)");
    let (bitwise, n, distinct) =
        (rows.iter().filter(|r| r.bitwise_after_rescale).count(), rows.len(), distinct.len());
    let measured = format!(
        "bitwise through a rescale at {bitwise} of {n} caps (256 B – 1 MiB); {distinct} mutually \
         bit-distinct parameter sets (the layout is training state); all-reduce µs timed on the \
         host, not tracked"
    );
    Fig::tracked(&rows, measured)
}

/// Per-model copy weight: the gradient bytes relative to a mini-batch's
/// compute time determine how much an exposed copy hurts.
fn copy_frac(w: Workload) -> f64 {
    let s = w.spec();
    // D2H at ~12 GB/s effective.
    let copy_secs = s.footprint.gradients as f64 / 12e9;
    copy_secs / s.base_v100_secs
}

/// Ablation: gradient copy-out overlap. §3.2 overlaps the swapped-out
/// gradient's D2H copy with the next EST's compute; this sweeps the
/// *exposed* (un-overlapped) fraction of the copy through the device
/// performance model to show what that buys an 8-EST worker.
pub fn abl_overlap() -> Fig {
    let throughput = |w: Workload, exposed: f64| {
        let m = PerfModel { grad_copy_exposed_frac: exposed, ..PerfModel::default() };
        m.easyscale_throughput(w.spec().base_v100_secs, 8)
    };
    let mut rows = Vec::new();
    let mut worst_no_overlap = f64::INFINITY;
    for w in WORKLOADS {
        let cf = copy_frac(w);
        println!("{}: gradient copy is {:.1}% of a mini-batch", w.name(), cf * 100.0);
        for exposed in [0.0f64, 0.5, 1.0] {
            let rel = throughput(w, exposed * cf) / throughput(w, 0.0);
            if exposed == 1.0 {
                worst_no_overlap = worst_no_overlap.min(rel);
            }
            rows.push(row! { model: w.name(), exposed_frac: exposed, throughput_rel: rel });
        }
    }
    print_table(&rows);
    assert!(worst_no_overlap < 0.97, "the overlap must matter for at least one model");
    let measured = format!(
        "without overlap the worst model loses {:.1}% throughput at 8 ESTs; with full overlap, 0%",
        (1.0 - worst_no_overlap) * 100.0
    );
    Fig::tracked(&rows, measured)
}

#[derive(Serialize)]
struct BalanceRow {
    alloc: String,
    balanced: f64,
    uniform: f64,
    proportional: f64,
    balanced_gain_pct: f64,
}

/// Ablation: the companion module's load-balanced EST assignment vs two
/// naive alternatives — uniform ESTs-per-GPU, and proportional-to-capability
/// rounding. Quantifies how much of the Eq 1 throughput the greedy balancer
/// is responsible for on heterogeneous allocations.
pub fn abl_est_balance() -> Fig {
    let companion = Companion::for_workload(&Workload::Bert.spec(), 12, true);
    let allocations = vec![
        vec![(GpuType::V100, 1), (GpuType::P100, 1)],
        vec![(GpuType::V100, 2), (GpuType::T4, 2)],
        vec![(GpuType::V100, 1), (GpuType::P100, 2), (GpuType::T4, 2)],
        vec![(GpuType::V100, 3), (GpuType::P100, 3)],
        vec![(GpuType::P100, 2), (GpuType::T4, 4)],
    ];
    let mut rows = Vec::new();
    for alloc in allocations {
        let balanced = companion.plan(&alloc).unwrap().throughput;

        // Uniform: the same A on every type.
        let total_gpus: u32 = alloc.iter().map(|&(_, n)| n).sum();
        let a_uni = 12u32.div_ceil(total_gpus);
        let uniform = companion.evaluate(&alloc, &vec![a_uni; alloc.len()]).throughput;

        // Proportional: A_i ∝ C_i, rounded up (classic static heuristic).
        let total_cap: f64 = alloc.iter().map(|&(ty, n)| n as f64 * companion.capability(ty)).sum();
        let a_prop: Vec<u32> = alloc
            .iter()
            .map(|&(ty, _)| ((12.0 * companion.capability(ty) / total_cap).ceil() as u32).max(1))
            .collect();
        let proportional = companion.evaluate(&alloc, &a_prop).throughput;

        let name: Vec<String> = alloc.iter().map(|(t, n)| format!("{n}x{t}")).collect();
        rows.push(BalanceRow {
            alloc: name.join("+"),
            balanced,
            uniform,
            proportional,
            balanced_gain_pct: (balanced / uniform.max(proportional) - 1.0) * 100.0,
        });
    }
    print_table(&rows);
    assert!(
        rows.iter().all(|r| r.balanced >= r.uniform - 1e-9 && r.balanced >= r.proportional - 1e-9),
        "the balancer must never lose to the naive policies"
    );
    assert!(
        rows.iter().any(|r| r.balanced_gain_pct > 5.0),
        "and must win clearly on at least one heterogeneous mix"
    );
    let wins = rows.iter().filter(|r| r.balanced >= r.uniform.max(r.proportional) - 1e-9).count();
    let (n, best) = (rows.len(), rows.iter().map(|r| r.balanced_gain_pct).fold(0.0, f64::max));
    let measured = format!(
        "balanced assignment at least matches uniform and proportional on {wins} of {n} \
         heterogeneous mixes (maxP = 12); best gain +{best:.1}% throughput"
    );
    Fig::tracked(&rows, measured)
}
