//! Micro-benchmarks (§5.1): Table 1, Figs 9–13 and the data-worker sharing
//! experiment of §5.1.2.

use baselines::PackingSim;
use bench::{median, print_table, row, timed_ms, Fig};
use comm::ElasticDdp;
use data::{AugmentConfig, Augmenter, DataWorkerPool, ShardedLoader, SyntheticImageDataset};
use device::{GpuType, PerfModel};
use easyscale::{
    CheckpointStore, Determinism, EasyScaleWorker, Engine, JobConfig, Placement, Slot,
};
use models::{Workload, WORKLOADS};
use serde::Serialize;
use std::sync::Arc;

/// Table 1: the deep-learning workload catalog, with the cost/memory/D2
/// metadata this reproduction attaches to each entry.
pub fn tab01_workloads() -> Fig {
    let rows: Vec<_> = WORKLOADS
        .iter()
        .map(|w| {
            let s = w.spec();
            row! {
                model: w.name(), task: s.task, dataset: s.dataset,
                conv_dependent: s.conv_dependent, d2_overhead: s.d2_overhead,
                base_v100_secs: s.base_v100_secs, batch_size: s.batch_size, max_p: s.max_p,
            }
        })
        .collect();
    print_table(&rows);
    let conv = WORKLOADS.iter().filter(|w| w.spec().conv_dependent).count();
    let n = rows.len();
    let measured =
        format!("{n} workloads in the catalog, {conv} of them dependent on vendor conv kernels");
    Fig::tracked(&rows, measured)
}

const STEPS_PER_STAGE: u64 = 40;

#[derive(Serialize)]
struct ConfigResult {
    config: String,
    reference: String,
    /// Max |loss(EasyScale) − loss(DDP)| of the last worker, per stage.
    max_diff_per_stage: [f32; 3],
    bitwise_stages: [bool; 3],
}

/// Last-worker loss of each of the 120 mini-batches of a run through
/// `stages`, with a checkpoint + restore at every transition. One stage is
/// the fixed-resource DDP reference: 4 workers on 4 V100s, never rescaled.
fn run_stages(workload: Workload, det: Determinism, stages: &[Placement]) -> Vec<f32> {
    let cfg = JobConfig::new(workload, 42, 4).with_determinism(det).with_dataset_len(256);
    let mut losses = Vec::new();
    let mut engine = Engine::new(cfg, stages[0].clone());
    for (i, stage) in stages.iter().enumerate() {
        if i > 0 {
            engine = engine.rescale(stage.clone());
        }
        for _ in 0..3 * STEPS_PER_STAGE / stages.len() as u64 {
            losses.push(engine.step().last_worker_loss());
        }
    }
    losses
}

fn compare(name: &str, reference: &str, es: &[f32], ddp: &[f32]) -> ConfigResult {
    let mut max_diff = [0.0f32; 3];
    let mut bitwise = [true; 3];
    for (i, (a, b)) in es.iter().zip(ddp).enumerate() {
        let stage = i / STEPS_PER_STAGE as usize;
        max_diff[stage] = max_diff[stage].max((a - b).abs());
        bitwise[stage] &= a.to_bits() == b.to_bits();
    }
    ConfigResult {
        config: name.into(),
        reference: reference.into(),
        max_diff_per_stage: max_diff,
        bitwise_stages: bitwise,
    }
}

/// Figure 9: loss-curve difference between EasyScale and DDP across three
/// resource stages (paper §5.1.1: 4 V100 → 2 V100 → 1 V100 + 2 P100), under
/// four determinism configurations. References: DDP-homo (deterministic
/// vendor kernels) and DDP-heter (hardware-agnostic kernels).
///
/// Expected shape: D1 == DDP-homo bitwise through stages 0–1, drifts in
/// stage 2; D0 only in stage 0 (bucket layout lost at restart); D1+D2 ==
/// DDP-heter bitwise through ALL stages; D0+D2 only in stage 0.
pub fn fig09_loss_consistency() -> Fig {
    println!("stages: 4xV100 | 2xV100 | 1xV100+2xP100; {STEPS_PER_STAGE} mini-batches each");
    let stages = [
        Placement::one_est_per_gpu(4, GpuType::V100),
        Placement::homogeneous(4, 2, GpuType::V100),
        Placement::heterogeneous(&[(GpuType::V100, 2), (GpuType::P100, 1), (GpuType::P100, 1)]),
    ];
    let mut results = Vec::new();
    for w in [Workload::ResNet50, Workload::Vgg19] {
        println!("\n--- {} ---", w.name());
        let ddp_homo = ("DDP-homo", run_stages(w, Determinism::d1(), &stages[..1]));
        let ddp_heter = ("DDP-heter", run_stages(w, Determinism::d1_d2(), &stages[..1]));
        let first = results.len();
        for (name, det, (reference, ddp)) in [
            ("D0", Determinism::d0(), &ddp_homo),
            ("D1", Determinism::d1(), &ddp_homo),
            ("D0+D2", Determinism::d0_d2(), &ddp_heter),
            ("D1+D2", Determinism::d1_d2(), &ddp_heter),
        ] {
            results.push(compare(name, reference, &run_stages(w, det, &stages), ddp));
        }
        print_table(&results[first..]);
    }

    // The headline assertions, mirrored from the paper's reading of Fig 9.
    let d1d2_rows: Vec<&ConfigResult> = results.iter().filter(|r| r.config == "D1+D2").collect();
    assert!(
        d1d2_rows.iter().all(|r| r.bitwise_stages.iter().all(|&b| b)),
        "D1+D2 must be bitwise-identical to DDP-heter in every stage"
    );
    let d0_rows: Vec<&ConfigResult> = results.iter().filter(|r| r.config == "D0").collect();
    assert!(
        d0_rows.iter().all(|r| r.bitwise_stages[0] && !r.bitwise_stages[1]),
        "D0 must match in stage 0 and drift from stage 1 (bucket layout lost at restart)"
    );

    // Per configuration, the stages that are bitwise on every model.
    let bitwise_on_all = |config: &str| {
        let rows: Vec<&ConfigResult> = results.iter().filter(|r| r.config == config).collect();
        let on_all = |s: &usize| rows.iter().all(|r| r.bitwise_stages[*s]);
        format!("{config} {:?}", (0..3).filter(on_all).collect::<Vec<_>>())
    };
    let per_config = ["D0", "D1", "D0+D2", "D1+D2"].map(bitwise_on_all).join("; ");
    let measured =
        format!("stages (of 0, 1, 2) bitwise-identical to DDP on both models: {per_config}");
    Fig::tracked(&results, measured)
}

const GIB: f64 = (1u64 << 30) as f64;

/// Figure 10: peak GPU memory and training throughput of EasyScale vs
/// Gandiva-style worker packing, for 1..16 workers on a 32 GB V100. Paper:
/// packing OOMs past 8 (ResNet50) / 2 (ShuffleNetV2 at batch 512) workers and
/// peaks ≈1.11× EasyScale's throughput; EasyScale memory is flat.
pub fn fig10_packing() -> Fig {
    let mut out = Vec::new();
    let mut oom_at = Vec::new();
    let mut flat_gib = Vec::new();
    let sims = [Workload::ResNet50, Workload::ShuffleNetV2]
        .map(|w| (w, PackingSim::new(&w.spec(), GpuType::V100)));
    for (workload, sim) in &sims {
        let oom = sim.max_packed_workers() + 1;
        println!("\n--- {} (V100 32 GB; `-` = OOM) ---", workload.name());
        let rows: Vec<_> = (1..=16u32)
            .map(|n| {
                let packed = sim.try_pack(n as u64).ok().map(|b| b as f64 / GIB);
                row! {
                    workers: n,
                    packing_mem_gib: packed,
                    easyscale_mem_gib: sim.easyscale_memory(n as u64) as f64 / GIB,
                    packing_throughput: packed.is_some().then(|| sim.packed_throughput(n)),
                    easyscale_throughput: sim.easyscale_throughput(n),
                }
            })
            .collect();
        print_table(&rows);
        oom_at.push(oom.to_string());
        flat_gib.push(format!("{:.2}", sim.easyscale_memory(16) as f64 / GIB));
        out.push(row! { model: workload.name(), rows: rows, packing_oom_at: oom });
    }
    let resnet50 = &sims[0].1;
    let ratio = resnet50.packed_throughput(8) / resnet50.easyscale_throughput(8);
    let (oom_at, flat_gib) = (oom_at.join(" / "), flat_gib.join(" / "));
    let measured = format!(
        "ResNet50 / ShuffleNetV2: packing OOMs at {oom_at} workers, EasyScale memory flat at \
         {flat_gib} GiB for any EST count; packing concurrency bonus at 8 workers {ratio:.3}x"
    );
    Fig::tracked(&out, measured)
}

/// Warmed-up worker hosting `vranks` on one V100.
fn warm_worker(cfg: &JobConfig, vranks: Vec<u32>) -> EasyScaleWorker {
    let mut worker = EasyScaleWorker::new(cfg, &Slot { gpu: GpuType::V100, vranks });
    for _ in 0..3 {
        worker.run_local_steps_opts(true);
    }
    worker
}

/// Wall time in µs of one local step per hosted EST.
fn step_us(worker: &mut EasyScaleWorker, context_switch: bool) -> Vec<f64> {
    let steps = worker.run_local_steps_opts(context_switch);
    steps.iter().map(|(_, d)| d.as_secs_f64() * 1e6).collect()
}

/// Figure 11: the cost of lightweight context switching — wall time of one
/// local step per EST with and without the context switch (implicit-state
/// swap + RNG capture), per workload. Expected ≤ ~2% (the paper's maximum
/// is 1.9% on Electra): the EST context is tiny next to forward/backward.
pub fn fig11_ctx_switch() -> Fig {
    let mut rows = Vec::new();
    let mut max = f64::NEG_INFINITY;
    for w in WORKLOADS {
        let cfg = JobConfig::new(w, 7, 8).with_dataset_len(2048).with_batch_size(32);
        let mut with = warm_worker(&cfg, (0..8).collect());
        let mut without = warm_worker(&cfg, (0..8).collect());
        // Interleaved rounds, so clock-frequency drift hits both equally.
        let mut s_with = Vec::new();
        let mut s_without = Vec::new();
        for _ in 0..16 {
            s_with.extend(step_us(&mut with, true));
            s_without.extend(step_us(&mut without, false));
        }
        let (with, without) = (median(&mut s_with), median(&mut s_without));
        let overhead = (with / without - 1.0) * 100.0;
        max = max.max(overhead);
        rows.push(row! {
            model: w.name(), with_switch_us: with, without_switch_us: without,
            overhead_pct: overhead,
        });
    }
    print_table(&rows);
    println!("max context-switch overhead: {max:.2}% (paper: ≤1.9%)");
    Fig::timed("median local-step time with and without the context switch, 8 workloads")
}

/// Figure 12: per-iteration overhead of ensuring accuracy-consistency, per
/// workload and GPU type. D1 is ≈free; D1+D2 costs ~236% on average for the
/// conv-kernel models and <1% for the attention/embedding models.
///
/// Substitution note (DESIGN.md): on real GPUs the D2 cost comes from
/// disabling vendor conv kernels; our CPU kernels cannot reproduce that
/// ratio physically, so the slowdown comes from each workload's calibrated
/// `d2_overhead` factor through the device performance model.
pub fn fig12_determinism_overhead() -> Fig {
    let perf = PerfModel::default();
    let mut rows = Vec::new();
    let mut conv_overheads = Vec::new();
    let mut other_max = 0.0f64;
    for w in WORKLOADS {
        let s = w.spec();
        for gpu in GpuType::ALL {
            let base = perf.minibatch_time(s.base_v100_secs, gpu, 1.0);
            // D1: deterministic vendor kernels — negligible cost (the paper
            // measures <1%); we charge the context-switch-free determinism
            // bookkeeping at 0.3%.
            let d1 = base * 1.003;
            // D1+D2: hardware-agnostic kernels; the catalog's d2_overhead
            // already encodes ~1.0 for non-conv models.
            let d1d2 = perf.minibatch_time(s.base_v100_secs, gpu, s.d2_overhead) * 1.003;
            rows.push(row! {
                model: w.name(), gpu: gpu.name(), baseline: base,
                d1_normalized: d1 / base, d1_d2_normalized: d1d2 / base,
            });
            if !s.conv_dependent {
                other_max = other_max.max((d1d2 / base - 1.0) * 100.0);
            }
        }
        if s.conv_dependent {
            conv_overheads.push(s.d2_overhead - 1.0);
        }
    }
    print_table(&rows);
    let n = conv_overheads.len();
    let avg = conv_overheads.iter().sum::<f64>() / n as f64 * 100.0;
    let measured = format!(
        "by calibrated factor: D1 +0.3%; D1+D2 +{avg:.0}% on average over the {n} conv models, \
         at most +{other_max:.1}% on the others"
    );
    Fig::tracked(&rows, measured)
}

/// Figure 13: overhead of gradient copy and synchronization under the EST
/// abstraction — 8 ESTs time-sliced on one GPU vs DDP with 8 workers. ESTs
/// 0–6 pay the gradient copy-out at each context switch; EST 7 also triggers
/// the gradient synchronization, which never waits on a straggler (every
/// replica's gradient is already resident). Expected: normalized times ≲ 1.
pub fn fig13_grad_copy() -> Fig {
    const REPS: usize = 15;
    let mut rows = Vec::new();
    let mut worst = f64::NEG_INFINITY;
    for w in WORKLOADS {
        let cfg = JobConfig::new(w, 7, 8).with_dataset_len(512);

        // Shared worker: 8 ESTs on one V100; median per EST.
        let mut shared = warm_worker(&cfg, (0..8).collect());
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); 8];
        for _ in 0..REPS {
            for (est, us) in step_us(&mut shared, true).into_iter().enumerate() {
                samples[est].push(us);
            }
        }
        let est_times: Vec<f64> = samples.iter_mut().map(|v| median(v)).collect();

        // DDP reference: one EST per worker; median per worker, averaged.
        let mut ddp_time = 0.0;
        for r in 0..8u32 {
            let mut ddp = warm_worker(&cfg, vec![r]);
            let mut t: Vec<f64> = (0..REPS).map(|_| step_us(&mut ddp, true)[0]).collect();
            ddp_time += median(&mut t) / 8.0;
        }

        // Gradient synchronization cost (the all-reduce EST 7 triggers).
        let grads: Vec<Vec<f32>> =
            shared.run_local_steps_opts(true).into_iter().map(|(step, _)| step.grad).collect();
        let ddp_comm = ElasticDdp::new(&shared.model().param_sizes(), 8, cfg.bucket_cap_bytes);
        let sync_us = bench::mean_us(20, || ddp_comm.allreduce_avg(&grads));

        // ESTs 0..7 normalized to a DDP worker's local step + the sync.
        let denom = ddp_time + sync_us;
        let normalized: Vec<f64> = est_times
            .iter()
            .enumerate()
            .map(|(i, &t)| if i == 7 { (t + sync_us) / denom } else { t / denom })
            .collect();
        worst = normalized.iter().fold(worst, |m, &x| m.max(x));
        rows.push(row! {
            model: w.name(), ddp_step_us: ddp_time, sync_us: sync_us, est_normalized: normalized,
        });
    }
    print_table(&rows);
    println!("worst per-EST normalized time: {worst:.2} (paper: competitive with DDP)");
    Fig::timed("per-EST step time of 8 ESTs on one worker over a DDP worker's step + sync")
}

/// §5.1.2 data-worker sharing: the first-mini-batch latency after an
/// elastic restart, with naive per-EST data workers (ESTs × workers-per-
/// trainer processes) vs EasyScale's shared pool (workers-per-trainer
/// processes total). Paper: −67.1% at 8 ESTs (32 spawned workers → 4).
pub fn exp_data_sharing() -> Fig {
    const WORKERS_PER_TRAINER: u32 = 4;
    let perf = PerfModel::default();
    let mb = Workload::ResNet50.spec().base_v100_secs;
    let mut rows = Vec::new();
    let mut at8 = String::new();
    for n_ests in [1u32, 2, 4, 8, 16] {
        let naive_workers = n_ests * WORKERS_PER_TRAINER;
        let naive = perf.first_minibatch_latency(mb, naive_workers);
        let shared = perf.first_minibatch_latency(mb, WORKERS_PER_TRAINER);
        let reduction = (1.0 - shared / naive) * 100.0;
        if n_ests == 8 {
            at8 = format!(
                "at 8 ESTs: {naive_workers} → {WORKERS_PER_TRAINER} data workers, first-batch \
                 time −{reduction:.1}%"
            );
        }
        rows.push(row! {
            n_ests: n_ests, naive_workers: naive_workers, shared_workers: WORKERS_PER_TRAINER,
            naive_first_batch_secs: naive, shared_first_batch_secs: shared,
            reduction_pct: reduction,
        });
    }
    print_table(&rows);

    // Functional demonstration: the shared pool really does serve 16 ESTs
    // with 4 workers and byte-identical batches.
    let mk_loader = || {
        let dataset = Arc::new(SyntheticImageDataset::cifar_like(3, 512));
        let augmenter = Some(Augmenter::new(AugmentConfig::default()));
        ShardedLoader::new(dataset, 16, 8, 99, true, augmenter)
    };
    let mut pool = DataWorkerPool::new(mk_loader(), 4, 2);
    let mut bare = mk_loader();
    for r in 0..16 {
        let a = pool.next_batch(r);
        let b = bare.next_batch(r);
        assert!(a.features.bitwise_eq(&b.features));
    }
    let measured =
        format!("{at8}; 16 ESTs served by a 4-worker pool with bitwise-identical batches");
    Fig::tracked(&rows, measured)
}

/// Where a rescale through the durable store spends its stall (ROADMAP
/// item 2), for the benchmark's three jobs: the benchmark's own sequence —
/// `checkpoint`, `save`, `load_latest_valid`, `from_checkpoint_opts` on the
/// other of two placements (2 ↔ 1 workers), drop of the old engine, first
/// step on the new one — each part's p25 over 60 rescales beside the p25 of
/// their sum and the median steady step.
pub fn exp_rescale_split() -> Fig {
    const RESCALES: usize = 60;
    let p25 = |samples: &mut Vec<f64>| {
        samples.sort_by(f64::total_cmp);
        samples[samples.len() / 4]
    };
    let jobs = [
        ("train_sync", Workload::NeuMF, 1, 2048, Determinism::d1()),
        ("elastic_churn", Workload::Bert, 8, 2048, Determinism::d1_d2()),
        ("train_compute", Workload::ResNet18, 8, 4096, Determinism::d1()),
    ];
    let mut rows = Vec::new();
    for (job, workload, batch, dataset, det) in jobs {
        let cfg = JobConfig::new(workload, 7, 8)
            .with_dataset_len(dataset)
            .with_batch_size(batch)
            .with_determinism(det);
        let dir = std::env::temp_dir().join(format!("figs-rescale-{job}-{}", std::process::id()));
        let store = CheckpointStore::open(&dir, job).expect("a temp directory can be made");
        let placement = |i: usize| Placement::homogeneous(8, 2 - (i % 2) as u32, GpuType::V100);
        let mut engine = Engine::new(cfg.clone(), placement(0));
        let mut parts: [Vec<f64>; 7] = Default::default();
        let mut steady = Vec::new();
        for i in 1..=RESCALES {
            for _ in 0..4 {
                steady.push(timed_ms(|| engine.step()).1);
            }
            let (ckpt, checkpoint) = timed_ms(|| engine.checkpoint());
            let (saved, save) = timed_ms(|| store.save(&ckpt));
            saved.expect("the checkpoint is written");
            let (loaded, load) = timed_ms(|| store.load_latest_valid());
            let (loaded, _) = loaded.expect("the store is readable").expect("holds a checkpoint");
            let (mut next, rebuild) =
                timed_ms(|| Engine::from_checkpoint(cfg.clone(), placement(i), &loaded));
            let ((), teardown) = timed_ms(|| drop(engine));
            let (_, first_step) = timed_ms(|| next.step());
            engine = next;
            let split = [checkpoint, save, load, rebuild, teardown, first_step];
            let total: f64 = split.iter().sum();
            for (samples, ms) in parts.iter_mut().zip(split.into_iter().chain([total])) {
                samples.push(ms);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        let [checkpoint, save, load, rebuild, teardown, first_step, total] =
            parts.each_mut().map(p25);
        rows.push(row! {
            job: job, checkpoint_ms: checkpoint, save_ms: save, load_ms: load,
            rebuild_ms: rebuild, teardown_ms: teardown, first_step_ms: first_step,
            stall_ms: total, steady_step_ms: median(&mut steady),
        });
    }
    print_table(&rows);
    Fig::timed(
        "p25 over 60 rescales 2 ↔ 1 workers of checkpoint, save, load, rebuild, teardown and \
         first step beside the steady step, the three benchmark jobs",
    )
}
