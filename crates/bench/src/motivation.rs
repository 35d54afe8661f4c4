//! Motivation experiments (§2): Figs 1–4. Figs 2–4 train the same
//! CIFAR10-like job under DDP, the two elastic baselines and EasyScale.

use baselines::spmd::{SpmdConfig, SpmdTrainer};
use baselines::ElasticJob;
use bench::{print_table, row, spread, Fig};
use data::SyntheticImageDataset;
use device::GpuType;
use easyscale::{Engine, JobConfig, Placement};
use models::Workload;
use optim::{LrSchedule, StepLr};
use serde::Serialize;
use trace::ServingLoad;

const SEED: u64 = 42;
const DATASET: usize = 512;
const BATCH: usize = 8;

/// The LR schedule of Figs 2–3.
fn schedule() -> StepLr {
    StepLr { base_lr: 0.05, gamma: 0.1, step_epochs: 20 }
}

fn eval_set() -> SyntheticImageDataset {
    SyntheticImageDataset::eval_split(SEED, DATASET, 512)
}

fn ddp(workload: Workload, world: u32) -> SpmdTrainer {
    let config = SpmdConfig::new(workload, SEED, world);
    SpmdTrainer::new(config.with_dataset_len(DATASET).with_batch_size(BATCH))
}

/// `ElasticJob::torch_elastic` or `ElasticJob::pollux`.
type Baseline = fn(Workload, u64, u32, u32, StepLr, usize, usize) -> ElasticJob;

/// An elastic baseline job tuned for 4 GPUs, starting on `gpus`.
fn elastic(new: Baseline, workload: Workload, gpus: u32, schedule: StepLr) -> ElasticJob {
    new(workload, SEED, 4, gpus, schedule, DATASET, BATCH)
}

/// The EasyScale job of Figs 2–3 has nEST = 4, which caps its useful GPUs.
fn easyscale_placement(gpus: u32) -> Placement {
    Placement::homogeneous(4, gpus.min(4), GpuType::V100)
}

fn easyscale(gpus: u32) -> Engine {
    let cfg = JobConfig::new(Workload::ResNet18, SEED, 4)
        .with_dataset_len(DATASET)
        .with_batch_size(BATCH)
        .with_lr(schedule());
    Engine::new(cfg, easyscale_placement(gpus))
}

/// Figure 1: two-day GPU allocation of an online serving cluster; the swing
/// (paper: ~2,000 GPUs) is the idle capacity elastic training can harvest.
pub fn fig01_serving_load() -> Fig {
    let load = ServingLoad::production(2021);
    let demand = |minute: u32| load.demand(minute as f64 * 60.0);
    let series: Vec<(u32, u32)> = (0..2 * 1440).step_by(10).map(|m| (m, demand(m))).collect();
    // A terminal sparkline, one row every two hours.
    println!("minute    gpus");
    for (minute, gpus) in series.iter().step_by(12) {
        println!("{minute:>6}  {gpus:>5}  {}", "#".repeat((gpus / 60) as usize));
    }
    let max = series.iter().map(|p| p.1).max().unwrap();
    let min = series.iter().map(|p| p.1).min().unwrap();
    let points: Vec<_> =
        series.iter().map(|&(m, gpus)| row! { minute: m, allocated_gpus: gpus }).collect();
    Fig::tracked(&points, format!("peak {max} GPUs, trough {min} GPUs, swing {} GPUs", max - min))
}

#[derive(Serialize)]
struct Curve {
    name: String,
    accuracy_per_epoch: Vec<f64>,
}

/// The fluctuating GPU schedule elasticity exposes jobs to: the available
/// GPU count changes every two epochs.
fn gpu_schedule(epoch: usize) -> u32 {
    [4u32, 2, 1, 2, 8][(epoch / 2) % 5]
}

/// Figure 2: validation-accuracy curves of ResNet18. DDP at 1/2/4/8 GPUs
/// traces different curves (the global batch changes — expected and
/// user-visible); TorchElastic and Pollux under a fluctuating GPU schedule
/// match none of them; EasyScale under the same schedule is DDP-4GPU.
pub fn fig02_accuracy_curves() -> Fig {
    const EPOCHS: usize = 10;
    let eval = eval_set();
    let mut curves = Vec::new();
    for world in [1u32, 2, 4, 8] {
        let mut t = ddp(Workload::ResNet18, world);
        let mut acc = Vec::new();
        for _ in 0..EPOCHS {
            for _ in 0..t.steps_per_epoch() {
                let epoch = t.global_step() / t.steps_per_epoch();
                t.step(schedule().lr(epoch));
            }
            acc.push(t.evaluate(&eval, 64).0);
        }
        curves.push(Curve { name: format!("DDP-{world}GPU"), accuracy_per_epoch: acc });
    }
    let baselines: [(&str, Baseline); 2] =
        [("TE-elastic", ElasticJob::torch_elastic), ("Pollux-elastic", ElasticJob::pollux)];
    for (name, new) in baselines {
        let mut job = elastic(new, Workload::ResNet18, 4, schedule());
        let mut acc = Vec::new();
        for e in 0..EPOCHS {
            job.set_world(gpu_schedule(e));
            job.run_epoch();
            acc.push(job.evaluate(&eval, 64).0);
        }
        curves.push(Curve { name: name.into(), accuracy_per_epoch: acc });
    }
    // EasyScale suffers the same fluctuating schedule the baselines did.
    let mut engine = easyscale(gpu_schedule(0));
    let mut acc = Vec::new();
    for e in 0..EPOCHS {
        let placement = easyscale_placement(gpu_schedule(e));
        if engine.placement().n_workers() != placement.n_workers() {
            engine = engine.rescale(placement);
        }
        engine.run(engine.steps_per_epoch());
        acc.push(engine.evaluate(&eval, 64).overall);
    }
    curves.push(Curve { name: "EasyScale-4EST-elastic".into(), accuracy_per_epoch: acc });
    print_table(&curves);

    // Shape check: EasyScale under elasticity == DDP-4GPU exactly.
    let curve = |name: &str| curves.iter().find(|c| c.name == name).unwrap();
    let (ddp4, es) = (curve("DDP-4GPU"), curve("EasyScale-4EST-elastic"));
    assert_eq!(
        ddp4.accuracy_per_epoch, es.accuracy_per_epoch,
        "EasyScale accuracy must equal fixed-4-GPU DDP"
    );
    let (te, pollux) = (curve("TE-elastic"), curve("Pollux-elastic"));
    assert_ne!(ddp4.accuracy_per_epoch, te.accuracy_per_epoch, "TE must diverge");

    let first: Vec<String> =
        curves[..4].iter().map(|c| format!("{:.3}", c.accuracy_per_epoch[0])).collect();
    let same = |c: &Curve| {
        c.accuracy_per_epoch.iter().zip(&ddp4.accuracy_per_epoch).filter(|(a, b)| a == b).count()
    };
    let (first, es, te, pollux) = (first.join("/"), same(es), same(te), same(pollux));
    let measured = format!(
        "epoch-1 accuracy of DDP on 1/2/4/8 GPUs {first}; epochs (of {EPOCHS}) equal to \
         DDP-4GPU: EasyScale-4EST-elastic {es}, TE-elastic {te}, Pollux-elastic {pollux}"
    );
    Fig::tracked(&curves, measured)
}

#[derive(Serialize)]
struct RowOut {
    system: String,
    gpus: u32,
    overall: f64,
    per_class: Vec<f64>,
}

/// Print one system's runs; returns its "overall / max per-class" accuracy
/// spread across the GPU counts, as fractions and as the measured text.
fn print_block(rows: &[RowOut]) -> (f64, f64, String) {
    println!("\n--- {} ---", rows[0].system);
    print_table(rows);
    let overall = spread(rows.iter().map(|r| r.overall));
    let class = |c: usize| spread(rows.iter().map(|r| r.per_class[c]));
    let max_class = (0..10).map(class).fold(0.0, f64::max);
    (overall, max_class, format!("{:.1}% / {:.1}%", overall * 100.0, max_class * 100.0))
}

/// Figure 3: per-class accuracy of ResNet18 at the final epoch, for
/// TorchElastic and Pollux runs on 1/2/4/8 GPUs: it varies more than the
/// overall accuracy (paper: up to 7.4% / 17.3%); EasyScale's does not vary.
pub fn fig03_per_class() -> Fig {
    const EPOCHS: usize = 12;
    let eval = eval_set();
    let run_elastic = |system: &str, new: Baseline, gpus: u32| {
        let mut job = elastic(new, Workload::ResNet18, gpus, schedule());
        for _ in 0..EPOCHS {
            job.run_epoch();
        }
        let (overall, per_class) = job.evaluate(&eval, 64);
        RowOut { system: system.into(), gpus, overall, per_class }
    };
    let run_easyscale = |gpus: u32| {
        let mut e = easyscale(gpus);
        e.run(EPOCHS as u64 * e.steps_per_epoch());
        let r = e.evaluate(&eval, 64);
        RowOut { system: "EasyScale".into(), gpus, overall: r.overall, per_class: r.per_class }
    };
    let gpu_counts = [1u32, 2, 4, 8];
    let te: Vec<RowOut> =
        gpu_counts.iter().map(|&g| run_elastic("TE", ElasticJob::torch_elastic, g)).collect();
    let (te_overall, te_class, te_text) = print_block(&te);
    let pollux: Vec<RowOut> =
        gpu_counts.iter().map(|&g| run_elastic("Pollux", ElasticJob::pollux, g)).collect();
    let (_, pollux_class, pollux_text) = print_block(&pollux);
    // nEST = 4 on varying physical GPUs.
    let es: Vec<RowOut> = [1u32, 2, 4].iter().map(|&g| run_easyscale(g)).collect();
    let (es_overall, es_class, es_text) = print_block(&es);

    assert!(te_class > te_overall, "per-class variance exceeds overall variance");
    assert!(pollux_class > 0.0 && te_class > 0.0, "baselines vary across GPU counts");
    assert_eq!(es_overall, 0.0, "EasyScale overall accuracy identical across placements");
    assert_eq!(es_class, 0.0, "EasyScale per-class accuracy identical across placements");

    let mut all = te;
    all.extend(pollux);
    all.extend(es);
    let measured = format!(
        "accuracy spread across GPU counts, overall / max per-class: TE {te_text}, Pollux \
         {pollux_text}, EasyScale {es_text}"
    );
    Fig::tracked(&all, measured)
}

#[derive(Serialize)]
struct LossCurve {
    name: String,
    loss_per_epoch: Vec<f32>,
}

/// How legibly the late-epoch (last three) losses separate by gamma: mean
/// absolute difference between adjacent gammas over within-curve jitter.
/// Smaller gamma freezes the model earlier, so late curves should separate.
fn separation(curves: &[LossCurve]) -> f64 {
    let tail = |c: &LossCurve| c.loss_per_epoch[c.loss_per_epoch.len() - 3..].to_vec();
    let late = |c: &LossCurve| tail(c).iter().sum::<f32>() / 3.0;
    let jitter = |c: &LossCurve| {
        let m = late(c);
        tail(c).iter().map(|x| (x - m).abs()).sum::<f32>() / 3.0
    };
    let mut sep = 0.0f64;
    let mut jit = 0.0f64;
    for w in curves.windows(2) {
        sep += (late(&w[0]) - late(&w[1])).abs() as f64;
        jit += (jitter(&w[0]) + jitter(&w[1])) as f64 / 2.0;
    }
    sep / jit.max(1e-9)
}

/// Figure 4: how the LR decay factor `gamma` shows up in the training loss —
/// clearly ordered under DDP on a fixed 4 GPUs, obscured by oscillations
/// under Pollux on 1/2/4 GPUs with mid-training re-scales. The decay
/// boundary is pulled in (every 3 epochs) so a short run shows the effect.
pub fn fig04_gamma() -> Fig {
    const EPOCHS: usize = 9;
    let schedule = |gamma: f32| StepLr { base_lr: 0.08, gamma, step_epochs: 3 };
    let ddp_curve = |gamma: f32| {
        let mut t = ddp(Workload::ResNet50, 4);
        let mut losses = Vec::new();
        for e in 0..EPOCHS {
            let mut sum = 0.0;
            for _ in 0..t.steps_per_epoch() {
                sum += t.step(schedule(gamma).lr(e as u64));
            }
            losses.push(sum / t.steps_per_epoch() as f32);
        }
        LossCurve { name: format!("DDP-4GPU-{gamma}"), loss_per_epoch: losses }
    };
    let pollux_curve = |gamma: f32, gpus: u32| {
        let mut job = elastic(ElasticJob::pollux, Workload::ResNet50, gpus, schedule(gamma));
        let mut losses = Vec::new();
        for e in 0..EPOCHS {
            // Pollux re-scales as the cluster fluctuates: bounce the world.
            job.set_world([gpus, (gpus * 2).min(8), gpus.max(1)][e % 3]);
            let mut sum = 0.0;
            for _ in 0..8 {
                sum += job.step();
            }
            losses.push(sum / 8.0);
        }
        LossCurve { name: format!("Pollux-{gpus}GPU-{gamma}"), loss_per_epoch: losses }
    };
    let gammas = [0.1f32, 0.3, 0.5];
    let ddp_curves: Vec<LossCurve> = gammas.iter().map(|&g| ddp_curve(g)).collect();
    let pollux_curves: Vec<LossCurve> =
        gammas.iter().zip([1u32, 2, 4]).map(|(&g, w)| pollux_curve(g, w)).collect();

    let ddp_sep = separation(&ddp_curves);
    let pollux_sep = separation(&pollux_curves);
    let mut all = ddp_curves;
    all.extend(pollux_curves);
    print_table(&all);
    assert!(
        ddp_sep > pollux_sep,
        "fixed-resource DDP must show the gamma effect more clearly than elastic Pollux"
    );
    let measured = format!(
        "gamma separation score (late-epoch separation / within-curve jitter, higher = \
         clearer trend): DDP {ddp_sep:.2}, Pollux {pollux_sep:.2}"
    );
    Fig::tracked(&all, measured)
}
