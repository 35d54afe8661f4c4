//! Trace and cluster experiments (§5.2–5.3): the Eq 1 plan model and the
//! Fig 14–16 scheduler simulations. All deterministic.

use bench::{print_table, row, Fig};
use device::{ClusterSpec, GpuType};
use models::Workload;
use sched::{ClusterSim, Companion, JobSpec, Policy, SimOutcome};
use serde::Serialize;
use trace::{ServingLoad, TraceConfig, TraceGenerator};

/// The 64-GPU trace cluster and the default 500-job trace under `policy`.
fn run_trace(policy: Policy) -> SimOutcome {
    let jobs = TraceGenerator::new(TraceConfig::default()).generate();
    ClusterSim::new(&ClusterSpec::paper_trace_cluster(), jobs, policy).run()
}

#[derive(Serialize)]
struct PolicyResult {
    policy: String,
    avg_jct_secs: f64,
    makespan_secs: f64,
    jct_speedup_vs_yarn: f64,
    makespan_speedup_vs_yarn: f64,
    avg_training_gpus: f64,
}

/// Figure 14: average JCT and makespan of YARN-CS vs EasyScale-homo vs
/// EasyScale-heter on the 64-GPU trace cluster. Paper: homo 8.3× JCT / 2.5×
/// makespan over YARN-CS, heter 13.2× / 2.8×; the factors depend on the
/// trace, the ordering and order of magnitude are the reproduced claims.
pub fn fig14_trace_jct() -> Fig {
    let policies = [
        ("YARN-CS", Policy::YarnCapacity),
        ("EasyScale_homo", Policy::EasyScaleHomo),
        ("EasyScale_heter", Policy::EasyScaleHeter),
    ];
    let outcomes = policies.map(|(name, policy)| (name, run_trace(policy)));
    let yarn_jct = outcomes[0].1.avg_jct;
    let yarn_mk = outcomes[0].1.makespan;
    let results: Vec<PolicyResult> = outcomes
        .iter()
        .map(|(name, out)| PolicyResult {
            policy: name.to_string(),
            avg_jct_secs: out.avg_jct,
            makespan_secs: out.makespan,
            jct_speedup_vs_yarn: yarn_jct / out.avg_jct,
            makespan_speedup_vs_yarn: yarn_mk / out.makespan,
            avg_training_gpus: out.avg_training_gpus(),
        })
        .collect();
    print_table(&results);

    // Shape checks mirroring the paper's ordering claims.
    assert!(
        results[1].jct_speedup_vs_yarn > 2.0,
        "EasyScale_homo must improve JCT substantially over YARN-CS"
    );
    assert!(
        results[2].jct_speedup_vs_yarn >= results[1].jct_speedup_vs_yarn,
        "heterogeneity must not hurt JCT"
    );
    assert!(results[1].makespan_speedup_vs_yarn > 1.2, "makespan improves under elasticity");
    assert!(
        results[2].avg_training_gpus >= results[1].avg_training_gpus,
        "heter uses at least as many GPUs as homo"
    );
    let speedups = |r: &PolicyResult| {
        format!("{:.1}x JCT, {:.1}x makespan", r.jct_speedup_vs_yarn, r.makespan_speedup_vs_yarn)
    };
    let (jobs, homo, heter) =
        (outcomes[0].1.records.len(), speedups(&results[1]), speedups(&results[2]));
    let measured = format!(
        "{jobs}-job trace on the 64-GPU cluster, vs YARN-CS: EasyScale_homo {homo}; \
         EasyScale_heter {heter}"
    );
    Fig::tracked(&results, measured)
}

/// Resample a timeline at fixed ticks (step function semantics).
fn sample(out: &SimOutcome, tick: f64) -> (Vec<f64>, Vec<u32>) {
    let mut ts = Vec::new();
    let mut alloc = Vec::new();
    let mut t = 0.0;
    let mut i = 0;
    while t <= out.makespan {
        while i + 1 < out.timeline.len() && out.timeline[i + 1].t <= t {
            i += 1;
        }
        ts.push(t);
        alloc.push(out.timeline[i].training_gpus);
        t += tick;
    }
    (ts, alloc)
}

/// Figure 15: allocated GPUs over time for EasyScale-homo vs
/// EasyScale-heter on the same trace. The heter curve sits at or above the
/// homo curve — jobs that can mix GPU types soak up leftover P100/T4
/// capacity homo jobs cannot use.
pub fn fig15_alloc_timeline() -> Fig {
    let homo = run_trace(Policy::EasyScaleHomo);
    let heter = run_trace(Policy::EasyScaleHeter);
    let tick = (homo.makespan.max(heter.makespan) / 60.0).max(1.0);
    let (ts, homo_alloc) = sample(&homo, tick);
    let (_, heter_alloc) = sample(&heter, tick);

    println!("{:>10} {:>10} {:>10}", "t (s)", "homo", "heter");
    for (i, t) in ts.iter().enumerate().step_by(4) {
        let h = homo_alloc[i];
        let x = heter_alloc.get(i).copied().unwrap_or(0);
        println!("{:>10.0} {:>10} {:>10}   {}", t, h, x, "#".repeat(x as usize / 2));
    }
    let avg_h: f64 = homo.avg_training_gpus();
    let avg_x: f64 = heter.avg_training_gpus();
    assert!(avg_x >= avg_h, "heter must allocate at least as many GPUs on average");
    let measured =
        format!("time-averaged allocation: homo {avg_h:.1} GPUs, heter {avg_x:.1} GPUs (of 64)");
    let series = [
        row! { policy: "EasyScale_homo", t_secs: ts, allocated: homo_alloc },
        row! { policy: "EasyScale_heter", t_secs: ts, allocated: heter_alloc },
    ];
    Fig::tracked(&series, measured)
}

/// Equation 1 in action: the companion module's plan database for one job
/// (Bert proxy, maxP = 8, D2 kernels) across candidate allocations — EST
/// assignments, overload factor, waste, and estimated throughput.
pub fn exp_plan_model() -> Fig {
    let companion = Companion::for_workload(&Workload::Bert.spec(), 8, true);
    println!(
        "caps: V100 {:.2} | P100 {:.2} | T4 {:.2} mini-batches/s",
        companion.capability(GpuType::V100),
        companion.capability(GpuType::P100),
        companion.capability(GpuType::T4)
    );
    let candidates = vec![
        vec![(GpuType::V100, 1)],
        vec![(GpuType::V100, 2)],
        vec![(GpuType::V100, 4)],
        vec![(GpuType::V100, 8)],
        vec![(GpuType::P100, 2)],
        vec![(GpuType::P100, 4)],
        vec![(GpuType::T4, 4)],
        vec![(GpuType::V100, 2), (GpuType::P100, 2)],
        vec![(GpuType::V100, 2), (GpuType::T4, 4)],
        vec![(GpuType::V100, 1), (GpuType::P100, 2), (GpuType::T4, 2)],
    ];
    let mut rows = Vec::new();
    for alloc in candidates {
        let plan = companion.plan(&alloc).unwrap();
        let name = alloc.iter().map(|(t, n)| format!("{n}x{t}")).collect::<Vec<_>>().join(" + ");
        // The Eq 1 identity holds for every plan.
        assert!((plan.throughput - 8.0 / plan.f_overload).abs() < 1e-6);
        rows.push(row! {
            alloc: name, a: plan.a, n_est: plan.n_est, f_overload: plan.f_overload,
            waste: plan.waste, throughput: plan.throughput,
        });
    }
    print_table(&rows);
    let measured =
        format!("throughput = maxP / f_overload holds for all {} candidate plans", rows.len());
    Fig::tracked(&rows, measured)
}

/// SM utilization of a GPU occupied by inference serving (bursty, low).
const SERVING_UTIL: f64 = 0.30;
/// SM utilization of a GPU running EasyScale training (dense compute).
const TRAINING_UTIL: f64 = 0.92;

#[derive(Serialize)]
struct DayStats {
    day: &'static str,
    alloc_ratio: f64,
    avg_sm_util: f64,
    avg_training_gpus: f64,
    preemptions: usize,
    failures: u64,
}

/// A standing backlog of long elastic jobs (mixed CV/NLP, per §5.3) arriving
/// in the first hour, enough aggregate work to keep idle GPUs busy all day.
fn training_jobs(n: usize) -> Vec<JobSpec> {
    (0..n)
        .map(|i| {
            let workload = models::WORKLOADS[i % 8];
            let cap = workload.spec().capability(GpuType::V100, false);
            JobSpec {
                id: i as u64,
                workload,
                arrival: (i as f64) * 30.0,
                work: cap * 16.0 * 86_400.0 * 2.0, // outlasts the full day
                max_p: 16,
                requested_gpus: 8,
                requested_type: GpuType::V100,
            }
        })
        .collect()
}

/// Figure 16: one-day co-location statistics on a production-scale cluster
/// (3,000+ GPUs). Day 1: serving only. Day 2: elastic EasyScale jobs fill the
/// idle GPUs, scaling in when serving demand spikes. Paper: allocation ratio
/// +17.1%, SM utilization +62.1%, 362 preemptions, zero failed training jobs.
pub fn fig16_colocation() -> Fig {
    let cluster = ClusterSpec::production_cluster();
    let total = cluster.gpu_count() as f64;
    let load = ServingLoad::production(2021);

    // Day 1: serving only. Sample the curve directly.
    let samples = 288; // 5-minute buckets
    let serving_sum: f64 = (0..samples).map(|i| load.demand(i as f64 * 300.0) as f64).sum();
    let day1_alloc = serving_sum / samples as f64 / total;
    let day1 = DayStats {
        day: "day-1 (serving only)",
        alloc_ratio: day1_alloc,
        avg_sm_util: day1_alloc * SERVING_UTIL,
        avg_training_gpus: 0.0,
        preemptions: 0,
        failures: 0,
    };

    // Day 2: EasyScale jobs fill the idle GPUs.
    let sim = ClusterSim::new(&cluster, training_jobs(160), Policy::EasyScaleHeter)
        .with_serving(move |t| load.demand_by_type(t));
    let out = sim.run();
    assert!(out.makespan > 86_400.0, "training backlog must outlast the measured day");
    let horizon = 86_400.0;
    // Time-averaged stats over the first day of the simulation.
    let mut train_sum = 0.0;
    let mut serve_sum = 0.0;
    let mut span = 0.0;
    for w in out.timeline.windows(2) {
        if w[0].t >= horizon {
            break;
        }
        let dt = w[1].t.min(horizon) - w[0].t;
        train_sum += w[0].training_gpus as f64 * dt;
        serve_sum += w[0].serving_gpus as f64 * dt;
        span += dt;
    }
    let avg_train = train_sum / span;
    let avg_serve = serve_sum / span;
    let day2 = DayStats {
        day: "day-2 (with EasyScale)",
        alloc_ratio: (avg_train + avg_serve) / total,
        avg_sm_util: (avg_train * TRAINING_UTIL + avg_serve * SERVING_UTIL) / total,
        avg_training_gpus: avg_train,
        preemptions: out.preemptions.len(),
        failures: out.failures,
    };
    print_table(&[&day1, &day2]);

    let alloc_gain = (day2.alloc_ratio - day1.alloc_ratio) * 100.0;
    let util_gain = (day2.avg_sm_util / day1.avg_sm_util - 1.0) * 100.0;
    assert!(day2.alloc_ratio > day1.alloc_ratio + 0.08, "allocation must rise substantially");
    assert!(util_gain > 30.0, "utilization must rise substantially");
    assert_eq!(day2.failures, 0);
    let (a1, a2) = (day1.alloc_ratio * 100.0, day2.alloc_ratio * 100.0);
    let (u1, u2) = (day1.avg_sm_util * 100.0, day2.avg_sm_util * 100.0);
    let (preemptions, failures) = (day2.preemptions, day2.failures);
    let measured = format!(
        "allocation ratio {a1:.1}% → {a2:.1}% (+{alloc_gain:.1} points), SM utilization \
         {u1:.1}% → {u2:.1}% (+{util_gain:.1}% relative); {preemptions} preemptions, {failures} \
         training-job failures"
    );
    Fig::tracked(&[day1, day2], measured)
}
