//! `sched_trace`: no engine at all. One pass generates a job trace from the
//! seed and simulates it under the three policies of Fig 14 and once more
//! co-located with a serving load, all on the paper's 64-GPU cluster. The
//! two stall metrics are the control plane's share of a rescale and of a
//! recovery: the wall time of one scheduling decision.

use crate::calib::{millis, raw_secs as raw, secs, Calibrator, Kind, Timed};
use crate::catalog::{FAULT_STALL_MS, RESCALE_STALL_MS, SETUP_S, WORK_PER_S};
use crate::job;
use crate::report::{floats, obj, summary_json, Metrics, Ops};
use crate::spans::{self, Tracer};
use crate::stats::{median, p25, summarize};
use crate::Scale;
use comm::Heartbeat;
use device::{ClusterSpec, GpuType};
use models::Workload;
use sched::{
    ClusterSim, Companion, HealthPolicy, InterJobScheduler, IntraJobScheduler, JobSpec, Policy,
    SimOutcome, Supervisor, SupervisorAction,
};
use serde_json::Value;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use trace::{ServingLoad, TraceConfig, TraceGenerator};

const NAME: &str = crate::catalog::SCHED_TRACE;
/// Metric and span name of each of a pass's four simulations.
const SIMS: [(&str, &str); 4] = [
    ("sched.sim_ms.yarn", "sim.yarn"),
    ("sched.sim_ms.homo", "sim.homo"),
    ("sched.sim_ms.heter", "sim.heter"),
    ("sched.sim_ms.colocate", "sim.colocate"),
];
/// Decisions per timed block of the two control-plane metrics: a block is
/// a few milliseconds, as long as the calibration kernel beside it. One
/// block of each kind follows every pass, so that the blocks of a run are
/// spread over the host's fast and slow phases as the passes are.
const DECISIONS_PER_BLOCK: usize = 500;
/// Traces a run cycles through, pass by pass. How long a 500-job trace takes
/// to simulate depends on the few very long jobs it drew (runtimes are
/// log-normal with sigma 1.4): across seeds one trace's pass time spreads by
/// 10-19 %, the sum over four by half that.
const TRACES: usize = 4;

fn trace_config(seed: u64, scale: &Scale) -> TraceConfig {
    TraceConfig { n_jobs: if scale.smoke { 40 } else { 500 }, seed, ..TraceConfig::default() }
}

/// The four simulations of one pass over `jobs`.
fn simulators(cluster: &ClusterSpec, jobs: &[JobSpec], seed: u64) -> Vec<ClusterSim> {
    let load = ServingLoad::small(24, 6, seed);
    vec![
        ClusterSim::new(cluster, jobs.to_vec(), Policy::YarnCapacity),
        ClusterSim::new(cluster, jobs.to_vec(), Policy::EasyScaleHomo),
        ClusterSim::new(cluster, jobs.to_vec(), Policy::EasyScaleHeter),
        ClusterSim::new(cluster, jobs.to_vec(), Policy::EasyScaleHeter)
            .with_serving(move |t| load.demand_by_type(t)),
    ]
}

/// Cluster, trace and simulators, as a pass builds them, and the cheapest
/// simulation once as the warm first operation.
fn set_up(seed: u64, scale: &Scale) {
    let cluster = ClusterSpec::paper_trace_cluster();
    let jobs = TraceGenerator::new(trace_config(seed, scale)).generate();
    let sims = simulators(&cluster, &jobs, seed);
    black_box(sims[0].run());
}

/// One pass, under spans when `tr` is given. Returns the four outcomes and
/// how long each simulation took; trace generation and simulator
/// construction (about a thousandth of a pass) are timed with the first.
fn pass(
    seed: u64,
    scale: &Scale,
    op: u64,
    mut tr: Option<&mut Tracer>,
    cal: &mut Calibrator,
) -> (Vec<SimOutcome>, Vec<Timed>) {
    let root = tr.as_mut().map(|t| t.enter("pass", op));
    let mut sims = Vec::new();
    let mut outcomes = Vec::new();
    let mut times = Vec::new();
    for (k, (_, name)) in SIMS.iter().enumerate() {
        let (out, took) = cal.time(|| {
            if k == 0 {
                let s = tr.as_mut().map(|t| t.enter("trace.generate", op));
                let cluster = ClusterSpec::paper_trace_cluster();
                let jobs = TraceGenerator::new(trace_config(seed, scale)).generate();
                sims = simulators(&cluster, &jobs, seed);
                if let (Some(t), Some(s)) = (tr.as_mut(), s) {
                    t.exit(s);
                }
            }
            match tr.as_mut() {
                Some(t) => t.time(name, op, || sims[k].run()),
                None => sims[k].run(),
            }
        });
        outcomes.push(out);
        times.push(took);
    }
    if let (Some(t), Some(r)) = (tr.as_mut(), root) {
        t.exit(r);
    }
    (outcomes, times)
}

/// Fig 14's shape on this trace, and bit-equality with the first pass. The
/// smoke trace is too small to congest the cluster, so there EasyScale only
/// has to be no slower than YARN-CS.
fn check_pass(out: &[SimOutcome], first: &[SimOutcome], scale: &Scale, ops: &mut Ops) {
    let (yarn, homo, heter) = (out[0].avg_jct, out[1].avg_jct, out[2].avg_jct);
    let speedup = if scale.smoke { 1.0 } else { 2.0 };
    ops.check(yarn / homo > speedup && heter <= homo, || {
        format!("Fig 14 shape: avg JCT yarn {yarn:.0} s, homo {homo:.0} s, heter {heter:.0} s")
    });
    let failures: u64 = out.iter().map(|o| o.failures).sum();
    ops.check(failures == 0, || format!("{failures} simulated jobs failed"));
    let same = out.iter().zip(first).all(|(a, b)| a.avg_jct.to_bits() == b.avg_jct.to_bits());
    ops.check(same, || "avg_jct differs between two passes over the same trace".to_string());
}

fn full_pool() -> BTreeMap<GpuType, u32> {
    [(GpuType::V100, 16), (GpuType::P100, 16), (GpuType::T4, 16)].into_iter().collect()
}

/// A 16-EST heterogeneity-friendly job holding two V100s.
fn elastic_job() -> IntraJobScheduler {
    let companion = Companion::for_workload(&Workload::Bert.spec(), 16, true);
    let mut intra = IntraJobScheduler::new(0, companion, true);
    intra.apply_allocation(vec![(GpuType::V100, 2)]);
    intra
}

/// One scale-out decision: proposals against the free pool, the cluster
/// scheduler's grant, the new allocation, the EST placement on it.
fn rescale_decision(ops: &mut Ops) {
    let mut intra = elastic_job();
    let mut free = full_pool();
    let proposals = intra.proposals(&free, 3);
    let grants = InterJobScheduler.decide(proposals, &mut free);
    let mut alloc = intra.current().clone();
    for g in &grants {
        match alloc.iter_mut().find(|(ty, _)| *ty == g.gpu) {
            Some(slot) => slot.1 += g.count,
            None => alloc.push((g.gpu, g.count)),
        }
    }
    intra.apply_allocation(alloc);
    let placed = black_box(intra.current_placement());
    if grants.len() != 1 || placed.is_none_or(|p| p.validate(16).is_err()) {
        ops.fail(format!("scale-out decision: {} grants, no valid placement", grants.len()));
    }
}

/// One recovery decision: a device stops sending heartbeats, the supervisor
/// evicts it after three missed leases, the job is re-placed without it.
fn fault_decision(seed: u64, ops: &mut Ops) {
    const LEASE_US: u64 = 1_000;
    const DEVICES: u32 = 8;
    let victim = (seed % DEVICES as u64) as u32;
    let mut supervisor = Supervisor::new(HealthPolicy::with_lease(LEASE_US));
    for d in 0..DEVICES {
        supervisor.register(d, 0);
    }
    let mut actions = Vec::new();
    for round in 1..=4u64 {
        let now = round * LEASE_US;
        for d in (0..DEVICES).filter(|&d| d != victim) {
            supervisor.observe(&Heartbeat {
                device: d,
                step: round,
                sent_at_us: now,
                step_time_us: Some(100),
            });
        }
        actions.extend(supervisor.tick(now));
    }
    let mut intra = elastic_job();
    intra.apply_preemption(GpuType::V100, 1);
    let placed = black_box(intra.current_placement());
    let evicted = actions == [SupervisorAction::Evict { device: victim, assume_crash: true }];
    if !evicted || placed.is_none_or(|p| p.validate(16).is_err()) {
        ops.fail(format!("recovery decision: supervisor said {actions:?}"));
    }
}

/// One block of `DECISIONS_PER_BLOCK` decisions: time per decision.
fn decision_block(cal: &mut Calibrator, ops: &mut Ops, mut decide: impl FnMut(&mut Ops)) -> Timed {
    let per_decision = 1.0 / DECISIONS_PER_BLOCK as f64;
    let ((), took) = cal.time(|| {
        for _ in 0..DECISIONS_PER_BLOCK {
            decide(ops);
        }
    });
    ops.ok(DECISIONS_PER_BLOCK as u64);
    Timed { raw_s: took.raw_s * per_decision, s: took.s * per_decision }
}

/// The seed of trace number `k` of a run: the run's seed picks them all.
fn trace_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(TRACES as u64).wrapping_add(k as u64)
}

pub fn run_untraced(seed: u64, scale: &Scale) -> Result<(Ops, Metrics, Value), String> {
    let mut ops = Ops::default();
    let mut cal = Calibrator::new(Kind::Ordered);
    let setups: Vec<Timed> =
        (0..scale.setup_reps()).map(|_| cal.time(|| set_up(seed, scale)).1).collect();
    let jobs_per_pass = (trace_config(seed, scale).n_jobs * SIMS.len()) as f64;

    // One list of times per trace and simulation: each pair is different
    // work, so times are pooled only within a pair.
    let mut lists: Vec<Vec<Vec<Timed>>> = vec![vec![Vec::new(); SIMS.len()]; TRACES];
    let mut first: Vec<Option<Vec<SimOutcome>>> = vec![None; TRACES];
    let (mut rescale, mut fault) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut passes = 0;
    while job::secs(start) < scale.seconds || passes < scale.min_blocks().max(2 * TRACES) {
        let k = passes % TRACES;
        let (out, times) = pass(trace_seed(seed, k), scale, passes as u64, None, &mut cal);
        for (list, t) in lists[k].iter_mut().zip(times) {
            list.push(t);
        }
        check_pass(&out, first[k].as_ref().unwrap_or(&out), scale, &mut ops);
        first[k].get_or_insert(out);
        rescale.push(decision_block(&mut cal, &mut ops, rescale_decision));
        fault.push(decision_block(&mut cal, &mut ops, |ops| fault_decision(seed, ops)));
        passes += 1;
    }

    let lap = |f: &dyn Fn(&[Timed]) -> Vec<f64>| -> f64 {
        lists.iter().flatten().map(|pair| p25(&f(pair))).sum()
    };
    let (lap_s, lap_raw_s) = (lap(&secs), lap(&raw));
    let mut metrics = Metrics::new();
    metrics.insert(WORK_PER_S, TRACES as f64 * jobs_per_pass / lap_s);
    metrics.insert(RESCALE_STALL_MS, p25(&millis(secs(&rescale))));
    metrics.insert(FAULT_STALL_MS, p25(&millis(secs(&fault))));
    metrics.insert(SETUP_S, median(&secs(&setups)));

    let first: Vec<&Vec<SimOutcome>> = first.iter().flatten().collect();
    let sim_lists = |sim: usize, f: &dyn Fn(&[Timed]) -> Vec<f64>| {
        Value::Seq(lists.iter().map(|trace| floats(&f(&trace[sim]))).collect())
    };
    let mut detail = vec![
        ("jobs_per_pass", Value::F64(jobs_per_pass)),
        ("traces", Value::U64(TRACES as u64)),
        ("passes", Value::U64(passes as u64)),
        (
            "events_per_pass",
            floats(
                &first
                    .iter()
                    .map(|o| o.iter().map(|s| s.timeline.len()).sum::<usize>() as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("pass_s", Value::F64(lap_s / TRACES as f64)),
        ("pass_raw_s", Value::F64(lap_raw_s / TRACES as f64)),
    ];
    for (sim, (metric, _)) in SIMS.iter().enumerate() {
        detail.push((
            metric,
            obj(vec![("s", sim_lists(sim, &secs)), ("raw_s", sim_lists(sim, &raw))]),
        ));
    }
    detail.extend([
        ("rescale_decision_ms", summary_json(&summarize(&millis(secs(&rescale))), "ms")),
        ("rescale_decision_raw_ms", summary_json(&summarize(&millis(raw(&rescale))), "ms")),
        ("fault_decision_ms", summary_json(&summarize(&millis(secs(&fault))), "ms")),
        ("fault_decision_raw_ms", summary_json(&summarize(&millis(raw(&fault))), "ms")),
        ("setup_s", summary_json(&summarize(&secs(&setups)), "s")),
        ("setup_raw_s", summary_json(&summarize(&raw(&setups)), "s")),
        ("calibration", obj(vec![("ordered", Value::F64(cal.median_ms()))])),
        (
            "check.avg_jct_s",
            Value::Seq(
                first.iter().map(|o| floats(&[o[0].avg_jct, o[1].avg_jct, o[2].avg_jct])).collect(),
            ),
        ),
    ]);
    Ok((ops, metrics, obj(detail)))
}

pub fn run_traced(seed: u64, scale: &Scale, out: &Path) -> Result<(Ops, Metrics), String> {
    let mut ops = Ops::default();
    let mut tr = Tracer::new();
    let mut off = Calibrator::off(Kind::Ordered);
    let (first, _) = pass(seed, scale, 0, None, &mut off);
    let mut events = 0usize;
    let start = Instant::now();
    let mut n = 0u64;
    while job::secs(start) < scale.seconds || n < scale.min_blocks() as u64 {
        let (outcomes, _) = pass(seed, scale, n, Some(&mut tr), &mut off);
        check_pass(&outcomes, &first, scale, &mut ops);
        events = outcomes.iter().map(|o| o.timeline.len()).sum();
        n += 1;
    }

    let breakdown = spans::finish(&tr, out, NAME, &mut ops)?;
    let self_p50 = |name: &str| breakdown.self_p50_ms(name);
    let ratio = breakdown.parts_over_whole;

    let mut m = Metrics::new();
    let mut sim_ms = 0.0;
    for (metric, span) in SIMS {
        m.insert(metric, self_p50(span));
        sim_ms += self_p50(span);
    }
    m.insert("sched.sim_events", events as f64);
    m.insert("sched.us_per_event", sim_ms * 1e3 / events as f64);
    m.insert("trace.generate_ms", self_p50("trace.generate"));
    m.insert("trace.parts_over_whole", ratio);

    // bench_gate's two scheduler benches, same inputs.
    let reps = scale.probe_reps() * 20;
    let companion = Companion::for_workload(&Workload::Bert.spec(), 16, true);
    let alloc = vec![(GpuType::V100, 4), (GpuType::P100, 4), (GpuType::T4, 8)];
    let plan: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(companion.plan(black_box(&alloc)));
            job::ms(t) * 1e3
        })
        .collect();
    m.insert("sched.companion_plan_us", median(&plan));
    let mut intra = IntraJobScheduler::new(
        0,
        Companion::for_workload(&Workload::ResNet50.spec(), 16, false),
        false,
    );
    intra.apply_allocation(vec![(GpuType::V100, 2)]);
    let free = full_pool();
    let proposals: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(intra.proposals(black_box(&free), 3));
            job::ms(t) * 1e3
        })
        .collect();
    m.insert("sched.intra_proposals_us", median(&proposals));

    eprintln!("  {NAME}: {n} passes, {events} events per pass, {sim_ms:.1} ms simulating");
    Ok((ops, m))
}
