//! `elastic_churn`: the same engine code as the training workloads, driven
//! in the other direction — build, snapshot, serialise, tear down, respawn.
//!
//! One cycle is 20 steps, then a rescale through the durable store onto the
//! next placement of a ring of three, timed to the return of the first step
//! there. Every fifth cycle one worker thread panics before one of the
//! steps. After every rescale the parameters must equal those of a
//! reference that is never rescaled and never faulted.

use crate::calib::{self, Calibrator, Kind, Timed};
use crate::catalog::{FAULT_STALL_MS, RESCALE_STALL_MS, SETUP_S, WORK_PER_S};
use crate::job;
use crate::probes;
use crate::report::{floats, obj, summary_json, Metrics, Ops};
use crate::spans::{self, Tracer};
use crate::stats::{median, p25, summarize};
use crate::Scale;
use device::GpuType;
use easyscale::{CheckpointStore, Engine, ExecMode, JobConfig, Placement};
use faultsim::{run_fault_free, FaultHarness, FaultSchedule, HarnessConfig};
use obs::sink::MemorySink;
use serde_json::Value;
use std::path::Path;
use std::time::Instant;

const NAME: &str = crate::catalog::ELASTIC_CHURN;
const STEPS_PER_CYCLE: usize = 20;
const FAULT_EVERY: usize = 5;

/// Two balanced workers, one worker hosting all eight ESTs, and a V100
/// carrying five ESTs beside a T4 carrying three.
fn ring() -> [Placement; 3] {
    [
        job::two_workers(),
        job::one_worker(),
        Placement::heterogeneous(&[(GpuType::V100, 5), (GpuType::T4, 3)]),
    ]
}

fn set_up(cfg: &JobConfig, out: &Path, ops: &mut Ops) -> Result<(Engine, CheckpointStore), String> {
    let store = job::open_store(out, NAME).map_err(|e| e.to_string())?;
    let mut engine = Engine::new_opts(cfg.clone(), ring()[0].clone(), job::exec(ExecMode::Pool));
    job::step(&mut engine, ops);
    Ok((engine, store))
}

/// Which step of a fault cycle is hit, and which worker: both from the seed.
fn fault_target(seed: u64, cycle: usize, workers: usize) -> (usize, usize) {
    let mix = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(cycle as u64);
    ((mix % STEPS_PER_CYCLE as u64) as usize, ((mix >> 32) % workers as u64) as usize)
}

/// What one cycle measured.
struct Cycle {
    position: usize,
    /// The 20 steps; reference work and checks are outside it.
    steps: Timed,
    rescale: Timed,
    /// Faulted step minus the median clean step of this cycle.
    fault_ms: Option<f64>,
    /// The faulted step's whole wall time.
    faulted_step_ms: Option<f64>,
}

impl Cycle {
    fn secs(&self) -> f64 {
        self.steps.s + self.rescale.s
    }
}

struct Churn<'a> {
    seed: u64,
    engine: Option<Engine>,
    reference: Engine,
    store: &'a CheckpointStore,
    ring: [Placement; 3],
    cycles: Vec<Cycle>,
    faults_injected: u64,
    /// Kernels beside the steps, by worker count, and beside the rescale.
    dense: [Calibrator; 2],
    building: Calibrator,
}

impl<'a> Churn<'a> {
    fn new(
        seed: u64,
        cfg: &JobConfig,
        engine: Engine,
        store: &'a CheckpointStore,
        calibrate: bool,
    ) -> Self {
        let cal = |kind| if calibrate { Calibrator::new(kind) } else { Calibrator::off(kind) };
        Churn {
            seed,
            engine: Some(engine),
            reference: job::reference_engine(cfg),
            store,
            ring: ring(),
            cycles: Vec::new(),
            faults_injected: 0,
            dense: [cal(Kind::Dense1), cal(Kind::Dense2)],
            building: cal(Kind::Ordered),
        }
    }

    /// Run cycle number `i`; `tr` brackets each call when tracing.
    fn cycle(&mut self, i: usize, mut tr: Option<&mut Tracer>, ops: &mut Ops) {
        let op = i as u64;
        let mut engine = self.engine.take().expect("engine is put back after every cycle");
        let position = i % 3;
        let workers = engine.placement().n_workers();
        let fault_at =
            (i % FAULT_EVERY == FAULT_EVERY - 1).then(|| fault_target(self.seed, i, workers));
        let root = tr.as_mut().map(|t| t.enter("cycle", op));

        let steps_span = tr.as_mut().map(|t| t.enter("engine.steps", op));
        let dense = &mut self.dense[workers.min(2) - 1];
        dense.refresh();
        let ((clean, faulted), steps) = dense.time(|| {
            let mut clean = Vec::with_capacity(STEPS_PER_CYCLE);
            let mut faulted = None;
            for k in 0..STEPS_PER_CYCLE {
                match fault_at {
                    Some((at, slot)) if at == k => {
                        faulted = Some(job::faulted_step(&mut engine, slot, ops));
                        job::pin_workers(&engine);
                    }
                    _ => {
                        let s = Instant::now();
                        job::step(&mut engine, ops);
                        clean.push(job::ms(s));
                    }
                }
            }
            (clean, faulted)
        });
        self.faults_injected += u64::from(faulted.is_some());
        if let (Some(t), Some(s)) = (tr.as_mut(), steps_span) {
            t.exit(s);
        }

        let next = self.ring[(i + 1) % 3].clone();
        let store = self.store;
        self.building.refresh();
        let (rebuilt, rescale) = self.building.time(|| match tr.as_mut() {
            None => job::rescale_through_store(engine, store, next, ops),
            Some(t) => traced_rescale(engine, store, next, t, op, ops),
        });
        if let (Some(t), Some(r)) = (tr.as_mut(), root) {
            t.exit(r);
        }
        job::pin_workers(&rebuilt);

        while self.reference.global_step() < rebuilt.global_step() {
            job::step(&mut self.reference, ops);
        }
        let (a, b) = (job::params_fnv(&rebuilt), job::params_fnv(&self.reference));
        ops.check(a == b, || {
            format!(
                "cycle {i}: after the rescale at step {} params are {a:016x}, reference {b:016x}",
                rebuilt.global_step()
            )
        });
        self.engine = Some(rebuilt);
        self.cycles.push(Cycle {
            position,
            steps,
            rescale,
            fault_ms: faulted.map(|f| f - median(&clean)),
            faulted_step_ms: faulted,
        });
    }

    /// Per ring position, the p25 of `f` over the cycles that have it; then
    /// the mean over positions. Cycles on different placements do different
    /// work, so their times are never pooled.
    fn per_position(&self, f: impl Fn(&Cycle) -> Option<f64>) -> f64 {
        let per: Vec<f64> = (0..3)
            .filter_map(|pos| {
                let v: Vec<f64> =
                    self.cycles.iter().filter(|c| c.position == pos).filter_map(&f).collect();
                (!v.is_empty()).then(|| p25(&v))
            })
            .collect();
        per.iter().sum::<f64>() / per.len() as f64
    }
}

/// `job::rescale_through_store` with a span around each call.
fn traced_rescale(
    mut engine: Engine,
    store: &CheckpointStore,
    next: Placement,
    tr: &mut Tracer,
    op: u64,
    ops: &mut Ops,
) -> Engine {
    let cfg = engine.config().clone();
    let root = tr.enter("rescale", op);
    let ckpt = tr.time("engine.checkpoint", op, || engine.checkpoint());
    let saved = tr.time("store.save", op, || store.save(&ckpt));
    let loaded = tr.time("store.load", op, || store.load_latest_valid());
    let loaded = match (saved, loaded) {
        (Ok(_), Ok(Some((loaded, 0)))) => loaded,
        (saved, loaded) => {
            ops.fail(format!(
                "checkpoint store: save {:?}, load ok {:?}",
                saved.err(),
                loaded.is_ok()
            ));
            ckpt
        }
    };
    let mut rebuilt = tr.time("engine.rebuild", op, || {
        Engine::from_checkpoint_opts(cfg, next, &loaded, job::exec(ExecMode::Pool))
    });
    tr.time("engine.teardown", op, || drop(engine));
    tr.time("engine.first_step", op, || job::step(&mut rebuilt, ops));
    tr.exit(root);
    ops.ok(1);
    rebuilt
}

pub fn run_untraced(seed: u64, scale: &Scale, out: &Path) -> Result<(Ops, Metrics, Value), String> {
    for p in &ring() {
        job::require_cores(p)?;
    }
    let cfg = job::CHURN.config(seed);
    let mut ops = Ops::default();

    let mut building = Calibrator::new(Kind::Ordered);
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..scale.setup_reps() {
        drop(built.take());
        let (made, took) = building.time(|| set_up(&cfg, out, &mut ops));
        setups.push(took);
        built = Some(made?);
    }
    let (engine, store) = built.expect("at least one set-up");
    job::pin_workers(&engine);

    let mut churn = Churn::new(seed, &cfg, engine, &store, true);
    let start = Instant::now();
    let mut i = 0;
    // Whole laps of the fault pattern over the ring, so that every run holds
    // the same mix of cycles.
    while job::secs(start) < scale.seconds || i < scale.min_cycles() || i % (3 * FAULT_EVERY) != 0 {
        churn.cycle(i, None, &mut ops);
        i += 1;
        if scale.smoke && i >= scale.min_cycles() {
            break;
        }
    }
    job::remove_store(out, NAME);

    let clean = |c: &Cycle| c.fault_ms.is_none();
    let lap_secs = 3.0 * churn.per_position(|c| clean(c).then(|| c.secs()));
    let steps_per_lap = 3.0 * (STEPS_PER_CYCLE + 1) as f64;
    let faults: Vec<f64> = churn.cycles.iter().filter_map(|c| c.fault_ms).collect();

    let mut metrics = Metrics::new();
    metrics.insert(WORK_PER_S, steps_per_lap / lap_secs);
    metrics.insert(RESCALE_STALL_MS, churn.per_position(|c| Some(c.rescale.ms())));
    metrics.insert(FAULT_STALL_MS, p25(&faults));
    metrics.insert(SETUP_S, median(&calib::secs(&setups)));

    let of = |f: &dyn Fn(&Cycle) -> f64| churn.cycles.iter().map(f).collect::<Vec<f64>>();
    let clean_secs: Vec<f64> = churn.cycles.iter().filter(|c| clean(c)).map(Cycle::secs).collect();
    let last = churn.engine.as_ref().expect("engine is put back after every cycle");
    let detail = obj(vec![
        ("cycles", Value::U64(churn.cycles.len() as u64)),
        ("rescales", Value::U64(churn.cycles.len() as u64)),
        ("faults", Value::U64(churn.faults_injected)),
        ("clean_cycle_s", summary_json(&summarize(&clean_secs), "s")),
        ("cycles_s", floats(&of(&Cycle::secs))),
        ("cycles_raw_s", floats(&of(&|c| c.steps.raw_s + c.rescale.raw_s))),
        ("rescale_stall_ms", summary_json(&summarize(&of(&|c| c.rescale.ms())), "ms")),
        ("rescale_stall_raw_ms", summary_json(&summarize(&of(&|c| c.rescale.raw_s * 1e3)), "ms")),
        ("fault_stall_ms", summary_json(&summarize(&faults), "ms")),
        ("setup_raw_s", floats(&calib::raw_secs(&setups))),
        (
            "calibration",
            obj(vec![
                ("dense1", Value::F64(churn.dense[0].median_ms())),
                ("dense2", Value::F64(churn.dense[1].median_ms())),
                ("ordered", Value::F64(churn.building.median_ms())),
            ]),
        ),
        ("check.step", Value::U64(last.global_step())),
        ("check.params_fnv64", Value::Str(format!("{:016x}", job::params_fnv(last)))),
    ]);
    Ok((ops, metrics, detail))
}

/// faultsim's own chaos run on a seeded schedule, timed, with its final
/// parameters compared against the fault-free run: `(ms, replayed_steps)`.
fn chaos_run(seed: u64, out: &Path, scale: &Scale, ops: &mut Ops) -> (f64, f64) {
    let dir = out.join(format!("faultsim-{}", std::process::id()));
    let mut cfg = HarnessConfig::default_chaos(dir.clone());
    cfg.job.seed = seed;
    cfg.total_steps = if scale.smoke { 12 } else { 60 };
    let events = if scale.smoke { 3 } else { 12 };
    let reference = run_fault_free(&cfg);
    let schedule = FaultSchedule::generate(seed, cfg.total_steps, events);
    let t = Instant::now();
    let report = FaultHarness::new(cfg, schedule).run();
    let took = job::ms(t);
    let same = report.final_params.len() == reference.len()
        && report.final_params.iter().zip(&reference).all(|(a, b)| a.to_bits() == b.to_bits());
    ops.check(same, || "faultsim: chaos run's parameters differ from the fault-free run".into());
    let _ = std::fs::remove_dir_all(&dir);
    (took, report.replayed_steps as f64)
}

pub fn run_traced(seed: u64, scale: &Scale, out: &Path) -> Result<(Ops, Metrics), String> {
    for p in &ring() {
        job::require_cores(p)?;
    }
    let cfg = job::CHURN.config(seed);
    let mut ops = Ops::default();
    let reps = scale.probe_reps();
    let mut m = Metrics::new();

    let store = job::open_store(out, NAME).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let mut engine = Engine::new_opts(cfg.clone(), ring()[0].clone(), job::exec(ExecMode::Pool));
    m.insert("engine.new_ms", job::ms(t));
    job::pin_workers(&engine);
    job::step(&mut engine, &mut ops);

    obs::enable(Box::new(MemorySink::shared()));
    obs::reset();
    let mut churn = Churn::new(seed, &cfg, engine, &store, false);
    let mut tr = Tracer::new();
    let start = Instant::now();
    let mut i = 0;
    while job::secs(start) < scale.seconds || i < scale.min_cycles() || i % FAULT_EVERY != 0 {
        churn.cycle(i, Some(&mut tr), &mut ops);
        i += 1;
        if scale.smoke && i >= scale.min_cycles() {
            break;
        }
    }
    let drain_timeouts = obs::counter_value("engine.drain_timeout").unwrap_or(0);
    obs::disable();
    obs::reset();

    // The counts that explain the store's share of a rescale.
    let mut last = churn.engine.take().expect("engine is put back after every cycle");
    let ckpt = last.checkpoint();
    let path = store.save(&ckpt).map_err(|e| e.to_string())?;
    let file_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    drop(last);
    job::remove_store(out, NAME);

    let breakdown = spans::finish(&tr, out, NAME, &mut ops)?;
    let self_p50 = |name: &str| breakdown.self_p50_ms(name);
    let ratio = breakdown.parts_over_whole;

    let faults: Vec<f64> = churn.cycles.iter().filter_map(|c| c.faulted_step_ms).collect();
    let detect = probes::drain_detect_ms(&job::chaos_drain(), if scale.smoke { 1 } else { 2 });
    let respawns = churn.faults_injected as f64;
    ops.check(drain_timeouts == churn.faults_injected, || {
        format!(
            "{} faults injected but obs counted {drain_timeouts} drain timeouts",
            churn.faults_injected
        )
    });
    m.insert("engine.checkpoint_ms", self_p50("engine.checkpoint"));
    m.insert("engine.rebuild_ms", self_p50("engine.rebuild"));
    m.insert("engine.teardown_ms", self_p50("engine.teardown"));
    m.insert("engine.first_step_ms", self_p50("engine.first_step"));
    m.insert("store.save_ms", self_p50("store.save"));
    m.insert("store.load_ms", self_p50("store.load"));
    m.insert("store.file_bytes", file_bytes as f64);
    m.insert("checkpoint.approx_bytes", ckpt.approx_bytes() as f64);
    m.insert("pool.detect_ms", detect);
    m.insert("pool.recover_ms", if faults.is_empty() { f64::NAN } else { p25(&faults) - detect });
    m.insert("pool.respawns", respawns);
    m.insert("pool.drain_timeouts", drain_timeouts as f64);
    m.insert("trace.parts_over_whole", ratio);

    let all_ests = &churn.ring[1].slots[0];
    m.insert("pool.spawn_ms", probes::pool_spawn_ms(&cfg, &churn.ring[0], reps.min(10)));
    m.insert("worker.new_ms", probes::worker_new_ms(&cfg, all_ests, reps.min(10)));
    m.insert("worker.ctx_switch_us", probes::ctx_switch_us(&cfg, all_ests, reps.min(10)));
    m.insert("data.dataset_build_ms", probes::dataset_build_ms(&cfg, reps.min(10)));
    let (chaos_ms, replayed) = chaos_run(seed, out, scale, &mut ops);
    m.insert("faultsim.chaos_run_ms", chaos_ms);
    m.insert("faultsim.replayed_steps", replayed);

    eprintln!(
        "  {NAME}: {} cycles, {} faults; rescale p50 {:.2} ms of which store {:.2} ms",
        churn.cycles.len(),
        churn.faults_injected,
        median(&spans::dur_ms(tr.spans(), "rescale")),
        self_p50("store.save") + self_p50("store.load"),
    );
    Ok((ops, m))
}
