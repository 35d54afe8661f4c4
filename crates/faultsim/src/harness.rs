//! The fault-injection harness: drives a real `easyscale::Engine` through a
//! [`FaultSchedule`](crate::FaultSchedule) and reports what happened.
//!
//! The invariant under test is the paper's headline claim pushed through
//! every failure mode this repo models: **for any fault schedule, the final
//! model parameters at D2 are byte-identical to the fault-free run.** Each
//! fault is absorbed by the subsystem that owns it: durable checkpoints,
//! the `core::store` checksum and bitwise D1 restore (crashes, torn or
//! bit-flipped checkpoints, exhausted comm retries); `comm::retry`
//! (transient comm failures); `sched` proposals, grants, `apply_preemption`
//! and `Engine::rescale` (elasticity); nothing at all (an announced
//! straggler dilates simulated time only). docs/HEALTH.md tabulates every
//! fault × phase: detected by, within, recovered by, test.
//!
//! Unlike the announced faults, the silent kinds close the paper's §4
//! detection loop: each physical device gets a *stable id* (it survives
//! rescales), emits a [`comm::Heartbeat`] after every step on virtual time,
//! and a [`sched::Supervisor`] turns missed leases and straggler scores
//! into evictions, checkpoint fallbacks, and probational readmissions — no
//! harness hint anywhere in that path. The harness additionally computes a
//! *detection-latency bound* for every injected silent fault (from the
//! health policy and the schedule itself) and records whether detection
//! met it.
//!
//! The thread faults are *real* faults on real OS threads (panic, stall,
//! dropped reply): the supervised pool drains (`core::pool`) reap the
//! thread on a deadline, respawn it from the engine's param mirror and
//! replay the interrupted round in place. Their wall-clock detection
//! instant is not simulated; what the harness holds them to is the one
//! thing that can fail — every armed fault a step round consumed must come
//! back as an [`easyscale::PoolRecovery`] on its slot — and it charges the
//! engine's own deterministic latency for it. Final params, the
//! supervisor's health log and simulated time never see a thread fault at
//! all: that is the tentpole invariant.
//!
//! Each fact has one owner: one device table (where every stable id is and
//! what silently ails it; the scheduler's GPU count and the free pool are
//! computed from it), one detection ledger for both fault families, one
//! engine-building function.
//!
//! Time is simulated ([`device::SimClock`]): the harness never reads a wall
//! clock, so a chaos run is a pure function of `(config, schedule)` — the
//! health-event log included, byte for byte.

use std::collections::BTreeMap;
use std::path::PathBuf;

use comm::{Heartbeat, HeartbeatBus, RetryPolicy};
use device::{GpuType, PerfModel, SimClock, DILATION_ONE};
use easyscale::{
    CheckpointStore, Engine, ExecMode, ExecOptions, JobCheckpoint, JobConfig, Placement,
    ThreadFault,
};
use models::Workload;
use sched::{
    Companion, FreePool, HealthEvent, HealthPolicy, HealthState, InterJobScheduler,
    IntraJobScheduler, Supervisor, SupervisorAction,
};
use serde::Serialize;

use crate::schedule::{FaultEvent, FaultKind, FaultSchedule};

/// Dilation ratio at which the straggler z-score crosses the detection
/// threshold: with the score's σ floored at median/4 and the default
/// 2000 m-σ threshold, a device running at ≥ 1.5× the population median
/// scores as slow (see `sched::health`). Latency bounds for creeping
/// stragglers count ramp rounds until this ratio is reached.
const STRAGGLER_FIRE_RATIO_MILLI: u64 = 1500;

/// GPU type of the (homogeneous) simulated cluster.
const GPU: GpuType = GpuType::V100;

/// Durable-checkpoint cadence (every N completed global steps).
const CHECKPOINT_EVERY: u64 = 2;

/// Deadline policy for the pool's supervised drains (real wall-clock
/// windows, since thread faults are real). Sized far past a worker's actual
/// step latency so fault-free rounds never time out, yet small enough that
/// injected-thread-fault tests stay quick: 6 windows of 10ms..320ms = 630ms
/// worst case per reap, ~100× a NeuMF step round.
const DRAIN: RetryPolicy =
    RetryPolicy { max_attempts: 6, base_backoff_us: 10_000, backoff_multiplier: 2 };

/// Harness configuration: the job under test plus its simulated cluster
/// (homogeneous V100s). Everything else — the checkpoint cadence, the drain
/// deadlines, the health policy — is fixed or derived from `job`.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// The training job (workload, seed, nEST, determinism level).
    pub job: JobConfig,
    /// Global steps the run must complete.
    pub total_steps: u64,
    /// GPUs the job starts on (stable device ids `0..initial_gpus`).
    pub initial_gpus: u32,
    /// Total GPUs in the cluster (the rest start free).
    pub cluster_gpus: u32,
    /// Directory for durable checkpoints (unique per run).
    pub store_dir: PathBuf,
    /// Order the initial devices announce themselves in; ids it leaves out
    /// follow in id order, so empty means canonical order. Detection must
    /// be byte-identical under any permutation (the heartbeat bus
    /// canonicalizes) — the shuffled-start-order determinism test drives
    /// this knob.
    pub start_order: Vec<u32>,
    /// Worker execution mode for every engine the harness builds. Pool (the
    /// production shape) by default; the `nthread_eq_single` equivalence
    /// tests sweep this against `SingleThread`.
    pub exec_mode: ExecMode,
}

impl HarnessConfig {
    /// The chaos-matrix default: a cheap NeuMF job at full determinism
    /// (D1+D2) on a 4×V100 cluster, starting on 2 GPUs.
    pub fn default_chaos(store_dir: PathBuf) -> Self {
        HarnessConfig {
            job: JobConfig::new(Workload::NeuMF, 4242, 4)
                .with_dataset_len(128)
                .with_determinism(easyscale::Determinism::d1_d2()),
            total_steps: 10,
            initial_gpus: 2,
            cluster_gpus: 4,
            store_dir,
            start_order: Vec::new(),
            exec_mode: ExecMode::Pool,
        }
    }
}

/// Deterministic simulated duration of one local step on one GPU carrying
/// `load` ESTs (D2 kernels pay the catalog's overhead factor). With
/// `load == job.n_ests` — all ESTs time-slicing a single device — this is
/// the worst-case global step the heartbeat lease is sized from.
fn step_us(job: &JobConfig, load: u32) -> u64 {
    let spec = job.workload.spec();
    let overhead = if job.determinism.hardware_agnostic { spec.d2_overhead } else { 1.0 };
    let perf = PerfModel::default();
    let mb = perf.minibatch_time(spec.base_v100_secs, GPU, overhead);
    (perf.easyscale_global_step(mb, load.max(1)) * 1e6) as u64
}

/// Simulated process-restart latency (data-worker respawn dominates, paper
/// §5.1.2).
fn restart_us(job: &JobConfig) -> u64 {
    let spec = job.workload.spec();
    (PerfModel::default().first_minibatch_latency(spec.base_v100_secs, job.data_workers) * 1e6)
        as u64
}

/// The one place an engine is built: cold at step 0, or restored from
/// `from`, on a homogeneous placement over `devices`. GPUs beyond nEST host
/// no EST and are dropped by `Placement::homogeneous`, so the cap keeps the
/// worker count meaningful. Pool threads are named after the stable device
/// ids (`esw-dev{id}`, slot order), so a thread keeps its identity across
/// rescale/evict cycles — purely diagnostic, ids never feed the math.
fn build_engine(cfg: &HarnessConfig, devices: Vec<u32>, from: Option<&JobCheckpoint>) -> Engine {
    let (placement, exec) = engine_shape(cfg, devices);
    match from {
        Some(ckpt) => Engine::from_checkpoint_opts(cfg.job.clone(), placement, ckpt, exec),
        None => Engine::new_opts(cfg.job.clone(), placement, exec),
    }
}

/// The placement and execution options [`build_engine`] uses — split out
/// because `Engine::rescale_opts` takes the pair and a live engine.
fn engine_shape(cfg: &HarnessConfig, devices: Vec<u32>) -> (Placement, ExecOptions) {
    let gpus = (devices.len() as u32).min(cfg.job.n_ests).max(1);
    let placement = Placement::homogeneous(cfg.job.n_ests, gpus, GPU);
    (placement, ExecOptions { mode: cfg.exec_mode, device_ids: devices, drain: DRAIN })
}

/// One injected fault and what the harness observed happen.
#[derive(Debug, Clone)]
pub struct InjectedEvent {
    /// Global step the fault fired at.
    pub step: u64,
    /// Stable fault-kind name.
    pub kind: &'static str,
    /// Human-readable outcome ("recovered from step 4", "grant denied", …).
    pub outcome: String,
}

/// One armed fault's detection outcome — silent or pool-thread: when it was
/// injected, when (and whether) it was noticed, and whether the latency
/// bound held. While the run is live this is also the pending entry in the
/// harness's ledger.
#[derive(Debug, Clone, Default, Serialize)]
pub struct DetectionRecord {
    /// Device the fault targeted.
    pub device: u32,
    /// Fault-kind name.
    pub kind: String,
    /// Virtual time of injection.
    pub injected_at_us: u64,
    /// Latency bound computed at injection (µs of SimClock time), from the
    /// health policy, the perf model, and the schedule's own event count —
    /// never from the detector's behaviour. For a thread fault: the drain
    /// policy's whole backoff budget, which is also what the engine charges
    /// for the recovery, so the bound holds exactly when a recovery arrives.
    pub bound_us: u64,
    /// Silent fault: virtual time of the first Suspect-or-worse transition
    /// for the device at or after injection, if any. Thread fault:
    /// injection plus the charged latency, once its recovery arrived.
    pub detected_at_us: Option<u64>,
    /// `detected_at_us - injected_at_us`, when detected.
    pub latency_us: Option<u64>,
    /// Detected within the bound.
    pub within_bound: bool,
    /// The fault mutated before detection could be attributed (a later
    /// fault hit the same device or pool slot, the device left through a
    /// planned path, or the pool was torn down before the armed thread
    /// fault was consumed). Superseded records are exempt from the bound
    /// assertion; the byte-identity invariant still applies in full.
    pub superseded: bool,
}

impl DetectionRecord {
    /// Detected at `at_us`; the latency is observed as `metric`.
    fn resolve(&mut self, at_us: u64, metric: &str) {
        let latency = at_us - self.injected_at_us;
        self.detected_at_us = Some(at_us);
        self.latency_us = Some(latency);
        self.within_bound = latency <= self.bound_us;
        obs::observe(metric, latency as f64);
    }
}

/// Everything a chaos run reports.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Every injected fault, in firing order, with its outcome.
    pub injected: Vec<InjectedEvent>,
    /// Process deaths taken (crashes, comm exhaustion, checkpoint faults).
    pub crashes: u32,
    /// Successful recoveries (always equals `crashes` when the run ends).
    pub recoveries: u32,
    /// Steps re-executed because a crash rewound to an older checkpoint.
    pub replayed_steps: u64,
    /// Corrupt/torn checkpoint files skipped during recovery.
    pub torn_files_skipped: u32,
    /// Simulated run duration in microseconds.
    pub sim_elapsed_us: u64,
    /// GPUs held when the run finished.
    pub final_gpus: u32,
    /// Final flat model parameters (the invariant's subject).
    pub final_params: Vec<f32>,
    /// The supervisor's full health-event log, in firing order — the
    /// deterministic detection record (byte-identical across repeat runs).
    /// It never contains a thread fault.
    pub health_events: Vec<HealthEvent>,
    /// Detection outcome of every armed silent fault.
    pub detections: Vec<DetectionRecord>,
    /// Devices the supervisor evicted from the allocation.
    pub evictions: u32,
    /// Devices the supervisor readmitted after probation.
    pub readmissions: u32,
    /// Pool worker threads respawned by the supervised drains (every real
    /// thread fault costs exactly one; spurious deadline hits can add
    /// more — both are bitwise-invisible).
    pub pool_respawns: u64,
    /// Respawns whose old thread was quarantined alive (stall / reply
    /// drop) rather than joined dead (panic).
    pub pool_quarantines: u64,
    /// Detection outcome of every armed pool-thread fault.
    pub thread_detections: Vec<DetectionRecord>,
}

impl RunReport {
    /// The final parameters as raw bit patterns — byte-identity is compared
    /// on these, so `-0.0 == 0.0` and NaN payloads cannot hide a diff.
    pub fn params_bits(&self) -> Vec<u32> {
        self.final_params.iter().map(|p| p.to_bits()).collect()
    }

    /// Whether every non-superseded silent fault was detected within its
    /// latency bound.
    pub fn all_detected_within_bound(&self) -> bool {
        self.detections.iter().all(|d| d.superseded || d.within_bound)
    }

    /// Whether every non-superseded pool-thread fault got its recovery
    /// (which is charged exactly its bound).
    pub fn all_thread_faults_detected_within_bound(&self) -> bool {
        self.thread_detections.iter().all(|d| d.superseded || d.within_bound)
    }
}

/// What leaves the process as JSON: `faultsim --json` prints one, and
/// `results/detect_report.json` holds one per matrix case.
#[derive(Debug, Clone, Serialize)]
pub struct RunSummary {
    /// Case name (matrix case, or how the CLI was asked).
    pub name: String,
    /// Schedule seed (0 for hand-authored schedules).
    pub seed: u64,
    /// Global steps the run completed.
    pub steps: u64,
    /// Scheduled events.
    pub events: usize,
    /// Distinct fault-kind names in the schedule.
    pub kinds: Vec<String>,
    /// See [`RunReport::crashes`].
    pub crashes: u32,
    /// See [`RunReport::recoveries`].
    pub recoveries: u32,
    /// See [`RunReport::replayed_steps`].
    pub replayed_steps: u64,
    /// See [`RunReport::torn_files_skipped`].
    pub torn_files_skipped: u32,
    /// See [`RunReport::sim_elapsed_us`].
    pub sim_elapsed_us: u64,
    /// See [`RunReport::final_gpus`].
    pub final_gpus: u32,
    /// Final params byte-identical to the fault-free reference.
    pub bitwise_identical: bool,
    /// Every non-superseded silent fault detected within its bound.
    pub all_detected_within_bound: bool,
    /// Per-fault silent detection records.
    pub detections: Vec<DetectionRecord>,
    /// The deterministic health-event log.
    pub health_events: Vec<HealthEvent>,
    /// See [`RunReport::evictions`].
    pub evictions: u32,
    /// See [`RunReport::readmissions`].
    pub readmissions: u32,
}

impl RunSummary {
    /// Both halves of the invariant held.
    pub fn passed(&self) -> bool {
        self.bitwise_identical && self.all_detected_within_bound
    }
}

/// Where a physical device currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// In the job's allocation.
    Active,
    /// In the elastic free pool: never allocated, or released by a scale-in.
    Free,
    /// Evicted by the supervisor and sitting out a quarantine. It still
    /// pings: its path back is probation.
    Parked,
    /// Taken by a preemption: it went to the reclaimer (serving side), not
    /// back to the elastic free pool.
    Revoked,
}

/// What silently ails a device; the default is "nothing". Not an enum: a
/// crash excludes the other two, but a mute and a creep overlap on one
/// device (its beats are lost *while* it degrades), and each then costs the
/// other its latency bound.
#[derive(Debug, Clone, Copy, Default)]
struct Silent {
    /// Died silently (no beats ever again).
    crashed: bool,
    /// Heartbeats still to be swallowed.
    muted_beats: u32,
    /// Creeping straggler: (current dilation milli, ramp milli per step).
    creep: Option<(u64, u64)>,
}

/// One row of the device table, keyed by stable device id.
#[derive(Debug, Clone, Copy)]
struct Device {
    place: Place,
    silent: Silent,
}

/// The harness itself. Build with [`FaultHarness::new`], run with
/// [`FaultHarness::run`].
pub struct FaultHarness {
    cfg: HarnessConfig,
    schedule: FaultSchedule,
    /// `None` only transiently, while the process is "dead" or rescaling.
    engine: Option<Engine>,
    intra: IntraJobScheduler,
    store: CheckpointStore,
    clock: SimClock,
    /// Next unfired schedule entry. Monotone: a crash rewinds the engine's
    /// step counter but never this index, so each event fires exactly once.
    next_event: usize,
    /// Active slowdown: (target device, dilation milli, steps remaining).
    straggler: Option<(u32, u64, u32)>,
    /// The AIMaster's self-healing loop (detector + action mapping). Its
    /// lease is twice the worst-case step (all ESTs time-slicing one GPU),
    /// so a healthy-but-overloaded worker can never miss it.
    supervisor: Supervisor,
    /// Heartbeat transport (canonicalizing drain order).
    bus: HeartbeatBus,
    /// Every device of the cluster, by stable id: where it is and what
    /// silently ails it. The only record of either — the GPU count the
    /// scheduler holds and the free pool it is offered are computed from
    /// this table ([`FaultHarness::sync_allocation`]).
    devices: BTreeMap<u32, Device>,
    /// Armed faults awaiting attribution, in arming order: silent faults
    /// are keyed by their device (`None`), pool-thread faults by the pool
    /// slot they were armed on — the key a `PoolRecovery` comes back with.
    ledger: Vec<(Option<u32>, DetectionRecord)>,
    report: RunReport,
}

impl FaultHarness {
    /// Build a harness for `cfg` and `schedule`. The checkpoint store keeps
    /// enough history that a torn newest file always has a good predecessor.
    pub fn new(cfg: HarnessConfig, schedule: FaultSchedule) -> Self {
        assert!(cfg.initial_gpus >= 1 && cfg.initial_gpus <= cfg.cluster_gpus);
        let initial = 0..cfg.initial_gpus;
        let engine = build_engine(&cfg, initial.clone().collect(), None);
        // The companion's maxP is the job's nEST: placements must cover
        // exactly the engine's virtual ranks.
        let companion = Companion::for_workload(&cfg.job.workload.spec(), cfg.job.n_ests, false);
        let store = CheckpointStore::open(&cfg.store_dir, "chaos-job")
            .expect("store dir")
            .with_keep_last(16);
        let lease_us = 2 * step_us(&cfg.job, cfg.job.n_ests);
        let mut supervisor = Supervisor::new(HealthPolicy::with_lease(lease_us));
        let mut bus = HeartbeatBus::new();
        // Devices announce themselves in `start_order` — a permutation that
        // MUST be invisible to detection (the bus canonicalizes, the
        // tracker is BTreeMap-keyed). Unknown ids in the order are ignored.
        let listed = cfg.start_order.iter().copied().filter(|d| initial.contains(d));
        let unlisted = initial.clone().filter(|d| !cfg.start_order.contains(d));
        for d in listed.chain(unlisted) {
            supervisor.register(d, 0);
            bus.publish(Heartbeat { device: d, step: 0, sent_at_us: 0, step_time_us: None });
        }
        let devices = (0..cfg.cluster_gpus)
            .map(|id| {
                let place = if initial.contains(&id) { Place::Active } else { Place::Free };
                (id, Device { place, silent: Silent::default() })
            })
            .collect();
        let mut harness = FaultHarness {
            intra: IntraJobScheduler::new(1, companion, false),
            cfg,
            schedule,
            engine: Some(engine),
            store,
            clock: SimClock::new(),
            next_event: 0,
            straggler: None,
            supervisor,
            bus,
            devices,
            ledger: Vec::new(),
            report: RunReport::default(),
        };
        harness.sync_allocation();
        harness
    }

    /// The live engine.
    fn engine(&mut self) -> &mut Engine {
        self.engine.as_mut().expect("an engine is live except inside crash_and_recover/rescale")
    }

    // ---- the device table ---------------------------------------------

    /// Stable ids of the devices currently in `place`, ascending.
    fn ids(&self, place: Place) -> impl DoubleEndedIterator<Item = u32> + '_ {
        self.devices.iter().filter(move |(_, d)| d.place == place).map(|(&id, _)| id)
    }

    fn device(&mut self, id: u32) -> &mut Device {
        self.devices.get_mut(&id).expect("device ids are only ever read out of the table")
    }

    fn current_gpus(&self) -> u32 {
        self.ids(Place::Active).count() as u32
    }

    /// Tell the scheduler what the table says the job holds. Every change
    /// of a device's `place` is followed by this call, so the scheduler's
    /// count is never edited on its own.
    fn sync_allocation(&mut self) {
        let active = self.current_gpus();
        self.intra.apply_allocation(vec![(GPU, active)]);
        // Conservation: no device is ever added to or dropped from the
        // table (active + free + parked + revoked == cluster), and the
        // scheduler agrees with it.
        debug_assert_eq!(self.devices.len() as u32, self.cfg.cluster_gpus);
        debug_assert_eq!(self.intra.current().iter().map(|&(_, n)| n).sum::<u32>(), active);
    }

    /// Map a schedule's worker index onto a live device id (n-th active,
    /// modulo the live count) — schedules address *positions*, devices
    /// have stable ids.
    fn nth_active(&self, worker: u32) -> u32 {
        let devices: Vec<u32> = self.ids(Place::Active).collect();
        devices[worker as usize % devices.len()]
    }

    /// The `count` highest active device ids (the deterministic choice for
    /// releases/revocations).
    fn highest_active(&self, count: u32) -> Vec<u32> {
        self.ids(Place::Active).rev().take(count as usize).collect()
    }

    /// A device joins the allocation. Reprovisioning repairs silent fault
    /// state: a fresh process on a fresh (or restarted) device neither
    /// creeps nor drops beats.
    fn activate_device(&mut self, id: u32) {
        *self.device(id) = Device { place: Place::Active, silent: Silent::default() };
        self.supervisor.register(id, self.clock.now_us());
    }

    /// A device leaves through a *planned* path (scale-in → `Free`,
    /// preemption → `Revoked`): the detector forgets it and any armed
    /// detection on it is superseded.
    fn deactivate_planned(&mut self, id: u32, to: Place) {
        *self.device(id) = Device { place: to, silent: Silent::default() };
        self.supervisor.deregister(id);
        self.supersede(|slot, rec| slot.is_none() && rec.device == id);
    }

    /// Whether stepping is impossible: a silently-dead device is still in
    /// the allocation, so the all-reduce would hang on it. The harness
    /// models the hang as blocked rounds — the clock advances, survivors
    /// ping, the detector works — until the supervisor evicts the corpse.
    fn blocked(&self) -> bool {
        self.devices.values().any(|d| d.place == Place::Active && d.silent.crashed)
    }

    fn record(&mut self, step: u64, kind: &'static str, outcome: String) {
        obs::counter_add("faultsim.injected_total", 1);
        obs::counter_add(&format!("faultsim.injected.{kind}"), 1);
        self.report.injected.push(InjectedEvent { step, kind, outcome });
    }

    // ---- the engine lifecycle -----------------------------------------

    /// The pool is about to be torn down (crash or rescale): recoveries
    /// the dying engine's drains already took still resolve; thread faults
    /// armed but never consumed die with it and can no longer be attributed.
    fn retire_pool(&mut self) {
        self.absorb_pool_recoveries();
        self.supersede(|slot, _| slot.is_some());
    }

    /// Kill the process and recover from the newest *valid* durable
    /// checkpoint (walking past torn/corrupt files), on the current
    /// allocation. Replayed steps are counted; bitwise D1 restore makes the
    /// replay converge to exactly the lost bits.
    fn crash_and_recover(&mut self, why: &str) -> String {
        self.retire_pool();
        let step_at_death = self.engine().global_step();
        self.engine = None; // the process is dead; all in-memory state is gone
        self.report.crashes += 1;
        obs::counter_add("faultsim.crashes", 1);

        // No durable state at all means a cold restart and a full replay.
        let found = self.store.load_latest_valid().expect("store io");
        let (resumed_from, skipped) = found.as_ref().map_or((0, 0), |(c, s)| (c.global_step, *s));
        let devices = self.ids(Place::Active).collect();
        self.engine = Some(build_engine(&self.cfg, devices, found.as_ref().map(|(c, _)| c)));
        let replayed = step_at_death.saturating_sub(resumed_from);
        self.report.torn_files_skipped += skipped;
        self.report.replayed_steps += replayed;
        self.report.recoveries += 1;
        obs::counter_add("faultsim.recoveries", 1);
        obs::counter_add("faultsim.replayed_steps", replayed);

        self.clock.advance_us(restart_us(&self.cfg.job));
        format!("{why}: recovered from checkpoint step {resumed_from} (skipped {skipped} corrupt)")
    }

    /// Rescale the live engine onto the table's current allocation
    /// (checkpoint + restore under the hood — Figure 5's path).
    fn rescale_to_current(&mut self) {
        self.retire_pool();
        let (placement, exec) = engine_shape(&self.cfg, self.ids(Place::Active).collect());
        let engine = self.engine.take().expect("rescale starts from a live engine");
        self.engine = Some(engine.rescale_opts(placement, exec));
        obs::counter_add("faultsim.rescales", 1);
        // Reconfiguration also pays the restart latency.
        self.clock.advance_us(restart_us(&self.cfg.job));
    }

    // ---- the detection ledger -----------------------------------------

    /// Arm a detection expectation. With `assert_bound == false` the record
    /// is born superseded: detection is still tracked, but the latency
    /// bound is not asserted (used when an overlapping fault makes
    /// attribution ambiguous).
    fn arm(
        &mut self,
        slot: Option<u32>,
        device: u32,
        kind: &'static str,
        bound_us: u64,
        assert_bound: bool,
    ) {
        let record = DetectionRecord {
            device,
            kind: kind.to_string(),
            injected_at_us: self.clock.now_us(),
            bound_us,
            superseded: !assert_bound,
            ..DetectionRecord::default()
        };
        self.ledger.push((slot, record));
    }

    /// Mark every unresolved entry `stale` picks as superseded: a later
    /// fault, a planned removal or a pool teardown changed the failure
    /// mode before the armed one was attributed.
    fn supersede(&mut self, stale: impl Fn(Option<u32>, &DetectionRecord) -> bool) {
        for (slot, rec) in &mut self.ledger {
            if rec.detected_at_us.is_none() && stale(*slot, rec) {
                rec.superseded = true;
            }
        }
    }

    /// Arm a silent fault on `device` with the bound computed for it *now*.
    fn arm_silent(&mut self, device: u32, kind: &FaultKind, assert_bound: bool) {
        let bound_us = self.detection_bound_us(kind);
        self.arm(None, device, kind.name(), bound_us, assert_bound);
    }

    /// The detection-latency bound for a silent fault injected *now*.
    ///
    /// Bounds are computed from the health policy, the perf model, and the
    /// *schedule's* event count — never from anything the detector does —
    /// so they are a legitimate test oracle. Terms (all SimClock µs,
    /// saturating):
    ///
    /// * crash: `quarantine_misses` full leases must lapse, plus detection
    ///   rounds on either side;
    /// * heartbeat drop: detected at the first *suspect* transition — one
    ///   lapsed lease plus round slack;
    /// * creeping straggler: ramp rounds until the dilation crosses
    ///   [`STRAGGLER_FIRE_RATIO_MILLI`], then `suspect_windows` slow
    ///   rounds, each at most a worst-case step at the final dilation;
    /// * every bound adds an *interference allowance* per scheduled event:
    ///   other faults (and the supervisor's own recoveries/rescales) spend
    ///   simulated time — blocked rounds, checkpoint rollbacks, restart
    ///   latencies — that delays attribution without being this fault's
    ///   doing.
    fn detection_bound_us(&self, kind: &FaultKind) -> u64 {
        let p = self.supervisor.tracker().policy();
        let worst = step_us(&self.cfg.job, self.cfg.job.n_ests);
        let restart = restart_us(&self.cfg.job);
        let per_event = p
            .quarantine_misses
            .saturating_mul(p.lease_us)
            .saturating_add(worst.saturating_mul(4))
            .saturating_add(restart.saturating_mul(8));
        let interference = per_event.saturating_mul(self.schedule.events.len() as u64);
        let own = match *kind {
            FaultKind::HeartbeatDrop { .. } => p.lease_us.saturating_add(worst * 4),
            FaultKind::CreepingStraggler { start_milli, ramp_milli, .. } => {
                let start = start_milli.max(DILATION_ONE);
                let cross_rounds =
                    STRAGGLER_FIRE_RATIO_MILLI.saturating_sub(start).div_ceil(ramp_milli.max(1));
                let rounds = cross_rounds + p.suspect_windows as u64 + 2;
                let final_factor = start.saturating_add(ramp_milli.saturating_mul(rounds));
                rounds
                    .saturating_mul(worst.saturating_mul(final_factor) / DILATION_ONE)
                    .saturating_add(p.lease_us)
            }
            _ => p.quarantine_misses.saturating_mul(p.lease_us).saturating_add(worst * 4),
        };
        own.saturating_add(interference)
    }

    /// Whether a heartbeat drop of `beats` is guaranteed to lapse a lease
    /// even at the fastest possible round cadence (every device hosting a
    /// single EST). Shorter drops are benign — the detector may or may not
    /// flag them, so no bound is asserted.
    fn drop_is_detectable(&self, beats: u32) -> bool {
        let min_round = step_us(&self.cfg.job, 1);
        let lease_us = self.supervisor.tracker().policy().lease_us;
        (beats as u64).saturating_mul(min_round) >= lease_us.saturating_add(2 * min_round)
    }

    /// Arm a real fault on a pool worker thread and record the detection
    /// expectation. Single-thread engines have no pool threads: the event
    /// is a logged no-op, which keeps thread-fault schedules runnable (and
    /// byte-comparable) in every exec mode.
    fn inject_thread(&mut self, worker: u32, fault: ThreadFault, kind: &'static str) -> String {
        let Some(slot) = self.engine().inject_thread_fault(worker as usize, fault) else {
            return format!("single-thread engine: no pool thread to fault; {kind} is a no-op");
        };
        let slot = slot as u32;
        let device = self.nth_active(slot);
        // A second fault on the same slot overwrites the worker's single
        // armed-fault slot, so the older arm never fires.
        self.supersede(|s, _| s == Some(slot));
        // The bound is what the engine charges per recovery (see
        // `PoolRecovery::virtual_latency_us`): a pure function of the drain
        // policy, so what can fail is the recovery not arriving at all.
        self.arm(Some(slot), device, kind, DRAIN.total_backoff_us(), true);
        format!("pool thread esw-dev{device} armed with a real {kind}")
    }

    /// Fold the engine's pool-recovery records (real thread faults its
    /// supervised drains caught) into the report, and resolve the ledger
    /// entry armed on each recovered slot at the deterministic latency the
    /// engine charged — real time never enters.
    fn absorb_pool_recoveries(&mut self) {
        for rec in self.engine().take_pool_recoveries() {
            self.report.pool_respawns += 1;
            if rec.kind == "drain-timeout" {
                self.report.pool_quarantines += 1;
            }
            // Only live expectations attract recoveries. Anything else is a
            // spurious deadline hit (no armed fault): counters only — the
            // replacement replayed from the mirror, so nothing
            // deterministic moved.
            let live = self.ledger.iter_mut().find(|(slot, r)| {
                *slot == Some(rec.worker as u32) && r.detected_at_us.is_none() && !r.superseded
            });
            if let Some((_, armed)) = live {
                let at_us = armed.injected_at_us.saturating_add(rec.virtual_latency_us);
                armed.resolve(at_us, "health.thread_detection_latency_us");
            }
        }
    }

    // ---- heartbeats + detection rounds --------------------------------

    /// Emit this round's heartbeats: every live device in the allocation
    /// (with its step timing if it stepped), plus liveness pings from
    /// parked devices (their path back is probation). Silently crashed
    /// devices never beat; muted devices consume their drop budget instead
    /// of beating.
    fn emit_beats(&mut self, step: u64, times: Option<&BTreeMap<u32, u64>>) {
        let now = self.clock.now_us();
        for (&id, d) in &mut self.devices {
            if !matches!(d.place, Place::Active | Place::Parked) || d.silent.crashed {
                continue;
            }
            if d.silent.muted_beats > 0 {
                d.silent.muted_beats -= 1;
                obs::counter_add("health.heartbeats_dropped", 1);
                continue;
            }
            let step_time_us = times.and_then(|m| m.get(&id).copied()).filter(|&t| t > 0);
            self.bus.publish(Heartbeat { device: id, step, sent_at_us: now, step_time_us });
        }
    }

    /// One detection round: drain the bus into the supervisor, tick it,
    /// attribute the new transitions (Suspect or worse) to the pending
    /// silent faults on the same device, and apply the allocation actions
    /// it ordered.
    fn health_round(&mut self) {
        for beat in self.bus.drain_sorted() {
            self.supervisor.observe(&beat);
        }
        let before = self.supervisor.events().len();
        let actions = self.supervisor.tick(self.clock.now_us());
        for ev in &self.supervisor.events()[before..] {
            if !matches!(ev.to, HealthState::Suspect | HealthState::Quarantined) {
                continue;
            }
            for (slot, rec) in &mut self.ledger {
                if slot.is_none()
                    && rec.device == ev.device
                    && rec.detected_at_us.is_none()
                    && ev.at_us >= rec.injected_at_us
                {
                    rec.resolve(ev.at_us, "health.detection_latency_us");
                }
            }
        }
        self.apply_actions(actions);
    }

    /// Apply the supervisor's allocation actions. Everything here goes
    /// through the same rescale/recover paths as announced faults, so it
    /// is bitwise-invisible by construction.
    fn apply_actions(&mut self, actions: Vec<SupervisorAction>) {
        for action in actions {
            match action {
                SupervisorAction::Evict { device, assume_crash } => {
                    if self.device(device).place != Place::Active {
                        continue; // already out (e.g. planned removal raced)
                    }
                    obs::counter_add("health.evictions", 1);
                    self.report.evictions += 1;
                    let spare = self.ids(Place::Free).next();
                    if self.current_gpus() == 1 && spare.is_none() {
                        // Nothing to fail over to: restart the worker
                        // process in place on the last device. The restart
                        // reprovisions it (clears silent fault state) and
                        // recovers from the last-good checkpoint.
                        self.supervisor.deregister(device);
                        self.activate_device(device);
                        self.crash_and_recover("supervisor: restarted last device in place");
                        continue;
                    }
                    self.device(device).place = Place::Parked;
                    // Claim a spare as a replacement when one is free.
                    if let Some(spare) = spare {
                        self.activate_device(spare);
                    }
                    self.sync_allocation();
                    if assume_crash {
                        // Lost lease ⇒ presumed dead ⇒ in-memory state on
                        // that device is gone: fall back to the last-good
                        // durable checkpoint on the survivors.
                        self.crash_and_recover("supervisor: evicted device on lost lease");
                    } else {
                        // Straggler ⇒ alive, nothing lost: plain rescale.
                        self.rescale_to_current();
                    }
                }
                SupervisorAction::Readmit { device } => {
                    let d = self.device(device);
                    if d.place != Place::Parked || d.silent.crashed {
                        continue;
                    }
                    // NOT activate_device: the device is on probation, its
                    // fault state (e.g. a creeping slowdown) persists — the
                    // detector must re-confirm or re-quarantine it.
                    d.place = Place::Active;
                    obs::counter_add("health.readmissions", 1);
                    self.report.readmissions += 1;
                    self.sync_allocation();
                    self.rescale_to_current();
                }
            }
        }
    }

    /// A blocked round: the job cannot step (a silent corpse is in the
    /// all-reduce), but virtual time still passes, survivors still ping,
    /// and the detector still runs — this is exactly the window the
    /// detection-latency bound measures.
    fn blocked_tick(&mut self) {
        let step = self.engine().global_step();
        // One global step on the current allocation: the busiest GPU
        // time-slices `ceil(nEST / gpus)` ESTs.
        let busiest = self.cfg.job.n_ests.div_ceil(self.current_gpus().max(1));
        self.clock.advance_us(step_us(&self.cfg.job, busiest).max(1));
        self.emit_beats(step, None);
        self.health_round();
    }

    fn apply_event(&mut self, ev: FaultEvent) {
        let kind = ev.kind.name();
        let outcome = match ev.kind {
            FaultKind::WorkerCrash => self.crash_and_recover("crash"),
            FaultKind::Straggler { worker, factor_milli, steps } => {
                let dev = self.nth_active(worker);
                self.straggler = Some((dev, factor_milli.max(DILATION_ONE), steps));
                format!("device {dev} dilated {factor_milli}/1000 for {steps} steps")
            }
            FaultKind::Preemption { gpus } => {
                let before = self.current_gpus();
                // The scheduler decides how far the allocation degrades
                // (never below one survivor); the table follows it.
                let alloc = self.intra.apply_preemption(GPU, gpus);
                let after: u32 = alloc.iter().map(|&(_, n)| n).sum();
                for id in self.highest_active(before - after) {
                    self.deactivate_planned(id, Place::Revoked);
                }
                self.sync_allocation();
                self.rescale_to_current();
                format!("revoked {gpus}: {before} → {after} GPUs")
            }
            // `gpus` is how many proposals the job may submit (`top_k`),
            // not a GPU count: the grant is whatever proposal wins.
            FaultKind::ScaleOut { gpus } => {
                let before = self.current_gpus();
                let mut free: FreePool =
                    [(GPU, self.ids(Place::Free).count() as u32)].into_iter().collect();
                let proposals = self.intra.proposals(&free, gpus as usize);
                let decisions = InterJobScheduler.decide(proposals, &mut free);
                match decisions.iter().find(|d| d.job == self.intra.job()) {
                    Some(grant) => {
                        let spares: Vec<u32> =
                            self.ids(Place::Free).take(grant.count as usize).collect();
                        for spare in spares {
                            self.activate_device(spare);
                        }
                        self.sync_allocation();
                        self.rescale_to_current();
                        format!("granted {}: {before} → {} GPUs", grant.count, self.current_gpus())
                    }
                    None => "grant denied (no beneficial proposal or no free GPUs)".to_string(),
                }
            }
            FaultKind::ScaleIn { gpus } => {
                let before = self.current_gpus();
                let after = before.saturating_sub(gpus).max(1);
                if after == before {
                    "already at one GPU; nothing to release".to_string()
                } else {
                    for id in self.highest_active(before - after) {
                        self.deactivate_planned(id, Place::Free);
                    }
                    self.sync_allocation();
                    self.rescale_to_current();
                    format!("released {}: {before} → {after} GPUs", before - after)
                }
            }
            FaultKind::CommFailure { failures } => {
                self.engine().inject_comm_faults(comm::FaultScript::failures(failures));
                format!("armed {failures} transient allreduce failures")
            }
            FaultKind::TornCheckpoint { keep_frac_milli } => {
                // The checkpoint write is interrupted partway and the
                // process dies with it: the newest file on disk is torn.
                let ckpt = self.engine().checkpoint();
                self.store.save_torn(&ckpt, keep_frac_milli).expect("store io");
                self.crash_and_recover("torn checkpoint write")
            }
            FaultKind::BitFlippedCheckpoint { bit_index } => {
                if let Some(&newest) = self.store.list_steps().expect("store io").last() {
                    self.store.inject_bitflip(newest, bit_index).expect("store io");
                }
                self.crash_and_recover("bit-flipped checkpoint")
            }
            FaultKind::SilentCrash { worker } => {
                let dev = self.nth_active(worker);
                if self.device(dev).silent.crashed {
                    format!("device {dev} is already silently dead; no-op")
                } else {
                    // The crash changes the device's failure mode: earlier
                    // armed faults on it can no longer be attributed.
                    self.supersede(|slot, rec| slot.is_none() && rec.device == dev);
                    self.device(dev).silent = Silent { crashed: true, ..Silent::default() };
                    self.arm_silent(dev, &ev.kind, true);
                    format!("device {dev} died silently — nobody was told")
                }
            }
            FaultKind::CreepingStraggler { worker, start_milli, ramp_milli } => {
                let dev = self.nth_active(worker);
                let start = start_milli.max(DILATION_ONE);
                let ailing = self.device(dev).silent;
                if ailing.crashed {
                    format!("device {dev} is silently dead; creep is moot")
                } else if ailing.creep.is_some() {
                    format!("device {dev} is already creeping; no-op")
                } else {
                    self.device(dev).silent.creep = Some((start, ramp_milli));
                    // A concurrent beat mute makes score-based attribution
                    // unbounded (no timings arrive) — track, don't assert.
                    self.arm_silent(dev, &ev.kind, ailing.muted_beats == 0);
                    format!(
                        "device {dev} creeping from {start}/1000, +{ramp_milli}/step — silently"
                    )
                }
            }
            FaultKind::ThreadPanic { worker } => {
                self.inject_thread(worker, ThreadFault::Panic, kind)
            }
            FaultKind::ThreadStall { worker } => {
                self.inject_thread(worker, ThreadFault::Stall, kind)
            }
            FaultKind::ReplyDrop { worker } => {
                self.inject_thread(worker, ThreadFault::ReplyDrop, kind)
            }
            FaultKind::HeartbeatDrop { worker, beats } => {
                let dev = self.nth_active(worker);
                let ailing = self.device(dev).silent;
                if ailing.crashed {
                    format!("device {dev} is silently dead; nothing to mute")
                } else if ailing.muted_beats > 0 {
                    format!("device {dev} is already muted; no-op")
                } else if beats == 0 {
                    "zero-beat drop; no-op".to_string()
                } else {
                    // Muting a creeping device stalls its score — any armed
                    // creep detection on it loses its bound.
                    if ailing.creep.is_some() {
                        self.supersede(|slot, rec| slot.is_none() && rec.device == dev);
                    }
                    self.device(dev).silent.muted_beats = beats;
                    let detectable = self.drop_is_detectable(beats);
                    self.arm_silent(dev, &ev.kind, detectable);
                    format!(
                        "device {dev} mutes its next {beats} heartbeats ({})",
                        if detectable { "must be detected" } else { "benign-length drop" }
                    )
                }
            }
        };
        self.record(ev.step, kind, outcome);
    }

    /// Drive the run to completion and return the report.
    pub fn run(mut self) -> RunReport {
        // Step-0 durable checkpoint: even a crash on the very first step
        // has something to recover from.
        let ckpt = self.engine().checkpoint();
        self.store.save(&ckpt).expect("store io");

        loop {
            let step = self.engine().global_step();
            if step >= self.cfg.total_steps {
                break;
            }
            // Fire every event due at this step. The index only advances,
            // so post-crash replays never re-fire an event.
            while let Some(ev) =
                self.schedule.events.get(self.next_event).filter(|e| e.step <= step)
            {
                let ev = ev.clone();
                self.next_event += 1;
                self.apply_event(ev);
            }
            // A silent corpse in the allocation blocks the all-reduce: no
            // step happens, but time passes and the detector hunts.
            if self.blocked() {
                self.blocked_tick();
                continue;
            }
            // A fired event may have rewound the step counter (crash) —
            // the engine is asked again rather than trusting `step`.
            let comm_pending = self.engine().pending_comm_faults();
            match self.engine().try_step() {
                Ok(result) => {
                    // Real thread faults the step's supervised drains caught
                    // (and recovered, bitwise-invisibly).
                    self.absorb_pool_recoveries();
                    // Armed comm faults below the retry budget were absorbed
                    // in-step; account their backoff in simulated time.
                    if comm_pending > 0 {
                        let policy = comm::RetryPolicy::default();
                        for retry in 1..=comm_pending.min(policy.max_attempts - 1) {
                            self.clock.advance_us(policy.backoff_us(retry));
                        }
                        obs::counter_add("faultsim.comm_faults_absorbed", 1);
                    }
                    // Deterministic per-device step timings: EST load
                    // through the perf model, dilated per-device by any
                    // straggler fault. The round lasts as long as the
                    // slowest device (synchronous training).
                    let mut times: BTreeMap<u32, u64> = BTreeMap::new();
                    for (i, id) in self.ids(Place::Active).enumerate() {
                        let load = result.per_worker_load.get(i).copied().unwrap_or(0);
                        let mut t = if load == 0 { 0 } else { step_us(&self.cfg.job, load) };
                        if let Some((_, factor, _)) = self.straggler.filter(|s| s.0 == id) {
                            t = t.saturating_mul(factor) / DILATION_ONE;
                        }
                        if let Some((factor, _)) = self.devices[&id].silent.creep {
                            t = t.saturating_mul(factor) / DILATION_ONE;
                        }
                        times.insert(id, t);
                    }
                    let round = times.values().copied().max().unwrap_or(0).max(1);
                    self.clock.advance_us(round);
                    if let Some((sdev, factor, left)) = self.straggler {
                        self.straggler = (left > 1).then_some((sdev, factor, left - 1));
                    }
                    let done = self.engine().global_step();
                    self.emit_beats(done, Some(&times));
                    // The creep creeps: active creepers degrade further
                    // with every completed step.
                    for d in self.devices.values_mut().filter(|d| d.place == Place::Active) {
                        if let Some((factor, ramp)) = &mut d.silent.creep {
                            *factor = factor.saturating_add(*ramp);
                        }
                    }
                    if done.is_multiple_of(CHECKPOINT_EVERY) {
                        let ckpt = self.engine().checkpoint();
                        self.store.save(&ckpt).expect("store io");
                    }
                    self.health_round();
                }
                Err(e) => {
                    // Retries exhausted: the engine is poisoned (paper
                    // §2.1's worker-death case). Take the crash path.
                    let outcome = self.crash_and_recover("comm retries exhausted");
                    self.record(step, "comm_exhausted", format!("{e}; {outcome}"));
                    obs::counter_add("faultsim.comm_exhausted", 1);
                }
            }
        }

        // Recoveries from the final round's checkpoint drain, if any.
        self.absorb_pool_recoveries();
        self.report.final_gpus = self.current_gpus();
        self.report.sim_elapsed_us = self.clock.now_us();
        self.report.final_params = self.engine().flat_params();
        self.report.health_events = self.supervisor.events().to_vec();
        for (slot, record) in std::mem::take(&mut self.ledger) {
            let family = match slot {
                Some(_) => &mut self.report.thread_detections,
                None => &mut self.report.detections,
            };
            family.push(record);
        }
        obs::gauge_set("faultsim.sim_elapsed_us", self.report.sim_elapsed_us as f64);
        self.report
    }
}

/// The fault-free reference: same job, same initial placement, no store, no
/// faults. Its final parameters are the byte-identity target every chaos
/// run is compared against.
pub fn run_fault_free(cfg: &HarnessConfig) -> Vec<f32> {
    let mut engine = build_engine(cfg, (0..cfg.initial_gpus).collect(), None);
    engine.run(cfg.total_steps);
    engine.flat_params()
}

/// Run `schedule` on `cfg` and judge it against the fault-free reference:
/// the full report, and its serialisable view under `name`.
pub fn run_judged(
    name: &str,
    cfg: HarnessConfig,
    schedule: &FaultSchedule,
) -> (RunReport, RunSummary) {
    let steps = cfg.total_steps;
    let reference = run_fault_free(&cfg);
    let report = FaultHarness::new(cfg, schedule.clone()).run();
    let summary = RunSummary {
        name: name.to_string(),
        seed: schedule.seed,
        steps,
        events: schedule.events.len(),
        kinds: schedule.kinds().into_iter().map(str::to_string).collect(),
        crashes: report.crashes,
        recoveries: report.recoveries,
        replayed_steps: report.replayed_steps,
        torn_files_skipped: report.torn_files_skipped,
        sim_elapsed_us: report.sim_elapsed_us,
        final_gpus: report.final_gpus,
        bitwise_identical: report.final_params == reference,
        all_detected_within_bound: report.all_detected_within_bound(),
        detections: report.detections.clone(),
        health_events: report.health_events.clone(),
        evictions: report.evictions,
        readmissions: report.readmissions,
    };
    (report, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("easyscale-faultsim-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fault_free_schedule_matches_reference() {
        let dir = tmp("nofault");
        let cfg = HarnessConfig::default_chaos(dir.clone());
        let reference = run_fault_free(&cfg);
        let report = FaultHarness::new(cfg, FaultSchedule::fault_free()).run();
        assert_eq!(report.final_params, reference);
        assert_eq!(report.crashes, 0);
        assert_eq!(report.replayed_steps, 0);
        assert!(report.health_events.is_empty(), "no faults, no transitions");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_replays_and_converges() {
        let dir = tmp("crash");
        let cfg = HarnessConfig::default_chaos(dir.clone());
        let reference = run_fault_free(&cfg);
        let schedule =
            FaultSchedule::from_events(vec![FaultEvent { step: 3, kind: FaultKind::WorkerCrash }]);
        let report = FaultHarness::new(cfg, schedule).run();
        assert_eq!(report.crashes, 1);
        assert_eq!(report.recoveries, 1);
        assert_eq!(report.replayed_steps, 1, "crash at step 3 rewinds to the step-2 checkpoint");
        assert_eq!(report.final_params, reference);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn straggler_dilates_time_but_not_bits() {
        let dir_a = tmp("straggler-a");
        let dir_b = tmp("straggler-b");
        let cfg_a = HarnessConfig::default_chaos(dir_a.clone());
        let cfg_b = HarnessConfig::default_chaos(dir_b.clone());
        let clean = FaultHarness::new(cfg_a, FaultSchedule::fault_free()).run();
        let slow = FaultHarness::new(
            cfg_b,
            FaultSchedule::from_events(vec![FaultEvent {
                step: 1,
                kind: FaultKind::Straggler { worker: 0, factor_milli: 3000, steps: 4 },
            }]),
        )
        .run();
        assert_eq!(clean.params_bits(), slow.params_bits());
        assert!(
            slow.sim_elapsed_us > clean.sim_elapsed_us,
            "dilation must cost simulated time: {} vs {}",
            slow.sim_elapsed_us,
            clean.sim_elapsed_us
        );
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn scale_out_is_granted_when_gpus_are_free() {
        let dir = tmp("scaleout");
        let cfg = HarnessConfig::default_chaos(dir.clone());
        let reference = run_fault_free(&cfg);
        let schedule = FaultSchedule::from_events(vec![FaultEvent {
            step: 2,
            kind: FaultKind::ScaleOut { gpus: 2 },
        }]);
        let report = FaultHarness::new(cfg, schedule).run();
        assert!(report.final_gpus > 2, "2 free GPUs existed; the grant must land");
        assert_eq!(report.final_params, reference, "scale-out is bitwise invisible");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn silent_crash_blocks_until_detected_then_recovers() {
        let dir = tmp("silent-crash");
        let mut cfg = HarnessConfig::default_chaos(dir.clone());
        cfg.total_steps = crate::DETECT_STEPS;
        let reference = run_fault_free(&cfg);
        let schedule = FaultSchedule::from_events(vec![FaultEvent {
            step: 3,
            kind: FaultKind::SilentCrash { worker: 1 },
        }]);
        let report = FaultHarness::new(cfg, schedule).run();
        assert_eq!(report.final_params, reference, "recovery must stay byte-identical");
        assert_eq!(report.evictions, 1, "the corpse is evicted exactly once");
        assert_eq!(report.crashes, 1, "lost lease ⇒ checkpoint fallback");
        assert_eq!(report.detections.len(), 1);
        let d = &report.detections[0];
        assert!(d.within_bound, "detection must respect the latency bound: {d:?}");
        assert!(report.health_events.iter().any(|e| e.to == sched::HealthState::Quarantined));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
