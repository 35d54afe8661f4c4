//! Persistent worker-thread pool: each physical worker lives on one OS
//! thread for the engine's lifetime, supervised against real faults.
//!
//! The engine spawns one named thread per physical worker when it is built,
//! drives each over its slot's command channel, and respawns them only on
//! `rescale` (where the worker set itself changes) or when a worker
//! *faults* and the supervisor replaces it.
//!
//! Determinism story (docs/PARALLELISM.md): worker threads run local steps
//! concurrently, so *completion* order is up to the OS scheduler — classic
//! D1 entropy. A global step is one message each way per worker: `Step` out,
//! carrying the optimizer delta of the step before, and one [`StepBatch`]
//! back on the slot's own reply channel. The round reads those channels in
//! slot order, so completion order never reaches a result, and a reaped
//! thread's reply cannot be read at all: its channel goes with it. Past the
//! round no bit depends on scheduling, which is what the `nthread_eq_single`
//! proptest checks end to end. The merge (sort by virtual rank, all-reduce,
//! optimizer) runs on the engine thread. Each reply also carries the
//! worker's EST contexts and loader cursors; checkpoint and evaluation read
//! those (`WorkerPool::seeds`) instead of asking the worker again.
//!
//! Supervision story (docs/HEALTH.md): the step round is the one supervised
//! round, so it is the one place a thread fault surfaces. A worker that
//! panics drops its reply sender while it unwinds, so the round finds it at
//! once; one that stalls or silently drops its reply is found when the
//! drain policy's whole budget passes with nothing on its channel. Either
//! surfaces as a typed [`PoolError`] naming the `esw-dev<id>` thread. The
//! supervisor reaps the thread (joining it if dead, quarantining it if
//! live), asks the engine for a replacement worker seeded from the
//! engine-held param mirror (proven bitwise-equal to every replica),
//! reinstalls it on a fresh thread, and replays the step. Because
//! replacements are rebuilt from pre-step state and results are read in
//! slot order, recovery is invisible in the deterministic outputs:
//! post-recovery params are byte-identical to a fault-free run.

use crate::est::EstContext;
use crate::worker::{EasyScaleWorker, LocalStep};
use comm::exchange::{channel, Receiver, RecvTimeoutError, Sender};
use comm::{ElasticDdp, RetryPolicy};
use data::LoaderCheckpoint;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How the engine executes its physical workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Persistent worker threads (the default): one OS thread per physical
    /// worker for the engine's lifetime, respawned only on rescale.
    #[default]
    Pool,
    /// Everything on the caller's thread, workers stepped sequentially.
    /// The reference for the N-thread ≡ 1-thread equivalence tests.
    SingleThread,
}

/// Execution options for an [`Engine`](crate::Engine).
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker execution mode.
    pub mode: ExecMode,
    /// Stable device ids used to *name* pool threads (`esw-dev{id}`), in
    /// slot order. Purely diagnostic — ids never feed the math. When empty,
    /// slot indices are used.
    pub device_ids: Vec<u32>,
    /// Deadline policy for a supervised step round: a live worker whose
    /// reply channel stays empty for the policy's whole backoff budget
    /// ([`RetryPolicy::total_backoff_us`]) is declared faulty. A dead one
    /// is found as soon as its channel disconnects, whatever the policy.
    /// Real-time only — these waits never touch simulated time or any
    /// deterministic output, so a too-aggressive policy costs spurious
    /// respawns (counters), never bits.
    pub drain: RetryPolicy,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            mode: ExecMode::default(),
            device_ids: Vec::new(),
            // 25ms·(2^8−1) ≈ 6.4s total: generous enough that a healthy
            // worker under worst-case CI scheduling never trips it.
            drain: RetryPolicy { max_attempts: 8, base_backoff_us: 25_000, backoff_multiplier: 2 },
        }
    }
}

/// Counters a [`WorkerPool`] keeps about itself (see
/// [`Engine::pool_stats`](crate::Engine::pool_stats)). Tests use these to
/// prove threads persist across steps; they are engine-local, unlike the
/// process-global `obs` counters, so parallel tests cannot race on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads currently alive.
    pub workers: usize,
    /// Global-step rounds served by these threads since spawn.
    pub steps_served: u64,
}

/// Everything the engine needs from one worker, besides the parameters it
/// mirrors, to assemble a checkpoint, to evaluate, and to seed a
/// bitwise-identical replacement after a fault.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSnapshot {
    /// The worker's EST contexts, in slot order.
    pub contexts: Vec<EstContext>,
    /// The worker's data-pool cursors (all ranks; only locally-owned ones
    /// have advanced).
    pub loader: LoaderCheckpoint,
}

impl WorkerSnapshot {
    /// Capture `worker`'s checkpoint-relevant state.
    pub fn capture(worker: &EasyScaleWorker) -> Self {
        WorkerSnapshot { contexts: worker.contexts().to_vec(), loader: worker.pool_checkpoint() }
    }
}

/// A real fault injected into a pool worker thread (faultsim chaos). Armed
/// via [`WorkerPool::arm_fault`]; the worker consumes it at its next `Step`
/// command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadFault {
    /// The worker thread panics mid-step, publishing nothing.
    Panic,
    /// The worker parks past every drain deadline, publishing nothing. The
    /// supervisor's quarantine unparks it so it can exit and be joined.
    Stall,
    /// The worker runs its step but suppresses the publish, then keeps
    /// serving — a live thread whose results silently vanish.
    ReplyDrop,
}

/// Why a supervised pool interaction failed, naming the offending worker
/// slot and its `esw-dev<id>` thread. Never returned for conditions the
/// supervisor already recovered — callers see these through the recovery
/// log, not as errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The worker's thread exited — panicked (payload attached) or returned
    /// early. Its results for the interrupted command are lost.
    WorkerDead {
        /// Worker slot index.
        worker: usize,
        /// Device id the thread was named for.
        device: u32,
        /// The panic payload, if the thread panicked (None: clean early exit).
        panic_msg: Option<String>,
    },
    /// The worker's thread is alive but produced nothing within the drain
    /// policy's whole backoff budget — stalled, wedged, or silently dropping
    /// replies. The thread is quarantined, not joined (it may never exit on
    /// its own; joining it would hang the engine).
    DrainTimeout {
        /// Worker slot index.
        worker: usize,
        /// Device id the thread was named for.
        device: u32,
    },
}

impl PoolError {
    /// Worker slot index the fault was attributed to.
    pub fn worker(&self) -> usize {
        match *self {
            PoolError::WorkerDead { worker, .. } | PoolError::DrainTimeout { worker, .. } => worker,
        }
    }

    /// Device id of the faulty worker's thread.
    pub fn device(&self) -> u32 {
        match *self {
            PoolError::WorkerDead { device, .. } | PoolError::DrainTimeout { device, .. } => device,
        }
    }

    /// The faulty thread's name (`esw-dev<id>`).
    pub fn thread_name(&self) -> String {
        format!("esw-dev{}", self.device())
    }

    /// Stable kind tag for logs and counters.
    pub fn kind(&self) -> &'static str {
        match self {
            PoolError::WorkerDead { .. } => "worker-dead",
            PoolError::DrainTimeout { .. } => "drain-timeout",
        }
    }

    /// The dead worker's panic payload, if any.
    pub fn panic_msg(&self) -> Option<&str> {
        match self {
            PoolError::WorkerDead { panic_msg, .. } => panic_msg.as_deref(),
            PoolError::DrainTimeout { .. } => None,
        }
    }
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::WorkerDead { worker, panic_msg, .. } => match panic_msg {
                Some(msg) => {
                    write!(f, "worker {worker} ({}) died: {msg}", self.thread_name())
                }
                None => write!(f, "worker {worker} ({}) exited early", self.thread_name()),
            },
            PoolError::DrainTimeout { worker, .. } => {
                write!(f, "worker {worker} ({}) missed the drain deadline", self.thread_name())
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Builds a replacement worker for a faulted slot. The engine seeds it from
/// its param mirror plus the slot's last [`WorkerSnapshot`] (pre-interrupted-
/// step state), which is exactly what replaying the interrupted step needs
/// for bitwise-identical recovery.
pub type RespawnFn<'a> = dyn FnMut(&PoolError, &WorkerSnapshot) -> Box<EasyScaleWorker> + 'a;

/// One engine→worker command. A slot's channel is FIFO, so its worker
/// observes commands in exactly the engine's program order.
enum Cmd {
    /// Apply the optimizer delta of the step before, if any, then run one
    /// local step per hosted EST and reply. A step replayed on a
    /// replacement carries `None`: the replacement is built from the
    /// engine's mirror, which already holds the delta.
    Step(Option<Arc<Vec<f32>>>),
    /// Arm a [`ThreadFault`], consumed at the next `Step` (faultsim chaos).
    Arm(ThreadFault),
    /// Shut down the thread.
    Exit,
}

/// A worker's reply to `Step`: its local steps plus a post-step snapshot,
/// the slot's recovery seed for the *next* step.
struct StepBatch {
    steps: Vec<LocalStep>,
    recovery: WorkerSnapshot,
}

/// One physical worker: its thread, the channel each way, and what a
/// replacement needs.
struct Slot {
    cmd: Sender<Cmd>,
    /// Created with the thread and dropped when the slot is reaped, so no
    /// reply of a reaped thread can be read.
    reply: Receiver<StepBatch>,
    thread: JoinHandle<()>,
    /// Device id (thread naming + fault attribution).
    device: u32,
    /// The snapshot a replacement replays the interrupted step from:
    /// captured at spawn, refreshed from every reply, so it always holds
    /// pre-current-step state.
    seed: WorkerSnapshot,
}

/// The persistent pool: one [`Slot`] per worker.
pub struct WorkerPool {
    slots: Vec<Slot>,
    /// Unresponsive threads the supervisor gave up on: unparked and written
    /// off, joined at shutdown (they exit once their old command channel
    /// drops, so the join cannot hang).
    quarantined: Vec<JoinHandle<()>>,
    /// The delta [`WorkerPool::apply`] stored, sent with the next `Step`.
    pending: Option<Arc<Vec<f32>>>,
    /// How long a round waits on one silent slot.
    drain: RetryPolicy,
    steps_served: u64,
}

/// Start slot `esw-dev<dev>`'s thread around `worker`, with `seed` its
/// recovery seed.
// Audited fence: the per-slot channels are raw mpsc by design (one
// producer, one consumer, FIFO), hence the workspace-ban allow.
#[allow(clippy::disallowed_methods)]
fn launch(dev: u32, worker: Box<EasyScaleWorker>, seed: WorkerSnapshot) -> Slot {
    let (cmd, cmd_rx) = channel();
    let (reply_tx, reply) = channel();
    let thread = std::thread::Builder::new()
        .name(format!("esw-dev{dev}"))
        .spawn(move || worker_main(worker, cmd_rx, reply_tx))
        .expect("failed to spawn worker thread");
    Slot { cmd, reply, thread, device: dev, seed }
}

impl WorkerPool {
    /// Spawn one named persistent thread per worker, moving each worker onto
    /// its thread. `device_ids` (slot order) name the threads `esw-dev{id}`;
    /// missing entries fall back to the slot index. `drain` bounds how long
    /// a step round waits for a silent worker.
    pub fn spawn(workers: Vec<EasyScaleWorker>, device_ids: &[u32], drain: RetryPolicy) -> Self {
        let n = workers.len();
        assert!(n > 0, "pool needs at least one worker");
        let slots = workers
            .into_iter()
            .enumerate()
            .map(|(i, worker)| {
                let seed = WorkerSnapshot::capture(&worker);
                launch(device_ids.get(i).copied().unwrap_or(i as u32), Box::new(worker), seed)
            })
            .collect();
        obs::counter_add("engine.pool.spawns_total", n as u64);
        WorkerPool { slots, quarantined: Vec::new(), pending: None, drain, steps_served: 0 }
    }

    /// Number of pooled workers.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the pool is empty (never true; spawn requires ≥ 1 worker).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Pool self-counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats { workers: self.slots.len(), steps_served: self.steps_served }
    }

    /// Every worker's EST contexts and loader cursors as of the last step
    /// round (as spawned, before the first), in worker order: the recovery
    /// seeds each [`StepBatch`] carried. They are also what a checkpoint or
    /// an evaluation needs from the workers — a delta changes only the
    /// parameters, which a snapshot does not hold.
    pub(crate) fn seeds(&self) -> impl Iterator<Item = &WorkerSnapshot> {
        self.slots.iter().map(|s| &s.seed)
    }

    /// Arm a [`ThreadFault`] on worker `worker % len` (faultsim chaos); the
    /// worker consumes it at its next `Step`. Returns the armed slot index.
    pub fn arm_fault(&self, worker: usize, fault: ThreadFault) -> usize {
        let i = worker % self.len();
        // A slot whose thread already died can't receive the arm; its next
        // step round will reap it regardless.
        let _ = self.slots[i].cmd.send(Cmd::Arm(fault));
        i
    }

    /// One concurrent local-step round, supervised (see the module docs):
    /// send `Step` with the pending delta to every slot, then read each
    /// slot's reply channel in slot order. A slot whose channel disconnects,
    /// or stays empty for the policy's whole budget, is reaped, replaced via
    /// `respawn` and sent the step again, so the returned steps (in worker
    /// order; callers still sort by vrank) are bitwise identical whether or
    /// not a worker faulted. Every recovery is reported in the second tuple
    /// element (empty when clean). Local steps use neither `_epoch` nor
    /// `_lr`: the two parameters are kept only because `benchmark/` passes
    /// them (ROADMAP item 7 deletes them).
    pub fn run_steps_supervised(
        &mut self,
        _epoch: u64,
        _lr: f32,
        respawn: &mut RespawnFn<'_>,
    ) -> (Vec<LocalStep>, Vec<PoolError>) {
        let delta = self.pending.take();
        for slot in &self.slots {
            // A dead thread cannot take the step; its reply channel says so.
            let _ = slot.cmd.send(Cmd::Step(delta.clone()));
        }
        let budget = Duration::from_micros(self.drain.total_backoff_us());
        let (mut steps, mut errors) = (Vec::new(), Vec::new());
        for i in 0..self.slots.len() {
            let mut lost = 0;
            let batch = loop {
                let got = {
                    let _drain_span = obs::span("engine.drain_wait");
                    // detlint::allow(no-thread-order): one channel per slot, read in slot order
                    self.slots[i].reply.recv_timeout(budget)
                };
                match got {
                    Ok(batch) => break batch,
                    Err(cause) => {
                        // A replacement may fault too and is replaced the
                        // same way; one that can never step is a bug.
                        lost += 1;
                        assert!(lost <= self.drain.max_attempts, "slot {i} lost {lost} workers");
                        errors.push(self.recover(i, cause, respawn));
                    }
                }
            };
            self.slots[i].seed = batch.recovery;
            steps.extend(batch.steps);
        }
        self.steps_served += 1;
        (steps, errors)
    }

    /// The all-reduce on the calling thread: exactly
    /// [`ElasticDdp::allreduce_avg`], with no worker involved and therefore
    /// never a recovery to report. The engine does not call this — it
    /// reduces directly (docs/PARALLELISM.md, "Cost model"); the name and
    /// signature are kept only because `benchmark/`'s decomposed step calls
    /// them (ROADMAP item 7 deletes the method).
    pub fn reduce_supervised(
        &mut self,
        ddp: &Arc<ElasticDdp>,
        grads: &Arc<Vec<Vec<f32>>>,
        _respawn: &mut RespawnFn<'_>,
    ) -> (Vec<f32>, Vec<PoolError>) {
        (ddp.allreduce_avg(grads), Vec::new())
    }

    /// Store the optimizer delta for the next round's `Step` to carry: a
    /// step is one message each way. The engine applies once per step.
    pub fn apply(&mut self, delta: &Arc<Vec<f32>>) {
        self.pending = Some(Arc::clone(delta));
    }

    /// Reap faulty slot `i`, install the replacement `respawn` builds from
    /// the slot's recovery seed on a fresh thread, and send it the step
    /// again. A disconnected channel means the thread is exiting: it is
    /// joined and its panic payload harvested. A silent one is alive: it is
    /// unparked and quarantined — joining it could hang forever. Dropping
    /// the old channels tells it to exit and makes its late reply unreadable.
    fn recover(
        &mut self,
        i: usize,
        cause: RecvTimeoutError,
        respawn: &mut RespawnFn<'_>,
    ) -> PoolError {
        let Slot { thread, device, seed, .. } = self.slots.remove(i);
        obs::counter_add("engine.pool.quarantines_total", 1);
        let err = match cause {
            RecvTimeoutError::Disconnected => {
                let panic_msg = thread.join().err().map(|p| payload_to_string(p.as_ref()));
                PoolError::WorkerDead { worker: i, device, panic_msg }
            }
            RecvTimeoutError::Timeout => {
                thread.thread().unpark();
                self.quarantined.push(thread);
                PoolError::DrainTimeout { worker: i, device }
            }
        };
        let slot = launch(device, respawn(&err, &seed), seed);
        // A replacement that dies at once is found on its reply channel.
        let _ = slot.cmd.send(Cmd::Step(None));
        self.slots.insert(i, slot);
        obs::counter_add("engine.pool.respawns_total", 1);
        obs::counter_add("engine.drain_timeout", 1);
        err
    }
}

/// Render a worker thread's panic payload for diagnostics.
fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

impl Drop for WorkerPool {
    /// Send `Exit`, join every thread, report a panicked join. No worker
    /// can be dead here outside an unwind: a fault surfaces only in a step
    /// round, which replaces the worker before it returns.
    fn drop(&mut self) {
        for slot in &self.slots {
            let _ = slot.cmd.send(Cmd::Exit);
        }
        let live = self.slots.drain(..).map(|s| s.thread);
        // Quarantined threads exit on their next channel poll (their senders
        // are long dropped, a stall was unparked), so these joins terminate.
        for handle in live.chain(self.quarantined.drain(..)) {
            let name = handle.thread().name().unwrap_or("esw-?").to_owned();
            if let Err(payload) = handle.join() {
                eprintln!(
                    "WorkerPool: thread {name} panicked: {}",
                    payload_to_string(payload.as_ref())
                );
            }
        }
    }
}

/// Injected [`ThreadFault::Stall`] body: park until the supervisor's
/// quarantine unparks us, then fall through so the thread can exit and be
/// joined at shutdown. While parked the worker is indistinguishable from a
/// wedged thread — exactly the fault being modeled.
fn stall_forever() {
    // The park IS the injected fault: the supervisor must detect the silent
    // worker via its drain deadline. Quarantine unparks us, so this is not a
    // true engine<->worker deadlock — the engine-side wait is bounded.
    std::thread::park();
}

/// The persistent worker thread body: block on the command channel, execute,
/// reply. Runs until `Exit` (or until its slot is reaped or the engine is
/// dropped mid-teardown). Declared as a detlint taint barrier: the blocking
/// receive is the one place scheduling-dependent arrival *timing* exists,
/// and nothing here forwards arrival order — each reply goes on the slot's
/// own channel, read in slot order on the engine side. A panic drops
/// `replies` while unwinding: that disconnect is the death notice.
fn worker_main(mut worker: Box<EasyScaleWorker>, cmds: Receiver<Cmd>, replies: Sender<StepBatch>) {
    // Injected fault waiting for the next Step (faultsim chaos).
    let mut armed: Option<ThreadFault> = None;
    loop {
        // Single-producer FIFO command channel — receive order is the
        // engine's program order, not a thread race.
        // detlint::allow(no-thread-order): single-producer FIFO channel
        let cmd = match cmds.recv() {
            Ok(cmd) => cmd,
            // Engine dropped without Exit (poisoned teardown), or this
            // thread was reaped and its channel replaced: just leave.
            Err(_) => return,
        };
        match cmd {
            Cmd::Step(delta) => {
                if let Some(delta) = delta {
                    worker.apply_update(&delta);
                }
                match armed.take() {
                    Some(ThreadFault::Panic) => {
                        panic!("injected ThreadPanic fault (faultsim chaos)")
                    }
                    Some(ThreadFault::Stall) => {
                        stall_forever();
                        return;
                    }
                    Some(ThreadFault::ReplyDrop) => {
                        // Run the step but drop the reply: the thread
                        // stays alive and keeps serving, its result gone.
                        let _ = worker.run_local_steps();
                        continue;
                    }
                    None => {}
                }
                let step_span = obs::span("engine.pool.worker_step");
                let steps = worker.run_local_steps();
                drop(step_span);
                let recovery = WorkerSnapshot::capture(&worker);
                // A reaped slot's receiver is gone: the reply is dropped.
                let _ = replies.send(StepBatch { steps, recovery });
            }
            Cmd::Arm(fault) => armed = Some(fault),
            Cmd::Exit => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use crate::JobConfig;
    use device::GpuType;
    use models::Workload;

    fn make_workers(n_ests: u32, gpus: u32) -> (JobConfig, Placement, Vec<EasyScaleWorker>) {
        let cfg = JobConfig::new(Workload::ResNet18, 7, n_ests).with_dataset_len(128);
        let placement = Placement::homogeneous(n_ests, gpus, GpuType::V100);
        let workers = placement.slots.iter().map(|s| EasyScaleWorker::new(&cfg, s)).collect();
        (cfg, placement, workers)
    }

    /// A fast drain policy for fault tests: 6 windows of 25ms..800ms ≈ 1.6s
    /// worst case — comfortably past a contended step round (a round is
    /// ~50–150ms under parallel test load, so shorter deadlines fire
    /// spurious recoveries), small enough that injected-fault tests stay
    /// quick.
    fn fast_drain() -> RetryPolicy {
        RetryPolicy { max_attempts: 6, base_backoff_us: 25_000, backoff_multiplier: 2 }
    }

    /// A pool-test respawn callback: the engine's own recipe, fed a job
    /// config, placement and param mirror the test holds, logging each call.
    fn respawner<'a>(
        cfg: &'a JobConfig,
        placement: &'a Placement,
        mirror: &'a [f32],
        log: &'a mut Vec<PoolError>,
    ) -> impl FnMut(&PoolError, &WorkerSnapshot) -> Box<EasyScaleWorker> + 'a {
        let dataset = crate::worker::make_dataset(cfg);
        move |err, snap| {
            log.push(err.clone());
            crate::engine::build_replacement(cfg, placement, &dataset, mirror, err.worker(), snap)
        }
    }

    /// A pool plus what [`respawner`] needs to rebuild any of its slots, so
    /// every test drives the pool through the supervised entry points.
    struct Rig {
        cfg: JobConfig,
        placement: Placement,
        mirror: Vec<f32>,
        pool: WorkerPool,
        log: Vec<PoolError>,
    }

    impl Rig {
        fn new(n_ests: u32, gpus: u32, device_ids: &[u32], drain: RetryPolicy) -> Self {
            let (cfg, placement, workers) = make_workers(n_ests, gpus);
            let mirror = workers[0].flat_params();
            let pool = WorkerPool::spawn(workers, device_ids, drain);
            Rig { cfg, placement, mirror, pool, log: Vec::new() }
        }

        fn step_round(&mut self) -> (Vec<LocalStep>, Vec<PoolError>) {
            let mut respawn = respawner(&self.cfg, &self.placement, &self.mirror, &mut self.log);
            self.pool.run_steps_supervised(0, 0.05, &mut respawn)
        }

        /// A fault-free step round, in vrank order.
        fn clean_steps(&mut self) -> Vec<LocalStep> {
            let (mut steps, errors) = self.step_round();
            assert!(errors.is_empty(), "fault-free round reported {errors:?}");
            steps.sort_by_key(|l| l.vrank);
            steps
        }
    }

    fn assert_steps_bitwise_eq(a: &[LocalStep], b: &[LocalStep], what: &str) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.vrank, y.vrank);
            assert_eq!(x.loss.to_bits(), y.loss.to_bits(), "{what}");
            assert!(x.grad.iter().zip(&y.grad).all(|(p, q)| p.to_bits() == q.to_bits()));
        }
    }

    fn sequential_steps(workers: &mut [EasyScaleWorker]) -> Vec<LocalStep> {
        let mut steps: Vec<LocalStep> =
            workers.iter_mut().flat_map(|w| w.run_local_steps()).collect();
        steps.sort_by_key(|l| l.vrank);
        steps
    }

    #[test]
    fn pool_steps_match_sequential_workers_bitwise() {
        let mut rig = Rig::new(4, 2, &[], ExecOptions::default().drain);
        let (_, _, mut twins) = make_workers(4, 2);
        for _ in 0..3 {
            assert_steps_bitwise_eq(&rig.clean_steps(), &sequential_steps(&mut twins), "clean");
        }
    }

    #[test]
    fn threads_persist_across_rounds() {
        let mut rig = Rig::new(4, 4, &[10, 11, 12, 13], ExecOptions::default().drain);
        assert_eq!(rig.pool.stats(), PoolStats { workers: 4, steps_served: 0 });
        for _ in 0..3 {
            // A respawn is the only way a slot changes thread, and every
            // respawn is reported: three clean rounds prove there was none.
            rig.clean_steps();
        }
        assert!(rig.log.is_empty());
        assert_eq!(rig.pool.stats(), PoolStats { workers: 4, steps_served: 3 });
    }

    #[test]
    fn apply_rides_the_next_step() {
        let mut rig = Rig::new(2, 1, &[], ExecOptions::default().drain);
        let (_, _, mut twins) = make_workers(2, 1);
        let delta = vec![1e-3f32; rig.mirror.len()];
        rig.pool.apply(&Arc::new(delta.clone()));
        twins[0].apply_update(&delta);
        // The step carries the delta and applies it before stepping.
        assert_steps_bitwise_eq(&rig.clean_steps(), &sequential_steps(&mut twins), "applied");
        // Once: the step after it carries none.
        assert_steps_bitwise_eq(&rig.clean_steps(), &sequential_steps(&mut twins), "after");
    }

    /// Workers that die applying the delta their `Step` carries are found
    /// in that round, and their replacements are seeded from a mirror that
    /// already holds the delta, so the replayed step carries none
    /// (docs/HEALTH.md, row 14).
    #[test]
    fn a_fatal_delta_respawns_from_the_post_apply_mirror() {
        let mut rig = Rig::new(4, 2, &[], fast_drain());
        let (_, _, mut twins) = make_workers(4, 2);
        assert_steps_bitwise_eq(&rig.clean_steps(), &sequential_steps(&mut twins), "before");

        // The engine's order: update the mirror, then hand the pool the delta.
        let delta: Vec<f32> = (0..rig.mirror.len()).map(|i| (i % 7) as f32 * 1e-3 - 3e-3).collect();
        for (p, d) in rig.mirror.iter_mut().zip(&delta) {
            *p += d;
        }
        for w in &mut twins {
            w.apply_update(&delta);
        }
        // What reaches the pool is an empty delta: both workers die slicing
        // it (out of bounds in `apply_flat_delta`), having applied nothing.
        rig.pool.apply(&Arc::new(Vec::new()));

        let (mut steps, errors) = rig.step_round();
        assert_eq!(errors.len(), 2, "one recovery per worker: {errors:?}");
        assert!(errors.iter().all(|e| matches!(e, PoolError::WorkerDead { .. })), "{errors:?}");
        assert_eq!(rig.log, errors);
        steps.sort_by_key(|l| l.vrank);
        assert_steps_bitwise_eq(&steps, &sequential_steps(&mut twins), "respawned");
        assert_steps_bitwise_eq(&rig.clean_steps(), &sequential_steps(&mut twins), "after");
    }

    /// Every injected [`ThreadFault`] is detected, the worker is replaced,
    /// and the recovered round is bitwise identical to a fault-free one. A
    /// dead thread is found when its reply channel disconnects, well inside
    /// the budget; a live silent one is waited for through the whole budget.
    #[test]
    fn supervised_steps_recover_every_fault_kind_bitwise() {
        let budget = std::time::Duration::from_micros(fast_drain().total_backoff_us());
        for (fault, want_kind) in [
            (ThreadFault::Panic, "worker-dead"),
            (ThreadFault::Stall, "drain-timeout"),
            (ThreadFault::ReplyDrop, "drain-timeout"),
        ] {
            let mut rig = Rig::new(4, 2, &[], fast_drain());
            let (_, _, mut twins) = make_workers(4, 2);
            let armed = rig.pool.arm_fault(1, fault);
            assert_eq!(armed, 1);
            let started = std::time::Instant::now();
            let (mut steps, errors) = rig.step_round();
            let took = started.elapsed();
            if fault == ThreadFault::Panic {
                assert!(took < budget / 2, "a dead thread waited {took:?} of {budget:?}");
            } else {
                assert!(took >= budget, "{fault:?}: a live thread reaped after {took:?}");
            }
            assert_eq!(errors.len(), 1, "{fault:?}: exactly one recovery");
            assert_eq!(errors[0].worker(), 1);
            assert_eq!(errors[0].kind(), want_kind, "{fault:?}");
            if fault == ThreadFault::Panic {
                let msg = errors[0].panic_msg().expect("panic payload harvested");
                assert!(msg.contains("injected ThreadPanic"), "payload: {msg}");
            }

            // Bitwise identity with the sequential reference, this round
            // and (replacement in service) the next.
            steps.sort_by_key(|l| l.vrank);
            assert_steps_bitwise_eq(&steps, &sequential_steps(&mut twins), &format!("{fault:?}"));
            let next = rig.clean_steps();
            assert_steps_bitwise_eq(&next, &sequential_steps(&mut twins), &format!("{fault:?}"));
        }
    }

    /// A dead worker is found when its reply channel disconnects, not when
    /// a wait expires: with a first window of 2 s, a panic still comes back
    /// as `WorkerDead`, payload attached, well inside one second.
    #[test]
    fn a_panicked_worker_is_found_before_the_first_window_expires() {
        let slow =
            RetryPolicy { max_attempts: 2, base_backoff_us: 2_000_000, backoff_multiplier: 2 };
        let mut rig = Rig::new(2, 2, &[], slow);
        rig.pool.arm_fault(1, ThreadFault::Panic);
        let started = std::time::Instant::now();
        let (_, errors) = rig.step_round();
        let took = started.elapsed();
        assert!(took < std::time::Duration::from_secs(1), "a dead thread was found after {took:?}");
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!((errors[0].worker(), errors[0].kind()), (1, "worker-dead"));
        let msg = errors[0].panic_msg().expect("panic payload harvested");
        assert!(msg.contains("injected ThreadPanic"), "payload: {msg}");
    }

    /// A dead and a stalled worker in one round: the dead one is reaped at
    /// once, the live one only once the budget is spent.
    #[test]
    fn a_dead_and_a_stalled_worker_are_reaped_in_turn() {
        let mut rig = Rig::new(4, 2, &[], fast_drain());
        let (_, _, mut twins) = make_workers(4, 2);
        rig.pool.arm_fault(0, ThreadFault::Panic);
        rig.pool.arm_fault(1, ThreadFault::Stall);
        let (mut steps, errors) = rig.step_round();
        let got: Vec<(usize, &str)> = errors.iter().map(|e| (e.worker(), e.kind())).collect();
        assert_eq!(got, [(0, "worker-dead"), (1, "drain-timeout")], "{errors:?}");
        steps.sort_by_key(|l| l.vrank);
        assert_steps_bitwise_eq(&steps, &sequential_steps(&mut twins), "panic + stall");
    }

    /// The seeds a checkpoint and an evaluation read hold every slot's
    /// post-step state, a respawned slot's included.
    #[test]
    fn seeds_hold_the_post_step_state_after_a_recovery() {
        let mut rig = Rig::new(4, 2, &[], fast_drain());
        let (_, _, mut twins) = make_workers(4, 2);
        let seeds = |pool: &WorkerPool| pool.seeds().cloned().collect::<Vec<_>>();
        let spawned: Vec<WorkerSnapshot> = twins.iter().map(WorkerSnapshot::capture).collect();
        assert_eq!(seeds(&rig.pool), spawned);
        rig.pool.arm_fault(1, ThreadFault::Panic);
        assert_eq!(rig.step_round().1.len(), 1);
        sequential_steps(&mut twins);
        let stepped: Vec<WorkerSnapshot> = twins.iter().map(WorkerSnapshot::capture).collect();
        assert_eq!(seeds(&rig.pool), stepped);
        assert_ne!(stepped, spawned);
    }
}
