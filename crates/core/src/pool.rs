//! Persistent worker-thread pool: each physical worker lives on one OS
//! thread for the engine's lifetime, supervised against real faults.
//!
//! The engine spawns one named thread per physical worker when it is built,
//! drives the threads over per-worker command channels, and respawns them
//! only on `rescale` (where the worker set itself changes) or when a worker
//! *faults* and the supervisor replaces it.
//!
//! Determinism story (docs/PARALLELISM.md): worker threads run local steps
//! concurrently, so *completion* order is up to the OS scheduler — classic
//! D1 entropy. Every worker→engine message (step batches, snapshot and lend
//! replies) crosses back through one kind of fence: an [`Exchange`] keyed by
//! worker index, drained with [`Exchange::drain_deadline`] (a declared
//! detlint taint barrier) so the engine consumes results in canonical worker
//! order, each stamped with the round's `seq` and the publisher's `ThreadId`
//! so a late message from an earlier round or a reaped thread is discarded,
//! never consumed. Past that fence no bit depends on scheduling, which is
//! what the `nthread_eq_single` proptest checks end to end. The merge (sort
//! by virtual rank, all-reduce, optimizer) runs on the engine thread behind
//! that fence, so a global step is one fan-out (`Step`), one drain and one
//! fire-and-forget (`Apply`).
//!
//! Supervision story (docs/HEALTH.md): step, snapshot and lend are three
//! callers of one supervised round. A worker that panics, stalls past the
//! drain deadline, or silently drops its reply surfaces as a typed
//! [`PoolError`] naming the `esw-dev<id>` thread. The drain waits one policy
//! window at a time: a silent slot whose thread has exited is reaped when a
//! window expires, a live one only once the whole budget is spent. The
//! supervisor reaps the thread (joining it if dead, quarantining it if live),
//! asks the engine for a replacement worker seeded from the engine-held
//! param mirror (proven bitwise-equal to every replica), reinstalls it on a
//! fresh thread, and replays the interrupted command. Because replacements
//! are rebuilt from pre-step state and results still cross the canonical
//! fence, recovery is invisible in the deterministic outputs: post-recovery
//! params are byte-identical to a fault-free run.

use crate::est::EstContext;
use crate::worker::{EasyScaleWorker, LocalStep};
use comm::exchange::{channel, Receiver, Sender};
use comm::{ElasticDdp, Exchange, ExchangeTx, RetryPolicy};
use data::LoaderCheckpoint;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::{JoinHandle, ThreadId};

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
    /// Deadline policy for supervised pool drains, waited through one
    /// exponentially growing window at a time. A missing result whose
    /// thread has exited is reaped when a window expires (the first window
    /// bounds finding a dead thread); a live silent worker is declared
    /// faulty after `max_attempts` windows
    /// ([`RetryPolicy::total_backoff_us`]). Real-time only — these waits
    /// never touch simulated time or any deterministic output, so a
    /// too-aggressive policy costs spurious respawns (counters), never bits.
    pub drain: RetryPolicy,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            mode: ExecMode::default(),
            device_ids: Vec::new(),
            // 25ms·(2^8−1) ≈ 6.4s total: generous enough that a healthy
            // worker under worst-case CI scheduling never trips it; a dead
            // thread is reaped after the first 25ms window.
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

/// Everything the engine needs from one worker to assemble a checkpoint —
/// and, since PR 9, to seed a bitwise-identical replacement after a fault.
#[derive(Debug, Clone)]
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
/// step state), which is exactly what replaying the interrupted command
/// needs for bitwise-identical recovery.
pub type RespawnFn<'a> = dyn FnMut(&PoolError, &WorkerSnapshot) -> Box<EasyScaleWorker> + 'a;

/// One engine→worker command. Per-worker channels are FIFO, so a worker
/// observes commands in exactly the engine's program order — `Apply` always
/// lands before the next `Step`, no acknowledgement needed. Every command
/// that owes an answer carries its round's `seq`, echoed back in the
/// [`Fenced`] envelope for stale-result filtering after a recovery.
enum Cmd {
    /// Run one local step per hosted EST and publish the batch.
    Step { seq: u64 },
    /// Apply the (identical-everywhere) optimizer delta to the replica.
    Apply(Arc<Vec<f32>>),
    /// Publish a [`WorkerSnapshot`].
    Snapshot { seq: u64 },
    /// Publish the owned worker itself (evaluation runs on the engine
    /// thread because eval datasets are borrowed, not `'static`).
    Lend { seq: u64 },
    /// Return a previously lent worker.
    Restore(Box<EasyScaleWorker>),
    /// Arm a [`ThreadFault`], consumed at the next `Step` (faultsim chaos).
    Arm(ThreadFault),
    /// Shut down the thread.
    Exit,
}

/// The envelope every worker→engine message travels in: the commanding
/// round's `seq` and the publishing thread's id. The supervised round
/// consumes a message only if both match the slot's current round and
/// thread — a publish from an earlier round or a reaped thread is stale.
struct Fenced<T> {
    seq: u64,
    thread: ThreadId,
    body: T,
}

impl<T> Fenced<T> {
    /// Stamp `body` as the calling thread's answer to round `seq`.
    fn new(seq: u64, body: T) -> Self {
        Fenced { seq, thread: std::thread::current().id(), body }
    }
}

/// What a worker publishes after a `Step` command: its local steps plus a
/// post-step snapshot the supervisor holds as the slot's recovery seed for
/// the *next* step.
struct StepBatch {
    steps: Vec<LocalStep>,
    recovery: WorkerSnapshot,
}

/// What a worker publishes after a `Snapshot` or `Lend` command.
enum Reply {
    Snapshot(Box<WorkerSnapshot>),
    Worker(Box<EasyScaleWorker>),
}

/// The publish handles one worker thread holds, one per exchange.
struct Publishers {
    steps: ExchangeTx<Fenced<StepBatch>>,
    replies: ExchangeTx<Fenced<Reply>>,
}

/// The persistent pool: command senders and the two keyed exchanges the
/// worker threads publish into.
pub struct WorkerPool {
    cmds: Vec<Sender<Cmd>>,
    steps: Exchange<Fenced<StepBatch>>,
    replies: Exchange<Fenced<Reply>>,
    /// Live thread handles; `None` only transiently inside a recovery. A
    /// slot's current `ThreadId` is read off its handle: every drained
    /// message must match it or it is a stale publish from a reaped thread.
    threads: Vec<Option<JoinHandle<()>>>,
    /// Unresponsive threads the supervisor gave up on: unparked and written
    /// off, joined best-effort at shutdown (they exit once their old command
    /// channel drops, so the join cannot hang).
    quarantined: Vec<JoinHandle<()>>,
    /// Device id per slot (thread naming + fault attribution).
    devices: Vec<u32>,
    /// Per-slot recovery seed: the snapshot a replacement worker replays
    /// the interrupted step from. Captured at spawn, refreshed from every
    /// drained [`StepBatch`], so it always holds pre-current-step state.
    recovery: Vec<WorkerSnapshot>,
    /// Deadline policy for the supervised drains.
    drain: RetryPolicy,
    seq: u64,
    steps_served: u64,
}

/// Start slot `key`'s `esw-dev<dev>` thread around `worker`, returning its
/// command sender and join handle.
// Audited fence: the per-worker command channel is raw mpsc by design
// (single-producer FIFO), hence the workspace-ban allow.
#[allow(clippy::disallowed_methods)]
fn launch(
    key: usize,
    dev: u32,
    worker: Box<EasyScaleWorker>,
    out: Publishers,
) -> (Sender<Cmd>, JoinHandle<()>) {
    let (cmd_tx, cmd_rx) = channel();
    let handle = std::thread::Builder::new()
        .name(format!("esw-dev{dev}"))
        .spawn(move || worker_main(key as u64, worker, cmd_rx, out))
        .expect("failed to spawn worker thread");
    (cmd_tx, handle)
}

impl WorkerPool {
    /// Spawn one named persistent thread per worker, moving each worker onto
    /// its thread. `device_ids` (slot order) name the threads `esw-dev{id}`;
    /// missing entries fall back to the slot index. `drain` bounds how long
    /// the supervised drains wait for a silent worker.
    pub fn spawn(workers: Vec<EasyScaleWorker>, device_ids: &[u32], drain: RetryPolicy) -> Self {
        let n = workers.len();
        assert!(n > 0, "pool needs at least one worker");
        let recovery: Vec<WorkerSnapshot> = workers.iter().map(WorkerSnapshot::capture).collect();
        let mut steps = Exchange::new();
        let mut replies = Exchange::new();
        let mut cmds = Vec::with_capacity(n);
        let mut threads = Vec::with_capacity(n);
        let mut devices = Vec::with_capacity(n);
        for (i, worker) in workers.into_iter().enumerate() {
            let dev = device_ids.get(i).copied().unwrap_or(i as u32);
            let out = Publishers { steps: steps.handle(), replies: replies.handle() };
            let (cmd_tx, handle) = launch(i, dev, Box::new(worker), out);
            threads.push(Some(handle));
            cmds.push(cmd_tx);
            devices.push(dev);
        }
        // Seal: ordinary handle minting is closed. The supervisor mints
        // replacement handles through the post-seal recovery door when it
        // respawns a faulted worker.
        steps.seal();
        replies.seal();
        obs::counter_add("engine.pool.spawns_total", n as u64);
        WorkerPool {
            cmds,
            steps,
            replies,
            threads,
            quarantined: Vec::new(),
            devices,
            recovery,
            drain,
            seq: 0,
            steps_served: 0,
        }
    }

    /// Number of pooled workers.
    pub fn len(&self) -> usize {
        self.cmds.len()
    }

    /// Whether the pool is empty (never true; spawn requires ≥ 1 worker).
    pub fn is_empty(&self) -> bool {
        self.cmds.is_empty()
    }

    /// Pool self-counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats { workers: self.cmds.len(), steps_served: self.steps_served }
    }

    /// Arm a [`ThreadFault`] on worker `worker % len` (faultsim chaos); the
    /// worker consumes it at its next `Step`. Returns the armed slot index.
    pub fn arm_fault(&self, worker: usize, fault: ThreadFault) -> usize {
        let i = worker % self.len();
        // A slot whose thread already died can't receive the arm; its next
        // supervised drain will reap it regardless.
        let _ = self.cmds[i].send(Cmd::Arm(fault));
        i
    }

    /// The one supervised round every request/response interaction runs:
    /// send `cmd(seq)` to each of `slots`, drain `exchange` under the
    /// deadline until every slot holds a message that passes the
    /// `seq`+`ThreadId` fence, and return the bodies in slot order. A slot
    /// that cannot take its command, or has nothing in flight when a window
    /// expires and either its thread has exited or the policy's windows are
    /// spent, is reaped, replaced via `respawn`, and re-commanded
    /// with the *same* round — so the bodies are bitwise identical to a
    /// fault-free round. Every recovery is reported in the second tuple
    /// element (empty when clean).
    fn round<T>(
        &mut self,
        exchange: fn(&mut WorkerPool) -> &mut Exchange<Fenced<T>>,
        slots: std::ops::Range<usize>,
        cmd: &dyn Fn(u64) -> Cmd,
        respawn: &mut RespawnFn<'_>,
    ) -> (Vec<T>, Vec<PoolError>) {
        self.seq += 1;
        let seq = self.seq;
        let policy = self.drain;
        let mut errors: Vec<PoolError> = Vec::new();
        for i in slots.clone() {
            if self.cmds[i].send(cmd(seq)).is_err() {
                // Dead before the round even started: recover eagerly so the
                // drain below only waits on workers that might answer.
                errors.push(self.recover(i, cmd(seq), respawn));
            }
        }
        let mut got: BTreeMap<u64, T> = BTreeMap::new();
        // Empty windows since the last recovery: the next wait is window k+1.
        let mut k = 0u32;
        // A pass is one empty window or one drain that returned messages.
        // At most `max_attempts` empty windows pass between recoveries (`k`
        // restarts only at one, and at `max_attempts` every missing slot is
        // reaped), so this allows 8·(n+1) recoveries and drains.
        let bound = (8 * slots.len() + 8) * policy.max_attempts as usize;
        let mut passes = 0usize;
        while got.len() < slots.len() {
            passes += 1;
            assert!(passes <= bound, "supervised drain did not converge");
            let need = slots.len() - got.len();
            let wait = policy.backoff_us(k + 1);
            let window = RetryPolicy { max_attempts: 1, base_backoff_us: wait, ..policy };
            let drained = {
                let _drain_span = obs::span("engine.drain_wait");
                exchange(self).drain_deadline(need, &window)
            };
            match drained {
                Ok(batch) => {
                    for (key, msg) in batch {
                        // Stale fence: publishes from reaped threads or
                        // earlier rounds are discarded, never consumed.
                        let current = self.threads[key as usize].as_ref().map(|h| h.thread().id());
                        if msg.seq == seq && Some(msg.thread) == current {
                            got.insert(key, msg.body);
                        }
                    }
                }
                Err(err) => {
                    // Keys the drain did receive sit buffered in the
                    // exchange; only workers with nothing in flight at all
                    // are faulted (a buffered stale message can mask one for
                    // a drain). An exited thread can never answer: reap it
                    // now. A live one is reaped once the budget is spent.
                    k += 1;
                    let before = errors.len();
                    for i in slots.clone() {
                        let key = i as u64;
                        let exited = self.threads[i].as_ref().is_some_and(JoinHandle::is_finished);
                        let silent = !got.contains_key(&key) && !err.received().contains(&key);
                        if silent && (exited || k >= policy.max_attempts) {
                            errors.push(self.recover(i, cmd(seq), respawn));
                        }
                    }
                    if errors.len() > before {
                        obs::counter_add("engine.drain_timeout", 1);
                        k = 0;
                    }
                }
            }
        }
        (got.into_values().collect(), errors)
    }

    /// One concurrent local-step round, supervised (see the module docs):
    /// the returned steps are in worker order (callers still sort by vrank)
    /// and bitwise identical whether or not a worker faulted. Local steps
    /// use neither `_epoch` nor `_lr`: the two parameters are kept only
    /// because `benchmark/` passes them (ROADMAP item 7 deletes them).
    pub fn run_steps_supervised(
        &mut self,
        _epoch: u64,
        _lr: f32,
        respawn: &mut RespawnFn<'_>,
    ) -> (Vec<LocalStep>, Vec<PoolError>) {
        let n = self.len();
        let (batches, errors) =
            self.round(|p| &mut p.steps, 0..n, &|seq| Cmd::Step { seq }, respawn);
        self.steps_served += 1;
        let mut out = Vec::new();
        for (slot, batch) in batches.into_iter().enumerate() {
            self.recovery[slot] = batch.recovery;
            out.extend(batch.steps);
        }
        (out, errors)
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

    /// Broadcast the optimizer delta. Fire-and-forget: per-worker FIFO
    /// ordering guarantees it is applied before any later command. A dead
    /// worker misses the send harmlessly — its replacement is reseeded from
    /// the engine's post-apply mirror at the next supervised round.
    pub fn apply(&self, delta: &Arc<Vec<f32>>) {
        for tx in &self.cmds {
            let _ = tx.send(Cmd::Apply(Arc::clone(delta)));
        }
    }

    /// Snapshot every worker's checkpoint-relevant state, in worker order,
    /// supervised: a worker that cannot answer is reaped, replaced, and
    /// re-asked — and because replacements are rebuilt from exactly the
    /// state a snapshot reports, the recovered snapshot is bitwise identical
    /// to what the faulty worker owed.
    pub fn snapshots_supervised(
        &mut self,
        respawn: &mut RespawnFn<'_>,
    ) -> (Vec<WorkerSnapshot>, Vec<PoolError>) {
        let n = self.len();
        let (replies, errors) =
            self.round(|p| &mut p.replies, 0..n, &|seq| Cmd::Snapshot { seq }, respawn);
        let snaps = replies
            .into_iter()
            .map(|r| match r {
                Reply::Snapshot(s) => *s,
                Reply::Worker(_) => unreachable!("snapshot round returned a lent worker"),
            })
            .collect();
        (snaps, errors)
    }

    /// Borrow worker `index` onto the calling thread (for evaluation, which
    /// takes non-`'static` datasets). Must be paired with
    /// [`WorkerPool::restore`]. Supervised like every other round: a slot
    /// whose thread died (say, inside a fire-and-forget `Apply`) lends its
    /// replacement instead of panicking the engine. Once lent, the worker
    /// lives on the engine thread where it cannot fault independently.
    pub fn lend(
        &mut self,
        index: usize,
        respawn: &mut RespawnFn<'_>,
    ) -> (Box<EasyScaleWorker>, Vec<PoolError>) {
        let (mut replies, errors) =
            self.round(|p| &mut p.replies, index..index + 1, &|seq| Cmd::Lend { seq }, respawn);
        match replies.pop().expect("one reply") {
            Reply::Worker(w) => (w, errors),
            Reply::Snapshot(_) => unreachable!("lend round returned a snapshot"),
        }
    }

    /// Return a worker borrowed with [`WorkerPool::lend`].
    pub fn restore(&self, index: usize, worker: Box<EasyScaleWorker>) {
        self.cmds[index].send(Cmd::Restore(worker)).expect("worker thread died");
    }

    /// Reap faulty worker slot `i`, install the replacement `respawn` builds
    /// from the slot's recovery seed on a fresh thread, and hand it `replay`
    /// (the interrupted command). Classifies the fault first: a finished
    /// thread is joined and its panic payload harvested; an unresponsive one
    /// is unparked and quarantined — joining it could hang forever.
    fn recover(&mut self, i: usize, replay: Cmd, respawn: &mut RespawnFn<'_>) -> PoolError {
        let device = self.devices[i];
        let handle = self.threads[i].take().expect("slot already under recovery");
        obs::counter_add("engine.pool.quarantines_total", 1);
        let err = if handle.is_finished() {
            let panic_msg = match handle.join() {
                Ok(()) => None,
                Err(payload) => Some(payload_to_string(payload.as_ref())),
            };
            PoolError::WorkerDead { worker: i, device, panic_msg }
        } else {
            // Alive but silent. Unpark in case it is stall-parked (lets it
            // exit), quarantine the handle, and move on — the old command
            // sender is dropped below, so a merely-slow thread also exits
            // once it next polls its channel.
            handle.thread().unpark();
            self.quarantined.push(handle);
            PoolError::DrainTimeout { worker: i, device }
        };
        let replacement = respawn(&err, &self.recovery[i]);
        // Replacement publish handles on the sealed exchanges, a fresh
        // command channel (dropping the old sender tells a quarantined
        // thread to exit), a new thread under the slot's stable device id.
        let out = Publishers {
            steps: self.steps.replacement_handle(),
            replies: self.replies.replacement_handle(),
        };
        let (cmd_tx, handle) = launch(i, device, replacement, out);
        self.threads[i] = Some(handle);
        self.cmds[i] = cmd_tx;
        obs::counter_add("engine.pool.respawns_total", 1);
        self.cmds[i].send(replay).expect("respawned worker died");
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
    fn drop(&mut self) {
        let name_of = |h: &JoinHandle<()>| h.thread().name().unwrap_or("esw-?").to_owned();
        for tx in &self.cmds {
            // A worker that already died can't receive Exit; join below
            // still reaps it.
            let _ = tx.send(Cmd::Exit);
        }
        // Reap every live thread, collecting ALL panic payloads before
        // deciding to panic: a second faulty worker must not hide behind the
        // first (double-fault shutdown reports every dying esw-dev<id>).
        let mut failures: Vec<String> = Vec::new();
        for handle in self.threads.drain(..).flatten() {
            let name = name_of(&handle);
            if let Err(payload) = handle.join() {
                let msg = payload_to_string(payload.as_ref());
                eprintln!("WorkerPool: worker thread {name} panicked during shutdown: {msg}");
                failures.push(format!("{name}: {msg}"));
            }
        }
        // Quarantined threads are already written off: their command senders
        // are long dropped (they exit on their next channel poll) and any
        // stall-park was unparked at quarantine, so these joins terminate.
        // Report their payloads but never re-panic over them.
        for handle in self.quarantined.drain(..) {
            let name = name_of(&handle);
            handle.thread().unpark();
            if let Err(payload) = handle.join() {
                eprintln!(
                    "WorkerPool: quarantined thread {name} panicked: {}",
                    payload_to_string(payload.as_ref())
                );
            }
        }
        if !failures.is_empty() && !std::thread::panicking() {
            panic!(
                "{} worker thread(s) panicked during shutdown: [{}]",
                failures.len(),
                failures.join("; ")
            );
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
    // detlint::allow(blocking-cycle): injected stall; the supervisor's deadline drain bounds the engine-side wait and quarantine unparks this thread
    std::thread::park();
}

/// The persistent worker thread body: block on the command channel, execute,
/// publish. Runs until `Exit` (or until the engine is dropped mid-teardown).
/// Declared as a detlint taint barrier: the blocking receive is the one
/// place scheduling-dependent arrival *timing* exists, and nothing here
/// forwards arrival order — results are published under the worker's fixed
/// key and consumed through canonical-order drains on the engine side.
/// The conformance pass cannot see that from this body alone (the sort
/// lives in the engine-side drains), hence the audited demotion below.
// detlint::allow(barrier-unverified): FIFO single-producer command loop; results leave under fixed keys via canonical engine-side drains
fn worker_main(key: u64, worker: Box<EasyScaleWorker>, cmds: Receiver<Cmd>, out: Publishers) {
    // `None` while the worker is lent to the engine thread for evaluation.
    let mut slot: Option<Box<EasyScaleWorker>> = Some(worker);
    // Injected fault waiting for the next Step (faultsim chaos).
    let mut armed: Option<ThreadFault> = None;
    loop {
        // Single-producer FIFO command channel — receive order is the
        // engine's program order, not a thread race.
        // detlint::allow(no-thread-order): single-producer FIFO channel
        let cmd = match cmds.recv() {
            Ok(cmd) => cmd,
            // Engine dropped without Exit (poisoned teardown), or this
            // thread was quarantined and its channel replaced: just leave.
            Err(_) => return,
        };
        match cmd {
            Cmd::Step { seq } => {
                match armed.take() {
                    Some(ThreadFault::Panic) => {
                        panic!("injected ThreadPanic fault (faultsim chaos)")
                    }
                    Some(ThreadFault::Stall) => {
                        stall_forever();
                        return;
                    }
                    Some(ThreadFault::ReplyDrop) => {
                        // Run the step but drop the publish: the thread
                        // stays alive and keeps serving, its result gone.
                        let w = slot.as_mut().expect("step commanded while worker is lent out");
                        let _ = w.run_local_steps();
                        continue;
                    }
                    None => {}
                }
                let w = slot.as_mut().expect("step commanded while worker is lent out");
                let step_span = obs::span("engine.pool.worker_step");
                let local = w.run_local_steps();
                drop(step_span);
                let recovery = WorkerSnapshot::capture(w);
                let batch = StepBatch { steps: local, recovery };
                out.steps.publish(key, Fenced::new(seq, batch));
            }
            Cmd::Apply(delta) => {
                slot.as_mut()
                    .expect("apply commanded while worker is lent out")
                    .apply_update(&delta);
            }
            Cmd::Snapshot { seq } => {
                let w = slot.as_ref().expect("snapshot commanded while worker is lent out");
                let snap = Box::new(WorkerSnapshot::capture(w));
                out.replies.publish(key, Fenced::new(seq, Reply::Snapshot(snap)));
            }
            Cmd::Lend { seq } => {
                let w = slot.take().expect("worker lent twice");
                out.replies.publish(key, Fenced::new(seq, Reply::Worker(w)));
            }
            Cmd::Restore(w) => {
                assert!(slot.is_none(), "restore without a lend");
                slot = Some(w);
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

        fn snapshot_round(&mut self) -> (Vec<WorkerSnapshot>, Vec<PoolError>) {
            let mut respawn = respawner(&self.cfg, &self.placement, &self.mirror, &mut self.log);
            self.pool.snapshots_supervised(&mut respawn)
        }

        fn lend_round(&mut self, index: usize) -> (Box<EasyScaleWorker>, Vec<PoolError>) {
            let mut respawn = respawner(&self.cfg, &self.placement, &self.mirror, &mut self.log);
            self.pool.lend(index, &mut respawn)
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
        let (_, _, mut seq) = make_workers(4, 2);
        for _ in 0..3 {
            assert_steps_bitwise_eq(&rig.clean_steps(), &sequential_steps(&mut seq), "clean");
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
    fn lend_and_restore_round_trip() {
        let mut rig = Rig::new(2, 2, &[], ExecOptions::default().drain);
        let (w, errors) = rig.lend_round(1);
        assert!(errors.is_empty());
        assert!(!w.flat_params().is_empty());
        rig.pool.restore(1, w);
        // The restored worker still steps: the next round must include its
        // ESTs.
        assert_eq!(rig.clean_steps().len(), 2);
        let (snaps, errors) = rig.snapshot_round();
        assert!(errors.is_empty());
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[1].contexts.len(), 1);
    }

    #[test]
    fn apply_lands_before_later_commands() {
        let mut rig = Rig::new(2, 1, &[], ExecOptions::default().drain);
        let (w, errors) = rig.lend_round(0);
        assert!(errors.is_empty());
        let before = w.flat_params();
        rig.pool.restore(0, w);
        let delta = Arc::new(vec![0.5f32; before.len()]);
        rig.pool.apply(&delta);
        // FIFO command ordering: the lend behind the apply must observe it.
        let (after, errors) = rig.lend_round(0);
        assert!(errors.is_empty());
        assert!(after.flat_params().iter().zip(&before).all(|(a, b)| (a - b - 0.5).abs() < 1e-6));
        rig.pool.restore(0, after);
    }

    /// A worker that died inside fire-and-forget `Apply` is replaced by the
    /// lend that finds it, instead of panicking the engine thread.
    #[test]
    fn lend_recovers_a_worker_killed_by_apply() {
        let mut rig = Rig::new(2, 1, &[], fast_drain());
        // An empty delta slices out of bounds in `apply_flat_delta`: the
        // worker thread dies with nobody waiting on it.
        rig.pool.apply(&Arc::new(Vec::new()));
        let (w, errors) = rig.lend_round(0);
        assert_eq!(errors.len(), 1, "exactly one recovery: {errors:?}");
        assert!(matches!(errors[0], PoolError::WorkerDead { worker: 0, .. }), "{:?}", errors[0]);
        assert_eq!(rig.log, errors);
        let params = w.flat_params();
        assert_eq!(params.len(), rig.mirror.len());
        assert!(params.iter().zip(&rig.mirror).all(|(a, b)| a.to_bits() == b.to_bits()));
        rig.pool.restore(0, w);
        // The replacement is in service.
        assert_eq!(rig.clean_steps().len(), 2);
    }

    /// Workers that die inside fire-and-forget `Apply` are found by the next
    /// `Step`, and their replacements are seeded from a mirror that already
    /// holds the delta the dead workers never applied (docs/HEALTH.md, the
    /// `Apply` then `Step` row).
    #[test]
    fn step_after_a_fatal_apply_respawns_from_the_post_apply_mirror() {
        let mut rig = Rig::new(4, 2, &[], fast_drain());
        let (_, _, mut seq) = make_workers(4, 2);
        assert_steps_bitwise_eq(&rig.clean_steps(), &sequential_steps(&mut seq), "before");

        // The engine's order: update the mirror, then broadcast.
        let delta: Vec<f32> = (0..rig.mirror.len()).map(|i| (i % 7) as f32 * 1e-3 - 3e-3).collect();
        for (p, d) in rig.mirror.iter_mut().zip(&delta) {
            *p += d;
        }
        for w in &mut seq {
            w.apply_update(&delta);
        }
        // What reaches the pool is an empty delta: both workers die slicing
        // it, having applied nothing, with nobody waiting on them.
        rig.pool.apply(&Arc::new(Vec::new()));

        let (mut steps, errors) = rig.step_round();
        assert_eq!(errors.len(), 2, "one recovery per worker: {errors:?}");
        assert!(errors.iter().all(|e| matches!(e, PoolError::WorkerDead { .. })), "{errors:?}");
        assert_eq!(rig.log, errors);
        steps.sort_by_key(|l| l.vrank);
        assert_steps_bitwise_eq(&steps, &sequential_steps(&mut seq), "respawned");
        assert_steps_bitwise_eq(&rig.clean_steps(), &sequential_steps(&mut seq), "after");
    }

    /// Every injected [`ThreadFault`] is detected, the worker is replaced,
    /// and the recovered round is bitwise identical to a fault-free one. A
    /// dead thread is reaped when a drain window expires, well inside the
    /// budget; a live silent one is waited for through the whole budget.
    #[test]
    fn supervised_steps_recover_every_fault_kind_bitwise() {
        let budget = std::time::Duration::from_micros(fast_drain().total_backoff_us());
        for (fault, want_kind) in [
            (ThreadFault::Panic, "worker-dead"),
            (ThreadFault::Stall, "drain-timeout"),
            (ThreadFault::ReplyDrop, "drain-timeout"),
        ] {
            let mut rig = Rig::new(4, 2, &[], fast_drain());
            let (_, _, mut seq) = make_workers(4, 2);
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
            assert_steps_bitwise_eq(&steps, &sequential_steps(&mut seq), &format!("{fault:?}"));
            let next = rig.clean_steps();
            assert_steps_bitwise_eq(&next, &sequential_steps(&mut seq), &format!("{fault:?}"));
        }
    }

    /// A dead and a stalled worker in one round: the dead one is reaped at
    /// an early window, the live one only once the budget is spent.
    #[test]
    fn a_dead_and_a_stalled_worker_are_reaped_in_turn() {
        let mut rig = Rig::new(4, 2, &[], fast_drain());
        let (_, _, mut seq) = make_workers(4, 2);
        rig.pool.arm_fault(0, ThreadFault::Panic);
        rig.pool.arm_fault(1, ThreadFault::Stall);
        let (mut steps, errors) = rig.step_round();
        let got: Vec<(usize, &str)> = errors.iter().map(|e| (e.worker(), e.kind())).collect();
        assert_eq!(got, [(0, "worker-dead"), (1, "drain-timeout")], "{errors:?}");
        steps.sort_by_key(|l| l.vrank);
        assert_steps_bitwise_eq(&steps, &sequential_steps(&mut seq), "panic + stall");
    }

    /// docs/HEALTH.md row 17: a fault armed while the worker is lent out
    /// fires at the first step after its restore and is recovered bitwise.
    #[test]
    fn a_fault_armed_while_lent_out_is_recovered_after_the_restore() {
        let mut rig = Rig::new(4, 2, &[], fast_drain());
        let (_, _, mut seq) = make_workers(4, 2);
        let (w, errors) = rig.lend_round(0);
        assert!(errors.is_empty());
        rig.pool.arm_fault(0, ThreadFault::Panic);
        rig.pool.restore(0, w);
        let (mut steps, errors) = rig.step_round();
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(matches!(errors[0], PoolError::WorkerDead { worker: 0, .. }), "{:?}", errors[0]);
        steps.sort_by_key(|l| l.vrank);
        assert_steps_bitwise_eq(&steps, &sequential_steps(&mut seq), "lent");
    }

    /// Supervised snapshots replace a stalled worker and return the exact
    /// state it owed.
    #[test]
    fn supervised_snapshots_recover_a_stalled_worker() {
        let mut rig = Rig::new(2, 2, &[], fast_drain());

        // Reference snapshots from a clean round.
        let (clean, clean_errors) = rig.snapshot_round();
        assert!(clean_errors.is_empty());

        // Stall worker 0 (consumed at the next Step), then snapshot through
        // the supervisor: the Step round recovers it, snapshots are clean.
        rig.pool.arm_fault(0, ThreadFault::Stall);
        let (_, step_errors) = rig.step_round();
        assert_eq!(step_errors.len(), 1);
        let (snaps, snap_errors) = rig.snapshot_round();
        assert!(snap_errors.is_empty());
        assert_eq!(snaps.len(), clean.len());
        for (s, c) in snaps.iter().zip(&clean) {
            assert_eq!(s.contexts.len(), c.contexts.len());
        }
    }
}
