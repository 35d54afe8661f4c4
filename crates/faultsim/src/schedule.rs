//! Fault schedules: what goes wrong, and when.
//!
//! A [`FaultSchedule`] is a step-indexed list of [`FaultEvent`]s, either
//! generated from a seed (one `esrng` Philox stream per schedule, so seed →
//! schedule is a pure function) or loaded from JSON (for replaying a
//! schedule from a CI artifact; [`FaultSchedule::from_json`] is the one
//! loading path and hands out only sorted, validated schedules). Events
//! fire at global-step boundaries —
//! the only points where EasyScale's elasticity machinery acts — and each
//! event fires exactly once even when a crash rewinds the step counter.

use esrng::{EsRng, StreamKey, StreamKind};
use serde::{Deserialize, Serialize};

/// One kind of injected fault.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The training process dies; work since the last durable checkpoint is
    /// lost and replayed after recovery.
    WorkerCrash,
    /// One physical worker runs dilated (simulated-time slowdown; bits are
    /// unaffected, the timeline is).
    Straggler {
        /// Index of the slowed physical worker (modulo the live count).
        worker: u32,
        /// Dilation in milli-units (3000 = 3× slower).
        factor_milli: u64,
        /// Global steps the slowdown lasts.
        steps: u32,
    },
    /// The cluster revokes GPUs with no negotiation (spot reclaim). The
    /// scheduler degrades the allocation and the job rescales in place.
    Preemption {
        /// GPUs revoked.
        gpus: u32,
    },
    /// The job wins a scale-out grant (if free GPUs and headroom exist).
    ScaleOut {
        /// How many proposals the job may submit (the intra-job scheduler's
        /// `top_k`) — *not* a GPU count: the grant is whichever proposal
        /// wins, so `gpus: 1` on 2 of 4 GPUs is granted `2 → 4`.
        gpus: u32,
    },
    /// The job releases GPUs back to the pool.
    ScaleIn {
        /// GPUs released (never below one survivor).
        gpus: u32,
    },
    /// Transient all-reduce failures. Fewer than the retry budget: retried
    /// and bitwise-invisible. At least the budget: the step fails and the
    /// job takes the crash-recovery path.
    CommFailure {
        /// Consecutive failing attempts injected.
        failures: u32,
    },
    /// A checkpoint write is interrupted partway, leaving a torn file as
    /// the newest checkpoint; the process then dies. Recovery must detect
    /// the tear (checksum) and fall back to the last good checkpoint.
    TornCheckpoint {
        /// Fraction of bytes that landed, in milli-units (0..=999).
        keep_frac_milli: u32,
    },
    /// The newest durable checkpoint suffers at-rest bit damage; the
    /// process then dies. Same detection + fallback path as a torn write.
    BitFlippedCheckpoint {
        /// Which bit of the file to flip (modulo file size).
        bit_index: u64,
    },
    /// **Silent** crash: one device dies *without any notification to the
    /// harness*. The job cannot make progress (the all-reduce hangs on the
    /// dead member) until the AIMaster's failure detector notices the lost
    /// heartbeat lease, quarantines the device, and recovers from the
    /// last-good checkpoint on the survivors.
    SilentCrash {
        /// Index of the dying device (modulo the live count).
        worker: u32,
    },
    /// **Silent** creeping straggler: one device degrades progressively —
    /// its dilation starts at `start_milli` and grows by `ramp_milli`
    /// every step, forever, until the detector's straggler score
    /// quarantines it. Nothing announces the slowdown; it must be scored
    /// out of the heartbeat timings.
    CreepingStraggler {
        /// Index of the degrading device (modulo the live count).
        worker: u32,
        /// Initial dilation in milli-units (1200 = 1.2× slower).
        start_milli: u64,
        /// Dilation added per completed step (the "creep").
        ramp_milli: u64,
    },
    /// **Silent** heartbeat drop: the device keeps training, but its next
    /// `beats` heartbeats are lost in transit. A long enough drop is
    /// indistinguishable from a crash to the detector — which is the
    /// point: the detector may quarantine (and even roll back) a healthy
    /// device, and the run must *still* be byte-identical.
    HeartbeatDrop {
        /// Index of the muted device (modulo the live count).
        worker: u32,
        /// Consecutive heartbeats swallowed.
        beats: u32,
    },
    /// A **real** pool-thread fault: the worker's OS thread panics at its
    /// next step command. The supervised drain must reap it (harvesting the
    /// panic payload), respawn a replacement from the engine's param
    /// mirror, and replay the interrupted round — bitwise-invisibly.
    ThreadPanic {
        /// Index of the faulted pool worker (modulo the live count).
        worker: u32,
    },
    /// A **real** pool-thread fault: the worker's OS thread parks forever
    /// at its next step command (a wedged thread, not a dead one). Only the
    /// drain deadline can tell; the thread is quarantined, not joined.
    ThreadStall {
        /// Index of the faulted pool worker (modulo the live count).
        worker: u32,
    },
    /// A **real** pool-thread fault: the worker computes its next step but
    /// drops the reply publish — then keeps running. The byzantine-lite
    /// case: alive, responsive later, yet the round cannot complete without
    /// the supervisor replacing it.
    ReplyDrop {
        /// Index of the faulted pool worker (modulo the live count).
        worker: u32,
    },
}

impl FaultKind {
    /// Stable short name (metric labels, reports).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::WorkerCrash => "crash",
            FaultKind::Straggler { .. } => "straggler",
            FaultKind::Preemption { .. } => "preemption",
            FaultKind::ScaleOut { .. } => "scale_out",
            FaultKind::ScaleIn { .. } => "scale_in",
            FaultKind::CommFailure { .. } => "comm_failure",
            FaultKind::TornCheckpoint { .. } => "torn_checkpoint",
            FaultKind::BitFlippedCheckpoint { .. } => "bitflip_checkpoint",
            FaultKind::SilentCrash { .. } => "silent_crash",
            FaultKind::CreepingStraggler { .. } => "creeping_straggler",
            FaultKind::HeartbeatDrop { .. } => "heartbeat_drop",
            FaultKind::ThreadPanic { .. } => "thread_panic",
            FaultKind::ThreadStall { .. } => "thread_stall",
            FaultKind::ReplyDrop { .. } => "reply_drop",
        }
    }

    /// Whether this fault is *silent*: nothing tells the harness it
    /// happened — the AIMaster's detector must discover it from heartbeats
    /// alone.
    pub fn is_silent(&self) -> bool {
        matches!(
            self,
            FaultKind::SilentCrash { .. }
                | FaultKind::CreepingStraggler { .. }
                | FaultKind::HeartbeatDrop { .. }
        )
    }

    /// Whether this fault targets a real pool worker *thread* (detected by
    /// the supervised drain deadline, not by heartbeats).
    pub fn is_thread_fault(&self) -> bool {
        matches!(
            self,
            FaultKind::ThreadPanic { .. }
                | FaultKind::ThreadStall { .. }
                | FaultKind::ReplyDrop { .. }
        )
    }

    /// Structural validity of the event's fields, beyond what serde can
    /// check: `Err` carries a human-readable description of the first
    /// out-of-range field.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            FaultKind::Straggler { factor_milli: 0, .. } => {
                Err("straggler factor_milli must be >= 1".into())
            }
            FaultKind::Straggler { steps: 0, .. } => Err("straggler steps must be >= 1".into()),
            FaultKind::Preemption { gpus: 0 }
            | FaultKind::ScaleOut { gpus: 0 }
            | FaultKind::ScaleIn { gpus: 0 } => Err(format!("{} gpus must be >= 1", self.name())),
            FaultKind::CommFailure { failures: 0 } => {
                Err("comm_failure failures must be >= 1".into())
            }
            FaultKind::TornCheckpoint { keep_frac_milli } if keep_frac_milli > 999 => Err(format!(
                "torn_checkpoint keep_frac_milli must be 0..=999, got {keep_frac_milli}"
            )),
            FaultKind::CreepingStraggler { start_milli: 0, .. } => {
                Err("creeping_straggler start_milli must be >= 1".into())
            }
            _ => Ok(()),
        }
    }
}

/// One fault at one global-step boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Global step the fault fires before (first time the step is reached).
    pub step: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// Why [`FaultSchedule::from_json`] rejected an artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// Not JSON, or not the JSON of a schedule (unknown fault kind, missing
    /// or mistyped field, integer out of range); the parser's message.
    Parse(String),
    /// Well-formed, but one event carries an out-of-range value.
    Invalid {
        /// Position of the event in the sorted schedule.
        event: usize,
        /// The step it was to fire at.
        step: u64,
        /// Which field, and the range it must lie in.
        msg: String,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::Parse(e) => write!(f, "cannot parse: {e}"),
            ScheduleError::Invalid { event, step, msg } => {
                write!(f, "event {event} (step {step}): {msg}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A complete, replayable fault schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Seed the schedule was generated from (0 for hand-authored ones).
    pub seed: u64,
    /// Events, sorted by step (stable order within a step).
    pub events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule — the fault-free reference run.
    pub fn fault_free() -> Self {
        FaultSchedule { seed: 0, events: Vec::new() }
    }

    /// A hand-authored schedule.
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.step);
        FaultSchedule { seed: 0, events }
    }

    /// The draw loop behind all three generators: `n_events` events from
    /// the Philox stream of `seed ^ salt` (the salt decorrelates the
    /// generators, so adding one cannot perturb another's seeded
    /// schedules), each a step in `1..=last_step` followed by whatever
    /// `kind` draws, then sorted by step.
    fn draw(
        seed: u64,
        salt: u64,
        last_step: u64,
        n_events: usize,
        mut kind: impl FnMut(&mut EsRng) -> FaultKind,
    ) -> Self {
        let mut rng = EsRng::for_stream(seed ^ salt, StreamKey::global(StreamKind::User));
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let step = 1 + rng.next_below(last_step as u32) as u64;
            events.push(FaultEvent { step, kind: kind(&mut rng) });
        }
        events.sort_by_key(|e| e.step);
        FaultSchedule { seed, events }
    }

    /// Generate `n_events` faults over `total_steps` steps from a seed.
    /// Pure function of its arguments: the generator draws from one
    /// dedicated Philox stream, so the same seed always yields the same
    /// schedule — the property that makes a chaos-matrix failure
    /// reproducible from its seed alone.
    pub fn generate(seed: u64, total_steps: u64, n_events: usize) -> Self {
        assert!(total_steps >= 2, "need at least two steps to schedule faults");
        // Fire between step 1 and the last step so every schedule has a
        // fault-free first step (a checkpointable prefix) — mirrors real
        // clusters, where jobs at least start.
        Self::draw(seed, 0, total_steps - 1, n_events, |rng| match rng.next_below(8) {
            0 => FaultKind::WorkerCrash,
            1 => FaultKind::Straggler {
                worker: rng.next_below(8),
                factor_milli: 1500 + rng.next_below(4500) as u64,
                steps: 1 + rng.next_below(3),
            },
            2 => FaultKind::Preemption { gpus: 1 + rng.next_below(3) },
            3 => FaultKind::ScaleOut { gpus: 1 + rng.next_below(3) },
            4 => FaultKind::ScaleIn { gpus: 1 + rng.next_below(2) },
            // Mostly transient (1..=3 < default budget 4), sometimes
            // fatal (4..=5) to exercise the crash path through comm.
            5 => FaultKind::CommFailure { failures: 1 + rng.next_below(5) },
            6 => FaultKind::TornCheckpoint { keep_frac_milli: 100 + rng.next_below(800) },
            _ => FaultKind::BitFlippedCheckpoint { bit_index: rng.next_u64() % 100_000 },
        })
    }

    /// Generate `n_events` *silent* faults over `total_steps` steps from a
    /// seed — the detection matrix's schedule source. Same purity contract
    /// as [`FaultSchedule::generate`].
    ///
    /// Constraints that keep every drawn fault *detectable within its
    /// latency bound*:
    ///
    /// * events land in the first half of the run, so straggler scoring
    ///   has enough timed rounds left to converge;
    /// * heartbeat drops are long (12–16 beats ≥ several lease periods at
    ///   the fastest possible round), so the lease detector is guaranteed
    ///   to notice;
    /// * at most one creeping straggler per schedule — two concurrent
    ///   creepers would contaminate each other's scoring population
    ///   (extra draws degrade to heartbeat drops).
    pub fn generate_silent(seed: u64, total_steps: u64, n_events: usize) -> Self {
        assert!(total_steps >= 4, "need room for a detectable silent fault");
        let mut creeper_drawn = false;
        Self::draw(seed, 0x5117_E47F, total_steps / 2, n_events, |rng| {
            let worker = rng.next_below(8);
            match rng.next_below(3) {
                0 => FaultKind::SilentCrash { worker },
                1 if !creeper_drawn => {
                    creeper_drawn = true;
                    FaultKind::CreepingStraggler {
                        worker,
                        start_milli: 1100 + rng.next_below(600) as u64,
                        ramp_milli: 300 + rng.next_below(400) as u64,
                    }
                }
                _ => FaultKind::HeartbeatDrop { worker, beats: 12 + rng.next_below(5) },
            }
        })
    }

    /// Generate `n_events` *thread* faults over `total_steps` steps from a
    /// seed — the thread-fault chaos matrix's schedule source. Same purity
    /// contract as [`FaultSchedule::generate`]. Faults land from step 1 to
    /// the second-to-last step, so every armed fault is consumed by a real
    /// step round before the run ends.
    pub fn generate_thread_faults(seed: u64, total_steps: u64, n_events: usize) -> Self {
        assert!(total_steps >= 3, "need room for a consumed thread fault");
        Self::draw(seed, 0x7412_FA11, total_steps - 2, n_events, |rng| {
            let worker = rng.next_below(8);
            match rng.next_below(3) {
                0 => FaultKind::ThreadPanic { worker },
                1 => FaultKind::ThreadStall { worker },
                _ => FaultKind::ReplyDrop { worker },
            }
        })
    }

    /// Validate every event in the schedule; `Err` names the first invalid
    /// event by position.
    pub fn validate(&self) -> Result<(), ScheduleError> {
        for (event, ev) in self.events.iter().enumerate() {
            ev.kind.validate().map_err(|msg| ScheduleError::Invalid {
                event,
                step: ev.step,
                msg,
            })?;
        }
        Ok(())
    }

    /// Serialize to pretty JSON (the CI artifact format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("schedule serializes")
    }

    /// Load a schedule from JSON — the one path outside input takes in:
    /// parse, sort by step (stable, like [`FaultSchedule::from_events`]: the
    /// harness fires events in list order, so a hand-edited artifact that
    /// lists step 8 before step 2 must not run the step-2 fault at step 8),
    /// then [`FaultSchedule::validate`]. A malformed artifact is an error
    /// to print, never a panic.
    pub fn from_json(s: &str) -> Result<Self, ScheduleError> {
        let mut schedule: FaultSchedule =
            serde_json::from_str(s).map_err(|e| ScheduleError::Parse(e.to_string()))?;
        schedule.events.sort_by_key(|e| e.step);
        schedule.validate()?;
        Ok(schedule)
    }

    /// The set of distinct fault kind names in this schedule.
    pub fn kinds(&self) -> std::collections::BTreeSet<&'static str> {
        self.events.iter().map(|e| e.kind.name()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        let a = FaultSchedule::generate(42, 10, 6);
        let b = FaultSchedule::generate(42, 10, 6);
        assert_eq!(a, b);
        let c = FaultSchedule::generate(43, 10, 6);
        assert_ne!(a, c, "different seeds give different schedules");
    }

    #[test]
    fn events_are_sorted_and_in_range() {
        let s = FaultSchedule::generate(7, 12, 10);
        assert_eq!(s.events.len(), 10);
        assert!(s.events.windows(2).all(|w| w[0].step <= w[1].step));
        assert!(s.events.iter().all(|e| e.step >= 1 && e.step < 12));
    }

    /// One event of every kind, one step apart.
    fn one_of_each_kind() -> FaultSchedule {
        let kinds = [
            FaultKind::WorkerCrash,
            FaultKind::Straggler { worker: 1, factor_milli: 3000, steps: 2 },
            FaultKind::Preemption { gpus: 2 },
            FaultKind::ScaleOut { gpus: 2 },
            FaultKind::ScaleIn { gpus: 1 },
            FaultKind::CommFailure { failures: 2 },
            FaultKind::TornCheckpoint { keep_frac_milli: 500 },
            FaultKind::BitFlippedCheckpoint { bit_index: 99 },
            FaultKind::SilentCrash { worker: 1 },
            FaultKind::CreepingStraggler { worker: 0, start_milli: 1200, ramp_milli: 400 },
            FaultKind::HeartbeatDrop { worker: 1, beats: 12 },
            FaultKind::ThreadPanic { worker: 0 },
            FaultKind::ThreadStall { worker: 1 },
            FaultKind::ReplyDrop { worker: 2 },
        ];
        let events = kinds.into_iter().zip(1..).map(|(kind, step)| FaultEvent { step, kind });
        FaultSchedule::from_events(events.collect())
    }

    #[test]
    fn json_roundtrip_preserves_every_variant() {
        // (name, silent, thread fault), in `one_of_each_kind` order.
        let table = [
            ("crash", false, false),
            ("straggler", false, false),
            ("preemption", false, false),
            ("scale_out", false, false),
            ("scale_in", false, false),
            ("comm_failure", false, false),
            ("torn_checkpoint", false, false),
            ("bitflip_checkpoint", false, false),
            ("silent_crash", true, false),
            ("creeping_straggler", true, false),
            ("heartbeat_drop", true, false),
            ("thread_panic", false, true),
            ("thread_stall", false, true),
            ("reply_drop", false, true),
        ];
        let s = one_of_each_kind();
        let back = FaultSchedule::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
        assert_eq!(back.kinds().len(), table.len());
        for (ev, (name, silent, thread)) in back.events.iter().zip(table) {
            assert_eq!(ev.kind.name(), name);
            assert_eq!(ev.kind.is_silent(), silent, "{name}");
            assert_eq!(ev.kind.is_thread_fault(), thread, "{name}");
        }
    }

    /// What `from_json` owes any input at all: an error, or a schedule the
    /// harness can run as loaded.
    fn assert_err_or_valid(input: &str) -> Result<FaultSchedule, ScheduleError> {
        let loaded = FaultSchedule::from_json(input);
        if let Ok(s) = &loaded {
            s.validate().unwrap_or_else(|e| panic!("loaded an invalid schedule ({e}): {input}"));
            assert!(s.events.windows(2).all(|w| w[0].step <= w[1].step), "unsorted: {input}");
        }
        loaded
    }

    #[test]
    fn hostile_json_is_an_error_or_a_valid_schedule_never_a_panic() {
        let good = one_of_each_kind().to_json();
        assert!(good.is_ascii(), "the sweep below slices and patches bytes");
        assert_err_or_valid(&good).unwrap();

        for cut in 0..good.len() {
            assert!(assert_err_or_valid(&good[..cut]).is_err(), "truncated at {cut} must not load");
        }
        for at in 0..good.len() {
            for sub in *b"{}[]\":,0-e" {
                let mut bytes = good.clone().into_bytes();
                bytes[at] = sub;
                let _ = assert_err_or_valid(std::str::from_utf8(&bytes).unwrap());
            }
        }

        let event =
            |kind: &str| format!(r#"{{"seed": 0, "events": [{{"step": 1, "kind": {kind}}}]}}"#);
        let must_fail = [
            // wrong types
            r#"[]"#.to_string(),
            r#"{"seed": "0", "events": []}"#.to_string(),
            r#"{"seed": 0, "events": {}}"#.to_string(),
            r#"{"seed": 0, "events": [{"step": "1", "kind": "WorkerCrash"}]}"#.to_string(),
            event(r#"{"Preemption": {"gpus": "2"}}"#),
            event(r#"{"Preemption": [2]}"#),
            event("7"),
            // integers out of range: past u64, past the field's u32, negative
            r#"{"seed": 18446744073709551616, "events": []}"#.to_string(),
            event(r#"{"Preemption": {"gpus": 4294967296}}"#),
            event(r#"{"Preemption": {"gpus": -1}}"#),
            r#"{"seed": 0, "events": [{"step": -1, "kind": "WorkerCrash"}]}"#.to_string(),
            // fractional and exponent numbers where integers belong
            event(r#"{"Preemption": {"gpus": 1.5}}"#),
            event(r#"{"Preemption": {"gpus": 1e0}}"#),
            // unknown variant, missing field
            event(r#""MeteorStrike""#),
            event(r#"{"MeteorStrike": {"gpus": 1}}"#),
            event(r#"{"Preemption": {}}"#),
            r#"{"seed": 0}"#.to_string(),
            // parses, but out of range for the harness
            event(r#"{"Preemption": {"gpus": 0}}"#),
            // 10 000 levels of nesting, bare and where a value is expected
            "[".repeat(10_000),
            format!(r#"{{"seed": 0, "events": {}"#, "[".repeat(10_000)),
            format!(r#"{{"seed": 0, "events": {}"#, r#"{"a":"#.repeat(10_000)),
        ];
        for input in &must_fail {
            assert!(assert_err_or_valid(input).is_err(), "must not load: {:.80}", input);
        }
        // Duplicate and unknown keys: whichever way the parser leans, the
        // result is an error or a runnable schedule.
        let _ = assert_err_or_valid(r#"{"seed": 0, "seed": 1, "events": [], "events": []}"#);
        let _ = assert_err_or_valid(r#"{"seed": 0, "events": [], "comment": "hand-edited"}"#);
        let _ = assert_err_or_valid(&event(r#"{"Preemption": {"gpus": 1, "gpus": 0}}"#));
        let _ = assert_err_or_valid(&event(r#"{"Preemption": {"gpus": 1, "why": "spot"}}"#));
    }

    #[test]
    fn from_json_sorts_a_hand_edited_artifact_like_from_events_does() {
        let sorted = FaultSchedule::from_events(vec![
            FaultEvent { step: 2, kind: FaultKind::WorkerCrash },
            FaultEvent { step: 8, kind: FaultKind::ScaleOut { gpus: 1 } },
        ]);
        let unsorted =
            FaultSchedule { seed: 0, events: sorted.events.iter().rev().cloned().collect() };
        assert_eq!(FaultSchedule::from_json(&unsorted.to_json()).unwrap(), sorted);
    }

    #[test]
    fn silent_generation_is_a_pure_function_of_the_seed() {
        let a = FaultSchedule::generate_silent(7, 14, 3);
        let b = FaultSchedule::generate_silent(7, 14, 3);
        assert_eq!(a, b);
        assert_ne!(a, FaultSchedule::generate_silent(8, 14, 3));
        // Decorrelated from the legacy generator under the same seed.
        assert_ne!(a.events, FaultSchedule::generate(7, 14, 3).events);
    }

    #[test]
    fn silent_generation_keeps_faults_detectable() {
        for seed in 0..32u64 {
            let s = FaultSchedule::generate_silent(seed, 14, 3);
            assert!(s.events.iter().all(|e| e.kind.is_silent()));
            assert!(
                s.events.iter().all(|e| e.step >= 1 && e.step <= 7),
                "silent faults land in the first half: {:?}",
                s.events
            );
            let creepers = s
                .events
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::CreepingStraggler { .. }))
                .count();
            assert!(creepers <= 1, "at most one creeper per schedule: {:?}", s.events);
            for e in &s.events {
                if let FaultKind::HeartbeatDrop { beats, .. } = e.kind {
                    assert!((12..=16).contains(&beats), "drops must be long enough: {beats}");
                }
            }
        }
    }

    #[test]
    fn thread_fault_generation_is_a_pure_function_of_the_seed() {
        let a = FaultSchedule::generate_thread_faults(11, 10, 4);
        assert_eq!(a, FaultSchedule::generate_thread_faults(11, 10, 4));
        assert_ne!(a, FaultSchedule::generate_thread_faults(12, 10, 4));
        // Decorrelated from the legacy generators under the same seed.
        assert_ne!(a.events, FaultSchedule::generate(11, 10, 4).events);
        assert!(a.events.iter().all(|e| e.kind.is_thread_fault()));
        // Consumable: armed before the last step round.
        assert!(a.events.iter().all(|e| e.step >= 1 && e.step <= 8));
    }

    #[test]
    fn validate_rejects_out_of_range_fields() {
        let bad = [
            FaultKind::Straggler { worker: 0, factor_milli: 0, steps: 2 },
            FaultKind::Straggler { worker: 0, factor_milli: 2000, steps: 0 },
            FaultKind::Preemption { gpus: 0 },
            FaultKind::ScaleOut { gpus: 0 },
            FaultKind::ScaleIn { gpus: 0 },
            FaultKind::CommFailure { failures: 0 },
            FaultKind::TornCheckpoint { keep_frac_milli: 1000 },
            FaultKind::CreepingStraggler { worker: 0, start_milli: 0, ramp_milli: 100 },
        ];
        for kind in bad {
            let s = FaultSchedule::from_events(vec![FaultEvent { step: 1, kind }]);
            let err = s.validate().unwrap_err().to_string();
            assert!(err.starts_with("event 0 (step 1):"), "error names the event: {err}");
        }
        // Generated schedules always validate.
        for seed in 0..8 {
            FaultSchedule::generate(seed, 10, 6).validate().unwrap();
            FaultSchedule::generate_silent(seed, 14, 3).validate().unwrap();
            FaultSchedule::generate_thread_faults(seed, 10, 4).validate().unwrap();
        }
    }

    #[test]
    fn from_events_sorts_by_step() {
        let s = FaultSchedule::from_events(vec![
            FaultEvent { step: 5, kind: FaultKind::WorkerCrash },
            FaultEvent { step: 2, kind: FaultKind::WorkerCrash },
        ]);
        assert_eq!(s.events[0].step, 2);
    }
}
