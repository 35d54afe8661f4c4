//! Per-device health tracking: heartbeat leases, straggler scoring, and the
//! `Healthy → Suspect → Quarantined → Probation → Healthy` state machine.
//!
//! The paper's AIMaster (§4) *detects* failures and slowdowns itself rather
//! than being told about them. This module is that detection loop's brain:
//! it consumes [`Heartbeat`]s (virtual-time-stamped, integer payloads),
//! tracks one [`Lease`] per physical device, scores stragglers against the
//! worker population, and emits a totally ordered [`HealthEvent`] log that
//! the supervisor in [`aimaster`](crate::aimaster) converts into
//! allocation changes.
//!
//! Determinism contract: every input is an integer (`SimClock` timestamps,
//! step durations in µs), all per-device state lives in a `BTreeMap`, and
//! the straggler z-score is computed over a sorted sample in a fixed
//! summation order — so the full event log, timestamps included, is a pure
//! function of the heartbeat history. Nothing here reads a wall clock, and
//! nothing here touches training state: detection output only ever changes
//! *allocations*, which bitwise placement-invariance makes invisible to
//! the learned parameters (see `DESIGN.md`).
//!
//! State machine (thresholds are the constants below, e.g. [`SUSPECT_MISSES`]):
//!
//! ```text
//!            ≥ SUSPECT_MISSES leases missed, or
//!            ≥ SUSPECT_WINDOWS consecutive slow rounds
//!   Healthy ────────────────────────────────────────▶ Suspect
//!      ▲  ▲     clean round (beat on time, not slow)     │
//!      │  └──────────────────────────────────────────────┘
//!      │         ≥ QUARANTINE_MISSES leases missed, or
//!      │         ≥ QUARANTINE_WINDOWS consecutive slow rounds
//!      │    (from Healthy/Suspect/Probation) ──▶ Quarantined
//!      │                                             │ beat received AND
//!      │        PROBATION_ROUNDS clean rounds        │ backoff elapsed
//!      └──────────────── Probation ◀─────────────────┘
//!                            │ miss or slow round → requarantine,
//!                            │ flaps += 1, backoff ×= 2;
//!                            └ flaps ≥ MAX_FLAPS → permanent quarantine
//! ```
//!
//! Flap damping: every failed probation doubles the readmission backoff,
//! and after `MAX_FLAPS` failed probations the device is quarantined
//! permanently — a flapping GPU cannot oscillate the allocation forever.

use comm::Heartbeat;
use device::Lease;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The four health states of a physical device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HealthState {
    /// Beating on time, not a straggler.
    Healthy,
    /// Early warning: one missed lease or a short slow streak. No
    /// allocation change yet.
    Suspect,
    /// Confirmed bad: evicted from the allocation, sitting out a backoff.
    Quarantined,
    /// Readmitted on trial after backoff; must prove itself clean.
    Probation,
}

impl HealthState {
    /// Stable lowercase name (metric labels, logs).
    pub fn name(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Suspect => "suspect",
            HealthState::Quarantined => "quarantined",
            HealthState::Probation => "probation",
        }
    }
}

/// Why a health transition fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransitionCause {
    /// The device's lease lapsed for `missed` full periods.
    LeaseMiss {
        /// Complete lease periods elapsed since the last heartbeat.
        missed: u64,
    },
    /// The device's step timing scored as a population outlier.
    StragglerScore {
        /// Straggler z-score in milli-units (2000 = 2.0 σ-equivalents).
        score_milli: i64,
    },
    /// A suspect device resumed clean, timely heartbeats.
    HeartbeatResumed,
    /// A quarantined device finished its backoff and is beating again.
    BackoffElapsed,
    /// A probation device stayed clean for the required rounds.
    ProbationPassed,
    /// A probation device missed a lease or scored slow again.
    ProbationFailed,
    /// The device flapped `MAX_FLAPS` times: quarantined permanently.
    FlapLimit,
}

impl TransitionCause {
    /// Stable short name (metric labels, logs).
    pub fn name(&self) -> &'static str {
        match self {
            TransitionCause::LeaseMiss { .. } => "lease_miss",
            TransitionCause::StragglerScore { .. } => "straggler_score",
            TransitionCause::HeartbeatResumed => "heartbeat_resumed",
            TransitionCause::BackoffElapsed => "backoff_elapsed",
            TransitionCause::ProbationPassed => "probation_passed",
            TransitionCause::ProbationFailed => "probation_failed",
            TransitionCause::FlapLimit => "flap_limit",
        }
    }
}

/// One health transition: the unit of the deterministic detection log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthEvent {
    /// Virtual time of the detection round that fired the transition.
    pub at_us: u64,
    /// Stable physical device id.
    pub device: u32,
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
    /// What drove it.
    pub cause: TransitionCause,
}

/// Full missed leases that turn Healthy into Suspect.
pub const SUSPECT_MISSES: u64 = 1;
/// Full missed leases that quarantine a device (crash assumed).
pub const QUARANTINE_MISSES: u64 = 3;
/// Straggler score (milli-σ) at or above which a round counts as slow.
pub const STRAGGLER_Z_MILLI: i64 = 2000;
/// Consecutive slow rounds that turn Healthy into Suspect.
pub const SUSPECT_WINDOWS: u32 = 2;
/// Consecutive slow rounds that quarantine a device (persistent
/// degradation; transient stragglers stop short of this).
pub const QUARANTINE_WINDOWS: u32 = 4;
/// Clean probation rounds required to return to Healthy.
pub const PROBATION_ROUNDS: u32 = 2;
/// First readmission backoff, in leases; doubles on every failed probation.
pub const BACKOFF_LEASES: u64 = 4;
/// Failed probations before the quarantine becomes permanent.
pub const MAX_FLAPS: u32 = 2;

/// The detector's one tunable: the heartbeat lease period, in virtual
/// microseconds. Every threshold is a constant above, scaled by the lease
/// where it is a duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthPolicy {
    /// Heartbeat lease period. Sized by the caller to a small multiple of
    /// the worst-case step time, so a healthy-but-busy worker never misses.
    pub lease_us: u64,
}

impl HealthPolicy {
    /// The detector around a given lease period.
    pub fn with_lease(lease_us: u64) -> Self {
        assert!(lease_us >= 1);
        HealthPolicy { lease_us }
    }

    /// First readmission backoff: [`BACKOFF_LEASES`] leases.
    pub fn backoff_base_us(&self) -> u64 {
        self.lease_us.saturating_mul(BACKOFF_LEASES)
    }
}

/// Per-device detector state (internal).
#[derive(Debug, Clone)]
struct DeviceHealth {
    state: HealthState,
    lease: Lease,
    /// Consecutive rounds scored slow.
    slow_rounds: u32,
    /// Consecutive clean probation rounds.
    clean_rounds: u32,
    /// When the current quarantine began.
    quarantined_at_us: u64,
    /// Current readmission backoff (doubles per flap).
    backoff_us: u64,
    /// Failed probations so far.
    flaps: u32,
    /// Quarantined forever (flap limit hit).
    permanent: bool,
    /// A beat arrived since the last detection round.
    beat_this_round: bool,
    /// Step duration reported this round, if the device stepped.
    timed_this_round: Option<u64>,
}

/// The failure detector: one [`DeviceHealth`] per registered device, a
/// policy, and the append-only event log.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    policy: HealthPolicy,
    devices: BTreeMap<u32, DeviceHealth>,
    events: Vec<HealthEvent>,
}

/// Straggler scores for one detection round: a z-score against the
/// population of step timings, in milli-units.
///
/// The center is the (lower) median and the spread is the population
/// standard deviation floored at `median / 4` — the floor encodes "under
/// 25% jitter is noise" and keeps the score sharp for the small, nearly
/// homogeneous populations this runtime schedules (2–8 devices), where a
/// single outlier dominates the raw σ. With the floor active, the score
/// crosses the default 2000 m-σ threshold exactly when a device runs at
/// ≥ 1.5× the median. Inputs are integers, the sample is sorted before
/// any float op, and summation order is fixed, so the result is
/// bit-reproducible.
fn straggler_scores(timed: &BTreeMap<u32, u64>) -> BTreeMap<u32, i64> {
    if timed.len() < 2 {
        return BTreeMap::new(); // a population of one has no outliers
    }
    let mut sample: Vec<u64> = timed.values().copied().collect();
    sample.sort_unstable();
    let median = sample[(sample.len() - 1) / 2];
    if median == 0 {
        return BTreeMap::new();
    }
    let n = sample.len() as f64;
    let mean = sample.iter().sum::<u64>() as f64 / n;
    let var = sample.iter().map(|&t| (t as f64 - mean) * (t as f64 - mean)).sum::<f64>() / n;
    let sigma = var.sqrt().max(median as f64 / 4.0);
    timed
        .iter()
        .map(|(&dev, &t)| (dev, (((t as f64 - median as f64) / sigma) * 1000.0).round() as i64))
        .collect()
}

impl HealthTracker {
    /// A tracker with no registered devices.
    pub fn new(policy: HealthPolicy) -> Self {
        HealthTracker { policy, devices: BTreeMap::new(), events: Vec::new() }
    }

    /// The active policy.
    pub fn policy(&self) -> &HealthPolicy {
        &self.policy
    }

    /// Register a device as Healthy with a fresh lease granted at `now_us`.
    /// Re-registering an existing device resets it (a reprovisioned device
    /// starts clean).
    pub fn register(&mut self, device: u32, now_us: u64) {
        self.devices.insert(
            device,
            DeviceHealth {
                state: HealthState::Healthy,
                lease: Lease::new(now_us, self.policy.lease_us),
                slow_rounds: 0,
                clean_rounds: 0,
                quarantined_at_us: 0,
                backoff_us: 0,
                flaps: 0,
                permanent: false,
                beat_this_round: false,
                timed_this_round: None,
            },
        );
    }

    /// Forget a device (it left the cluster through a *planned* path:
    /// scale-in or preemption — not a health decision).
    pub fn deregister(&mut self, device: u32) {
        self.devices.remove(&device);
    }

    /// Current state of a device, if registered.
    pub fn state(&self, device: u32) -> Option<HealthState> {
        self.devices.get(&device).map(|d| d.state)
    }

    /// All registered devices and their states, in device order.
    pub fn states(&self) -> BTreeMap<u32, HealthState> {
        self.devices.iter().map(|(&id, d)| (id, d.state)).collect()
    }

    /// Whether a device hit the flap limit and can never be readmitted.
    pub fn is_permanently_quarantined(&self, device: u32) -> bool {
        self.devices.get(&device).is_some_and(|d| d.permanent)
    }

    /// Ingest one heartbeat: renews the device's lease and records its
    /// step timing for this round's straggler scoring.
    pub fn observe(&mut self, beat: &Heartbeat) {
        obs::counter_add("health.heartbeats_total", 1);
        if let Some(d) = self.devices.get_mut(&beat.device) {
            d.lease.renew(beat.sent_at_us);
            d.beat_this_round = true;
            if beat.step_time_us.is_some() {
                d.timed_this_round = beat.step_time_us;
            }
        }
    }

    /// Run one detection round at virtual time `now_us`: score stragglers
    /// over the devices that reported timings, advance every device's
    /// state machine, and return the transitions this round produced (they
    /// are also appended to [`HealthTracker::events`]).
    pub fn end_of_round(&mut self, now_us: u64) -> Vec<HealthEvent> {
        let first_new = self.events.len();
        // Straggler population: devices that stepped this round and are
        // not quarantined (an idle parked device has no timing to score).
        let timed: BTreeMap<u32, u64> = self
            .devices
            .iter()
            .filter(|(_, d)| d.state != HealthState::Quarantined)
            .filter_map(|(&id, d)| d.timed_this_round.map(|t| (id, t)))
            .collect();
        let scores = straggler_scores(&timed);

        let ids: Vec<u32> = self.devices.keys().copied().collect();
        for id in ids {
            let score = scores.get(&id).copied().unwrap_or(0);
            self.tick_device(id, now_us, score);
        }
        for d in self.devices.values_mut() {
            d.beat_this_round = false;
            d.timed_this_round = None;
        }
        let quarantined =
            self.devices.values().filter(|d| d.state == HealthState::Quarantined).count();
        obs::gauge_set("health.quarantined", quarantined as f64);
        self.events[first_new..].to_vec()
    }

    /// The full transition log, in firing order.
    pub fn events(&self) -> &[HealthEvent] {
        &self.events
    }

    fn transition(&mut self, device: u32, to: HealthState, cause: TransitionCause, now_us: u64) {
        let d = self.devices.get_mut(&device).expect("transition on registered device");
        let from = d.state;
        d.state = to;
        obs::counter_add("health.transitions_total", 1);
        obs::counter_add(&format!("health.transitions.{}", to.name()), 1);
        self.events.push(HealthEvent { at_us: now_us, device, from, to, cause });
    }

    /// Quarantine a device, with flap accounting when it falls from
    /// probation: the backoff doubles, and past [`MAX_FLAPS`] the quarantine
    /// is permanent.
    fn quarantine(&mut self, device: u32, now_us: u64, cause: TransitionCause) {
        let backoff_base_us = self.policy.backoff_base_us();
        let d = self.devices.get_mut(&device).expect("quarantine on registered device");
        let from_probation = d.state == HealthState::Probation;
        d.quarantined_at_us = now_us;
        d.slow_rounds = 0;
        d.clean_rounds = 0;
        let mut cause = cause;
        if from_probation {
            d.flaps += 1;
            d.backoff_us = d.backoff_us.max(backoff_base_us).saturating_mul(2);
            if d.flaps >= MAX_FLAPS {
                d.permanent = true;
                cause = TransitionCause::FlapLimit;
            }
        } else if d.backoff_us == 0 {
            d.backoff_us = backoff_base_us;
        }
        self.transition(device, HealthState::Quarantined, cause, now_us);
    }

    fn tick_device(&mut self, id: u32, now_us: u64, score: i64) {
        // Snapshot the per-device facts, then decide; `transition` /
        // `quarantine` re-borrow mutably.
        let (state, missed, beat, permanent, quarantined_at, backoff) = {
            let d = self.devices.get_mut(&id).expect("tick on registered device");
            let missed = d.lease.missed_periods(now_us);
            let slow = score >= STRAGGLER_Z_MILLI;
            if slow {
                d.slow_rounds += 1;
            } else if d.timed_this_round.is_some() {
                d.slow_rounds = 0;
            }
            (d.state, missed, d.beat_this_round, d.permanent, d.quarantined_at_us, d.backoff_us)
        };
        if missed > 0 {
            obs::counter_add("health.heartbeat_misses", missed);
        }
        let slow = score >= STRAGGLER_Z_MILLI;
        let slow_rounds = self.devices[&id].slow_rounds;

        match state {
            HealthState::Quarantined => {
                // Readmission: the device must have finished its backoff
                // AND be demonstrably alive (beating). A dead device never
                // beats, so it never leaves quarantine.
                if !permanent && beat && now_us >= quarantined_at.saturating_add(backoff) {
                    let d = self.devices.get_mut(&id).expect("registered");
                    d.slow_rounds = 0;
                    d.clean_rounds = 0;
                    self.transition(
                        id,
                        HealthState::Probation,
                        TransitionCause::BackoffElapsed,
                        now_us,
                    );
                }
            }
            HealthState::Healthy | HealthState::Suspect | HealthState::Probation => {
                if missed >= QUARANTINE_MISSES {
                    self.quarantine(id, now_us, TransitionCause::LeaseMiss { missed });
                } else if slow_rounds >= QUARANTINE_WINDOWS {
                    self.quarantine(
                        id,
                        now_us,
                        TransitionCause::StragglerScore { score_milli: score },
                    );
                } else if state == HealthState::Probation {
                    if missed >= SUSPECT_MISSES || slow {
                        self.quarantine(id, now_us, TransitionCause::ProbationFailed);
                    } else if beat {
                        let d = self.devices.get_mut(&id).expect("registered");
                        d.clean_rounds += 1;
                        if d.clean_rounds >= PROBATION_ROUNDS {
                            self.transition(
                                id,
                                HealthState::Healthy,
                                TransitionCause::ProbationPassed,
                                now_us,
                            );
                        }
                    }
                } else if state == HealthState::Healthy {
                    if missed >= SUSPECT_MISSES {
                        self.transition(
                            id,
                            HealthState::Suspect,
                            TransitionCause::LeaseMiss { missed },
                            now_us,
                        );
                    } else if slow_rounds >= SUSPECT_WINDOWS {
                        self.transition(
                            id,
                            HealthState::Suspect,
                            TransitionCause::StragglerScore { score_milli: score },
                            now_us,
                        );
                    }
                } else {
                    // Suspect: a fully clean round clears the suspicion.
                    if beat && missed == 0 && !slow && slow_rounds == 0 {
                        self.transition(
                            id,
                            HealthState::Healthy,
                            TransitionCause::HeartbeatResumed,
                            now_us,
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEASE: u64 = 1_000;

    fn tracker(devices: u32) -> HealthTracker {
        let mut t = HealthTracker::new(HealthPolicy::with_lease(LEASE));
        for d in 0..devices {
            t.register(d, 0);
        }
        t
    }

    fn beat(device: u32, at: u64, time: Option<u64>) -> Heartbeat {
        Heartbeat { device, step: 0, sent_at_us: at, step_time_us: time }
    }

    /// Drive `rounds` rounds of period `round_us` where every device in
    /// `beating` beats with `time`, returning all transitions.
    fn run_rounds(
        t: &mut HealthTracker,
        start_us: u64,
        round_us: u64,
        rounds: u32,
        beating: &[(u32, Option<u64>)],
    ) -> Vec<HealthEvent> {
        let mut out = Vec::new();
        let mut now = start_us;
        for _ in 0..rounds {
            now += round_us;
            for &(d, time) in beating {
                t.observe(&beat(d, now, time));
            }
            out.extend(t.end_of_round(now));
        }
        out
    }

    #[test]
    fn silent_device_goes_suspect_then_quarantined() {
        let mut t = tracker(2);
        // Device 1 beats; device 0 never does. One round per lease period.
        let evs = run_rounds(&mut t, 0, LEASE, 4, &[(1, Some(100))]);
        let zero: Vec<_> = evs.iter().filter(|e| e.device == 0).collect();
        assert_eq!(zero[0].to, HealthState::Suspect);
        assert!(matches!(zero[0].cause, TransitionCause::LeaseMiss { .. }));
        assert_eq!(zero.last().unwrap().to, HealthState::Quarantined);
        assert_eq!(t.state(0), Some(HealthState::Quarantined));
        assert_eq!(t.state(1), Some(HealthState::Healthy));
    }

    #[test]
    fn suspect_recovers_on_resumed_beats() {
        let mut t = tracker(2);
        // One silent round → device 0 suspect …
        run_rounds(&mut t, 0, LEASE, 1, &[(1, Some(100))]);
        assert_eq!(t.state(0), Some(HealthState::Suspect));
        // … then it resumes beating and goes healthy again.
        let evs = run_rounds(&mut t, LEASE, LEASE / 2, 1, &[(0, Some(100)), (1, Some(100))]);
        assert!(evs.iter().any(|e| e.device == 0
            && e.to == HealthState::Healthy
            && e.cause == TransitionCause::HeartbeatResumed));
    }

    #[test]
    fn persistent_straggler_is_quarantined_transient_is_not() {
        // Persistent: 4 consecutive slow rounds cross QUARANTINE_WINDOWS.
        let mut t = tracker(3);
        let all = [(0, Some(250u64)), (1, Some(100)), (2, Some(100))];
        let evs = run_rounds(&mut t, 0, 500, 4, &all);
        assert!(evs.iter().any(|e| e.device == 0
            && e.to == HealthState::Quarantined
            && matches!(e.cause, TransitionCause::StragglerScore { .. })));

        // Transient: 3 slow rounds stop at Suspect.
        let mut t2 = tracker(3);
        run_rounds(&mut t2, 0, 500, 3, &all);
        let clean = [(0, Some(100u64)), (1, Some(100)), (2, Some(100))];
        run_rounds(&mut t2, 1500, 500, 2, &clean);
        assert_eq!(t2.state(0), Some(HealthState::Healthy), "transient straggler recovers");
        assert!(!t2.events().iter().any(|e| e.to == HealthState::Quarantined));
    }

    #[test]
    fn readmission_waits_for_backoff_and_a_live_beat() {
        let mut t = tracker(2);
        let evs = run_rounds(&mut t, 0, LEASE, 4, &[(1, Some(100))]);
        let q_at = evs.iter().find(|e| e.to == HealthState::Quarantined).unwrap().at_us;
        let backoff = t.policy().backoff_base_us();
        // Beating again before the backoff elapses: still quarantined.
        run_rounds(&mut t, 4 * LEASE, LEASE, 2, &[(0, None), (1, Some(100))]);
        assert_eq!(t.state(0), Some(HealthState::Quarantined));
        // After the backoff, a beat readmits on probation; clean rounds
        // then return it to Healthy.
        let resume_at = q_at + backoff;
        let evs = run_rounds(&mut t, resume_at, LEASE / 2, 3, &[(0, Some(100)), (1, Some(100))]);
        assert!(evs.iter().any(|e| e.device == 0 && e.to == HealthState::Probation));
        assert_eq!(t.state(0), Some(HealthState::Healthy));
    }

    #[test]
    fn dead_device_never_leaves_quarantine() {
        let mut t = tracker(2);
        run_rounds(&mut t, 0, LEASE, 4, &[(1, Some(100))]);
        assert_eq!(t.state(0), Some(HealthState::Quarantined));
        // 20 more rounds, way past any backoff — but no beat, no parole.
        run_rounds(&mut t, 4 * LEASE, LEASE, 20, &[(1, Some(100))]);
        assert_eq!(t.state(0), Some(HealthState::Quarantined));
    }

    #[test]
    fn flapping_device_hits_the_flap_limit() {
        let mut t = tracker(2);
        let healthy_peer = (1u32, Some(100u64));
        let mut now = 0u64;
        // Quarantine device 0 (silent), then let it flap: readmit, fail
        // probation by going silent again, repeat.
        for flaps_seen in 0..MAX_FLAPS + 1 {
            // Silent rounds until quarantined.
            while t.state(0) != Some(HealthState::Quarantined) {
                now += LEASE;
                t.observe(&beat(1, now, healthy_peer.1));
                t.end_of_round(now);
            }
            if t.is_permanently_quarantined(0) {
                break;
            }
            // Sit out any possible backoff, then beat to win probation.
            now += 20 * LEASE * (1 << (flaps_seen + 1));
            t.observe(&beat(0, now, Some(100)));
            t.observe(&beat(1, now, healthy_peer.1));
            t.end_of_round(now);
        }
        assert!(t.is_permanently_quarantined(0), "flap limit must bite");
        assert!(t.events().iter().any(|e| e.cause == TransitionCause::FlapLimit));
        // Permanently quarantined: beats no longer readmit.
        now += 100 * LEASE;
        t.observe(&beat(0, now, Some(100)));
        t.end_of_round(now);
        assert_eq!(t.state(0), Some(HealthState::Quarantined));
    }

    #[test]
    fn straggler_score_crosses_at_1_5x_median() {
        // With the σ floor at median/4, the 2000 m-σ threshold is exactly
        // a 1.5× median outlier, for any small population.
        for n in [2usize, 3, 4, 6] {
            let mut timed = BTreeMap::new();
            for d in 0..n as u32 - 1 {
                timed.insert(d, 1000u64);
            }
            timed.insert(n as u32 - 1, 1499);
            let below = straggler_scores(&timed);
            assert!(below[&(n as u32 - 1)] < 2000, "1.499× must not fire (n={n}): {below:?}");
            timed.insert(n as u32 - 1, 1500 + n as u64); // clear of rounding
            let above = straggler_scores(&timed);
            assert!(above[&(n as u32 - 1)] >= 2000, "1.5× must fire (n={n}): {above:?}");
        }
    }

    #[test]
    fn event_log_is_independent_of_observe_order() {
        let beats = [beat(0, 500, Some(100)), beat(1, 500, Some(100)), beat(2, 500, Some(400))];
        let mut logs = Vec::new();
        for order in [[0usize, 1, 2], [2, 1, 0], [1, 2, 0]] {
            let mut t = tracker(3);
            for _ in 0..4 {
                for i in order {
                    t.observe(&beats[i]);
                }
                t.end_of_round(500);
            }
            logs.push(t.events().to_vec());
        }
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[0], logs[2]);
    }
}
