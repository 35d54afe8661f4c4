//! Discrete-event cluster simulator for the trace (§5.2) and co-location
//! (§5.3) experiments.
//!
//! Jobs arrive over time and carry a total amount of work (local
//! mini-batches). Under **YARN-CS** a job gang-waits, FIFO, for its full
//! requested GPU set and holds it to completion. Under **EasyScale** every
//! job is elastic from 0 GPUs up to its maxP-bounded useful maximum;
//! allocation is negotiated at every event through the intra-job schedulers'
//! resource proposals and the inter-job scheduler's greedy grants, and
//! serving-side occupancy (the co-location experiment) preempts training
//! GPUs, which EasyScale jobs release by scaling in (paying a restart
//! penalty, never failing).

use crate::companion::{Alloc, Companion};
use crate::inter::InterJobScheduler;
use crate::intra::{FreePool, IntraJobScheduler};
use device::{ClusterSpec, GpuType};
use models::Workload;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One job of the trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSpec {
    /// Unique id.
    pub id: u64,
    /// Workload (decides capabilities and hetero-friendliness).
    pub workload: Workload,
    /// Arrival time, seconds.
    pub arrival: f64,
    /// Work to complete, in local mini-batches.
    pub work: f64,
    /// Logical worker count (maxP) the job was designed for.
    pub max_p: u32,
    /// Gang size requested under YARN-CS.
    pub requested_gpus: u32,
    /// GPU type requested under YARN-CS.
    pub requested_type: GpuType,
}

/// Scheduling policy under simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Policy {
    /// Apache YARN capacity scheduler, FIFO gang scheduling (Philly).
    YarnCapacity,
    /// EasyScale restricted to homogeneous allocations per job.
    EasyScaleHomo,
    /// EasyScale with heterogeneous allocations (hetero-friendly jobs mix
    /// types; conv-kernel jobs stay homogeneous per the §3.3 model scan).
    EasyScaleHeter,
}

/// Per-job outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobRecord {
    /// Job id.
    pub id: u64,
    /// Arrival time.
    pub arrival: f64,
    /// First time the job held any GPU.
    pub first_run: Option<f64>,
    /// Completion time.
    pub finish: f64,
}

impl JobRecord {
    /// Job completion time (queueing + running).
    pub fn jct(&self) -> f64 {
        self.finish - self.arrival
    }

    /// Queueing delay before first GPU.
    pub fn queueing(&self) -> f64 {
        self.first_run.unwrap_or(self.finish) - self.arrival
    }
}

/// One point of the allocation timeline.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TimePoint {
    /// Time, seconds.
    pub t: f64,
    /// GPUs held by training jobs.
    pub training_gpus: u32,
    /// GPUs held by serving jobs (co-location).
    pub serving_gpus: u32,
}

/// Simulation result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimOutcome {
    /// Per-job records.
    pub records: Vec<JobRecord>,
    /// Max finish time.
    pub makespan: f64,
    /// Mean JCT.
    pub avg_jct: f64,
    /// Allocation timeline (sampled at events).
    pub timeline: Vec<TimePoint>,
    /// Scale-in (preemption) events: (time, GPUs released to serving).
    pub preemptions: Vec<(f64, u32)>,
    /// Number of training-job failures (always 0 for EasyScale; YARN jobs
    /// never fail in this simulator either — revocation is out of scope).
    pub failures: u64,
}

impl SimOutcome {
    /// Time-averaged training GPUs held.
    pub fn avg_training_gpus(&self) -> f64 {
        time_weighted_avg(&self.timeline, self.makespan, |p| p.training_gpus as f64)
    }
}

fn time_weighted_avg(tl: &[TimePoint], end: f64, f: impl Fn(&TimePoint) -> f64) -> f64 {
    if tl.is_empty() || end <= 0.0 {
        return 0.0;
    }
    let mut acc = 0.0;
    for (i, p) in tl.iter().enumerate() {
        let next_t = tl.get(i + 1).map(|q| q.t).unwrap_or(end);
        acc += f(p) * (next_t - p.t).max(0.0);
    }
    acc / end
}

/// Time-varying serving occupancy by GPU type. Ordered map: the simulator
/// iterates it, and that order must not depend on hasher state.
pub type ServingCurve = Box<dyn Fn(f64) -> BTreeMap<GpuType, u32>>;

/// The simulator.
pub struct ClusterSim {
    capacity: BTreeMap<GpuType, u32>,
    jobs: Vec<JobSpec>,
    policy: Policy,
    /// Serving occupancy as a function of time (co-location). None = the
    /// whole cluster belongs to training.
    serving: Option<ServingCurve>,
}

/// Seconds a job makes no progress after its allocation changes
/// (checkpoint + restore + data-worker restart).
const RESTART_PENALTY: f64 = 10.0;

/// Seconds between two samples of the serving curve.
const SERVING_TICK: f64 = 300.0;

/// Events one run may take before it is declared not to converge.
const EVENT_BUDGET: u64 = 2_000_000;

/// Why a simulation could not run to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No job can progress and none will arrive, yet some are unfinished.
    NoProgress {
        /// Jobs that can never finish.
        unfinished: usize,
    },
    /// The event loop did not converge within its budget.
    EventBudget {
        /// Events simulated when it gave up.
        events: u64,
    },
    /// The inter-job scheduler granted GPUs to a job the trace does not hold.
    UnknownJob {
        /// The granted id.
        id: u64,
    },
    /// A job holds, or was seeded with, a GPU type the cluster does not have.
    UnknownGpuType {
        /// The type.
        ty: GpuType,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::NoProgress { unfinished } => {
                write!(f, "{unfinished} jobs can never finish (cluster too small?)")
            }
            Self::EventBudget { events } => write!(f, "no convergence after {events} events"),
            Self::UnknownJob { id } => write!(f, "grant for unknown job {id}"),
            Self::UnknownGpuType { ty } => write!(f, "the cluster has no {ty} GPUs"),
        }
    }
}

impl std::error::Error for SimError {}

struct JobState<'a> {
    spec: &'a JobSpec,
    intra: IntraJobScheduler,
    remaining: f64,
    stall_until: f64,
    first_run: Option<f64>,
    finish: Option<f64>,
}

/// The free count of `ty`, to take from.
fn take_from(free: &mut FreePool, ty: GpuType) -> Result<&mut u32, SimError> {
    free.get_mut(&ty).ok_or(SimError::UnknownGpuType { ty })
}

impl ClusterSim {
    /// Simulator over a cluster and a trace.
    pub fn new(cluster: &ClusterSpec, jobs: Vec<JobSpec>, policy: Policy) -> Self {
        let mut capacity = BTreeMap::new();
        for g in cluster.gpus() {
            *capacity.entry(g.gpu_type).or_insert(0) += 1;
        }
        ClusterSim { capacity, jobs, policy, serving: None }
    }

    /// Attach a serving-occupancy curve (co-location experiment).
    pub fn with_serving(mut self, f: impl Fn(f64) -> BTreeMap<GpuType, u32> + 'static) -> Self {
        self.serving = Some(Box::new(f));
        self
    }

    /// Run to completion; panics where [`ClusterSim::try_run`] is an error.
    pub fn run(&self) -> SimOutcome {
        self.try_run().unwrap_or_else(|e| panic!("cluster simulation failed: {e}"))
    }

    /// Run to completion, or say why this trace cannot on this cluster.
    pub fn try_run(&self) -> Result<SimOutcome, SimError> {
        let mut states: Vec<JobState> = self
            .jobs
            .iter()
            .map(|spec| {
                let workload = spec.workload.spec();
                let hetero = self.policy == Policy::EasyScaleHeter && workload.hetero_friendly();
                // Heterogeneous mixing implies D2 kernels; homogeneous jobs
                // use vendor kernels. (For hetero-friendly workloads the D2
                // overhead is ≈1 anyway.)
                let companion = Companion::for_workload(&workload, spec.max_p, hetero);
                JobState {
                    intra: IntraJobScheduler::new(spec.id, companion, hetero),
                    remaining: spec.work,
                    stall_until: 0.0,
                    first_run: None,
                    finish: None,
                    spec,
                }
            })
            .collect();
        states.sort_by(|a, b| a.spec.arrival.total_cmp(&b.spec.arrival));
        // Job id → index into `states`, for grants (collected latest first,
        // so an id two jobs share stays with the earlier arrival).
        let by_id: BTreeMap<u64, usize> =
            states.iter().enumerate().rev().map(|(i, s)| (s.spec.id, i)).collect();
        // `states[..arrived]` have arrived; `active` lists, in arrival order,
        // those of them not yet retired. Only they can be touched by an
        // event, so every pass below walks `active`, never `states`.
        let mut arrived = 0usize;
        let mut active: Vec<usize> = Vec::new();
        let mut t = 0.0f64;
        let mut timeline: Vec<TimePoint> = Vec::new();
        let mut preemptions: Vec<(f64, u32)> = Vec::new();
        let mut prev_serving_total = 0u32;
        // Training GPUs held per type after the previous event's allocation.
        let mut prev_held = FreePool::new();

        for events in 1u64.. {
            if events >= EVENT_BUDGET {
                return Err(SimError::EventBudget { events });
            }
            while states.get(arrived).is_some_and(|s| s.spec.arrival <= t) {
                active.push(arrived);
                arrived += 1;
            }
            // Retire what the last event finished: its GPUs go back (a
            // counted allocation change) and its plan database is dropped.
            active.retain(|&i| {
                let s = &mut states[i];
                if s.finish.is_some() {
                    s.intra.retire();
                }
                s.finish.is_none()
            });
            let serving_now = self.serving.as_ref().map(|f| f(t)).unwrap_or_default();
            let serving_total: u32 = serving_now.values().sum();

            // Free capacity after serving occupancy.
            let mut free: FreePool = self
                .capacity
                .iter()
                .map(|(&ty, &n)| (ty, n.saturating_sub(serving_now.get(&ty).copied().unwrap_or(0))))
                .collect();

            match self.policy {
                Policy::YarnCapacity => {
                    // Subtract current gang holdings; preempt where serving
                    // pushed capacity below the held amount.
                    let mut released_now = 0u32;
                    for &i in &active {
                        let s = &mut states[i];
                        let mut alloc = s.intra.current().clone();
                        let mut changed = false;
                        for (ty, n) in alloc.iter_mut() {
                            let avail = take_from(&mut free, *ty)?;
                            if *n > *avail {
                                released_now += *n - *avail;
                                *n = *avail;
                                changed = true;
                            }
                            *avail -= *n;
                        }
                        if changed {
                            alloc.retain(|&(_, n)| n > 0);
                            s.intra.apply_allocation(alloc);
                            s.stall_until = t + RESTART_PENALTY;
                        }
                    }
                    if released_now > 0 {
                        preemptions.push((t, released_now));
                    }
                    // FIFO gang scheduling with head-of-line blocking.
                    for &i in &active {
                        let s = &mut states[i];
                        if !s.intra.current().is_empty() {
                            continue; // running with its gang
                        }
                        let (ty, need) = (s.spec.requested_type, s.spec.requested_gpus);
                        let Some(avail) = free.get_mut(&ty).filter(|avail| **avail >= need) else {
                            break; // strict FIFO: head of line blocks
                        };
                        *avail -= need;
                        s.intra.apply_allocation(vec![(ty, need)]);
                        s.stall_until = t; // gang jobs start immediately
                    }
                }
                Policy::EasyScaleHomo | Policy::EasyScaleHeter => {
                    // Re-plan the whole training allocation from scratch at
                    // every event (arrival / completion / serving change):
                    // jobs are elastic, so the intra-job schedulers rebuild
                    // their plans against current capacity and the inter-job
                    // scheduler grants greedily. Jobs whose allocation comes
                    // out unchanged keep running; changed jobs pay the
                    // restart penalty (checkpoint + reschedule, seconds).
                    let prev: Vec<Alloc> =
                        active.iter().map(|&i| states[i].intra.release()).collect();
                    // Seed every arrived job with one GPU (arrival order):
                    // a job's first GPU outranks anyone's marginal growth —
                    // this is why EasyScale queueing is ~zero.
                    for &i in &active {
                        let s = &mut states[i];
                        let cap = |ty: &GpuType| s.intra.companion().capability(*ty);
                        let best_ty = GpuType::ALL
                            .into_iter()
                            .filter(|ty| free.get(ty).is_some_and(|&n| n > 0))
                            // A non-D2 job that has ever run is pinned to its
                            // type; seeding must respect that or bits change.
                            .filter(|&ty| s.intra.pinned_type().is_none_or(|p| p == ty))
                            .max_by(|a, b| cap(a).total_cmp(&cap(b)));
                        if let Some(ty) = best_ty {
                            *take_from(&mut free, ty)? -= 1;
                            s.intra.apply_allocation(vec![(ty, 1)]);
                        }
                    }
                    // Proposal/grant rounds until a fixpoint. Proposals reach
                    // the inter-job scheduler in arrival order: its sort is
                    // stable, so that order is a tie-break.
                    for _round in 0..64 {
                        let proposals =
                            active.iter().flat_map(|&i| states[i].intra.proposals(&free, 3));
                        let grants = InterJobScheduler.decide(proposals.collect(), &mut free);
                        if grants.is_empty() {
                            break;
                        }
                        for g in grants {
                            let i = *by_id.get(&g.job).ok_or(SimError::UnknownJob { id: g.job })?;
                            let s = &mut states[i];
                            let mut alloc = s.intra.current().clone();
                            match alloc.iter_mut().find(|(ty, _)| *ty == g.gpu) {
                                Some(slot) => slot.1 += g.count,
                                None => alloc.push((g.gpu, g.count)),
                            }
                            s.intra.apply_allocation(alloc);
                        }
                    }
                    // Only jobs whose allocation actually changed pay the penalty.
                    for (&i, old) in active.iter().zip(&prev) {
                        let s = &mut states[i];
                        if s.intra.current() != old {
                            s.stall_until = s.stall_until.max(t + RESTART_PENALTY);
                        }
                    }
                }
            }
            // Stamp first runs and count the training GPUs now held per type.
            let mut held = FreePool::new();
            for &i in &active {
                let s = &mut states[i];
                if !s.intra.current().is_empty() {
                    s.first_run.get_or_insert(t);
                }
                for &(ty, n) in s.intra.current() {
                    *held.entry(ty).or_insert(0) += n;
                }
            }
            // A serving spike that pushed elastic training off a GPU type is
            // a preemption (GPUs released to serving within one tick) — even
            // if the jobs migrated to other types. What the last event's
            // finishers held counts as held before.
            if self.policy != Policy::YarnCapacity && serving_total > prev_serving_total {
                let released: u32 = prev_held
                    .iter()
                    .map(|(ty, &p)| p.saturating_sub(held.get(ty).copied().unwrap_or(0)))
                    .sum();
                if released > 0 {
                    preemptions.push((t, released));
                }
            }
            prev_serving_total = serving_total;

            let training_gpus = held.values().sum();
            timeline.push(TimePoint { t, training_gpus, serving_gpus: serving_total });
            prev_held = held;

            // The next event: the next arrival, ...
            let mut next = states.get(arrived).map_or(f64::INFINITY, |s| s.spec.arrival);
            // ... the serving curve's tick, ...
            if self.serving.is_some() {
                let tick = (t / SERVING_TICK).floor() * SERVING_TICK + SERVING_TICK;
                next = next.min(tick);
            }
            // ... a stall expiry or a completion.
            for &i in &active {
                let s = &states[i];
                if s.stall_until > t {
                    next = next.min(s.stall_until);
                } else if let Some(thr) = s.intra.current_throughput().filter(|&thr| thr > 0.0) {
                    next = next.min(t + s.remaining / thr);
                }
            }

            if next.is_infinite() {
                // Nothing can progress and nothing will arrive: done, or deadlocked.
                match active.len() + (states.len() - arrived) {
                    0 => break,
                    unfinished => return Err(SimError::NoProgress { unfinished }),
                }
            }

            // Integrate progress to `next`.
            for &i in &active {
                let s = &mut states[i];
                let run_start = s.stall_until.max(t);
                if run_start >= next {
                    continue;
                }
                if let Some(thr) = s.intra.current_throughput() {
                    s.remaining -= thr * (next - run_start);
                    if s.remaining <= 1e-6 {
                        s.finish = Some(next);
                    }
                }
            }
            t = next;

            if arrived == states.len() && active.iter().all(|&i| states[i].finish.is_some()) {
                // Final timeline point with everything released.
                let serving_gpus = self.serving.as_ref().map_or(0, |f| f(t).values().sum());
                timeline.push(TimePoint { t, training_gpus: 0, serving_gpus });
                break;
            }
        }

        let records: Vec<JobRecord> = states
            .iter()
            .map(|s| JobRecord {
                id: s.spec.id,
                arrival: s.spec.arrival,
                first_run: s.first_run,
                finish: s.finish.expect("all jobs finished"),
            })
            .collect();
        let makespan = records.iter().map(|r| r.finish).fold(0.0, f64::max);
        let avg_jct = records.iter().map(|r| r.jct()).sum::<f64>() / records.len().max(1) as f64;
        let outcome = SimOutcome { records, makespan, avg_jct, timeline, preemptions, failures: 0 };

        // Figs 14–16 observables for the whole run.
        for r in &outcome.records {
            obs::observe("sched.queueing_delay_s", r.queueing());
            obs::observe("sched.jct_s", r.jct());
        }
        obs::counter_add("sched.preemptions_total", outcome.preemptions.len() as u64);
        let total_capacity: u32 = self.capacity.values().sum();
        if total_capacity > 0 {
            let utilization = outcome.avg_training_gpus() / total_capacity as f64;
            obs::gauge_set("sched.utilization", utilization);
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> ClusterSpec {
        ClusterSpec::paper_trace_cluster()
    }

    fn job(id: u64, arrival: f64, work: f64, gpus: u32) -> JobSpec {
        JobSpec {
            id,
            workload: Workload::ResNet50,
            arrival,
            work,
            max_p: gpus,
            requested_gpus: gpus,
            requested_type: GpuType::V100,
        }
    }

    #[test]
    fn single_job_same_finish_order_both_policies() {
        let jobs = vec![job(1, 0.0, 10_000.0, 4)];
        let yarn = ClusterSim::new(&cluster(), jobs.clone(), Policy::YarnCapacity).run();
        let es = ClusterSim::new(&cluster(), jobs, Policy::EasyScaleHomo).run();
        assert_eq!(yarn.records.len(), 1);
        assert_eq!(es.records.len(), 1);
        assert!(yarn.records[0].finish > 0.0 && es.records[0].finish > 0.0);
    }

    #[test]
    fn yarn_fifo_blocks_small_jobs_behind_big_ones() {
        // Big job takes all 32 V100s; small job arrives right after and must
        // queue under YARN but runs immediately under EasyScale.
        let jobs = vec![job(1, 0.0, 200_000.0, 32), job(2, 10.0, 1_000.0, 1)];
        let yarn = ClusterSim::new(&cluster(), jobs.clone(), Policy::YarnCapacity).run();
        let es = ClusterSim::new(&cluster(), jobs, Policy::EasyScaleHomo).run();
        let yarn_small = yarn.records.iter().find(|r| r.id == 2).unwrap();
        let es_small = es.records.iter().find(|r| r.id == 2).unwrap();
        assert!(yarn_small.queueing() > 100.0, "YARN small job queues: {}", yarn_small.queueing());
        assert!(es_small.queueing() < 60.0, "EasyScale starts fast: {}", es_small.queueing());
        assert!(es_small.jct() < yarn_small.jct());
    }

    #[test]
    fn easyscale_heter_uses_more_gpus_for_friendly_jobs() {
        let mk = |id| JobSpec {
            id,
            workload: Workload::Bert, // hetero-friendly
            arrival: 0.0,
            work: 50_000.0,
            max_p: 16,
            requested_gpus: 8,
            requested_type: GpuType::V100,
        };
        let jobs: Vec<JobSpec> = (0..6).map(mk).collect();
        let homo = ClusterSim::new(&cluster(), jobs.clone(), Policy::EasyScaleHomo).run();
        let heter = ClusterSim::new(&cluster(), jobs, Policy::EasyScaleHeter).run();
        assert!(
            heter.avg_training_gpus() > homo.avg_training_gpus(),
            "heter {} vs homo {}",
            heter.avg_training_gpus(),
            homo.avg_training_gpus()
        );
        assert!(heter.makespan <= homo.makespan * 1.05);
    }

    #[test]
    fn serving_occupancy_preempts_training() {
        let jobs = vec![job(1, 0.0, 400_000.0, 8)];
        // Serving grabs all V100s from t=600 to t=1200.
        let sim = ClusterSim::new(&cluster(), jobs, Policy::EasyScaleHomo).with_serving(|t| {
            if (600.0..1200.0).contains(&t) {
                [(GpuType::V100, 32)].into_iter().collect()
            } else {
                BTreeMap::new()
            }
        });
        let out = sim.run();
        assert!(!out.preemptions.is_empty(), "serving spike must preempt training");
        assert_eq!(out.failures, 0, "EasyScale jobs never fail on preemption");
        assert_eq!(out.records.len(), 1);
    }

    #[test]
    fn a_gang_larger_than_the_cluster_is_a_typed_error() {
        // 64 V100s requested, 32 in the cluster: the head of the FIFO queue
        // blocks forever, and the job queued behind it with it.
        let jobs = vec![job(1, 0.0, 1_000.0, 64), job(2, 5.0, 1_000.0, 1)];
        let yarn = ClusterSim::new(&cluster(), jobs[..1].to_vec(), Policy::YarnCapacity);
        assert_eq!(yarn.try_run().unwrap_err(), SimError::NoProgress { unfinished: 1 });
        let yarn = ClusterSim::new(&cluster(), jobs.clone(), Policy::YarnCapacity);
        assert_eq!(yarn.try_run().unwrap_err(), SimError::NoProgress { unfinished: 2 });
        // Elastic jobs run on whatever exists.
        assert!(ClusterSim::new(&cluster(), jobs, Policy::EasyScaleHomo).try_run().is_ok());
    }

    #[test]
    fn a_blocked_queue_beside_a_serving_curve_exhausts_the_event_budget() {
        // The gang can never start, but the serving tick is always a next
        // event: no deadlock to report, only a loop that will not end.
        let sim = ClusterSim::new(&cluster(), vec![job(1, 0.0, 1_000.0, 64)], Policy::YarnCapacity)
            .with_serving(|_| BTreeMap::new());
        assert_eq!(sim.try_run().unwrap_err(), SimError::EventBudget { events: EVENT_BUDGET });
    }

    #[test]
    fn timeline_is_monotone_in_time() {
        let jobs = vec![job(1, 0.0, 10_000.0, 4), job(2, 50.0, 5_000.0, 2)];
        let out = ClusterSim::new(&cluster(), jobs, Policy::EasyScaleHomo).run();
        assert!(out.timeline.windows(2).all(|w| w[0].t <= w[1].t));
        assert!(out.makespan > 0.0);
        assert!(out.avg_jct > 0.0);
    }
}
