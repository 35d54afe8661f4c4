//! Property-based tests for the Eq 1 plan model, the plan database, the
//! schedulers, and the failure detector.

use comm::{Heartbeat, HeartbeatBus};
use device::GpuType;
use easyscale::{JobConfig, Placement, Slot};
use models::Workload;
use proptest::prelude::*;
use sched::companion::Alloc;
use sched::{
    AiMaster, Companion, FreePool, HealthPolicy, HealthTracker, InterJobScheduler,
    IntraJobScheduler, ResourceProposal,
};
use std::collections::BTreeMap;

fn caps_strategy() -> impl Strategy<Value = BTreeMap<GpuType, f64>> {
    (1.0f64..20.0, 0.5f64..10.0, 0.2f64..8.0).prop_map(|(v, p, t)| {
        [(GpuType::V100, v), (GpuType::P100, p), (GpuType::T4, t)].into_iter().collect()
    })
}

fn alloc_strategy() -> impl Strategy<Value = Vec<(GpuType, u32)>> {
    (0u32..6, 0u32..6, 0u32..6).prop_map(|(v, p, t)| {
        let mut a = Vec::new();
        if v > 0 {
            a.push((GpuType::V100, v));
        }
        if p > 0 {
            a.push((GpuType::P100, p));
        }
        if t > 0 {
            a.push((GpuType::T4, t));
        }
        a
    })
}

/// Allocations as a caller may write them, not as the schedulers do: any
/// entry order, zero counts, a type listed twice (so more entries than types).
fn raw_alloc_strategy() -> impl Strategy<Value = Alloc> {
    prop::collection::vec((0usize..3, 0u32..6), 0..6)
        .prop_map(|entries| entries.into_iter().map(|(ty, n)| (GpuType::ALL[ty], n)).collect())
}

fn free_strategy() -> impl Strategy<Value = FreePool> {
    (0u32..20, 0u32..20, 0u32..20).prop_map(|(v, p, t)| {
        [(GpuType::V100, v), (GpuType::P100, p), (GpuType::T4, t)].into_iter().collect()
    })
}

fn throughput_bits(c: &Companion, alloc: &Alloc) -> (Option<u64>, Option<u64>) {
    (c.throughput(alloc).map(f64::to_bits), c.plan(alloc).map(|plan| plan.throughput.to_bits()))
}

/// The per-GPU greedy `placement_for` used before the companion tracked
/// loads only — one rank list per GPU, every GPU scanned for every rank —
/// kept as the oracle of the load-only one.
fn placement_reference(c: &Companion, alloc: &Alloc) -> Option<Placement> {
    let mut gpus: Vec<(GpuType, Vec<u32>)> = Vec::new();
    for &(ty, n) in alloc {
        gpus.extend((0..n).map(|_| (ty, Vec::new())));
    }
    if gpus.is_empty() {
        return None;
    }
    for r in 0..c.max_p() {
        let mut best = 0;
        let mut best_cost = f64::INFINITY;
        for (i, (ty, v)) in gpus.iter().enumerate() {
            let cost = (v.len() + 1) as f64 / c.capability(*ty).max(1e-12);
            if cost < best_cost {
                best = i;
                best_cost = cost;
            }
        }
        gpus[best].1.push(r);
    }
    let slots = gpus.into_iter().filter(|(_, v)| !v.is_empty());
    Some(Placement { slots: slots.map(|(gpu, vranks)| Slot { gpu, vranks }).collect() })
}

/// `IntraJobScheduler::proposals` as it was before it read throughput
/// through the plan database: one clone of the current allocation and one
/// cold `plan` per candidate. Kept as the oracle of the remembered one.
fn proposals_reference(
    s: &IntraJobScheduler,
    free: &FreePool,
    top_k: usize,
) -> Vec<ResourceProposal> {
    let current_thr = s.current_plan().map(|p| p.throughput).unwrap_or(0.0);
    let mut out: Vec<ResourceProposal> = Vec::new();
    for &ty in &GpuType::ALL {
        let avail = free.get(&ty).copied().unwrap_or(0);
        if avail == 0 {
            continue;
        }
        if !s.hetero_allowed() {
            let constraint = s
                .pinned_type()
                .or_else(|| s.current().iter().find(|&&(_, n)| n > 0).map(|&(t, _)| t));
            if constraint.is_some_and(|t| t != ty) {
                continue;
            }
        }
        let mut add = 1u32;
        while add <= avail.min(s.companion().max_p()) {
            let mut candidate = s.current().clone();
            match candidate.iter_mut().find(|(t, _)| *t == ty) {
                Some(slot) => slot.1 += add,
                None => candidate.push((ty, add)),
            }
            if let Some(plan) = s.companion().plan(&candidate) {
                let speedup = plan.throughput - current_thr;
                if speedup > 1e-9 {
                    out.push(ResourceProposal {
                        job: s.job(),
                        add_type: ty,
                        add_count: add,
                        new_throughput: plan.throughput,
                        speedup_total: speedup,
                        speedup_per_gpu: speedup / add as f64,
                    });
                }
            }
            add *= 2;
        }
    }
    out.sort_by(|a, b| {
        b.speedup_per_gpu.total_cmp(&a.speedup_per_gpu).then(b.add_count.cmp(&a.add_count))
    });
    out.truncate(top_k);
    out
}

/// Proposals with their floats as bit patterns: `==` on `f64` would let
/// `-0.0 == 0.0` and a last-bit drift in a sum hide behind a tolerance.
fn proposal_bits(props: &[ResourceProposal]) -> Vec<(u64, GpuType, u32, [u64; 3])> {
    let bits = |p: &ResourceProposal| {
        [p.new_throughput, p.speedup_total, p.speedup_per_gpu].map(f64::to_bits)
    };
    props.iter().map(|p| (p.job, p.add_type, p.add_count, bits(p))).collect()
}

/// The plan database behind a live job: `AiMaster::run_window` reports the
/// measured throughput through `companion_mut().observe`, and what
/// `proposals()` says next must be what a scheduler that never remembered
/// anything says, given the same observation.
#[test]
fn aimaster_proposals_after_a_measured_window_are_rescored() {
    let free: FreePool = [(GpuType::V100, 4), (GpuType::P100, 4)].into_iter().collect();
    let mut master = AiMaster::new(7, JobConfig::new(Workload::NeuMF, 3, 4).with_dataset_len(256));
    master.apply_allocation(vec![(GpuType::V100, 1)]);
    let before = proposal_bits(&master.proposals(&free, 10));
    // Wall-clock mini-batches/s against a catalog estimate: far beyond the
    // 10 % bias that installs a correction.
    assert!(master.run_window().is_none());
    let measured = master.measured_throughput().unwrap();

    let hetero = master.config().determinism.hardware_agnostic;
    let companion = Companion::for_workload(&Workload::NeuMF.spec(), 4, hetero);
    let mut twin = IntraJobScheduler::new(7, companion, hetero);
    twin.apply_allocation(master.allocation().clone());
    twin.companion_mut().observe(master.allocation(), measured);

    let after = proposal_bits(&master.proposals(&free, 10));
    assert_eq!(after, proposal_bits(&proposals_reference(&twin, &free, 10)));
    assert_ne!(after, before, "the correction must have landed for this test to mean anything");
}

proptest! {
    /// The plan database is invisible: for any sequence of allocations,
    /// asked twice over, the remembered throughput is `plan(alloc).throughput`
    /// bit for bit — and still is after `observe()` installs a correction
    /// for one of them (an entry surviving that would now be stale).
    #[test]
    fn remembered_throughput_is_the_planned_throughput(
        caps in caps_strategy(),
        max_p in 1u32..24,
        allocs in prop::collection::vec(raw_alloc_strategy(), 1..8),
        pick in 0usize..8,
        bias in 0.2f64..0.8,
    ) {
        let mut c = Companion::from_caps(caps, max_p);
        for alloc in allocs.iter().chain(&allocs) {
            let (remembered, planned) = throughput_bits(&c, alloc);
            prop_assert_eq!(remembered, planned, "cold or warm, {:?}", alloc);
        }
        let observed = &allocs[pick % allocs.len()];
        if let Some(plan) = c.plan(observed) {
            c.observe(observed, plan.throughput * bias);
            let corrected = c.plan(observed).unwrap().throughput;
            prop_assert!(corrected.to_bits() != plan.throughput.to_bits(), "no correction landed");
        }
        for alloc in &allocs {
            let (remembered, planned) = throughput_bits(&c, alloc);
            prop_assert_eq!(remembered, planned, "after observe({:?}): {:?}", observed, alloc);
        }
    }

    /// The load-only greedy and the placement it is never allowed to drift
    /// from: per type, the plan's `A_i` is the largest slot `placement_for`
    /// builds, and the placement is the per-GPU reference's, rank for rank.
    #[test]
    fn load_only_greedy_matches_the_materialised_placement(
        caps in caps_strategy(),
        max_p in 1u32..24,
        alloc in raw_alloc_strategy(),
    ) {
        let c = Companion::from_caps(caps, max_p);
        let placement = c.placement_for(&alloc);
        prop_assert_eq!(&placement, &placement_reference(&c, &alloc));
        let plan = c.plan(&alloc);
        prop_assert_eq!(plan.is_some(), placement.is_some());
        if let (Some(plan), Some(placement)) = (plan, placement) {
            for (&(ty, _), &a) in alloc.iter().zip(&plan.a) {
                let of_type = placement.slots.iter().filter(|s| s.gpu == ty);
                let largest = of_type.map(|s| s.vranks.len() as u32).max().unwrap_or(0);
                prop_assert_eq!(a, largest, "{} in {:?}", ty, alloc);
            }
        }
    }

    /// `proposals()` through the plan database returns exactly what the
    /// straight-line reference returns — element for element, bits included
    /// — cold, warm, after the allocation changes, and after a correction.
    #[test]
    fn proposals_equal_the_uncached_reference(
        caps in caps_strategy(),
        max_p in 1u32..20,
        hetero in any::<bool>(),
        counts in (0u32..5, 0u32..5, 0u32..5),
        order in Just(vec![0usize, 1, 2]).prop_shuffle(),
        frees in prop::collection::vec(free_strategy(), 1..4),
        top_k in 0usize..6,
        bias in 0.2f64..0.8,
    ) {
        let counts = [counts.0, counts.1, counts.2];
        // Entry order permuted, zero counts kept; a job without D2 holds one
        // type only.
        let keep = if hetero { order.len() } else { 1 };
        let alloc: Alloc = order[..keep].iter().map(|&i| (GpuType::ALL[i], counts[i])).collect();
        let mut s = IntraJobScheduler::new(3, Companion::from_caps(caps, max_p), hetero);
        let same = |s: &IntraJobScheduler, when: &str| {
            for free in frees.iter().chain(&frees) {
                let got = proposal_bits(&s.proposals(free, top_k));
                let want = proposal_bits(&proposals_reference(s, free, top_k));
                assert_eq!(got, want, "{when}: {:?} against {free:?}", s.current());
            }
        };
        same(&s, "holding nothing");
        s.apply_allocation(alloc.clone());
        same(&s, "after apply_allocation");
        if let Some(thr) = s.current_throughput() {
            s.companion_mut().observe(&alloc, thr * bias);
            same(&s, "after a correction");
        }
        s.apply_preemption(alloc[0].0, 1);
        same(&s, "after a preemption");
    }

    /// The Eq 1 identity `throughput = maxP / f_overload` holds for every
    /// balanced plan over every capability vector and allocation.
    #[test]
    fn eq1_identity(caps in caps_strategy(), alloc in alloc_strategy(), max_p in 1u32..32) {
        prop_assume!(!alloc.is_empty());
        let c = Companion::from_caps(caps, max_p);
        let plan = c.plan(&alloc).unwrap();
        prop_assert!((plan.throughput - max_p as f64 / plan.f_overload).abs() < 1e-6,
            "identity broken: {plan:?}");
    }

    /// Waste is never negative, and throughput never exceeds aggregate
    /// capability.
    #[test]
    fn waste_and_throughput_bounds(caps in caps_strategy(), alloc in alloc_strategy(), max_p in 1u32..32) {
        prop_assume!(!alloc.is_empty());
        let c = Companion::from_caps(caps.clone(), max_p);
        let plan = c.plan(&alloc).unwrap();
        let total_cap: f64 = alloc.iter().map(|&(ty, n)| n as f64 * caps[&ty]).sum();
        prop_assert!(plan.waste >= -1e-9, "negative waste: {plan:?}");
        prop_assert!(plan.throughput <= total_cap + 1e-9, "thr beyond capability: {plan:?}");
        prop_assert!(plan.throughput > 0.0);
    }

    /// The balanced plan is at least as good as any uniform per-type
    /// assignment (the balancer is not worse than naive splitting).
    #[test]
    fn balanced_plan_dominates_uniform(caps in caps_strategy(), alloc in alloc_strategy(), max_p in 1u32..16) {
        prop_assume!(!alloc.is_empty());
        let c = Companion::from_caps(caps, max_p);
        let plan = c.plan(&alloc).unwrap();
        let total_gpus: u32 = alloc.iter().map(|&(_, n)| n).sum();
        let uniform_a: Vec<u32> = alloc.iter().map(|_| max_p.div_ceil(total_gpus)).collect();
        let uniform = c.evaluate(&alloc, &uniform_a);
        prop_assert!(plan.throughput >= uniform.throughput - 1e-9,
            "balanced {} < uniform {}", plan.throughput, uniform.throughput);
    }

    /// placement_for always yields a valid placement covering exactly maxP
    /// virtual ranks.
    #[test]
    fn placements_are_valid(caps in caps_strategy(), alloc in alloc_strategy(), max_p in 1u32..24) {
        prop_assume!(!alloc.is_empty());
        let c = Companion::from_caps(caps, max_p);
        let placement = c.placement_for(&alloc).unwrap();
        prop_assert!(placement.validate(max_p).is_ok());
        let total_gpus: u32 = alloc.iter().map(|&(_, n)| n).sum();
        prop_assert!(placement.n_workers() as u32 <= total_gpus);
    }

    /// The inter-job scheduler never over-grants: granted resources are
    /// always within the free table.
    #[test]
    fn grants_never_exceed_free(
        free_v in 0u32..16,
        props in prop::collection::vec((0u64..8, 1u32..8, 0.1f64..10.0), 0..12),
    ) {
        let mut free: BTreeMap<GpuType, u32> = [(GpuType::V100, free_v)].into_iter().collect();
        let proposals = props
            .into_iter()
            .map(|(job, count, spg)| sched::ResourceProposal {
                job,
                add_type: GpuType::V100,
                add_count: count,
                new_throughput: 0.0,
                speedup_total: spg * count as f64,
                speedup_per_gpu: spg,
            })
            .collect();
        let grants = InterJobScheduler.decide(proposals, &mut free);
        let granted: u32 = grants.iter().map(|g| g.count).sum();
        prop_assert!(granted + free[&GpuType::V100] == free_v);
        // At most one grant per job.
        let mut jobs: Vec<u64> = grants.iter().map(|g| g.job).collect();
        jobs.sort_unstable();
        jobs.dedup();
        prop_assert_eq!(jobs.len(), grants.len());
    }

    /// The hash-order hazard this workspace's `FreePool = BTreeMap` closed
    /// (detlint rule `no-hash-iter`): proposals must be *byte-identical* no
    /// matter what order the free table was populated in. With a hash map
    /// the insertion order (via hasher state) could leak into proposal
    /// order and, through grants, into placements.
    #[test]
    fn proposals_ignore_free_pool_insertion_order(
        caps in caps_strategy(),
        max_p in 1u32..16,
        counts in (0u32..12, 0u32..12, 0u32..12),
        perm in 0usize..6,
    ) {
        let entries = [
            (GpuType::V100, counts.0),
            (GpuType::P100, counts.1),
            (GpuType::T4, counts.2),
        ];
        // All 3! = 6 insertion orders of the same logical pool.
        let orders: [[usize; 3]; 6] =
            [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        let mut shuffled = sched::FreePool::new();
        for &i in &orders[perm] {
            shuffled.insert(entries[i].0, entries[i].1);
        }
        let canonical: sched::FreePool = entries.into_iter().collect();

        let s = IntraJobScheduler::new(0, Companion::from_caps(caps, max_p), true);
        let a = serde_json::to_string(&s.proposals(&shuffled, 10)).unwrap();
        let b = serde_json::to_string(&s.proposals(&canonical, 10)).unwrap();
        prop_assert_eq!(a, b, "proposal bytes depend on free-pool insertion order");
    }

    /// Proposals never suggest more than maxP GPUs in one increment and are
    /// always strictly beneficial.
    #[test]
    fn proposals_are_bounded_and_beneficial(caps in caps_strategy(), max_p in 1u32..16, avail in 1u32..64) {
        let c = Companion::from_caps(caps, max_p);
        let s = IntraJobScheduler::new(0, c, true);
        let free: BTreeMap<GpuType, u32> =
            [(GpuType::V100, avail), (GpuType::P100, avail), (GpuType::T4, avail)].into_iter().collect();
        for p in s.proposals(&free, 10) {
            prop_assert!(p.add_count <= max_p.max(1));
            prop_assert!(p.speedup_total > 0.0);
            prop_assert!(p.speedup_per_gpu > 0.0);
        }
    }

    /// The health-event log is invariant under heartbeat *publication*
    /// order: beats reach the bus in whatever order worker threads race
    /// them in, but `drain_sorted` canonicalizes, so any permutation of
    /// each round's beats yields a byte-identical log — the property that
    /// keeps failure detection deterministic at all.
    #[test]
    fn health_log_ignores_heartbeat_publication_order(
        behaviors in prop::collection::vec(
            prop::collection::vec((any::<bool>(), any::<bool>()), 4),
            1..10,
        ),
        order in Just(vec![0u32, 1, 2, 3]).prop_shuffle(),
    ) {
        const LEASE: u64 = 1_000_000;
        const ROUND: u64 = 600_000;
        let run = |device_order: &[u32]| -> String {
            let mut bus = HeartbeatBus::new();
            let mut tracker = HealthTracker::new(HealthPolicy::with_lease(LEASE));
            for &d in device_order {
                tracker.register(d, 0);
            }
            for (r, round) in behaviors.iter().enumerate() {
                let now = (r as u64 + 1) * ROUND;
                for &d in device_order {
                    let (beats, slow) = round[d as usize];
                    if beats {
                        bus.publish(Heartbeat {
                            device: d,
                            step: r as u64,
                            sent_at_us: now,
                            step_time_us: Some(if slow { 1_600_000 } else { 1_000_000 }),
                        });
                    }
                }
                for beat in bus.drain_sorted() {
                    tracker.observe(&beat);
                }
                tracker.end_of_round(now);
            }
            serde_json::to_string(tracker.events()).unwrap()
        };
        let canonical = run(&[0, 1, 2, 3]);
        let shuffled = run(&order);
        prop_assert_eq!(canonical, shuffled,
            "publication order {:?} leaked into the health log", order);
    }

    /// Repeat-run determinism of the detector: the same beat trace always
    /// produces the same event log, byte for byte (no interior hash state,
    /// no wall clock, no ambient randomness).
    #[test]
    fn health_log_is_byte_identical_across_repeat_runs(
        behaviors in prop::collection::vec(
            prop::collection::vec((any::<bool>(), any::<bool>()), 3),
            1..12,
        ),
    ) {
        const LEASE: u64 = 800_000;
        let run = || -> String {
            let mut tracker = HealthTracker::new(HealthPolicy::with_lease(LEASE));
            for d in 0..3u32 {
                tracker.register(d, 0);
            }
            for (r, round) in behaviors.iter().enumerate() {
                let now = (r as u64 + 1) * 500_000;
                for (d, &(beats, slow)) in round.iter().enumerate() {
                    if beats {
                        tracker.observe(&Heartbeat {
                            device: d as u32,
                            step: r as u64,
                            sent_at_us: now,
                            step_time_us: Some(if slow { 900_000 } else { 500_000 }),
                        });
                    }
                }
                tracker.end_of_round(now);
            }
            serde_json::to_string(tracker.events()).unwrap()
        };
        prop_assert_eq!(run(), run());
    }
}
