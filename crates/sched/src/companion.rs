//! The companion module: the plan database + the Eq 1 analytical model.
//!
//! Equation 1 of the paper, as implemented (the per-type waste term carries
//! the GPU count `N_i`, which makes the algebra close — see
//! [`Plan::throughput`]'s invariant `throughput = maxP / f_overload`):
//!
//! ```text
//! nEST       = Σ_i N_i·A_i                      with nEST ≥ maxP       (1a)
//! f_overload = max_{i: N_i>0} A_i / C_i                                 (1b)
//! waste      = Σ_{i: N_i>0} N_i·(C_i − A_i/f_overload)
//!            + (nEST − maxP)/f_overload                                 (1c)
//! throughput = Σ_i N_i·C_i − waste                                      (1d)
//! ```
//!
//! Intuition: Sync-SGD paces every global step by the slowest GPU
//! (`f_overload` seconds per global step); a GPU of type i that hosts `A_i`
//! ESTs contributes `A_i` mini-batches per global step, so capability beyond
//! `A_i / f_overload` is wasted; over-provisioned EST slots (the integer
//! slack above `maxP`) are waste too.

use device::GpuType;
use easyscale::{Placement, Slot};
use models::WorkloadSpec;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// An allocation: GPU count per type (types with zero count omitted).
pub type Alloc = Vec<(GpuType, u32)>;

/// One scheduling plan: an allocation plus its EST assignment and estimated
/// throughput.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// GPU counts per type.
    pub alloc: Alloc,
    /// Max ESTs per GPU of each type (aligned with `alloc`).
    pub a: Vec<u32>,
    /// Total EST slots (≥ maxP).
    pub n_est: u32,
    /// Seconds per global step (Eq 1b).
    pub f_overload: f64,
    /// Wasted capability, mini-batches/s (Eq 1c).
    pub waste: f64,
    /// Estimated throughput, local mini-batches/s (Eq 1d).
    pub throughput: f64,
}

/// The per-job companion module (§3.4): capabilities, maxP, the
/// observed-throughput corrections, and the plan database the intra-job
/// scheduler queries.
///
/// The database remembers `allocation → estimated throughput` for every
/// allocation scored so far ([`Companion::throughput`]). Its key is the
/// allocation *in entry order*, zero-count entries included: Eq 1's sums
/// run in that order, so two orderings of one multiset may differ in the
/// last bit and are two entries. It is emptied whenever [`Companion::observe`]
/// installs a correction and when the job finishes
/// ([`crate::IntraJobScheduler::retire`]); otherwise it lives as long as the
/// companion, bounded by the allocations the job was ever scored on.
#[derive(Debug, Clone)]
pub struct Companion {
    caps: BTreeMap<GpuType, f64>,
    max_p: u32,
    /// Multiplicative correction per allocation, updated from observed
    /// throughput reports (starts at 1.0).
    corrections: BTreeMap<Alloc, f64>,
    /// The plan database. Ordered map (this is the deterministic path), and
    /// behind a `RefCell` because a query through `&self` may add a row;
    /// what a query returns never depends on what is remembered.
    plans: RefCell<BTreeMap<PlanKey, f64>>,
}

/// A plan-database key: the allocation in entry order, its first
/// [`PACKED_ENTRIES`] entries packed into one integer and the rest verbatim.
/// A scheduler lists each GPU type once, so the rest is empty (no heap) and
/// a lookup compares words instead of chasing one vector per tree level —
/// the database is queried a few hundred times per simulated event.
type PlanKey = (u128, Alloc);

/// How many entries a `u128` holds at 40 bits each: 8 for the type, stored
/// one-based so that an absent entry differs from every present one, and
/// 32 for the count.
const PACKED_ENTRIES: usize = 3;

fn plan_key(alloc: &Alloc) -> PlanKey {
    let (head, rest) = alloc.split_at(alloc.len().min(PACKED_ENTRIES));
    let pack = |key, &(ty, n): &(GpuType, u32)| (key << 40) | ((ty as u128 + 1) << 32) | n as u128;
    (head.iter().fold(0, pack), rest.to_vec())
}

impl Companion {
    /// Companion for a workload: capabilities from the catalog.
    /// `hetero_d2` selects D2 (hardware-agnostic) kernel capabilities — used
    /// when the job will mix GPU types.
    pub fn for_workload(spec: &WorkloadSpec, max_p: u32, hetero_d2: bool) -> Self {
        let caps = GpuType::ALL.iter().map(|&g| (g, spec.capability(g, hetero_d2))).collect();
        Self::from_caps(caps, max_p)
    }

    /// Companion from explicit capabilities.
    pub fn from_caps(caps: BTreeMap<GpuType, f64>, max_p: u32) -> Self {
        Companion { caps, max_p, corrections: BTreeMap::new(), plans: RefCell::default() }
    }

    /// The job's maxP.
    pub fn max_p(&self) -> u32 {
        self.max_p
    }

    /// Capability of one GPU of `ty` (mini-batches/s).
    pub fn capability(&self, ty: GpuType) -> f64 {
        self.caps.get(&ty).copied().unwrap_or(0.0)
    }

    /// The greedy balance both [`Companion::plan`] and
    /// [`Companion::placement_for`] derive from: each of the maxP virtual
    /// ranks goes to the GPU whose resulting load/capability is smallest,
    /// the first such GPU on a tie. One implementation, so scored plans and
    /// executed placements can never drift apart.
    ///
    /// GPUs are numbered in entry order, and only *loads* are tracked: the
    /// GPUs of one entry fill round-robin (they share a capability, and the
    /// first minimum wins), so an entry's state is the load every GPU of it
    /// has reached and how many are one above. `place(gpu, rank)` sees every
    /// choice in order — a placement builds its rank lists from it, a plan
    /// passes a no-op. Returns the largest per-GPU load of each entry, or
    /// `None` for an allocation without GPUs.
    fn balance(&self, alloc: &Alloc, mut place: impl FnMut(usize, u32)) -> Option<Vec<u32>> {
        struct Entry {
            cap: f64,
            gpus: u32,
            first_gpu: usize,
            load: u32,
            above: u32,
        }
        let mut total_gpus = 0usize;
        let mut entries: Vec<Entry> = Vec::with_capacity(alloc.len());
        for &(ty, gpus) in alloc {
            let cap = self.capability(ty).max(1e-12);
            entries.push(Entry { cap, gpus, first_gpu: total_gpus, load: 0, above: 0 });
            total_gpus += gpus as usize;
        }
        if total_gpus == 0 {
            return None;
        }
        for r in 0..self.max_p {
            // Argmin by strict `<`: costs are strictly positive, so this
            // picks the first minimum exactly like a total-order comparator
            // would, without per-pair comparator overhead on the hot path.
            let mut best = 0;
            let mut best_cost = f64::INFINITY;
            for (i, e) in entries.iter().enumerate() {
                let cost = (e.load + 1) as f64 / e.cap;
                if e.gpus > 0 && cost < best_cost {
                    best = i;
                    best_cost = cost;
                }
            }
            let e = &mut entries[best];
            place(e.first_gpu + e.above as usize, r);
            e.above += 1;
            if e.above == e.gpus {
                e.load += 1;
                e.above = 0;
            }
        }
        Some(entries.iter().map(|e| e.load + u32::from(e.above > 0)).collect())
    }

    /// The load-balanced plan for an allocation: ESTs distributed greedily
    /// to equalize per-GPU load, then evaluated with Eq 1. Returns `None`
    /// for an empty allocation. Always computes; [`Companion::throughput`]
    /// is the remembered form.
    pub fn plan(&self, alloc: &Alloc) -> Option<Plan> {
        let loads = self.balance(alloc, |_, _| {})?;
        // A_i = max assignment over GPUs of type i (a type may be listed in
        // more than one entry).
        let a: Vec<u32> = alloc
            .iter()
            .map(|&(ty, _)| {
                let of_type = alloc.iter().zip(&loads).filter(|(&(t, _), _)| t == ty);
                of_type.map(|(_, &load)| load).max().unwrap_or(0)
            })
            .collect();
        Some(self.evaluate(alloc, &a))
    }

    /// `plan(alloc).throughput`, bit for bit, through the plan database:
    /// computed on the first query of an allocation, remembered after.
    pub fn throughput(&self, alloc: &Alloc) -> Option<f64> {
        if alloc.is_empty() {
            return None;
        }
        let key = plan_key(alloc);
        if let Some(&known) = self.plans.borrow().get(&key) {
            return Some(known);
        }
        let throughput = self.plan(alloc)?.throughput;
        self.plans.borrow_mut().insert(key, throughput);
        Some(throughput)
    }

    /// Evaluate Eq 1 for an explicit per-type assignment `a`.
    pub fn evaluate(&self, alloc: &Alloc, a: &[u32]) -> Plan {
        assert_eq!(alloc.len(), a.len(), "assignment/alloc length mismatch");
        let n_est: u32 = alloc.iter().zip(a).map(|(&(_, n), &ai)| n * ai).sum();
        let f_overload = alloc
            .iter()
            .zip(a)
            .filter(|(&(_, n), &ai)| n > 0 && ai > 0)
            .map(|(&(ty, _), &ai)| ai as f64 / self.capability(ty).max(1e-12))
            .fold(0.0f64, f64::max);
        let total_cap: f64 = alloc.iter().map(|&(ty, n)| n as f64 * self.capability(ty)).sum();
        let (waste, throughput) = if f_overload > 0.0 {
            let per_type: f64 = alloc
                .iter()
                .zip(a)
                .filter(|(&(_, n), _)| n > 0)
                .map(|(&(ty, n), &ai)| n as f64 * (self.capability(ty) - ai as f64 / f_overload))
                .sum();
            let over = (n_est.saturating_sub(self.max_p)) as f64 / f_overload;
            let waste = per_type + over;
            (waste, total_cap - waste)
        } else {
            (total_cap, 0.0)
        };
        let correction = self.corrections.get(alloc).copied().unwrap_or(1.0);
        Plan {
            alloc: alloc.clone(),
            a: a.to_vec(),
            n_est,
            f_overload,
            waste,
            throughput: throughput * correction,
        }
    }

    /// Report an observed throughput for an allocation; the companion
    /// updates its correction when the bias is significant (>10%), as the
    /// paper's companion "actively updates the database once it has
    /// monitored significant biases".
    pub fn observe(&mut self, alloc: &Alloc, observed: f64) {
        if let Some(plan) = self.plan(alloc) {
            if plan.throughput > 0.0 {
                let bias = observed / plan.throughput;
                if (bias - 1.0).abs() > 0.10 {
                    let c = self.corrections.entry(alloc.clone()).or_insert(1.0);
                    *c *= bias;
                    // Remembered throughputs were scored without it.
                    self.forget_plans();
                }
            }
        }
    }

    /// Empty the plan database (and free it: a finished job's companion
    /// may outlive the job by a whole simulation).
    pub(crate) fn forget_plans(&mut self) {
        self.plans.get_mut().clear();
    }

    /// Materialize a plan as an engine [`Placement`]: virtual ranks 0..maxP
    /// distributed with the exact greedy balance the plan was scored with
    /// (both derive from [`Companion::balance`]; the rank lists exist only
    /// here).
    pub fn placement_for(&self, alloc: &Alloc) -> Option<Placement> {
        let mut slots: Vec<Slot> = alloc
            .iter()
            .flat_map(|&(gpu, n)| (0..n).map(move |_| Slot { gpu, vranks: Vec::new() }))
            .collect();
        self.balance(alloc, |gpu, rank| slots[gpu].vranks.push(rank))?;
        slots.retain(|s| !s.vranks.is_empty());
        Some(Placement { slots })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps() -> BTreeMap<GpuType, f64> {
        // V100: 10 mb/s, P100: 5, T4: 4.
        [(GpuType::V100, 10.0), (GpuType::P100, 5.0), (GpuType::T4, 4.0)].into_iter().collect()
    }

    #[test]
    fn throughput_equals_maxp_over_overload() {
        // The Eq 1 algebraic identity.
        let c = Companion::from_caps(caps(), 8);
        for alloc in [
            vec![(GpuType::V100, 2)],
            vec![(GpuType::V100, 1), (GpuType::P100, 2)],
            vec![(GpuType::V100, 2), (GpuType::P100, 1), (GpuType::T4, 1)],
        ] {
            let p = c.plan(&alloc).unwrap();
            assert!(
                (p.throughput - c.max_p() as f64 / p.f_overload).abs() < 1e-9,
                "identity violated for {alloc:?}: {p:?}"
            );
        }
    }

    #[test]
    fn single_fast_gpu_runs_at_capability() {
        let c = Companion::from_caps(caps(), 8);
        let p = c.plan(&vec![(GpuType::V100, 1)]).unwrap();
        assert_eq!(p.a, vec![8]);
        assert!((p.throughput - 10.0).abs() < 1e-9, "1 GPU, no sync waste: {p:?}");
        assert!((p.waste - 0.0).abs() < 1e-9);
    }

    #[test]
    fn balanced_heterogeneous_assignment() {
        // maxP=8 on 1 V100 (10) + 2 P100 (5): balance gives V100 4 ESTs,
        // P100s 2 each → f = 0.4, throughput = 20.
        let c = Companion::from_caps(caps(), 8);
        let p = c.plan(&vec![(GpuType::V100, 1), (GpuType::P100, 2)]).unwrap();
        assert_eq!(p.a, vec![4, 2]);
        assert!((p.throughput - 20.0).abs() < 1e-9, "{p:?}");
        assert_eq!(p.n_est, 8);
    }

    #[test]
    fn slow_gpu_is_left_idle_when_it_would_bottleneck() {
        // maxP=2 on 1 V100 (10 mb/s) + 1 T4 (4 mb/s): splitting 1/1 would
        // pace the step at the T4 (thr 8); stacking both on the V100 yields
        // thr 10 — the balancer prefers it, and the idle T4 is pure waste.
        let c = Companion::from_caps(caps(), 2);
        let p = c.plan(&vec![(GpuType::V100, 1), (GpuType::T4, 1)]).unwrap();
        assert_eq!(p.a, vec![2, 0]);
        assert!((p.f_overload - 0.2).abs() < 1e-12, "V100 with 2 ESTs paces the step");
        assert!((p.throughput - 10.0).abs() < 1e-9, "{p:?}");
        assert!((p.waste - 4.0).abs() < 1e-9, "the idle T4's full capability is wasted: {p:?}");
        // Cross-check against the explicit 1/1 split the balancer rejected.
        let split = c.evaluate(&vec![(GpuType::V100, 1), (GpuType::T4, 1)], &[1, 1]);
        assert!((split.throughput - 8.0).abs() < 1e-9);
        assert!(split.throughput < p.throughput);
    }

    #[test]
    fn overprovision_counts_as_waste() {
        // maxP=3 on 2 V100s: balance gives a=[2] on one GPU → nEST=4 > 3.
        let c = Companion::from_caps(caps(), 3);
        let p = c.plan(&vec![(GpuType::V100, 2)]).unwrap();
        assert_eq!(p.n_est, 4);
        assert!(p.waste > 0.0);
        assert!((p.throughput - 3.0 / p.f_overload).abs() < 1e-9);
    }

    #[test]
    fn more_gpus_never_hurt_up_to_maxp() {
        let c = Companion::from_caps(caps(), 8);
        let mut last = 0.0;
        for n in 1..=8 {
            let p = c.plan(&vec![(GpuType::V100, n)]).unwrap();
            assert!(p.throughput >= last - 1e-9, "throughput must be monotone: {n} GPUs");
            last = p.throughput;
        }
        // Beyond maxP GPUs, no further gain.
        let p8 = c.plan(&vec![(GpuType::V100, 8)]).unwrap();
        let p12 = c.plan(&vec![(GpuType::V100, 12)]).unwrap();
        assert!(p12.throughput <= p8.throughput + 1e-9);
    }

    #[test]
    fn empty_allocation_has_no_plan() {
        let c = Companion::from_caps(caps(), 4);
        assert!(c.plan(&vec![]).is_none());
        assert!(c.plan(&vec![(GpuType::V100, 0)]).is_none());
    }

    #[test]
    fn observation_corrects_future_estimates() {
        let mut c = Companion::from_caps(caps(), 8);
        let alloc = vec![(GpuType::V100, 2)];
        let before = c.plan(&alloc).unwrap().throughput;
        c.observe(&alloc, before * 0.5); // real job runs at half the estimate
        let after = c.plan(&alloc).unwrap().throughput;
        assert!((after - before * 0.5).abs() / before < 0.01);
        // Small biases are ignored.
        let alloc2 = vec![(GpuType::P100, 1)];
        let b2 = c.plan(&alloc2).unwrap().throughput;
        c.observe(&alloc2, b2 * 1.05);
        assert_eq!(c.plan(&alloc2).unwrap().throughput, b2);
    }

    #[test]
    fn plan_database_keys_are_the_allocation_in_entry_order() {
        let (v, p, t) = (GpuType::V100, GpuType::P100, GpuType::T4);
        let allocs = [
            vec![(v, 1), (p, 2)],
            vec![(p, 2), (v, 1)],         // permuted
            vec![(v, 1), (p, 2), (t, 0)], // a zero-count entry is an entry
            vec![(v, 1), (p, 2), (t, 1)],
            vec![(v, 1), (p, 2), (t, 1), (v, 1)], // beyond the packed prefix
            vec![(v, 1), (p, 2), (t, 1), (v, 3)],
            vec![(v, 0)],
            vec![(v, 0), (v, 0)],
        ];
        for (i, a) in allocs.iter().enumerate() {
            for b in &allocs[i + 1..] {
                assert_ne!(plan_key(a), plan_key(b), "{a:?} and {b:?} share a row");
            }
        }
        // Each row answers for its own allocation, cold and warm.
        let c = Companion::from_caps(caps(), 8);
        for a in allocs.iter().chain(&allocs) {
            let planned = c.plan(a).map(|plan| plan.throughput.to_bits());
            assert_eq!(c.throughput(a).map(f64::to_bits), planned, "{a:?}");
        }
    }

    #[test]
    fn placement_matches_plan_assignment() {
        let c = Companion::from_caps(caps(), 8);
        let alloc = vec![(GpuType::V100, 1), (GpuType::P100, 2)];
        let placement = c.placement_for(&alloc).unwrap();
        placement.validate(8).unwrap();
        // V100 slot gets 4 ranks, P100 slots 2 each.
        let sizes: Vec<usize> = placement.slots.iter().map(|s| s.vranks.len()).collect();
        assert_eq!(sizes, vec![4, 2, 2]);
    }
}
