//! The intra-job scheduler (paper §3.4, Figure 8).
//!
//! Three roles:
//! * **Role 1** — for the current allocation, query the companion DB and
//!   apply the top-1 EST-to-GPU configuration.
//! * **Role 2** — explore incremental homogeneous scale-outs, estimate the
//!   speedup, and submit the top-K as resource proposals.
//! * **Role 3** — on a cluster decision, scale in/out immediately,
//!   reschedule ESTs (Role 1 again), and keep a slowdown fallback: if added
//!   resources measure slower, release them and revert.

use crate::companion::{Alloc, Companion, Plan};
use device::GpuType;
use easyscale::Placement;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The cluster's free-resource table.
///
/// Deliberately a `BTreeMap`: proposals are formed by walking this table, so
/// its iteration order is part of the deterministic contract (detlint rule
/// `no-hash-iter`). A hash map here would let hasher state leak into
/// proposal order and, through grants, into placements.
pub type FreePool = BTreeMap<GpuType, u32>;

/// A scale-out request submitted to the inter-job scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceProposal {
    /// Requesting job.
    pub job: u64,
    /// Incremental GPUs requested (one type per proposal — the paper's
    /// "incremental homogeneous GPUs").
    pub add_type: GpuType,
    /// How many of them.
    pub add_count: u32,
    /// Estimated total throughput after the grant (mini-batches/s).
    pub new_throughput: f64,
    /// Estimated absolute speedup (new − current throughput).
    pub speedup_total: f64,
    /// Speedup per added GPU — the inter-job scheduler's ranking key.
    pub speedup_per_gpu: f64,
}

/// Per-job scheduler state.
pub struct IntraJobScheduler {
    job: u64,
    companion: Companion,
    current: Alloc,
    /// Throughput of the previous allocation, for the Role-3 fallback.
    previous: Option<(Alloc, f64)>,
    /// If false, only homogeneous allocations are proposed/accepted
    /// (EasyScale's model scan found vendor conv kernels, §3.3).
    hetero_allowed: bool,
    /// For non-hetero jobs: the GPU type the job first ran on. Vendor
    /// kernels differ per type, so switching types mid-training would break
    /// bitwise consistency — the type is pinned for the job's lifetime.
    pinned_type: Option<GpuType>,
}

impl IntraJobScheduler {
    /// New scheduler for `job`.
    pub fn new(job: u64, companion: Companion, hetero_allowed: bool) -> Self {
        IntraJobScheduler {
            job,
            companion,
            current: Vec::new(),
            previous: None,
            hetero_allowed,
            pinned_type: None,
        }
    }

    /// The GPU type a non-hetero job is pinned to (None until first placed,
    /// or always None for hetero-capable jobs).
    pub fn pinned_type(&self) -> Option<GpuType> {
        self.pinned_type
    }

    /// The job id.
    pub fn job(&self) -> u64 {
        self.job
    }

    /// The current allocation.
    pub fn current(&self) -> &Alloc {
        &self.current
    }

    /// Whether heterogeneous allocations are allowed for this job.
    pub fn hetero_allowed(&self) -> bool {
        self.hetero_allowed
    }

    /// The companion module.
    pub fn companion(&self) -> &Companion {
        &self.companion
    }

    /// Mutable companion (throughput observations).
    pub fn companion_mut(&mut self) -> &mut Companion {
        &mut self.companion
    }

    /// Role 1: the best plan for the current allocation.
    pub fn current_plan(&self) -> Option<Plan> {
        self.companion.plan(&self.current)
    }

    /// Role 1: the estimated throughput of the current allocation, read
    /// through the companion's plan database (`None` while the job holds no
    /// GPU).
    pub fn current_throughput(&self) -> Option<f64> {
        self.companion.throughput(&self.current)
    }

    /// Role 1: the EST-to-GPU mapping for the current allocation.
    pub fn current_placement(&self) -> Option<Placement> {
        self.companion.placement_for(&self.current)
    }

    /// Role 2: form up to `top_k` scale-out proposals against the free
    /// resources, trying incremental counts (1, 2, 4, …) of each type.
    pub fn proposals(&self, free: &FreePool, top_k: usize) -> Vec<ResourceProposal> {
        let current_thr = self.current_throughput().unwrap_or(0.0);
        // Homogeneous constraint: once the job has ever run on a type, only
        // that type may be proposed — vendor kernels differ bitwise across
        // types and this job has no D2.
        let only = if self.hetero_allowed {
            None
        } else {
            self.pinned_type.or_else(|| self.current.iter().find(|&&(_, n)| n > 0).map(|&(t, _)| t))
        };
        // Never propose more GPUs than maxP: beyond one EST per GPU extra
        // devices add nothing (Eq 1a).
        let useful = self.companion.max_p();
        let mut out: Vec<ResourceProposal> = Vec::new();
        // Every candidate is the current allocation with one count raised (a
        // type not held yet goes last): one scratch copy, edited in place.
        let mut candidate = Alloc::new();
        for &ty in &GpuType::ALL {
            let avail = free.get(&ty).copied().unwrap_or(0);
            if avail == 0 || only.is_some_and(|t| t != ty) {
                continue;
            }
            candidate.clone_from(&self.current);
            let at = candidate.iter().position(|&(t, _)| t == ty).unwrap_or(candidate.len());
            if at == candidate.len() {
                candidate.push((ty, 0));
            }
            let held = candidate[at].1;
            let mut add = 1u32;
            while add <= avail.min(useful) {
                candidate[at].1 = held + add;
                if let Some(new_throughput) = self.companion.throughput(&candidate) {
                    let speedup = new_throughput - current_thr;
                    if speedup > 1e-9 {
                        out.push(ResourceProposal {
                            job: self.job,
                            add_type: ty,
                            add_count: add,
                            new_throughput,
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
        if !out.is_empty() {
            obs::counter_add("sched.proposals_total", out.len() as u64);
        }
        out
    }

    /// Role 3: adopt a new allocation (scale in/out). Remembers the previous
    /// allocation's estimate for the slowdown fallback.
    pub fn apply_allocation(&mut self, alloc: Alloc) {
        if !self.hetero_allowed {
            if let Some(&(first_ty, _)) = alloc.iter().find(|&&(_, n)| n > 0) {
                let pinned = *self.pinned_type.get_or_insert(first_ty);
                assert!(
                    alloc.iter().all(|&(ty, n)| n == 0 || ty == pinned),
                    "job {} is pinned to {pinned} (no D2): rejected {alloc:?}",
                    self.job
                );
            }
        }
        let prev_thr = self.current_throughput().unwrap_or(0.0);
        self.previous = Some((std::mem::take(&mut self.current), prev_thr));
        // Allocation churn (Fig 16's reconfiguration activity): count only
        // real changes, not the simulator's re-apply of the same allocation.
        if self.previous.as_ref().is_some_and(|(old, _)| *old != alloc) {
            obs::counter_add("sched.allocation_changes", 1);
        }
        self.current = alloc;
    }

    /// Role 3, scale to zero: give back every GPU held and return what that
    /// was. Holding nothing, this is not an allocation change.
    pub fn release(&mut self) -> Alloc {
        let held = self.current.clone();
        if !held.is_empty() {
            self.apply_allocation(Vec::new());
        }
        held
    }

    /// The job is over: release its GPUs and the companion's remembered
    /// plans, which nothing will query again.
    pub fn retire(&mut self) {
        self.release();
        self.companion.forget_plans();
    }

    /// Override the throughput recorded for the previous allocation with a
    /// *measured* value, so [`IntraJobScheduler::fallback_if_slower`]
    /// compares like units (measured vs measured) instead of a wall-clock
    /// measurement against a catalog estimate.
    pub fn set_previous_throughput(&mut self, measured: f64) {
        if let Some((_, thr)) = &mut self.previous {
            *thr = measured;
        }
    }

    /// Graceful degradation under preemption: the cluster revoked `count`
    /// GPUs of `ty` from this job with no negotiation (spot reclaim,
    /// serving-side co-location surge). The allocation shrinks in place —
    /// but never below one GPU while the job holds any, so an EasyScale job
    /// degrades to time-slicing all its ESTs on the survivor instead of
    /// failing like gang-scheduled Sync-SGD (paper §2.1). Returns the new
    /// allocation; the caller reschedules ESTs onto it (Role 1).
    pub fn apply_preemption(&mut self, ty: GpuType, count: u32) -> Alloc {
        let had_any = self.current.iter().any(|&(_, n)| n > 0);
        let mut alloc = std::mem::take(&mut self.current);
        if let Some(slot) = alloc.iter_mut().find(|(t, _)| *t == ty) {
            slot.1 = slot.1.saturating_sub(count);
        }
        alloc.retain(|&(_, n)| n > 0);
        if had_any && alloc.is_empty() {
            // Degradation floor: keep one survivor GPU of the revoked type
            // (the reclaimer takes count-1; a full park would need the
            // inter-job scheduler to re-admit the job later).
            alloc.push((ty, 1));
        }
        obs::counter_add("sched.preemptions_total", 1);
        obs::gauge_set(
            "sched.gpus_after_preemption",
            alloc.iter().map(|&(_, n)| n).sum::<u32>() as f64,
        );
        // Throughput memory from before the preemption is meaningless for
        // the fallback comparison; drop it.
        self.previous = None;
        self.current = alloc.clone();
        alloc
    }

    /// Role 3 fallback: after observing `measured` throughput on the current
    /// (recently grown) allocation, fall back to the previous allocation if
    /// the new one is actually slower. Returns the released allocation diff
    /// if a fallback happened. Only meaningful when the previous throughput
    /// was set from a measurement of the same kind (see
    /// [`IntraJobScheduler::set_previous_throughput`]).
    pub fn fallback_if_slower(&mut self, measured: f64) -> Option<Alloc> {
        let (prev_alloc, prev_thr) = self.previous.clone()?;
        if measured + 1e-9 < prev_thr {
            let released = diff_alloc(&self.current, &prev_alloc);
            self.current = prev_alloc;
            self.previous = None;
            Some(released)
        } else {
            None
        }
    }
}

/// `a − b` per type (types where a has more GPUs than b).
fn diff_alloc(a: &Alloc, b: &Alloc) -> Alloc {
    let mut out = Vec::new();
    for &(ty, na) in a {
        let nb = b.iter().find(|&&(t, _)| t == ty).map(|&(_, n)| n).unwrap_or(0);
        if na > nb {
            out.push((ty, na - nb));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn companion(max_p: u32) -> Companion {
        let caps =
            [(GpuType::V100, 10.0), (GpuType::P100, 5.0), (GpuType::T4, 4.0)].into_iter().collect();
        Companion::from_caps(caps, max_p)
    }

    fn free(v: u32, p: u32, t: u32) -> FreePool {
        [(GpuType::V100, v), (GpuType::P100, p), (GpuType::T4, t)].into_iter().collect()
    }

    #[test]
    fn empty_job_proposes_first_gpu() {
        let s = IntraJobScheduler::new(1, companion(8), true);
        let props = s.proposals(&free(4, 4, 4), 3);
        assert!(!props.is_empty());
        // Best first proposal: the fastest type.
        assert_eq!(props[0].add_type, GpuType::V100);
        assert!(props[0].speedup_per_gpu > 0.0);
    }

    #[test]
    fn homogeneous_constraint_filters_types() {
        let mut s = IntraJobScheduler::new(1, companion(8), false);
        s.apply_allocation(vec![(GpuType::P100, 2)]);
        let props = s.proposals(&free(4, 4, 4), 10);
        assert!(props.iter().all(|p| p.add_type == GpuType::P100), "homo jobs grow in kind");
    }

    #[test]
    fn hetero_jobs_may_mix() {
        let mut s = IntraJobScheduler::new(1, companion(8), true);
        s.apply_allocation(vec![(GpuType::V100, 1)]);
        let props = s.proposals(&free(0, 4, 4), 10);
        assert!(props.iter().any(|p| p.add_type != GpuType::V100));
    }

    #[test]
    fn no_proposals_beyond_maxp_benefit() {
        let mut s = IntraJobScheduler::new(1, companion(2), true);
        s.apply_allocation(vec![(GpuType::V100, 2)]);
        // 2 ESTs on 2 V100s is already optimal; more GPUs add nothing.
        let props = s.proposals(&free(8, 0, 0), 10);
        assert!(props.is_empty(), "{props:?}");
    }

    #[test]
    fn proposals_are_ranked_by_speedup_per_gpu() {
        let s = IntraJobScheduler::new(1, companion(8), true);
        let props = s.proposals(&free(8, 8, 8), 10);
        for w in props.windows(2) {
            assert!(w[0].speedup_per_gpu >= w[1].speedup_per_gpu);
        }
    }

    #[test]
    fn fallback_reverts_and_releases() {
        let mut s = IntraJobScheduler::new(1, companion(8), true);
        s.apply_allocation(vec![(GpuType::V100, 2)]);
        let thr2 = s.current_plan().unwrap().throughput;
        s.apply_allocation(vec![(GpuType::V100, 2), (GpuType::T4, 2)]);
        // Measured slower than the 2-GPU estimate: fall back.
        let released = s.fallback_if_slower(thr2 * 0.8).expect("must fall back");
        assert_eq!(released, vec![(GpuType::T4, 2)]);
        assert_eq!(s.current(), &vec![(GpuType::V100, 2)]);
        // No previous left: further fallback is a no-op.
        assert!(s.fallback_if_slower(0.0).is_none());
    }

    #[test]
    fn preemption_shrinks_in_place() {
        let mut s = IntraJobScheduler::new(1, companion(8), true);
        s.apply_allocation(vec![(GpuType::V100, 4), (GpuType::T4, 2)]);
        let alloc = s.apply_preemption(GpuType::V100, 3);
        assert_eq!(alloc, vec![(GpuType::V100, 1), (GpuType::T4, 2)]);
        assert_eq!(s.current(), &alloc);
    }

    #[test]
    fn preemption_never_drops_below_one_gpu() {
        let mut s = IntraJobScheduler::new(1, companion(8), false);
        s.apply_allocation(vec![(GpuType::P100, 2)]);
        let alloc = s.apply_preemption(GpuType::P100, 5);
        assert_eq!(alloc, vec![(GpuType::P100, 1)], "degrades to a single survivor, never parks");
        // Repeated preemption of the survivor still leaves one.
        let alloc = s.apply_preemption(GpuType::P100, 1);
        assert_eq!(alloc, vec![(GpuType::P100, 1)]);
    }

    #[test]
    fn preemption_of_absent_type_is_a_noop_shrink() {
        let mut s = IntraJobScheduler::new(1, companion(8), true);
        s.apply_allocation(vec![(GpuType::V100, 2)]);
        let alloc = s.apply_preemption(GpuType::T4, 4);
        assert_eq!(alloc, vec![(GpuType::V100, 2)]);
    }

    #[test]
    fn preemption_clears_fallback_memory() {
        let mut s = IntraJobScheduler::new(1, companion(8), true);
        s.apply_allocation(vec![(GpuType::V100, 2)]);
        s.apply_allocation(vec![(GpuType::V100, 4)]);
        s.apply_preemption(GpuType::V100, 2);
        // No stale "previous" to fall back to after a forced shrink.
        assert!(s.fallback_if_slower(0.0).is_none());
    }

    #[test]
    fn fallback_keeps_faster_allocations() {
        let mut s = IntraJobScheduler::new(1, companion(8), true);
        s.apply_allocation(vec![(GpuType::V100, 2)]);
        let thr2 = s.current_plan().unwrap().throughput;
        s.apply_allocation(vec![(GpuType::V100, 4)]);
        assert!(s.fallback_if_slower(thr2 * 1.5).is_none());
        assert_eq!(s.current(), &vec![(GpuType::V100, 4)]);
    }
}
