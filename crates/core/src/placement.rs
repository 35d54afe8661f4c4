//! EST-to-GPU placements.

use device::GpuType;
use serde::{Deserialize, Serialize};

/// One physical worker (one GPU) and the virtual ranks it hosts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Slot {
    /// The GPU type this worker runs on.
    pub gpu: GpuType,
    /// Virtual ranks time-sliced on this worker (executed in this order).
    pub vranks: Vec<u32>,
}

/// A full placement of `nEST` logical workers onto physical workers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    /// Physical worker slots.
    pub slots: Vec<Slot>,
}

impl Placement {
    /// One EST per GPU — the classic DDP configuration (the bitwise
    /// reference every elastic placement must match).
    pub fn one_est_per_gpu(n_ests: u32, gpu: GpuType) -> Self {
        Placement { slots: (0..n_ests).map(|r| Slot { gpu, vranks: vec![r] }).collect() }
    }

    /// Spread `n_ests` round-robin over `n_gpus` identical GPUs.
    pub fn homogeneous(n_ests: u32, n_gpus: u32, gpu: GpuType) -> Self {
        assert!(n_gpus > 0, "need at least one GPU");
        let mut slots: Vec<Slot> = (0..n_gpus).map(|_| Slot { gpu, vranks: Vec::new() }).collect();
        for r in 0..n_ests {
            slots[(r % n_gpus) as usize].vranks.push(r);
        }
        slots.retain(|s| !s.vranks.is_empty());
        Placement { slots }
    }

    /// Explicit heterogeneous placement from `(gpu, ests_here)` pairs;
    /// virtual ranks are assigned contiguously in slot order.
    pub fn heterogeneous(groups: &[(GpuType, u32)]) -> Self {
        let mut slots = Vec::new();
        let mut next = 0u32;
        for &(gpu, count) in groups {
            let vranks = (next..next + count).collect();
            next += count;
            slots.push(Slot { gpu, vranks });
        }
        Placement { slots }
    }

    /// Total EST count.
    pub fn n_ests(&self) -> u32 {
        self.slots.iter().map(|s| s.vranks.len() as u32).sum()
    }

    /// Physical worker count.
    pub fn n_workers(&self) -> usize {
        self.slots.len()
    }

    /// Check the placement covers exactly the ranks `0..n_ests`, each once.
    pub fn validate(&self, n_ests: u32) -> Result<(), String> {
        let mut seen = vec![false; n_ests as usize];
        for s in &self.slots {
            if s.vranks.is_empty() {
                return Err("empty worker slot".into());
            }
            for &r in &s.vranks {
                if r >= n_ests {
                    return Err(format!("vrank {r} out of range 0..{n_ests}"));
                }
                if seen[r as usize] {
                    return Err(format!("vrank {r} placed twice"));
                }
                seen[r as usize] = true;
            }
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("vrank {missing} unplaced"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_per_gpu_is_identity() {
        let p = Placement::one_est_per_gpu(4, GpuType::V100);
        assert_eq!(p.n_workers(), 4);
        assert_eq!(p.n_ests(), 4);
        p.validate(4).unwrap();
    }

    #[test]
    fn homogeneous_round_robins() {
        let p = Placement::homogeneous(4, 2, GpuType::V100);
        assert_eq!(p.slots[0].vranks, vec![0, 2]);
        assert_eq!(p.slots[1].vranks, vec![1, 3]);
        p.validate(4).unwrap();
    }

    #[test]
    fn more_gpus_than_ests_drops_empty_slots() {
        let p = Placement::homogeneous(2, 8, GpuType::T4);
        assert_eq!(p.n_workers(), 2);
        p.validate(2).unwrap();
    }

    #[test]
    fn heterogeneous_assigns_contiguous_ranks() {
        let p =
            Placement::heterogeneous(&[(GpuType::V100, 2), (GpuType::P100, 1), (GpuType::P100, 1)]);
        assert_eq!(p.slots[0].vranks, vec![0, 1]);
        assert_eq!(p.slots[2].vranks, vec![3]);
        p.validate(4).unwrap();
    }

    #[test]
    fn validate_catches_duplicates_and_gaps() {
        let p = Placement {
            slots: vec![
                Slot { gpu: GpuType::V100, vranks: vec![0, 1] },
                Slot { gpu: GpuType::V100, vranks: vec![1] },
            ],
        };
        assert!(p.validate(3).is_err());
        let q = Placement { slots: vec![Slot { gpu: GpuType::V100, vranks: vec![0, 2] }] };
        assert!(q.validate(3).is_err());
    }
}
