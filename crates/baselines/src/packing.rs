//! Gandiva-style worker packing: run N independent training processes on
//! one GPU, each with its own CUDA context, parameters, optimizer state,
//! activations, and gradients.
//!
//! Packing *is* accuracy-consistent (each logical worker really exists), so
//! it is the honest alternative to EasyScale's EST time-slicing — it just
//! pays N× the memory (Fig 10's rising curve and OOM crosses) in exchange
//! for a modest concurrency throughput bonus (≤1.11×).

use device::memory::WorkloadFootprint;
use device::{GpuType, MemoryModel, OomError, PerfModel, CUDA_CONTEXT_BYTES};
use models::WorkloadSpec;

/// Memory/throughput simulator for worker packing vs EasyScale sharing.
#[derive(Debug, Clone)]
pub struct PackingSim {
    footprint: WorkloadFootprint,
    base_secs: f64,
    gpu: GpuType,
    perf: PerfModel,
}

impl PackingSim {
    /// Simulator for one workload on one GPU type.
    pub fn new(spec: &WorkloadSpec, gpu: GpuType) -> Self {
        PackingSim {
            footprint: spec.footprint,
            base_secs: spec.base_v100_secs,
            gpu,
            perf: PerfModel::default(),
        }
    }

    /// Peak GPU memory with `n` ESTs in one EasyScale worker.
    pub fn easyscale_memory(&self, n: u64) -> u64 {
        self.footprint.easyscale_peak(n)
    }

    /// Attempt to admit `n` packed workers on the device; the error carries
    /// which worker's allocation failed.
    pub fn try_pack(&self, n: u64) -> Result<u64, OomError> {
        let mut mem = MemoryModel::for_gpu(self.gpu);
        for i in 0..n {
            mem.alloc(&format!("worker{i}/cuda_context"), CUDA_CONTEXT_BYTES)?;
            mem.alloc(&format!("worker{i}/params_opt"), self.footprint.params_and_opt)?;
            mem.alloc(&format!("worker{i}/activations"), self.footprint.activations)?;
            mem.alloc(&format!("worker{i}/gradients"), self.footprint.gradients)?;
        }
        Ok(mem.peak())
    }

    /// Largest packed-worker count that fits.
    pub fn max_packed_workers(&self) -> u64 {
        let mut n = 0;
        while self.try_pack(n + 1).is_ok() {
            n += 1;
        }
        n
    }

    /// Logical-worker throughput (mini-batches/s summed over workers) for
    /// `n` packed workers.
    pub fn packed_throughput(&self, n: u32) -> f64 {
        let mb = self.perf.minibatch_time(self.base_secs, self.gpu, 1.0);
        self.perf.packing_throughput(mb, n)
    }

    /// Logical-worker throughput for `n` ESTs time-sliced on one worker.
    pub fn easyscale_throughput(&self, n: u32) -> f64 {
        let mb = self.perf.minibatch_time(self.base_secs, self.gpu, 1.0);
        self.perf.easyscale_throughput(mb, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use models::Workload;

    fn sim(w: Workload) -> PackingSim {
        PackingSim::new(&w.spec(), GpuType::V100)
    }

    #[test]
    fn resnet50_packs_8_not_9() {
        let s = sim(Workload::ResNet50);
        assert_eq!(s.max_packed_workers(), 8);
        assert!(s.try_pack(9).is_err());
    }

    #[test]
    fn shufflenet_packs_2_not_3() {
        let s = sim(Workload::ShuffleNetV2);
        assert_eq!(s.max_packed_workers(), 2);
    }

    #[test]
    fn easyscale_memory_is_flat() {
        let s = sim(Workload::ResNet50);
        assert_eq!(s.easyscale_memory(2), s.easyscale_memory(16));
        assert!(s.easyscale_memory(16) < s.try_pack(3).unwrap());
    }

    #[test]
    fn packing_throughput_bonus_is_bounded() {
        let s = sim(Workload::ResNet50);
        let ratio = s.packed_throughput(8) / s.easyscale_throughput(8);
        assert!(ratio > 1.0 && ratio < 1.12, "packing peaks near 1.11×, got {ratio}");
    }

    #[test]
    fn oom_error_names_the_failing_worker() {
        let s = sim(Workload::ShuffleNetV2);
        let err = s.try_pack(5).unwrap_err();
        assert!(err.what.starts_with("worker"), "{}", err.what);
    }
}
