//! Umbrella crate for the EasyScale reproduction workspace.
//!
//! Re-exports the member crates and provides a [`prelude`] so examples,
//! integration tests, and downstream experiments can pull the whole API
//! surface with one `use`:
//!
//! ```
//! use easyscale_suite::prelude::*;
//!
//! let config = JobConfig::new(Workload::NeuMF, 7, 2).with_dataset_len(128);
//! let mut engine = Engine::new(config, Placement::homogeneous(2, 1, GpuType::V100));
//! let result = engine.step();
//! assert!(result.mean_loss.is_finite());
//! ```
//!
//! See the workspace README for the crate map, DESIGN.md for the paper
//! substitution table, and EXPERIMENTS.md for paper-vs-measured results.

pub use baselines;
pub use comm;
pub use data;
pub use device;
pub use easyscale;
pub use esrng;
pub use models;
pub use optim;
pub use sched;
pub use tensor;
pub use trace;

/// One-stop imports for experiments and examples.
pub mod prelude {
    pub use baselines::{ElasticJob, SpmdTrainer, VirtualFlowJob};
    pub use comm::ElasticDdp;
    pub use data::{Dataset, SyntheticImageDataset, SyntheticSequenceDataset};
    pub use device::{ClusterSpec, GpuType, MemoryModel, PerfModel};
    pub use easyscale::{
        CheckpointStore, Determinism, Engine, EstContext, JobCheckpoint, JobConfig, Placement, Slot,
    };
    pub use esrng::{EsRng, RngStream, StreamKey, StreamKind};
    pub use models::{Workload, WORKLOADS};
    pub use optim::{LrSchedule, Sgd, StepLr};
    pub use sched::{AiMaster, ClusterSim, Companion, InterJobScheduler, JobSpec, Policy};
    pub use tensor::{KernelProfile, Tensor};
    pub use trace::{ServingLoad, TraceConfig, TraceGenerator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_main_flow() {
        let config = JobConfig::new(Workload::NeuMF, 7, 2).with_dataset_len(128);
        let mut engine = Engine::new(config, Placement::homogeneous(2, 1, GpuType::V100));
        let r = engine.step();
        assert!(r.mean_loss.is_finite());
    }
}
