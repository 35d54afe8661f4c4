//! EasyScale: elastic data-parallel training with bitwise-consistent
//! accuracy.
//!
//! The core idea (paper §3): decouple the *logical* training procedure — a
//! fixed number `nEST` of data-parallel workers, chosen at model-design time
//! — from the *physical* resource allocation, which may change at any
//! mini-batch boundary. Each logical worker is an **EasyScaleThread (EST)**;
//! any number of ESTs time-slice one physical worker (one GPU), context-
//! switching at mini-batch boundaries. Because everything an EST touches is
//! keyed by its constant *virtual rank* — its data shard, its dropout
//! stream, its BatchNorm running stats, its slot in the gradient ring — the
//! bits it produces are invariant to placement, so training on 4, 2, or 1
//! GPU (of any type, under D2) yields the **same model, bit for bit** as
//! PyTorch-DDP on `nEST` fixed GPUs.
//!
//! Quick start:
//!
//! ```
//! use easyscale::{Determinism, Engine, JobConfig, Placement};
//! use device::GpuType;
//! use models::Workload;
//!
//! let config = JobConfig::new(Workload::ResNet18, 42, 4).with_dataset_len(256);
//! // Reference: "DDP" on 4 V100s == EasyScale with one EST per worker.
//! let mut ddp = Engine::new(config.clone(), Placement::one_est_per_gpu(4, GpuType::V100));
//! // Elastic: the same 4 logical workers time-sliced on a single V100.
//! let mut one = Engine::new(config, Placement::homogeneous(4, 1, GpuType::V100));
//! for _ in 0..3 {
//!     ddp.step();
//!     one.step();
//! }
//! assert_eq!(ddp.flat_params(), one.flat_params()); // bitwise identical
//! ```

#![deny(missing_docs)]

pub mod checkpoint;
mod codec;
pub mod determinism;
pub mod engine;
pub mod est;
pub mod placement;
pub mod pool;
pub mod store;
pub mod worker;

pub use checkpoint::{JobCheckpoint, RestoreError};
pub use determinism::Determinism;
pub use engine::{Engine, EvalResult, PoolRecovery, StepResult};
pub use est::EstContext;
pub use placement::{Placement, Slot};
pub use pool::{
    ExecMode, ExecOptions, PoolError, PoolStats, ThreadFault, WorkerPool, WorkerSnapshot,
};
pub use store::CheckpointStore;
pub use worker::EasyScaleWorker;

use models::Workload;
use optim::StepLr;
use serde::{Deserialize, Serialize};

/// Everything the model-designing stage fixes: the job definition EasyScale
/// must preserve exactly under any physical allocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobConfig {
    /// Which workload proxy to train.
    pub workload: Workload,
    /// Global seed (model init, samplers, dropout, augmentation).
    pub seed: u64,
    /// The logical worker count `nEST` hyper-parameters were tuned for.
    pub n_ests: u32,
    /// Per-logical-worker mini-batch size.
    pub batch_size: usize,
    /// Synthetic dataset size.
    pub dataset_len: usize,
    /// Learning-rate schedule (carries the Fig 4 gamma).
    pub lr: StepLr,
    /// SGD momentum.
    pub momentum: f32,
    /// SGD weight decay.
    pub weight_decay: f32,
    /// Determinism level.
    pub determinism: Determinism,
    /// Enable data augmentation (consumes per-EST RNG).
    pub augment: bool,
    /// Gradient bucket capacity in bytes.
    pub bucket_cap_bytes: usize,
    /// Data workers shared per physical worker.
    pub data_workers: u32,
}

impl JobConfig {
    /// A config with the experiments' defaults: D1 determinism, augmentation
    /// on, small bucket cap (so the proxies have several buckets and the
    /// bucket-layout machinery is actually exercised).
    pub fn new(workload: Workload, seed: u64, n_ests: u32) -> Self {
        JobConfig {
            workload,
            seed,
            n_ests,
            batch_size: 8,
            dataset_len: 512,
            lr: StepLr { base_lr: 0.05, gamma: 0.1, step_epochs: 20 },
            momentum: 0.9,
            weight_decay: 5e-4,
            determinism: Determinism::d1(),
            augment: true,
            bucket_cap_bytes: 2048,
            data_workers: 4,
        }
    }

    /// Override the dataset size.
    pub fn with_dataset_len(mut self, len: usize) -> Self {
        self.dataset_len = len;
        self
    }

    /// Override the per-worker batch size.
    pub fn with_batch_size(mut self, b: usize) -> Self {
        self.batch_size = b;
        self
    }

    /// Override the determinism level.
    pub fn with_determinism(mut self, d: Determinism) -> Self {
        self.determinism = d;
        self
    }

    /// Override the LR schedule.
    pub fn with_lr(mut self, lr: StepLr) -> Self {
        self.lr = lr;
        self
    }
}
