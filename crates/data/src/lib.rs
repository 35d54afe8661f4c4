//! Data pipeline: datasets, distributed sampling, augmentation, and shared
//! data workers.
//!
//! This is the part of the training stack the paper's §3.2 "Optimizing data
//! pre-processing" is about. PyTorch-style pipelines run asynchronous data
//! workers ahead of the trainer; those workers consume RNG (augmentation),
//! which makes their *progress* part of the training state. EasyScale (a)
//! shares one data-worker pool among all ESTs of a worker instead of scaling
//! workers with ESTs, and (b) queues every prepared-but-unconsumed
//! mini-batch with the RNG state it started from (the queuing buffer), so
//! elastic restarts reproduce the exact same augmented batches.
//!
//! Determinism contract: the content of mini-batch `b` of virtual rank `r`
//! in epoch `e` is a pure function of `(seed, dataset, e, r, b)` — never of
//! which physical data worker prepared it, how many there are, or when.

#![deny(missing_docs)]

pub mod augment;
pub mod dataset;
pub mod loader;
pub mod sampler;

pub use augment::{AugmentConfig, Augmenter};
pub use dataset::{Dataset, SyntheticImageDataset, SyntheticSequenceDataset};
pub use loader::{Batch, DataWorkerPool, LoaderCheckpoint, ShardedLoader};
pub use sampler::DistributedSampler;
