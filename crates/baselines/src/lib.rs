//! Baseline systems the paper compares against.
//!
//! * [`SpmdTrainer`] — a plain fixed-world data-parallel trainer ("PyTorch
//!   DDP"): world size == physical GPU count, no virtual ranks. Built
//!   independently from `easyscale::Engine` so the two implementations
//!   cross-validate each other (see the integration tests).
//! * [`ElasticJob`] — the two elastic baselines, one job type with two
//!   scaling rules. [`ElasticJob::torch_elastic`]: on a resource change the
//!   job restarts with world = #GPUs, keeps per-GPU batch size, and linearly
//!   rescales the learning rate — accuracy becomes a function of the
//!   resource schedule (the Fig 2/3 inconsistency). [`ElasticJob::pollux`]:
//!   batch size and LR are re-tuned as resources change (square-root LR
//!   scaling, goodput-driven batch growth), trading accuracy consistency
//!   for throughput (the Fig 4 oscillations).
//! * [`packing`] — Gandiva-style worker packing: N full training processes
//!   multiplexed on one GPU (the Fig 10 memory/throughput comparison).
//! * [`VirtualFlowJob`] — VirtualFlow-style gradient-accumulation
//!   elasticity: mathematically faithful but not bit-faithful (the ~0.4%
//!   accuracy deviation the paper cites).

#![deny(missing_docs)]

pub mod elastic;
pub mod packing;
pub mod spmd;
pub mod virtualflow;

pub use elastic::ElasticJob;
pub use packing::PackingSim;
pub use spmd::SpmdTrainer;
pub use virtualflow::VirtualFlowJob;
