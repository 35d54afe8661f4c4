//! On-demand checkpoints (paper §3.2, Figure 6).
//!
//! Taken only when resources actually change, a checkpoint carries three
//! sections:
//!
//! 1. **EST contexts** — one per logical worker (RNG positions, BatchNorm
//!    running stats, progress).
//! 2. **Extra states** — shared determinism-critical state: the data
//!    loader's consumption frontier (including the queuing-buffer cut) and
//!    the gradient-bucket layout (the D1-critical piece).
//! 3. **Parameters** — one replica of model parameters, optimizer velocity,
//!    and training progress; shared by all ESTs, so saved once.

use crate::est::EstContext;
use comm::CommCheckpoint;
use data::LoaderCheckpoint;
use serde::{Deserialize, Serialize};

/// A complete on-demand checkpoint of an EasyScale job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobCheckpoint {
    /// EST contexts, indexed by virtual rank.
    pub est_contexts: Vec<EstContext>,
    /// Data-pipeline consumption frontier (extra state).
    pub loader: LoaderCheckpoint,
    /// Gradient-bucket layout + rebuild flag (extra state; only *used* on
    /// restore when D1 is enabled).
    pub comm: CommCheckpoint,
    /// Global steps completed.
    pub global_step: u64,
    /// Flat model parameters (one shared replica).
    pub params: Vec<f32>,
    /// Optimizer velocity (one shared replica).
    pub opt_velocity: Vec<f32>,
}

impl JobCheckpoint {
    /// Number of logical workers the checkpoint describes.
    pub fn n_ests(&self) -> u32 {
        self.est_contexts.len() as u32
    }

    /// Approximate size of the state in bytes — the quantity on-demand
    /// checkpointing keeps small by sharing params across ESTs. The file
    /// [`crate::CheckpointStore`] writes is this plus field names and
    /// lengths (about 60 bytes per BatchNorm tensor, a few hundred per EST): 1.03 ×
    /// for the Bert and NeuMF proxies, 1.2 × for ResNet18 at 4 ESTs
    /// (`tests/store_format.rs` holds all three under 1.25 ×).
    pub fn approx_bytes(&self) -> usize {
        let contexts: usize = self.est_contexts.iter().map(|c| c.approx_bytes()).sum();
        contexts + (self.params.len() + self.opt_velocity.len()) * 4 + 64
    }
}

/// Why a checkpoint that loaded and verified cannot continue a job: it was
/// taken of another one (`Engine::try_from_checkpoint_opts`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The placement does not cover the job's ESTs exactly once each.
    Placement(String),
    /// The checkpoint holds `.1` of the named thing (`EST contexts`,
    /// `parameters`, `velocity elements`, `loader cursors`); the job has `.2`.
    Count(&'static str, usize, usize),
    /// The context of the EST of this virtual rank carries implicit state
    /// (BatchNorm running statistics) of other layers or tensor shapes than
    /// the job's model has.
    ImplicitState(u32),
    /// The loader cursors were opened under this seed, not the job's.
    Seed(u64),
    /// The recorded gradient-bucket layout is over other parameter tensors
    /// or another virtual world size.
    BucketLayout,
}

impl RestoreError {
    /// `Ok` when the checkpoint's count of `what` is the job's.
    pub(crate) fn count(what: &'static str, found: usize, job: usize) -> Result<(), Self> {
        if found == job {
            Ok(())
        } else {
            Err(RestoreError::Count(what, found, job))
        }
    }
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Placement(e) => write!(f, "invalid placement: {e}"),
            RestoreError::Count(what, found, job) => {
                write!(f, "checkpoint mismatch: {found} {what}, the job has {job}")
            }
            RestoreError::ImplicitState(vrank) => {
                write!(f, "checkpoint mismatch: implicit state of EST {vrank} is another model's")
            }
            RestoreError::Seed(seed) => write!(f, "checkpoint mismatch: loader seed {seed}"),
            RestoreError::BucketLayout => f.write_str("checkpoint mismatch: bucket layout"),
        }
    }
}

impl std::error::Error for RestoreError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, JobConfig, Placement};
    use device::GpuType;
    use models::Workload;

    #[test]
    fn checkpoint_size_scales_with_contexts_not_with_param_copies() {
        let config = JobConfig::new(Workload::ResNet18, 5, 8).with_dataset_len(256);
        let mut e = Engine::new(config, Placement::homogeneous(8, 2, GpuType::V100));
        e.step();
        let ckpt = e.checkpoint();
        let param_bytes = ckpt.params.len() * 4;
        // With 8 ESTs, a naive per-worker checkpoint would hold 8 parameter
        // copies; ours holds one plus 8 small contexts.
        assert!(ckpt.approx_bytes() < 3 * param_bytes);
        assert_eq!(ckpt.n_ests(), 8);
    }

    #[test]
    fn serde_roundtrip() {
        let config = JobConfig::new(Workload::NeuMF, 5, 2).with_dataset_len(128);
        let mut e = Engine::new(config, Placement::homogeneous(2, 1, GpuType::V100));
        e.step();
        let ckpt = e.checkpoint();
        let json = serde_json::to_string(&ckpt).unwrap();
        let back: JobCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(ckpt, back);
    }
}
