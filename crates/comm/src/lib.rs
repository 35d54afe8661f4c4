//! ElasticDDP: the gradient-synchronization substrate.
//!
//! This crate reproduces the communication-layer non-determinism the paper's
//! §3.3 identifies, and EasyScale's fix for it:
//!
//! * Gradients are packed into **buckets** (à la PyTorch DDP's 25 MB
//!   buckets). The initial gradient→bucket mapping follows the reversed
//!   topological parameter order; at the end of the first mini-batch DDP
//!   **rebuilds** the mapping from the order gradient tensors actually
//!   became ready — an order that depends on kernel-completion timing and
//!   therefore changes when workers restart.
//! * Each bucket is all-reduced with a **ring** algorithm: the bucket is cut
//!   into `nranks` chunks, and the rank-summation order of each chunk is a
//!   rotation determined by its chunk index. Change the bucket layout (or
//!   the rank count) and the f32 addition orders change ⇒ different bits.
//!
//! EasyScale's D1 remedy, implemented here: give every EST a constant
//! **virtual rank**, run the ring over virtual ranks (so physical placement
//! is invisible), record the bucket layout in the checkpoint, and disable
//! the rebuild after a restart.

#![deny(missing_docs)]

pub mod allreduce;
pub mod bucket;
pub mod exchange;
pub mod heartbeat;
pub mod retry;

pub use allreduce::{ring_allreduce, ring_allreduce_scalar, RingSpec};
pub use bucket::{BucketLayout, DEFAULT_BUCKET_CAP_BYTES};
pub use exchange::{DrainError, Exchange, ExchangeTx};
pub use heartbeat::{Heartbeat, HeartbeatBus};
pub use retry::{retry_reduce, CommError, FaultScript, RetryPolicy, RetryStats};

use serde::{Deserialize, Serialize};

/// The ElasticDDP communicator: bucket layout + virtual world size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElasticDdp {
    layout: BucketLayout,
    /// Number of *virtual* ranks (== number of ESTs == the logical worker
    /// count the user tuned hyper-parameters for).
    vworld: u32,
    /// Whether the post-warmup rebuild already happened (or was restored).
    rebuilt: bool,
}

impl ElasticDdp {
    /// Communicator with the initial (reversed-topological) bucket layout.
    pub fn new(param_sizes: &[usize], vworld: u32, bucket_cap_bytes: usize) -> Self {
        assert!(vworld > 0, "need at least one virtual rank");
        ElasticDdp {
            layout: BucketLayout::initial(param_sizes, bucket_cap_bytes),
            vworld,
            rebuilt: false,
        }
    }

    /// Virtual world size.
    pub fn vworld(&self) -> u32 {
        self.vworld
    }

    /// Current bucket layout.
    pub fn layout(&self) -> &BucketLayout {
        &self.layout
    }

    /// Whether the warmup rebuild has happened.
    pub fn is_rebuilt(&self) -> bool {
        self.rebuilt
    }

    /// DDP's end-of-first-mini-batch rebuild: adopt a layout derived from
    /// the observed gradient-ready order. A no-op if already rebuilt (which
    /// is how D1 disables reconstruction after a checkpoint restore).
    pub fn rebuild_from_ready_order(&mut self, ready_order: &[usize], bucket_cap_bytes: usize) {
        if self.rebuilt {
            return;
        }
        self.layout = BucketLayout::from_ready_order(
            self.layout.param_sizes(),
            ready_order,
            bucket_cap_bytes,
        );
        self.rebuilt = true;
    }

    /// All-reduce (average) the per-virtual-rank flat gradients. `grads`
    /// must hold exactly `vworld` equal-length vectors indexed by virtual
    /// rank. The result's bits depend only on (gradient values, bucket
    /// layout, vworld) — never on physical placement.
    pub fn allreduce_avg(&self, grads: &[Vec<f32>]) -> Vec<f32> {
        assert_eq!(grads.len(), self.vworld as usize, "expected one gradient per virtual rank");
        let n = grads[0].len();
        assert!(grads.iter().all(|g| g.len() == n), "gradient length mismatch across ranks");
        let _t = obs::span("comm.allreduce");
        obs::counter_add("comm.allreduce_calls", 1);
        obs::counter_add("comm.allreduce_bytes", (n * grads.len() * 4) as u64);
        obs::counter_add("comm.bucket_fills", self.layout.num_buckets() as u64);
        let views: Vec<&[f32]> = grads.iter().map(|g| g.as_slice()).collect();
        let mut out = vec![0.0f32; n];
        for bucket in self.layout.buckets() {
            let spec = RingSpec { nranks: self.vworld as usize };
            ring_allreduce(&views, &self.layout.bucket_positions(bucket), &spec, &mut out);
        }
        let scale = 1.0 / self.vworld as f32;
        for v in &mut out {
            *v *= scale;
        }
        out
    }

    /// Checkpoint: the D1-critical state (bucket layout + rebuild flag).
    pub fn checkpoint(&self) -> CommCheckpoint {
        CommCheckpoint { layout: self.layout.clone(), vworld: self.vworld, rebuilt: self.rebuilt }
    }

    /// Restore a communicator from a checkpoint (the D1 path: reinstate the
    /// recorded gradient-bucket mapping and disable reconstruction).
    pub fn restore(ckpt: CommCheckpoint) -> Self {
        ElasticDdp { layout: ckpt.layout, vworld: ckpt.vworld, rebuilt: ckpt.rebuilt }
    }
}

/// Serializable communicator state for on-demand checkpoints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommCheckpoint {
    /// Bucket layout (the "indices that make up the gradient buckets").
    pub layout: BucketLayout,
    /// Virtual world size.
    pub vworld: u32,
    /// Rebuild-done flag.
    pub rebuilt: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grads(vworld: usize, n: usize) -> Vec<Vec<f32>> {
        (0..vworld)
            .map(|r| {
                (0..n)
                    .map(|i| {
                        ((i * 31 + r * 7) % 97) as f32 * 0.013 * 10f32.powi((i % 5) as i32 - 2)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn allreduce_is_mathematically_the_average() {
        let ddp = ElasticDdp::new(&[100, 50, 200], 4, 1024);
        let g = grads(4, 350);
        let out = ddp.allreduce_avg(&g);
        for i in 0..350 {
            let expect: f64 = g.iter().map(|r| r[i] as f64).sum::<f64>() / 4.0;
            assert!((out[i] as f64 - expect).abs() < 1e-4, "element {i}");
        }
    }

    #[test]
    fn allreduce_is_deterministic() {
        let ddp = ElasticDdp::new(&[64, 64, 64], 4, 512);
        let g = grads(4, 192);
        let a = ddp.allreduce_avg(&g);
        let b = ddp.allreduce_avg(&g);
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn different_layouts_change_bits() {
        let g = grads(4, 1000);
        let sizes = [100usize; 10];
        let a = ElasticDdp::new(&sizes, 4, 4000).allreduce_avg(&g); // 1 bucket
        let b = ElasticDdp::new(&sizes, 4, 400).allreduce_avg(&g); // 10 buckets
        let differs = a.iter().zip(&b).any(|(x, y)| x.to_bits() != y.to_bits());
        assert!(differs, "bucket layout must influence bits (the D1 hazard)");
        // While staying the same real numbers.
        let max: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).fold(0.0, f32::max);
        assert!(max < 1e-3);
    }

    #[test]
    fn rank_count_changes_bits() {
        // 2-GPU DDP and 4-GPU DDP genuinely disagree bitwise even on the
        // same total gradient set — the reason elastic training must pin a
        // virtual world size.
        let g4 = grads(4, 400);
        let out4 = ElasticDdp::new(&[400], 4, 1600).allreduce_avg(&g4);
        // Combine pairs as a 2-rank world would see them (pre-summed pairs),
        // then average with vworld 2 — mimics "4 workers on 2 GPUs" naively.
        let g2: Vec<Vec<f32>> = vec![
            (0..400).map(|i| g4[0][i] + g4[1][i]).collect(),
            (0..400).map(|i| g4[2][i] + g4[3][i]).collect(),
        ];
        let mut out2 = ElasticDdp::new(&[400], 2, 1600).allreduce_avg(&g2);
        for v in &mut out2 {
            *v *= 0.5; // rescale sum-of-pairs average to per-worker average
        }
        let differs = out4.iter().zip(&out2).any(|(x, y)| x.to_bits() != y.to_bits());
        assert!(differs);
    }

    #[test]
    fn rebuild_changes_layout_then_sticks() {
        let mut ddp = ElasticDdp::new(&[10, 20, 30, 40], 2, 128);
        let initial = ddp.layout().clone();
        ddp.rebuild_from_ready_order(&[2, 0, 3, 1], 128);
        assert_ne!(*ddp.layout(), initial);
        let rebuilt = ddp.layout().clone();
        // Second rebuild attempt is ignored (D1's "reconstruction disabled").
        ddp.rebuild_from_ready_order(&[0, 1, 2, 3], 128);
        assert_eq!(*ddp.layout(), rebuilt);
    }

    #[test]
    fn checkpoint_restores_layout_and_flag() {
        let mut ddp = ElasticDdp::new(&[10, 20, 30], 4, 64);
        ddp.rebuild_from_ready_order(&[1, 2, 0], 64);
        let ckpt = ddp.checkpoint();
        let restored = ElasticDdp::restore(ckpt);
        assert_eq!(restored.layout(), ddp.layout());
        assert!(restored.is_rebuilt(), "restored communicator must not rebuild again");
        let g = grads(4, 60);
        let a = ddp.allreduce_avg(&g);
        let b = restored.allreduce_avg(&g);
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    #[should_panic(expected = "one gradient per virtual rank")]
    fn world_size_is_enforced() {
        let ddp = ElasticDdp::new(&[10], 4, 64);
        ddp.allreduce_avg(&grads(3, 10));
    }
}
