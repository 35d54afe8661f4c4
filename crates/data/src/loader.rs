//! The data-loading pipeline: sharded loader, shared data-worker pool, and
//! the queuing buffer of RNG states.
//!
//! Layout mirrors the paper's Figure 7. A [`ShardedLoader`] produces the
//! mini-batches of each virtual rank in order, consuming a per-rank
//! augmentation RNG stream. A [`DataWorkerPool`] shares `n_workers` workers
//! among *all* ESTs of one EasyScale worker (instead of `n_workers × n_ests`
//! as naive scaling would), prefetching batches ahead of training. Because
//! workers run ahead, the generator state each prepared batch *started from*
//! is parked in a [`QueuingBuffer`]; checkpoints cut at the *consumption*
//! frontier, so a restore regenerates the exact same batches the ESTs had
//! not yet consumed.

use crate::{Augmenter, Dataset, DistributedSampler};
use esrng::{RngState, RngStream, StreamKey, StreamKind};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;
use tensor::Tensor;

/// One prepared mini-batch for one virtual rank.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Epoch this batch belongs to.
    pub epoch: u64,
    /// Batch index within the epoch (per replica).
    pub batch_idx: usize,
    /// Owning virtual rank.
    pub vrank: u32,
    /// `[batch, …feature_shape]` features (augmented).
    pub features: Tensor,
    /// Labels.
    pub labels: Vec<u32>,
    /// Dataset indices the batch was drawn from.
    pub indices: Vec<u32>,
}

/// Position of one virtual rank's data stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CursorState {
    /// Epoch.
    pub epoch: u64,
    /// Next batch index within the epoch.
    pub batch: usize,
    /// Augmentation generator state at that point.
    pub aug_state: RngState,
}

/// Checkpointable state of a loader/pool: one cursor per virtual rank at the
/// consumption frontier. This is part of the "extra states" of the paper's
/// on-demand checkpoint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoaderCheckpoint {
    /// Per-vrank cursors, indexed by vrank.
    pub cursors: Vec<CursorState>,
    /// Global seed the streams were opened under.
    pub seed: u64,
}

struct Cursor {
    epoch: u64,
    batch: usize,
    aug: RngStream,
}

/// Produces each virtual rank's mini-batches in order.
pub struct ShardedLoader {
    dataset: Arc<dyn Dataset>,
    sampler: DistributedSampler,
    augmenter: Option<Augmenter>,
    batch_size: usize,
    /// `[batch_size, …feature_shape]`.
    batch_shape: Vec<usize>,
    seed: u64,
    cursors: Vec<Cursor>,
    /// Cached epoch permutations (different ranks may sit in different
    /// epochs, so a couple of entries are kept). Pure cache: contents are a
    /// deterministic function of (seed, epoch), so this cannot affect bits.
    perm_cache: Vec<(u64, Vec<u32>)>,
}

impl ShardedLoader {
    /// Build a loader for `n_replicas` virtual ranks with per-replica
    /// `batch_size`.
    pub fn new(
        dataset: Arc<dyn Dataset>,
        n_replicas: u32,
        batch_size: usize,
        seed: u64,
        shuffle: bool,
        augmenter: Option<Augmenter>,
    ) -> Self {
        let sampler = DistributedSampler::new(dataset.len(), n_replicas, seed, shuffle);
        let cursors = (0..n_replicas)
            .map(|r| Cursor {
                epoch: 0,
                batch: 0,
                aug: RngStream::open(seed, StreamKey::indexed(StreamKind::Augmentation, r, 0)),
            })
            .collect();
        let batch_shape = [vec![batch_size], dataset.feature_shape()].concat();
        ShardedLoader {
            dataset,
            sampler,
            augmenter,
            batch_size,
            batch_shape,
            seed,
            cursors,
            perm_cache: Vec::new(),
        }
    }

    /// Ensure the permutation for `epoch` is the last cache entry.
    fn ensure_perm(&mut self, epoch: u64) {
        if let Some(i) = self.perm_cache.iter().position(|(e, _)| *e == epoch) {
            let entry = self.perm_cache.remove(i);
            self.perm_cache.push(entry);
        } else {
            self.perm_cache.push((epoch, self.sampler.epoch_permutation(epoch)));
            if self.perm_cache.len() > 3 {
                self.perm_cache.remove(0);
            }
        }
    }

    /// Per-replica batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Number of virtual ranks.
    pub fn n_replicas(&self) -> u32 {
        self.sampler.n_replicas()
    }

    /// Mini-batches each replica contributes per epoch.
    pub fn batches_per_epoch(&self) -> usize {
        self.sampler.batches_per_epoch(self.batch_size)
    }

    /// The cursor (epoch, batch, RNG state) of a rank — the state a batch
    /// prepared *next* would start from.
    pub fn cursor(&self, vrank: u32) -> CursorState {
        let c = &self.cursors[vrank as usize];
        CursorState { epoch: c.epoch, batch: c.batch, aug_state: c.aug.capture().rng }
    }

    /// Prepare the next mini-batch of `vrank`, advancing its cursor.
    pub fn next_batch(&mut self, vrank: u32) -> Batch {
        let bpe = self.batches_per_epoch();
        assert!(bpe > 0, "batch size {} exceeds shard size", self.batch_size);
        let (epoch, batch_idx) = {
            let c = &self.cursors[vrank as usize];
            (c.epoch, c.batch)
        };
        self.ensure_perm(epoch);
        let perm = &self.perm_cache.last().expect("ensure_perm populated").1;
        let indices = self.sampler.batch_indices_in(perm, vrank, batch_idx, self.batch_size);
        let c = &mut self.cursors[vrank as usize];

        // Every sample is drawn straight into its slot of the batch — by way
        // of one staging image when it is to be augmented on the way.
        let feat_shape = &self.batch_shape[1..];
        let mut features = Tensor::uninit(&self.batch_shape);
        let mut raw = Tensor::uninit(feat_shape);
        let mut labels = Vec::with_capacity(self.batch_size);
        let slots = features.data_mut().chunks_exact_mut(raw.len().max(1));
        for (&idx, slot) in indices.iter().zip(slots) {
            labels.push(match &self.augmenter {
                Some(a) => {
                    let y = self.dataset.sample_into(idx, raw.data_mut());
                    a.apply_into(raw.data(), feat_shape, c.aug.rng(), slot);
                    y
                }
                None => self.dataset.sample_into(idx, slot),
            });
        }

        // Advance the cursor; epoch rollover re-opens the augmentation
        // stream at the new epoch index so state is a pure function of
        // (seed, vrank, epoch) + batches consumed.
        c.batch += 1;
        if c.batch >= bpe {
            c.batch = 0;
            c.epoch += 1;
            c.aug = RngStream::open(
                self.seed,
                StreamKey::indexed(StreamKind::Augmentation, vrank, c.epoch),
            );
        }

        Batch { epoch, batch_idx, vrank, features, labels, indices }
    }

    /// Capture every rank's cursor.
    pub fn checkpoint(&self) -> LoaderCheckpoint {
        LoaderCheckpoint {
            cursors: (0..self.n_replicas()).map(|r| self.cursor(r)).collect(),
            seed: self.seed,
        }
    }

    /// Restore cursors from a checkpoint (dataset/sampler config must match;
    /// only positions are restored).
    pub fn restore(&mut self, ckpt: &LoaderCheckpoint) {
        assert_eq!(ckpt.cursors.len(), self.cursors.len(), "replica count mismatch in restore");
        assert_eq!(ckpt.seed, self.seed, "seed mismatch in restore");
        for (c, s) in self.cursors.iter_mut().zip(&ckpt.cursors) {
            c.epoch = s.epoch;
            c.batch = s.batch;
            c.aug = RngStream::restore(esrng::stream::StreamState {
                key: c.aug.key(),
                rng: s.aug_state,
            });
        }
    }
}

/// The queuing buffer of Figure 7: generator states (Ri-j) for mini-batches
/// that have been prepared by data workers but not yet consumed by ESTs.
#[derive(Debug, Clone, Default)]
pub struct QueuingBuffer {
    entries: Vec<BufferEntry>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BufferEntry {
    vrank: u32,
    epoch: u64,
    batch: usize,
    state: RngState,
    /// Which data worker prepared it (round-robin attribution — the paper's
    /// "data workers take turns").
    worker: u32,
}

impl QueuingBuffer {
    /// Record a prepared batch's starting RNG state.
    fn push(&mut self, vrank: u32, epoch: u64, batch: usize, state: RngState, worker: u32) {
        self.entries.push(BufferEntry { vrank, epoch, batch, state, worker });
    }

    /// Drop the entry for a consumed batch.
    fn consume(&mut self, vrank: u32, epoch: u64, batch: usize) {
        self.entries.retain(|e| !(e.vrank == vrank && e.epoch == epoch && e.batch == batch));
    }

    /// Number of prepared-but-unconsumed batches tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The earliest (consumption-frontier) entry for a rank, if any.
    pub fn frontier(&self, vrank: u32) -> Option<(u64, usize, RngState)> {
        self.entries
            .iter()
            .filter(|e| e.vrank == vrank)
            .min_by_key(|e| (e.epoch, e.batch))
            .map(|e| (e.epoch, e.batch, e.state))
    }
}

struct PreparedBatch {
    batch: Batch,
    rng_before: RngState,
}

/// Shared data-worker pool: `n_workers` workers serve *all* local ESTs,
/// prefetching `prefetch_depth` batches per rank.
pub struct DataWorkerPool {
    loader: ShardedLoader,
    n_workers: u32,
    prefetch_depth: usize,
    queues: Vec<VecDeque<PreparedBatch>>,
    buffer: QueuingBuffer,
    rr_worker: u32,
    prepared: u64,
    consumed: u64,
}

impl DataWorkerPool {
    /// Wrap a loader with a pool of `n_workers` shared workers.
    pub fn new(loader: ShardedLoader, n_workers: u32, prefetch_depth: usize) -> Self {
        let n = loader.n_replicas() as usize;
        DataWorkerPool {
            loader,
            n_workers: n_workers.max(1),
            prefetch_depth: prefetch_depth.max(1),
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            buffer: QueuingBuffer::default(),
            rr_worker: 0,
            prepared: 0,
            consumed: 0,
        }
    }

    /// Worker count (the quantity data-worker sharing reduces from
    /// `per_worker × n_ests` to `per_worker`, §5.1.2).
    pub fn n_workers(&self) -> u32 {
        self.n_workers
    }

    /// Batches prepared so far.
    pub fn prepared_count(&self) -> u64 {
        self.prepared
    }

    /// Batches consumed so far.
    pub fn consumed_count(&self) -> u64 {
        self.consumed
    }

    /// The queuing buffer (inspection/checkpoint).
    pub fn buffer(&self) -> &QueuingBuffer {
        &self.buffer
    }

    /// Mini-batches per epoch per rank.
    pub fn batches_per_epoch(&self) -> usize {
        self.loader.batches_per_epoch()
    }

    fn fill(&mut self, vrank: u32) {
        while self.queues[vrank as usize].len() < self.prefetch_depth {
            let before = self.loader.cursor(vrank);
            let batch = self.loader.next_batch(vrank);
            self.buffer.push(vrank, batch.epoch, batch.batch_idx, before.aug_state, self.rr_worker);
            self.rr_worker = (self.rr_worker + 1) % self.n_workers;
            self.prepared += 1;
            self.queues[vrank as usize]
                .push_back(PreparedBatch { batch, rng_before: before.aug_state });
        }
    }

    /// Deliver the next batch for `vrank` (prefetching as needed).
    pub fn next_batch(&mut self, vrank: u32) -> Batch {
        self.fill(vrank);
        let prepared = self.queues[vrank as usize].pop_front().expect("fill guarantees a batch");
        self.buffer.consume(vrank, prepared.batch.epoch, prepared.batch.batch_idx);
        self.consumed += 1;
        prepared.batch
    }

    /// Checkpoint at the *consumption* frontier: prefetched-but-unconsumed
    /// batches are represented by their starting RNG states so a restore
    /// regenerates them bit-identically.
    pub fn checkpoint(&self) -> LoaderCheckpoint {
        let mut ckpt = self.loader.checkpoint();
        for (r, q) in self.queues.iter().enumerate() {
            if let Some(front) = q.front() {
                ckpt.cursors[r] = CursorState {
                    epoch: front.batch.epoch,
                    batch: front.batch.batch_idx,
                    aug_state: front.rng_before,
                };
            }
        }
        ckpt
    }

    /// Restore: reposition the loader at the consumption frontier and drop
    /// all in-flight prefetched work (it will be regenerated identically).
    pub fn restore(&mut self, ckpt: &LoaderCheckpoint) {
        self.loader.restore(ckpt);
        for q in &mut self.queues {
            q.clear();
        }
        self.buffer = QueuingBuffer::default();
    }

    /// Consume the inner loader back out (e.g. to rebuild with a different
    /// worker count after re-scaling).
    pub fn into_loader(self) -> ShardedLoader {
        self.loader
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AugmentConfig, SyntheticImageDataset};

    fn dataset() -> Arc<dyn Dataset> {
        Arc::new(SyntheticImageDataset::cifar_like(3, 256))
    }

    fn loader(n: u32) -> ShardedLoader {
        ShardedLoader::new(
            dataset(),
            n,
            8,
            99,
            true,
            Some(Augmenter::new(AugmentConfig::default())),
        )
    }

    #[test]
    fn batches_are_deterministic_across_loader_instances() {
        let mut a = loader(4);
        let mut b = loader(4);
        for r in 0..4 {
            for _ in 0..5 {
                let ba = a.next_batch(r);
                let bb = b.next_batch(r);
                assert!(ba.features.bitwise_eq(&bb.features));
                assert_eq!(ba.labels, bb.labels);
            }
        }
    }

    #[test]
    fn rank_interleaving_order_does_not_matter() {
        // Placement independence: whether rank 0's batches are produced
        // before or after rank 1's, contents are identical.
        let mut a = loader(2);
        let mut b = loader(2);
        let a0: Vec<Batch> = (0..3).map(|_| a.next_batch(0)).collect();
        let _a1: Vec<Batch> = (0..3).map(|_| a.next_batch(1)).collect();
        let _b1: Vec<Batch> = (0..3).map(|_| b.next_batch(1)).collect();
        let b0: Vec<Batch> = (0..3).map(|_| b.next_batch(0)).collect();
        for (x, y) in a0.iter().zip(&b0) {
            assert!(x.features.bitwise_eq(&y.features));
        }
    }

    #[test]
    fn checkpoint_restore_resumes_identical_stream() {
        let mut a = loader(2);
        for _ in 0..7 {
            a.next_batch(0);
            a.next_batch(1);
        }
        let ckpt = a.checkpoint();
        let expect: Vec<Batch> = (0..5).map(|_| a.next_batch(0)).collect();

        let mut b = loader(2);
        b.restore(&ckpt);
        let got: Vec<Batch> = (0..5).map(|_| b.next_batch(0)).collect();
        for (x, y) in expect.iter().zip(&got) {
            assert!(x.features.bitwise_eq(&y.features), "restored stream must match");
            assert_eq!(x.indices, y.indices);
        }
    }

    #[test]
    fn epoch_rollover_reshuffles() {
        let mut l = ShardedLoader::new(dataset(), 2, 8, 99, true, None);
        let bpe = l.batches_per_epoch();
        let first_epoch0 = l.next_batch(0).indices.clone();
        for _ in 1..bpe {
            l.next_batch(0);
        }
        let first_epoch1 = l.next_batch(0);
        assert_eq!(first_epoch1.epoch, 1);
        assert_eq!(first_epoch1.batch_idx, 0);
        assert_ne!(first_epoch1.indices, first_epoch0);
    }

    #[test]
    fn pool_delivers_same_batches_as_bare_loader() {
        let mut bare = loader(4);
        let mut pool = DataWorkerPool::new(loader(4), 3, 2);
        for r in 0..4 {
            for _ in 0..6 {
                let a = bare.next_batch(r);
                let b = pool.next_batch(r);
                assert!(a.features.bitwise_eq(&b.features), "prefetching must not change contents");
            }
        }
    }

    #[test]
    fn pool_tracks_inflight_states() {
        let mut pool = DataWorkerPool::new(loader(2), 3, 4);
        pool.next_batch(0);
        // Depth 4: after one consume, 3 batches for rank 0 remain in flight.
        assert_eq!(pool.buffer().len(), 3);
        assert!(pool.buffer().frontier(0).is_some());
        assert!(pool.buffer().frontier(1).is_none(), "rank 1 never requested");
    }

    #[test]
    fn pool_checkpoint_cuts_at_consumption_frontier() {
        let mut pool = DataWorkerPool::new(loader(2), 3, 4);
        for _ in 0..5 {
            pool.next_batch(0);
            pool.next_batch(1);
        }
        let ckpt = pool.checkpoint();
        let expect: Vec<Batch> = (0..6).map(|_| pool.next_batch(0)).collect();

        let mut fresh = DataWorkerPool::new(loader(2), 5, 2); // different pool shape on purpose
        fresh.restore(&ckpt);
        let got: Vec<Batch> = (0..6).map(|_| fresh.next_batch(0)).collect();
        for (x, y) in expect.iter().zip(&got) {
            assert!(
                x.features.bitwise_eq(&y.features),
                "worker count/prefetch depth must not matter"
            );
            assert_eq!(x.epoch, y.epoch);
            assert_eq!(x.batch_idx, y.batch_idx);
        }
    }

    #[test]
    fn shared_pool_worker_count_is_independent_of_est_count() {
        // The §5.1.2 point: 16 ESTs share the configured workers instead of
        // multiplying them.
        let pool = DataWorkerPool::new(loader(16), 4, 2);
        assert_eq!(pool.n_workers(), 4);
    }
}
