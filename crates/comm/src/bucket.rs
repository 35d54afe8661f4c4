//! Gradient-bucket layout.
//!
//! A layout assigns each parameter tensor (identified by its index in the
//! flat reverse-topological order) to a bucket, capped at a byte budget.
//! Bucket membership *and order within the bucket* both matter: the ring
//! all-reduce chunks each bucket by byte position, so moving a parameter
//! changes which rotation its elements are summed with.

use serde::{Deserialize, Serialize};

/// PyTorch DDP's default bucket size (25 MB).
pub const DEFAULT_BUCKET_CAP_BYTES: usize = 25 * 1024 * 1024;

const F32_BYTES: usize = 4;

/// A gradient→bucket mapping over a fixed parameter list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketLayout {
    /// Element counts of each parameter tensor (flat order).
    param_sizes: Vec<usize>,
    /// Flat-order element offset of each parameter.
    param_offsets: Vec<usize>,
    /// Buckets: each is an ordered list of parameter indices.
    buckets: Vec<Vec<usize>>,
}

impl BucketLayout {
    /// The initial mapping: parameters in reversed-topological order (the
    /// order `param_sizes` is given in), greedily packed into buckets of at
    /// most `cap_bytes` (a parameter larger than the cap gets its own
    /// bucket).
    pub fn initial(param_sizes: &[usize], cap_bytes: usize) -> Self {
        Self::pack(param_sizes, (0..param_sizes.len()).collect(), cap_bytes)
    }

    /// The rebuilt mapping DDP adopts after the first mini-batch: same
    /// greedy packing, but in the order gradients became ready.
    pub fn from_ready_order(
        param_sizes: &[usize],
        ready_order: &[usize],
        cap_bytes: usize,
    ) -> Self {
        assert_eq!(ready_order.len(), param_sizes.len(), "ready order must cover all params");
        let mut seen = vec![false; param_sizes.len()];
        for &p in ready_order {
            assert!(p < param_sizes.len() && !seen[p], "ready order must be a permutation");
            seen[p] = true;
        }
        Self::pack(param_sizes, ready_order.to_vec(), cap_bytes)
    }

    fn pack(param_sizes: &[usize], order: Vec<usize>, cap_bytes: usize) -> Self {
        assert!(cap_bytes >= F32_BYTES, "bucket cap below one element");
        let mut offsets = Vec::with_capacity(param_sizes.len());
        let mut off = 0;
        for &s in param_sizes {
            offsets.push(off);
            off += s;
        }
        let mut buckets: Vec<Vec<usize>> = Vec::new();
        let mut cur: Vec<usize> = Vec::new();
        let mut cur_bytes = 0usize;
        for p in order {
            let bytes = param_sizes[p] * F32_BYTES;
            if !cur.is_empty() && cur_bytes + bytes > cap_bytes {
                buckets.push(std::mem::take(&mut cur));
                cur_bytes = 0;
            }
            cur.push(p);
            cur_bytes += bytes;
        }
        if !cur.is_empty() {
            buckets.push(cur);
        }
        // Every emitted bucket is one "flush" of the greedy packer (layout
        // construction happens at job start and at the warmup rebuild).
        obs::counter_add("comm.bucket_flushes", buckets.len() as u64);
        BucketLayout { param_sizes: param_sizes.to_vec(), param_offsets: offsets, buckets }
    }

    /// Parameter sizes the layout was built over.
    pub fn param_sizes(&self) -> &[usize] {
        &self.param_sizes
    }

    /// The buckets (ordered lists of parameter indices).
    pub fn buckets(&self) -> &[Vec<usize>] {
        &self.buckets
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Flat-gradient element positions of a bucket, in bucket order: the
    /// concatenation of each member parameter's element range.
    pub fn bucket_positions(&self, bucket: &[usize]) -> Vec<usize> {
        let total: usize = bucket.iter().map(|&p| self.param_sizes[p]).sum();
        let mut pos = Vec::with_capacity(total);
        for &p in bucket {
            let start = self.param_offsets[p];
            pos.extend(start..start + self.param_sizes[p]);
        }
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_packs_greedily_in_order() {
        // Sizes in elements; cap 40 bytes = 10 elements.
        let l = BucketLayout::initial(&[4, 4, 4, 4], 40);
        assert_eq!(l.buckets(), &[vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn oversized_param_gets_own_bucket() {
        let l = BucketLayout::initial(&[100, 2, 2], 40);
        assert_eq!(l.num_buckets(), 2);
        assert_eq!(l.buckets()[0], vec![0]);
        assert_eq!(l.buckets()[1], vec![1, 2]);
    }

    #[test]
    fn ready_order_changes_packing() {
        let a = BucketLayout::initial(&[4, 4, 4, 4], 40);
        let b = BucketLayout::from_ready_order(&[4, 4, 4, 4], &[3, 1, 0, 2], 40);
        assert_ne!(a, b);
        assert_eq!(b.buckets(), &[vec![3, 1], vec![0, 2]]);
    }

    #[test]
    fn bucket_positions_concatenate_ranges() {
        let l = BucketLayout::from_ready_order(&[2, 3, 1], &[2, 0, 1], 1024);
        // Offsets: p0 at 0..2, p1 at 2..5, p2 at 5..6. Bucket order 2,0,1.
        assert_eq!(l.bucket_positions(&l.buckets()[0]), vec![5, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn every_element_appears_exactly_once() {
        let sizes = [7usize, 13, 1, 29, 4];
        let l = BucketLayout::from_ready_order(&sizes, &[4, 2, 0, 3, 1], 64);
        let mut seen = vec![0u8; sizes.iter().sum()];
        for b in l.buckets() {
            for pos in l.bucket_positions(b) {
                seen[pos] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn ready_order_must_be_permutation() {
        BucketLayout::from_ready_order(&[1, 1], &[0, 0], 64);
    }
}
