//! Kernel profiles: the knob that decides floating-point accumulation order.
//!
//! A [`KernelProfile`] stands in for everything that, on a real GPU, decides
//! how a reduction is grouped: the launch configuration derived from the SM
//! count, the cuBLAS/cuDNN algorithm id, and whether atomics are allowed.
//! Two profiles that differ in any field will, in general, produce different
//! f32 bits for the same mathematical reduction — which is precisely the
//! hardware-heterogeneity problem EasyScale's D2 level solves by pinning one
//! profile everywhere.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// How many reduction-tree shapes a device family exposes; used by the
/// autotuner to enumerate candidate implementations.
pub const ALGO_COUNT: u8 = 3;

/// A reduction/kernel configuration.
///
/// * `reduce_block` — elements per leaf block of the two-level reduction tree
///   (the analog of a CUDA thread-block's partial sum).
/// * `tile_k` — inner-dimension tile for matmul/conv accumulation (the
///   analog of a GEMM K-tile).
/// * `algo_id` — which algorithm variant to use (the analog of the cuDNN
///   `algo_id`): variants differ in traversal order of the reduction axis.
/// * `deterministic` — when `false`, reductions emulate atomic accumulation:
///   the combination order of partial sums is perturbed by a process-global
///   noise counter, so repeated identical calls produce different bits (the
///   D0 failure mode that `torch.use_deterministic_algorithms(True)`
///   eliminates on real hardware).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Leaf block size of the reduction tree.
    pub reduce_block: usize,
    /// Inner (K) tile size for matmul/conv.
    pub tile_k: usize,
    /// Algorithm variant (0..ALGO_COUNT): 0 = forward traversal,
    /// 1 = reversed traversal, 2 = interleaved (stride-2) traversal.
    pub algo_id: u8,
    /// Whether accumulation order is fixed (true) or atomic-like (false).
    pub deterministic: bool,
}

impl KernelProfile {
    /// The vendor-optimized profile for a device with `sm_count` streaming
    /// multiprocessors. Real vendor libraries size their launch grids from
    /// the SM count, which is why V100/P100/T4 disagree bitwise; we derive
    /// the tree shape from it the same way.
    pub fn vendor_optimized(sm_count: u32) -> Self {
        KernelProfile {
            reduce_block: (sm_count as usize).max(8),
            tile_k: ((sm_count as usize / 8).max(4)).next_power_of_two(),
            algo_id: (sm_count % ALGO_COUNT as u32) as u8,
            deterministic: true,
        }
    }

    /// The hardware-agnostic profile (D2): one fixed tree shape that any
    /// device can execute, at the cost of forgoing vendor-tuned kernels.
    pub fn hardware_agnostic() -> Self {
        KernelProfile { reduce_block: 32, tile_k: 16, algo_id: 0, deterministic: true }
    }

    /// A non-deterministic profile emulating atomic reductions (fast path
    /// frameworks use by default; the D0 hazard).
    pub fn nondeterministic(sm_count: u32) -> Self {
        KernelProfile { deterministic: false, ..Self::vendor_optimized(sm_count) }
    }

    /// True if this profile is placement-independent (same bits on every
    /// simulated device).
    pub fn is_hardware_agnostic(&self) -> bool {
        *self == Self::hardware_agnostic()
    }

    /// Pin the algorithm id (the cuDNN/cuBLAS `algo_id` fix in D2's second
    /// prong), keeping the rest of the profile.
    pub fn with_algo(mut self, algo_id: u8) -> Self {
        assert!(algo_id < ALGO_COUNT, "algo_id out of range");
        self.algo_id = algo_id;
        self
    }
}

impl Default for KernelProfile {
    fn default() -> Self {
        Self::hardware_agnostic()
    }
}

/// Process-global noise counter emulating the scheduling nondeterminism that
/// drives atomic-accumulation order on real GPUs.
///
/// Relaxed ordering is sufficient: the counter only needs to produce
/// *different* values across calls, not any ordering relationship with other
/// memory operations.
static NOISE: AtomicU64 = AtomicU64::new(0x9E37_79B9);

/// Source of scheduling noise for non-deterministic kernels.
pub struct NoiseSource;

impl NoiseSource {
    /// Next noise value (changes every call; never repeats within a run).
    #[inline]
    pub fn next() -> u64 {
        let raw = NOISE.fetch_add(0x2545_F491_4F6C_DD1D, Ordering::Relaxed);
        // SplitMix-style finalizer so consecutive values look unrelated.
        let mut z = raw;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// How many independent leaf-block accumulators the vectorized evaluators
/// keep in flight at most. The D2 contract pins the accumulation *tree* —
/// leaf-block boundaries, left-to-right order inside a leaf, and the
/// `algo_id` traversal of the partials — not the instruction schedule, so
/// evaluating up to `SUM_LANES` leaves in lockstep (one scalar accumulator
/// per leaf, each taking its turn) produces bit-identical partials while
/// hiding the f32 add latency behind independent dependency chains.
pub const SUM_LANES: usize = 8;

/// Sum a slice with the accumulation tree dictated by `profile`.
///
/// Deterministic mode: leaf blocks of `reduce_block` consecutive elements are
/// each summed left-to-right, then the per-block partials are combined in the
/// traversal order selected by `algo_id`. Non-deterministic mode additionally
/// rotates the partial-combination order by a fresh noise draw, emulating
/// atomics racing.
///
/// This is the vectorized evaluator: leaf blocks are computed up to
/// [`SUM_LANES`] at a time (see [`leaf_partials`]), bit-identical to [`blocked_sum_scalar`]
/// for every profile — the proptests in `tests/vectorized_equiv.rs` sweep
/// the equivalence across random profile shapes and ragged lengths.
pub fn blocked_sum(data: &[f32], profile: &KernelProfile) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    let block = profile.reduce_block.max(1);
    // Hot path: small reductions fit one block — no partials vector needed.
    if data.len() <= block {
        return data.iter().sum();
    }
    // BatchNorm's 512-element channel is 7 to 13 blocks: its partials live
    // on the stack. Only a long vector (the 64 Ki probe) needs the heap.
    let nblocks = data.len().div_ceil(block);
    let mut stack = [0.0f32; 32];
    match stack.get_mut(..nblocks) {
        Some(partials) => {
            leaf_partials_into(data, profile, partials);
            combine_partials(partials, profile)
        }
        None => combine_partials(&leaf_partials(data, profile), profile),
    }
}

/// The scalar reference evaluator: one leaf block at a time, exactly the
/// pre-vectorization implementation. Kept in-tree as the oracle the
/// `scalar ≡ vectorized` bit-equality proptests compare against.
pub fn blocked_sum_scalar(data: &[f32], profile: &KernelProfile) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    let block = profile.reduce_block.max(1);
    let nblocks = data.len().div_ceil(block);
    if nblocks == 1 {
        return data.iter().sum();
    }
    let mut partials = Vec::with_capacity(nblocks);
    for chunk in data.chunks(block) {
        partials.push(chunk.iter().sum::<f32>());
    }
    combine_partials(&partials, profile)
}

/// How many consecutive elements one lane of the lockstep advances before
/// the next lane takes its turn: its accumulator stays in a register for the
/// segment instead of a load and a store per element. Interleaved in-process
/// A/B of `blocked_sum`, ns per call, parent (one element per turn, eight
/// lanes or none) / 4 / 16 / 64: 512 @ block 80 (BatchNorm on a V100)
/// 165 / 353 / 124 / 139, 512 @ 56 228 / 330 / 116 / 128, 65 536 @ 32
/// 38 810 / 47 462 / 19 080 / 18 388, 128 @ 80 (one full block) 48 / 91 / 60 / 49.
pub(crate) const LANE_SEG: usize = 16;

/// Per-leaf-block partial sums, vectorized: up to [`SUM_LANES`] full blocks
/// are evaluated in lockstep, [`LANE_SEG`] elements of each in turn, each
/// block owning one scalar accumulator that still sees its elements
/// strictly left-to-right. Fewer full blocks left is the same lockstep with
/// fewer lanes; only the final ragged block is a single chain. Bit-
/// identical to [`leaf_partials_scalar`] by construction: no addition is
/// reassociated, only interleaved across independent chains.
pub fn leaf_partials(data: &[f32], profile: &KernelProfile) -> Vec<f32> {
    let mut partials = vec![0.0; data.len().div_ceil(profile.reduce_block.max(1))];
    leaf_partials_into(data, profile, &mut partials);
    partials
}

/// [`leaf_partials`] over a slice the caller owns, one element per block.
fn leaf_partials_into(data: &[f32], profile: &KernelProfile, partials: &mut [f32]) {
    let block = profile.reduce_block.max(1);
    let nfull = data.len() / block;
    let mut b = 0usize;
    while b < nfull {
        let lanes = SUM_LANES.min(nfull - b);
        let mut acc = [0.0f32; SUM_LANES];
        for j0 in (0..block).step_by(LANE_SEG) {
            let j1 = (j0 + LANE_SEG).min(block);
            for (l, a) in acc.iter_mut().take(lanes).enumerate() {
                for &x in &data[(b + l) * block + j0..(b + l) * block + j1] {
                    *a += x;
                }
            }
        }
        partials[b..b + lanes].copy_from_slice(&acc[..lanes]);
        b += lanes;
    }
    if nfull * block < data.len() {
        partials[nfull] = data[nfull * block..].iter().sum::<f32>();
    }
}

/// Per-leaf-block partial sums, scalar reference (one block at a time,
/// left-to-right). The oracle for [`leaf_partials`].
pub fn leaf_partials_scalar(data: &[f32], profile: &KernelProfile) -> Vec<f32> {
    let block = profile.reduce_block.max(1);
    data.chunks(block).map(|c| c.iter().sum::<f32>()).collect()
}

/// Combine per-block partial sums in the order the profile dictates.
pub(crate) fn combine_partials(partials: &[f32], profile: &KernelProfile) -> f32 {
    let n = partials.len();
    if n == 0 {
        return 0.0;
    }
    let rot = if profile.deterministic { 0 } else { (NoiseSource::next() % n as u64) as usize };
    combine_partials_with_rot(partials, profile, rot)
}

/// Combine partials with an explicit rotation (deterministic profiles always
/// use `rot = 0`; non-deterministic ones draw it from [`NoiseSource`]).
/// Public so the bit-equality proptests can pin the rotation and compare the
/// scalar and vectorized pipelines under `deterministic: false` profiles,
/// where a cross-call comparison would otherwise see two different draws.
pub fn combine_partials_with_rot(partials: &[f32], profile: &KernelProfile, rot: usize) -> f32 {
    let n = partials.len();
    if n == 0 {
        return 0.0;
    }
    let mut acc = 0.0f32;
    match profile.algo_id % ALGO_COUNT {
        0 => {
            for i in 0..n {
                acc += partials[(i + rot) % n];
            }
        }
        1 => {
            for i in (0..n).rev() {
                acc += partials[(i + rot) % n];
            }
        }
        _ => {
            // Interleaved: even indices first, then odd — a stand-in for
            // warp-strided accumulation.
            let mut i = 0;
            while i < n {
                acc += partials[(i + rot) % n];
                i += 2;
            }
            let mut i = 1;
            while i < n {
                acc += partials[(i + rot) % n];
                i += 2;
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<f32> {
        // Values with wildly different magnitudes so grouping changes bits.
        (0..n)
            .map(|i| ((i * 2654435761usize) % 1000) as f32 * 1e-3 + ((i % 7) as f32) * 1e4)
            .collect()
    }

    #[test]
    fn deterministic_profiles_are_repeatable() {
        let d = data(10_000);
        let p = KernelProfile::vendor_optimized(80);
        assert_eq!(blocked_sum(&d, &p).to_bits(), blocked_sum(&d, &p).to_bits());
    }

    #[test]
    fn different_sm_counts_produce_different_bits() {
        let d = data(10_000);
        let v100 = KernelProfile::vendor_optimized(80);
        let t4 = KernelProfile::vendor_optimized(40);
        assert_ne!(
            blocked_sum(&d, &v100).to_bits(),
            blocked_sum(&d, &t4).to_bits(),
            "heterogeneous devices must disagree bitwise (the D2 problem)"
        );
    }

    #[test]
    fn hardware_agnostic_profile_is_device_independent() {
        let d = data(10_000);
        let p = KernelProfile::hardware_agnostic();
        // Same profile everywhere trivially agrees — the point is that it is
        // the SAME profile regardless of the device we pretend to run on.
        assert!(p.is_hardware_agnostic());
        assert_eq!(blocked_sum(&d, &p).to_bits(), blocked_sum(&d, &p).to_bits());
    }

    #[test]
    fn nondeterministic_mode_varies_across_calls() {
        let d = data(10_000);
        let p = KernelProfile::nondeterministic(80);
        let bits: Vec<u32> = (0..16).map(|_| blocked_sum(&d, &p).to_bits()).collect();
        let distinct: std::collections::HashSet<_> = bits.iter().collect();
        assert!(distinct.len() > 1, "atomic emulation must produce varying bits");
    }

    #[test]
    fn algo_variants_disagree() {
        let d = data(4_096);
        let base = KernelProfile::hardware_agnostic();
        let sums: Vec<u32> =
            (0..ALGO_COUNT).map(|a| blocked_sum(&d, &base.with_algo(a)).to_bits()).collect();
        assert!(
            sums[0] != sums[1] || sums[0] != sums[2],
            "algorithm variants should not all coincide"
        );
    }

    #[test]
    fn all_orders_agree_mathematically() {
        let d = data(5_000);
        let reference: f64 = d.iter().map(|&x| x as f64).sum();
        for sm in [40u32, 56, 80] {
            let s = blocked_sum(&d, &KernelProfile::vendor_optimized(sm)) as f64;
            assert!(
                (s - reference).abs() / reference.abs() < 1e-4,
                "sum drifted too far: {s} vs {reference}"
            );
        }
    }

    #[test]
    fn empty_and_singleton() {
        let p = KernelProfile::default();
        assert_eq!(blocked_sum(&[], &p), 0.0);
        assert_eq!(blocked_sum(&[3.5], &p), 3.5);
    }

    #[test]
    #[should_panic(expected = "algo_id out of range")]
    fn with_algo_bounds_checked() {
        KernelProfile::default().with_algo(ALGO_COUNT);
    }

    #[test]
    fn vectorized_sum_matches_scalar_bitwise() {
        // A quick fixed sweep; the exhaustive randomized sweep lives in
        // tests/vectorized_equiv.rs.
        for len in [0usize, 1, 7, 31, 32, 33, 255, 256, 257, 4096, 10_000] {
            let d = data(len);
            for block in [1usize, 2, 8, 31, 32, 40, 80, 1000] {
                for algo in 0..ALGO_COUNT {
                    let p = KernelProfile {
                        reduce_block: block,
                        tile_k: 16,
                        algo_id: algo,
                        deterministic: true,
                    };
                    assert_eq!(
                        blocked_sum(&d, &p).to_bits(),
                        blocked_sum_scalar(&d, &p).to_bits(),
                        "len={len} block={block} algo={algo}"
                    );
                }
            }
        }
    }

    #[test]
    fn leaf_partials_match_scalar_bitwise_even_for_nondet_profiles() {
        // Leaves never see the noise rotation, so the partials comparison is
        // exact even when the profile is non-deterministic.
        let d = data(2_000);
        for block in [1usize, 3, 17, 64, 100] {
            let p =
                KernelProfile { reduce_block: block, tile_k: 8, algo_id: 2, deterministic: false };
            let a = leaf_partials(&d, &p);
            let b = leaf_partials_scalar(&d, &p);
            assert_eq!(a.len(), b.len());
            assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
    }
}
