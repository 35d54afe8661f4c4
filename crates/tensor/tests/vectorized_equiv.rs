//! Randomized `scalar ≡ vectorized` bit-equality sweep.
//!
//! The vectorized kernels (lockstep leaf blocks in `blocked_sum`, lockstep
//! K-tiles in `dot`, the column-chunked row kernel behind all three
//! matmuls, the direct convolution's three passes, chunked `axpy_`) claim to keep
//! the profile-pinned accumulation tree *exactly* — same leaf boundaries,
//! same left-to-right order inside a leaf, same `algo_id` traversal of the
//! partials — and only interleave independent chains. These proptests hold
//! them to that claim against the in-tree scalar oracles
//! (`blocked_sum_scalar`, `dot_scalar`, `matmul*_scalar`, and
//! `conv2d_*_scalar`, which are `im2col_scalar` + a scalar matmul +
//! `col2im_scalar`), bit for bit, across randomized profiles (including
//! `deterministic: false`), ragged lengths, and empty/one-element inputs.
//! Shapes the kernels branch on are not left to 48 random draws: every case
//! walks each lane count of the lockstep (1…9 full blocks plus a tail), each
//! side of `tile_k`, every chunk width of the row kernel and both sides of
//! the row-count switch in `matmul_a_bt`.

use proptest::prelude::*;
use tensor::kernels::{
    blocked_sum, blocked_sum_scalar, combine_partials_with_rot, leaf_partials, leaf_partials_scalar,
};
use tensor::ops::{
    conv2d_dw_into, conv2d_dw_scalar, conv2d_dx_into, conv2d_dx_scalar, conv2d_forward_into,
    conv2d_forward_scalar, dot, dot_scalar, matmul, matmul_a_bt, matmul_a_bt_into,
    matmul_a_bt_scalar, matmul_at_b, matmul_at_b_scalar, matmul_into, matmul_scalar, ConvGeom,
    ConvPlan,
};
use tensor::{KernelProfile, Tensor};

fn det_profile() -> impl Strategy<Value = KernelProfile> {
    (1usize..300, 1usize..80, 0u8..3).prop_map(|(reduce_block, tile_k, algo_id)| KernelProfile {
        reduce_block,
        tile_k,
        algo_id,
        deterministic: true,
    })
}

fn any_profile() -> impl Strategy<Value = KernelProfile> {
    (1usize..300, 1usize..80, 0u8..3, any::<bool>()).prop_map(
        |(reduce_block, tile_k, algo_id, deterministic)| KernelProfile {
            reduce_block,
            tile_k,
            algo_id,
            deterministic,
        },
    )
}

/// Mixed-magnitude values (spanning ~7 decades): regrouping additions over
/// such data almost always changes the bits, so bit-equality here is a real
/// statement about the accumulation tree, not an accident of benign inputs.
/// Length range starts at 0 so empty and one-element inputs are in-domain.
fn rough_data(max: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, 0..max).prop_map(|v| {
        v.into_iter().enumerate().map(|(i, x)| x * 10f32.powi((i % 7) as i32 - 3)).collect()
    })
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `count` mixed-magnitude values that are a function of `(seed, salt)`,
/// for the shapes a case derives from its profile instead of drawing.
fn gen(count: usize, seed: u32, salt: u32) -> Vec<f32> {
    (0..count)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed ^ salt);
            (h % 1999) as f32 * 0.01 * 10f32.powi((h % 7) as i32 - 3)
        })
        .collect()
}

/// Lengths with exactly 1…9 full blocks of `block` and a ragged tail of
/// `tail % block` elements: every lane count of the lockstep, the hand-over
/// to a second group, and the single-chain last block.
fn lane_lengths(block: usize, tail: usize) -> impl Iterator<Item = usize> {
    (1..=9).map(move |full| full * block + tail % block)
}

/// All three matmuls (Tensor and slice forms) against their oracles on one
/// shape. The `_into` forms write into a dirty buffer with dirty scratch.
fn check_matmuls(m: usize, k: usize, n: usize, seed: u32, profile: &KernelProfile) {
    let a = Tensor::from_vec(gen(m * k, seed, 1), &[m, k]);
    let b = Tensor::from_vec(gen(k * n, seed, 2), &[k, n]);
    let at = Tensor::from_vec(gen(k * m, seed, 3), &[k, m]);
    let bt = Tensor::from_vec(gen(n * k, seed, 4), &[n, k]);
    let dims = (m, k, n);
    let (mut scratch, mut tr) = (vec![f32::NAN; 7], vec![f32::NAN; 3]);
    let mut out = vec![f32::NAN; m * n];

    let want = matmul_scalar(&a, &b, profile);
    assert!(matmul(&a, &b, profile).bitwise_eq(&want), "matmul {dims:?} {profile:?}");
    matmul_into(b.data(), dims, profile, &mut out, &mut scratch, |i, p| a.data()[i * k + p]);
    assert_eq!(bits(&out), bits(want.data()), "matmul_into {dims:?} {profile:?}");

    let want = matmul_at_b_scalar(&at, &b, profile);
    assert!(matmul_at_b(&at, &b, profile).bitwise_eq(&want), "matmul_at_b {dims:?} {profile:?}");
    matmul_into(b.data(), dims, profile, &mut out, &mut scratch, |i, p| at.data()[p * m + i]);
    assert_eq!(bits(&out), bits(want.data()), "matmul_into, Aᵀ {dims:?} {profile:?}");

    let want = matmul_a_bt_scalar(&a, &bt, profile);
    assert!(matmul_a_bt(&a, &bt, profile).bitwise_eq(&want), "matmul_a_bt {dims:?} {profile:?}");
    matmul_a_bt_into(a.data(), bt.data(), dims, profile, &mut out, &mut tr, &mut scratch);
    assert_eq!(bits(&out), bits(want.data()), "matmul_a_bt_into {dims:?} {profile:?}");
}

proptest! {
    /// blocked_sum (vectorized) ≡ blocked_sum_scalar, bitwise, for every
    /// deterministic profile and every length (ragged tails included).
    #[test]
    fn sum_vectorized_eq_scalar(
        data in rough_data(3000),
        profile in det_profile(),
        seed in any::<u32>(),
    ) {
        prop_assert_eq!(
            blocked_sum(&data, &profile).to_bits(),
            blocked_sum_scalar(&data, &profile).to_bits(),
            "len={} profile={:?}", data.len(), profile
        );
        for len in lane_lengths(profile.reduce_block, seed as usize) {
            let d = gen(len, seed, 5);
            prop_assert_eq!(
                blocked_sum(&d, &profile).to_bits(),
                blocked_sum_scalar(&d, &profile).to_bits(),
                "len={} profile={:?}", len, profile
            );
            prop_assert_eq!(
                bits(&leaf_partials(&d, &profile)),
                bits(&leaf_partials_scalar(&d, &profile)),
                "partials len={} profile={:?}", len, profile
            );
        }
    }

    /// The same equivalence under `deterministic: false`, where a naive
    /// cross-call comparison would see two different noise draws: leaves
    /// never see the rotation, so the partials must agree bitwise, and with
    /// the rotation pinned the combine step must agree for *every* rotation.
    #[test]
    fn sum_nondet_pipeline_eq_scalar_with_pinned_rotation(
        data in rough_data(2000),
        profile in any_profile(),
        rot_seed in any::<u32>(),
    ) {
        let fast = leaf_partials(&data, &profile);
        let slow = leaf_partials_scalar(&data, &profile);
        prop_assert_eq!(bits(&fast), bits(&slow));
        if !fast.is_empty() {
            let n = fast.len();
            for rot in [0, rot_seed as usize % n, n - 1] {
                prop_assert_eq!(
                    combine_partials_with_rot(&fast, &profile, rot).to_bits(),
                    combine_partials_with_rot(&slow, &profile, rot).to_bits(),
                    "rot={} profile={:?}", rot, profile
                );
            }
        }
    }

    /// dot (lockstep K-tiles) ≡ dot_scalar, bitwise.
    #[test]
    fn dot_vectorized_eq_scalar(
        data in rough_data(2000),
        profile in det_profile(),
        seed in any::<u32>(),
    ) {
        let b: Vec<f32> = data.iter().enumerate().map(|(i, x)| x * 0.5 + (i % 3) as f32).collect();
        prop_assert_eq!(
            dot(&data, &b, &profile).to_bits(),
            dot_scalar(&data, &b, &profile).to_bits(),
            "len={} profile={:?}", data.len(), profile
        );
        for len in lane_lengths(profile.tile_k, seed as usize) {
            let (x, y) = (gen(len, seed, 6), gen(len, seed, 7));
            prop_assert_eq!(
                dot(&x, &y, &profile).to_bits(),
                dot_scalar(&x, &y, &profile).to_bits(),
                "len={} profile={:?}", len, profile
            );
        }
    }

    /// All three matmul kernels ≡ their scalar oracles, bitwise, across
    /// random shapes: `m` on both sides of `matmul_a_bt`'s row-count switch,
    /// `n` across every chunk width of the row kernel and a ragged tail, and
    /// `k` as drawn plus one below, at and one above `tile_k` (the
    /// single-tile store-once path and the first combine) and either side of
    /// eight tiles.
    #[test]
    fn matmuls_vectorized_eq_scalar(
        m in 1usize..12, k in 1usize..200, n in 1usize..100,
        seed in any::<u32>(),
        profile in det_profile(),
    ) {
        let t = profile.tile_k;
        for k in [k, t - 1, t, t + 1, 8 * t - 1, 8 * t + 1] {
            check_matmuls(m, k, n, seed, &profile);
        }
    }

    /// The direct convolution ≡ unfold + scalar matmul (+ fold), bitwise, all
    /// three passes: for every kernel 1–5 × stride 1–3 × pad 0–2 that fits
    /// a drawn `[cin, h, w]` (h ≠ w allowed, down to the smallest plane the
    /// kernel fits — a single output position, whole taps in the padding)
    /// and `cout` 1…40, which walks every chunk width and row-group
    /// remainder of the weight gradient's blocks as `matmuls_vectorized_eq_scalar`
    /// walks `chunk_cols`. Profiles tile at 1…32 under all three `algo_id`s.
    /// Values include ±0, subnormals and ±∞, so padding zeros meet
    /// infinities and a skipped `+ w·0.0` would show. The weight gradient
    /// multiplies `col · g` where its oracle multiplies `g · col`: an IEEE
    /// product commutes bit for bit unless both factors are NaN, and no
    /// input here is (the NaNs that ∞·0 and ∞−∞ make on the way are all the
    /// one default NaN). The kernels find dirty buffers everywhere.
    #[test]
    fn conv2d_direct_eq_scalar(
        cin in 1usize..4, h in 1usize..10, w in 1usize..10, cout in 1usize..41,
        tile_k in 1usize..33, algo_id in 0u8..3,
        seed in any::<u32>(),
    ) {
        let profile = KernelProfile { reduce_block: 32, tile_k, algo_id, deterministic: true };
        // One element in 101 is ±∞ — most sums stay finite and go on
        // telling orders apart — eight are ±0 or subnormal, half negative.
        let small = [0.0, -0.0, 1e-41, -3e-42];
        let values = |count: usize, salt: u32| -> Vec<f32> {
            let mut v = gen(count, seed, salt);
            for (i, x) in v.iter_mut().enumerate() {
                let h = (i as u32).wrapping_mul(40503).wrapping_add(seed ^ salt) / 7;
                match h % 101 {
                    0 => *x = [f32::INFINITY, f32::NEG_INFINITY][(h / 101) as usize % 2],
                    r @ 1..=8 => *x = small[r as usize % 4],
                    9..=54 => *x = -*x,
                    _ => {}
                }
            }
            v
        };
        let x = Tensor::from_vec(values(cin * h * w, 8), &[cin, h, w]);
        for (kernel, stride, pad) in
            (1..=5).flat_map(|k| (1..=3).flat_map(move |s| (0..=2).map(move |p| (k, s, p))))
        {
            if h + 2 * pad < kernel || w + 2 * pad < kernel {
                continue;
            }
            let geom = ConvGeom { kernel, stride, pad };
            let plan = ConvPlan::new((cin, h, w), geom);
            let (k, (oh, ow)) = (cin * kernel * kernel, plan.out_dims());
            let tag = format!("{geom:?} cin={cin} h={h} w={w} cout={cout} {profile:?}");
            let weight = Tensor::from_vec(values(cout * k, 9), &[cout, k]);
            let g = Tensor::from_vec(values(cout * oh * ow, 10), &[cout, oh * ow]);
            let (mut work, mut scratch) = (vec![f32::NAN; 5], vec![f32::NAN; 3]);
            let mut padded = vec![f32::NAN; plan.padded_len()];
            plan.pad_into(x.data(), &mut padded);

            let want = conv2d_forward_scalar(&x, &weight, geom, &profile);
            let mut out = vec![f32::NAN; want.len()];
            conv2d_forward_into(&plan, &padded, weight.data(), &profile, &mut out, &mut scratch);
            prop_assert_eq!(bits(&out), bits(want.data()), "forward {}", &tag);

            // Added to what `gwt` holds, which is `gw` transposed.
            let want = conv2d_dw_scalar(&x, &g, geom, &profile);
            let before = values(k * cout, 11);
            let mut gwt = before.clone();
            conv2d_dw_into(&plan, &padded, g.data(), &profile, &mut gwt, &mut work);
            for (i, (got, was)) in gwt.iter().zip(&before).enumerate() {
                let sum = was + want.at(i % cout * k + i / cout);
                prop_assert_eq!(got.to_bits(), sum.to_bits(), "dW[{}] {}", i, &tag);
            }

            let want = conv2d_dx_scalar(&weight, &g, (cin, h, w), geom, &profile);
            let mut dx = vec![f32::NAN; want.len()];
            conv2d_dx_into(&plan, weight.data(), g.data(), &profile, &mut dx, &mut work, &mut scratch);
            prop_assert_eq!(bits(&dx), bits(want.data()), "dx {}", &tag);
        }
    }

    /// Chunked axpy_ ≡ the one-element-at-a-time reference. Elementwise, so
    /// this holds for any data; the property pins the remainder handling.
    #[test]
    fn axpy_chunked_eq_elementwise(data in rough_data(500), alpha in -10.0f32..10.0) {
        let y = Tensor::from_vec(
            data.iter().enumerate().map(|(i, x)| x * 0.25 - (i % 5) as f32).collect(),
            &[data.len()],
        );
        let mut fast = Tensor::from_slice(&data);
        fast.axpy_(alpha, &y);
        let mut slow = data.clone();
        for (x, &v) in slow.iter_mut().zip(y.data()) {
            *x += alpha * v;
        }
        prop_assert!(fast.bitwise_eq(&Tensor::from_vec(slow, &[data.len()])));
    }
}
