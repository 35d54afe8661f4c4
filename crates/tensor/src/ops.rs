//! Tensor operations whose floating-point accumulation order is controlled by
//! a [`KernelProfile`].
//!
//! Everything reduction-shaped (matmul, conv, sums, softmax denominators)
//! routes its additions through the profile's tree shape; everything
//! elementwise (relu, scaling) is order-free and therefore trivially
//! deterministic. Convolution (`conv.rs`, re-exported here) reads a
//! zero-padded sample through the matmul's tree, so its profile sensitivity
//! is exactly the matmul's over the unfolded matrix, and its backward
//! scatter uses col2im's fixed loop order.
//!
//! The tree is the contract, the schedule is free (DESIGN.md "Same tree,
//! faster schedule"): all three matmuls run through one row kernel that
//! holds a K-tile of independent output columns in registers (`A·Bᵀ` gets
//! there by transposing `B`, which moves data and adds nothing). The
//! `*_scalar` functions are the per-element references each is held to, bit
//! for bit (`tests/vectorized_equiv.rs`); the `_into` forms work on slices
//! the caller owns, so a layer reuses one set of buffers across a batch.

use crate::kernels::{combine_partials, KernelProfile, ALGO_COUNT, LANE_SEG, SUM_LANES};
use crate::{with_scratch, Tensor};

pub use crate::conv::{
    col2im_scalar, conv2d_dw_into, conv2d_dw_scalar, conv2d_dx_into, conv2d_dx_scalar,
    conv2d_forward_into, conv2d_forward_scalar, im2col_scalar, ConvGeom, ConvPlan,
};
pub use crate::kernels::blocked_sum;

/// Reduce `f(0) + f(1) + … + f(len-1)` using the profile's K-tiling: each
/// tile of `tile_k` consecutive terms is summed left-to-right, and tile
/// partials are combined in the profile's traversal order.
///
/// This is the scalar reference schedule — the oracle every vectorized
/// kernel in this module is proven bit-identical against. The vectorized
/// evaluators keep exactly this tree (tile boundaries, left-to-right order
/// inside a tile, `algo_id` traversal of the partials) and only interleave
/// *independent* accumulation chains.
#[inline]
pub fn tiled_reduce(len: usize, profile: &KernelProfile, mut f: impl FnMut(usize) -> f32) -> f32 {
    let tile = profile.tile_k.max(1);
    if len <= tile {
        let mut acc = 0.0;
        for i in 0..len {
            acc += f(i);
        }
        return acc;
    }
    let ntiles = len.div_ceil(tile);
    let mut partials = Vec::with_capacity(ntiles);
    let mut i = 0;
    while i < len {
        let end = (i + tile).min(len);
        let mut acc = 0.0;
        for j in i..end {
            acc += f(j);
        }
        partials.push(acc);
        i = end;
    }
    combine_partials(&partials, profile)
}

/// Dot product with profile-controlled accumulation, vectorized: up to
/// [`SUM_LANES`] full K-tiles are evaluated in lockstep, [`LANE_SEG`] terms
/// of each in turn (one accumulator per tile, products formed in the same
/// left-to-right order), the ragged last tile as a single chain, then the
/// tile partials are combined exactly as [`tiled_reduce`] combines them.
/// Bit-identical to [`dot_scalar`].
pub fn dot(a: &[f32], b: &[f32], profile: &KernelProfile) -> f32 {
    with_scratch(|_, partials| dot_with(a, b, profile, partials))
}

/// [`dot`] with the tile partials in a buffer the caller keeps, so a loop of
/// dots allocates nothing once it has grown.
fn dot_with(a: &[f32], b: &[f32], profile: &KernelProfile, partials: &mut Vec<f32>) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let len = a.len();
    let tile = profile.tile_k.max(1);
    if len <= tile {
        let mut acc = 0.0;
        for i in 0..len {
            acc += a[i] * b[i];
        }
        return acc;
    }
    partials.clear();
    let nfull = len / tile;
    let mut t = 0usize;
    while t < nfull {
        let lanes = SUM_LANES.min(nfull - t);
        let mut acc = [0.0f32; SUM_LANES];
        for j0 in (0..tile).step_by(LANE_SEG) {
            let j1 = (j0 + LANE_SEG).min(tile);
            for (l, x) in acc.iter_mut().take(lanes).enumerate() {
                let s = (t + l) * tile;
                for (p, q) in a[s + j0..s + j1].iter().zip(&b[s + j0..s + j1]) {
                    *x += p * q;
                }
            }
        }
        partials.extend_from_slice(&acc[..lanes]);
        t += lanes;
    }
    if nfull * tile < len {
        let mut acc = 0.0;
        for i in nfull * tile..len {
            acc += a[i] * b[i];
        }
        partials.push(acc);
    }
    combine_partials(partials, profile)
}

/// Scalar reference dot product (per-element [`tiled_reduce`]); the oracle
/// for [`dot`].
pub fn dot_scalar(a: &[f32], b: &[f32], profile: &KernelProfile) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    tiled_reduce(a.len(), profile, |i| a[i] * b[i])
}

/// Sum of all elements.
pub fn sum(t: &Tensor, profile: &KernelProfile) -> f32 {
    blocked_sum(t.data(), profile)
}

/// Mean of all elements.
pub fn mean(t: &Tensor, profile: &KernelProfile) -> f32 {
    if t.is_empty() {
        return 0.0;
    }
    sum(t, profile) / t.len() as f32
}

/// Widest column chunk of the row kernel: 32 f32 are eight SSE
/// accumulators, which still leaves registers for the broadcast and loads.
/// The cascade below it is 16, 8, 4, 2, 1. Interleaved in-process A/B
/// against the parent's row update (a load and a store of the partial row
/// per `p`), ns per call at `tile_k` 16, `(m, k, n)`: (8,72,64) 4078 → 2793,
/// (8,27,64) 2104 → 1520, (16,72,16) 4116 → 2352, (8,64,10) 1999 → 1367,
/// `Aᵀ·B` (72,8,64) 4983 → 2945 and (64,8,10) 2363 → 1269 — that last one
/// read 1793 → 2224 while the cascade went from 4 straight to 1.
const MAX_CHUNK: usize = 32;

/// The row kernel behind all three matmuls: `out: [m,n] = A · b` for
/// `b: [k,n]` and an `A` addressed by `a_at(i, p)`. Per output element
/// `(i, j)` the addition chain is *identical* to
/// `tiled_reduce(k, profile, |p| a_at(i, p) * b[p*n + j])`: products are
/// formed for `p` ascending within each K-tile, tile partials start at 0.0,
/// and the partials are combined in the profile's `algo_id` order. Only the
/// interleaving across the (independent) columns changes: they are cut into
/// register-sized chunks, widest first, so n = 10, 16, 27, 72 are not left
/// to a scalar tail. `scratch` (one widest chunk of partials per K-tile when
/// there are several) is only ever resized: a caller that keeps it
/// allocates nothing once it has grown.
pub fn matmul_into(
    b: &[f32],
    dims @ (m, k, n): (usize, usize, usize),
    profile: &KernelProfile,
    out: &mut [f32],
    scratch: &mut Vec<f32>,
    a_at: impl Fn(usize, usize) -> f32,
) {
    assert!(b.len() == k * n && out.len() == m * n, "matmul_into shapes");
    let ntiles = k.div_ceil(profile.tile_k.max(1));
    scratch.resize(if ntiles > 1 { ntiles * MAX_CHUNK } else { 0 }, 0.0);
    let mut j = chunk_cols::<MAX_CHUNK>(0, b, dims, profile, out, scratch, &a_at);
    j = chunk_cols::<16>(j, b, dims, profile, out, scratch, &a_at);
    j = chunk_cols::<8>(j, b, dims, profile, out, scratch, &a_at);
    j = chunk_cols::<4>(j, b, dims, profile, out, scratch, &a_at);
    j = chunk_cols::<2>(j, b, dims, profile, out, scratch, &a_at);
    chunk_cols::<1>(j, b, dims, profile, out, scratch, &a_at);
}

/// Every `W`-wide column chunk that still fits from column `j0` on, for all
/// `m` rows; returns the first column not covered. A chunk's accumulators
/// live in a fixed array for one K-tile and are stored once: per element the
/// chain is `0.0 + a(p0)·b + …`, `p` ascending, and none outlives its tile.
/// A single tile's partial *is* the result (`tiled_reduce`'s short-circuit:
/// no combine step, `partials` empty); several go to `partials[t*W + l]`
/// for `combine_rows`.
#[inline(always)]
fn chunk_cols<const W: usize>(
    mut j0: usize,
    b: &[f32],
    (m, k, n): (usize, usize, usize),
    profile: &KernelProfile,
    out: &mut [f32],
    partials: &mut [f32],
    a_at: &impl Fn(usize, usize) -> f32,
) -> usize {
    let tile = profile.tile_k.max(1);
    let ntiles = partials.len() / MAX_CHUNK;
    while j0 + W <= n {
        for i in 0..m {
            let orow = &mut out[i * n + j0..][..W];
            for t in 0..ntiles.max(1) {
                let mut acc = [0.0f32; W];
                for p in t * tile..((t + 1) * tile).min(k) {
                    let av = a_at(i, p);
                    for (x, &bv) in acc.iter_mut().zip(&b[p * n + j0..][..W]) {
                        *x += av * bv;
                    }
                }
                let dst = if ntiles == 0 { &mut *orow } else { &mut partials[t * W..][..W] };
                dst.copy_from_slice(&acc);
            }
            if ntiles > 0 {
                combine_rows(&partials[..ntiles * W], ntiles, W, profile, orow);
            }
        }
        j0 += W;
    }
    j0
}

/// Combine per-tile partial rows into the output row, walking tiles in the
/// profile's `algo_id` order — elementwise over the row, so each output
/// element sees exactly the scalar [`combine_partials`] chain (rotation 0 in
/// deterministic mode). Non-deterministic profiles fall back to a per-element
/// combine so every output element draws its own noise rotation, matching
/// the scalar evaluator's behavior.
pub(crate) fn combine_rows(
    partials: &[f32],
    ntiles: usize,
    n: usize,
    profile: &KernelProfile,
    out: &mut [f32],
) {
    if !profile.deterministic {
        let mut col = vec![0.0f32; ntiles];
        for (j, o) in out.iter_mut().enumerate() {
            for (t, c) in col.iter_mut().enumerate() {
                *c = partials[t * n + j];
            }
            *o = combine_partials(&col, profile);
        }
        return;
    }
    out.iter_mut().for_each(|x| *x = 0.0);
    let add_tile = |t: usize, out: &mut [f32]| {
        let prow = &partials[t * n..(t + 1) * n];
        for (o, &p) in out.iter_mut().zip(prow) {
            *o += p;
        }
    };
    match profile.algo_id % ALGO_COUNT {
        0 => {
            for t in 0..ntiles {
                add_tile(t, out);
            }
        }
        1 => {
            for t in (0..ntiles).rev() {
                add_tile(t, out);
            }
        }
        _ => {
            let mut t = 0;
            while t < ntiles {
                add_tile(t, out);
                t += 2;
            }
            let mut t = 1;
            while t < ntiles {
                add_tile(t, out);
                t += 2;
            }
        }
    }
}

/// `C = A · B` for `A: [m,k]`, `B: [k,n]`. Row-vectorized; bit-identical to
/// [`matmul_scalar`].
pub fn matmul(a: &Tensor, b: &Tensor, profile: &KernelProfile) -> Tensor {
    let (m, k) = mat_dims(a);
    let (k2, n) = mat_dims(b);
    assert_eq!(k, k2, "matmul inner-dimension mismatch: {k} vs {k2}");
    let mut out = Tensor::uninit(&[m, n]);
    let ad = a.data();
    with_scratch(|_, scratch| {
        matmul_into(b.data(), (m, k, n), profile, out.data_mut(), scratch, |i, p| ad[i * k + p])
    });
    out
}

/// Scalar reference `A · B` (per-element [`tiled_reduce`]); the oracle for
/// [`matmul`].
pub fn matmul_scalar(a: &Tensor, b: &Tensor, profile: &KernelProfile) -> Tensor {
    let (m, k) = mat_dims(a);
    let (k2, n) = mat_dims(b);
    assert_eq!(k, k2, "matmul inner-dimension mismatch: {k} vs {k2}");
    let mut out = Tensor::zeros(&[m, n]);
    let ad = a.data();
    let bd = b.data();
    let od = out.data_mut();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        for j in 0..n {
            od[i * n + j] = tiled_reduce(k, profile, |p| arow[p] * bd[p * n + j]);
        }
    }
    out
}

/// `C = Aᵀ · B` for `A: [k,m]`, `B: [k,n]` (weight-gradient shape).
/// Row-vectorized; bit-identical to [`matmul_at_b_scalar`].
pub fn matmul_at_b(a: &Tensor, b: &Tensor, profile: &KernelProfile) -> Tensor {
    let (k, m) = mat_dims(a);
    let (k2, n) = mat_dims(b);
    assert_eq!(k, k2, "matmul_at_b inner-dimension mismatch");
    let mut out = Tensor::uninit(&[m, n]);
    let ad = a.data();
    with_scratch(|_, scratch| {
        matmul_into(b.data(), (m, k, n), profile, out.data_mut(), scratch, |i, p| ad[p * m + i])
    });
    out
}

/// Scalar reference `Aᵀ · B`; the oracle for [`matmul_at_b`].
pub fn matmul_at_b_scalar(a: &Tensor, b: &Tensor, profile: &KernelProfile) -> Tensor {
    let (k, m) = mat_dims(a);
    let (k2, n) = mat_dims(b);
    assert_eq!(k, k2, "matmul_at_b inner-dimension mismatch");
    let mut out = Tensor::zeros(&[m, n]);
    let ad = a.data();
    let bd = b.data();
    let od = out.data_mut();
    for i in 0..m {
        for j in 0..n {
            od[i * n + j] = tiled_reduce(k, profile, |p| ad[p * m + i] * bd[p * n + j]);
        }
    }
    out
}

/// `C = A · Bᵀ` for `A: [m,k]`, `B: [n,k]` (input-gradient shape).
/// Bit-identical to [`matmul_a_bt_scalar`].
pub fn matmul_a_bt(a: &Tensor, b: &Tensor, profile: &KernelProfile) -> Tensor {
    let (m, k) = mat_dims(a);
    let (n, k2) = mat_dims(b);
    assert_eq!(k, k2, "matmul_a_bt inner-dimension mismatch");
    let mut out = Tensor::uninit(&[m, n]);
    with_scratch(|bt, scratch| {
        matmul_a_bt_into(a.data(), b.data(), (m, k, n), profile, out.data_mut(), bt, scratch)
    });
    out
}

/// Below this many rows of `A`, [`matmul_a_bt_into`] keeps the per-element
/// form: transposing `B` costs `n·k` moves whatever `m` is, and one row
/// cannot pay that back. Interleaved in-process A/B, ns per call at `tile_k`
/// 16, parent / always transposed / always per element, `(m, k, n)`:
/// (1,64,16) 1072 / 1025 / 748, (1,10,64) 460 / 660 / 438, (1,16,16)
/// 143 / 261 / 141; (2,64,16) 1944 / 1059 / 1327, (2,10,64) 833 / 733 / 797,
/// (8,64,72) 34 238 / 7082 / 25 390, (16,16,16) 2345 / 765 / 2085.
const A_BT_MIN_ROWS: usize = 2;

/// Slice-level [`matmul_a_bt`]: `out: [m,n] = a · bᵀ` for `a: [m,k]`,
/// `b: [n,k]`; `bt` and `scratch` as `scratch` in [`matmul_into`]. `B` is
/// transposed into `bt` — pure data movement — and the row kernel's
/// per-element chain is exactly [`matmul_a_bt_scalar`]'s. With fewer than
/// [`A_BT_MIN_ROWS`] rows each element is a [`dot`] with its partials in
/// `scratch`.
pub fn matmul_a_bt_into(
    a: &[f32],
    b: &[f32],
    dims @ (m, k, n): (usize, usize, usize),
    profile: &KernelProfile,
    out: &mut [f32],
    bt: &mut Vec<f32>,
    scratch: &mut Vec<f32>,
) {
    assert!(a.len() == m * k && b.len() == n * k && out.len() == m * n, "matmul_a_bt_into shapes");
    if m < A_BT_MIN_ROWS {
        for (i, orow) in out.chunks_exact_mut(n.max(1)).enumerate() {
            for (j, o) in orow.iter_mut().enumerate() {
                *o = dot_with(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k], profile, scratch);
            }
        }
        return;
    }
    bt.resize(k * n, 0.0);
    transpose_into(b, k, bt);
    matmul_into(bt, dims, profile, out, scratch, |i, p| a[i * k + p]);
}

/// `dst: [cols, rows] = srcᵀ` for `src: [rows, cols]`: data movement.
pub fn transpose_into(src: &[f32], cols: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "transpose_into shapes");
    let rows = src.len() / cols.max(1);
    for (i, row) in src.chunks_exact(cols.max(1)).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            dst[j * rows + i] = v;
        }
    }
}

/// Scalar reference `A · Bᵀ`; the oracle for [`matmul_a_bt`].
pub fn matmul_a_bt_scalar(a: &Tensor, b: &Tensor, profile: &KernelProfile) -> Tensor {
    let (m, k) = mat_dims(a);
    let (n, k2) = mat_dims(b);
    assert_eq!(k, k2, "matmul_a_bt inner-dimension mismatch");
    let mut out = Tensor::zeros(&[m, n]);
    let ad = a.data();
    let bd = b.data();
    let od = out.data_mut();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &bd[j * k..(j + 1) * k];
            od[i * n + j] = tiled_reduce(k, profile, |p| arow[p] * brow[p]);
        }
    }
    out
}

fn mat_dims(t: &Tensor) -> (usize, usize) {
    let s = t.shape();
    assert_eq!(s.len(), 2, "expected a 2-D tensor, got shape {s:?}");
    (s[0], s[1])
}

/// ReLU into a fresh tensor.
pub fn relu(t: &Tensor) -> Tensor {
    t.map(|x| if x > 0.0 { x } else { 0.0 })
}

/// ReLU gradient: `grad * (pre > 0)`.
pub fn relu_backward(grad: &Tensor, pre: &Tensor) -> Tensor {
    grad.zip_with(pre, |g, x| if x > 0.0 { g } else { 0.0 })
}

/// Row-wise softmax of a `[n, c]` tensor; denominator sums go through the
/// profile (they are reductions too).
pub fn softmax_rows(t: &Tensor, profile: &KernelProfile) -> Tensor {
    let (n, c) = mat_dims(t);
    let mut out = Tensor::uninit(&[n, c]);
    // Each output row holds its exponentials until their sum is known.
    for (row, orow) in
        t.data().chunks_exact(c.max(1)).zip(out.data_mut().chunks_exact_mut(c.max(1)))
    {
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        for (e, &x) in orow.iter_mut().zip(row) {
            *e = (x - max).exp();
        }
        let denom = blocked_sum(orow, profile);
        orow.iter_mut().for_each(|e| *e /= denom);
    }
    out
}

/// Mean cross-entropy of softmax probabilities `probs: [n, c]` against
/// integer labels, plus the gradient w.r.t. the logits (`(p - onehot)/n`).
pub fn cross_entropy(probs: &Tensor, labels: &[u32], profile: &KernelProfile) -> (f32, Tensor) {
    let (n, c) = mat_dims(probs);
    assert_eq!(labels.len(), n, "label count mismatch");
    let pd = probs.data();
    let mut losses = Tensor::uninit(&[n]);
    for (i, l) in losses.data_mut().iter_mut().enumerate() {
        *l = -(pd[i * c + labels[i] as usize].max(1e-12)).ln();
    }
    let loss = blocked_sum(losses.data(), profile) / n as f32;
    let mut grad = probs.clone();
    {
        let gd = grad.data_mut();
        let inv_n = 1.0 / n as f32;
        for i in 0..n {
            gd[i * c + labels[i] as usize] -= 1.0;
        }
        for g in gd.iter_mut() {
            *g *= inv_n;
        }
    }
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> KernelProfile {
        KernelProfile::hardware_agnostic()
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        assert!(matmul(&a, &eye, &profile()).bitwise_eq(&a));
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = matmul(&a, &b, &profile());
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32 * 0.3).collect(), &[3, 4]);
        let b = Tensor::from_vec((0..12).map(|x| (x as f32).sin()).collect(), &[3, 4]);
        // Aᵀ·B via dedicated kernel vs manual transpose then matmul.
        let mut at = Tensor::zeros(&[4, 3]);
        for i in 0..3 {
            for j in 0..4 {
                at.data_mut()[j * 3 + i] = a.data()[i * 4 + j];
            }
        }
        let expect = matmul(&at, &b, &profile());
        let got = matmul_at_b(&a, &b, &profile());
        assert!(got.bitwise_eq(&expect));

        // A·Bᵀ with square inner dims.
        let c = Tensor::from_vec((0..8).map(|x| x as f32).collect(), &[2, 4]);
        let d = Tensor::from_vec((0..12).map(|x| x as f32 * 0.5).collect(), &[3, 4]);
        let mut dt = Tensor::zeros(&[4, 3]);
        for i in 0..3 {
            for j in 0..4 {
                dt.data_mut()[j * 3 + i] = d.data()[i * 4 + j];
            }
        }
        let expect = matmul(&c, &dt, &profile());
        let got = matmul_a_bt(&c, &d, &profile());
        assert!(got.bitwise_eq(&expect));
    }

    #[test]
    fn matmul_bits_depend_on_tile_k() {
        // Larger K with rough values: tiling must change the bits.
        let k = 257;
        let a = Tensor::from_vec(
            (0..k).map(|i| (i as f32).sin() * 10f32.powi((i % 7) as i32 - 3)).collect(),
            &[1, k],
        );
        let b = Tensor::from_vec(
            (0..k).map(|i| (i as f32 * 0.7).cos() * 10f32.powi((i % 5) as i32 - 2)).collect(),
            &[k, 1],
        );
        let results: Vec<f32> = [4usize, 8, 16, 32, 64]
            .iter()
            .map(|&t| matmul(&a, &b, &KernelProfile { tile_k: t, ..profile() }).data()[0])
            .collect();
        let distinct: std::collections::HashSet<u32> =
            results.iter().map(|r| r.to_bits()).collect();
        assert!(distinct.len() > 1, "tile size must influence bits: {results:?}");
        // But all are the same real number to high tolerance.
        let spread = results.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x))
            - results.iter().fold(f32::INFINITY, |m, &x| m.min(x));
        assert!(spread / results[0].abs() < 1e-4);
    }

    #[test]
    fn im2col_col2im_adjoint_on_ones() {
        // col2im(im2col(x)) multiplies each pixel by its receptive-field
        // multiplicity; with kernel=1 stride=1 pad=0 it is the identity.
        let x = Tensor::from_vec((0..27).map(|i| i as f32).collect(), &[3, 3, 3]);
        let geom = ConvGeom { kernel: 1, stride: 1, pad: 0 };
        let cols = im2col_scalar(&x, geom);
        let back = col2im_scalar(&cols, 3, 3, 3, geom);
        assert!(back.bitwise_eq(&x));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = softmax_rows(&t, &profile());
        for i in 0..2 {
            let row: f32 = s.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((row - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let b = Tensor::from_vec(vec![101.0, 102.0, 103.0], &[1, 3]);
        let sa = softmax_rows(&a, &profile());
        let sb = softmax_rows(&b, &profile());
        assert!(sa.max_abs_diff(&sb) < 1e-6);
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero_per_row() {
        let logits = Tensor::from_vec(vec![0.2, 0.5, -0.1, 1.0, 0.0, -1.0], &[2, 3]);
        let probs = softmax_rows(&logits, &profile());
        let (loss, grad) = cross_entropy(&probs, &[2, 0], &profile());
        assert!(loss > 0.0);
        for i in 0..2 {
            let s: f32 = grad.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6, "softmax-CE grad rows sum to ~0, got {s}");
        }
    }

    #[test]
    fn relu_and_backward() {
        let pre = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let y = relu(&pre);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let g = relu_backward(&Tensor::from_slice(&[5.0, 5.0, 5.0]), &pre);
        assert_eq!(g.data(), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn dot_matches_reference() {
        let a: Vec<f32> = (0..100).map(|i| i as f32 * 0.01).collect();
        let b: Vec<f32> = (0..100).map(|i| (i as f32).cos()).collect();
        let reference: f64 = a.iter().zip(&b).map(|(&x, &y)| (x * y) as f64).sum();
        let got = dot(&a, &b, &profile()) as f64;
        assert!((got - reference).abs() < 1e-4);
    }

    fn rough(n: usize, salt: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 31 + salt * 7) as f32).sin() * 10f32.powi(((i + salt) % 7) as i32 - 3))
            .collect()
    }

    #[test]
    fn vectorized_matmuls_match_scalar_bitwise() {
        // Fixed sweep over shapes and profiles; the randomized sweep lives
        // in tests/vectorized_equiv.rs.
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (3, 257, 5), (4, 64, 7), (2, 16, 16)] {
            let a = Tensor::from_vec(rough(m * k, 1), &[m, k]);
            let b = Tensor::from_vec(rough(k * n, 2), &[k, n]);
            let at = Tensor::from_vec(rough(k * m, 3), &[k, m]);
            let bt = Tensor::from_vec(rough(n * k, 4), &[n, k]);
            for tile in [1usize, 4, 16, 64, 300] {
                for algo in 0..ALGO_COUNT {
                    let p = KernelProfile {
                        reduce_block: 32,
                        tile_k: tile,
                        algo_id: algo,
                        deterministic: true,
                    };
                    assert!(
                        matmul(&a, &b, &p).bitwise_eq(&matmul_scalar(&a, &b, &p)),
                        "matmul m={m} k={k} n={n} tile={tile} algo={algo}"
                    );
                    assert!(
                        matmul_at_b(&at, &b, &p).bitwise_eq(&matmul_at_b_scalar(&at, &b, &p)),
                        "matmul_at_b m={m} k={k} n={n} tile={tile} algo={algo}"
                    );
                    assert!(
                        matmul_a_bt(&a, &bt, &p).bitwise_eq(&matmul_a_bt_scalar(&a, &bt, &p)),
                        "matmul_a_bt m={m} k={k} n={n} tile={tile} algo={algo}"
                    );
                    let va: Vec<f32> = rough(k, 5);
                    let vb: Vec<f32> = rough(k, 6);
                    assert_eq!(
                        dot(&va, &vb, &p).to_bits(),
                        dot_scalar(&va, &vb, &p).to_bits(),
                        "dot k={k} tile={tile} algo={algo}"
                    );
                }
            }
        }
    }
}
