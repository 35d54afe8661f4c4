//! Direct 2-D convolution: forward, weight gradient and input gradient read
//! one zero-padded copy of a sample where a matmul would read its unfolded
//! (im2col) matrix. `col[p][s]` — tap `p = (c, ky, kx)`, output position
//! `s = (oy, ox)` — is `padded[tap[p] + pos[s]]`, two offsets that depend on
//! the geometry alone and that a [`ConvPlan`] holds, so all three passes walk
//! the accumulation tree of a matmul over `col` (DESIGN.md "Same tree,
//! faster schedule"). Padding zeros are multiplied and added like any other
//! element: skipping a `+ w·0.0` is not bit-neutral (`-0.0 + 0.0`, `∞·0`).
//! The `conv2d_*_scalar` oracles *are* unfold + matmul (+ fold).

use crate::kernels::KernelProfile;
use crate::ops::{
    combine_rows, matmul_a_bt_scalar, matmul_at_b_scalar, matmul_into, matmul_scalar,
    transpose_into,
};
use crate::Tensor;

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Kernel height/width (square kernels only).
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every side.
    pub pad: usize,
}

impl ConvGeom {
    /// Output spatial size for an input of `h` pixels.
    pub fn out_size(&self, h: usize) -> usize {
        (h + 2 * self.pad - self.kernel) / self.stride + 1
    }
}

/// Where a convolution reads one `[cin, h, w]` sample: the offsets, in a
/// zero-padded copy of it, of every tap, output position and pixel. The copy
/// is the padded `[cin, h+2·pad, w+2·pad]` plane cut into its `stride²`
/// phases — pixel `(y, x)` in plane `(y % stride, x % stride)` at
/// `(y / stride, x / stride)` — so that a tap meets consecutive output
/// columns in consecutive cells at every stride; at stride 1 it is the padded
/// plane itself. A layer builds the plan once per input size and keeps it.
#[derive(Debug, Clone)]
pub struct ConvPlan {
    dims: (usize, usize, usize),
    out: (usize, usize),
    /// Cells in the copy, and in one row of a phase plane.
    len: usize,
    row: usize,
    /// Offset of tap `p` at output position (0, 0), `p` ascending.
    tap: Vec<usize>,
    /// Offset of output position `s` under tap 0, `s` ascending.
    pos: Vec<usize>,
    /// Offset of sample element `(c, y, x)`, in the sample's order.
    cell: Vec<usize>,
}

impl ConvPlan {
    /// The plan for `[cin, h, w]` samples under `geom`.
    pub fn new(dims @ (cin, h, w): (usize, usize, usize), geom: ConvGeom) -> Self {
        let ConvGeom { kernel: kk, stride: s, pad } = geom;
        assert!(s > 0 && h + 2 * pad >= kk && w + 2 * pad >= kk, "kernel does not fit");
        let (rows, row) = ((h + 2 * pad).div_ceil(s), (w + 2 * pad).div_ceil(s));
        let at = |c, y, x| (((c * s + y % s) * s + x % s) * rows + y / s) * row + x / s;
        let out @ (oh, ow) = (geom.out_size(h), geom.out_size(w));
        ConvPlan {
            dims,
            out,
            len: cin * s * s * rows * row,
            row,
            tap: (0..cin * kk * kk).map(|p| at(p / (kk * kk), p / kk % kk, p % kk)).collect(),
            pos: (0..oh * ow).map(|i| i / ow * row + i % ow).collect(),
            cell: (0..cin * h * w).map(|i| at(i / (h * w), i / w % h + pad, i % w + pad)).collect(),
        }
    }

    /// The `(cin, h, w)` this plan was built for.
    pub fn dims(&self) -> (usize, usize, usize) {
        self.dims
    }

    /// Output `(oh, ow)`.
    pub fn out_dims(&self) -> (usize, usize) {
        self.out
    }

    /// Elements of the padded copy.
    pub fn padded_len(&self) -> usize {
        self.len
    }

    /// Overwrite `padded` with `sample` among zeros.
    pub fn pad_into(&self, sample: &[f32], padded: &mut [f32]) {
        assert!(sample.len() == self.cell.len() && padded.len() == self.len, "pad_into shapes");
        padded.fill(0.0);
        for (&v, &at) in sample.iter().zip(&self.cell) {
            padded[at] = v;
        }
    }

    /// Every `R × C` block of one channel's output elements that fits in rows
    /// `oy0..oy1` and in the columns from `ox` on; returns the first column
    /// not covered. The row kernel's chunk with its `b` row read as `R` runs of
    /// the padded copy: per element and K-tile the chain is `0.0 + w[p0]·x +
    /// …` for `p` ascending, in a fixed array for the tile and stored once.
    #[inline(always)]
    fn forward_blocks<const R: usize, const C: usize>(
        &self,
        (padded, profile): (&[f32], &KernelProfile),
        (oy0, oy1, mut ox): (usize, usize, usize),
        wrow: &[f32],
        (plane, partials): (&mut [f32], &mut [f32]),
    ) -> usize {
        let (tile, ow, row) = (profile.tile_k.max(1), self.out.1, self.row);
        while ox + C <= ow {
            for oy in (oy0..oy1).step_by(R) {
                for t in 0..(partials.len() / plane.len()).max(1) {
                    let mut acc = [[0.0f32; C]; R];
                    let tile_at = t * tile..((t + 1) * tile).min(wrow.len());
                    for (&wv, &at) in wrow[tile_at.clone()].iter().zip(&self.tap[tile_at]) {
                        let window = &padded[at + oy * row + ox..][..(R - 1) * row + C];
                        for (r, lane) in acc.iter_mut().enumerate() {
                            let run: &[f32; C] = window[r * row..][..C].try_into().expect("C long");
                            for (a, &xv) in lane.iter_mut().zip(run) {
                                *a += wv * xv;
                            }
                        }
                    }
                    let dst = tile_out(t, plane, partials);
                    for (r, lane) in acc.iter().enumerate() {
                        dst[(oy + r) * ow + ox..][..C].copy_from_slice(lane);
                    }
                }
            }
            ox += C;
        }
        ox
    }

    /// Every `W`-wide chunk of `dWᵀ`'s columns (output channels) that still
    /// fits from `j0` on, for all taps — `R` at a time while that many are
    /// left, then singly; returns the first column not covered.
    fn dw_cols<const R: usize, const W: usize>(
        &self,
        src: (&[f32], &KernelProfile),
        mut j0: usize,
        gt: &[f32],
        (dwt, partials): (&mut [f32], &mut [f32]),
    ) -> usize {
        let k = self.tap.len();
        while j0 + W <= dwt.len() / k {
            for p in (0..k / R * R).step_by(R) {
                self.dw_block::<R, W>(src, (p, j0), gt, (dwt, partials));
            }
            for p in k / R * R..k {
                self.dw_block::<1, W>(src, (p, j0), gt, (dwt, partials));
            }
            j0 += W;
        }
        j0
    }

    /// The `R` taps × `W` channels block of `dWᵀ` at `(p0, j0)`: the row
    /// kernel's chunk, `R` rows of `A = col` at a time so that one load of a
    /// `gᵀ` row feeds all of them, with `col[p][s]` read off the copy.
    #[inline(always)]
    fn dw_block<const R: usize, const W: usize>(
        &self,
        (padded, profile): (&[f32], &KernelProfile),
        (p0, j0): (usize, usize),
        gt: &[f32],
        (dwt, partials): (&mut [f32], &mut [f32]),
    ) {
        let (tile, cout) = (profile.tile_k.max(1), dwt.len() / self.tap.len());
        let taps: [&[f32]; R] = std::array::from_fn(|r| &padded[self.tap[p0 + r]..]);
        for t in 0..(partials.len() / dwt.len()).max(1) {
            let mut acc = [[0.0f32; W]; R];
            let tile_at = t * tile..((t + 1) * tile).min(self.pos.len());
            let grows = gt[tile_at.start * cout..tile_at.end * cout].chunks_exact(cout);
            for (&at, grow) in self.pos[tile_at].iter().zip(grows) {
                let grow: &[f32; W] = grow[j0..][..W].try_into().expect("W long");
                for (lane, cells) in acc.iter_mut().zip(taps) {
                    let xv = cells[at];
                    for (a, &gv) in lane.iter_mut().zip(grow) {
                        *a += xv * gv;
                    }
                }
            }
            let dst = tile_out(t, dwt, partials);
            for (r, lane) in acc.iter().enumerate() {
                dst[(p0 + r) * cout + j0..][..W].copy_from_slice(lane);
            }
        }
    }
}

/// The first `len` elements of `buf`, grown if it is shorter and never
/// shrunk: a buffer two passes take turns with is zero-filled once.
fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Elements of partials a reduction `len` long into `out` elements needs:
/// none for a single tile, whose partial *is* the result (`tiled_reduce`'s
/// short-circuit) and is stored straight to the output; several tiles go to
/// `partials[t]`, shaped like the output, for one [`combine_rows`] over all
/// of it — elementwise, so per element exactly the row kernel's combine.
fn partials_len(len: usize, out: usize, profile: &KernelProfile) -> usize {
    let tile = profile.tile_k.max(1);
    if len > tile {
        len.div_ceil(tile) * out
    } else {
        0
    }
}

/// Where tile `t` of a pass stores: `out` itself when it is the only one.
fn tile_out<'o>(t: usize, out: &'o mut [f32], partials: &'o mut [f32]) -> &'o mut [f32] {
    match partials.len() {
        0 => out,
        _ => &mut partials[t * out.len()..][..out.len()],
    }
}

/// Forward pass of one sample: `out: [cout, oh·ow] = weight · col` for
/// `weight: [cout, cin·k²]` and the `col` that `padded` (see
/// [`ConvPlan::pad_into`]) stands for. Per output element the addition
/// chain is [`matmul_into`]'s over the unfolded matrix, so the result is
/// bit-identical to [`conv2d_forward_scalar`]; `scratch` is only ever grown.
pub fn conv2d_forward_into(
    plan: &ConvPlan,
    padded: &[f32],
    weight: &[f32],
    profile: &KernelProfile,
    out: &mut [f32],
    scratch: &mut Vec<f32>,
) {
    let (k, spatial) = (plan.tap.len(), plan.pos.len());
    let cout = weight.len() / k;
    assert!(
        padded.len() == plan.len && weight.len() == cout * k && out.len() == cout * spatial,
        "conv2d_forward_into shapes"
    );
    let partials = grown(scratch, partials_len(k, spatial, profile));
    // Row groups of 4, then single rows; blocks of 8, 4, 2, 1 columns.
    let (src, oh, r4) = ((padded, profile), plan.out.0, plan.out.0 / 4 * 4);
    for (wrow, plane) in weight.chunks_exact(k).zip(out.chunks_exact_mut(spatial)) {
        let ox = plan.forward_blocks::<4, 8>(src, (0, r4, 0), wrow, (plane, partials));
        let ox = plan.forward_blocks::<4, 4>(src, (0, r4, ox), wrow, (plane, partials));
        let ox = plan.forward_blocks::<4, 2>(src, (0, r4, ox), wrow, (plane, partials));
        plan.forward_blocks::<4, 1>(src, (0, r4, ox), wrow, (plane, partials));
        let ox = plan.forward_blocks::<1, 8>(src, (r4, oh, 0), wrow, (plane, partials));
        let ox = plan.forward_blocks::<1, 4>(src, (r4, oh, ox), wrow, (plane, partials));
        let ox = plan.forward_blocks::<1, 2>(src, (r4, oh, ox), wrow, (plane, partials));
        plan.forward_blocks::<1, 1>(src, (r4, oh, ox), wrow, (plane, partials));
        if !partials.is_empty() {
            combine_rows(partials, partials.len() / spatial, spatial, profile, plane);
        }
    }
}

/// Weight gradient of one sample, added to `gwt: [cin·k², cout]`, the
/// layer's `gw` transposed: `gwt[p][co] += Σ_s col[p][s] · g[co][s]`, summed
/// over `s` in [`matmul_into`]'s tree. Evaluated as `dWᵀ = col · gᵀ`
/// (`g: [cout, oh·ow]`, transposed into `work`) so that the output columns
/// are the contiguous channels. Each product has its factors swapped against
/// [`conv2d_dw_scalar`]'s `g · colᵀ`: an IEEE product commutes bit for bit
/// for every pair that is not two NaNs.
// Blocks of 2 taps × 16 channels or 4 × 8 (and narrower): one `gᵀ` row load
// feeds several taps and eight add chains stay in flight, where the row
// kernel's 1 × 8 chunk has two. In-process A/B, ns per sample, unfold +
// `matmul_into` + add → this, `(cin·k², oh·ow, cout)`: (27,64,8) 4219 → 1945,
// (72,64,8) 6658 → 4142, (72,16,16) 2486 → 1874; at 32 channels, where one
// row already fills the registers, a wash — (144,16,32) 6890 → 6973 and
// 7282 → 6354 in two runs — so there is no second path for wide layers.
pub fn conv2d_dw_into(
    plan: &ConvPlan,
    padded: &[f32],
    g: &[f32],
    profile: &KernelProfile,
    gwt: &mut [f32],
    work: &mut Vec<f32>,
) {
    let (k, spatial) = (plan.tap.len(), plan.pos.len());
    let cout = gwt.len() / k;
    assert!(
        padded.len() == plan.len && gwt.len() == cout * k && g.len() == cout * spatial,
        "conv2d_dw_into shapes"
    );
    let npartials = partials_len(spatial, k * cout, profile);
    let (gt, rest) = grown(work, (spatial + k) * cout + npartials).split_at_mut(spatial * cout);
    let (dwt, partials) = rest.split_at_mut(k * cout);
    transpose_into(g, spatial, gt);
    let src = (padded, profile);
    let mut j = plan.dw_cols::<2, 16>(src, 0, gt, (dwt, partials));
    j = plan.dw_cols::<4, 8>(src, j, gt, (dwt, partials));
    j = plan.dw_cols::<4, 4>(src, j, gt, (dwt, partials));
    j = plan.dw_cols::<4, 2>(src, j, gt, (dwt, partials));
    plan.dw_cols::<4, 1>(src, j, gt, (dwt, partials));
    if npartials > 0 {
        combine_rows(partials, npartials / dwt.len(), dwt.len(), profile, dwt);
    }
    for (x, &v) in gwt.iter_mut().zip(&*dwt) {
        // One addend per element and call: the sample's contribution.
        *x += v;
    }
}

/// Input gradient of one sample, `dx: [cin, h, w]`: `dcol = weightᵀ · g`
/// through [`matmul_into`], folded onto a zeroed padded copy in
/// [`col2im_scalar`]'s `(c, ky, kx, oy, ox)` order with nothing clamped — a
/// pixel's cell receives exactly the addends, in exactly the order, the
/// clamped fold gives it; the padding cells take what that one drops and
/// are left behind. Bit-identical to [`conv2d_dx_scalar`].
pub fn conv2d_dx_into(
    plan: &ConvPlan,
    weight: &[f32],
    g: &[f32],
    profile: &KernelProfile,
    dx: &mut [f32],
    work: &mut Vec<f32>,
    scratch: &mut Vec<f32>,
) {
    let (k, spatial, ow) = (plan.tap.len(), plan.pos.len(), plan.out.1);
    let cout = weight.len() / k;
    assert!(
        weight.len() == cout * k && g.len() == cout * spatial && dx.len() == plan.cell.len(),
        "conv2d_dx_into shapes"
    );
    let (dcol, plane) = grown(work, k * spatial + plan.len).split_at_mut(k * spatial);
    matmul_into(g, (k, cout, spatial), profile, dcol, scratch, |p, co| weight[co * k + p]);
    plane.fill(0.0);
    for (&tap, rows) in plan.tap.iter().zip(dcol.chunks_exact(spatial)) {
        for (oy, row) in rows.chunks_exact(ow).enumerate() {
            for (o, &v) in plane[tap + oy * plan.row..][..ow].iter_mut().zip(row) {
                *o += v;
            }
        }
    }
    for (x, &at) in dx.iter_mut().zip(&plan.cell) {
        *x = plane[at];
    }
}

/// Scalar reference forward pass: unfold, then [`matmul_scalar`]. The oracle
/// for [`conv2d_forward_into`]; `x: [cin, h, w]`, `weight: [cout, cin·k²]`.
pub fn conv2d_forward_scalar(
    x: &Tensor,
    weight: &Tensor,
    geom: ConvGeom,
    profile: &KernelProfile,
) -> Tensor {
    matmul_scalar(weight, &im2col_scalar(x, geom), profile)
}

/// Scalar reference weight gradient `g · colᵀ`: unfold, then
/// [`matmul_a_bt_scalar`]. The oracle for [`conv2d_dw_into`];
/// `g: [cout, oh·ow]`.
pub fn conv2d_dw_scalar(x: &Tensor, g: &Tensor, geom: ConvGeom, profile: &KernelProfile) -> Tensor {
    matmul_a_bt_scalar(g, &im2col_scalar(x, geom), profile)
}

/// Scalar reference input gradient: [`matmul_at_b_scalar`], then fold. The
/// oracle for [`conv2d_dx_into`]; the result is `[cin, h, w]`.
pub fn conv2d_dx_scalar(
    weight: &Tensor,
    g: &Tensor,
    (cin, h, w): (usize, usize, usize),
    geom: ConvGeom,
    profile: &KernelProfile,
) -> Tensor {
    col2im_scalar(&matmul_at_b_scalar(weight, g, profile), cin, h, w, geom)
}

/// Scalar reference im2col: unfold `input: [cin, h, w]` into the
/// `[cin·k², oh·ow]` matrix, one bounds-tested element at a time. Pure
/// gather — no reductions, so no profile needed.
pub fn im2col_scalar(input: &Tensor, geom: ConvGeom) -> Tensor {
    let s = input.shape();
    assert_eq!(s.len(), 3, "im2col expects [cin,h,w]");
    let (cin, h, w) = (s[0], s[1], s[2]);
    let (oh, ow) = (geom.out_size(h), geom.out_size(w));
    let rows = cin * geom.kernel * geom.kernel;
    let cols = oh * ow;
    let mut out = Tensor::zeros(&[rows, cols]);
    let id = input.data();
    let od = out.data_mut();
    for c in 0..cin {
        for ky in 0..geom.kernel {
            for kx in 0..geom.kernel {
                let row = (c * geom.kernel + ky) * geom.kernel + kx;
                for oy in 0..oh {
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        let v = if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                            id[(c * h + iy as usize) * w + ix as usize]
                        } else {
                            0.0
                        };
                        od[row * cols + oy * ow + ox] = v;
                    }
                }
            }
        }
    }
    out
}

/// Scalar reference col2im: fold a `[cin·k², oh·ow]` gradient back onto
/// `[cin, h, w]`, one bounds-tested element at a time, overlaps accumulated
/// in the fixed `(c, ky, kx, oy, ox)` loop order (the deterministic-scatter
/// alternative to atomic col2im kernels).
pub fn col2im_scalar(cols: &Tensor, cin: usize, h: usize, w: usize, geom: ConvGeom) -> Tensor {
    let (oh, ow) = (geom.out_size(h), geom.out_size(w));
    let ncols = oh * ow;
    assert_eq!(cols.shape(), &[cin * geom.kernel * geom.kernel, ncols], "col2im shape mismatch");
    let mut out = Tensor::zeros(&[cin, h, w]);
    let cd = cols.data();
    let od = out.data_mut();
    for c in 0..cin {
        for ky in 0..geom.kernel {
            for kx in 0..geom.kernel {
                let row = (c * geom.kernel + ky) * geom.kernel + kx;
                for oy in 0..oh {
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    if iy < 0 || iy as usize >= h {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        if ix < 0 || ix as usize >= w {
                            continue;
                        }
                        od[(c * h + iy as usize) * w + ix as usize] +=
                            cd[row * ncols + oy * ow + ox];
                    }
                }
            }
        }
    }
    out
}
