//! Spatial pooling layers with deterministic backward passes.
//!
//! Max pooling backward is a scatter of gradients to argmax positions; ties
//! are broken toward the first (row-major) maximum — a fixed rule, so the
//! op is deterministic without needing a kernel profile. Average pooling's
//! small fixed-size window sums are done in index order.

use crate::model::{ExecCtx, Layer};
use tensor::{Shape, Tensor};

/// 2×2 stride-2 max pooling over `[B, C, H, W]` (H, W even).
pub struct MaxPool2 {
    cached: Option<PoolCache>,
}

struct PoolCache {
    argmax: Vec<usize>,
    in_shape: Shape,
}

impl MaxPool2 {
    /// New 2×2 max pool.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        MaxPool2 { cached: None }
    }
}

impl Layer for MaxPool2 {
    fn forward(&mut self, x: &Tensor, _ctx: &mut ExecCtx) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 4, "MaxPool2 expects [B,C,H,W]");
        let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
        assert!(h % 2 == 0 && w % 2 == 0, "MaxPool2 needs even spatial dims, got {h}x{w}");
        let (oh, ow) = (h / 2, w / 2);
        let xd = x.data();
        let mut out = Tensor::uninit(&[b, c, oh, ow]);
        let mut argmax = vec![0usize; b * c * oh * ow];
        {
            let od = out.data_mut();
            for bi in 0..b {
                for ci in 0..c {
                    let plane = (bi * c + ci) * h * w;
                    let oplane = (bi * c + ci) * oh * ow;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut best_idx = plane + (2 * oy) * w + 2 * ox;
                            let mut best = xd[best_idx];
                            for dy in 0..2 {
                                for dx in 0..2 {
                                    let idx = plane + (2 * oy + dy) * w + 2 * ox + dx;
                                    // Strict > keeps the FIRST maximum on
                                    // ties: a fixed, placement-independent
                                    // rule.
                                    if xd[idx] > best {
                                        best = xd[idx];
                                        best_idx = idx;
                                    }
                                }
                            }
                            od[oplane + oy * ow + ox] = best;
                            argmax[oplane + oy * ow + ox] = best_idx;
                        }
                    }
                }
            }
        }
        self.cached = Some(PoolCache { argmax, in_shape: Shape::new(s) });
        out
    }

    fn backward(&mut self, grad: &Tensor, _ctx: &mut ExecCtx) -> Tensor {
        let cache = self.cached.take().expect("backward before forward");
        let mut gx = Tensor::zeros(&cache.in_shape);
        let gxd = gx.data_mut();
        for (g, &idx) in grad.data().iter().zip(&cache.argmax) {
            gxd[idx] += g;
        }
        gx
    }

    fn name(&self) -> &'static str {
        "MaxPool2"
    }
}

/// Global average pooling: `[B, C, H, W]` → `[B, C]`.
pub struct GlobalAvgPool {
    cached_shape: Option<Shape>,
}

impl GlobalAvgPool {
    /// New global average pool.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        GlobalAvgPool { cached_shape: None }
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 4, "GlobalAvgPool expects [B,C,H,W]");
        let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
        let spatial = h * w;
        let xd = x.data();
        let mut out = Tensor::uninit(&[b, c]);
        let od = out.data_mut();
        for bi in 0..b {
            for ci in 0..c {
                let plane = (bi * c + ci) * spatial;
                od[bi * c + ci] =
                    tensor::ops::blocked_sum(&xd[plane..plane + spatial], &ctx.profile)
                        / spatial as f32;
            }
        }
        self.cached_shape = Some(Shape::new(s));
        out
    }

    fn backward(&mut self, grad: &Tensor, _ctx: &mut ExecCtx) -> Tensor {
        let s = self.cached_shape.take().expect("backward before forward");
        let (b, c, h, w) = (s[0], s[1], s[2], s[3]);
        assert_eq!(grad.shape(), &[b, c]);
        let spatial = h * w;
        let inv = 1.0 / spatial as f32;
        let mut gx = Tensor::uninit(&s);
        let gxd = gx.data_mut();
        let gd = grad.data();
        for bi in 0..b {
            for ci in 0..c {
                let plane = (bi * c + ci) * spatial;
                let g = gd[bi * c + ci] * inv;
                for p in 0..spatial {
                    gxd[plane + p] = g;
                }
            }
        }
        gx
    }

    fn name(&self) -> &'static str {
        "GlobalAvgPool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esrng::{EsRng, StreamKey, StreamKind};
    use tensor::KernelProfile;

    fn mk_ctx(rng: &mut EsRng) -> ExecCtx<'_> {
        ExecCtx { profile: KernelProfile::default(), training: true, dropout: rng }
    }

    fn rng() -> EsRng {
        EsRng::for_stream(1, StreamKey::global(StreamKind::ModelInit))
    }

    #[test]
    fn maxpool_picks_maxima() {
        let mut p = MaxPool2::new();
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
            &[1, 1, 4, 4],
        );
        let mut r = rng();
        let mut ctx = mk_ctx(&mut r);
        let y = p.forward(&x, &mut ctx);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut p = MaxPool2::new();
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]);
        let mut r = rng();
        let mut ctx = mk_ctx(&mut r);
        p.forward(&x, &mut ctx);
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let gx = p.backward(&g, &mut ctx);
        // Maxima were at positions 5, 7, 13, 15.
        let mut expect = [0.0f32; 16];
        expect[5] = 1.0;
        expect[7] = 2.0;
        expect[13] = 3.0;
        expect[15] = 4.0;
        assert_eq!(gx.data(), &expect[..]);
    }

    #[test]
    fn maxpool_tie_break_is_first_position() {
        let mut p = MaxPool2::new();
        let x = Tensor::from_vec(vec![5.0, 5.0, 0.0, 0.0, 5.0, 5.0, 0.0, 0.0], &[1, 1, 2, 4]);
        let mut r = rng();
        let mut ctx = mk_ctx(&mut r);
        p.forward(&x, &mut ctx);
        let gx = p.backward(&Tensor::from_vec(vec![1.0, 1.0], &[1, 1, 1, 2]), &mut ctx);
        // All four left-window values tie at 5.0; gradient goes to index 0.
        assert_eq!(gx.data()[0], 1.0);
        assert_eq!(gx.data()[1], 0.0);
        assert_eq!(gx.data()[4], 0.0);
    }

    #[test]
    fn gap_averages_and_distributes() {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[1, 2, 2, 2]);
        let mut r = rng();
        let mut ctx = mk_ctx(&mut r);
        let y = p.forward(&x, &mut ctx);
        assert_eq!(y.data(), &[1.5, 5.5]);
        let gx = p.backward(&Tensor::from_vec(vec![4.0, 8.0], &[1, 2]), &mut ctx);
        assert!(gx.data()[..4].iter().all(|&v| v == 1.0));
        assert!(gx.data()[4..].iter().all(|&v| v == 2.0));
    }

    #[test]
    #[should_panic(expected = "even spatial dims")]
    fn maxpool_rejects_odd_dims() {
        let mut p = MaxPool2::new();
        let x = Tensor::zeros(&[1, 1, 3, 4]);
        let mut r = rng();
        let mut ctx = mk_ctx(&mut r);
        p.forward(&x, &mut ctx);
    }
}
