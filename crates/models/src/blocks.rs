//! Composite blocks: residual connections, LayerNorm, and GELU — the pieces
//! that turn the flat layer list into realistic ResNet/Transformer proxies.

use crate::model::{backward_all, drain, forward_all, ExecCtx, Layer};
use tensor::ops::blocked_sum;
use tensor::Tensor;

/// A residual block: `y = x + F(x)` where `F` is a sequential stack of
/// layers whose output shape equals its input shape. Backward:
/// `dx = grad + F'(grad)`.
pub struct Residual {
    inner: Vec<Box<dyn Layer>>,
}

impl Residual {
    /// Wrap a shape-preserving layer stack in a skip connection.
    pub fn new(inner: Vec<Box<dyn Layer>>) -> Self {
        assert!(!inner.is_empty(), "empty residual body");
        Residual { inner }
    }
}

impl Layer for Residual {
    fn forward(&mut self, x: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        let body = forward_all(&mut self.inner, x, ctx);
        assert_eq!(body.shape(), x.shape(), "residual body must preserve shape");
        body.add(x)
    }

    fn backward(&mut self, grad: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        backward_all(&mut self.inner, grad, ctx).add(grad)
    }

    fn params(&self) -> Vec<&Tensor> {
        self.inner.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.inner.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    fn grads(&self) -> Vec<&Tensor> {
        self.inner.iter().flat_map(|l| l.grads()).collect()
    }

    fn drain_grads(&mut self, out: &mut Vec<f32>) {
        for l in &mut self.inner {
            l.drain_grads(out);
        }
    }

    fn implicit_state(&self) -> Vec<Tensor> {
        // The inner states, flattened in layer order; restore hands the
        // same sequence down the same order and each layer takes its own.
        self.inner.iter().flat_map(|l| l.implicit_state()).collect()
    }

    fn set_implicit_state<'a>(&mut self, state: &'a [Tensor]) -> &'a [Tensor] {
        self.inner.iter_mut().fold(state, |rest, l| l.set_implicit_state(rest))
    }

    fn save_implicit_state<'a>(&self, state: &'a mut [Tensor]) -> &'a mut [Tensor] {
        self.inner.iter().fold(state, |rest, l| l.save_implicit_state(rest))
    }

    fn name(&self) -> &'static str {
        "Residual"
    }

    fn uses_conv(&self) -> bool {
        self.inner.iter().any(|l| l.uses_conv())
    }
}

/// Layer normalization over the last axis of `[.., D]` (transformer-style),
/// with learnable gain/bias. Unlike BatchNorm it has no running state — it
/// is stateless across steps, so it contributes nothing to EST contexts.
pub struct LayerNorm {
    gamma: Tensor,
    beta: Tensor,
    ggamma: Tensor,
    gbeta: Tensor,
    dim: usize,
    eps: f32,
    cached: Option<LnCache>,
}

struct LnCache {
    x_hat: Tensor,
    inv_std: Tensor,
}

impl LayerNorm {
    /// LayerNorm over a last axis of `dim`.
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Tensor::full(&[dim], 1.0),
            beta: Tensor::zeros(&[dim]),
            ggamma: Tensor::zeros(&[dim]),
            gbeta: Tensor::zeros(&[dim]),
            dim,
            eps: 1e-5,
            cached: None,
        }
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, x: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        let d = *x.shape().last().expect("nonempty shape");
        assert_eq!(d, self.dim, "LayerNorm dim mismatch");
        let rows = x.len() / d;
        let xd = x.data();
        let mut out = Tensor::uninit(x.shape());
        let mut x_hat = Tensor::uninit(x.shape());
        let mut inv_std = Tensor::uninit(&[rows]);
        {
            let od = out.data_mut();
            let xh = x_hat.data_mut();
            for r in 0..rows {
                let row = &xd[r * d..(r + 1) * d];
                let mean = blocked_sum(row, &ctx.profile) / d as f32;
                // The row's squared deviations, staged in the output row
                // that is about to be overwritten.
                let sq = &mut od[r * d..(r + 1) * d];
                for (s, &v) in sq.iter_mut().zip(row) {
                    *s = (v - mean) * (v - mean);
                }
                let var = blocked_sum(sq, &ctx.profile) / d as f32;
                let istd = 1.0 / (var + self.eps).sqrt();
                inv_std.data_mut()[r] = istd;
                for j in 0..d {
                    let h = (row[j] - mean) * istd;
                    xh[r * d + j] = h;
                    od[r * d + j] = self.gamma.data()[j] * h + self.beta.data()[j];
                }
            }
        }
        self.cached = Some(LnCache { x_hat, inv_std });
        out
    }

    fn backward(&mut self, grad: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        let cache = self.cached.take().expect("backward before forward");
        let d = self.dim;
        let rows = grad.len() / d;
        assert_eq!(grad.shape(), cache.x_hat.shape());
        let gd = grad.data();
        let xh = cache.x_hat.data();
        let mut gx = Tensor::uninit(grad.shape());
        {
            let gxd = gx.data_mut();
            let (mut gbuf, mut ghbuf) = (Tensor::uninit(&[d]), Tensor::uninit(&[d]));
            let (gbuf, ghbuf) = (gbuf.data_mut(), ghbuf.data_mut());
            for r in 0..rows {
                for j in 0..d {
                    gbuf[j] = gd[r * d + j] * self.gamma.data()[j];
                    ghbuf[j] = gbuf[j] * xh[r * d + j];
                    // Parameter grads use the raw upstream gradient.
                    self.gbeta.data_mut()[j] += gd[r * d + j];
                    self.ggamma.data_mut()[j] += gd[r * d + j] * xh[r * d + j];
                }
                let sum_g = blocked_sum(gbuf, &ctx.profile);
                let sum_gh = blocked_sum(ghbuf, &ctx.profile);
                let istd = cache.inv_std.data()[r];
                for j in 0..d {
                    gxd[r * d + j] =
                        istd * (gbuf[j] - sum_g / d as f32 - xh[r * d + j] * sum_gh / d as f32);
                }
            }
        }
        gx
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.ggamma, &self.gbeta]
    }

    fn drain_grads(&mut self, out: &mut Vec<f32>) {
        drain([&mut self.ggamma, &mut self.gbeta], out);
    }

    fn name(&self) -> &'static str {
        "LayerNorm"
    }
}

/// GELU activation (tanh approximation, matching PyTorch's default).
pub struct Gelu {
    cached: Option<Tensor>,
}

impl Gelu {
    /// New GELU.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Gelu { cached: None }
    }

    #[inline]
    fn gelu(x: f32) -> f32 {
        const C: f32 = 0.797_884_6; // sqrt(2/π)
        0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
    }

    #[inline]
    fn dgelu(x: f32) -> f32 {
        const C: f32 = 0.797_884_6;
        let u = C * (x + 0.044715 * x * x * x);
        let t = u.tanh();
        let du = C * (1.0 + 3.0 * 0.044715 * x * x);
        0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
    }
}

impl Layer for Gelu {
    fn forward(&mut self, x: &Tensor, _ctx: &mut ExecCtx) -> Tensor {
        self.cached = Some(x.clone());
        x.map(Self::gelu)
    }

    fn backward(&mut self, grad: &Tensor, _ctx: &mut ExecCtx) -> Tensor {
        let x = self.cached.take().expect("backward before forward");
        grad.zip_with(&x, |g, v| g * Self::dgelu(v))
    }

    fn name(&self) -> &'static str {
        "GELU"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::Conv2d;
    use crate::layers::{Dense, Relu};
    use crate::norm::BatchNorm;
    use esrng::{EsRng, StreamKey, StreamKind};
    use tensor::KernelProfile;

    fn rng() -> EsRng {
        EsRng::for_stream(6, StreamKey::global(StreamKind::ModelInit))
    }

    fn mk_ctx(r: &mut EsRng) -> ExecCtx<'_> {
        ExecCtx { profile: KernelProfile::default(), training: true, dropout: r }
    }

    #[test]
    fn residual_identity_body_doubles() {
        // F = Dense initialized to zero weights ⇒ y = x + 0·x = x... use an
        // explicit zero Dense by zeroing params after init.
        let mut r = rng();
        let mut dense = Dense::init(4, 4, &mut r);
        for p in dense.params_mut() {
            p.zero_();
        }
        let mut res = Residual::new(vec![Box::new(dense)]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]);
        let mut dr = rng();
        let mut ctx = mk_ctx(&mut dr);
        let y = res.forward(&x, &mut ctx);
        assert!(y.bitwise_eq(&x), "zero body ⇒ skip passes through");
        let gx = res.backward(&Tensor::full(&[1, 4], 1.0), &mut ctx);
        assert_eq!(gx.data(), &[1.0, 1.0, 1.0, 1.0], "zero body ⇒ gradient passes through");
    }

    #[test]
    fn residual_gradients_match_finite_differences() {
        let mut r = rng();
        let mut res =
            Residual::new(vec![Box::new(Dense::init(3, 3, &mut r)), Box::new(Relu::new())]);
        let x = Tensor::from_vec(vec![0.5, -0.3, 0.8], &[1, 3]);
        let loss = |res: &mut Residual, x: &Tensor| -> f32 {
            let mut dr = rng();
            let mut ctx = mk_ctx(&mut dr);
            res.forward(x, &mut ctx).data().iter().sum()
        };
        let base = loss(&mut res, &x);
        let gx = {
            let mut dr = rng();
            let mut ctx = mk_ctx(&mut dr);
            let y = res.forward(&x, &mut ctx);
            res.backward(&Tensor::full(y.shape(), 1.0), &mut ctx)
        };
        let eps = 1e-3;
        for i in 0..3 {
            let mut x2 = x.clone();
            x2.data_mut()[i] += eps;
            let fd = (loss(&mut res, &x2) - base) / eps;
            assert!((fd - gx.data()[i]).abs() < 0.02, "dx[{i}] fd {fd} vs {}", gx.data()[i]);
        }
    }

    #[test]
    fn residual_forwards_implicit_state() {
        let mut r = rng();
        let res = Residual::new(vec![
            Box::new(Conv2d::init(2, 2, 3, 1, 1, &mut r)),
            Box::new(BatchNorm::new(2)),
        ]);
        let state = res.implicit_state();
        assert_eq!(state.len(), 2, "inner BatchNorm stats surface through the block");
        assert!(res.uses_conv());
        let mut res = res;
        res.set_implicit_state(&state);
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let mut ln = LayerNorm::new(4);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[2, 4]);
        let mut dr = rng();
        let mut ctx = mk_ctx(&mut dr);
        let y = ln.forward(&x, &mut ctx);
        for r in 0..2 {
            let row = &y.data()[r * 4..(r + 1) * 4];
            let mean: f32 = row.iter().sum::<f32>() / 4.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn layernorm_has_no_implicit_state() {
        let ln = LayerNorm::new(8);
        assert!(ln.implicit_state().is_empty(), "stateless across steps, unlike BatchNorm");
    }

    #[test]
    fn layernorm_gradients_match_finite_differences() {
        let mut ln = LayerNorm::new(3);
        let x = Tensor::from_vec(vec![0.2, -0.7, 1.1], &[1, 3]);
        let w = [0.3f32, -1.2, 0.8];
        let loss = |ln: &mut LayerNorm, x: &Tensor| -> f32 {
            let mut fresh = LayerNorm::new(3);
            fresh.gamma = ln.gamma.clone();
            fresh.beta = ln.beta.clone();
            let mut dr = rng();
            let mut ctx = mk_ctx(&mut dr);
            fresh.forward(x, &mut ctx).data().iter().zip(&w).map(|(a, b)| a * b).sum()
        };
        let base = loss(&mut ln, &x);
        let gx = {
            let mut dr = rng();
            let mut ctx = mk_ctx(&mut dr);
            let y = ln.forward(&x, &mut ctx);
            ln.backward(&Tensor::from_vec(w.to_vec(), y.shape()), &mut ctx)
        };
        let eps = 1e-3;
        for i in 0..3 {
            let mut x2 = x.clone();
            x2.data_mut()[i] += eps;
            let fd = (loss(&mut ln, &x2) - base) / eps;
            assert!((fd - gx.data()[i]).abs() < 0.05, "dx[{i}] fd {fd} vs {}", gx.data()[i]);
        }
        // gamma FD.
        let analytic = ln.grads()[0].data()[1];
        ln.params_mut()[0].data_mut()[1] += eps;
        let fd = (loss(&mut ln, &x) - base) / eps;
        assert!((fd - analytic).abs() < 0.05, "dgamma fd {fd} vs {analytic}");
    }

    #[test]
    fn gelu_matches_reference_points() {
        // GELU(0) = 0; GELU(large) ≈ x; GELU(-large) ≈ 0.
        let mut g = Gelu::new();
        let x = Tensor::from_slice(&[0.0, 5.0, -5.0, 1.0]);
        let mut dr = rng();
        let mut ctx = mk_ctx(&mut dr);
        let y = g.forward(&x, &mut ctx);
        assert_eq!(y.data()[0], 0.0);
        assert!((y.data()[1] - 5.0).abs() < 1e-3);
        assert!(y.data()[2].abs() < 1e-3);
        assert!((y.data()[3] - 0.8412).abs() < 1e-3, "GELU(1) ≈ 0.8412, got {}", y.data()[3]);
    }

    #[test]
    fn gelu_gradient_matches_finite_differences() {
        let mut g = Gelu::new();
        let xs = [-2.0f32, -0.5, 0.0, 0.7, 3.0];
        let x = Tensor::from_slice(&xs);
        let mut dr = rng();
        let mut ctx = mk_ctx(&mut dr);
        g.forward(&x, &mut ctx);
        let gx = g.backward(&Tensor::full(&[5], 1.0), &mut ctx);
        let eps = 1e-3f32;
        for (i, &v) in xs.iter().enumerate() {
            let fd = (Gelu::gelu(v + eps) - Gelu::gelu(v - eps)) / (2.0 * eps);
            assert!((fd - gx.data()[i]).abs() < 1e-2, "dgelu({v}) fd {fd} vs {}", gx.data()[i]);
        }
    }
}
