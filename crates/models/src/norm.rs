//! Batch normalization — the canonical "implicit framework state" of the
//! paper's §3.3: its running mean/variance are updated as a side effect of
//! every training forward pass, are *not* synchronized by DDP (each replica
//! tracks its own), and therefore belong to the EST context, not to the
//! shared parameters.

use crate::model::{drain, ExecCtx, Layer};
use tensor::ops::blocked_sum;
use tensor::Tensor;

/// BatchNorm over the channel axis: accepts `[B, C]` or `[B, C, H, W]`.
pub struct BatchNorm {
    gamma: Tensor,
    beta: Tensor,
    ggamma: Tensor,
    gbeta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    channels: usize,
    cached: Option<Cached>,
}

struct Cached {
    x_hat: Tensor,
    inv_std: Tensor,
}

impl BatchNorm {
    /// BatchNorm over `channels` with PyTorch-default momentum 0.1, eps 1e-5.
    pub fn new(channels: usize) -> Self {
        BatchNorm {
            gamma: Tensor::full(&[channels], 1.0),
            beta: Tensor::zeros(&[channels]),
            ggamma: Tensor::zeros(&[channels]),
            gbeta: Tensor::zeros(&[channels]),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::full(&[channels], 1.0),
            momentum: 0.1,
            eps: 1e-5,
            channels,
            cached: None,
        }
    }

    /// Current running statistics (mean, var).
    pub fn running_stats(&self) -> (&Tensor, &Tensor) {
        (&self.running_mean, &self.running_var)
    }

    /// Gather per-channel values of `x` into `buf` (indices of channel `c`).
    fn channel_slice(shape: &[usize]) -> (usize, usize, usize) {
        // Returns (outer, stride, inner): element (o, c, i) lives at
        // o*stride_outer + c*inner + i.
        match shape.len() {
            2 => (shape[0], shape[1], 1),
            4 => (shape[0], shape[1] * shape[2] * shape[3], shape[2] * shape[3]),
            _ => panic!("BatchNorm expects [B,C] or [B,C,H,W], got {shape:?}"),
        }
    }
}

impl Layer for BatchNorm {
    fn forward(&mut self, x: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        let shape = x.shape();
        let (outer, stride, inner) = Self::channel_slice(shape);
        assert_eq!(
            stride / inner.max(1),
            self.channels,
            "channel mismatch: BatchNorm({}) got {shape:?}",
            self.channels
        );
        let m = (outer * inner) as f32;
        let xd = x.data();
        let mut out = Tensor::uninit(shape);
        let mut x_hat = Tensor::uninit(shape);
        let mut inv_std = Tensor::uninit(&[self.channels]);
        // One channel gathered across the batch, and its squared deviations.
        let (mut buf, mut sq) =
            (Tensor::uninit(&[outer * inner]), Tensor::uninit(&[outer * inner]));
        let (buf, sq) = (buf.data_mut(), sq.data_mut());

        #[allow(clippy::needless_range_loop)] // c indexes several parallel arrays
        for c in 0..self.channels {
            // Gather channel c.
            let mut k = 0;
            for o in 0..outer {
                let base = o * stride + c * inner;
                for i in 0..inner {
                    buf[k] = xd[base + i];
                    k += 1;
                }
            }
            let (mean, var) = if ctx.training {
                let mean = blocked_sum(buf, &ctx.profile) / m;
                for (s, &v) in sq.iter_mut().zip(buf.iter()) {
                    *s = (v - mean) * (v - mean);
                }
                let var = blocked_sum(sq, &ctx.profile) / m;
                // Update running stats (PyTorch: unbiased var for running).
                let unbiased = if m > 1.0 { var * m / (m - 1.0) } else { var };
                let rm = &mut self.running_mean.data_mut()[c];
                *rm = (1.0 - self.momentum) * *rm + self.momentum * mean;
                let rv = &mut self.running_var.data_mut()[c];
                *rv = (1.0 - self.momentum) * *rv + self.momentum * unbiased;
                (mean, var)
            } else {
                (self.running_mean.data()[c], self.running_var.data()[c])
            };
            let istd = 1.0 / (var + self.eps).sqrt();
            inv_std.data_mut()[c] = istd;
            let g = self.gamma.data()[c];
            let b = self.beta.data()[c];
            let od = out.data_mut();
            let xh = x_hat.data_mut();
            let mut k = 0;
            for o in 0..outer {
                let base = o * stride + c * inner;
                for i in 0..inner {
                    let h = (buf[k] - mean) * istd;
                    xh[base + i] = h;
                    od[base + i] = g * h + b;
                    k += 1;
                }
            }
        }
        self.cached = Some(Cached { x_hat, inv_std });
        out
    }

    fn backward(&mut self, grad: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        let cached = self.cached.take().expect("backward before forward");
        let shape = cached.x_hat.shape();
        assert_eq!(grad.shape(), shape, "grad shape mismatch");
        let (outer, stride, inner) = Self::channel_slice(shape);
        let m = (outer * inner) as f32;
        let gd = grad.data();
        let xh = cached.x_hat.data();
        let mut gx = Tensor::uninit(shape);
        let (mut gbuf, mut ghbuf) =
            (Tensor::uninit(&[outer * inner]), Tensor::uninit(&[outer * inner]));
        let (gbuf, ghbuf) = (gbuf.data_mut(), ghbuf.data_mut());

        for c in 0..self.channels {
            let mut k = 0;
            for o in 0..outer {
                let base = o * stride + c * inner;
                for i in 0..inner {
                    gbuf[k] = gd[base + i];
                    ghbuf[k] = gd[base + i] * xh[base + i];
                    k += 1;
                }
            }
            let dbeta = blocked_sum(gbuf, &ctx.profile);
            let dgamma = blocked_sum(ghbuf, &ctx.profile);
            self.gbeta.data_mut()[c] += dbeta;
            self.ggamma.data_mut()[c] += dgamma;

            let g = self.gamma.data()[c];
            let istd = cached.inv_std.data()[c];
            let gxd = gx.data_mut();
            let mut k = 0;
            for o in 0..outer {
                let base = o * stride + c * inner;
                for i in 0..inner {
                    // dx = gamma*istd * (g - dbeta/m - x_hat*dgamma/m)
                    gxd[base + i] = g * istd * (gbuf[k] - dbeta / m - xh[base + i] * dgamma / m);
                    k += 1;
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

    fn implicit_state(&self) -> Vec<Tensor> {
        vec![self.running_mean.clone(), self.running_var.clone()]
    }

    fn set_implicit_state<'a>(&mut self, state: &'a [Tensor]) -> &'a [Tensor] {
        let ([mean, var], rest) =
            state.split_first_chunk().expect("BatchNorm implicit state is (mean, var)");
        self.running_mean.data_mut().copy_from_slice(mean.data());
        self.running_var.data_mut().copy_from_slice(var.data());
        rest
    }

    fn save_implicit_state<'a>(&self, state: &'a mut [Tensor]) -> &'a mut [Tensor] {
        let ([mean, var], rest) =
            state.split_first_chunk_mut().expect("BatchNorm implicit state is (mean, var)");
        mean.data_mut().copy_from_slice(self.running_mean.data());
        var.data_mut().copy_from_slice(self.running_var.data());
        rest
    }

    fn name(&self) -> &'static str {
        "BatchNorm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esrng::{EsRng, StreamKey, StreamKind};
    use tensor::KernelProfile;

    fn mk_rng() -> EsRng {
        EsRng::for_stream(3, StreamKey::global(StreamKind::ModelInit))
    }

    #[test]
    fn training_output_is_normalized() {
        let mut bn = BatchNorm::new(2);
        let mut rng = mk_rng();
        let data: Vec<f32> = (0..32).map(|_| rng.normal_f32() * 3.0 + 5.0).collect();
        let x = Tensor::from_vec(data, &[16, 2]);
        let mut drng = mk_rng();
        let mut ctx =
            ExecCtx { profile: KernelProfile::default(), training: true, dropout: &mut drng };
        let y = bn.forward(&x, &mut ctx);
        for c in 0..2 {
            let vals: Vec<f32> = (0..16).map(|i| y.data()[i * 2 + c]).collect();
            let mean: f32 = vals.iter().sum::<f32>() / 16.0;
            let var: f32 = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-4, "channel {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "channel {c} var {var}");
        }
    }

    #[test]
    fn running_stats_move_toward_batch_stats() {
        let mut bn = BatchNorm::new(1);
        let x = Tensor::from_vec(vec![10.0; 8], &[8, 1]);
        let mut drng = mk_rng();
        let mut ctx =
            ExecCtx { profile: KernelProfile::default(), training: true, dropout: &mut drng };
        for _ in 0..50 {
            bn.forward(&x, &mut ctx);
        }
        let (mean, _) = bn.running_stats();
        assert!(
            (mean.data()[0] - 10.0).abs() < 0.1,
            "running mean converges to 10: {}",
            mean.data()[0]
        );
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let mut bn = BatchNorm::new(1);
        // Seed running stats away from batch stats.
        bn.set_implicit_state(&[Tensor::from_slice(&[4.0]), Tensor::from_slice(&[4.0])]);
        let x = Tensor::from_vec(vec![4.0; 4], &[4, 1]);
        let mut drng = mk_rng();
        let mut ctx =
            ExecCtx { profile: KernelProfile::default(), training: false, dropout: &mut drng };
        let y = bn.forward(&x, &mut ctx);
        // (4-4)/sqrt(4+eps) = 0 for all entries.
        assert!(y.data().iter().all(|&v| v.abs() < 1e-6));
        // Eval must not move running stats.
        assert_eq!(bn.running_stats().0.data()[0], 4.0);
    }

    #[test]
    fn implicit_state_roundtrip() {
        let mut bn = BatchNorm::new(3);
        let mut rng = mk_rng();
        let x = Tensor::from_vec((0..24).map(|_| rng.normal_f32()).collect(), &[8, 3]);
        let mut drng = mk_rng();
        let mut ctx =
            ExecCtx { profile: KernelProfile::default(), training: true, dropout: &mut drng };
        bn.forward(&x, &mut ctx);
        let state = bn.implicit_state();
        let mut bn2 = BatchNorm::new(3);
        bn2.set_implicit_state(&state);
        assert!(bn2.running_stats().0.bitwise_eq(bn.running_stats().0));
        assert!(bn2.running_stats().1.bitwise_eq(bn.running_stats().1));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut bn = BatchNorm::new(2);
        let mut rng = mk_rng();
        let x = Tensor::from_vec((0..12).map(|_| rng.normal_f32()).collect(), &[6, 2]);

        // Loss = sum(y * w) for fixed random weights, so grads are nontrivial.
        let w: Vec<f32> = (0..12).map(|_| rng.normal_f32()).collect();
        let loss = |bn: &mut BatchNorm, x: &Tensor| -> f32 {
            let mut fresh = BatchNorm::new(2);
            fresh.gamma = bn.gamma.clone();
            fresh.beta = bn.beta.clone();
            let mut drng = mk_rng();
            let mut ctx =
                ExecCtx { profile: KernelProfile::default(), training: true, dropout: &mut drng };
            let y = fresh.forward(x, &mut ctx);
            y.data().iter().zip(&w).map(|(a, b)| a * b).sum()
        };

        let base = loss(&mut bn, &x);
        {
            let mut drng = mk_rng();
            let mut ctx =
                ExecCtx { profile: KernelProfile::default(), training: true, dropout: &mut drng };
            let y = bn.forward(&x, &mut ctx);
            let grad = Tensor::from_vec(w.clone(), y.shape());
            let gx = bn.backward(&grad, &mut ctx);

            let eps = 1e-3f32;
            for &xi in &[0usize, 5, 11] {
                let mut x2 = x.clone();
                x2.data_mut()[xi] += eps;
                let fd = (loss(&mut bn, &x2) - base) / eps;
                assert!((fd - gx.data()[xi]).abs() < 0.05, "dx[{xi}] fd {fd} vs {}", gx.data()[xi]);
            }
        }
        // gamma gradient FD.
        let eps = 1e-3f32;
        let analytic = bn.grads()[0].data()[0];
        bn.params_mut()[0].data_mut()[0] += eps;
        let bumped = loss(&mut bn, &x);
        let fd = (bumped - base) / eps;
        assert!((fd - analytic).abs() < 0.05, "dgamma fd {fd} vs {analytic}");
    }

    #[test]
    fn conv_shaped_input_accepted() {
        let mut bn = BatchNorm::new(3);
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let mut drng = mk_rng();
        let mut ctx =
            ExecCtx { profile: KernelProfile::default(), training: true, dropout: &mut drng };
        let y = bn.forward(&x, &mut ctx);
        assert_eq!(y.shape(), &[2, 3, 4, 4]);
        let gx = bn.backward(&Tensor::zeros(&[2, 3, 4, 4]), &mut ctx);
        assert_eq!(gx.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    #[should_panic(expected = "BatchNorm expects")]
    fn rejects_3d_input() {
        let mut bn = BatchNorm::new(3);
        let x = Tensor::zeros(&[2, 3, 4]);
        let mut drng = mk_rng();
        let mut ctx =
            ExecCtx { profile: KernelProfile::default(), training: true, dropout: &mut drng };
        bn.forward(&x, &mut ctx);
    }
}
