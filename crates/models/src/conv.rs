//! 2-D convolution layer (direct formulation over a zero-padded sample).
//!
//! This is the layer whose vendor-optimized kernels the paper's D2 analysis
//! is about: its forward/backward products inherit their accumulation order
//! from the `KernelProfile`, so the same weights on "different GPUs"
//! (different vendor profiles) produce different bits unless the hardware-
//! agnostic profile is pinned.
//!
//! Both passes work a sample at a time on `tensor::ops`' `conv2d_*_into`
//! kernels, which read the sample's zero-padded copy where a matmul would
//! read its unfolded matrix — same tree, no 9 × unfold — over buffers taken
//! once per call and reused across the batch; the per-sample order in which
//! `gw` and `gb` take their contributions is part of the accumulation tree
//! and stays ascending.

use crate::model::{drain, ExecCtx, Layer, ParamInit};
use tensor::ops::{self, ConvGeom, ConvPlan};
use tensor::{with_scratch, Tensor};

/// Conv2d: input `[B, cin, h, w]` → output `[B, cout, oh, ow]`.
pub struct Conv2d {
    /// `[cout, cin*k*k]`, a row per output channel, taps `(c, ky, kx)`.
    weight: Tensor,
    bias: Tensor,
    gw: Tensor,
    gb: Tensor,
    cin: usize,
    cout: usize,
    geom: ConvGeom,
    /// Tap and position offsets for the input size last seen; rebuilt when a
    /// forward pass brings another `(h, w)`.
    plan: Option<ConvPlan>,
    /// The input of the last forward pass; `backward` pads each sample
    /// again, a copy of 1.6 × its size where the unfolded form was 9 ×.
    cached: Option<Tensor>,
}

impl Conv2d {
    /// Kaiming-uniform initialized convolution.
    pub fn init(
        cin: usize,
        cout: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut dyn ParamInit,
    ) -> Self {
        let fan_in = cin * kernel * kernel;
        let bound = (6.0 / fan_in as f32).sqrt();
        let weight = rng.tensor(&[cout, fan_in], &mut |r| r.uniform_range_f32(-bound, bound));
        Conv2d {
            gw: Tensor::zeros(&[cout, fan_in]),
            gb: Tensor::zeros(&[cout]),
            bias: Tensor::zeros(&[cout]),
            weight,
            cin,
            cout,
            geom: ConvGeom { kernel, stride, pad },
            plan: None,
            cached: None,
        }
    }

    /// The backward pass; dL/d(input) — `dcol = Wᵀ·g` folded back onto the
    /// plane, about half of the pass — only if `want_dx`.
    fn backward_opt(&mut self, grad: &Tensor, ctx: &mut ExecCtx, want_dx: bool) -> Option<Tensor> {
        let x = self.cached.take().expect("backward before forward");
        let plan = self.plan.as_ref().expect("forward built it");
        let (b, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let (oh, ow) = plan.out_dims();
        let (spatial, prof) = (oh * ow, &ctx.profile);
        assert_eq!(grad.shape(), &[b, self.cout, oh, ow], "grad shape mismatch");

        // Per-call buffers reused across the samples; `gw`/`gb` still take
        // one sample's contribution at a time, in ascending sample order —
        // `gw` in the weight-gradient kernel's layout, transposed there and
        // back once per call: data movement.
        let (k, gwd) = (self.gw.shape()[1], self.gw.data_mut());
        let mut gwt = Tensor::uninit(&[k, self.cout]);
        ops::transpose_into(gwd, k, gwt.data_mut());
        let mut padded = Tensor::uninit(&[plan.padded_len()]);
        let mut dx = want_dx.then(|| Tensor::uninit(&[b, self.cin, h, w]));
        let gs = grad.data().chunks_exact(self.cout * spatial);
        let samples = x.data().chunks_exact(self.cin * h * w);
        with_scratch(|work, scratch| {
            for (n, (g, sample)) in gs.zip(samples).enumerate() {
                // dWᵀ += col · gᵀ, col read off the padded sample.
                plan.pad_into(sample, padded.data_mut());
                ops::conv2d_dw_into(plan, padded.data(), g, prof, gwt.data_mut(), work);
                // db += row sums of g.
                for (gb, row) in self.gb.data_mut().iter_mut().zip(g.chunks_exact(spatial)) {
                    *gb += ops::blocked_sum(row, prof);
                }
                if let Some(gx) = &mut dx {
                    let plane = &mut gx.data_mut()[n * self.cin * h * w..][..self.cin * h * w];
                    ops::conv2d_dx_into(plan, self.weight.data(), g, prof, plane, work, scratch);
                }
            }
        });
        ops::transpose_into(gwt.data(), self.cout, gwd);
        dx
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 4, "Conv2d expects [B,cin,h,w], got {s:?}");
        assert_eq!(s[1], self.cin, "channel mismatch");
        let dims = (self.cin, s[2], s[3]);
        if self.plan.as_ref().map(ConvPlan::dims) != Some(dims) {
            self.plan = Some(ConvPlan::new(dims, self.geom));
        }
        let plan = self.plan.as_ref().expect("just built");
        let (oh, ow) = plan.out_dims();
        let mut out = Tensor::uninit(&[s[0], self.cout, oh, ow]);
        let mut padded = Tensor::uninit(&[plan.padded_len()]);
        let samples = x.data().chunks_exact(self.cin * s[2] * s[3]);
        let planes = out.data_mut().chunks_exact_mut(self.cout * oh * ow);
        with_scratch(|_, scratch| {
            for (sample, dst) in samples.zip(planes) {
                plan.pad_into(sample, padded.data_mut());
                let (wd, prof) = (self.weight.data(), &ctx.profile);
                ops::conv2d_forward_into(plan, padded.data(), wd, prof, dst, scratch);
                for (chan, &bias) in dst.chunks_exact_mut(oh * ow).zip(self.bias.data()) {
                    chan.iter_mut().for_each(|y| *y += bias);
                }
            }
        });
        self.cached = Some(x.clone());
        out
    }

    fn backward(&mut self, grad: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        self.backward_opt(grad, ctx, true).expect("asked for")
    }

    fn backward_params(&mut self, grad: &Tensor, ctx: &mut ExecCtx) {
        self.backward_opt(grad, ctx, false);
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.gw, &self.gb]
    }

    fn drain_grads(&mut self, out: &mut Vec<f32>) {
        drain([&mut self.gw, &mut self.gb], out);
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn uses_conv(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esrng::{EsRng, StreamKey, StreamKind};
    use tensor::KernelProfile;

    fn init_rng() -> EsRng {
        EsRng::for_stream(2, StreamKey::global(StreamKind::ModelInit))
    }

    fn mk_ctx(rng: &mut EsRng) -> ExecCtx<'_> {
        ExecCtx { profile: KernelProfile::default(), training: true, dropout: rng }
    }

    #[test]
    fn forward_shape() {
        let mut rng = init_rng();
        let mut conv = Conv2d::init(3, 8, 3, 1, 1, &mut rng);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let mut drng = init_rng();
        let mut ctx = mk_ctx(&mut drng);
        let y = conv.forward(&x, &mut ctx);
        assert_eq!(y.shape(), &[2, 8, 8, 8]);
    }

    #[test]
    fn strided_forward_shrinks() {
        let mut rng = init_rng();
        let mut conv = Conv2d::init(1, 2, 3, 2, 1, &mut rng);
        let x = Tensor::zeros(&[1, 1, 8, 8]);
        let mut drng = init_rng();
        let mut ctx = mk_ctx(&mut drng);
        let y = conv.forward(&x, &mut ctx);
        assert_eq!(y.shape(), &[1, 2, 4, 4]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = init_rng();
        let mut conv = Conv2d::init(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::from_vec(
            (0..2 * 2 * 4 * 4).map(|i| ((i * 7) % 13) as f32 * 0.1 - 0.6).collect(),
            &[2, 2, 4, 4],
        );

        let loss = |conv: &mut Conv2d, x: &Tensor| -> f32 {
            let mut drng = init_rng();
            let mut ctx = mk_ctx(&mut drng);
            let y = conv.forward(x, &mut ctx);
            y.data().iter().sum()
        };

        let base = loss(&mut conv, &x);
        {
            let mut drng = init_rng();
            let mut ctx = mk_ctx(&mut drng);
            let y = conv.forward(&x, &mut ctx);
            conv.backward(&Tensor::full(y.shape(), 1.0), &mut ctx);
        }
        let eps = 1e-2f32;

        // Check a few weight entries.
        for &wi in &[0usize, 5, 17] {
            let analytic = conv.grads()[0].data()[wi];
            conv.params_mut()[0].data_mut()[wi] += eps;
            let bumped = loss(&mut conv, &x);
            conv.params_mut()[0].data_mut()[wi] -= eps;
            let fd = (bumped - base) / eps;
            assert!((fd - analytic).abs() < 0.05, "dW[{wi}] fd {fd} vs {analytic}");
        }

        // Bias gradient: dL/db_c = number of output positions = B*oh*ow.
        let expected = (2 * 4 * 4) as f32;
        for c in 0..3 {
            let got = conv.grads()[1].data()[c];
            assert!((got - expected).abs() < 1e-3, "db[{c}] = {got}, want {expected}");
        }
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = init_rng();
        let mut conv = Conv2d::init(1, 2, 3, 1, 0, &mut rng);
        let x = Tensor::from_vec((0..16).map(|i| i as f32 * 0.1).collect(), &[1, 1, 4, 4]);
        let mut drng = init_rng();
        let mut ctx = mk_ctx(&mut drng);
        let y = conv.forward(&x, &mut ctx);
        let gx = conv.backward(&Tensor::full(y.shape(), 1.0), &mut ctx);

        let loss = |conv: &mut Conv2d, x: &Tensor| -> f32 {
            let mut drng = init_rng();
            let mut ctx = mk_ctx(&mut drng);
            conv.forward(x, &mut ctx).data().iter().sum()
        };
        let base = loss(&mut conv, &x);
        let eps = 1e-2f32;
        for &xi in &[0usize, 5, 10, 15] {
            let mut x2 = x.clone();
            x2.data_mut()[xi] += eps;
            let fd = (loss(&mut conv, &x2) - base) / eps;
            assert!((fd - gx.data()[xi]).abs() < 0.05, "dx[{xi}] fd {fd} vs {}", gx.data()[xi]);
        }
    }

    #[test]
    fn profile_changes_conv_bits() {
        let mut rng = init_rng();
        let mut conv = Conv2d::init(3, 16, 3, 1, 1, &mut rng);
        let x = Tensor::from_vec(
            (0..3 * 64).map(|i| (i as f32).sin() * 10f32.powi((i % 5) - 2)).collect(),
            &[1, 3, 8, 8],
        );
        let run = |conv: &mut Conv2d, profile: KernelProfile| {
            let mut drng = init_rng();
            let mut ctx = ExecCtx { profile, training: true, dropout: &mut drng };
            conv.forward(&x, &mut ctx)
        };
        let y_v100 = run(&mut conv, KernelProfile::vendor_optimized(80));
        let y_t4 = run(&mut conv, KernelProfile::vendor_optimized(40));
        assert!(!y_v100.bitwise_eq(&y_t4), "vendor kernels must differ across GPU types");
        assert!(y_v100.max_abs_diff(&y_t4) < 1e-3, "but only in low-order bits");
        let y_agn1 = run(&mut conv, KernelProfile::hardware_agnostic());
        let y_agn2 = run(&mut conv, KernelProfile::hardware_agnostic());
        assert!(y_agn1.bitwise_eq(&y_agn2));
    }

    /// A bias-free conv with every weight 1.0, run on one sample.
    fn ones_conv(x: &Tensor, kernel: usize, pad: usize) -> Tensor {
        let mut rng = init_rng();
        let mut conv = Conv2d::init(x.shape()[1], 1, kernel, 1, pad, &mut rng);
        conv.params_mut()[0].data_mut().fill(1.0);
        let mut drng = init_rng();
        conv.forward(x, &mut mk_ctx(&mut drng))
    }

    #[test]
    fn conv2d_matches_direct_computation() {
        // 1 input channel, 4x4 image, 3x3 kernel of ones, no pad: each output
        // is the sum of the 3x3 neighborhood.
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]);
        let y = ones_conv(&x, 3, 0);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        // Neighborhood sums: top-left window covers indices {0,1,2,4,5,6,8,9,10} = 45.
        assert_eq!(y.data()[0], 45.0);
        assert_eq!(y.data()[3], 45.0 + 9.0 * 5.0);
    }

    #[test]
    fn conv_padding_zero_extends() {
        let y = ones_conv(&Tensor::full(&[1, 1, 2, 2], 1.0), 3, 1);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        // Every output sees exactly the 4 real pixels.
        assert!(y.data().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn conv_reports_conv_usage() {
        let mut rng = init_rng();
        let conv = Conv2d::init(1, 1, 3, 1, 1, &mut rng);
        assert!(conv.uses_conv());
    }
}
