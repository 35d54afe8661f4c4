//! Property-based tests for the model layer: gradient correctness by finite
//! differences over random shapes/values, and bit-purity of forward passes.

use esrng::{EsRng, StreamKey, StreamKind};
use models::conv::Conv2d;
use models::layers::Dense;
use models::model::{ExecCtx, Layer};
use models::zoo::{self, build_proxy};

use proptest::prelude::*;
use tensor::ops::{self, ConvGeom};
use tensor::{KernelProfile, Tensor};

fn rng(seed: u64) -> EsRng {
    EsRng::for_stream(seed, StreamKey::global(StreamKind::ModelInit))
}

proptest! {
    /// Dense gradients match finite differences for arbitrary shapes,
    /// inputs, and weight entries.
    #[test]
    fn dense_fd_check(
        n in 1usize..4,
        inp in 1usize..6,
        out in 1usize..5,
        seed in any::<u64>(),
        probe in any::<u32>(),
    ) {
        let mut init = rng(seed);
        let mut layer = Dense::init(inp, out, &mut init);
        let x = Tensor::from_vec(
            (0..n * inp).map(|i| ((i as f32) * 0.73 + seed as f32 * 1e-9).sin()).collect(),
            &[n, inp],
        );
        let loss = |layer: &mut Dense, x: &Tensor| -> f32 {
            let mut d = rng(0);
            let mut ctx = ExecCtx { profile: KernelProfile::default(), training: true, dropout: &mut d };
            layer.forward(x, &mut ctx).data().iter().sum()
        };
        let base = loss(&mut layer, &x);
        let gx = {
            let mut d = rng(0);
            let mut ctx = ExecCtx { profile: KernelProfile::default(), training: true, dropout: &mut d };
            let y = layer.forward(&x, &mut ctx);
            layer.backward(&Tensor::full(y.shape(), 1.0), &mut ctx)
        };
        // Probe one random weight and one random input element.
        let wi = (probe as usize) % (inp * out);
        let eps = 1e-2f32;
        let analytic_w = layer.grads()[0].data()[wi];
        layer.params_mut()[0].data_mut()[wi] += eps;
        let fd_w = (loss(&mut layer, &x) - base) / eps;
        layer.params_mut()[0].data_mut()[wi] -= eps;
        prop_assert!((fd_w - analytic_w).abs() < 0.05, "dW[{wi}]: fd {fd_w} vs {analytic_w}");

        let xi = (probe as usize) % (n * inp);
        let mut x2 = x.clone();
        x2.data_mut()[xi] += eps;
        let fd_x = (loss(&mut layer, &x2) - base) / eps;
        prop_assert!((fd_x - gx.data()[xi]).abs() < 0.05, "dx[{xi}]: fd {fd_x} vs {}", gx.data()[xi]);
    }

    /// Every proxy's forward pass is a pure function of (seed, input, RNG
    /// position) — two evaluations agree bitwise.
    #[test]
    fn proxy_forward_is_pure(widx in 0usize..8, seed in any::<u64>()) {
        let w = models::WORKLOADS[widx];
        let mut m1 = build_proxy(w, seed);
        let mut m2 = build_proxy(w, seed);
        let x = match zoo::input_kind(w) {
            zoo::InputKind::Image => Tensor::from_vec(
                (0..2 * 3 * 8 * 8).map(|i| (i as f32 * 0.31).sin()).collect(),
                &[2, 3, 8, 8],
            ),
            zoo::InputKind::Sequence => Tensor::from_vec(
                (0..2 * zoo::SEQ_LEN).map(|i| (i % zoo::VOCAB) as f32).collect(),
                &[2, zoo::SEQ_LEN],
            ),
        };
        let run = |m: &mut models::Model| {
            let mut d = EsRng::for_stream(seed, StreamKey::ranked(StreamKind::Dropout, 0));
            let mut ctx = ExecCtx { profile: KernelProfile::default(), training: true, dropout: &mut d };
            m.forward(&x, &mut ctx)
        };
        let a = run(&mut m1);
        let b = run(&mut m2);
        prop_assert!(a.bitwise_eq(&b));
    }

    /// flat_params / load_flat_params round-trips on every proxy.
    #[test]
    fn flat_param_roundtrip(widx in 0usize..8, seed in any::<u64>()) {
        let w = models::WORKLOADS[widx];
        let mut m = build_proxy(w, seed);
        let flat = m.flat_params();
        prop_assert_eq!(flat.len(), m.num_params());
        let perturbed: Vec<f32> = flat.iter().map(|v| v * 1.5 + 0.01).collect();
        m.load_flat_params(&perturbed);
        prop_assert_eq!(m.flat_params(), perturbed);
    }

    /// Implicit-state capture/restore round-trips on every proxy.
    #[test]
    fn implicit_state_roundtrip(widx in 0usize..8) {
        let w = models::WORKLOADS[widx];
        let mut m = build_proxy(w, 3);
        // Run a training step so BN stats move off their init values.
        let x = match zoo::input_kind(w) {
            zoo::InputKind::Image => Tensor::from_vec((0..3 * 64).map(|i| (i as f32).cos()).collect(), &[1, 3, 8, 8]),
            zoo::InputKind::Sequence => Tensor::from_vec(vec![5.0; zoo::SEQ_LEN], &[1, zoo::SEQ_LEN]),
        };
        let mut d = EsRng::for_stream(0, StreamKey::ranked(StreamKind::Dropout, 0));
        let mut ctx = ExecCtx { profile: KernelProfile::default(), training: true, dropout: &mut d };
        m.forward(&x, &mut ctx);
        let state = m.implicit_state();
        let mut fresh = build_proxy(w, 3);
        fresh.set_implicit_state(&state);
        prop_assert_eq!(fresh.implicit_state(), state.clone());
        // Saving over a stale capture (the context-switch path) reads the
        // same values as capturing afresh.
        let mut stale = build_proxy(w, 3).implicit_state();
        m.save_implicit_state(&mut stale);
        prop_assert_eq!(stale, state);
    }
}

/// The oracle for skipping the first layer's input gradient: on all nine
/// proxies, under the V100, P100, T4 and D2 profiles, `backward_params`
/// leaves `flat_grads()` bit-identical to `backward` on the same input —
/// and `take_flat_grads` hands out those bits and leaves zeros.
#[test]
fn params_only_backward_leaves_the_gradients_of_the_full_backward() {
    let profiles = [80, 56, 40]
        .map(KernelProfile::vendor_optimized)
        .into_iter()
        .chain([KernelProfile::hardware_agnostic()]);
    for profile in profiles {
        for w in models::WORKLOADS {
            let x = match zoo::input_kind(w) {
                zoo::InputKind::Image => Tensor::from_vec(
                    (0..4 * 3 * 64).map(|i| (i as f32 * 0.37).cos()).collect(),
                    &[4, 3, 8, 8],
                ),
                zoo::InputKind::Sequence => Tensor::from_vec(
                    (0..4 * zoo::SEQ_LEN).map(|i| (i * 7 % zoo::VOCAB) as f32).collect(),
                    &[4, zoo::SEQ_LEN],
                ),
            };
            let grads = |params_only: bool| {
                let mut m = build_proxy(w, 3);
                let mut d = EsRng::for_stream(0, StreamKey::ranked(StreamKind::Dropout, 0));
                let mut ctx = ExecCtx { profile, training: true, dropout: &mut d };
                let y = m.forward(&x, &mut ctx);
                let g = Tensor::from_vec(
                    (0..y.len()).map(|i| (i as f32 * 0.11).sin()).collect(),
                    y.shape(),
                );
                if params_only {
                    m.backward_params(&g, &mut ctx);
                } else {
                    m.backward(&g, &mut ctx);
                }
                let left = m.flat_grads();
                assert_eq!(bits(&m.take_flat_grads()), bits(&left), "{} taken", w.name());
                assert!(m.flat_grads().iter().all(|g| g.to_bits() == 0), "{} zeroed", w.name());
                left
            };
            let (full, params_only) = (grads(false), grads(true));
            assert!(full.iter().any(|&g| g != 0.0), "{}: a gradient flowed", w.name());
            assert_eq!(bits(&full), bits(&params_only), "{} under {profile:?}", w.name());
        }
    }
}

/// What `Conv2d` computed before it stopped unfolding, kept as its
/// reference: per sample, unfold, `W · col` plus bias; `gw += g · colᵀ` and
/// `gb += ` row sums of `g`, samples ascending; `dx` = fold of `Wᵀ · g`.
/// Returns `(y, dx)` of one batch and adds to `gw`/`gb`.
fn unfolded_conv(
    (weight, bias): (&Tensor, &Tensor),
    geom: ConvGeom,
    (x, g): (&Tensor, &Tensor),
    (gw, gb): (&mut Tensor, &mut Tensor),
    profile: &KernelProfile,
) -> (Vec<f32>, Vec<f32>) {
    let (b, cin, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (cout, spatial) = (weight.shape()[0], geom.out_size(h) * geom.out_size(w));
    let (mut y, mut dx) = (Vec::new(), Vec::new());
    for n in 0..b {
        let sample = Tensor::from_slice(&x.data()[n * cin * h * w..][..cin * h * w]);
        let col = ops::im2col_scalar(&sample.reshape(&[cin, h, w]), geom);
        let out = ops::matmul(weight, &col, profile);
        y.extend(out.data().iter().enumerate().map(|(i, v)| v + bias.at(i / spatial)));
        let gn = Tensor::from_slice(&g.data()[n * cout * spatial..][..cout * spatial]);
        let gn = gn.reshape(&[cout, spatial]);
        gw.axpy_(1.0, &ops::matmul_a_bt(&gn, &col, profile));
        for (gb, row) in gb.data_mut().iter_mut().zip(gn.data().chunks_exact(spatial)) {
            *gb += ops::blocked_sum(row, profile);
        }
        let dcol = ops::matmul_at_b(weight, &gn, profile);
        dx.extend_from_slice(ops::col2im_scalar(&dcol, cin, h, w, geom).data());
    }
    (y, dx)
}

/// `Conv2d` ≡ the unfolded recipe, bit for bit, on everything it hands out:
/// every conv geometry of the zoo (3×3, pad 1, strides 1 and 2, 8×8 and 4×4
/// inputs) under the V100, P100, T4 and D2 profiles, two batches
/// accumulated, through `backward` and through `backward_params`.
#[test]
fn conv2d_is_the_unfolded_recipe_bit_for_bit() {
    let layers = [(3, 8, 8, 1), (8, 8, 8, 1), (8, 16, 4, 1), (6, 12, 8, 2), (16, 32, 4, 1)];
    let profiles = [80, 56, 40]
        .map(KernelProfile::vendor_optimized)
        .into_iter()
        .chain([KernelProfile::hardware_agnostic()]);
    let rough = |count: usize, salt: usize| -> Vec<f32> {
        (0..count)
            .map(|i| ((i * 31 + salt) as f32).sin() * 10f32.powi((i % 7) as i32 - 3))
            .collect()
    };
    for profile in profiles {
        for (cin, cout, hw, stride) in layers {
            let geom = ConvGeom { kernel: 3, stride, pad: 1 };
            let tag = format!("{cin}->{cout} {hw}x{hw} {geom:?} {profile:?}");
            let layer = || {
                let mut conv = Conv2d::init(cin, cout, 3, stride, 1, &mut rng(11));
                conv.params_mut()[1].data_mut().copy_from_slice(&rough(cout, 5));
                conv
            };
            let (mut full, mut params_only) = (layer(), layer());
            let (weight, bias) = (full.params()[0].clone(), full.params()[1].clone());
            let (mut gw, mut gb) = (Tensor::zeros(weight.shape()), Tensor::zeros(&[cout]));
            let mut d = rng(0);
            let mut ctx = ExecCtx { profile, training: true, dropout: &mut d };
            for batch in 0..2 {
                let x = Tensor::from_vec(rough(2 * cin * hw * hw, batch), &[2, cin, hw, hw]);
                let y = full.forward(&x, &mut ctx);
                let g = Tensor::from_vec(rough(y.len(), batch + 2), y.shape());
                let (want_y, want_dx) =
                    unfolded_conv((&weight, &bias), geom, (&x, &g), (&mut gw, &mut gb), &profile);
                assert_eq!(bits(y.data()), bits(&want_y), "y, batch {batch}, {tag}");
                let dx = full.backward(&g, &mut ctx);
                assert_eq!(bits(dx.data()), bits(&want_dx), "dx, batch {batch}, {tag}");
                params_only.forward(&x, &mut ctx);
                params_only.backward_params(&g, &mut ctx);
            }
            for conv in [&full, &params_only] {
                assert_eq!(bits(conv.grads()[0].data()), bits(gw.data()), "gw {tag}");
                assert_eq!(bits(conv.grads()[1].data()), bits(gb.data()), "gb {tag}");
            }
        }
    }
}

/// The plan is a function of the input size: a forward pass at another
/// `(h, w)` rebuilds it, and the backward pass that follows uses the new one.
#[test]
fn conv2d_rebuilds_its_plan_for_another_input_size() {
    let (geom, profile) = (ConvGeom { kernel: 3, stride: 2, pad: 1 }, KernelProfile::default());
    let mut conv = Conv2d::init(3, 4, 3, 2, 1, &mut rng(11));
    let (weight, bias) = (conv.params()[0].clone(), conv.params()[1].clone());
    let (mut gw, mut gb) = (Tensor::zeros(weight.shape()), Tensor::zeros(&[4]));
    let mut d = rng(0);
    let mut ctx = ExecCtx { profile, training: true, dropout: &mut d };
    for (h, w) in [(8, 8), (9, 5), (8, 8)] {
        let x = Tensor::from_vec((0..3 * h * w).map(|i| (i as f32).sin()).collect(), &[1, 3, h, w]);
        let y = conv.forward(&x, &mut ctx);
        let g = Tensor::from_vec((0..y.len()).map(|i| (i as f32).cos()).collect(), y.shape());
        let (want_y, want_dx) =
            unfolded_conv((&weight, &bias), geom, (&x, &g), (&mut gw, &mut gb), &profile);
        assert_eq!(bits(y.data()), bits(&want_y), "y at {h}x{w}");
        assert_eq!(bits(conv.backward(&g, &mut ctx).data()), bits(&want_dx), "dx at {h}x{w}");
    }
    assert_eq!(bits(conv.grads()[0].data()), bits(gw.data()), "gw over all three sizes");
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}
