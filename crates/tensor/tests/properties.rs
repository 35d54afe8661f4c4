//! Property-based tests for the kernel layer: every profile must compute
//! the same *real number* (within f32 tolerance) while being free to differ
//! in bits, and deterministic profiles must be bit-stable.

use proptest::prelude::*;
use tensor::ops;
use tensor::{KernelProfile, Tensor};

fn profile_strategy() -> impl Strategy<Value = KernelProfile> {
    (1usize..256, 1usize..64, 0u8..3).prop_map(|(reduce_block, tile_k, algo_id)| KernelProfile {
        reduce_block,
        tile_k,
        algo_id,
        deterministic: true,
    })
}

fn data_strategy(max: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, 1..max)
}

proptest! {
    /// blocked_sum under any deterministic profile is within f32 tolerance
    /// of the f64 reference sum.
    #[test]
    fn blocked_sum_is_accurate(data in data_strategy(2000), profile in profile_strategy()) {
        let reference: f64 = data.iter().map(|&x| x as f64).sum();
        let got = ops::blocked_sum(&data, &profile) as f64;
        let scale = data.iter().map(|x| x.abs() as f64).sum::<f64>().max(1.0);
        prop_assert!((got - reference).abs() <= 1e-3 * scale, "{got} vs {reference}");
    }

    /// Deterministic profiles are bit-stable across repeated evaluation.
    #[test]
    fn deterministic_profiles_are_bit_stable(data in data_strategy(1000), profile in profile_strategy()) {
        let a = ops::blocked_sum(&data, &profile);
        let b = ops::blocked_sum(&data, &profile);
        prop_assert_eq!(a.to_bits(), b.to_bits());
    }

    /// matmul under any profile matches the f64 reference.
    #[test]
    fn matmul_is_accurate(
        m in 1usize..6, k in 1usize..20, n in 1usize..6,
        seed in any::<u32>(),
        profile in profile_strategy(),
    ) {
        let gen = |count: usize, salt: u32| -> Vec<f32> {
            (0..count).map(|i| (((i as u32).wrapping_mul(2654435761).wrapping_add(seed ^ salt)) % 1000) as f32 * 0.01 - 5.0).collect()
        };
        let a = Tensor::from_vec(gen(m * k, 1), &[m, k]);
        let b = Tensor::from_vec(gen(k * n, 2), &[k, n]);
        let c = ops::matmul(&a, &b, &profile);
        for i in 0..m {
            for j in 0..n {
                let reference: f64 = (0..k)
                    .map(|p| a.data()[i * k + p] as f64 * b.data()[p * n + j] as f64)
                    .sum();
                let got = c.data()[i * n + j] as f64;
                prop_assert!((got - reference).abs() < 1e-3, "({i},{j}): {got} vs {reference}");
            }
        }
    }

    /// Transposed-matmul kernels agree with explicit transposition.
    #[test]
    fn transposed_matmuls_agree(k in 1usize..10, m in 1usize..6, n in 1usize..6, profile in profile_strategy()) {
        let a = Tensor::from_vec((0..k * m).map(|i| (i as f32 * 0.37).sin()).collect(), &[k, m]);
        let b = Tensor::from_vec((0..k * n).map(|i| (i as f32 * 0.53).cos()).collect(), &[k, n]);
        let mut at = Tensor::zeros(&[m, k]);
        for i in 0..k {
            for j in 0..m {
                at.data_mut()[j * k + i] = a.data()[i * m + j];
            }
        }
        let direct = ops::matmul_at_b(&a, &b, &profile);
        let via_transpose = ops::matmul(&at, &b, &profile);
        prop_assert!(direct.bitwise_eq(&via_transpose));
    }

    /// Softmax rows always sum to 1 and stay in (0, 1].
    #[test]
    fn softmax_rows_are_distributions(
        rows in 1usize..5, cols in 1usize..12,
        seed in any::<u32>(),
        profile in profile_strategy(),
    ) {
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| (((i as u32).wrapping_mul(40503).wrapping_add(seed)) % 2000) as f32 * 0.01 - 10.0)
            .collect();
        let t = Tensor::from_vec(data, &[rows, cols]);
        let s = ops::softmax_rows(&t, &profile);
        for r in 0..rows {
            let row = &s.data()[r * cols..(r + 1) * cols];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row {r} sums to {sum}");
            prop_assert!(row.iter().all(|&p| p > 0.0 && p <= 1.0 + 1e-6));
        }
    }

    /// im2col → col2im multiplies each pixel by its receptive-field
    /// multiplicity; with a 1×1 kernel and stride 1 it is exactly identity.
    #[test]
    fn im2col_identity_kernel(c in 1usize..4, h in 1usize..6, w in 1usize..6) {
        let x = Tensor::from_vec((0..c * h * w).map(|i| i as f32 * 0.1).collect(), &[c, h, w]);
        let geom = ops::ConvGeom { kernel: 1, stride: 1, pad: 0 };
        let back = ops::col2im_scalar(&ops::im2col_scalar(&x, geom), c, h, w, geom);
        prop_assert!(back.bitwise_eq(&x));
    }

    /// axpy then inverse axpy round-trips within f32 tolerance.
    #[test]
    fn axpy_roundtrip(data in data_strategy(200), alpha in -2.0f32..2.0) {
        let x = Tensor::from_slice(&data);
        let y = Tensor::from_vec(data.iter().map(|v| v * 0.5 + 1.0).collect(), x.shape());
        let mut z = x.clone();
        z.axpy_(alpha, &y);
        z.axpy_(-alpha, &y);
        prop_assert!(z.max_abs_diff(&x) <= 1e-3 * (1.0 + alpha.abs()) * 200.0);
    }
}
