//! Cross-commit oracle for `Conv2d` alone: the bits of everything the layer
//! hands out, pinned per (kernel, stride, pad) and profile as one FNV-1a-64
//! digest.
//!
//! `tests/kernel_golden.rs` pins trained parameters of whole proxies, which
//! reach two geometries (3×3 pad 1, strides 1 and 2, square 8×8 and 4×4
//! inputs) under three tree shapes. This file walks the rest of what the
//! layer accepts: kernels 1/2/3/5 × strides 1/2/3 × pads 0/1/2, ragged
//! `h ≠ w` inputs down to ones barely larger than the kernel, `cin` and
//! `cout` each through 1, 3, 8 and 16, under the V100, P100 and T4 vendor
//! profiles and the hardware-agnostic one. A digest covers, for every shape
//! that fits the geometry: the outputs and input gradients of two
//! forward/backward rounds over different batches of two samples, the `gw`
//! and `gb` the two rounds accumulated (sample order and batch order are
//! part of the tree), and the `gw`/`gb` a second layer accumulated through
//! `backward_params` on the same inputs.
//!
//! On a mismatch the test prints the whole table it computed, ready to
//! paste — but a changed digest is a behaviour change and has to be
//! explained, not pasted.

use esrng::{EsRng, StreamKey, StreamKind};
use models::conv::Conv2d;
use models::model::{ExecCtx, Layer};
use tensor::{KernelProfile, Tensor};

/// `(cin, cout, h, w)`: every channel count on both sides, square and ragged
/// planes, the proxies' 8×8 and 4×4, and a 2×3 only padding makes room for.
const SHAPES: &[(usize, usize, usize, usize)] = &[
    (1, 3, 9, 6),
    (3, 8, 8, 8),
    (8, 16, 5, 7),
    (16, 1, 6, 5),
    (8, 8, 8, 8),
    (16, 16, 4, 4),
    (3, 1, 2, 3),
];

/// Mixed magnitudes over seven decades, both signs and exact zeros:
/// regrouping additions over such data moves the bits.
fn rough(count: usize, salt: u32) -> Vec<f32> {
    (0..count)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt.wrapping_mul(40503));
            let mag = (h % 1999) as f32 * 0.01 * 10f32.powi((h % 7) as i32 - 3);
            match h % 11 {
                0 => 0.0,
                1..=5 => -mag,
                _ => mag,
            }
        })
        .collect()
}

fn fnv(h: &mut u64, words: &[f32]) {
    for b in words.iter().flat_map(|x| x.to_bits().to_le_bytes()) {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(kernel: usize, stride: usize, pad: usize, profile: KernelProfile) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let fits = |&&(_, _, ih, iw): &&(usize, usize, usize, usize)| {
        ih + 2 * pad >= kernel && iw + 2 * pad >= kernel
    };
    for (n, &(cin, cout, ih, iw)) in SHAPES.iter().filter(fits).enumerate() {
        let layer = || {
            let mut init = EsRng::for_stream(7, StreamKey::global(StreamKind::ModelInit));
            let mut conv = Conv2d::init(cin, cout, kernel, stride, pad, &mut init);
            let bias = rough(cout, 99);
            conv.params_mut()[1].data_mut().copy_from_slice(&bias);
            conv
        };
        let (mut full, mut params_only) = (layer(), layer());
        let mut drng = EsRng::for_stream(0, StreamKey::ranked(StreamKind::Dropout, 0));
        let mut ctx = ExecCtx { profile, training: true, dropout: &mut drng };
        for round in 0..2u32 {
            let salt = n as u32 * 16 + round * 4;
            let x = Tensor::from_vec(rough(2 * cin * ih * iw, salt), &[2, cin, ih, iw]);
            let y = full.forward(&x, &mut ctx);
            let g = Tensor::from_vec(rough(y.len(), salt + 1), y.shape());
            let dx = full.backward(&g, &mut ctx);
            assert_eq!(dx.shape(), x.shape());
            fnv(&mut h, y.data());
            fnv(&mut h, dx.data());
            let y2 = params_only.forward(&x, &mut ctx);
            assert!(y2.bitwise_eq(&y), "two layers, one input");
            params_only.backward_params(&g, &mut ctx);
        }
        for conv in [&full, &params_only] {
            fnv(&mut h, conv.grads()[0].data());
            fnv(&mut h, conv.grads()[1].data());
        }
    }
    h
}

/// Taken on the parent of the direct convolution (d12e105): V100, P100, T4,
/// hardware-agnostic.
#[rustfmt::skip]
const GOLDEN: &[(&str, [u64; 4])] = &[
    ("k1 s1 p0", [0x79e3569f61a1b79b, 0x9011ce12e956f3b1, 0x191744490e7f96dd, 0x69d25a951bcdaabf]),
    ("k1 s1 p1", [0x5d65f1967d9e152b, 0x4159a483e8a425b7, 0xf873b45a2eeb78f3, 0xa69a6fc666fe649b]),
    ("k1 s1 p2", [0xb43fb9d0c1650f7d, 0x0e2ad91260fe7bd9, 0xf5e4f1266b68afd5, 0x0baf53407cb6e119]),
    ("k1 s2 p0", [0x51da3b2addb87b7e, 0xf012e7fc371d2b58, 0xf012e7fc371d2b58, 0x51da3b2addb87b7e]),
    ("k1 s2 p1", [0xc7d1602630a31879, 0xcbb1f37d22a1be33, 0x368fd098fc7935d3, 0xc7d1602630a31879]),
    ("k1 s2 p2", [0x3fbc5f60792783d3, 0x7aa8532d735eb1b0, 0xfdce123ce17da6f0, 0x1a187cfd4b09517f]),
    ("k1 s3 p0", [0x7c36c56507c5d8ee, 0xddd124b2de8d400b, 0xddd124b2de8d400b, 0x7c36c56507c5d8ee]),
    ("k1 s3 p1", [0x4a10c5ded32d2c2b, 0xba5e2f94c7a03042, 0xba5e2f94c7a03042, 0x4a10c5ded32d2c2b]),
    ("k1 s3 p2", [0x3e04f98f7cb71cc2, 0xa45db9ec8e39ef13, 0xa45db9ec8e39ef13, 0x3e04f98f7cb71cc2]),
    ("k2 s1 p0", [0x7f5e47838bf90d73, 0x48a073b0e5ff5331, 0x88305b81c0d8afe2, 0x6f4c3ec56a7aad18]),
    ("k2 s1 p1", [0xaabaf68fb713ffed, 0xdb1793974b2550cb, 0xee8d34a97993d310, 0x5b1b8d8947c5ee99]),
    ("k2 s1 p2", [0x84315ef5077bb071, 0xd6e65e1ba2351f34, 0xaa895cd1a178c3bf, 0xb2a70051fd092d25]),
    ("k2 s2 p0", [0xa1f57f0142dacfbf, 0xf0b76dfc95ac097a, 0xaf6547b15ea4a8fd, 0x8f4a3f2623b753f2]),
    ("k2 s2 p1", [0xa8b080dac3169966, 0x46f5bbc294c52871, 0xa6491ad3136f2ad3, 0x357ed92cc9a12174]),
    ("k2 s2 p2", [0x369481e42e9276aa, 0x43cc7e5972fbc11e, 0x29f397df3b75b86d, 0x18839f8efead8703]),
    ("k2 s3 p0", [0xb636482625f56ea8, 0x55918e67a26c48d5, 0xe90d29686f817691, 0xe2082f4b45f9d5af]),
    ("k2 s3 p1", [0xc7317094a0d3869e, 0xe24ebaa2d34dd07b, 0x02920bf39a4b8807, 0xb84162454618a650]),
    ("k2 s3 p2", [0x91ec40f7c7915290, 0xd164a7e8b822179c, 0x8521c7a0ba1593b1, 0x9daf105972f1aba2]),
    ("k3 s1 p0", [0x1407178d9911613a, 0xff23ae55a2202b58, 0x3654eb390ceeb65f, 0xe1ee052f863df3d7]),
    ("k3 s1 p1", [0xf5817974ddb59ad2, 0xa51b052055e905a9, 0x8350834502a4adac, 0x6b7aeab822156900]),
    ("k3 s1 p2", [0xebc14c88340fe214, 0xf6e60073212f45af, 0x58ec99d9f7cc6e58, 0x79fec5cdb1fbf19a]),
    ("k3 s2 p0", [0xd1871d73651a140d, 0x110f934a235633d7, 0x8e5ded1c4e46d01c, 0xd1a7bd2dcaba11e4]),
    ("k3 s2 p1", [0x1b85f114d134d965, 0x03cf010f1bf6a697, 0x43b2bb45b45eb877, 0xb601d956c1488639]),
    ("k3 s2 p2", [0x90de9aaf082d97db, 0x7a3a5aab13eaf65f, 0x29decb6f4a78acd3, 0x5ae99f3c4f64a154]),
    ("k3 s3 p0", [0xefb6a7a26ac75c2d, 0x090e33fda18b6dc2, 0xf4bbf46bbddfc172, 0xf8d25c4045082165]),
    ("k3 s3 p1", [0x08fa3a7bd988d196, 0x711043cb2e357c89, 0xdf6df2381934ef7d, 0x7d51703e68b9130a]),
    ("k3 s3 p2", [0x423621516b18f601, 0xa0475f5320c78629, 0x6a21ae73fe1cf0ec, 0x363c79f8320a81ed]),
    ("k5 s1 p0", [0xe8d85f13f91d60fe, 0x355b21a4a8e5b219, 0xc78d4eeb317e2aab, 0x8d7b543cedfb9789]),
    ("k5 s1 p1", [0x265a07bb4132cbf4, 0x3ae522d7a2ab1292, 0xbae2040ffe32ca0c, 0xbbef760fd89b10d0]),
    ("k5 s1 p2", [0x2ef07a7d8efee402, 0x92b211f624533cef, 0xa616709363b900b5, 0x8a64c7dc7cf7b9b7]),
    ("k5 s2 p0", [0x6e19bfa6dee925c9, 0xdc037791a9eed03d, 0x556f4271e68b8d0b, 0xd9ca99e2073fdf93]),
    ("k5 s2 p1", [0xe3ceb4f808cb76b4, 0xe0ec85bea08e6095, 0x0acd407e00596c76, 0xbd48f397dd7679da]),
    ("k5 s2 p2", [0x4260f27f8fb1fcf9, 0xd7d7540f1961f7af, 0xf7cde8697310363a, 0x876249ed55aebff3]),
    ("k5 s3 p0", [0x1289b578876f2a99, 0xd264703c64f78d09, 0xcbdd4f829387b715, 0x8780a0545c2a0db6]),
    ("k5 s3 p1", [0x5a7846e41cfe7e74, 0xc5d63e43ef11d7d7, 0xd67e85626f776693, 0xb93ae9ea644cc419]),
    ("k5 s3 p2", [0x1115ca75c71e5d44, 0xc42fc56434fa8e00, 0xfee5c46af264e335, 0x53cb423182eab46a]),
];

#[test]
fn conv2d_bits_are_pinned_for_every_geometry_and_profile() {
    let profiles = [
        KernelProfile::vendor_optimized(80),
        KernelProfile::vendor_optimized(56),
        KernelProfile::vendor_optimized(40),
        KernelProfile::hardware_agnostic(),
    ];
    let mut actual: Vec<(String, [u64; 4])> = Vec::new();
    for kernel in [1, 2, 3, 5] {
        for stride in [1, 2, 3] {
            for pad in [0, 1, 2] {
                let row = profiles.map(|p| digest(kernel, stride, pad, p));
                actual.push((format!("k{kernel} s{stride} p{pad}"), row));
            }
        }
    }
    let same = GOLDEN.len() == actual.len()
        && GOLDEN.iter().zip(&actual).all(|(e, a)| e.0 == a.0 && e.1 == a.1);
    if !same {
        let rows: String = actual
            .iter()
            .map(|(name, d)| {
                let d = d.map(|x| format!("0x{x:016x}")).join(", ");
                format!("    (\"{name}\", [{d}]),\n")
            })
            .collect();
        panic!("conv_golden: digests moved. Computed:\n{rows}");
    }
}
