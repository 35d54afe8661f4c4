//! Proxy-model constructors: a real trainable miniature network for each
//! workload family, sized for CPU-speed micro experiments.
//!
//! The proxies preserve what matters for determinism experiments: conv
//! models exercise conv + BatchNorm (implicit state, vendor-kernel
//! sensitivity), attention models exercise embedding + softmax + dropout
//! (RNG state), and MLPs exercise plain dense reductions.

use crate::attention::{Embedding, MeanPool, SelfAttention};
use crate::blocks::{Gelu, LayerNorm, Residual};
use crate::conv::Conv2d;
use crate::layers::{Dense, Dropout, Flatten, Relu};
use crate::model::{Model, ParamInit, Undrawn};
use crate::norm::BatchNorm;
use crate::pool::{GlobalAvgPool, MaxPool2};
use crate::workloads::Workload;
use esrng::{EsRng, StreamKey, StreamKind};

/// What input a proxy consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputKind {
    /// `[B, 3, 8, 8]` synthetic images, 10 classes.
    Image,
    /// `[B, 16]` token-id sequences over a 256-token vocabulary, 10 classes.
    Sequence,
}

/// Canonical image geometry of the proxies.
pub const IMAGE_SHAPE: [usize; 3] = [3, 8, 8];
/// Canonical sequence length.
pub const SEQ_LEN: usize = 16;
/// Canonical vocabulary size.
pub const VOCAB: usize = 256;
/// Class count of every proxy task.
pub const NUM_CLASSES: usize = 10;

/// Input kind each workload's proxy consumes.
pub fn input_kind(workload: Workload) -> InputKind {
    match workload {
        Workload::ShuffleNetV2
        | Workload::ResNet50
        | Workload::Vgg19
        | Workload::YoloV3
        | Workload::ResNet18 => InputKind::Image,
        Workload::NeuMF | Workload::Bert | Workload::Electra | Workload::SwinTransformer => {
            InputKind::Sequence
        }
    }
}

/// Build the proxy model for a workload, initialized from the global
/// `ModelInit` stream of `seed` — so every replica constructs bitwise-
/// identical initial parameters, exactly like seeding PyTorch before
/// `DistributedDataParallel` broadcasts.
pub fn build_proxy(workload: Workload, seed: u64) -> Model {
    build(workload, &mut EsRng::for_stream(seed, StreamKey::global(StreamKind::ModelInit)))
}

/// [`build_proxy`] for a replica about to be restored: every parameter tensor
/// undrawn (unspecified content) until [`Model::load_flat_params`] fills it.
pub fn build_proxy_undrawn(workload: Workload) -> Model {
    build(workload, &mut Undrawn)
}

fn build(workload: Workload, rng: &mut dyn ParamInit) -> Model {
    match workload {
        // Residual conv family (true skip connections + pooling).
        Workload::ResNet18 => resnet(rng, 8, 16),
        Workload::ResNet50 => resnet(rng, 12, 24),
        // Lightweight conv stack.
        Workload::ShuffleNetV2 => cnn(rng, 6, 12),
        // VGG: plain (no skips) deeper conv stack with max pooling.
        Workload::Vgg19 => vgg(rng, 16, 32),
        Workload::YoloV3 => cnn(rng, 12, 16),
        // Embedding + MLP for the recommender.
        Workload::NeuMF => mlp(rng),
        // Transformer block family (pre-LN residual attention).
        Workload::Bert | Workload::Electra | Workload::SwinTransformer => attention(rng),
    }
}

/// ResNet-style: stem conv → residual block → maxpool → conv → GAP → head,
/// for `[B,3,8,8]`.
fn resnet(rng: &mut dyn ParamInit, c1: usize, c2: usize) -> Model {
    Model::new(vec![
        Box::new(Conv2d::init(3, c1, 3, 1, 1, rng)),
        Box::new(BatchNorm::new(c1)),
        Box::new(Relu::new()),
        Box::new(Residual::new(vec![
            Box::new(Conv2d::init(c1, c1, 3, 1, 1, rng)),
            Box::new(BatchNorm::new(c1)),
            Box::new(Relu::new()),
        ])),
        Box::new(MaxPool2::new()),
        Box::new(Conv2d::init(c1, c2, 3, 1, 1, rng)),
        Box::new(BatchNorm::new(c2)),
        Box::new(Relu::new()),
        Box::new(GlobalAvgPool::new()),
        Box::new(Dense::init(c2, NUM_CLASSES, rng)),
    ])
}

/// Two conv-BN-ReLU blocks (second strided) + dense head, for `[B,3,8,8]`.
fn cnn(rng: &mut dyn ParamInit, c1: usize, c2: usize) -> Model {
    Model::new(vec![
        Box::new(Conv2d::init(3, c1, 3, 1, 1, rng)),
        Box::new(BatchNorm::new(c1)),
        Box::new(Relu::new()),
        Box::new(Conv2d::init(c1, c2, 3, 2, 1, rng)),
        Box::new(BatchNorm::new(c2)),
        Box::new(Relu::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::init(c2 * 4 * 4, NUM_CLASSES, rng)),
    ])
}

/// VGG-style plain stack: conv-conv-pool-conv + dense head, no skips.
fn vgg(rng: &mut dyn ParamInit, c1: usize, c2: usize) -> Model {
    Model::new(vec![
        Box::new(Conv2d::init(3, c1, 3, 1, 1, rng)),
        Box::new(BatchNorm::new(c1)),
        Box::new(Relu::new()),
        Box::new(Conv2d::init(c1, c1, 3, 1, 1, rng)),
        Box::new(BatchNorm::new(c1)),
        Box::new(Relu::new()),
        Box::new(MaxPool2::new()),
        Box::new(Conv2d::init(c1, c2, 3, 1, 1, rng)),
        Box::new(BatchNorm::new(c2)),
        Box::new(Relu::new()),
        Box::new(Flatten::new()),
        Box::new(Dense::init(c2 * 4 * 4, NUM_CLASSES, rng)),
    ])
}

/// NeuMF-style recommender: embedding lookup + mean-pool + 2-layer MLP with
/// dropout (neural collaborative filtering's embedding-then-MLP shape).
fn mlp(rng: &mut dyn ParamInit) -> Model {
    let dim = 16;
    Model::new(vec![
        Box::new(Embedding::init(VOCAB, dim, rng)),
        Box::new(MeanPool::new()),
        Box::new(Dense::init(dim, 64, rng)),
        Box::new(Relu::new()),
        Box::new(Dropout::new(0.2)),
        Box::new(Dense::init(64, NUM_CLASSES, rng)),
    ])
}

/// Transformer block: embedding → pre-LN residual attention → LayerNorm →
/// mean-pool → GELU MLP head with dropout, for `[B,16]` token sequences.
fn attention(rng: &mut dyn ParamInit) -> Model {
    let dim = 16;
    Model::new(vec![
        Box::new(Embedding::init(VOCAB, dim, rng)),
        Box::new(Residual::new(vec![
            Box::new(LayerNorm::new(dim)),
            Box::new(SelfAttention::init(dim, rng)),
        ])),
        Box::new(LayerNorm::new(dim)),
        Box::new(MeanPool::new()),
        Box::new(Dense::init(dim, 32, rng)),
        Box::new(Gelu::new()),
        Box::new(Dropout::new(0.1)),
        Box::new(Dense::init(32, NUM_CLASSES, rng)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ExecCtx;
    use tensor::{KernelProfile, Tensor};

    fn drng() -> EsRng {
        EsRng::for_stream(0, StreamKey::ranked(StreamKind::Dropout, 0))
    }

    #[test]
    fn proxies_build_and_run() {
        for w in crate::WORKLOADS {
            let mut m = build_proxy(w, 1);
            let x = match input_kind(w) {
                InputKind::Image => Tensor::zeros(&[2, 3, 8, 8]),
                InputKind::Sequence => Tensor::from_vec(vec![1.0; 2 * SEQ_LEN], &[2, SEQ_LEN]),
            };
            let mut rng = drng();
            let mut ctx =
                ExecCtx { profile: KernelProfile::default(), training: true, dropout: &mut rng };
            let y = m.forward(&x, &mut ctx);
            assert_eq!(y.shape(), &[2, NUM_CLASSES], "{}", w.name());
            let gx = m.backward(&Tensor::zeros(&[2, NUM_CLASSES]), &mut ctx);
            assert_eq!(gx.shape()[0], 2, "{}", w.name());
        }
    }

    #[test]
    fn same_seed_same_initialization() {
        let a = build_proxy(Workload::ResNet18, 7);
        let b = build_proxy(Workload::ResNet18, 7);
        assert_eq!(a.flat_params(), b.flat_params());
        let c = build_proxy(Workload::ResNet18, 8);
        assert_ne!(a.flat_params(), c.flat_params());
    }

    #[test]
    fn conv_scan_identifies_families() {
        assert!(build_proxy(Workload::ResNet50, 1).uses_conv());
        assert!(build_proxy(Workload::Vgg19, 1).uses_conv());
        assert!(!build_proxy(Workload::Bert, 1).uses_conv());
        assert!(!build_proxy(Workload::NeuMF, 1).uses_conv());
    }

    #[test]
    fn conv_proxies_have_batchnorm_implicit_state() {
        let m = build_proxy(Workload::ResNet18, 1);
        let state = m.implicit_state();
        let non_empty = state.per_layer.iter().filter(|s| !s.is_empty()).count();
        // Stem BN, residual-body BN (surfaced through the block), final BN.
        assert_eq!(non_empty, 3, "three BatchNorm layers carry running stats");
    }
}
