//! Synthetic datasets standing in for CIFAR10 / ImageNet / SQuAD /
//! MovieLens (per the substitution table in DESIGN.md).
//!
//! Samples are *pure functions* of `(dataset seed, index)` — generated on
//! demand from a Philox stream, never stored. This keeps multi-GB "datasets"
//! free while exercising exactly the code paths real data would: indexing,
//! sharding, shuffling, augmentation, label handling.

use esrng::{EsRng, StreamKey, StreamKind};
use tensor::Tensor;

/// A labelled dataset with deterministic random access.
pub trait Dataset: Send + Sync {
    /// Number of samples.
    fn len(&self) -> usize;
    /// True if empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Shape of one sample's features.
    fn feature_shape(&self) -> Vec<usize>;
    /// Number of label classes.
    fn num_classes(&self) -> u32;
    /// Write the features of sample `idx` over `out` (one
    /// [`Dataset::feature_shape`] worth of elements) and return its label.
    /// Must be pure: same `idx`, same bits, forever.
    fn sample_into(&self, idx: u32, out: &mut [f32]) -> u32;
    /// Fetch sample `idx` (features, label) as a tensor of its own.
    fn sample(&self, idx: u32) -> (Tensor, u32) {
        let mut x = Tensor::uninit(&self.feature_shape());
        let label = self.sample_into(idx, x.data_mut());
        (x, label)
    }
}

/// Standard deviation of the per-pixel noise added to a class prototype.
const NOISE_SIGMA: f32 = 0.6;

/// CIFAR-like synthetic image classification: `num_classes` Gaussian
/// clusters in pixel space. Each class has a fixed prototype image; a sample
/// is its class prototype plus per-sample noise. Linearly separable enough
/// for small models to show real learning curves (Figs 2–4 need accuracy to
/// *move*), noisy enough that per-class accuracy varies.
#[derive(Debug, Clone)]
pub struct SyntheticImageDataset {
    seed: u64,
    len: usize,
    channels: usize,
    height: usize,
    width: usize,
    classes: u32,
    prototypes: Vec<Vec<f32>>,
    /// Index offset: sample `i` is generated as underlying sample
    /// `i + offset`, letting train/eval splits share prototypes (same task)
    /// while drawing disjoint samples.
    offset: u32,
}

impl SyntheticImageDataset {
    /// Build a dataset. `seed` fixes the prototypes and every sample.
    pub fn new(
        seed: u64,
        len: usize,
        channels: usize,
        height: usize,
        width: usize,
        classes: u32,
    ) -> Self {
        let dim = channels * height * width;
        let prototypes = (0..classes)
            .map(|c| {
                let mut rng =
                    EsRng::for_stream(seed, StreamKey::indexed(StreamKind::User, 0, c as u64));
                (0..dim).map(|_| rng.normal_f32()).collect()
            })
            .collect();
        SyntheticImageDataset { seed, len, channels, height, width, classes, prototypes, offset: 0 }
    }

    /// The standard CIFAR10-like configuration used across the experiments:
    /// 3×8×8 images, 10 classes.
    pub fn cifar_like(seed: u64, len: usize) -> Self {
        Self::new(seed, len, 3, 8, 8, 10)
    }

    /// Shift the underlying sample indices by `offset` — the held-out split
    /// of the same task (same prototypes, disjoint samples).
    pub fn with_offset(mut self, offset: u32) -> Self {
        self.offset = offset;
        self
    }

    /// The standard held-out evaluation split: same task as the training
    /// set of `train_len` samples, `len` fresh samples beyond it.
    pub fn eval_split(seed: u64, train_len: usize, len: usize) -> Self {
        Self::cifar_like(seed, len).with_offset(train_len as u32)
    }
}

impl Dataset for SyntheticImageDataset {
    fn len(&self) -> usize {
        self.len
    }

    fn feature_shape(&self) -> Vec<usize> {
        vec![self.channels, self.height, self.width]
    }

    fn num_classes(&self) -> u32 {
        self.classes
    }

    fn sample_into(&self, idx: u32, out: &mut [f32]) -> u32 {
        assert!((idx as usize) < self.len, "sample index {idx} out of range {}", self.len);
        let mut rng = EsRng::for_stream(
            self.seed,
            StreamKey::indexed(StreamKind::User, 1, (idx + self.offset) as u64),
        );
        let label = rng.next_below(self.classes);
        let proto = &self.prototypes[label as usize];
        assert_eq!(out.len(), proto.len(), "sample_into: one image's worth of elements");
        for (o, &p) in out.iter_mut().zip(proto) {
            *o = p + NOISE_SIGMA * rng.normal_f32();
        }
        label
    }
}

/// SQuAD/MovieLens-like synthetic sequence data: token-id sequences with a
/// class label correlated with the token distribution. Consumed by the
/// attention/embedding workload proxies (Bert, Electra, NeuMF, SwinTr).
#[derive(Debug, Clone)]
pub struct SyntheticSequenceDataset {
    seed: u64,
    len: usize,
    seq_len: usize,
    vocab: u32,
    classes: u32,
    offset: u32,
}

impl SyntheticSequenceDataset {
    /// Build a dataset of `len` sequences of `seq_len` tokens over `vocab`.
    pub fn new(seed: u64, len: usize, seq_len: usize, vocab: u32, classes: u32) -> Self {
        SyntheticSequenceDataset { seed, len, seq_len, vocab, classes, offset: 0 }
    }

    /// Shift the underlying sample indices (held-out split of the same task).
    pub fn with_offset(mut self, offset: u32) -> Self {
        self.offset = offset;
        self
    }
}

impl Dataset for SyntheticSequenceDataset {
    fn len(&self) -> usize {
        self.len
    }

    fn feature_shape(&self) -> Vec<usize> {
        vec![self.seq_len]
    }

    fn num_classes(&self) -> u32 {
        self.classes
    }

    /// Token ids, encoded as f32 for transport; models embed them.
    fn sample_into(&self, idx: u32, out: &mut [f32]) -> u32 {
        assert_eq!(out.len(), self.seq_len, "sample_into: one sequence's worth of elements");
        let mut rng = EsRng::for_stream(
            self.seed,
            StreamKey::indexed(StreamKind::User, 2, (idx + self.offset) as u64),
        );
        let label = rng.next_below(self.classes);
        // Bias token draws by label so the task is learnable: class c prefers
        // the vocabulary band starting at c * vocab / classes.
        let band = self.vocab / self.classes;
        for token in out {
            *token = if rng.bernoulli(0.65) {
                label * band + rng.next_below(band.max(1))
            } else {
                rng.next_below(self.vocab)
            } as f32;
        }
        label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_pure_functions_of_index() {
        let d = SyntheticImageDataset::cifar_like(7, 100);
        let (a, la) = d.sample(42);
        let (b, lb) = d.sample(42);
        assert!(a.bitwise_eq(&b));
        assert_eq!(la, lb);
    }

    #[test]
    fn different_indices_differ() {
        let d = SyntheticImageDataset::cifar_like(7, 100);
        let (a, _) = d.sample(1);
        let (b, _) = d.sample(2);
        assert!(!a.bitwise_eq(&b));
    }

    #[test]
    fn labels_cover_all_classes() {
        let d = SyntheticImageDataset::cifar_like(7, 2000);
        let mut seen = [false; 10];
        for i in 0..2000 {
            seen[d.sample(i).1 as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn same_class_samples_cluster() {
        let d = SyntheticImageDataset::cifar_like(7, 5000);
        // Find two samples of class 0 and one of another class; within-class
        // distance must beat across-class distance on average.
        let mut class0 = Vec::new();
        let mut class1 = Vec::new();
        for i in 0..5000 {
            let (x, l) = d.sample(i);
            if l == 0 && class0.len() < 20 {
                class0.push(x);
            } else if l == 1 && class1.len() < 20 {
                class1.push(x);
            }
            if class0.len() >= 20 && class1.len() >= 20 {
                break;
            }
        }
        let dist = |a: &Tensor, b: &Tensor| -> f32 {
            a.data().iter().zip(b.data()).map(|(x, y)| (x - y).powi(2)).sum()
        };
        let within: f32 = class0.windows(2).map(|w| dist(&w[0], &w[1])).sum::<f32>() / 19.0;
        let across: f32 = class0.iter().zip(&class1).map(|(a, b)| dist(a, b)).sum::<f32>() / 20.0;
        assert!(across > within * 1.2, "across {across} should exceed within {within}");
    }

    #[test]
    fn sequence_dataset_tokens_in_vocab() {
        let d = SyntheticSequenceDataset::new(3, 100, 16, 1000, 10);
        for i in 0..100 {
            let (tokens, label) = d.sample(i);
            assert_eq!(tokens.len(), 16);
            assert!(tokens.data().iter().all(|&t| t < 1000.0 && t.fract() == 0.0));
            assert!(label < 10);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        SyntheticImageDataset::cifar_like(7, 10).sample(10);
    }
}
