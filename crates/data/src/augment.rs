//! RNG-bearing data augmentation.
//!
//! Augmentation is the reason data-worker *state* matters at all: every
//! random flip/crop consumes generator draws, so reproducing a batch after
//! an elastic restart requires restoring the exact generator position the
//! batch was (or would have been) prepared with. The paper tracks those
//! positions (Ri-j) in the queuing buffer; [`crate::loader`] does the same
//! with [`esrng::RngState`]s.

use esrng::EsRng;
use tensor::Tensor;

/// Augmentation configuration (CIFAR-style flip + shift + brightness noise).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AugmentConfig {
    /// Probability of horizontal flip.
    pub flip_prob: f32,
    /// Maximum |shift| in pixels for the random translation ("random crop
    /// with padding" equivalent).
    pub max_shift: usize,
    /// Stddev of additive brightness noise (0 disables the draw).
    pub brightness_sigma: f32,
}

impl Default for AugmentConfig {
    fn default() -> Self {
        AugmentConfig { flip_prob: 0.5, max_shift: 1, brightness_sigma: 0.05 }
    }
}

/// Applies augmentations, consuming draws from a caller-provided generator.
#[derive(Debug, Clone)]
pub struct Augmenter {
    config: AugmentConfig,
}

impl Augmenter {
    /// Build an augmenter.
    pub fn new(config: AugmentConfig) -> Self {
        Augmenter { config }
    }

    /// The configuration.
    pub fn config(&self) -> &AugmentConfig {
        &self.config
    }

    /// Augment one `[c,h,w]` image into a fresh tensor.
    pub fn apply(&self, img: &Tensor, rng: &mut EsRng) -> Tensor {
        let mut out = Tensor::uninit(img.shape());
        self.apply_into(img.data(), img.shape(), rng, out.data_mut());
        out
    }

    /// Augment the `[c,h,w]` image `id` over `od`. The number of RNG draws
    /// consumed is *constant* per call (draws happen even when the flip
    /// doesn't trigger), so generator positions advance identically on
    /// every path — a property the restore logic relies on.
    pub fn apply_into(&self, id: &[f32], shape: &[usize], rng: &mut EsRng, od: &mut [f32]) {
        let &[c, h, w] = shape else { panic!("augmenter expects [c,h,w], got {shape:?}") };
        assert!(id.len() == c * h * w && od.len() == id.len(), "apply_into shapes");
        let flip = rng.bernoulli(self.config.flip_prob);
        let span = 2 * self.config.max_shift as u32 + 1;
        let dy = rng.next_below(span) as isize - self.config.max_shift as isize;
        let dx = rng.next_below(span) as isize - self.config.max_shift as isize;
        let bright = if self.config.brightness_sigma > 0.0 {
            rng.normal_f32() * self.config.brightness_sigma
        } else {
            0.0
        };

        for ch in 0..c {
            for y in 0..h {
                let sy = y as isize + dy;
                for x in 0..w {
                    let xx = if flip { w - 1 - x } else { x };
                    let sx = xx as isize + dx;
                    let v = if sy >= 0 && (sy as usize) < h && sx >= 0 && (sx as usize) < w {
                        id[(ch * h + sy as usize) * w + sx as usize]
                    } else {
                        0.0
                    };
                    od[(ch * h + y) * w + x] = v + bright;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esrng::{StreamKey, StreamKind};

    fn img() -> Tensor {
        Tensor::from_vec((0..48).map(|i| i as f32).collect(), &[3, 4, 4])
    }

    fn rng_at(pos: u64) -> EsRng {
        let mut r = EsRng::for_stream(11, StreamKey::ranked(StreamKind::Augmentation, 0));
        r.skip(pos);
        r
    }

    #[test]
    fn same_rng_state_same_output() {
        let a = Augmenter::new(AugmentConfig::default());
        let out1 = a.apply(&img(), &mut rng_at(0));
        let out2 = a.apply(&img(), &mut rng_at(0));
        assert!(out1.bitwise_eq(&out2));
    }

    #[test]
    fn different_rng_state_usually_differs() {
        let a = Augmenter::new(AugmentConfig::default());
        let outs: Vec<Tensor> = (0..8).map(|i| a.apply(&img(), &mut rng_at(i * 10))).collect();
        let distinct = outs.iter().filter(|o| !o.bitwise_eq(&outs[0])).count();
        assert!(distinct > 0, "augmentation should vary with generator position");
    }

    #[test]
    fn draw_count_is_constant() {
        // Whatever the random outcomes, the generator advances by the same
        // number of draws — verified by checking the state after two apply()
        // calls from different positions advanced equally.
        let a = Augmenter::new(AugmentConfig::default());
        let mut r1 = rng_at(0);
        let mut r2 = rng_at(1000);
        // Record deltas via a paired reference rng.
        let s1_before = r1.state();
        a.apply(&img(), &mut r1);
        let s1_after = r1.state();
        let s2_before = r2.state();
        a.apply(&img(), &mut r2);
        let s2_after = r2.state();
        let delta = |b: esrng::RngState, a: esrng::RngState| {
            (a.counter_lo - b.counter_lo) * 4 + (a.lane as u64) - (b.lane as u64)
        };
        // Note: next_below may consume a variable number of draws under
        // rejection; with span=3 rejection is astronomically rare, and the
        // flip/brightness draws are unconditional.
        assert_eq!(delta(s1_before, s1_after), delta(s2_before, s2_after));
    }

    #[test]
    fn no_augment_config_is_identity_without_shift() {
        let cfg = AugmentConfig { flip_prob: 0.0, max_shift: 0, brightness_sigma: 0.0 };
        let a = Augmenter::new(cfg);
        let out = a.apply(&img(), &mut rng_at(0));
        assert!(out.bitwise_eq(&img()));
    }

    #[test]
    fn flip_reverses_rows() {
        let cfg = AugmentConfig { flip_prob: 1.0, max_shift: 0, brightness_sigma: 0.0 };
        let a = Augmenter::new(cfg);
        let out = a.apply(&img(), &mut rng_at(0));
        // First row of channel 0 was [0,1,2,3]; flipped is [3,2,1,0].
        assert_eq!(&out.data()[0..4], &[3.0, 2.0, 1.0, 0.0]);
    }
}
