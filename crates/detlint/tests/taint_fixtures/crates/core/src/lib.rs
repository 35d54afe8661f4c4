//! Taint fixture: `train_loop` calls two sinks (`core::save` and,
//! cross-crate, `optim::Sgd::step`, which is tainted) — the tainted-caller
//! (case 2) flow shape; an RNG draw that is no source (no RNG crate builds
//! here, clippy bans the seeded hashers); a clock read absorbed by `obs`.

fn jitter() -> u64 {
    rand::random() // no flow: ad-hoc randomness is not a taint source
}

pub fn train_loop(opt: &mut Sgd, lr: f64) -> u64 {
    let j = jitter();
    opt.step(lr);
    save(j)
}

pub fn save(x: u64) -> u64 {
    x
}

pub fn observe() -> u64 {
    obs::stopwatch() // no flow: obs is a barrier crate
}

pub struct Packed<T>(pub T);

impl<T> Packed<T> {
    pub fn wrap(x: T) -> Self {
        Packed(x)
    }
}

pub fn turbofish() -> Packed<u64> {
    Packed::<u64>::wrap(3) // lexes to the one segment `wrap`: an unqualified call
}
