//! Taint fixture: an ad-hoc RNG source whose tainted caller invokes two
//! sinks (`core::save` and, cross-crate, `optim::Sgd::step`) — the
//! tainted-caller (case 2) flow shape — plus a clock read absorbed by the
//! `obs` barrier crate. Never compiled.

fn jitter() -> u64 {
    rand::random() // FLOW: adhoc-rng source
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
