//! Host calibration: frozen kernels, timed beside every measured block, that
//! turn wall time into time on a reference host.
//!
//! The sandbox this benchmark was written on has two speeds and flips
//! between them every few seconds: the same single-threaded simulation
//! takes 100 ms or 146 ms, a 20 s run can sit almost wholly in either, and
//! now and then the whole host slows to half speed for minutes. Raw block
//! times of ten runs then spread by 15-40 %, wider than any bound worth
//! gating on. The slow state costs code that keeps the core's issue ports
//! busy (x1.3 to x1.45) and leaves a dependent chain or a pointer chase
//! alone (x1.0 to x1.1), so a kernel that does the *same kind of work* as
//! the block it sits beside slows down with it, and
//! `block * reference / kernel` stays put (README, "The statistic").
//!
//! The kernels live here, in the benchmark's own source, and call nothing of
//! the program under test: a change to the program cannot move them, so the
//! ratio between two commits' calibrated numbers is the ratio of their raw
//! ones. DO NOT EDIT a kernel or a reference time: every recorded number
//! depends on them.

use crate::stats::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// What a measured region mostly does, which picks the kernel beside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Dense f32 arithmetic on one thread (an inline engine, one pool worker).
    Dense1,
    /// The same on two pinned threads at once (two pool workers).
    Dense2,
    /// String keys, ordered maps, allocation and branchy integer work on one
    /// thread: scheduling, building, serialising.
    Ordered,
}

impl Kind {
    /// The kernel's time on the reference host, milliseconds: the
    /// development host in its fast state, rounded.
    pub const fn reference_ms(self) -> f64 {
        match self {
            Kind::Dense1 => 4.9,
            Kind::Dense2 => 5.8,
            Kind::Ordered => 2.4,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Dense1 => "dense1",
            Kind::Dense2 => "dense2",
            Kind::Ordered => "ordered",
        }
    }
}

const N: usize = 96;
const MATMULS: usize = 20;

/// Buffers of the dense kernel: `c += a * a`, twenty times over 96 x 96.
struct Dense {
    a: Vec<f32>,
    c: Vec<f32>,
}

impl Dense {
    fn new() -> Self {
        Dense { a: (0..N * N).map(|i| (i as f32).cos()).collect(), c: vec![0.0; N * N] }
    }

    fn run(&mut self) -> f32 {
        self.c.fill(0.0);
        for _ in 0..MATMULS {
            for i in 0..N {
                for k in 0..N {
                    let aik = self.a[i * N + k];
                    for j in 0..N {
                        self.c[i * N + j] += aik * self.a[k * N + j];
                    }
                }
            }
        }
        self.c[N]
    }
}

/// The ordered kernel: what scheduling, building and serialising code does.
/// Format keys, count them in an ordered map of strings, walk the map; then
/// four independent integer chains with a data-dependent branch. On the
/// development host its time moves with the simulator's between the host's
/// two speeds (x1.40 against x1.45), where sorting, pointer chasing or a
/// single dependent chain move by x1.25, x1.1 and x1.0.
fn ordered_kernel() -> u64 {
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for i in 0..10_000u64 {
        *counts.entry(format!("job-{}", (i * 7919) % 997)).or_default() += i;
    }
    let mut acc: u64 = counts.iter().map(|(k, v)| k.len() as u64 + v).sum();
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, acc);
    for i in 0..300_000u64 {
        a = a.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        b ^= b << 13;
        b ^= b >> 7;
        c = c.rotate_left(5).wrapping_add(a & 0xff);
        d = d.wrapping_add(u64::from(b.count_ones()));
        if (a ^ b) & 1 == 0 {
            c ^= d;
        }
    }
    acc ^= a ^ b ^ c ^ d;
    acc
}

fn ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// The state a kind's kernel keeps between samples.
enum Kernel {
    Dense1(Dense),
    Dense2(Dense, Dense),
    Ordered,
}

impl Kernel {
    fn new(kind: Kind) -> Self {
        match kind {
            Kind::Dense1 => Kernel::Dense1(Dense::new()),
            Kind::Dense2 => Kernel::Dense2(Dense::new(), Dense::new()),
            Kind::Ordered => Kernel::Ordered,
        }
    }

    fn once_ms(&mut self) -> f64 {
        match self {
            Kernel::Dense1(d) => ms(|| {
                black_box(d.run());
            }),
            Kernel::Ordered => ms(|| {
                black_box(ordered_kernel());
            }),
            Kernel::Dense2(a, b) => {
                let start = std::sync::Barrier::new(2);
                let pinned_run = |d: &mut Dense, cpu: usize| {
                    crate::pin::current_thread(cpu);
                    start.wait();
                    ms(|| {
                        black_box(d.run());
                    })
                };
                std::thread::scope(|s| {
                    let on_core_0 = s.spawn(|| pinned_run(a, 0));
                    let on_core_1 = s.spawn(|| pinned_run(b, 1));
                    let first = on_core_0.join().expect("calibration thread");
                    first.max(on_core_1.join().expect("calibration thread"))
                })
            }
        }
    }

    /// One sample: the faster of two runs, so that one preemption does not
    /// pass for a slow host.
    fn sample_ms(&mut self) -> f64 {
        self.once_ms().min(self.once_ms())
    }
}

/// Times regions and scales each by the kernel samples on either side of it.
pub struct Calibrator {
    kind: Kind,
    /// `None` in a traced run, whose spans must add up to the operation:
    /// then no kernel runs and a region's time is its wall time.
    kernel: Option<Kernel>,
    last_ms: f64,
    samples_ms: Vec<f64>,
}

/// One timed region: wall seconds, and seconds on the reference host.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub raw_s: f64,
    pub s: f64,
}

impl Timed {
    /// Milliseconds on the reference host.
    pub fn ms(&self) -> f64 {
        self.s * 1e3
    }
}

/// Reference-host seconds of each region.
pub fn secs(v: &[Timed]) -> Vec<f64> {
    v.iter().map(|t| t.s).collect()
}

/// Wall seconds of each region.
pub fn raw_secs(v: &[Timed]) -> Vec<f64> {
    v.iter().map(|t| t.raw_s).collect()
}

pub fn millis(secs: Vec<f64>) -> Vec<f64> {
    secs.into_iter().map(|s| s * 1e3).collect()
}

impl Calibrator {
    pub fn new(kind: Kind) -> Self {
        let mut kernel = Kernel::new(kind);
        // The first sample pays for cold caches and thread creation.
        kernel.sample_ms();
        let first = kernel.sample_ms();
        Calibrator { kind, kernel: Some(kernel), last_ms: first, samples_ms: vec![first] }
    }

    /// A calibrator that samples nothing and scales by one.
    pub fn off(kind: Kind) -> Self {
        let reference = kind.reference_ms();
        Calibrator { kind, kernel: None, last_ms: reference, samples_ms: vec![reference] }
    }

    /// Run `f` between two kernel samples; the sample after this region is
    /// the sample before the next.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timed) {
        let before = self.last_ms;
        let t = Instant::now();
        let r = f();
        let raw_s = t.elapsed().as_secs_f64();
        let Some(kernel) = self.kernel.as_mut() else {
            return (r, Timed { raw_s, s: raw_s });
        };
        let after = kernel.sample_ms();
        self.last_ms = after;
        self.samples_ms.push(after);
        let scale = self.kind.reference_ms() / ((before + after) / 2.0);
        (r, Timed { raw_s, s: raw_s * scale })
    }

    /// Take a fresh "before" sample: call after untimed work long enough
    /// for the host to have changed under us.
    pub fn refresh(&mut self) {
        if let Some(kernel) = self.kernel.as_mut() {
            self.last_ms = kernel.sample_ms();
            self.samples_ms.push(self.last_ms);
        }
    }

    /// Median kernel time this run saw, milliseconds: above the reference
    /// means the host was slower than the reference host.
    pub fn median_ms(&self) -> f64 {
        median(&self.samples_ms)
    }

    pub fn kind(&self) -> Kind {
        self.kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_deterministic_and_take_measurable_time() {
        assert_eq!(Dense::new().run().to_bits(), Dense::new().run().to_bits());
        assert_eq!(ordered_kernel(), ordered_kernel());
        for kind in [Kind::Dense1, Kind::Ordered] {
            assert!(Kernel::new(kind).sample_ms() > 0.05, "{}", kind.name());
        }
    }

    #[test]
    fn a_region_is_scaled_by_the_samples_around_it() {
        let mut c = Calibrator::new(Kind::Dense1);
        c.last_ms = 10.0;
        let ((), timed) = c.time(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        // before = 10 ms, after = a real sample; the scale is reference / mean.
        let expect = timed.raw_s * Kind::Dense1.reference_ms() / ((10.0 + c.last_ms) / 2.0);
        assert!((timed.s - expect).abs() < 1e-12);
        assert!(timed.raw_s >= 0.005);
        assert_eq!(c.samples_ms.len(), 2);
        let ((), plain) = Calibrator::off(Kind::Ordered).time(|| ());
        assert_eq!(plain.s, plain.raw_s);
    }
}
