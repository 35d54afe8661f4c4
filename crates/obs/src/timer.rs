//! Explicit wall-clock measurement for the *control plane*.
//!
//! [`span`](crate::span) is pure observation: it records into a histogram
//! and exposes nothing back to the caller. A [`Stopwatch`] is the opposite
//! contract — the caller *wants* the elapsed time (AIMaster throughput
//! windows, the Fig 11 context-switch measurements) and the value may feed
//! scheduling decisions. That is safe under EasyScale's consistency
//! argument precisely because scheduling decisions (which allocation, which
//! placement) cannot change training bits; only kernels and data order can.
//!
//! Keeping the only `Instant` reads of the workspace inside this crate lets
//! the `detlint` `no-wall-clock` rule enforce the boundary statically:
//! deterministic-path crates measure time through a `Stopwatch` or not at
//! all (see docs/DETLINT.md).

use std::time::{Duration, Instant};

/// A started wall-clock timer. Unlike [`SpanGuard`](crate::SpanGuard) it
/// always reads the clock — use it only where the elapsed value is itself
/// the product (throughput windows, overhead experiments), never on a path
/// whose *outputs* must be bitwise reproducible.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch { start: Instant::now() }
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time, also recorded (in microseconds) into the histogram
    /// `name` when the registry is enabled. Returns the duration either way,
    /// so instrumented measurement code reads one clock, not two.
    pub fn lap_observe(&self, name: &str) -> Duration {
        let elapsed = self.elapsed();
        crate::observe(name, elapsed.as_secs_f64() * 1e6);
        elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn elapsed_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
    }

    #[test]
    fn lap_observe_returns_duration_and_records_when_enabled() {
        let _g = crate::TEST_GUARD.lock();
        // Disabled: returns a duration, records nothing.
        crate::disable();
        crate::reset();
        let sw = Stopwatch::start();
        let d = sw.lap_observe("t.lap_us");
        assert!(d >= Duration::ZERO);
        assert!(crate::snapshot().is_empty());

        // Enabled: the histogram materializes.
        crate::enable(Box::new(MemorySink::shared()));
        crate::reset();
        let sw = Stopwatch::start();
        sw.lap_observe("t.lap_us");
        let snaps = crate::snapshot();
        crate::disable();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].name(), "t.lap_us");
    }
}
