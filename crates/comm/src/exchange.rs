//! A generic gradient/result exchange with a **canonical drain order**.
//!
//! Benchmark-only until ROADMAP item 7a deletes it: `core::pool` reads one
//! reply channel per worker slot, in slot order, and calls nothing here but
//! the re-exported `mpsc` names below; the only non-test caller of
//! [`Exchange`] is the benchmark's exchange round-trip and deadline probes.
//!
//! Concurrent publishers must be consumed in an order that does not depend
//! on thread completion timing, or D1 (thread-order nondeterminism) leaks
//! straight into a merged result. The
//! [`Exchange`] is the channel-shaped sibling of
//! [`HeartbeatBus::drain_sorted`](crate::HeartbeatBus::drain_sorted): any
//! number of [`ExchangeTx`] handles publish `(key, payload)` pairs in
//! arbitrary order, and the drains — declared detlint taint barriers —
//! block for an exact message count, then sort by key, so two runs that
//! published the same *set* of messages drain identically.
//!
//! Two drain variants share that contract:
//!
//! - [`Exchange::drain_sorted`] blocks indefinitely — the blocking
//!   reference the deadline drain is tested byte-identical against, and the
//!   right call only when every publisher is known to deliver (tests).
//! - [`Exchange::drain_deadline`] blocks for at most the backoff budget of
//!   a [`RetryPolicy`](crate::RetryPolicy) and returns a typed
//!   [`DrainError`] naming the keys that *did* arrive. Messages received
//!   by a failed drain are buffered and handed to the next drain call, so
//!   a recovery retry never loses a survivor's result.
//!
//! The channel itself is `std::sync::mpsc`; its arrival order is exactly
//! the thread-order entropy the barrier exists to absorb, which is why the
//! raw receiver never escapes this module. The master sender survives
//! [`Exchange::seal`] (sealing is a protocol marker, not a channel close)
//! so a supervisor can mint [`Exchange::replacement_handle`]s for respawned
//! workers; dead publishers therefore surface as drain *deadline* errors,
//! not disconnects.

// The one audited channel import — arrival order never escapes: the drains
// below sort, and `core::pool` reads one single-message channel per slot in
// slot order.
// detlint::allow(no-thread-order): canonical-drain exchange, see module doc
pub use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};

use crate::retry::RetryPolicy;
use std::time::Duration;

/// Why a deadline drain came up short. Both variants carry the keys that
/// *did* arrive (sorted), so the caller can identify the silent publisher
/// by elimination. The undelivered messages stay buffered in the exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrainError {
    /// The backoff budget elapsed with messages still missing. The
    /// publisher may be dead or merely past its deadline — the caller owns
    /// that distinction (it can see the threads; this module cannot).
    Timeout {
        /// Keys received (and buffered) before the budget ran out, sorted.
        received: Vec<u64>,
    },
    /// Every sender disconnected with messages still missing. Only
    /// reachable when the exchange's master sender was dropped — a
    /// construction this module's supervisor users never make.
    Disconnected {
        /// Keys received (and buffered) before the disconnect, sorted.
        received: Vec<u64>,
    },
}

impl DrainError {
    /// The keys that did arrive before the drain failed, sorted.
    pub fn received(&self) -> &[u64] {
        match self {
            DrainError::Timeout { received } | DrainError::Disconnected { received } => received,
        }
    }
}

impl std::fmt::Display for DrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DrainError::Timeout { received } => {
                write!(f, "drain deadline elapsed; received keys {received:?}")
            }
            DrainError::Disconnected { received } => {
                write!(f, "all publishers disconnected; received keys {received:?}")
            }
        }
    }
}

impl std::error::Error for DrainError {}

/// A cloneable publish handle onto an [`Exchange`].
#[derive(Debug)]
pub struct ExchangeTx<T> {
    tx: Sender<(u64, T)>,
}

// Manual impl: `#[derive(Clone)]` would require `T: Clone`, which publish
// handles do not need (the Sender clones regardless).
impl<T> Clone for ExchangeTx<T> {
    fn clone(&self) -> Self {
        ExchangeTx { tx: self.tx.clone() }
    }
}

impl<T> ExchangeTx<T> {
    /// Publish one payload under `key`. Publication order carries no
    /// meaning; the key decides where the payload lands in the drain.
    /// Panics if the exchange was dropped (the publisher outlived the
    /// consumer — a protocol bug, not a recoverable condition).
    pub fn publish(&self, key: u64, payload: T) {
        self.tx.send((key, payload)).expect("exchange dropped while a publisher is live");
    }
}

/// The consuming side: create, hand out [`ExchangeTx`] handles, [`seal`]
/// once every publisher exists, then drain per round.
///
/// [`seal`]: Exchange::seal
#[derive(Debug)]
pub struct Exchange<T> {
    /// The master sender. Survives [`Exchange::seal`] so the supervisor can
    /// mint [`Exchange::replacement_handle`]s for respawned workers; the
    /// `sealed` flag (not a channel close) enforces the minting protocol.
    tx: Sender<(u64, T)>,
    rx: Receiver<(u64, T)>,
    /// Handle minting is closed; only replacement handles may be created.
    sealed: bool,
    /// Messages received by a failed [`Exchange::drain_deadline`] (or left
    /// over past a drain's expected count), consumed first by the next
    /// drain. Survivor results are never lost to a recovery retry.
    pending: Vec<(u64, T)>,
}

impl<T> Default for Exchange<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Exchange<T> {
    /// An empty, unsealed exchange.
    // This is the audited fence around the raw channel the workspace-wide
    // clippy ban points everyone at.
    #[allow(clippy::disallowed_methods)]
    pub fn new() -> Self {
        let (tx, rx) = channel();
        Exchange { tx, rx, sealed: false, pending: Vec::new() }
    }

    /// Mint a publish handle. Panics after [`Exchange::seal`] — handles for
    /// supervised respawns go through [`Exchange::replacement_handle`],
    /// which demands the opposite state, so the two minting paths cannot be
    /// confused.
    pub fn handle(&self) -> ExchangeTx<T> {
        assert!(!self.sealed, "exchange already sealed");
        ExchangeTx { tx: self.tx.clone() }
    }

    /// Close ordinary handle minting: the publisher set is complete. Drains
    /// from here on may assume exactly that set (plus any supervised
    /// replacements).
    pub fn seal(&mut self) {
        self.sealed = true;
    }

    /// Mint a publish handle for a *replacement* publisher after a fault
    /// (supervised respawn path). Requires the exchange to be sealed: this
    /// is not a loophole around [`Exchange::seal`], it is the explicit
    /// post-seal recovery door.
    pub fn replacement_handle(&self) -> ExchangeTx<T> {
        assert!(self.sealed, "replacement handles only exist after seal()");
        ExchangeTx { tx: self.tx.clone() }
    }

    /// Sorted keys currently buffered in `pending`.
    fn pending_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.pending.iter().map(|&(k, _)| k).collect();
        keys.sort_unstable();
        keys
    }

    /// Receive exactly `expect` messages, then return them sorted by key —
    /// the canonical order. Thread completion order is invisible past this
    /// point, which is what lets the merge path consume concurrent workers
    /// without ever observing their scheduling. Declared as a detlint taint
    /// barrier (`Policy::workspace_default`, docs/DETLINT.md).
    ///
    /// Blocks indefinitely if a publisher never delivers; supervised
    /// callers use [`Exchange::drain_deadline`] instead.
    pub fn drain_sorted(&mut self, expect: usize) -> Vec<(u64, T)> {
        while self.pending.len() < expect {
            // This is the barrier itself — arrival order is erased by the
            // sort below before anything reads it.
            // detlint::allow(no-thread-order): sorted before consumption
            self.pending.push(self.rx.recv().expect("exchange publisher disconnected"));
        }
        let rest = self.pending.split_off(expect);
        let mut out = std::mem::replace(&mut self.pending, rest);
        out.sort_by_key(|&(k, _)| k);
        out
    }

    /// [`Exchange::drain_sorted`] with a deadline: receive `expect`
    /// messages, waiting at most one `policy` backoff window per empty
    /// read, for at most `policy.max_attempts` empty windows — so total
    /// blocking on a silent publisher is bounded by
    /// [`RetryPolicy::total_backoff_us`]. A successful drain returns the
    /// messages sorted by key, exactly like `drain_sorted`. A failed drain
    /// returns a [`DrainError`] listing the keys that did arrive; their
    /// messages stay buffered for the next drain call (recovery retries
    /// never lose survivor results). Deadlines are policy backoff windows —
    /// pure functions of the attempt index — so no wall clock is ever read.
    /// Also a declared detlint taint barrier.
    pub fn drain_deadline(
        &mut self,
        expect: usize,
        policy: &RetryPolicy,
    ) -> Result<Vec<(u64, T)>, DrainError> {
        let mut empty_windows = 0u32;
        while self.pending.len() < expect {
            let window = Duration::from_micros(policy.backoff_us(empty_windows + 1));
            // Same barrier as drain_sorted: arrival order dies in the sort.
            // detlint::allow(no-thread-order): sorted before consumption
            match self.rx.recv_timeout(window) {
                Ok(msg) => self.pending.push(msg),
                Err(RecvTimeoutError::Timeout) => {
                    empty_windows += 1;
                    if empty_windows >= policy.max_attempts {
                        return Err(DrainError::Timeout { received: self.pending_keys() });
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(DrainError::Disconnected { received: self.pending_keys() });
                }
            }
        }
        let rest = self.pending.split_off(expect);
        let mut out = std::mem::replace(&mut self.pending, rest);
        out.sort_by_key(|&(k, _)| k);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deadline policy for tests: 4 windows of 1ms, 2ms, 4ms, 8ms —
    /// 15ms worst case, long past any same-process publish latency.
    fn tiny_policy() -> RetryPolicy {
        RetryPolicy { max_attempts: 4, base_backoff_us: 1_000, backoff_multiplier: 2 }
    }

    #[test]
    fn drain_order_is_independent_of_publish_order() {
        let publish_orders: [[u64; 4]; 3] = [[0, 1, 2, 3], [3, 1, 0, 2], [2, 3, 1, 0]];
        let mut drains = Vec::new();
        for order in publish_orders {
            let mut ex: Exchange<String> = Exchange::new();
            let tx = ex.handle();
            for k in order {
                tx.publish(k, format!("payload-{k}"));
            }
            drains.push(ex.drain_sorted(4));
        }
        for d in &drains[1..] {
            assert_eq!(d, &drains[0]);
        }
        assert_eq!(drains[0][0], (0, "payload-0".to_string()));
        assert_eq!(drains[0][3], (3, "payload-3".to_string()));
    }

    #[test]
    // Raw spawns are exactly what this test needs: threads with no
    // ordering guarantee, to prove the drain erases their schedule.
    #[allow(clippy::disallowed_methods)]
    fn concurrent_publishers_drain_canonically() {
        let mut ex: Exchange<u64> = Exchange::new();
        let handles: Vec<_> = (0..8u64)
            .map(|k| {
                let tx = ex.handle();
                std::thread::spawn(move || tx.publish(k, k * 10))
            })
            .collect();
        ex.seal();
        for h in handles {
            h.join().unwrap();
        }
        let drained = ex.drain_sorted(8);
        assert_eq!(drained, (0..8u64).map(|k| (k, k * 10)).collect::<Vec<_>>());
    }

    #[test]
    fn drain_only_takes_the_expected_count() {
        let mut ex: Exchange<u8> = Exchange::new();
        let tx = ex.handle();
        for k in 0..6u64 {
            tx.publish(k, k as u8);
        }
        assert_eq!(ex.drain_sorted(3).len(), 3, "first round");
        assert_eq!(ex.drain_sorted(3).len(), 3, "second round drains the rest");
    }

    #[test]
    #[should_panic(expected = "already sealed")]
    fn sealed_exchange_mints_no_handles() {
        let mut ex: Exchange<u8> = Exchange::new();
        let _tx = ex.handle();
        ex.seal();
        let _ = ex.handle();
    }

    #[test]
    #[should_panic(expected = "only exist after seal")]
    fn replacement_handles_require_a_sealed_exchange() {
        let ex: Exchange<u8> = Exchange::new();
        let _ = ex.replacement_handle();
    }

    #[test]
    fn dead_publisher_times_out_the_deadline_drain() {
        // A publisher that dies without publishing turns into a typed timeout naming the
        // survivors, never a hang and never a panic.
        let mut ex: Exchange<u8> = Exchange::new();
        let alive = ex.handle();
        let dead = ex.handle();
        ex.seal();
        alive.publish(3, 33);
        drop(dead); // dies without publishing
        let err = ex.drain_deadline(2, &tiny_policy()).unwrap_err();
        assert_eq!(err, DrainError::Timeout { received: vec![3] });
        // The survivor's message is still buffered: once the supervisor
        // respawns the dead publisher, the retry completes with both.
        let retry = ex.replacement_handle();
        retry.publish(7, 77);
        assert_eq!(ex.drain_deadline(2, &tiny_policy()).unwrap(), vec![(3, 33), (7, 77)]);
    }

    #[test]
    fn deadline_drain_is_byte_identical_to_blocking_drain_when_fault_free() {
        let publish_orders: [[u64; 4]; 2] = [[2, 0, 3, 1], [1, 3, 0, 2]];
        for order in publish_orders {
            let mut a: Exchange<u64> = Exchange::new();
            let mut b: Exchange<u64> = Exchange::new();
            let (ta, tb) = (a.handle(), b.handle());
            a.seal();
            b.seal();
            for k in order {
                ta.publish(k, k * 7);
                tb.publish(k, k * 7);
            }
            assert_eq!(a.drain_deadline(4, &tiny_policy()).unwrap(), b.drain_sorted(4));
        }
    }
}
