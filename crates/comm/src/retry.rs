//! Bounded retry with exponential backoff for transient all-reduce faults.
//!
//! Real elastic clusters see transient NCCL failures — a flaky NIC, a
//! container eviction racing a collective — and the standard remedy is to
//! retry the collective a bounded number of times before declaring the
//! worker dead. The determinism constraint makes the *shape* of the remedy
//! matter: a retried all-reduce must produce exactly the bits the first
//! attempt would have produced, and the backoff schedule must be a pure
//! function of the attempt index (no wall-clock sampling). Both hold here:
//! [`ElasticDdp::allreduce_avg_with_retry`] recomputes the same pure ring
//! reduction on every attempt, and [`RetryPolicy::backoff_us`] is integer
//! arithmetic on the attempt number.
//!
//! Fault *injection* is explicit: a [`FaultScript`] says which attempts
//! fail. Production code passes [`FaultScript::none`]; the faultsim harness
//! arms scripts from its seeded schedule.

use crate::ElasticDdp;
use serde::{Deserialize, Serialize};

/// Why a collective ultimately failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CommError {
    /// Every attempt permitted by the [`RetryPolicy`] faulted.
    RetriesExhausted {
        /// Attempts made (== the policy's `max_attempts`).
        attempts: u32,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::RetriesExhausted { attempts } => {
                write!(f, "allreduce failed after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Bounded-retry policy: how many attempts, and how long (in simulated
/// microseconds) to back off between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts (first try included). Must be ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the first retry, in simulated microseconds.
    pub base_backoff_us: u64,
    /// Multiplier applied per further retry (exponential backoff).
    pub backoff_multiplier: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, base_backoff_us: 200, backoff_multiplier: 2 }
    }
}

impl RetryPolicy {
    /// Backoff consumed before retry number `retry` (1-based; retry 1 is
    /// the second attempt). A pure function — no jitter, so two runs of the
    /// same fault schedule spend identical simulated time.
    pub fn backoff_us(&self, retry: u32) -> u64 {
        debug_assert!(retry >= 1);
        self.base_backoff_us
            .saturating_mul((self.backoff_multiplier as u64).saturating_pow(retry - 1))
    }

    /// Total backoff the policy can ever spend: the sum of every window,
    /// `Σ backoff_us(r)` for `r` in `1..=max_attempts`. This is the
    /// worst-case blocking budget of a deadline drain built on this policy
    /// (`Exchange::drain_deadline`), and therefore the deterministic
    /// virtual-time detection latency charged for a thread fault — once the
    /// budget is spent, the drain *must* have returned an error.
    pub fn total_backoff_us(&self) -> u64 {
        (1..=self.max_attempts).fold(0u64, |acc, r| acc.saturating_add(self.backoff_us(r)))
    }
}

/// A deterministic script of attempt outcomes: the next `remaining`
/// attempts fault, everything after succeeds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultScript {
    remaining: u32,
}

impl FaultScript {
    /// No injected faults (the production path).
    pub fn none() -> Self {
        FaultScript { remaining: 0 }
    }

    /// Fail the next `n` attempts, then succeed.
    pub fn failures(n: u32) -> Self {
        FaultScript { remaining: n }
    }

    /// Injected failures not yet consumed.
    pub fn pending(&self) -> u32 {
        self.remaining
    }

    /// Consume one attempt; returns true if that attempt faults.
    fn attempt_faults(&mut self) -> bool {
        if self.remaining > 0 {
            self.remaining -= 1;
            true
        } else {
            false
        }
    }
}

/// What a (successful) retried collective cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryStats {
    /// Attempts made (1 = no fault seen).
    pub attempts: u32,
    /// Total simulated backoff consumed, in microseconds.
    pub backoff_us: u64,
}

/// Run any reduction closure under a bounded-retry policy with scripted
/// fault injection. The closure runs only on a clean attempt, so a retried
/// reduction is recomputed from scratch — for a pure reduction (everything
/// in this workspace) the retried result is bitwise identical to a
/// first-try success. This is the reduction-agnostic core behind
/// [`ElasticDdp::allreduce_avg_with_retry`], which is what the engine calls.
pub fn retry_reduce<T>(
    policy: &RetryPolicy,
    faults: &mut FaultScript,
    mut reduce: impl FnMut() -> T,
) -> Result<(T, RetryStats), CommError> {
    assert!(policy.max_attempts >= 1, "policy must allow at least one attempt");
    let mut backoff_us = 0u64;
    for attempt in 1..=policy.max_attempts {
        if faults.attempt_faults() {
            obs::counter_add("comm.allreduce_faults_injected", 1);
            if attempt < policy.max_attempts {
                let wait = policy.backoff_us(attempt);
                backoff_us += wait;
                obs::counter_add("comm.allreduce_retries", 1);
                obs::observe("comm.retry_backoff_us", wait as f64);
            }
            continue;
        }
        return Ok((reduce(), RetryStats { attempts: attempt, backoff_us }));
    }
    obs::counter_add("comm.allreduce_exhausted", 1);
    Err(CommError::RetriesExhausted { attempts: policy.max_attempts })
}

impl ElasticDdp {
    /// [`ElasticDdp::allreduce_avg`] under a bounded-retry policy with
    /// scripted fault injection. On success the returned gradient is
    /// bitwise identical to the plain call — retries recompute the same
    /// pure reduction — so transient comm faults are invisible to training.
    /// Returns [`CommError::RetriesExhausted`] when the script outlasts the
    /// policy; the caller escalates (worker-crash recovery path).
    pub fn allreduce_avg_with_retry(
        &self,
        grads: &[Vec<f32>],
        policy: &RetryPolicy,
        faults: &mut FaultScript,
    ) -> Result<(Vec<f32>, RetryStats), CommError> {
        retry_reduce(policy, faults, || self.allreduce_avg(grads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grads(vworld: usize, n: usize) -> Vec<Vec<f32>> {
        (0..vworld)
            .map(|r| (0..n).map(|i| ((i * 13 + r * 5) % 41) as f32 * 0.027).collect())
            .collect()
    }

    #[test]
    fn no_faults_is_one_attempt_and_identical_bits() {
        let ddp = ElasticDdp::new(&[64, 64], 4, 256);
        let g = grads(4, 128);
        let plain = ddp.allreduce_avg(&g);
        let (out, stats) = ddp
            .allreduce_avg_with_retry(&g, &RetryPolicy::default(), &mut FaultScript::none())
            .unwrap();
        assert_eq!(stats, RetryStats { attempts: 1, backoff_us: 0 });
        assert!(plain.iter().zip(&out).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn transient_faults_are_bitwise_invisible() {
        let ddp = ElasticDdp::new(&[100, 50], 2, 200);
        let g = grads(2, 150);
        let plain = ddp.allreduce_avg(&g);
        for n_faults in 1..=3u32 {
            let (out, stats) = ddp
                .allreduce_avg_with_retry(
                    &g,
                    &RetryPolicy::default(),
                    &mut FaultScript::failures(n_faults),
                )
                .unwrap();
            assert_eq!(stats.attempts, n_faults + 1);
            assert!(
                plain.iter().zip(&out).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{n_faults} faults changed bits"
            );
        }
    }

    #[test]
    fn backoff_is_exponential_and_deterministic() {
        let p = RetryPolicy { max_attempts: 5, base_backoff_us: 100, backoff_multiplier: 3 };
        assert_eq!(p.backoff_us(1), 100);
        assert_eq!(p.backoff_us(2), 300);
        assert_eq!(p.backoff_us(3), 900);
        assert_eq!(p.total_backoff_us(), 100 + 300 + 900 + 2700 + 8100);
        let ddp = ElasticDdp::new(&[32], 2, 128);
        let g = grads(2, 32);
        let (_, stats) =
            ddp.allreduce_avg_with_retry(&g, &p, &mut FaultScript::failures(3)).unwrap();
        assert_eq!(stats.backoff_us, 100 + 300 + 900);
    }

    #[test]
    fn exhausted_retries_error_out() {
        let ddp = ElasticDdp::new(&[32], 2, 128);
        let g = grads(2, 32);
        let p = RetryPolicy::default();
        let err = ddp
            .allreduce_avg_with_retry(&g, &p, &mut FaultScript::failures(p.max_attempts))
            .unwrap_err();
        assert_eq!(err, CommError::RetriesExhausted { attempts: p.max_attempts });
    }

    #[test]
    fn script_persists_across_calls() {
        // A script armed with more failures than one call consumes keeps
        // failing the next call — the harness relies on this to model a
        // fault burst spanning steps.
        let ddp = ElasticDdp::new(&[32], 2, 128);
        let g = grads(2, 32);
        let p = RetryPolicy { max_attempts: 2, base_backoff_us: 10, backoff_multiplier: 2 };
        let mut script = FaultScript::failures(3);
        assert!(ddp.allreduce_avg_with_retry(&g, &p, &mut script).is_err());
        assert_eq!(script.pending(), 1);
        let (_, stats) = ddp.allreduce_avg_with_retry(&g, &p, &mut script).unwrap();
        assert_eq!(stats.attempts, 2);
    }
}
