//! Observability for the EasyScale reproduction: counters, gauges,
//! histograms (p50/p95/p99), and RAII span timers behind one global
//! registry, exported as JSON lines.
//!
//! Design constraints (see DESIGN.md, "Metrics stay off the merge path"):
//!
//! - **Observation-only.** Nothing in this crate feeds values back into
//!   training. The deterministic merge path in `core::engine` must produce
//!   bitwise-identical results whether a sink is installed or not, so the
//!   API exposes no way for instrumented code to read metric state and the
//!   recording side never touches training data structures.
//! - **Free when disabled.** The registry starts disabled (the
//!   [`sink::NoopSink`] state). Every recording entry point checks one
//!   relaxed atomic and returns before taking a lock or reading a clock,
//!   so instrumentation left in hot paths costs a branch.
//! - **No new external deps.** Only workspace-local `parking_lot`,
//!   `serde`, and `serde_json` (the offline shims).
//!
//! # Example
//!
//! ```
//! use obs::sink::MemorySink;
//!
//! let sink = MemorySink::shared();
//! obs::enable(Box::new(sink.clone()));
//!
//! obs::counter_add("comm.allreduce_calls", 1);
//! obs::gauge_set("sched.utilization", 0.9);
//! {
//!     let _t = obs::span("engine.global_step");
//!     obs::observe("engine.local_step_us", 120.0);
//! }
//!
//! obs::flush();
//! assert!(sink.lines().iter().any(|l| l.contains("comm.allreduce_calls")));
//! obs::disable();
//! ```

pub mod metrics;
pub mod sink;
pub mod span;
pub mod timer;

use std::sync::atomic::{AtomicBool, Ordering};

use parking_lot::Mutex;
use serde::Value;

use metrics::{Metric, MetricSnapshot};
use sink::Sink;
pub use span::{span, SpanGuard};
pub use timer::Stopwatch;

/// The process-wide registry: an enabled flag plus name → metric storage
/// and the installed export sink.
struct Registry {
    /// Checked (relaxed) by every recording entry point before any other
    /// work. `false` means all instrumentation is a single-branch no-op.
    enabled: AtomicBool,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    /// Sorted by name so exports are deterministic.
    metrics: std::collections::BTreeMap<String, Metric>,
    sink: Option<Box<dyn Sink>>,
}

static REGISTRY: Registry =
    Registry { enabled: AtomicBool::new(false), state: Mutex::new(State::new()) };

impl State {
    const fn new() -> Self {
        State { metrics: std::collections::BTreeMap::new(), sink: None }
    }
}

/// Install a sink and turn recording on.
///
/// Replaces any previously installed sink (flushing nothing — call
/// [`flush`] first if the old sink's output matters).
pub fn enable(sink: Box<dyn Sink>) {
    let mut st = REGISTRY.state.lock();
    st.sink = Some(sink);
    REGISTRY.enabled.store(true, Ordering::Release);
}

/// Turn recording off and drop the sink (back to the free no-op state).
///
/// Accumulated metric values are kept; [`reset`] clears them.
pub fn disable() {
    REGISTRY.enabled.store(false, Ordering::Release);
    REGISTRY.state.lock().sink = None;
}

/// Whether a sink is installed and recording is on.
pub fn is_enabled() -> bool {
    REGISTRY.enabled.load(Ordering::Relaxed)
}

/// Clear all accumulated metric values (the sink stays installed).
pub fn reset() {
    REGISTRY.state.lock().metrics.clear();
}

/// Add `delta` to the named monotonic counter.
pub fn counter_add(name: &str, delta: u64) {
    if !is_enabled() {
        return;
    }
    REGISTRY
        .state
        .lock()
        .metrics
        .entry(name.to_string())
        .or_insert_with(Metric::counter)
        .add(delta);
}

/// Set the named gauge to `value` (last write wins). A non-finite value is
/// skipped, as a kind mismatch is: JSON cannot export it.
pub fn gauge_set(name: &str, value: f64) {
    if !is_enabled() || !value.is_finite() {
        return;
    }
    REGISTRY.state.lock().metrics.entry(name.to_string()).or_insert_with(Metric::gauge).set(value);
}

/// Record one observation into the named histogram. A non-finite value is
/// skipped, as a kind mismatch is: it would poison the sum and the export.
pub fn observe(name: &str, value: f64) {
    if !is_enabled() || !value.is_finite() {
        return;
    }
    REGISTRY
        .state
        .lock()
        .metrics
        .entry(name.to_string())
        .or_insert_with(Metric::histogram)
        .observe(value);
}

/// A point-in-time copy of every metric, sorted by name.
pub fn snapshot() -> Vec<MetricSnapshot> {
    let st = REGISTRY.state.lock();
    st.metrics.iter().map(|(name, m)| m.snapshot(name)).collect()
}

/// Current value of a named counter, if it exists.
///
/// A *report-side* read: tests and harness reports (e.g. faultsim's
/// injected/recovered event accounting) verify instrumentation through it.
/// Code on the deterministic path must never call this — metrics stay
/// observation-only (see DESIGN.md, "Metrics stay off the merge path").
pub fn counter_value(name: &str) -> Option<u64> {
    let st = REGISTRY.state.lock();
    match st.metrics.get(name)?.snapshot(name) {
        MetricSnapshot::Counter { value, .. } => Some(value),
        _ => None,
    }
}

/// Export every metric as one JSON line each to the installed sink, then
/// flush the sink. A no-op when disabled.
pub fn flush() {
    if !is_enabled() {
        return;
    }
    let snaps = snapshot();
    let mut st = REGISTRY.state.lock();
    if let Some(sink) = st.sink.as_mut() {
        for snap in &snaps {
            sink.write_line(&serde_json::to_string(&snap.to_json()).expect("metric line"));
        }
        sink.flush();
    }
}

/// Convenience used by snapshots: a JSON object from key/value pairs.
pub(crate) fn json_object(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The registry is process-global: every unit test of this crate that
/// enables, disables or resets it — here, in `span` and in `timer` — holds
/// this one guard while it does.
#[cfg(test)]
pub(crate) static TEST_GUARD: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = TEST_GUARD.lock();
        disable();
        reset();
        counter_add("t.c", 5);
        gauge_set("t.g", 1.0);
        observe("t.h", 2.0);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn enabled_recording_accumulates_and_exports() {
        let _g = TEST_GUARD.lock();
        let sink = MemorySink::shared();
        enable(Box::new(sink.clone()));
        reset();
        counter_add("t.calls", 2);
        counter_add("t.calls", 3);
        gauge_set("t.util", 0.25);
        gauge_set("t.util", 0.75);
        observe("t.lat_us", 10.0);
        observe("t.lat_us", 30.0);
        flush();
        disable();

        let lines = sink.lines();
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].contains("\"metric\":\"t.calls\"") && lines[0].contains("\"value\":5"));
        assert!(lines[1].contains("\"t.lat_us\"") && lines[1].contains("\"count\":2"));
        assert!(lines[2].contains("\"t.util\"") && lines[2].contains("0.75"));
    }

    #[test]
    fn counter_value_reads_back_counters_only() {
        let _g = TEST_GUARD.lock();
        let sink = MemorySink::shared();
        enable(Box::new(sink));
        reset();
        counter_add("t.events", 4);
        gauge_set("t.level", 2.0);
        assert_eq!(counter_value("t.events"), Some(4));
        assert_eq!(counter_value("t.level"), None, "gauges are not counters");
        assert_eq!(counter_value("t.missing"), None);
        disable();
    }

    /// One NaN must not break every later export: it is skipped, and the
    /// flush still writes the finite observation.
    #[test]
    fn non_finite_values_are_skipped_not_fatal() {
        let _g = TEST_GUARD.lock();
        let sink = MemorySink::shared();
        enable(Box::new(sink.clone()));
        reset();
        observe("t.lat_us", 1.0);
        observe("t.lat_us", f64::NAN);
        gauge_set("t.level", f64::NAN);
        gauge_set("t.inf", f64::INFINITY);
        flush();
        disable();
        let lines = sink.lines();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].contains("\"count\":1") && lines[0].contains("\"p99\":1"), "{lines:?}");
    }

    #[test]
    fn flush_without_sink_is_safe() {
        let _g = TEST_GUARD.lock();
        disable();
        flush();
    }
}
