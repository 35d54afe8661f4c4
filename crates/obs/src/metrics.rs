//! Metric storage: counters, gauges, and quantile histograms.

use serde::Value;

use crate::json_object;

/// Histograms keep at most this many raw samples; past that, new samples
/// overwrite the oldest (ring order). Quantiles then describe the most
/// recent `SAMPLE_CAP` observations, which is what the paper's latency
/// figures (e.g. Fig 11's context-switch CDF) report anyway.
pub const SAMPLE_CAP: usize = 4096;

/// One metric's storage.
#[derive(Debug, Clone)]
pub enum Metric {
    /// Monotonic event count (e.g. bytes reduced, bucket flushes).
    Counter(u64),
    /// Last-write-wins level (e.g. cluster utilization).
    Gauge(f64),
    /// Latency/size distribution with p50/p95/p99 on export.
    Histogram(Histogram),
}

impl Metric {
    /// Fresh counter at zero.
    pub fn counter() -> Self {
        Metric::Counter(0)
    }

    /// Fresh gauge at zero.
    pub fn gauge() -> Self {
        Metric::Gauge(0.0)
    }

    /// Fresh empty histogram.
    pub fn histogram() -> Self {
        Metric::Histogram(Histogram::new())
    }

    /// Counter increment; ignored (not a panic) on other kinds so a name
    /// collision between call sites cannot take down training.
    pub fn add(&mut self, delta: u64) {
        if let Metric::Counter(v) = self {
            *v += delta;
        }
    }

    /// Gauge store; ignored on other kinds.
    pub fn set(&mut self, value: f64) {
        if let Metric::Gauge(v) = self {
            *v = value;
        }
    }

    /// Histogram observation; ignored on other kinds.
    pub fn observe(&mut self, value: f64) {
        if let Metric::Histogram(h) = self {
            h.observe(value);
        }
    }

    /// Point-in-time copy for export.
    pub fn snapshot(&self, name: &str) -> MetricSnapshot {
        match self {
            Metric::Counter(v) => MetricSnapshot::Counter { name: name.to_string(), value: *v },
            Metric::Gauge(v) => MetricSnapshot::Gauge { name: name.to_string(), value: *v },
            Metric::Histogram(h) => MetricSnapshot::Histogram {
                name: name.to_string(),
                count: h.count,
                sum: h.sum,
                min: h.min,
                max: h.max,
                p50: h.quantile(0.50),
                p95: h.quantile(0.95),
                p99: h.quantile(0.99),
            },
        }
    }
}

/// Raw-sample histogram: exact quantiles over the most recent
/// [`SAMPLE_CAP`] observations, plus running count/sum/min/max over all.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    /// Total observations ever (may exceed `samples.len()`).
    pub count: u64,
    /// Sum over all observations.
    pub sum: f64,
    /// Minimum over all observations (0 when empty).
    pub min: f64,
    /// Maximum over all observations (0 when empty).
    pub max: f64,
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.sum += value;
        if self.samples.len() < SAMPLE_CAP {
            self.samples.push(value);
        } else {
            self.samples[(self.count as usize) % SAMPLE_CAP] = value;
        }
        self.count += 1;
    }

    /// Nearest-rank quantile over the retained samples; 0 when empty.
    /// `q` is a fraction in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank.min(sorted.len()) - 1]
    }
}

/// An exported point-in-time view of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSnapshot {
    /// Counter value.
    Counter {
        /// Metric name (`module.metric_unit` convention).
        name: String,
        /// Current count.
        value: u64,
    },
    /// Gauge value.
    Gauge {
        /// Metric name.
        name: String,
        /// Last stored level.
        value: f64,
    },
    /// Histogram summary.
    Histogram {
        /// Metric name.
        name: String,
        /// Total observations.
        count: u64,
        /// Sum of all observations.
        sum: f64,
        /// Minimum observation.
        min: f64,
        /// Maximum observation.
        max: f64,
        /// Median (nearest rank).
        p50: f64,
        /// 95th percentile.
        p95: f64,
        /// 99th percentile.
        p99: f64,
    },
}

impl MetricSnapshot {
    /// The metric name.
    pub fn name(&self) -> &str {
        match self {
            MetricSnapshot::Counter { name, .. }
            | MetricSnapshot::Gauge { name, .. }
            | MetricSnapshot::Histogram { name, .. } => name,
        }
    }

    /// The JSON object for one exported line.
    pub fn to_json(&self) -> Value {
        match self {
            MetricSnapshot::Counter { name, value } => json_object(vec![
                ("metric", Value::Str(name.clone())),
                ("kind", Value::Str("counter".into())),
                ("value", Value::U64(*value)),
            ]),
            MetricSnapshot::Gauge { name, value } => json_object(vec![
                ("metric", Value::Str(name.clone())),
                ("kind", Value::Str("gauge".into())),
                ("value", Value::F64(*value)),
            ]),
            MetricSnapshot::Histogram { name, count, sum, min, max, p50, p95, p99 } => {
                json_object(vec![
                    ("metric", Value::Str(name.clone())),
                    ("kind", Value::Str("histogram".into())),
                    ("count", Value::U64(*count)),
                    ("sum", Value::F64(*sum)),
                    ("min", Value::F64(*min)),
                    ("max", Value::F64(*max)),
                    ("p50", Value::F64(*p50)),
                    ("p95", Value::F64(*p95)),
                    ("p99", Value::F64(*p99)),
                ])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_distribution() {
        let mut h = Histogram::new();
        // 1..=100: p50 = 50, p95 = 95, p99 = 99 under nearest-rank.
        for v in 1..=100 {
            h.observe(v as f64);
        }
        assert_eq!(h.quantile(0.50), 50.0);
        assert_eq!(h.quantile(0.95), 95.0);
        assert_eq!(h.quantile(0.99), 99.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 100.0);
        assert_eq!(h.count, 100);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        assert_eq!(h.sum, 5050.0);
    }

    #[test]
    fn quantiles_are_order_independent() {
        let mut asc = Histogram::new();
        let mut desc = Histogram::new();
        for v in 1..=31 {
            asc.observe(v as f64);
            desc.observe((32 - v) as f64);
        }
        for q in [0.5, 0.9, 0.95, 0.99] {
            assert_eq!(asc.quantile(q), desc.quantile(q));
        }
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = Histogram::new();
        h.observe(7.5);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 7.5);
        }
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn ring_overwrite_keeps_recent_samples() {
        let mut h = Histogram::new();
        // Fill the ring with 1.0 then overwrite it completely with 2.0: the
        // quantiles must reflect only the recent window, while count/sum
        // still cover everything.
        for _ in 0..SAMPLE_CAP {
            h.observe(1.0);
        }
        for _ in 0..SAMPLE_CAP {
            h.observe(2.0);
        }
        assert_eq!(h.quantile(0.5), 2.0);
        assert_eq!(h.count, 2 * SAMPLE_CAP as u64);
        assert_eq!(h.min, 1.0);
    }

    #[test]
    fn kind_mismatch_is_ignored_not_fatal() {
        let mut m = Metric::counter();
        m.set(3.0);
        m.observe(3.0);
        m.add(2);
        assert!(matches!(m.snapshot("x"), MetricSnapshot::Counter { value: 2, .. }));
    }
}
