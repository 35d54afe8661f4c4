//! Operation accounting and the JSON the benchmark writes.

use crate::stats::Summary;
use serde_json::Value;
use std::collections::BTreeMap;

/// Operations attempted and failed in one run: steps, rescales, recoveries,
/// passes and output checks each count once. An `Err`, a failed check or an
/// unrecovered fault is a failure; the message says which.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, what: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        let what = what.into();
        eprintln!("FAILED: {what}");
        self.failures.push(what);
    }

    /// Count one output check.
    pub fn check(&mut self, passed: bool, what: impl FnOnce() -> String) {
        if passed {
            self.ok(1);
        } else {
            self.fail(what());
        }
    }

    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

pub type Metrics = BTreeMap<&'static str, f64>;

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

pub fn floats(v: &[f64]) -> Value {
    Value::Seq(v.iter().map(|&x| Value::F64(x)).collect())
}

pub fn metrics_json(m: &Metrics) -> Value {
    Value::Map(m.iter().map(|(k, v)| (k.to_string(), Value::F64(*v))).collect())
}

pub fn summary_json(s: &Summary, unit: &str) -> Value {
    obj(vec![
        ("n", Value::U64(s.n as u64)),
        ("p25", Value::F64(s.p25)),
        ("median", Value::F64(s.median)),
        ("iqr", Value::F64(s.iqr)),
        ("unit", Value::Str(unit.to_string())),
    ])
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the metrics in the order given.
pub fn result_line(ops: &Ops, metrics: &[(&str, &str, f64)]) -> String {
    let metrics = metrics
        .iter()
        .map(|&(name, unit, value)| {
            (name, obj(vec![("value", Value::F64(value)), ("unit", Value::Str(unit.to_string()))]))
        })
        .collect();
    let line = obj(vec![
        ("correct", Value::Bool(ops.failed == 0)),
        ("attempted", Value::U64(ops.attempted)),
        ("failed", Value::U64(ops.failed)),
        ("metrics", obj(metrics)),
    ]);
    serde_json::to_string(&line).expect("every metric is finite")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut ops = Ops::default();
        ops.ok(1000);
        let line = result_line(&ops, &[("latency_ms", "ms", 1.2034), ("setup_s", "s", 0.8127)]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1000,\"failed\":0,\"metrics\":{\
             \"latency_ms\":{\"value\":1.2034,\"unit\":\"ms\"},\
             \"setup_s\":{\"value\":0.8127,\"unit\":\"s\"}}}"
        );
        let back: Value = serde_json::from_str(&line).unwrap();
        let Value::Map(fields) = &back else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut ops = Ops::default();
        ops.ok(3);
        ops.check(true, || unreachable!());
        ops.check(false, || "params differ at step 100".to_string());
        assert_eq!((ops.attempted, ops.failed), (5, 1));
        let line = result_line(&ops, &[("x", "count", 2.0)]);
        assert!(line.starts_with("{\"correct\":false,\"attempted\":5,\"failed\":1,"));
        assert!(line.contains("\"value\":2.0"), "whole floats keep their point: {line}");
    }

    #[test]
    fn a_value_that_is_not_finite_is_refused() {
        let r = std::panic::catch_unwind(|| result_line(&Ops::default(), &[("x", "ms", f64::NAN)]));
        assert!(r.is_err());
    }
}
