//! Shared plumbing for the `figs` binary: what a figure hands back
//! ([`Fig`]), the one table printer, and the writer for `results/`.
//!
//! The rule for the tree: every tracked file under `results/` is a pure
//! function of the code — a value read from a clock is printed and never
//! written there — so `figs all && git diff --exit-code -- results` is the
//! reproduction's regression test.

#![deny(missing_docs)]

pub use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::{fmt, fs};

/// A JSON object from `field: value` pairs, for rows that are only printed
/// and written (a row whose fields are read back is a `derive(Serialize)`
/// struct).
#[macro_export]
macro_rules! row {
    ($($field:ident: $value:expr),* $(,)?) => {
        $crate::Value::Map(vec![
            $((stringify!($field).to_string(), $crate::Serialize::to_value(&$value))),*
        ])
    };
}

/// What one figure produces besides its printed table.
pub struct Fig {
    /// The rows for `results/<name>.json`; `None` for a timed figure.
    pub json: Option<Value>,
    /// The summary line EXPERIMENTS.md quotes in "Measured here".
    pub measured: String,
}

impl Fig {
    /// A figure whose every value is a function of the code.
    pub fn tracked<T: Serialize + ?Sized>(rows: &T, measured: String) -> Fig {
        Fig { json: Some(rows.to_value()), measured }
    }

    /// A figure read off a clock: its numbers are printed, nothing is
    /// written, and the summary line says so instead of quoting them.
    pub fn timed(what: &str) -> Fig {
        Fig { json: None, measured: format!("timed on the host, not tracked: {what}") }
    }
}

/// A result file that could not be written, and why.
#[derive(Debug)]
pub struct FigError {
    /// The file (or the directory it was to go in).
    pub path: PathBuf,
    /// The I/O failure, or a value with no JSON rendering (NaN, infinity).
    pub cause: Box<dyn std::error::Error>,
}

impl fmt::Display for FigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot write {}: {}", self.path.display(), self.cause)
    }
}

impl std::error::Error for FigError {}

/// Where experiment JSON lands (`<workspace>/results`).
pub fn results_dir() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2);
    root.expect("crates/bench sits two levels below the workspace root").join("results")
}

/// Write an experiment's structured result to `<dir>/<name>.json`.
pub fn write_json<T: Serialize + ?Sized>(
    dir: &Path,
    name: &str,
    value: &T,
) -> Result<(), FigError> {
    let path = dir.join(format!("{name}.json"));
    let fail = |cause: Box<dyn std::error::Error>| FigError { path: path.clone(), cause };
    let json = serde_json::to_string_pretty(value).map_err(|e| fail(e.into()))?;
    fs::create_dir_all(dir).map_err(|e| fail(e.into()))?;
    fs::write(&path, json).map_err(|e| fail(e.into()))
}

/// One table cell: floats at three decimals (scientific below 1e-3, where
/// three decimals would print a drift as zero), arrays space-separated,
/// `null` as `-`.
fn render(v: &Value) -> String {
    match v {
        Value::F64(x) if *x != 0.0 && x.abs() < 1e-3 => format!("{x:.2e}"),
        Value::F64(x) => format!("{x:.3}"),
        Value::Str(s) => s.clone(),
        Value::Null => "-".to_string(),
        Value::Seq(items) => items.iter().map(render).collect::<Vec<_>>().join(" "),
        Value::F32s(xs) => {
            xs.iter().map(|&x| render(&Value::F64(x as f64))).collect::<Vec<_>>().join(" ")
        }
        other => serde_json::to_string(other).unwrap_or_default(),
    }
}

/// Print `rows` — each serializing to a JSON object with the same fields —
/// as an aligned table headed by the field names: what is printed is what
/// is written. Text and arrays go left, scalars right.
pub fn print_table<T: Serialize>(rows: &[T]) {
    let rows: Vec<Value> = rows.iter().map(Serialize::to_value).collect();
    let Some(Value::Map(first)) = rows.first() else { return };
    let mut lines = vec![first.iter().map(|(field, _)| field.clone()).collect::<Vec<_>>()];
    for row in &rows {
        lines.push(
            first.iter().map(|(f, _)| row.get_field(f).map_or_else(String::new, render)).collect(),
        );
    }
    let width = |i: usize| lines.iter().map(|l| l[i].chars().count()).max().unwrap_or(0);
    let widths: Vec<usize> = (0..first.len()).map(width).collect();
    for line in &lines {
        let cells =
            line.iter().zip(&widths).enumerate().map(|(i, (cell, &width))| match first[i].1 {
                Value::Str(_) | Value::Seq(_) | Value::F32s(_) => format!("{cell:<width$}"),
                _ => format!("{cell:>width$}"),
            });
        println!("{}", cells.collect::<Vec<_>>().join("  ").trim_end());
    }
}

/// Median of `samples` (sorted in place): robust to scheduler noise on
/// µs-scale timings.
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Mean wall time of `f` in µs over `reps` calls. With [`timed_ms`], the
/// clock reads of the crate outside the worker's own step timer; what they
/// return is printed, never written.
pub fn mean_us<R>(reps: u32, mut f: impl FnMut() -> R) -> f64 {
    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    t0.elapsed().as_secs_f64() * 1e6 / reps as f64
}

/// What one call of `f` returns, and its wall time in ms.
pub fn timed_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// `max − min` of `values`.
pub fn spread(values: impl Iterator<Item = f64> + Clone) -> f64 {
    values.clone().fold(f64::NEG_INFINITY, f64::max) - values.fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_under_workspace() {
        assert!(results_dir().ends_with("results"));
    }

    #[test]
    fn row_macro_keeps_field_order_and_types() {
        let r = row! { model: "Bert", gpus: 4u32, oom: None::<f64>, loss: 0.5f32 };
        assert_eq!(
            serde_json::to_string(&r).unwrap(),
            r#"{"model":"Bert","gpus":4,"oom":null,"loss":0.5}"#
        );
        assert_eq!(render(r.get_field("oom").unwrap()), "-");
        assert_eq!(render(&[0.25f64, 1.19e-7].to_value()), "0.250 1.19e-7");
    }

    #[test]
    fn an_unwritable_directory_or_a_nan_is_an_error_not_a_warning() {
        // A regular file where the directory should be: create_dir_all fails.
        let file = std::env::temp_dir().join(format!("figs-not-a-dir-{}", std::process::id()));
        fs::write(&file, b"").unwrap();
        let err = write_json(&file, "x", &1u32).unwrap_err();
        fs::remove_file(&file).unwrap();
        assert_eq!(err.path, file.join("x.json"));
        assert!(err.to_string().starts_with("cannot write "), "{err}");
        let err = write_json(&std::env::temp_dir(), "nan", &f64::NAN).unwrap_err();
        assert!(err.to_string().contains("NaN"), "{err}");
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(spread([0.5, 0.1, 0.3].into_iter()), 0.4);
    }
}
