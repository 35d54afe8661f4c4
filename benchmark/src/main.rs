//! The repo benchmark. See README.md; `BENCHMARK.json` at the repo root
//! names the command, the workloads and the metrics.
//!
//! ```text
//! esbench --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! esbench run   [--seed N] [--seconds S]                  every workload, then one traced run
//! esbench aa    [--sets 2] [--runs 5] [--seconds S]       A/A self-check, markdown on stdout
//! esbench smoke                                           seconds-long validity check
//! esbench catalog [--json]                                the metric tables, generated
//! ```

mod calib;
mod catalog;
mod churn;
mod host;
mod job;
mod pin;
mod probes;
mod report;
mod sched;
mod spans;
mod stats;
mod suite;
mod train;

use catalog::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use report::{obj, Metrics, Ops};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// How much work a run does. Block *sizes* never depend on `seconds`: it
/// only sets how many blocks are measured.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub seconds: f64,
    /// Shrink every block and count to the least that still exercises each
    /// code path: a validity check, not a measurement.
    pub smoke: bool,
}

impl Scale {
    fn pick(&self, smoke: usize, full: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
    pub fn setup_reps(&self) -> usize {
        self.pick(2, 15)
    }
    pub fn min_blocks(&self) -> usize {
        self.pick(3, 8)
    }
    pub fn min_cycles(&self) -> usize {
        self.pick(5, 15)
    }
    pub fn tail_rescales(&self) -> usize {
        self.pick(2, 24)
    }
    pub fn tail_faults(&self) -> usize {
        self.pick(1, 4)
    }
    pub fn probe_reps(&self) -> usize {
        self.pick(3, 30)
    }
}

/// The checkout's root: the working directory when it holds `benchmark/`,
/// its parent when run from inside `benchmark/` (as `cargo test` does).
pub fn find_root() -> Result<PathBuf, String> {
    for root in [".", ".."] {
        let root = Path::new(root);
        if root.join("BENCHMARK.json").is_file() && root.join("benchmark/Cargo.toml").is_file() {
            return Ok(root.to_path_buf());
        }
    }
    Err("run from the repo root (BENCHMARK.json and benchmark/ not found)".to_string())
}

/// Everything a run writes goes here, inside the checkout.
pub fn out_dir(root: &Path) -> Result<PathBuf, String> {
    let out = root.join("benchmark/out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(out)
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot read {v:?}")),
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let workload = flag(args, "--workload").ok_or("--workload is required")?.to_string();
    if catalog::workload(&workload).is_none() {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("unknown workload {workload:?}; one of {known:?}"));
    }
    let seconds: f64 = parse_flag(args, "--seconds", 20.0)?;
    if !(0.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 0..=600"));
    }
    Ok(RunArgs {
        workload,
        seed: parse_flag(args, "--seed", 1)?,
        seconds,
        traced: match flag(args, "--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        smoke: args.iter().any(|a| a == "--smoke"),
    })
}

fn untraced(args: &RunArgs, scale: &Scale, out: &Path) -> Result<(Ops, Metrics, Value), String> {
    match args.workload.as_str() {
        catalog::TRAIN_COMPUTE => train::run_untraced(train::COMPUTE, args.seed, scale, out),
        catalog::TRAIN_SYNC => train::run_untraced(train::SYNC, args.seed, scale, out),
        catalog::ELASTIC_CHURN => churn::run_untraced(args.seed, scale, out),
        catalog::SCHED_TRACE => sched::run_untraced(args.seed, scale),
        other => unreachable!("parse_run admitted {other}"),
    }
}

/// A traced run measures every layer, so it runs the traced section of all
/// four workloads, each for a quarter of the time. Where several sections
/// measure a metric, the requested workload's value is the one reported.
fn traced(args: &RunArgs, scale: &Scale, out: &Path) -> Result<(Ops, Metrics, Value), String> {
    let share = Scale { seconds: scale.seconds / WORKLOADS.len() as f64, ..*scale };
    let mut ops = Ops::default();
    let mut sections: Vec<(&str, Metrics)> = Vec::new();
    for w in WORKLOADS {
        let (section_ops, metrics) = match w.name {
            catalog::TRAIN_COMPUTE => train::run_traced(train::COMPUTE, args.seed, &share, out)?,
            catalog::TRAIN_SYNC => train::run_traced(train::SYNC, args.seed, &share, out)?,
            catalog::ELASTIC_CHURN => churn::run_traced(args.seed, &share, out)?,
            catalog::SCHED_TRACE => sched::run_traced(args.seed, &share, out)?,
            other => unreachable!("catalogue lists {other}"),
        };
        ops.absorb(section_ops);
        sections.push((w.name, metrics));
    }
    let calib = host::calibrate(scale.probe_reps() * 4);
    let mut host_metrics = Metrics::new();
    host_metrics.insert("host.cores", host::cores() as f64);
    host_metrics.insert("host.calib_ms", calib.median);
    host_metrics.insert("host.calib_iqr_ms", calib.iqr);

    let mut merged = Metrics::new();
    for m in PER_LAYER {
        let from = std::iter::once(args.workload.as_str()).chain(m.on.iter().copied());
        let value = from
            .filter_map(|w| sections.iter().find(|(name, _)| *name == w))
            .find_map(|(_, metrics)| metrics.get(m.name))
            .or_else(|| host_metrics.get(m.name));
        match value {
            Some(v) if v.is_finite() => {
                merged.insert(m.name, *v);
            }
            other => ops.fail(format!("per-layer metric {} was not measured: {other:?}", m.name)),
        }
    }
    // Every section's own numbers, so that both step workloads can be read
    // from one traced run.
    let detail = obj(sections.iter().map(|(w, m)| (*w, report::metrics_json(m))).collect());
    Ok((ops, merged, detail))
}

fn arrow(better: Better) -> &'static str {
    match better {
        Better::Higher => "higher is better",
        Better::Lower => "lower is better",
    }
}

fn run_one(argv: &[String]) -> Result<bool, String> {
    let args = parse_run(argv)?;
    let root = find_root()?;
    let out = out_dir(&root)?;
    let scale = Scale { seconds: args.seconds, smoke: args.smoke };
    job::silence_injected_panics();
    eprintln!(
        "esbench: {} seed {} for {} s, {} ({} cores)",
        args.workload,
        args.seed,
        args.seconds,
        if args.traced { "traced" } else { "untraced" },
        host::cores()
    );

    let (ops, metrics, detail, table): (Ops, Metrics, Value, Vec<(&str, &str, Better)>) =
        if args.traced {
            let (ops, metrics, detail) = traced(&args, &scale, &out)?;
            let table = PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)).collect();
            (ops, metrics, detail, table)
        } else {
            let (ops, mut metrics, detail) = untraced(&args, &scale, &out)?;
            metrics.insert(catalog::PEAK_RSS_MB, host::peak_rss_mb());
            let table = END_TO_END.iter().map(|m| (m.name, m.unit, m.better)).collect();
            (ops, metrics, detail, table)
        };

    let mut rows = Vec::new();
    for &(name, unit, better) in &table {
        if let Some(&value) = metrics.get(name) {
            eprintln!("  {name:<32} {value:>16.4} {unit:<8} ({})", arrow(better));
            rows.push((name, unit, value));
        }
    }
    for f in &ops.failures {
        eprintln!("  FAILED: {f}");
    }
    let record = obj(vec![
        ("workload", Value::Str(args.workload.clone())),
        ("seed", Value::U64(args.seed)),
        ("seconds", Value::F64(args.seconds)),
        ("traced", Value::Bool(args.traced)),
        ("host.cores", Value::U64(host::cores() as u64)),
        ("git_commit", Value::Str(host::git_commit(&root))),
        ("rustc", Value::Str(host::rustc_version())),
        ("attempted", Value::U64(ops.attempted)),
        ("failed", Value::U64(ops.failed)),
        ("failures", Value::Seq(ops.failures.iter().map(|f| Value::Str(f.clone())).collect())),
        ("failed_ops_frac", Value::F64(ops.failed as f64 / ops.attempted.max(1) as f64)),
        (
            "metrics",
            obj(rows
                .iter()
                .map(|&(name, unit, value)| {
                    (
                        name,
                        obj(vec![("value", Value::F64(value)), ("unit", Value::Str(unit.into()))]),
                    )
                })
                .collect()),
        ),
        ("detail", detail),
    ]);
    let path = out.join(format!("result-{}-t{}.json", args.workload, u8::from(args.traced)));
    let text = serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;

    if rows.len() != table.len() {
        return Err("a metric is missing from the result".to_string());
    }
    println!("{}", report::result_line(&ops, &rows));
    Ok(ops.failed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("run") => suite::run_all(&argv[1..]),
        Some("aa") => suite::aa(&argv[1..]),
        Some("smoke") => suite::smoke(),
        Some("catalog") => {
            if argv.iter().any(|a| a == "--json") {
                let seconds = suite::run_seconds().unwrap_or(20);
                let json = serde_json::to_string_pretty(&catalog::benchmark_json(seconds));
                println!("{}", json.expect("the table is plain data"));
            } else {
                print!("{}", catalog::catalogue_markdown());
            }
            Ok(true)
        }
        Some(a) if a.starts_with("--") => run_one(&argv),
        _ => Err("usage: esbench --workload W --seed N --seconds S --trace 0|1 | run | aa | smoke | catalog".to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("esbench: {e}");
            ExitCode::from(2)
        }
    }
}
