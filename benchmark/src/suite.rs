//! The commands that run several workloads: each workload runs in a child
//! process of this same binary, so set-up time and peak memory are its own.

use crate::catalog::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, quartiles, spread};
use crate::{find_root, parse_flag};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

/// `run_seconds` of the committed `BENCHMARK.json`.
pub fn run_seconds() -> Option<u64> {
    let text = std::fs::read_to_string(find_root().ok()?.join("BENCHMARK.json")).ok()?;
    match serde_json::from_str::<Value>(&text).ok()?.get_field("run_seconds") {
        Some(Value::U64(n)) => Some(*n),
        _ => None,
    }
}

/// Value and unit of each metric a run printed, by name.
type Reported = BTreeMap<String, (f64, String)>;

/// One child's result: whether it was correct, and its metrics.
#[derive(Debug)]
struct ChildResult {
    correct: bool,
    metrics: Reported,
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::F64(x) => Some(x),
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        _ => None,
    }
}

/// Parse the last line a run printed.
fn parse_result(stdout: &str) -> Result<ChildResult, String> {
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    let v: Value = serde_json::from_str(line).map_err(|e| format!("last line is not JSON: {e}"))?;
    let Value::Map(fields) = &v else { return Err("result is not an object".to_string()) };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    let attempted = v.get_field("attempted").and_then(number).unwrap_or(0.0);
    if attempted < 1.0 {
        return Err("attempted is below 1".to_string());
    }
    let Some(Value::Map(entries)) = v.get_field("metrics") else {
        return Err("metrics is not an object".to_string());
    };
    let mut metrics = BTreeMap::new();
    for (name, entry) in entries {
        let value = entry.get_field("value").and_then(number);
        let unit = entry.get_field("unit").and_then(Value::as_str);
        match (value, unit) {
            (Some(value), Some(unit)) if value.is_finite() => {
                metrics.insert(name.clone(), (value, unit.to_string()));
            }
            _ => return Err(format!("metric {name} has no finite value and unit")),
        }
    }
    Ok(ChildResult { correct: v.get_field("correct") == Some(&Value::Bool(true)), metrics })
}

fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]).args([
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if traced { "1" } else { "0" },
    ]);
    if smoke {
        cmd.arg("--smoke");
    }
    // The child's own table goes to our stderr; its stdout is the result.
    let output = cmd.stderr(std::process::Stdio::inherit()).output().map_err(|e| e.to_string())?;
    let result = parse_result(&String::from_utf8_lossy(&output.stdout))
        .map_err(|e| format!("{workload}: {e} (exit {})", output.status))?;
    if result.correct != output.status.success() {
        return Err(format!("{workload}: exit {} but correct={}", output.status, result.correct));
    }
    Ok(result)
}

/// Every declared metric must be there, finite, in the declared unit.
fn validate(result: &ChildResult, declared: &[(&str, &str)], what: &str) -> Result<(), String> {
    for &(name, unit) in declared {
        match result.metrics.get(name) {
            None => return Err(format!("{what}: metric {name} is missing")),
            Some((_, got)) if got != unit => {
                return Err(format!("{what}: {name} is in {got}, declared {unit}"))
            }
            Some(_) => {}
        }
    }
    if result.metrics.len() != declared.len() {
        return Err(format!(
            "{what}: {} metrics, {} declared",
            result.metrics.len(),
            declared.len()
        ));
    }
    Ok(())
}

/// Names and units as `BENCHMARK.json` on disk declares them.
fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
    let path = find_root()?.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let Some(Value::Seq(items)) = v.get_field(section) else {
        return Err(format!("BENCHMARK.json has no {section}"));
    };
    items
        .iter()
        .map(|m| {
            let name = m.get_field("name").and_then(Value::as_str);
            let unit = m.get_field("unit").and_then(Value::as_str).unwrap_or("");
            name.map(|n| (n.to_string(), unit.to_string())).ok_or(format!("{section}: no name"))
        })
        .collect()
}

fn as_refs(v: &[(String, String)]) -> Vec<(&str, &str)> {
    v.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect()
}

pub fn run_all(args: &[String]) -> Result<bool, String> {
    let seed: u64 = parse_flag(args, "--seed", 1)?;
    let seconds: f64 = parse_flag(args, "--seconds", run_seconds().unwrap_or(20) as f64)?;
    let mut correct = true;
    let mut table: Vec<(String, Reported)> = Vec::new();
    for w in WORKLOADS {
        let r = child(w.name, seed, seconds, false, false)?;
        correct &= r.correct;
        table.push((w.name.to_string(), r.metrics));
    }
    let traced = child(WORKLOADS[0].name, seed, seconds, true, false)?;
    correct &= traced.correct;

    println!("end-to-end, seed {seed}, {seconds} s per workload");
    for m in END_TO_END {
        for (workload, metrics) in &table {
            let (value, unit) = &metrics[m.name];
            println!("  {:<18} {:<16} {value:>14.4} {unit}", m.name, workload);
        }
    }
    println!("per-layer (traced run)");
    for m in PER_LAYER {
        let (value, unit) = &traced.metrics[m.name];
        println!("  {:<34} {value:>14.4} {unit:<8} -> {} on {}", m.name, m.moves, m.on.join(", "));
    }
    println!("{}", if correct { "all output checks passed" } else { "AN OUTPUT CHECK FAILED" });
    Ok(correct)
}

pub fn smoke() -> Result<bool, String> {
    let end_to_end = declared("end_to_end")?;
    let per_layer = declared("per_layer")?;
    let workloads = declared("workloads")?;
    let mut correct = true;
    for (w, _) in &workloads {
        let r = child(w, 1, 0.0, false, true)?;
        validate(&r, &as_refs(&end_to_end), w)?;
        correct &= r.correct;
    }
    let r = child(&workloads[0].0, 1, 0.0, true, true)?;
    validate(&r, &as_refs(&per_layer), "traced run")?;
    correct &= r.correct;
    println!(
        "smoke: {} workloads, {} end-to-end and {} per-layer metrics present, finite, in their units; checks {}",
        workloads.len(),
        end_to_end.len(),
        per_layer.len(),
        if correct { "passed" } else { "FAILED" }
    );
    Ok(correct)
}

/// Relative difference of `b` from `a` in the direction that is worse.
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Run the untraced suite as `sets` interleaved sets of `runs` runs of the
/// same binary and compare the sets' medians against each metric's bound.
pub fn aa(args: &[String]) -> Result<bool, String> {
    let sets: usize = parse_flag(args, "--sets", 2)?;
    let runs: usize = parse_flag(args, "--runs", 5)?;
    let seed: u64 = parse_flag(args, "--seed", 1)?;
    let seconds: f64 = parse_flag(args, "--seconds", run_seconds().unwrap_or(20) as f64)?;
    if sets < 2 || runs < 1 {
        return Err("aa needs --sets >= 2 and --runs >= 1".to_string());
    }
    // values[(workload, metric)][set] = one value per run
    let mut values: BTreeMap<(&str, &str), Vec<Vec<f64>>> = BTreeMap::new();
    let mut correct = true;
    for run in 0..runs {
        for set in 0..sets {
            for w in WORKLOADS {
                let r = child(w.name, seed + run as u64, seconds, false, false)?;
                correct &= r.correct;
                for m in END_TO_END {
                    let slot =
                        values.entry((w.name, m.name)).or_insert_with(|| vec![Vec::new(); sets]);
                    slot[set].push(r.metrics[m.name].0);
                }
            }
        }
    }
    println!("A/A: {sets} interleaved sets x {runs} runs (seeds {seed}..{}), {seconds} s per run, same binary\n", seed + runs as u64 - 1);
    println!("| workload | metric | median A | IQR A | median B | IQR B | spread | B worse by | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut within = true;
    for w in WORKLOADS {
        for m in END_TO_END {
            let per_set = &values[&(w.name, m.name)];
            let (a, b) = (&per_set[0], &per_set[sets - 1]);
            let (qa, qb) = (quartiles(a), quartiles(b));
            let all: Vec<f64> = per_set.iter().flatten().copied().collect();
            let spread = spread(&all);
            let diff = worse_by(median(a), median(b), m.better).max(worse_by(
                median(b),
                median(a),
                m.better,
            ));
            // setup_s is held to the median rule only, as the driver holds it.
            let ok = diff <= m.bound && (m.name == crate::catalog::SETUP_S || spread <= m.bound);
            within &= ok;
            println!(
                "| {} | {} | {:.4} | {:.4} | {:.4} | {:.4} | {:.1} % | {:.1} % | {:.0} % | {} |",
                w.name,
                m.name,
                qa[1],
                qa[2] - qa[0],
                qb[1],
                qb[2] - qb[0],
                spread * 100.0,
                diff * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "OUTSIDE" }
            );
        }
    }
    println!(
        "\n{}",
        if within && correct {
            "A/A passed: every difference is within its bound."
        } else {
            "A/A FAILED."
        }
    );
    Ok(within && correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_are_parsed_and_validated() {
        let line = "noise\n{\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{\"a\":{\"value\":1.5,\"unit\":\"ms\"},\"b\":{\"value\":2,\"unit\":\"count\"}}}\n";
        let r = parse_result(line).unwrap();
        assert!(r.correct);
        assert_eq!(r.metrics["b"], (2.0, "count".to_string()));
        assert!(validate(&r, &[("a", "ms"), ("b", "count")], "t").is_ok());
        assert!(validate(&r, &[("a", "us"), ("b", "count")], "t")
            .unwrap_err()
            .contains("declared us"));
        assert!(validate(&r, &[("a", "ms")], "t").unwrap_err().contains("2 metrics, 1 declared"));
        assert!(validate(&r, &[("a", "ms"), ("c", "s")], "t")
            .unwrap_err()
            .contains("c is missing"));
        assert!(parse_result("{\"correct\":true}").unwrap_err().contains("keys"));
        assert!(parse_result("").is_err());
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert_eq!(worse_by(100.0, 110.0, Better::Lower), 0.1);
        assert_eq!(worse_by(100.0, 90.0, Better::Higher), 0.1);
        assert!(worse_by(100.0, 90.0, Better::Lower) < 0.0);
    }
}
