//! `figs <name>… | all` — every table, figure and ablation of EXPERIMENTS.md
//! from one binary. Each entry prints its table, `assert!`s its paper-shape
//! claims (a regressed shape is a panic, exit 101), hands back the rows for
//! `results/<name>.json` and ends on the summary line EXPERIMENTS.md quotes;
//! `all` also writes those lines to `results/measured.json`.
//!
//! Exit codes: 0 done, 1 a result file could not be written, 2 usage.

mod ablations;
mod cluster;
mod micro;
mod motivation;

use bench::{Fig, FigError, Value};
use std::path::Path;
use std::process::ExitCode;

type Entry = (&'static str, fn() -> Fig);

/// Every experiment, in EXPERIMENTS.md order.
const FIGS: &[Entry] = &[
    ("fig01_serving_load", motivation::fig01_serving_load),
    ("fig02_accuracy_curves", motivation::fig02_accuracy_curves),
    ("fig03_per_class", motivation::fig03_per_class),
    ("fig04_gamma", motivation::fig04_gamma),
    ("tab01_workloads", micro::tab01_workloads),
    ("fig09_loss_consistency", micro::fig09_loss_consistency),
    ("fig10_packing", micro::fig10_packing),
    ("fig11_ctx_switch", micro::fig11_ctx_switch),
    ("fig12_determinism_overhead", micro::fig12_determinism_overhead),
    ("fig13_grad_copy", micro::fig13_grad_copy),
    ("exp_data_sharing", micro::exp_data_sharing),
    ("exp_rescale_split", micro::exp_rescale_split),
    ("fig14_trace_jct", cluster::fig14_trace_jct),
    ("fig15_alloc_timeline", cluster::fig15_alloc_timeline),
    ("exp_plan_model", cluster::exp_plan_model),
    ("fig16_colocation", cluster::fig16_colocation),
    ("abl_bucket_cap", ablations::abl_bucket_cap),
    ("abl_overlap", ablations::abl_overlap),
    ("abl_est_balance", ablations::abl_est_balance),
];

/// Run `selected`, write what they track under `dir`; with `all`, the
/// summary lines too.
fn run(selected: &[&Entry], all: bool, dir: &Path) -> Result<(), FigError> {
    let mut measured = Vec::new();
    for (name, fig) in selected {
        println!("\n=== {name} ===");
        let fig = fig();
        if let Some(json) = &fig.json {
            bench::write_json(dir, name, json)?;
        }
        println!("{name}: {}", fig.measured);
        measured.push((name.to_string(), Value::Str(fig.measured)));
    }
    if all {
        bench::write_json(dir, "measured", &Value::Map(measured))?;
    }
    Ok(())
}

/// `figs <args>` writing under `dir`; returns the exit code.
fn figs(args: &[String], dir: &Path) -> u8 {
    let all = args.iter().any(|a| a == "all");
    let find = |a: &String| {
        FIGS.iter().find(|(name, _)| name == a).ok_or_else(|| format!("unknown figure `{a}`"))
    };
    let selected: Result<Vec<&Entry>, String> = match args {
        [] => Err("no figure named".to_string()),
        _ if all => Ok(FIGS.iter().collect()),
        _ => args.iter().map(find).collect(),
    };
    match selected.map(|selected| run(&selected, all, dir)) {
        Ok(Ok(())) => 0,
        Ok(Err(e)) => {
            eprintln!("figs: {e}");
            1
        }
        Err(what) => {
            let names: Vec<&str> = FIGS.iter().map(|(name, _)| *name).collect();
            eprintln!("figs: {what}\nusage: figs <name>... | all\nnames: {}", names.join(" "));
            2
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(figs(&args, &bench::results_dir()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_errors_exit_2_and_a_failed_write_exits_1() {
        let dir = std::env::temp_dir();
        assert_eq!(figs(&[], &dir), 2);
        assert_eq!(figs(&["fig99_nope".to_string()], &dir), 2);
        // A `results/` that cannot hold a file: a regular file in its place.
        let not_a_dir = dir.join(format!("figs-results-{}", std::process::id()));
        std::fs::write(&not_a_dir, b"").unwrap();
        assert_eq!(figs(&["tab01_workloads".to_string()], &not_a_dir), 1);
        std::fs::remove_file(&not_a_dir).unwrap();
    }
}
