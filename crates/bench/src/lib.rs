//! Shared plumbing for the experiment binaries: result tables printed to
//! stdout and mirrored as JSON under `results/` so EXPERIMENTS.md can be
//! regenerated mechanically.

#![deny(missing_docs)]

use serde::Serialize;
use std::fs;
use std::path::PathBuf;

/// Where experiment JSON lands (`<workspace>/results`).
pub fn results_dir() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir.push("results");
    dir
}

/// Write an experiment's structured result to `results/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                eprintln!("[wrote {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

/// Print a row of fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect::<Vec<_>>().join("  ")
}

/// Print a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_under_workspace() {
        let d = results_dir();
        assert!(d.ends_with("results"));
    }

    #[test]
    fn row_pads_right_aligned() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
