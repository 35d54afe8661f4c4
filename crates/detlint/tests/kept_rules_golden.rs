//! What the rules that stay report, pinned before the concurrency pass,
//! `no-adhoc-rng`, `no-raw-float-accum` and `float-reassoc` were retired
//! (docs/DETLINT.md, "Retired rules"): per kept rule — `taint-flow` per
//! kept source kind — one FNV-1a-64 digest of its diagnostics, rendered
//! field by field, for every file of every fixture tree, for every leaf
//! fixture analysed as a file of each crate directory, and for the live
//! tree. 0 stands for "no diagnostic".
//!
//! A retirement may delete an input — a row whose file is gone is skipped,
//! since a deleted file reports nothing — but it may not move a digest of
//! one that stays. On a mismatch the test prints the table it computed.

use detlint::{analyze, analyze_workspace, build_model, Diagnostic, Policy, SourceFile};
use std::path::PathBuf;

/// The pinned columns: each kept rule, `taint-flow` split by source kind
/// (its message starts with the kind).
const COLUMNS: [(&str, &str); 9] = [
    ("no-hash-iter", ""),
    ("no-wall-clock", ""),
    ("no-thread-order", ""),
    ("no-float-key-sort", ""),
    ("unused-suppression", ""),
    ("taint-flow", "hash-iter ->"),
    ("taint-flow", "wall-clock ->"),
    ("taint-flow", "thread-order ->"),
    ("oracle-unpaired", ""),
];

/// Every directory name under `crates/`: the leaf rules scope by it.
#[rustfmt::skip]
const CRATES: [&str; 15] = [
    "baselines", "bench", "comm", "core", "data", "detlint", "device", "esrng", "faultsim",
    "models", "obs", "optim", "sched", "tensor", "trace",
];

/// `(input, digest per column)`: `tree/file` for a fixture tree's files,
/// `fixtures/name` for a leaf fixture under every crate, `live` for the
/// workspace itself.
#[rustfmt::skip]
const PINNED: &[(&str, [u64; 9])] = &[
    ("accum_fixtures/crates/tensor/src/lib.rs", [0, 0, 0, 0, 0, 0, 0, 0, 0xbd734c21287ced38]),
    ("accum_fixtures/crates/tensor/src/loops.rs", [0, 0, 0, 0, 0xa10a5df9f0ea58b6, 0, 0, 0, 0]),
    ("concur_fixtures/crates/comm/src/lib.rs", [0, 0, 0x07bd753e6e4649a7, 0, 0, 0, 0, 0, 0]),
    ("concur_fixtures/crates/core/src/lib.rs", [0, 0, 0x6f2a1a906c293c8a, 0, 0x994cecbe221fb96f, 0, 0, 0, 0]),
    ("taint_fixtures/crates/comm/src/lib.rs", [0, 0, 0x0a9088fef29ac454, 0, 0, 0, 0, 0x50c094f871dd5d57, 0x59b18adea45da91a]),
    ("taint_fixtures/crates/core/src/lib.rs", [0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("taint_fixtures/crates/obs/src/lib.rs", [0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("taint_fixtures/crates/optim/src/lib.rs", [0, 0x7b3ed8fd977393e6, 0, 0, 0, 0, 0x3ccdc70b332b1676, 0, 0]),
    ("taint_fixtures/crates/sched/src/lib.rs", [0xc2f2edfaf3c90ea0, 0xc6e5d60608fc04a4, 0, 0, 0x4ed192c80ab0eb5d, 0x27b719a6b05fd528, 0, 0, 0]),
    ("fixtures/adhoc_rng.rs", [0, 0, 0, 0, 0xae32f9c80430c3e8, 0, 0, 0, 0]),
    ("fixtures/clean.rs", [0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("fixtures/float_accum.rs", [0, 0, 0, 0, 0x6cae80dc01f74211, 0, 0, 0, 0]),
    ("fixtures/float_key_sort.rs", [0, 0, 0, 0xdd7274f1dd4a1c5e, 0x5b6750a9fe6ad154, 0, 0, 0, 0]),
    ("fixtures/hash_iter.rs", [0x62509e5cc7c0b64a, 0, 0, 0, 0x63741ded78703b24, 0, 0, 0, 0]),
    ("fixtures/test_mod.rs", [0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("fixtures/thread_order.rs", [0, 0, 0xa947040763ae7c65, 0, 0xf33be622e2019544, 0, 0, 0, 0]),
    ("fixtures/unused_allow.rs", [0, 0, 0, 0, 0x2e7c5a511d679819, 0, 0, 0, 0]),
    ("fixtures/wall_clock.rs", [0, 0x42fe52aac23eb5c6, 0, 0, 0xe3b0d8f49252dcfb, 0, 0, 0, 0]),
    ("live", [0, 0, 0, 0, 0, 0, 0, 0, 0]),
];

fn fnv(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// One diagnostic, without the analysis it came from: a retired rule's
/// stale allow token moves to the leaf analysis, its text does not.
fn render(d: &Diagnostic) -> String {
    let mut s = format!("{}:{}: [{}/{}] {}\n", d.file, d.line, d.rule, d.level, d.message);
    for r in &d.related {
        s += &format!("  {} ({}:{})\n", r.label, r.file, r.line);
    }
    s
}

fn digests<'a>(diagnostics: impl Iterator<Item = &'a Diagnostic> + Clone) -> [u64; 9] {
    COLUMNS.map(|(rule, kind)| {
        let text: String = diagnostics
            .clone()
            .filter(|d| d.rule == rule && d.message.starts_with(kind))
            .map(render)
            .collect();
        if text.is_empty() {
            0
        } else {
            fnv(text.as_bytes())
        }
    })
}

fn here() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn actual() -> Vec<(String, [u64; 9])> {
    let mut rows = Vec::new();
    for tree in ["accum_fixtures", "concur_fixtures", "taint_fixtures"] {
        let root = here().join("tests").join(tree);
        if !root.exists() {
            continue;
        }
        let (files, _) = detlint::workspace_sources(&root).expect("tree walks");
        let rep = analyze_workspace(&root).expect("tree walks");
        for f in &files {
            let row = digests(rep.diagnostics.iter().filter(|d| d.file == f.file));
            rows.push((format!("{tree}/{}", f.file), row));
        }
    }
    let dir = here().join("tests/fixtures");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let policy = Policy::workspace_default();
    for name in names {
        let src = std::fs::read_to_string(dir.join(&name)).expect("fixture reads");
        let all: Vec<Diagnostic> = CRATES
            .iter()
            .flat_map(|c| {
                let f = SourceFile {
                    crate_name: c.to_string(),
                    file: format!("crates/{c}/src/{name}"),
                    src: src.clone(),
                };
                analyze(&build_model(&[f], &[]), &policy).diagnostics
            })
            .collect();
        rows.push((format!("fixtures/{name}"), digests(all.iter())));
    }
    let live = analyze_workspace(&here().join("../..")).expect("workspace walks");
    rows.push(("live".to_string(), digests(live.diagnostics.iter())));
    rows
}

#[test]
fn kept_rules_report_what_they_reported_before_the_retirement() {
    let rows = actual();
    let same = rows.iter().all(|(input, row)| PINNED.iter().any(|(k, p)| k == input && p == row));
    if !same {
        let table: String = rows
            .iter()
            .map(|(input, row)| {
                let hex: Vec<String> = row
                    .iter()
                    .map(|&x| if x == 0 { "0".to_string() } else { format!("0x{x:016x}") })
                    .collect();
                format!("    (\"{input}\", [{}]),\n", hex.join(", "))
            })
            .collect();
        panic!("kept-rule digests moved or an input has no row. Computed:\n{table}");
    }
}
