//! Cross-commit oracle for detlint's whole output: FNV-1a-64 digests of the
//! `Report` Debug rendering and of the SARIF bytes, for each planted fixture
//! tree and for each leaf fixture analysed as a file of every crate directory
//! (the policy-scoping matrix). A refactor of how the analyses find fns,
//! scopes or hits must leave every digest where it is.
//!
//! Also holds the committed SARIF sample that `crates/bench` checks for
//! shape to the document the accum tree renders today, byte for byte.
//!
//! On a mismatch the test prints the table it computed, ready to paste — but
//! a changed digest is a behaviour change and has to be explained, not
//! pasted.

use detlint::{analyze, analyze_workspace, build_model, sarif, Policy, SourceFile};
use std::path::PathBuf;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn digest(parts: &[&str]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in parts {
        fnv(&mut h, p.as_bytes());
    }
    h
}

fn here() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Every directory name under `crates/`: the leaf rules scope by it.
#[rustfmt::skip]
const CRATES: [&str; 15] = [
    "baselines", "bench", "comm", "core", "data", "detlint", "device", "esrng", "faultsim",
    "models", "obs", "optim", "sched", "tensor", "trace",
];

/// `(tree, [Report Debug, SARIF])`, taken when the concurrency pass,
/// `no-adhoc-rng`, `no-raw-float-accum` and `float-reassoc` were retired
/// (`kept_rules_golden.rs` shows the kept rules' findings did not move).
#[rustfmt::skip]
const TREES: &[(&str, &[u64])] = &[
    ("accum_fixtures", &[0x21c808071ee4af6e, 0xe087a4066ed37aa0]),
    ("taint_fixtures", &[0x1993d81bf27b27e8, 0x9412c76b236fae38]),
];

/// `(fixture, [Report Debug of the file under each of CRATES in order])`,
/// taken at the same retirement.
#[rustfmt::skip]
const LEAF: &[(&str, &[u64])] = &[
    ("clean.rs", &[0xd46d23618575db9b]),
    ("float_key_sort.rs", &[0x5c14eda6f0219fb1]),
    ("hash_iter.rs", &[0x2ca8c0cc7ea5acb4]),
    ("test_mod.rs", &[0xd46d23618575db9b]),
    ("thread_order.rs", &[0xcfe44730923f83f5]),
    ("unused_allow.rs", &[0x409f81230eb894e2]),
    ("wall_clock.rs", &[0x091c3783e438464e]),
];

fn check(what: &str, expected: &[(&str, &[u64])], actual: &[(&str, Vec<u64>)]) {
    let same = expected.len() == actual.len()
        && expected.iter().zip(actual).all(|(e, a)| e.0 == a.0 && e.1 == a.1.as_slice());
    if !same {
        let rows: String = actual
            .iter()
            .map(|(name, d)| {
                let d: Vec<String> = d.iter().map(|x| format!("0x{x:016x}")).collect();
                format!("    (\"{name}\", &[{}]),\n", d.join(", "))
            })
            .collect();
        panic!("report_golden: {what} digests moved. Computed:\n{rows}");
    }
}

#[test]
fn fixture_tree_reports_and_sarif_are_pinned() {
    let actual: Vec<(&str, Vec<u64>)> = TREES
        .iter()
        .map(|&(tree, ..)| {
            let rep = analyze_workspace(&here().join("tests").join(tree)).expect("tree walks");
            let doc = sarif::document(&rep.diagnostics);
            (tree, vec![digest(&[&format!("{rep:?}")]), digest(&[&doc])])
        })
        .collect();
    check("fixture tree", TREES, &actual);
}

#[test]
fn leaf_fixtures_are_pinned_under_every_crate() {
    let dir = here().join("tests/fixtures");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let policy = Policy::workspace_default();
    let actual: Vec<(&str, Vec<u64>)> = names
        .iter()
        .map(|name| {
            let src = std::fs::read_to_string(dir.join(name)).expect("fixture reads");
            let reports: Vec<String> = CRATES
                .iter()
                .map(|c| {
                    let f = SourceFile {
                        crate_name: c.to_string(),
                        file: format!("crates/{c}/src/{name}"),
                        src: src.clone(),
                    };
                    format!("{:?}", analyze(&build_model(&[f], &[]), &policy))
                })
                .collect();
            let parts: Vec<&str> = reports.iter().map(String::as_str).collect();
            (name.as_str(), vec![digest(&parts)])
        })
        .collect();
    check("leaf fixture", LEAF, &actual);
}

#[test]
fn committed_sarif_sample_is_the_accum_tree_document() {
    let rep = analyze_workspace(&here().join("tests/accum_fixtures")).expect("tree walks");
    let sample = here().join("../bench/tests/fixtures/detlint.sarif");
    let committed = std::fs::read_to_string(&sample).expect("sample reads");
    assert!(committed == sarif::document(&rep.diagnostics), "{} drifted", sample.display());
}
