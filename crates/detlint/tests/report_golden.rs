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

/// `(tree, [Report Debug, SARIF])`, taken on the parent of the one item
/// model (bd6bdf5).
#[rustfmt::skip]
const TREES: &[(&str, &[u64])] = &[
    ("accum_fixtures", &[0xa8cc0b600f409e83, 0x3c2e43d28aa072e1]),
    ("concur_fixtures", &[0x18769262c0da6145, 0x5880d6403e151a7d]),
    ("taint_fixtures", &[0x4019be57a2ab12a9, 0x138eceed9a9ea376]),
];

/// `(fixture, [Report Debug of the file under each of CRATES in order])`,
/// taken on the same parent.
#[rustfmt::skip]
const LEAF: &[(&str, &[u64])] = &[
    ("adhoc_rng.rs", &[0x50dca1869ef7adda]),
    ("clean.rs", &[0x11cc4c2b88acfd12]),
    ("float_accum.rs", &[0x5c31dfcb737f0890]),
    ("float_key_sort.rs", &[0xd393375271ccc57d]),
    ("hash_iter.rs", &[0xcbf9cddb21b9cc2a]),
    ("test_mod.rs", &[0x3fcd4b9294b9ddf7]),
    ("thread_order.rs", &[0x9b6b9a03cbebc1ad]),
    ("unused_allow.rs", &[0x5334c20ff41b6a39]),
    ("wall_clock.rs", &[0x916f00156955ffe8]),
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
