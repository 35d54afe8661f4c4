//! Property-based tests: the report — diagnostics, typed flows, the oracle
//! inventory — and the SARIF bytes rendered from it are a pure function of
//! the file *set*, never the file *visit order*.
//! The walker feeds files in sorted order, but nothing may depend on that —
//! graph node ids, BFS frontiers, and witness selection all have explicit
//! tie-breaks, and these properties pin them byte-for-byte.

use detlint::{analyze, build_model, sarif, Policy, Report, SourceFile};
use proptest::prelude::*;

/// One planted fixture mini-workspace: `(sources, test files)`.
fn corpus(tree: &str) -> (Vec<SourceFile>, Vec<SourceFile>) {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join(tree);
    detlint::workspace_sources(&root).expect("fixture tree walks")
}

/// Fisher–Yates with an xorshift generator seeded by the property case.
fn shuffle(files: &mut [SourceFile], seed: u64) {
    let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15).max(1);
    for i in (1..files.len()).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        files.swap(i, (s % (i as u64 + 1)) as usize);
    }
}

fn run(files: &[SourceFile], test_files: &[SourceFile]) -> (Report, String) {
    let report = analyze(&build_model(files, test_files), &Policy::workspace_default());
    let bytes = sarif::document(&report.diagnostics);
    (report, bytes)
}

/// Any permutation of `tree`'s source *and* test files yields an equal
/// report and byte-identical SARIF.
fn assert_order_invariant(tree: &str, seed: u64) {
    let (mut files, mut test_files) = corpus(tree);
    let baseline = run(&files, &test_files);
    shuffle(&mut files, seed);
    shuffle(&mut test_files, seed.rotate_left(17));
    assert_eq!(baseline, run(&files, &test_files));
}

proptest! {
    /// Five crates, six flows with witness paths, one stale suppression —
    /// enough structure for an order bug to change the bytes.
    #[test]
    fn taint_fixture_report_is_identical_under_any_file_visit_order(seed in 0u64..u64::MAX) {
        assert_order_invariant("taint_fixtures", seed);
    }

    /// Both oracle-pairing failures, a paired kernel, its test file, and
    /// the oracle checks.
    #[test]
    fn accum_fixture_report_is_identical_under_any_file_visit_order(seed in 0u64..u64::MAX) {
        assert_order_invariant("accum_fixtures", seed);
    }
}
