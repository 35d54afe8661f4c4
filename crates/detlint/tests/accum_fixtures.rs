//! The accumulation pass's self-test: a planted mini-workspace under
//! `tests/accum_fixtures/crates/` seeds every finding kind — four
//! reassociation shapes (reversed lane merge, in-loop chain merge, chunked
//! fold, reshaped-iterator fold), the safe lockstep shape, an unpaired
//! kernel, a paired-but-untested kernel, a fully paired kernel, a used
//! allow, and a stale allow. The report must match the planted set
//! *exactly* — kind, file, line — with nothing extra.
//!
//! (That the pass guards the *live* `tensor::kernels`, not just fixtures
//! shaped like it, is the mutation harness's job:
//! `tests/detlint_mutations.rs`.)

use detlint::{analyze_workspace, Diagnostic, Mode, Report};
use std::path::Path;

fn run() -> Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/accum_fixtures");
    analyze_workspace(&root).expect("fixture tree walks")
}

/// The accumulation analysis's findings (stale allows aside).
fn findings(rep: &Report) -> Vec<&Diagnostic> {
    rep.mode(Mode::Accum).filter(|d| d.rule != "unused-suppression").collect()
}

const LIB: &str = "crates/tensor/src/lib.rs";

#[test]
fn planted_findings_are_reported_exactly() {
    let rep = run();
    let got: Vec<(&str, &str, u32)> =
        findings(&rep).iter().map(|f| (f.rule, f.file.as_str(), f.line)).collect();
    // `reversed_merge` fires twice on purpose: the post-loop reversed lane
    // merge (anchored at the loop) and the order-dependent `.rev().sum()`
    // fold itself (anchored at the fold line) are two independent lenses on
    // the same defect.
    let expected: Vec<(&str, &str, u32)> = vec![
        ("float-reassoc", LIB, 37),
        ("float-reassoc", LIB, 42),
        ("float-reassoc", LIB, 50),
        ("float-reassoc", LIB, 61),
        ("float-reassoc", LIB, 70),
        ("oracle-unpaired", LIB, 88),
        ("oracle-unpaired", LIB, 98),
    ];
    assert_eq!(got, expected, "full report:\n{}", detlint::report::human(&rep));
}

#[test]
fn messages_and_spans_witness_each_shape() {
    let rep = run();
    let found = findings(&rep);
    let find = |line: u32| {
        *found.iter().find(|f| f.line == line).unwrap_or_else(|| panic!("finding at {line}"))
    };
    let reversed = find(37);
    assert!(reversed.message.contains("reverse index order"), "{}", reversed.message);
    assert!(
        reversed.related.iter().any(|s| s.label == "reversed-merge" && s.line == 42),
        "{:?}",
        reversed.related
    );
    let entangled = find(50);
    assert!(entangled.message.contains("`a` and `b`"), "{}", entangled.message);
    assert!(
        entangled.related.iter().any(|s| s.label == "merge-write" && s.line == 52),
        "{:?}",
        entangled.related
    );
    let chunked = find(61);
    assert!(chunked.message.contains("remainder chunk"), "{}", chunked.message);
    let reshaped = find(70);
    assert!(reshaped.message.contains("reshaped by `chunks`"), "{}", reshaped.message);
    let unpaired = find(88);
    assert!(unpaired.message.contains("no `blocked_sum_scalar` oracle"), "{}", unpaired.message);
    let untested = find(98);
    assert!(untested.message.contains("never exercised together"), "{}", untested.message);
}

#[test]
fn loop_inventory_classifies_the_safe_shapes() {
    let rep = run();
    let class_at = |line: u32| rep.loops.iter().find(|l| l.line == line).map(|l| l.class);
    assert_eq!(class_at(10), Some("single-chain"), "{:?}", rep.loops);
    assert_eq!(class_at(21), Some("lockstep"), "`lanes` must classify lockstep: {:?}", rep.loops);
}

#[test]
fn oracle_inventory_and_suppression_accounting_are_exact() {
    let rep = run();
    let by_kernel = |k: &str| rep.oracles.iter().find(|o| o.kernel == k);
    let dot = by_kernel("dot").expect("dot is a subject");
    assert!(dot.scalar_found && dot.tested_together, "{dot:?}");
    let blocked = by_kernel("blocked_sum").expect("blocked_sum is a subject");
    assert!(!blocked.scalar_found, "{blocked:?}");
    let matmul = by_kernel("matmul").expect("matmul is a subject");
    assert!(matmul.scalar_found && !matmul.tested_together, "{matmul:?}");
    // `dot_scalar` / `matmul_scalar` are oracles, never subjects.
    assert!(by_kernel("dot_scalar").is_none() && by_kernel("matmul_scalar").is_none());
    // Exactly one stale allow (`inert`); the audited one at the fold counted
    // as used.
    let unused: Vec<_> = rep.mode(Mode::Accum).filter(|d| d.rule == "unused-suppression").collect();
    assert_eq!(unused.len(), 1, "{unused:?}");
    assert_eq!(unused[0].line, 82);
}
