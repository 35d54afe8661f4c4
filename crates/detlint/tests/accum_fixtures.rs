//! The oracle-pairing pass's self-test: a planted mini-workspace under
//! `tests/accum_fixtures/crates/` seeds an unpaired kernel, a
//! paired-but-untested kernel and a fully paired kernel. The report must
//! match the planted set *exactly* — kind, file, line — with nothing extra.
//!
//! (That the pass guards the *live* kernels, not just fixtures shaped like
//! them, is the mutation harness's job: `tests/detlint_mutations.rs`.)

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
    let found = findings(&rep);
    let got: Vec<(&str, &str, u32)> =
        found.iter().map(|f| (f.rule, f.file.as_str(), f.line)).collect();
    let expected: Vec<(&str, &str, u32)> =
        vec![("oracle-unpaired", LIB, 6), ("oracle-unpaired", LIB, 16)];
    assert_eq!(got, expected, "full report:\n{}", detlint::report::human(&rep));
    assert!(found[0].message.contains("no `blocked_sum_scalar` oracle"), "{}", found[0].message);
    assert!(found[1].message.contains("never exercised together"), "{}", found[1].message);
}

#[test]
fn oracle_inventory_is_exact() {
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
}
