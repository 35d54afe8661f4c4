//! The rule catalog's self-test: every fixture under `tests/fixtures/`
//! seeds violations on lines marked `VIOLATION`, and detlint must find a
//! violation on exactly those lines — no more (false positives), no fewer
//! (false negatives) — while `detlint::allow` comments suppress exactly
//! their own rule.
//!
//! Fixtures are read as *text* (they are not compiled; some reference
//! types that do not exist) and analyzed as if they lived in a crate that
//! activates the rule under test.

use detlint::{analyze, build_model, Diagnostic, Mode, Policy, SourceFile};

fn findings(fixture: &str, crate_name: &str) -> Vec<Diagnostic> {
    let file = SourceFile {
        crate_name: crate_name.to_string(),
        file: "fixture.rs".to_string(),
        src: fixture.to_string(),
    };
    let report = analyze(&build_model(&[file], &[]), &Policy::workspace_default());
    report.mode(Mode::Leaf).cloned().collect()
}

/// Lines (1-based) carrying a `VIOLATION` marker comment.
fn marked_lines(fixture: &str) -> Vec<u32> {
    fixture
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("VIOLATION"))
        .map(|(i, _)| (i + 1) as u32)
        .collect()
}

/// Distinct finding lines, sorted.
fn finding_lines(findings: &[Diagnostic]) -> Vec<u32> {
    let mut lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
    lines.sort_unstable();
    lines.dedup();
    lines
}

/// Assert the fixture's findings are all `rule` and land exactly on the
/// marked lines.
fn assert_exact(fixture: &str, crate_name: &str, rule: &str) {
    let found = findings(fixture, crate_name);
    assert!(!found.is_empty(), "{rule}: fixture must trigger");
    for f in &found {
        assert_eq!(f.rule, rule, "unexpected rule {} at line {}: {}", f.rule, f.line, f.message);
    }
    assert_eq!(
        finding_lines(&found),
        marked_lines(fixture),
        "{rule}: findings must match the VIOLATION markers exactly"
    );
}

#[test]
fn no_hash_iter_fires_on_marked_lines_only() {
    assert_exact(include_str!("fixtures/hash_iter.rs"), "sched", "no-hash-iter");
}

#[test]
fn no_wall_clock_fires_on_marked_lines_only() {
    assert_exact(include_str!("fixtures/wall_clock.rs"), "core", "no-wall-clock");
}

#[test]
fn no_thread_order_fires_on_marked_lines_only() {
    assert_exact(include_str!("fixtures/thread_order.rs"), "comm", "no-thread-order");
}

#[test]
fn no_float_key_sort_fires_on_marked_lines_only() {
    assert_exact(include_str!("fixtures/float_key_sort.rs"), "sched", "no-float-key-sort");
}

#[test]
fn unused_suppression_fires_on_marked_lines_only() {
    assert_exact(include_str!("fixtures/unused_allow.rs"), "core", "unused-suppression");
}

#[test]
fn clean_fixture_stays_clean_under_the_harshest_crate() {
    // `tensor` activates the deterministic-path and wall-clock rules at
    // once; the canary fixture must survive all of them.
    let found = findings(include_str!("fixtures/clean.rs"), "tensor");
    assert!(found.is_empty(), "false positives: {found:?}");
}

#[test]
fn test_modules_are_exempt() {
    assert!(findings(include_str!("fixtures/test_mod.rs"), "core").is_empty());
    let visible = "#[cfg(test)]\npub(crate) mod support {\n    \
                   pub fn t() { let _ = std::time::Instant::now(); }\n}\n";
    assert!(findings(visible, "core").is_empty(), "{:?}", findings(visible, "core"));
}

#[test]
fn an_order_parameterized_kernel_returning_an_array_is_exempt() {
    // The `;` of `[f32; 1]` is inside the signature, not its end.
    let src = "pub fn k(p: &KernelProfile, xs: &[f32]) -> [f32; 1] { [xs.iter().sum::<f32>()] }\n";
    assert!(findings(src, "tensor").is_empty(), "{:?}", findings(src, "tensor"));
}

#[test]
fn allow_comment_suppresses_only_its_own_rule() {
    // Two different violations on the same line; the allow names one rule.
    let src = "// detlint::allow(no-wall-clock): timing only\n\
               fn f() { let t = std::time::Instant::now(); let r = rx.recv(); }\n";
    let found = findings(src, "core");
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, "no-thread-order");

    // Naming both rules in one allow suppresses both.
    let src2 = "// detlint::allow(no-wall-clock, no-thread-order): audited\n\
                fn f() { let t = std::time::Instant::now(); let r = rx.recv(); }\n";
    assert!(findings(src2, "core").is_empty());
}

#[test]
fn every_catalog_rule_has_a_fixture_exercising_it() {
    let all: std::collections::BTreeSet<&str> = [
        findings(include_str!("fixtures/hash_iter.rs"), "sched"),
        findings(include_str!("fixtures/wall_clock.rs"), "core"),
        findings(include_str!("fixtures/thread_order.rs"), "comm"),
        findings(include_str!("fixtures/float_key_sort.rs"), "sched"),
        findings(include_str!("fixtures/unused_allow.rs"), "core"),
    ]
    .iter()
    .flatten()
    .map(|f| f.rule)
    .collect();
    let catalog: std::collections::BTreeSet<&str> =
        detlint::rules::CATALOG.iter().filter(|r| r.mode == Mode::Leaf).map(|r| r.name).collect();
    assert_eq!(all, catalog, "catalog coverage");
}
