//! The concurrency analysis's self-test: a planted mini-workspace under
//! `tests/concur_fixtures/crates/` seeds one violation of each class —
//! fake barrier, unsealed drain, send-after-seal, engine<->worker blocking
//! cycle (with both witness paths), order leak, raw channel, and an
//! interprocedural lock inversion — plus an audited `barrier-unverified`
//! allow (demoted to a warning) and a stale allow. The report must match
//! the planted set *exactly*: every finding, its anchor, its witness
//! paths, and nothing else.

use detlint::{analyze_workspace, Diagnostic, Mode, Report, Severity};
use std::path::Path;

fn run() -> Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/concur_fixtures");
    analyze_workspace(&root).expect("fixture tree walks")
}

/// The concurrency analysis's gate-failing findings (stale allows aside).
fn findings(rep: &Report) -> Vec<&Diagnostic> {
    rep.mode(Mode::Concur)
        .filter(|d| d.severity == Severity::Error && d.rule != "unused-suppression")
        .collect()
}

/// Its audited, non-gating warnings.
fn warnings(rep: &Report) -> Vec<&Diagnostic> {
    rep.mode(Mode::Concur).filter(|d| d.severity == Severity::Warning).collect()
}

/// Its stale-allow diagnostics.
fn unused_suppressions(rep: &Report) -> Vec<&Diagnostic> {
    rep.mode(Mode::Concur).filter(|d| d.rule == "unused-suppression").collect()
}

#[test]
fn planted_findings_are_reported_exactly() {
    let rep = run();
    let got: Vec<(&str, String, u32)> =
        findings(&rep).iter().map(|f| (f.rule, f.file.clone(), f.line)).collect();
    let s = |x: &str| x.to_string();
    let expected = vec![
        ("barrier-unverified", s("crates/comm/src/lib.rs"), 18),
        ("unsealed-drain", s("crates/comm/src/lib.rs"), 27),
        ("send-after-seal", s("crates/comm/src/lib.rs"), 34),
        ("blocking-cycle", s("crates/core/src/lib.rs"), 37),
        ("order-leak", s("crates/core/src/lib.rs"), 37),
        ("raw-channel", s("crates/core/src/lib.rs"), 42),
        ("lock-inversion", s("crates/core/src/lib.rs"), 50),
    ];
    assert_eq!(got, expected, "planted findings must be reported exactly: {:#?}", findings(&rep));
}

#[test]
fn blocking_cycle_carries_both_witness_paths() {
    let rep = run();
    let found = findings(&rep);
    let cycle = found.iter().find(|f| f.rule == "blocking-cycle").expect("planted cycle is found");
    // Engine witness, then worker witness.
    let hops: Vec<&str> = cycle.related.iter().map(|h| h.label.as_str()).collect();
    let (engine, worker) = hops.split_at(1);
    assert_eq!(engine, ["core::Engine::step"]);
    assert_eq!(worker, ["core::worker_main", "core::handle_cmd", "core::wait_for_ack"]);
    // Last hop of the worker path anchors at the blocking op itself.
    assert_eq!(cycle.related.last().unwrap().line, 37);
}

#[test]
fn lock_inversion_message_cites_both_orders() {
    let rep = run();
    let found = findings(&rep);
    let inv =
        found.iter().find(|f| f.rule == "lock-inversion").expect("planted inversion is found");
    assert!(inv.message.contains("`alpha` -> `beta`"), "{}", inv.message);
    assert!(inv.message.contains("`beta` -> `alpha`"), "{}", inv.message);
}

#[test]
fn audited_barrier_allow_demotes_to_warning() {
    let rep = run();
    let warnings = warnings(&rep);
    assert_eq!(warnings.len(), 1, "{warnings:?}");
    assert_eq!(warnings[0].rule, "barrier-unverified");
    assert_eq!(warnings[0].file, "crates/core/src/lib.rs");
    assert_eq!(warnings[0].line, 23);
    // The audited fn must not also appear as a gate-failing finding.
    assert!(!findings(&rep)
        .iter()
        .any(|f| f.rule == "barrier-unverified" && f.file == "crates/core/src/lib.rs"));
}

#[test]
fn stale_concur_allow_is_reported_and_used_one_is_not() {
    let rep = run();
    let unused = unused_suppressions(&rep);
    assert_eq!(unused.len(), 1, "{unused:?}");
    let stale = unused[0];
    assert_eq!(stale.file, "crates/core/src/lib.rs");
    assert_eq!(stale.line, 67);
    // The used barrier allow (line 22) must not be flagged stale.
    assert!(!rep.diagnostics.iter().any(|f| f.rule == "unused-suppression" && f.line == 22));
}

#[test]
fn roles_and_blocking_inventory_cover_the_fixture() {
    let rep = run();
    assert!(rep.worker_fns.iter().any(|f| f == "core::worker_main"));
    assert!(rep.worker_fns.iter().any(|f| f == "core::wait_for_ack"));
    assert!(rep.engine_fns.iter().any(|f| f == "core::Engine::step"));
    for w in &rep.worker_fns {
        assert!(!rep.engine_fns.contains(w), "roles must be disjoint: {w}");
    }
    // The worker's command receive is inventoried as the idle wait.
    let idle: Vec<_> = rep.blocking.iter().filter(|o| o.idle).collect();
    assert_eq!(idle.len(), 1, "{:?}", rep.blocking);
    assert_eq!(idle[0].func, "core::worker_main");
    assert_eq!(idle[0].role, "worker");
    // The engine's drain wait is engine-role and non-idle.
    assert!(rep
        .blocking
        .iter()
        .any(|o| o.role == "engine" && o.op == "drain:drain_deadline" && !o.idle));
}
