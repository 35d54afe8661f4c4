//! Tier-1 gate: the live workspace is concurrency-clean. No unsealed
//! drains, no handles minted after seal, no raw channel construction
//! outside the audited fence modules, no receive outside a declared drain,
//! no engine<->worker blocking cycle, no lock-order inversion — and every
//! declared taint barrier is either verified canonical by the conformance
//! pass or carries an audited `barrier-unverified` allow.

use detlint::{analyze_workspace, report, Mode, Report, Severity};
use std::path::Path;

fn run() -> Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    analyze_workspace(root).expect("workspace walks")
}

#[test]
fn workspace_has_no_concurrency_findings() {
    let rep = run();
    assert!(
        rep.mode(Mode::Concur).all(|d| d.severity == Severity::Warning),
        "concurrency findings in the live workspace:\n{}",
        report::human(&rep)
    );
}

#[test]
fn every_declared_barrier_is_verified_or_audited() {
    // Unverifiable barriers surface as warnings only when audited; the
    // exactly-one warning is worker_main, whose canonical order lives in
    // the engine-side drains, not its own body (see the allow's reason).
    let rep = run();
    // Match structurally (kind + file + the fn the message names), not by
    // line number: the pool is allowed to grow without rebaselining this.
    let warnings: Vec<_> =
        rep.mode(Mode::Concur).filter(|d| d.severity == Severity::Warning).collect();
    assert_eq!(warnings.len(), 1, "audited-barrier set drifted:\n{}", report::human(&rep));
    let w = warnings[0];
    assert_eq!(w.rule, "barrier-unverified");
    assert_eq!(w.file, "crates/core/src/pool.rs");
    assert!(w.message.contains("worker_main"), "warning names the audited barrier: {}", w.message);
}

#[test]
fn role_inference_covers_the_pool_and_keeps_roles_disjoint() {
    // The satellite contract: every fn reachable from worker_main gets the
    // worker role and never the engine role, on the *live* call graph.
    let rep = run();
    assert!(
        rep.worker_fns.iter().any(|f| f == "core::worker_main"),
        "worker_main must root the worker role: {:?}",
        rep.worker_fns
    );
    assert!(!rep.worker_fns.is_empty() && !rep.engine_fns.is_empty());
    for w in &rep.worker_fns {
        assert!(!rep.engine_fns.contains(w), "`{w}` assigned both roles");
    }
    // The worker's command receive is the one idle wait in the tree.
    let idle: Vec<_> = rep.blocking.iter().filter(|o| o.idle).collect();
    assert_eq!(idle.len(), 1, "{:?}", rep.blocking);
    assert_eq!(idle[0].func, "core::worker_main");
    assert_eq!(idle[0].role, "worker");
}
