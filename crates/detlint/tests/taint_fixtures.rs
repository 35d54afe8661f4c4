//! The taint analysis's self-test: a planted mini-workspace under
//! `tests/taint_fixtures/crates/` (crate names mirror the real workspace
//! so the default sink/barrier policy applies) seeds one flow of each
//! shape — direct source-in-sink, multi-hop intra-crate, cross-crate
//! through a tainted caller — plus absorbed sources (barrier crate,
//! barrier fn), randomness that is not a source, a used kind-scoped allow,
//! and a stale allow. The report
//! must match the planted set *exactly*: every flow, with its full
//! witness path, and nothing else.

use detlint::{analyze_workspace, Diagnostic, Mode, Report};
use std::path::Path;

fn run() -> Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/taint_fixtures");
    analyze_workspace(&root).expect("fixture tree walks")
}

/// The taint analysis's stale-allow diagnostics.
fn unused_suppressions(rep: &Report) -> Vec<&Diagnostic> {
    rep.mode(Mode::Taint).filter(|d| d.rule == "unused-suppression").collect()
}

#[test]
fn planted_flows_are_reported_exactly() {
    let rep = run();
    let got: Vec<(String, String, u32, String, Vec<String>)> = rep
        .flows
        .iter()
        .map(|f| {
            (
                f.source_kind.clone(),
                f.source_file.clone(),
                f.source_line,
                f.sink_fn.clone(),
                f.path.iter().map(|h| h.func.clone()).collect(),
            )
        })
        .collect();

    let s = |x: &str| x.to_string();
    let expected = vec![
        (
            s("thread-order"),
            s("crates/comm/src/lib.rs"),
            6,
            s("comm::ring_allreduce"),
            vec![s("comm::raw_merge"), s("comm::ring_allreduce")],
        ),
        (
            s("wall-clock"),
            s("crates/optim/src/lib.rs"),
            8,
            s("core::save"),
            vec![s("optim::Sgd::step"), s("core::train_loop"), s("core::save")],
        ),
        (
            s("wall-clock"),
            s("crates/optim/src/lib.rs"),
            8,
            s("optim::Sgd::step"),
            vec![s("optim::Sgd::step")],
        ),
        (
            s("hash-iter"),
            s("crates/sched/src/lib.rs"),
            9,
            s("sched::decide"),
            vec![s("sched::weigh"), s("sched::plan"), s("sched::decide")],
        ),
    ];
    assert_eq!(got, expected, "planted flows must be reported exactly");
}

#[test]
fn stale_taint_allow_is_reported_and_used_one_is_not() {
    let rep = run();
    let unused = unused_suppressions(&rep);
    assert_eq!(unused.len(), 1, "{unused:?}");
    let stale = unused[0];
    assert_eq!(stale.file, "crates/sched/src/lib.rs");
    assert_eq!(stale.line, 34);
    // The used allow (sched::stamped, taint-wall-clock) must NOT appear —
    // and the source it covers must produce no flow (checked above by the
    // exact-match assertion, which has no sched::proposals flow).
    assert!(!rep.diagnostics.iter().any(|f| f.rule == "unused-suppression" && f.line == 25));
}
