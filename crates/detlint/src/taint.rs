//! Interprocedural determinism-taint analysis.
//!
//! The leaf rules ([`crate::rules`]) say *where* non-determinism enters —
//! a wall-clock read, a hash-table iteration, an ad-hoc RNG draw. This
//! module answers the question that actually decides whether a training
//! run replays bitwise: does that non-determinism **reach state that
//! matters**? Sources are harvested by running the leaf detectors with a
//! permissive scope, mapped onto the fn that contains them, and propagated
//! caller-ward over the workspace call graph ([`crate::callgraph`]). A
//! *flow* is reported when a tainted fn is (or directly calls) a declared
//! **sink** — a parameter update, an allreduce merge, checkpoint
//! serialization, or scheduler proposal construction.
//!
//! Taint stops at **barriers**: fns audited to canonicalize their inputs
//! (the `obs` boundary keeps clocks observational, `esrng` turns entropy
//! into replayable Philox streams, `drain_sorted`-style drains impose a
//! total order on arrival-ordered data). Barriers are *declared* in
//! [`TaintConfig`], never inferred — see docs/DESIGN.md for why.
//!
//! Escape valve: `// detlint::allow(taint): reason` (or
//! `taint-<kind>` for one source kind) on a source line or call site
//! blocks propagation through exactly that site. Allows that block
//! nothing are reported as `unused-suppression` findings, same as the
//! rule-level stale-audit hygiene.

use crate::items;
use crate::rules;
use crate::suppress::{phrase, AllowSet, Domain};
use crate::{Config, Finding, Model, SourceFile};
use std::collections::VecDeque;
use std::path::Path;

/// A declared sink: `(crate, fn name)` plus the kind of state it commits.
#[derive(Debug, Clone)]
pub struct SinkSpec {
    /// Directory name under `crates/`.
    pub crate_name: String,
    /// Fn name (any impl type).
    pub fn_name: String,
    /// Sink kind shown in reports (`param-update`, …).
    pub kind: String,
}

/// Policy for one taint run: where taint is absorbed and where it matters.
#[derive(Debug, Clone)]
pub struct TaintConfig {
    /// Crates that are barriers wholesale: every fn inside absorbs taint.
    pub barrier_crates: Vec<String>,
    /// Fn names that are barriers wherever they live (`drain_sorted`).
    pub barrier_fns: Vec<String>,
    /// The sinks. A flow is a source reaching one of these.
    pub sinks: Vec<SinkSpec>,
    /// Crates whose fns count as flow witnesses when a *tainted caller*
    /// invokes a sink (case 2). Restricting this to the deterministic path
    /// keeps bench/test harness timing from fabricating flows.
    pub caller_flow_crates: Vec<String>,
}

fn strs(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

impl TaintConfig {
    /// The sink/barrier policy for this workspace (docs/DETLINT.md).
    pub fn workspace_default() -> Self {
        let sink = |c: &str, f: &str, k: &str| SinkSpec {
            crate_name: c.to_string(),
            fn_name: f.to_string(),
            kind: k.to_string(),
        };
        TaintConfig {
            barrier_crates: strs(&["obs", "esrng"]),
            barrier_fns: strs(&[
                "drain_sorted",
                "drain_deadline",
                "worker_main",
                // Not in the live tree any more; the planted `concur_fixtures`
                // workspace keys on it.
                "recv_ordered",
            ]),
            sinks: vec![
                sink("optim", "step", "param-update"),
                sink("models", "apply_flat_delta", "param-update"),
                sink("models", "load_flat_params", "param-update"),
                sink("comm", "ring_allreduce", "allreduce-merge"),
                sink("comm", "allreduce_avg", "allreduce-merge"),
                sink("comm", "allreduce_avg_with_retry", "allreduce-merge"),
                sink("core", "save", "checkpoint-serialize"),
                sink("core", "encode_file", "checkpoint-serialize"),
                sink("core", "checkpoint", "checkpoint-serialize"),
                sink("sched", "proposals", "sched-proposal"),
                sink("sched", "decide", "sched-proposal"),
            ],
            caller_flow_crates: strs(&[
                "core", "comm", "tensor", "sched", "data", "models", "optim", "faultsim",
            ]),
        }
    }
}

/// Which leaf rules seed taint, and the source kind each maps to.
/// (`no-float-key-sort` is a comparator-contract rule, not an entropy
/// source, so it does not seed taint.)
pub fn source_kind(rule: &str) -> Option<&'static str> {
    match rule {
        "no-hash-iter" => Some("hash-iter"),
        "no-wall-clock" => Some("wall-clock"),
        "no-adhoc-rng" => Some("adhoc-rng"),
        "no-thread-order" => Some("thread-order"),
        "no-raw-float-accum" => Some("float-accum"),
        _ => None,
    }
}

/// One hop of a flow witness: a fn, and the line taint moved at (the
/// source line for the first hop, the call-site line after that).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Hop {
    /// Qualified fn name (`crate::Type::name`).
    pub func: String,
    /// Workspace-relative file of the fn.
    pub file: String,
    /// 1-based line.
    pub line: u32,
}

/// One source→sink flow with its full call-path witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flow {
    /// Source kind (`wall-clock`, `hash-iter`, …).
    pub source_kind: String,
    /// File/line of the leaf finding that seeded the taint.
    pub source_file: String,
    /// 1-based line of the leaf finding.
    pub source_line: u32,
    /// Qualified fn containing the source.
    pub source_fn: String,
    /// Sink kind (`param-update`, …).
    pub sink_kind: String,
    /// Qualified sink fn.
    pub sink_fn: String,
    /// File the sink fn is defined in.
    pub sink_file: String,
    /// 1-based line of the sink's `fn` keyword.
    pub sink_line: u32,
    /// Witness: source fn first, sink fn last, shortest path found.
    pub path: Vec<Hop>,
}

/// Everything one taint run produced.
#[derive(Debug, Default)]
pub struct TaintReport {
    /// Unsuppressed source→sink flows, sorted by
    /// `(source_file, source_line, source_kind, sink_fn)`.
    pub flows: Vec<Flow>,
    /// Taint-level `detlint::allow` comments that blocked nothing.
    pub unused_suppressions: Vec<Finding>,
}

/// Block propagation at `(file, line)` for `kind` if an allow covers it,
/// marking the allow used in the shared ledger.
fn allow_blocks(allows: &mut AllowSet, file: &str, line: u32, kind: &str) -> bool {
    allows.consume_taint(file, line, kind)
}

/// Run the taint analysis over a pre-built model, recording allow
/// consumption in `allows`. Stale accounting is the caller's job (the
/// single-mode wrapper scopes it to [`Domain::Taint`]; `--all` unifies it).
pub fn analyze_model(model: &Model, tcfg: &TaintConfig, allows: &mut AllowSet) -> TaintReport {
    let mut crate_names: Vec<String> = model.files.iter().map(|f| f.crate_name.clone()).collect();
    crate_names.sort();
    crate_names.dedup();
    let permissive = Config::permissive(&crate_names);

    // Harvest sources by running the leaf detectors with a permissive
    // scope. Leaf-level suppressions are honored by `check_file` through a
    // *local* throwaway ledger — their usage belongs to the leaf pass, not
    // this one, so the shared ledger stays untouched here.
    let mut raw_sources: Vec<(String, u32, &'static str)> = Vec::new();
    for mf in &model.files {
        for f in rules::check_file(&mf.lexed, &mf.crate_name, &mf.file, &permissive) {
            if let Some(kind) = source_kind(f.rule) {
                raw_sources.push((mf.file.clone(), f.line, kind));
            }
        }
    }
    raw_sources.sort();
    raw_sources.dedup();

    let g = &model.graph;
    let n = g.fns.len();

    let is_barrier: Vec<bool> = g
        .fns
        .iter()
        .map(|f| tcfg.barrier_crates.contains(&f.crate_name) || tcfg.barrier_fns.contains(&f.name))
        .collect();
    let sink_of: Vec<Option<&SinkSpec>> = g
        .fns
        .iter()
        .map(|f| {
            if f.in_test {
                return None;
            }
            tcfg.sinks.iter().find(|s| s.crate_name == f.crate_name && s.fn_name == f.name)
        })
        .collect();

    // Attach each raw source to its innermost enclosing fn; drop sources
    // at module level, in test fns, or covered by a taint allow.
    struct Source {
        kind: &'static str,
        file: String,
        line: u32,
        fn_id: usize,
    }
    let mut sources = Vec::new();
    for (file, line, kind) in raw_sources {
        let Some(fn_id) = items::innermost_fn_at(&g.fns, &file, line) else { continue };
        if g.fns[fn_id].in_test || is_barrier[fn_id] {
            continue; // barrier fns absorb even their own internals
        }
        if allow_blocks(allows, &file, line, kind) {
            continue;
        }
        sources.push(Source { kind, file, line, fn_id });
    }

    // Per-source BFS caller-ward; first visit is a shortest-hop parent.
    let mut flows = Vec::new();
    for src in &sources {
        let mut visited = vec![false; n];
        let mut parent: Vec<Option<(usize, u32)>> = vec![None; n];
        visited[src.fn_id] = true;
        let mut queue = VecDeque::from([src.fn_id]);
        while let Some(f) = queue.pop_front() {
            for e in &g.callers[f] {
                let c = e.caller;
                if visited[c] || is_barrier[c] || g.fns[c].in_test {
                    continue;
                }
                if allow_blocks(allows, &g.fns[c].file, e.line, src.kind) {
                    continue;
                }
                visited[c] = true;
                parent[c] = Some((f, e.line));
                queue.push_back(c);
            }
        }

        let path_to = |mut f: usize| -> Vec<Hop> {
            let mut rev = Vec::new();
            loop {
                let hop_line = parent[f].map_or(src.line, |(_, l)| l);
                rev.push(Hop {
                    func: g.fns[f].qualified(),
                    file: g.fns[f].file.clone(),
                    line: hop_line,
                });
                match parent[f] {
                    Some((callee, _)) => f = callee,
                    None => break,
                }
            }
            rev.reverse();
            rev
        };

        for (s, spec) in sink_of.iter().enumerate() {
            let Some(spec) = spec else { continue };
            let mut candidates: Vec<Vec<Hop>> = Vec::new();
            // Case 1: the sink fn itself is tainted.
            if visited[s] {
                candidates.push(path_to(s));
            }
            // Case 2: a tainted deterministic-path fn calls the sink.
            for e in &g.callers[s] {
                let c = e.caller;
                if !visited[c] || !tcfg.caller_flow_crates.contains(&g.fns[c].crate_name) {
                    continue;
                }
                if allow_blocks(allows, &g.fns[c].file, e.line, src.kind) {
                    continue;
                }
                let mut p = path_to(c);
                p.push(Hop {
                    func: g.fns[s].qualified(),
                    file: g.fns[s].file.clone(),
                    line: e.line,
                });
                candidates.push(p);
            }
            candidates.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
            if let Some(path) = candidates.into_iter().next() {
                flows.push(Flow {
                    source_kind: src.kind.to_string(),
                    source_file: src.file.clone(),
                    source_line: src.line,
                    source_fn: g.fns[src.fn_id].qualified(),
                    sink_kind: spec.kind.clone(),
                    sink_fn: g.fns[s].qualified(),
                    sink_file: g.fns[s].file.clone(),
                    sink_line: g.fns[s].line,
                    path,
                });
            }
        }
    }
    flows.sort_by(|a, b| {
        (&a.source_file, a.source_line, &a.source_kind, &a.sink_fn).cmp(&(
            &b.source_file,
            b.source_line,
            &b.source_kind,
            &b.sink_fn,
        ))
    });

    TaintReport { flows, unused_suppressions: Vec::new() }
}

/// [`analyze_model`] with a private suppression ledger: scan every file's
/// allows, run the pass, and report taint-only stale allows.
pub fn analyze_model_standalone(model: &Model, tcfg: &TaintConfig) -> TaintReport {
    let mut allows = AllowSet::new();
    for mf in &model.files {
        allows.scan_file(&mf.lexed, &mf.file, &mf.test_regions);
    }
    let mut rep = analyze_model(model, tcfg, &mut allows);
    rep.unused_suppressions = allows.stale(&[Domain::Taint], false, phrase::TAINT);
    rep
}

/// Run the taint analysis over a set of source files. Input order does not
/// matter — files are sorted internally, and the result is byte-identical
/// under any permutation (pinned by a proptest).
pub fn analyze_files(files: &[SourceFile], tcfg: &TaintConfig) -> TaintReport {
    analyze_model_standalone(&crate::build_model(files, &[]), tcfg)
}

/// [`analyze_files`] over every `crates/*/src/**/*.rs` under `root`.
pub fn analyze_workspace_taint(root: &Path, tcfg: &TaintConfig) -> std::io::Result<TaintReport> {
    let files = crate::workspace_sources(root)?;
    Ok(analyze_files(&files, tcfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(crate_name: &str, name: &str, src: &str) -> SourceFile {
        SourceFile {
            crate_name: crate_name.to_string(),
            file: format!("crates/{crate_name}/src/{name}"),
            src: src.to_string(),
        }
    }

    fn run(files: &[SourceFile]) -> TaintReport {
        analyze_files(files, &TaintConfig::workspace_default())
    }

    #[test]
    fn direct_source_in_sink_is_a_one_hop_flow() {
        let r = run(&[file(
            "optim",
            "lib.rs",
            "pub fn step(lr: f64) { let t = std::time::Instant::now(); }\n",
        )]);
        assert_eq!(r.flows.len(), 1);
        let f = &r.flows[0];
        assert_eq!(f.source_kind, "wall-clock");
        assert_eq!(f.sink_kind, "param-update");
        assert_eq!(f.path.len(), 1);
        assert_eq!(f.path[0].func, "optim::step");
    }

    #[test]
    fn taint_propagates_through_intermediate_fns() {
        let r = run(&[file(
            "sched",
            "lib.rs",
            "fn entropy() -> u64 { let t = std::time::Instant::now(); 0 }\n\
                 fn plan() -> u64 { entropy() }\n\
                 pub fn decide(x: u64) -> u64 { plan() }\n",
        )]);
        assert_eq!(r.flows.len(), 1);
        let f = &r.flows[0];
        let fns: Vec<&str> = f.path.iter().map(|h| h.func.as_str()).collect();
        assert_eq!(fns, vec!["sched::entropy", "sched::plan", "sched::decide"]);
    }

    #[test]
    fn barrier_crates_absorb_taint() {
        // The clock read lives in obs: it is the blessed home for clocks,
        // so nothing flows even when a sink calls it.
        let r = run(&[
            file(
                "obs",
                "lib.rs",
                "pub fn stamp() -> u64 { let t = std::time::Instant::now(); 1 }\n",
            ),
            file("sched", "lib.rs", "pub fn decide() -> u64 { obs::stamp() }\n"),
        ]);
        assert!(r.flows.is_empty(), "{:?}", r.flows);
    }

    #[test]
    fn barrier_fns_absorb_taint_mid_path() {
        let r = run(&[file(
            "comm",
            "lib.rs",
            "fn collect() -> u64 { let (tx, rx) = channel(); rx.recv().unwrap() }\n\
             pub fn drain_sorted() -> u64 { collect() }\n\
             pub fn allreduce_avg(x: u64) -> u64 { drain_sorted() }\n",
        )]);
        assert!(r.flows.is_empty(), "{:?}", r.flows);
    }

    #[test]
    fn taint_allow_blocks_and_unused_allow_is_reported() {
        // A kind-scoped allow on the source line blocks the flow…
        let suppressed = run(&[file(
            "optim",
            "lib.rs",
            "// detlint::allow(taint-wall-clock): log-only, audited\n\
             pub fn step(lr: f64) { let t = std::time::Instant::now(); }\n",
        )]);
        assert!(suppressed.flows.is_empty());
        assert!(suppressed.unused_suppressions.is_empty());

        // …a wrong-kind allow blocks nothing and is itself flagged.
        let stale = run(&[file(
            "optim",
            "lib.rs",
            "// detlint::allow(taint-hash-iter): wrong kind\n\
             pub fn step(lr: f64) { let t = std::time::Instant::now(); }\n",
        )]);
        assert_eq!(stale.flows.len(), 1);
        assert_eq!(stale.unused_suppressions.len(), 1);
        assert_eq!(stale.unused_suppressions[0].rule, "unused-suppression");
    }

    #[test]
    fn result_is_invariant_under_file_order() {
        let a = file("sched", "a.rs", "pub fn decide() -> u64 { leak() }\n");
        let b = file(
            "sched",
            "b.rs",
            "pub fn leak() -> u64 { let t = std::time::Instant::now(); 0 }\n",
        );
        let fwd = run(&[a.clone(), b.clone()]);
        let rev = run(&[b, a]);
        assert_eq!(fwd.flows, rev.flows);
    }
}
