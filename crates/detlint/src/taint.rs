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
//! [`Policy`], never inferred — see docs/DESIGN.md for why.
//!
//! Escape valve: `// detlint::allow(taint): reason` (or
//! `taint-<kind>` for one source kind) on a source line or call site
//! blocks propagation through exactly that site. Allows that block
//! nothing are reported as `unused-suppression` diagnostics, same as the
//! rule-level stale-audit hygiene.

use crate::items;
use crate::rules;
use crate::suppress::Emitter;
use crate::{Model, Policy, Related, Severity};
use std::collections::VecDeque;

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

impl Flow {
    /// Lower to a `taint-flow` diagnostic anchored at the source, with the
    /// call-path witness (then the sink definition) as related locations.
    fn lower(&self, em: &mut Emitter) {
        let hop = |file: &str, line, label: String| Related { file: file.to_string(), line, label };
        let mut related: Vec<Related> =
            self.path.iter().map(|h| hop(&h.file, h.line, h.func.clone())).collect();
        related.push(hop(&self.sink_file, self.sink_line, format!("sink: {}", self.sink_fn)));
        em.push(
            "taint-flow",
            Severity::Error,
            &self.source_file,
            self.source_line,
            format!("{} -> {} ({})", self.source_kind, self.sink_kind, self.sink_fn),
            related,
        );
    }
}

/// Run the taint analysis over the shared model: taint allows are consumed
/// from `em`'s ledger, every flow is lowered into `em`, and the typed flows
/// are returned sorted by `(source_file, source_line, source_kind, sink_fn)`.
pub fn analyze(model: &Model, policy: &Policy, em: &mut Emitter) -> Vec<Flow> {
    // Harvest sources by running the leaf detectors with the crate scoping
    // lifted. A site audited with a leaf-rule allow is not a source — but
    // that allow's usage belongs to the leaf pass, so it is only read here.
    let mut raw_sources: Vec<(String, u32, &'static str)> = Vec::new();
    for mf in &model.files {
        for (rule, line, _) in rules::detect(mf, policy, true) {
            if let Some(kind) = source_kind(rule) {
                if !em.allows.lists(&mf.file, line, rule) {
                    raw_sources.push((mf.file.clone(), line, kind));
                }
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
        .map(|f| {
            policy.barrier_crates.contains(&f.crate_name.as_str())
                || policy.drain_fns.contains(&f.name.as_str())
        })
        .collect();
    // Per fn: the kind of state it commits, when it is a declared sink.
    let sink_kind: Vec<Option<&str>> = g
        .fns
        .iter()
        .map(|f| {
            if f.in_test {
                return None;
            }
            let hit = policy.sinks.iter().find(|(c, n, _)| *c == f.crate_name && *n == f.name);
            hit.map(|&(_, _, kind)| kind)
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
        if em.allows.consume_taint(&file, line, kind) {
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
                if em.allows.consume_taint(&g.fns[c].file, e.line, src.kind) {
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

        for (s, kind) in sink_kind.iter().enumerate() {
            let Some(kind) = kind else { continue };
            let mut candidates: Vec<Vec<Hop>> = Vec::new();
            // Case 1: the sink fn itself is tainted.
            if visited[s] {
                candidates.push(path_to(s));
            }
            // Case 2: a tainted deterministic-path fn calls the sink.
            for e in &g.callers[s] {
                let c = e.caller;
                if !visited[c] || !policy.deterministic_path.contains(&g.fns[c].crate_name.as_str())
                {
                    continue;
                }
                if em.allows.consume_taint(&g.fns[c].file, e.line, src.kind) {
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
                    sink_kind: kind.to_string(),
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

    for f in &flows {
        f.lower(em);
    }
    flows
}

#[cfg(test)]
mod tests {
    use crate::testutil::{file, stale};
    use crate::{Mode, Report, SourceFile};

    fn run(files: &[SourceFile]) -> Report {
        crate::testutil::run(files, &[])
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
        assert!(stale(&suppressed, Mode::Taint).is_empty());

        // …a wrong-kind allow blocks nothing and is itself flagged.
        let wrong = run(&[file(
            "optim",
            "lib.rs",
            "// detlint::allow(taint-hash-iter): wrong kind\n\
             pub fn step(lr: f64) { let t = std::time::Instant::now(); }\n",
        )]);
        assert_eq!(wrong.flows.len(), 1);
        assert_eq!(stale(&wrong, Mode::Taint).len(), 1);
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
