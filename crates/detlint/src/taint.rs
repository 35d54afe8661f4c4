//! Interprocedural determinism-taint analysis.
//!
//! The leaf rules ([`crate::rules`]) say *where* non-determinism enters —
//! a wall-clock read, a hash-table iteration, an ad-hoc RNG draw. This
//! module answers the question that actually decides whether a training
//! run replays bitwise: does that non-determinism **reach state that
//! matters**? Sources are the leaf detectors' hits in every crate (the
//! leaf pass's one scan, before its crate scoping), mapped onto the fn that
//! contains them, and propagated
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

use crate::rules::Hit;
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

/// Run the taint analysis over the shared model, seeded by `hits` (the leaf
/// detectors' hits per model file, unscoped): taint allows are consumed from
/// `em`'s ledger, every flow is lowered into `em`, and the typed flows are
/// returned sorted by `(source_file, source_line, source_kind, sink_fn)`.
pub fn analyze(model: &Model, policy: &Policy, hits: &[Vec<Hit>], em: &mut Emitter) -> Vec<Flow> {
    // A site audited with a leaf-rule allow is not a source — but that
    // allow's usage belongs to the leaf pass, so it is only read here.
    // Sources at module level have no fn to taint.
    let mut raw_sources: Vec<(&str, u32, &'static str, usize)> = Vec::new();
    for (mf, hits) in model.files.iter().zip(hits) {
        for &(rule, tok, _) in hits {
            let line = mf.lexed.toks[tok].line;
            let (Some(kind), Some(fn_id)) = (source_kind(rule), mf.owner[tok]) else { continue };
            if !em.allows.lists(&mf.file, line, rule) {
                raw_sources.push((&mf.file, line, kind, fn_id));
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

    // Drop sources in test fns or covered by a taint allow.
    struct Source<'a> {
        kind: &'static str,
        file: &'a str,
        line: u32,
        fn_id: usize,
    }
    let mut sources = Vec::new();
    for (file, line, kind, fn_id) in raw_sources {
        if g.fns[fn_id].in_test || is_barrier[fn_id] {
            continue; // barrier fns absorb even their own internals
        }
        if em.allows.consume_taint(file, line, kind) {
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
                    source_file: src.file.to_string(),
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
}
