//! The cross-crate call graph: every [`FnDef`] in the workspace becomes a
//! node, every call expression an edge to its resolved candidates.
//!
//! Resolution is name-based and deliberately over-approximate — a token
//! scanner cannot type-check receivers — but it is *deterministic*: nodes
//! are in `(crate, file, line)` order ([`crate::build_model`] sorts the
//! files), candidate sets are ordered, and the same input files produce the
//! same graph regardless of visit order.
//! Over-approximation errs toward extra edges, which errs toward reporting
//! a taint flow; the suppression mechanism is the audited escape valve.

use crate::items::{CallSite, CalleeRef, FileItems, FnDef};
use std::collections::BTreeMap;

/// One resolved edge: caller → callee, with the call-site line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Index of the calling fn in [`Graph::fns`].
    pub caller: usize,
    /// Index of the called fn in [`Graph::fns`].
    pub callee: usize,
    /// 1-based line of the call site (in the caller's file).
    pub line: u32,
}

/// The workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// All fn definitions, sorted by `(crate, file, line)` — indices into
    /// this vec are the node ids every analysis uses.
    pub fns: Vec<FnDef>,
    /// Forward adjacency: `edges[caller]` lists resolved callees in call
    /// order (deduplicated per callee, first call site wins).
    pub edges: Vec<Vec<Edge>>,
    /// Reverse adjacency: `callers[callee]` lists the edges arriving at a
    /// node — what taint propagation walks.
    pub callers: Vec<Vec<Edge>>,
}

/// The package name of the `core` crate directory differs from its path;
/// both spellings resolve to the directory name.
fn crate_alias(seg: &str) -> &str {
    if seg == "easyscale" {
        "core"
    } else {
        seg
    }
}

impl Graph {
    /// Build the graph from per-file item models, assigning node ids in
    /// input order — the ids [`crate::ModelFile::owner`] holds.
    pub fn build(files: Vec<FileItems>) -> Graph {
        let mut fns: Vec<FnDef> = Vec::new();
        // (file index into `files`, fn index into `fns`) pairs to walk calls
        // with their defining file's `use` table afterwards.
        let mut origin: Vec<(usize, usize)> = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            for d in &f.fns {
                origin.push((fi, fns.len()));
                fns.push(d.clone());
            }
        }

        // Name → node ids (already in (crate,file,line) order by build order).
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, d) in fns.iter().enumerate() {
            by_name.entry(d.name.as_str()).or_default().push(i);
        }
        let workspace_crates: Vec<&str> = files.iter().map(|f| f.crate_name.as_str()).collect();

        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); fns.len()];
        for &(fi, ni) in &origin {
            let caller = &fns[ni];
            let uses = &files[fi].uses;
            for call in &caller.calls {
                for cal in resolve(call, caller, &by_name, &fns, uses, &workspace_crates) {
                    if cal == ni {
                        continue; // self-recursion adds nothing to taint
                    }
                    let e = Edge { caller: ni, callee: cal, line: call.line };
                    if !edges[ni].iter().any(|x| x.callee == cal) {
                        edges[ni].push(e);
                    }
                }
            }
        }
        let mut callers: Vec<Vec<Edge>> = vec![Vec::new(); fns.len()];
        for es in &edges {
            for e in es {
                callers[e.callee].push(*e);
            }
        }
        Graph { fns, edges, callers }
    }

    /// Node ids of every fn named `name` (sorted order).
    pub fn named(&self, name: &str) -> Vec<usize> {
        self.fns.iter().enumerate().filter(|(_, d)| d.name == name).map(|(i, _)| i).collect()
    }
}

/// Resolve one call site to candidate node ids, in ascending id order.
fn resolve(
    call: &CallSite,
    caller: &FnDef,
    by_name: &BTreeMap<&str, Vec<usize>>,
    fns: &[FnDef],
    uses: &[Vec<String>],
    workspace_crates: &[&str],
) -> Vec<usize> {
    match &call.callee {
        // `recv.name(…)`: any method (self-taking fn) with that name. The
        // receiver type is unknowable lexically, so all impls qualify.
        CalleeRef::Method { name } => by_name
            .get(name.as_str())
            .map(|c| c.iter().copied().filter(|&i| fns[i].has_self).collect())
            .unwrap_or_default(),
        // `a::b::name(…)`: the qualifier narrows the candidates.
        CalleeRef::Path { segs } => {
            let name = segs.last().expect("path has a final segment");
            let Some(cands) = by_name.get(name.as_str()) else { return Vec::new() };
            let qual = &segs[segs.len() - 2];
            // `Self::helper(…)` — the caller's own impl type.
            let qual_ty: Option<&str> = if qual == "Self" {
                caller.self_ty.as_deref()
            } else if qual.chars().next().is_some_and(char::is_uppercase) {
                Some(qual.as_str())
            } else {
                None
            };
            if let Some(ty) = qual_ty {
                // Associated call through a type: match impl type; the
                // crate is pinned too when the path names one.
                let by_ty: Vec<usize> = cands
                    .iter()
                    .copied()
                    .filter(|&i| fns[i].self_ty.as_deref() == Some(ty))
                    .collect();
                if !by_ty.is_empty() {
                    return by_ty;
                }
                return Vec::new(); // `Instant::now` etc. — external type
            }
            // Module-qualified: pin the crate if the first segment names a
            // workspace crate (directly or through an alias).
            let head = crate_alias(segs[0].as_str());
            if workspace_crates.contains(&head) {
                return cands.iter().copied().filter(|&i| fns[i].crate_name == head).collect();
            }
            // `zoo::build_proxy(…)` — a module of some crate. Free fns with
            // the name anywhere qualify.
            cands.iter().copied().filter(|&i| !fns[i].has_self).collect()
        }
        // `name(…)`: a `use` import may pin the crate; otherwise prefer
        // free fns of the caller's own crate, then any free fn.
        CalleeRef::Bare { name } => {
            let Some(cands) = by_name.get(name.as_str()) else { return Vec::new() };
            let free: Vec<usize> = cands.iter().copied().filter(|&i| !fns[i].has_self).collect();
            if let Some(u) = uses.iter().find(|u| u.last() == Some(name)) {
                let head = crate_alias(u[0].as_str());
                if workspace_crates.contains(&head) {
                    let pinned: Vec<usize> =
                        free.iter().copied().filter(|&i| fns[i].crate_name == head).collect();
                    if !pinned.is_empty() {
                        return pinned;
                    }
                }
            }
            let local: Vec<usize> =
                free.iter().copied().filter(|&i| fns[i].crate_name == caller.crate_name).collect();
            if !local.is_empty() {
                return local;
            }
            free
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::file;

    fn graph(files: &[(&str, &str)]) -> Graph {
        let files: Vec<_> = files.iter().map(|(c, src)| file(c, "lib.rs", src)).collect();
        crate::build_model(&files, &[]).graph
    }

    #[test]
    fn cross_crate_path_calls_resolve_to_the_named_crate() {
        let g = graph(&[
            ("alpha", "pub fn entry() { beta::helper(); }"),
            ("beta", "pub fn helper() {}"),
            ("gamma", "pub fn helper() {}"),
        ]);
        let entry = g.named("entry")[0];
        assert_eq!(g.edges[entry].len(), 1);
        assert_eq!(g.fns[g.edges[entry][0].callee].qualified(), "beta::helper");
    }

    #[test]
    fn method_calls_resolve_to_all_impls() {
        let g = graph(&[
            ("alpha", "struct A; impl A { pub fn tick(&self) {} }"),
            ("beta", "struct B; impl B { pub fn tick(&self) {} }\npub fn go(x: &B) { x.tick(); }"),
        ]);
        let go = g.named("go")[0];
        let callees: Vec<String> =
            g.edges[go].iter().map(|e| g.fns[e.callee].qualified()).collect();
        assert_eq!(callees, vec!["alpha::A::tick", "beta::B::tick"]);
    }

    #[test]
    fn bare_calls_prefer_the_callers_crate() {
        let g = graph(&[
            ("alpha", "pub fn helper() {}\npub fn entry() { helper(); }"),
            ("beta", "pub fn helper() {}"),
        ]);
        let entry = g.named("entry")[0];
        assert_eq!(g.edges[entry].len(), 1);
        assert_eq!(g.fns[g.edges[entry][0].callee].qualified(), "alpha::helper");
    }

    #[test]
    fn use_imports_pin_bare_calls_cross_crate() {
        let g = graph(&[
            ("alpha", "use beta::helper;\npub fn entry() { helper(); }"),
            ("beta", "pub fn helper() {}"),
            ("gamma", "pub fn helper() {}"),
        ]);
        let entry = g.named("entry")[0];
        assert_eq!(g.edges[entry].len(), 1);
        assert_eq!(g.fns[g.edges[entry][0].callee].qualified(), "beta::helper");
    }

    #[test]
    fn external_type_calls_resolve_to_nothing() {
        let g = graph(&[("alpha", "pub fn entry() { let t = Instant::now(); }")]);
        let entry = g.named("entry")[0];
        assert!(g.edges[entry].is_empty());
    }

    #[test]
    fn build_is_order_invariant() {
        let a = ("alpha", "pub fn entry() { beta::helper(); }");
        let b = ("beta", "pub fn helper() { gamma(); }\nfn gamma() {}");
        let g1 = graph(&[a, b]);
        let g2 = graph(&[b, a]);
        let names1: Vec<String> = g1.fns.iter().map(|f| f.qualified()).collect();
        let names2: Vec<String> = g2.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names1, names2);
        assert_eq!(g1.edges.len(), g2.edges.len());
        for (e1, e2) in g1.edges.iter().zip(&g2.edges) {
            assert_eq!(e1, e2);
        }
    }
}
