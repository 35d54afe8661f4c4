//! Float-accumulation dataflow: the static half of the "same tree, faster
//! schedule" contract (PAPER.md D1, docs/DESIGN.md).
//!
//! The vectorized kernels keep bitwise consistency by fixing the *shape*
//! of every float reduction tree: a single loop-carried chain, or the
//! SUM_LANES lockstep pattern (a fixed-size accumulator array whose lanes
//! each form one chain, merged after the loop in ascending index order —
//! `tensor::kernels::leaf_partials` is the canonical instance). The
//! runtime proptests prove today's kernels match their `_scalar` oracles;
//! this pass stops the *next* edit from silently reassociating a loop or
//! dropping an oracle pairing.
//!
//! Intraprocedural dataflow over the token/item model, two sub-passes:
//!
//! 1. **Loop classification.** Every loop-carried `f32`/`f64` accumulator
//!    (read and `+=`/`*=`-assigned across `for`/`while` iterations) puts
//!    its loop in one of three classes: *single-chain* (canonical),
//!    *lockstep* (array accumulator, lanes independent, ascending merge —
//!    recognized safe), or *reassociation-prone* → a `float-reassoc`
//!    finding with span witnesses. Reassociation-prone shapes: accumulator
//!    chains merged inside the loop body, a lockstep array merged in
//!    reverse lane order or carried across an enclosing loop that reads it
//!    (lanes surviving a block/tile boundary), iterator-order-dependent
//!    folds (`sum`/`fold`
//!    over `rev`/`chunks`/`flat_map`-reshaped iterators), and chunked
//!    loops that fold each chunk — the remainder chunk then accumulates
//!    through a different chain than full blocks.
//! 2. **Oracle pairing.** Every pub fn matching the configured
//!    vectorized-kernel name set must have a `<name>_scalar` sibling in
//!    the workspace *and* one test (file or `#[cfg(test)]` region) calling
//!    both — otherwise `oracle-unpaired`. A slice-level `<name>_into` form
//!    answers to `<name>_scalar` too.
//!
//! Both finding kinds demote through `// detlint::allow(float-reassoc)` /
//! `// detlint::allow(oracle-unpaired)` with the shared stale accounting
//! of [`crate::suppress`].

use crate::items::FnDef;
use crate::lexer::{
    body_open, in_regions, is_kw, match_delim, scope_end, statement_bounds, Tok, TokKind,
    FLOAT_TYPES, INT_TYPES,
};
use crate::suppress::Emitter;
use crate::{Model, ModelFile, Policy, Related};

/// Is `name` in the policy's vectorized-kernel set (oracle-pairing subject)?
fn kernel_matches(policy: &Policy, name: &str) -> bool {
    if name.ends_with("_scalar") {
        return false;
    }
    policy.oracle_kernels.iter().any(|p| match p.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => *p == name,
    })
}

/// Inventory entry: one classified loop (only loops that carry at least
/// one float accumulator are recorded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopInfo {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the loop keyword.
    pub line: u32,
    /// Qualified enclosing fn (`crate::Type::name`), or `<module>`.
    pub func: String,
    /// `single-chain` | `lockstep` | `reassoc`.
    pub class: &'static str,
    /// Carried accumulator names, sorted.
    pub accumulators: Vec<String>,
}

/// Inventory entry: one oracle-pairing check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleCheck {
    /// Kernel fn name.
    pub kernel: String,
    /// File/line of the kernel definition.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Does `<kernel>_scalar` exist in the workspace?
    pub scalar_found: bool,
    /// Does one test context call both siblings?
    pub tested_together: bool,
}

// ---------------------------------------------------------------------------
// Token utilities
// ---------------------------------------------------------------------------

/// Iterator adapters that reshape iteration order/grouping: a float fold
/// over any of these no longer matches the element-order chain.
const RESHAPE_ADAPTERS: &[&str] =
    &["rev", "rchunks", "rchunks_exact", "flat_map", "chunks", "chunks_exact"];
/// Terminal reductions whose result depends on iteration order.
const FOLD_METHODS: &[&str] = &["sum", "product", "fold", "rfold"];
/// Loop-header chunkers that leave a remainder block.
const CHUNK_HEADERS: &[&str] = &["chunks", "chunks_exact", "rchunks", "rchunks_exact"];

fn slice_has_float(toks: &[Tok], a: usize, b: usize) -> bool {
    toks[a..b.min(toks.len())].iter().any(|t| {
        t.kind == TokKind::Float
            || (t.kind == TokKind::Ident && FLOAT_TYPES.contains(&t.text.as_str()))
    })
}

// ---------------------------------------------------------------------------
// Per-file structure: loops, declarations, writes
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct LoopTok {
    /// 1-based line of the loop keyword.
    line: u32,
    /// Index of the `for`/`while` keyword.
    kw: usize,
    /// Index of the body `{`.
    body_open: usize,
    /// Index of the matching `}`.
    body_close: usize,
}

impl LoopTok {
    fn body_contains(&self, idx: usize) -> bool {
        self.body_open < idx && idx < self.body_close
    }
}

/// Tokens a loop keyword may legally follow. Excludes the `for` of
/// `impl Trait for Type` and `for<'a>` bounds (preceded by an ident or `>`).
fn loop_head_ok(toks: &[Tok], kw: usize) -> bool {
    if kw == 0 {
        return true;
    }
    let p = &toks[kw - 1];
    matches!(p.text.as_str(), ";" | "{" | "}" | ":" | ")") || is_kw(p, "else") || is_kw(p, "unsafe")
}

fn find_loops(toks: &[Tok]) -> Vec<LoopTok> {
    (0..toks.len())
        .filter(|&i| (is_kw(&toks[i], "for") || is_kw(&toks[i], "while")) && loop_head_ok(toks, i))
        .filter_map(|kw| {
            let open = body_open(toks, kw + 1)?;
            let close = match_delim(toks, open);
            Some(LoopTok { line: toks[kw].line, kw, body_open: open, body_close: close })
        })
        .collect()
}

#[derive(Debug)]
struct Decl {
    name: String,
    /// Index of the binding name token.
    idx: usize,
    float: bool,
    int: bool,
    /// `[expr; N]` / `vec![expr; N]` initializer or `[T; N]` annotation.
    array: bool,
}

fn find_decls(toks: &[Tok]) -> Vec<Decl> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !is_kw(&toks[i], "let") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if j < toks.len() && is_kw(&toks[j], "mut") {
            j += 1;
        }
        let end = scope_end(toks, i, true);
        // Only simple lowercase bindings; tuple/struct patterns are never
        // the accumulators this pass cares about.
        if j < toks.len()
            && toks[j].kind == TokKind::Ident
            && toks[j].text.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
        {
            let mut float = false;
            let mut int = false;
            let mut array = false;
            let mut bd = 0i32;
            for t in &toks[j + 1..end.min(toks.len())] {
                match t.text.as_str() {
                    "[" => bd += 1,
                    "]" => bd -= 1,
                    ";" if bd > 0 => array = true,
                    _ => {}
                }
                if t.kind == TokKind::Float
                    || (t.kind == TokKind::Ident && FLOAT_TYPES.contains(&t.text.as_str()))
                {
                    float = true;
                } else if t.kind == TokKind::Ident && INT_TYPES.contains(&t.text.as_str()) {
                    int = true;
                }
            }
            out.push(Decl { name: toks[j].text.clone(), idx: j, float, int: int && !float, array });
        }
        i = end.max(i + 1);
    }
    out
}

/// Nearest declaration of `name` at a token index before `at`.
fn decl_before<'d>(decls: &'d [Decl], name: &str, at: usize) -> Option<&'d Decl> {
    decls.iter().filter(|d| d.name == name && d.idx < at).max_by_key(|d| d.idx)
}

/// One loop-carried accumulation write, after target resolution.
#[derive(Debug)]
struct Write {
    /// Resolved accumulator name.
    name: String,
    /// Token index of the accumulator's declaration name.
    decl_idx: usize,
    /// Is the accumulator a fixed array / vec fill (lane writes)?
    array: bool,
    /// Index of the `+=`/`*=` token.
    op: usize,
    /// 1-based line of the write.
    line: u32,
    /// Index into the loop list: the loop that carries this accumulator.
    carried_by: usize,
    /// RHS token range (exclusive end).
    rhs: (usize, usize),
}

/// Is `idx` directly preceded by a statement boundary (after an optional
/// leading `*`)? Rejects embedded targets (`|x| *x += …`, `f(x += 1)`).
fn at_statement_start(toks: &[Tok], idx: usize) -> bool {
    if idx == 0 {
        return true;
    }
    matches!(toks[idx - 1].text.as_str(), ";" | "{" | "}")
}

/// Resolve the place expression ending just before the op at `k`.
/// Returns `(name_idx, indexed)` for `x` / `*x` / `x[…]`, or `None` for
/// field chains, parenthesized places, and embedded (non-statement) sites.
fn resolve_target(toks: &[Tok], k: usize) -> Option<(usize, bool)> {
    let mut idx = k.checked_sub(1)?;
    let mut indexed = false;
    if toks[idx].text == "]" {
        idx = match_delim(toks, idx).checked_sub(1)?;
        indexed = true;
    }
    if toks[idx].kind != TokKind::Ident {
        return None;
    }
    let name_idx = idx;
    let mut start = idx;
    if idx > 0 && toks[idx - 1].text == "*" {
        start = idx - 1;
    }
    if idx > 0 && (toks[idx - 1].text == "." || toks[idx - 1].text == "::") {
        return None; // field / path place: scatter into a structure
    }
    if !at_statement_start(toks, start) {
        return None;
    }
    Some((name_idx, indexed))
}

/// If `name` is bound by the header of a loop in `loops`, return that
/// loop's index (`for (l, x) in …` / `for x in …` patterns).
fn header_binder(toks: &[Tok], loops: &[LoopTok], name: &str, at: usize) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (li, lp) in loops.iter().enumerate() {
        if !lp.body_contains(at) || !is_kw(&toks[lp.kw], "for") {
            continue;
        }
        // Pattern tokens: between `for` and `in`.
        let mut j = lp.kw + 1;
        while j < lp.body_open && !is_kw(&toks[j], "in") {
            if toks[j].kind == TokKind::Ident && toks[j].text == name {
                // Innermost binder wins (largest body_open below `at`).
                if best.is_none_or(|b: usize| loops[b].body_open < lp.body_open) {
                    best = Some(li);
                }
                break;
            }
            j += 1;
        }
    }
    best
}

/// If the iterable of for-loop `li` is `ARR.iter_mut()…`, return the token
/// index of `ARR`.
fn iter_mut_base(toks: &[Tok], lp: &LoopTok) -> Option<usize> {
    let mut j = lp.kw + 1;
    while j < lp.body_open && !is_kw(&toks[j], "in") {
        j += 1;
    }
    let base = j + 1;
    if base + 2 < lp.body_open
        && toks[base].kind == TokKind::Ident
        && toks[base + 1].text == "."
        && is_kw(&toks[base + 2], "iter_mut")
    {
        return Some(base);
    }
    None
}

/// The innermost loop containing `at` whose body does not contain
/// `decl_idx` — the loop the accumulator is carried across. `inside_of`
/// restricts candidates to loops strictly containing that loop.
fn carrier(
    loops: &[LoopTok],
    at: usize,
    decl_idx: usize,
    strictly_outside: Option<usize>,
) -> Option<usize> {
    loops
        .iter()
        .enumerate()
        .filter(|(_, lp)| lp.body_contains(at) && !lp.body_contains(decl_idx))
        .filter(|(li, lp)| match strictly_outside {
            Some(inner) => *li != inner && lp.body_contains(loops[inner].kw),
            None => true,
        })
        .min_by_key(|(_, lp)| lp.body_close - lp.body_open)
        .map(|(li, _)| li)
}

// ---------------------------------------------------------------------------
// The classifier
// ---------------------------------------------------------------------------

/// One classified loop: its keyword's token index, class, accumulator names.
type LoopClass = (usize, &'static str, Vec<String>);
/// One raw (pre-suppression) `float-reassoc` hit: anchor line, message,
/// witness spans.
type Reassoc = (u32, String, Vec<Related>);

/// Raw analysis of one file: loop classes + `float-reassoc` hits.
fn classify_file(mf: &ModelFile) -> (Vec<LoopClass>, Vec<Reassoc>) {
    let toks = &mf.lexed.toks;
    let in_test = |line: u32| in_regions(&mf.test_regions, line);
    let loops = find_loops(toks);
    let decls = find_decls(toks);
    let mut findings: Vec<Reassoc> = Vec::new();

    let span =
        |line: u32, label: &str| Related { file: mf.file.clone(), line, label: label.to_string() };

    // Collect loop-carried accumulation writes.
    let mut writes: Vec<Write> = Vec::new();
    for k in 0..toks.len() {
        let op = &toks[k];
        if !(op.kind == TokKind::Punct && (op.text == "+=" || op.text == "*=")) {
            continue;
        }
        if in_test(op.line) {
            continue;
        }
        let rhs = (k + 1, scope_end(toks, k + 1, true));
        let Some((name_idx, indexed)) = resolve_target(toks, k) else { continue };
        let name = toks[name_idx].text.as_str();

        let resolved = match decl_before(&decls, name, k) {
            Some(d) => {
                if d.int {
                    continue;
                }
                let float = d.float || slice_has_float(toks, rhs.0, rhs.1);
                if !float {
                    continue;
                }
                let array = d.array && indexed;
                carrier(&loops, k, d.idx, None).map(|li| (name.to_string(), d.idx, array, li))
            }
            None => {
                // Header-bound target: elementwise, unless it is a lane
                // handle over a declared float array (`acc.iter_mut()`).
                let Some(mut binder) = header_binder(toks, &loops, name, k) else { continue };
                let Some(mut base) = iter_mut_base(toks, &loops[binder]) else { continue };
                // A row handle of a 2-D array (`for lane in acc.iter_mut()
                // { for a in lane.iter_mut() { *a += … } }`): on to the array.
                while decl_before(&decls, &toks[base].text, base).is_none() {
                    let row = header_binder(toks, &loops, &toks[base].text, base);
                    let Some(outer) = row.and_then(|b| Some((b, iter_mut_base(toks, &loops[b])?)))
                    else {
                        break;
                    };
                    (binder, base) = outer;
                }
                let arr = toks[base].text.as_str();
                let Some(d) = decl_before(&decls, arr, base) else { continue };
                if !d.float || !d.array {
                    continue;
                }
                carrier(&loops, k, d.idx, Some(binder)).map(|li| (arr.to_string(), d.idx, true, li))
            }
        };
        let Some((name, decl_idx, array, carried_by)) = resolved else { continue };
        writes.push(Write { name, decl_idx, array, op: k, line: op.line, carried_by, rhs });
    }

    // Group by carrying loop and classify.
    let mut loop_classes: Vec<LoopClass> = Vec::new();
    let mut carried: Vec<usize> = writes.iter().map(|w| w.carried_by).collect();
    carried.sort_unstable();
    carried.dedup();
    for li in carried {
        let lp = &loops[li];
        if in_test(lp.line) {
            continue;
        }
        let ws: Vec<&Write> = writes.iter().filter(|w| w.carried_by == li).collect();
        let mut names: Vec<String> = ws.iter().map(|w| w.name.clone()).collect();
        names.sort();
        names.dedup();
        let mut class: &'static str =
            if ws.iter().any(|w| w.array) { "lockstep" } else { "single-chain" };

        // (c1) Chains merged inside the loop: a write whose RHS reads a
        // *different* accumulator carried by the same loop.
        for w in &ws {
            let other = toks[w.rhs.0..w.rhs.1.min(toks.len())].iter().find(|t| {
                t.kind == TokKind::Ident && names.iter().any(|n| n != &w.name && n == &t.text)
            });
            if let Some(o) = other {
                class = "reassoc";
                findings.push((
                    lp.line,
                    format!(
                        "loop merges float accumulators `{}` and `{}` inside its body; keep \
                         each chain independent across iterations and merge after the loop \
                         in a fixed lane order (docs/DETLINT.md, lockstep pattern)",
                        o.text, w.name
                    ),
                    vec![span(lp.line, "loop"), span(w.line, "merge-write")],
                ));
            }
        }

        // Lockstep arrays: lanes must merge *after* the loop, ascending.
        for w in ws.iter().filter(|w| w.array) {
            let arr = &w.name;
            // In-body whole-array reduction = merge inside the loop.
            for j in lp.body_open + 1..lp.body_close {
                let t = &toks[j];
                if !(t.kind == TokKind::Ident
                    && &t.text == arr
                    && toks.get(j + 1).is_some_and(|n| n.text == "."))
                {
                    continue;
                }
                let (a, b) = statement_bounds(toks, j);
                if (a..b).contains(&w.op) {
                    continue; // the lane write itself
                }
                if toks[a..b]
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && FOLD_METHODS.contains(&t.text.as_str()))
                {
                    class = "reassoc";
                    findings.push((
                        lp.line,
                        format!(
                            "lockstep accumulator `{arr}` is reduced inside its own loop; \
                             merge the lanes after the loop, in ascending index order"
                        ),
                        vec![span(lp.line, "loop"), span(toks[j].line, "in-loop-merge")],
                    ));
                    break;
                }
            }
            // An enclosing loop that reads the array without re-declaring
            // it: the lanes survive that loop's iterations — a block/tile
            // boundary — while being written out at each.
            let outer = loops
                .iter()
                .filter(|ol| ol.body_contains(lp.kw) && !ol.body_contains(w.decl_idx))
                .min_by_key(|ol| ol.body_close - ol.body_open);
            let read = outer.and_then(|ol| {
                (lp.body_close + 1..ol.body_close)
                    .find(|&j| toks[j].kind == TokKind::Ident && &toks[j].text == arr)
                    .map(|j| (ol.line, toks[j].line))
            });
            if let Some((outer_line, read_line)) = read {
                class = "reassoc";
                findings.push((
                    lp.line,
                    format!(
                        "lockstep accumulator `{arr}` outlives the loop at line {outer_line} \
                         that reads it every iteration, so its lanes keep accumulating \
                         across that block boundary; declare it inside that loop"
                    ),
                    vec![span(lp.line, "loop"), span(read_line, "carried-read")],
                ));
            }
            // Post-loop merge order: scan the rest of the declaring scope.
            let decl_scope_end = scope_end(toks, w.decl_idx, false);
            let mut j = lp.body_close + 1;
            while j < decl_scope_end.min(toks.len()) {
                let t = &toks[j];
                if t.kind == TokKind::Ident && &t.text == arr {
                    let (a, b) = statement_bounds(toks, j);
                    if toks[a..b].iter().any(|t| {
                        t.kind == TokKind::Ident
                            && matches!(
                                t.text.as_str(),
                                "rev" | "rfold" | "rchunks" | "rchunks_exact"
                            )
                    }) {
                        class = "reassoc";
                        findings.push((
                            lp.line,
                            format!(
                                "lockstep accumulator `{arr}` merges its lanes in reverse \
                                 index order after the loop; merge ascending \
                                 (extend_from_slice or an indexed forward loop) so the \
                                 reduction tree stays fixed"
                            ),
                            vec![span(lp.line, "loop"), span(t.line, "reversed-merge")],
                        ));
                        j = b;
                        continue;
                    }
                }
                j += 1;
            }
        }

        // (c3) Chunked loop folding whole chunks into a scalar chain: the
        // remainder chunk accumulates through a different chain than full
        // blocks.
        let header_chunked = toks[lp.kw..lp.body_open].iter().enumerate().any(|(off, t)| {
            t.kind == TokKind::Ident
                && CHUNK_HEADERS.contains(&t.text.as_str())
                && toks.get(lp.kw + off + 1).is_some_and(|n| n.text == "(")
        });
        if header_chunked {
            for w in ws.iter().filter(|w| !w.array) {
                if toks[w.rhs.0..w.rhs.1.min(toks.len())]
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && FOLD_METHODS.contains(&t.text.as_str()))
                {
                    class = "reassoc";
                    findings.push((
                        lp.line,
                        format!(
                            "chunked loop folds each chunk into `{}` with an iterator \
                             reduction; the remainder chunk then takes a different \
                             accumulation chain than full blocks — use fixed-size blocks \
                             with an explicit scalar tail (kernels::leaf_partials)",
                            w.name
                        ),
                        vec![span(lp.line, "loop"), span(w.line, "chunk-fold")],
                    ));
                }
            }
        }

        loop_classes.push((lp.kw, class, names));
    }

    // (c2) Order-dependent folds over reshaped iterators, loops or not.
    for i in 0..toks.len() {
        let t = &toks[i];
        if !(t.kind == TokKind::Ident
            && FOLD_METHODS.contains(&t.text.as_str())
            && i > 0
            && toks[i - 1].text == "."
            && toks.get(i + 1).is_some_and(|n| n.text == "(" || n.text == "::"))
        {
            continue;
        }
        if in_test(t.line) {
            continue;
        }
        let (a, b) = statement_bounds(toks, i);
        if !slice_has_float(toks, a, b) {
            continue;
        }
        let chain = receiver_chain(toks, i);
        let reshaped: Vec<&str> = chain
            .iter()
            .map(|&m| toks[m].text.as_str())
            .filter(|m| RESHAPE_ADAPTERS.contains(m))
            .collect();
        let reversed_fold = t.text == "rfold";
        if reshaped.is_empty() && !reversed_fold {
            continue;
        }
        let what = if reversed_fold && reshaped.is_empty() {
            "rfold reverses the element order".to_string()
        } else {
            format!("reshaped by `{}`", reshaped.join("`, `"))
        };
        findings.push((
            t.line,
            format!(
                "order-dependent float `.{}()` over an iterator {what}; the reduction \
                 tree follows the iterator's shape — use an indexed loop or the lockstep \
                 pattern so the tree is explicit",
                t.text
            ),
            vec![span(t.line, "fold")],
        ));
    }

    (loop_classes, findings)
}

/// Method names along the receiver chain of the method at `i`
/// (`x.a().b().sum` → indices of `a`, `b`), walking left over balanced
/// argument lists and turbofish.
fn receiver_chain(toks: &[Tok], i: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut p = i.saturating_sub(1); // the `.` before the method name
    loop {
        if toks[p].text != "." || p == 0 {
            break;
        }
        let mut q = p - 1;
        // Skip one balanced group (argument list / index) and turbofish.
        loop {
            match toks[q].text.as_str() {
                ")" | "]" => {
                    let open = match_delim(toks, q);
                    if open == 0 {
                        return out;
                    }
                    q = open - 1;
                }
                ">" => {
                    // `::<T>` — walk back to the matching `<`.
                    q = match_delim(toks, q);
                    if q < 2 || toks[q - 1].text != "::" {
                        return out;
                    }
                    q -= 2;
                }
                _ => break,
            }
        }
        if toks[q].kind != TokKind::Ident {
            break;
        }
        out.push(q);
        if q == 0 {
            break;
        }
        p = q - 1;
    }
    out
}

/// The callee names in `fns`' bodies: one test context's call inventory.
fn called<'a>(fns: impl Iterator<Item = &'a FnDef>) -> Vec<&'a str> {
    fns.flat_map(|f| f.calls.iter().map(|c| c.callee.fn_name())).collect()
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Run the accumulation analysis over the shared model, reporting through
/// `em`. Returns the classified-loop inventory sorted by `(file, line)` and
/// the oracle-pairing inventory sorted by `(file, line, kernel)`.
pub fn analyze(
    model: &Model,
    policy: &Policy,
    em: &mut Emitter,
) -> (Vec<LoopInfo>, Vec<OracleCheck>) {
    let mut loop_infos: Vec<LoopInfo> = Vec::new();

    for mf in model.files.iter().filter(|mf| policy.float_crates.contains(&mf.crate_name.as_str()))
    {
        let (classes, raw) = classify_file(mf);
        for (kw, class, accumulators) in classes {
            let func = mf.owner[kw]
                .map_or_else(|| "<module>".to_string(), |f| model.graph.fns[f].qualified());
            let line = mf.lexed.toks[kw].line;
            loop_infos.push(LoopInfo { file: mf.file.clone(), line, func, class, accumulators });
        }
        for (line, message, spans) in raw {
            em.emit("float-reassoc", &mf.file, line, message, spans);
        }
    }

    // Oracle pairing over the shared call-graph fn index.
    let mut scalar_names: Vec<&str> = model
        .graph
        .fns
        .iter()
        .filter(|f| !f.in_test && f.name.ends_with("_scalar"))
        .map(|f| f.name.as_str())
        .collect();
    scalar_names.sort_unstable();
    scalar_names.dedup();

    // Call inventories per test context: each test file, and the
    // `#[cfg(test)]` fns of each source file, is one context.
    let mut contexts: Vec<Vec<&str>> =
        model.test_files.iter().map(|tf| called(tf.fns.iter())).collect();
    for mf in &model.files {
        contexts.push(called(model.graph.fns[mf.fns.clone()].iter().filter(|f| f.in_test)));
    }

    let mut oracles: Vec<OracleCheck> = Vec::new();
    for f in &model.graph.fns {
        if f.in_test
            || !f.is_pub
            || !policy.float_crates.contains(&f.crate_name.as_str())
            || !kernel_matches(policy, &f.name)
        {
            continue;
        }
        let sib = format!("{}_scalar", f.name.strip_suffix("_into").unwrap_or(&f.name));
        let scalar_found = scalar_names.binary_search(&sib.as_str()).is_ok();
        let tested_together =
            contexts.iter().any(|c| c.contains(&f.name.as_str()) && c.contains(&sib.as_str()));
        if oracles.iter().any(|o| o.kernel == f.name && o.file == f.file && o.line == f.line) {
            continue; // nested-fn double scan
        }
        oracles.push(OracleCheck {
            kernel: f.name.clone(),
            file: f.file.clone(),
            line: f.line,
            scalar_found,
            tested_together,
        });
        if scalar_found && tested_together {
            continue;
        }
        let message = if !scalar_found {
            format!(
                "vectorized kernel `{}` has no `{sib}` oracle in the workspace; keep the \
                 scalar reference implementation in-tree so bit-equality stays provable \
                 (docs/DETLINT.md, oracle pairing)",
                f.name
            )
        } else {
            format!(
                "vectorized kernel `{}` and `{sib}` are never exercised together by one \
                 test; add a bit-equality test that calls both",
                f.name
            )
        };
        let kernel = Related { file: f.file.clone(), line: f.line, label: "kernel".to_string() };
        em.emit("oracle-unpaired", &f.file, f.line, message, vec![kernel]);
    }

    loop_infos.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    oracles.sort_by(|a, b| (&a.file, a.line, &a.kernel).cmp(&(&b.file, b.line, &b.kernel)));
    (loop_infos, oracles)
}

#[cfg(test)]
mod tests {
    use crate::testutil::{file, findings};
    use crate::{Diagnostic, Mode, Report};

    fn run(src: &str) -> Report {
        crate::testutil::run(&[file("tensor", "lib.rs", src)], &[])
    }

    fn accum(r: &Report) -> Vec<&Diagnostic> {
        findings(r, Mode::Accum)
    }

    fn reassoc_count(r: &Report) -> usize {
        accum(r).iter().filter(|f| f.rule == "float-reassoc").count()
    }

    #[test]
    fn lockstep_with_ascending_merge_is_recognized_safe() {
        let r = run("fn s(xs: &[f32]) -> f32 {\n\
             let mut out = Vec::new();\n\
             let mut b = 0;\n\
             while b + 8 <= xs.len() {\n\
                 let mut acc = [0.0f32; 8];\n\
                 for j in 0..8 {\n\
                     for (l, a) in acc.iter_mut().enumerate() {\n\
                         *a += xs[b + l * 8 + j];\n\
                     }\n\
                 }\n\
                 out.extend_from_slice(&acc);\n\
                 b += 64;\n\
             }\n\
             out[0]\n}\n");
        assert_eq!(reassoc_count(&r), 0, "{:?}", accum(&r));
        assert!(r.loops.iter().any(|l| l.class == "lockstep"), "{:?}", r.loops);
    }

    #[test]
    fn elementwise_updates_are_not_accumulators() {
        // Header-bound targets over non-array iterables have no carried
        // chain; int counters and offset advances are skipped.
        let r = run("pub fn scale(out: &mut [f32], s: f32) {\n\
             let mut n = 0usize;\n\
             for v in out.iter_mut() { *v *= s; n += 1; }\n\
             let _ = n;\n}\n");
        assert_eq!(reassoc_count(&r), 0, "{:?}", accum(&r));
        assert!(r.loops.is_empty(), "{:?}", r.loops);
    }

    #[test]
    fn oracle_pairing_requires_sibling_and_shared_test() {
        let kernel = "pub fn dot(a: &[f32], b: &[f32]) -> f32 { let mut s = 0.0f32; \
                      for i in 0..a.len() { s += a[i] * b[i]; } s }\n";
        // No sibling at all → unpaired.
        let r = run(kernel);
        assert!(accum(&r).iter().any(|f| f.rule == "oracle-unpaired"), "{:?}", accum(&r));
        // Sibling exists but nothing calls both → still unpaired.
        let with_sib =
            format!("{kernel}pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {{ 0.0 }}\n");
        let r = run(&with_sib);
        assert!(accum(&r).iter().any(|f| f.message.contains("never exercised together")));
        // A test file calling both closes the pair.
        let tf = crate::SourceFile {
            crate_name: "tensor".to_string(),
            file: "crates/tensor/tests/pair.rs".to_string(),
            src: "#[test]\nfn pair() { assert_eq!(dot(&[1.0], &[1.0]), dot_scalar(&[1.0], &[1.0])); }\n"
                .to_string(),
        };
        let r = crate::testutil::run(&[file("tensor", "lib.rs", &with_sib)], &[tf]);
        assert!(accum(&r).is_empty(), "{:?}", accum(&r));
        let o = r.oracles.iter().find(|o| o.kernel == "dot").unwrap();
        assert!(o.scalar_found && o.tested_together);
        // A slice-level `_into` form answers to its base name's oracle.
        let into = "pub fn matmul_into(o: &mut [f32]) { o[0] = 0.0; }\n\
                    pub fn matmul_scalar() -> f32 { 0.0 }\n";
        let r = run(into);
        let o = r.oracles.iter().find(|o| o.kernel == "matmul_into").unwrap();
        assert!(o.scalar_found && !o.tested_together);
    }

    #[test]
    fn private_fns_and_other_crates_are_not_oracle_subjects() {
        let r = run("fn matmul_rows_into(o: &mut [f32]) { o[0] = 0.0; }\n");
        assert!(accum(&r).is_empty(), "{:?}", accum(&r));
        let r = crate::testutil::run(
            &[file("sched", "lib.rs", "pub fn dot(a: &[f32]) -> f32 { a[0] }\n")],
            &[],
        );
        assert!(accum(&r).is_empty(), "{:?}", accum(&r));
    }
}
