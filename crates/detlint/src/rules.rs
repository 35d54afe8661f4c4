//! The rule catalog: each rule maps one source of hidden non-determinism
//! from the paper's D0/D1/D2 audit onto a token-level detector. See
//! docs/DETLINT.md for the catalog with rationale and suppression syntax.
//!
//! Detectors are deliberately heuristic — a token scanner cannot type-check
//! — so every rule errs toward firing and relies on two escape valves:
//! the workspace [`Policy`](crate::Policy) scoping rules to the crates
//! where they are load-bearing, and per-line
//! `// detlint::allow(rule): reason` suppressions for the (rare, audited)
//! sites that are deterministic for reasons the scanner cannot see.

use crate::items::FnDef;
use crate::lexer::{match_delim, matches, statement_bounds, Tok, TokKind, FLOAT_TYPES};
use crate::{Mode, ModelFile, Policy};

/// Static description of one rule: the id doubles as the suppression token
/// (`// detlint::allow(<name>): reason`).
pub struct Rule {
    /// Rule id (`no-hash-iter`, `taint-flow`, …).
    pub name: &'static str,
    /// The analysis that emits it (and owns its suppression token).
    pub mode: Mode,
    /// Paper determinism level the rule protects (D0/D1/D2, or `meta`).
    pub level: &'static str,
    /// One-line rationale shown in reports.
    pub summary: &'static str,
}

/// Every rule detlint knows, grouped by analysis, in catalog order.
pub const CATALOG: &[Rule] = &[
    Rule {
        name: "no-hash-iter",
        mode: Mode::Leaf,
        level: "D0",
        summary: "iteration over HashMap/HashSet lets hasher state pick the order",
    },
    Rule {
        name: "no-wall-clock",
        mode: Mode::Leaf,
        level: "D0",
        summary: "raw Instant/SystemTime reads outside obs leak wall time into behavior",
    },
    Rule {
        name: "no-thread-order",
        mode: Mode::Leaf,
        level: "D0",
        summary: "spawn/channel patterns can leak thread completion order into results",
    },
    Rule {
        name: "no-float-key-sort",
        mode: Mode::Leaf,
        level: "D1",
        summary: "ordering by an f32/f64 key via partial_cmp is not a total order (NaN, -0.0)",
    },
    Rule {
        name: "unused-suppression",
        mode: Mode::Leaf,
        level: "meta",
        summary: "a detlint::allow comment that matches no finding is a stale audit record",
    },
    Rule {
        name: "taint-flow",
        mode: Mode::Taint,
        level: "D0",
        summary: "a nondeterministic source value reaches a decision or output sink",
    },
    Rule {
        name: "oracle-unpaired",
        mode: Mode::Accum,
        level: "D1",
        summary: "a vectorized kernel without a tested _scalar bit-equality oracle",
    },
];

/// Look up a catalog rule by name.
pub fn rule(name: &str) -> Option<&'static Rule> {
    CATALOG.iter().find(|r| r.name == name)
}

/// One raw leaf hit before suppression handling: `(rule, token, message)`;
/// the token's line is the report line.
pub type Hit = (&'static str, usize, String);

/// Per-file analysis context shared by all detectors.
struct Ctx<'a> {
    mf: &'a ModelFile,
    toks: &'a [Tok],
    /// The workspace's fns, by graph id.
    fns: &'a [FnDef],
    policy: &'a Policy,
}

impl Ctx<'_> {
    fn in_test(&self, line: u32) -> bool {
        crate::lexer::in_regions(&self.mf.test_regions, line)
    }

    /// Is token `i` in an order-parameterized kernel — a fn whose signature
    /// names an order-parameter type (KernelProfile and friends), so its
    /// float order is explicit?
    fn exempt_fn(&self, i: usize) -> bool {
        self.mf.owner[i]
            .is_some_and(|f| self.fns[f].sig_names(self.toks, self.policy.order_param_types))
    }
}

/// Run the leaf detectors over one file, whatever its crate — no
/// suppression handling; the driver emits the hits [`scoped`] admits
/// through the shared allow ledger, and the taint pass seeds its sources
/// from all of them, so a source is visible wherever it lives and the
/// barrier/sink policy, not rule scoping, decides what matters.
pub fn detect(mf: &ModelFile, fns: &[FnDef], policy: &Policy) -> Vec<Hit> {
    let ctx = Ctx { mf, toks: &mf.lexed.toks, fns, policy };
    let mut hits = Vec::new();
    no_hash_iter(&ctx, &mut hits);
    no_thread_order(&ctx, &mut hits);
    no_wall_clock(&ctx, &mut hits);
    no_float_key_sort(&ctx, &mut hits);
    hits
}

/// Does the leaf pass report `rule` in crate `krate`? The order rules apply
/// on the deterministic path, the clock rule outside the crates that own
/// the clock.
pub fn scoped(policy: &Policy, krate: &str, rule: &str) -> bool {
    match rule {
        "no-wall-clock" => !policy.wall_clock_exempt.contains(&krate),
        _ => policy.deterministic_path.contains(&krate),
    }
}

fn slice_has(toks: &[Tok], a: usize, b: usize, words: &[&str]) -> bool {
    toks[a..b].iter().any(|t| t.kind == TokKind::Ident && words.contains(&t.text.as_str()))
}

// ---------------------------------------------------------------------------
// Rule: no-hash-iter (D0)
// ---------------------------------------------------------------------------

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

fn no_hash_iter(ctx: &Ctx, out: &mut Vec<Hit>) {
    let toks = ctx.toks;
    // Pass 1: collect identifiers declared with a hash-table type, file-wide
    // (fields, params, lets). Coarse on purpose: a shadowing non-hash
    // binding of the same name is rare and only costs a suppression.
    let mut hash_idents: Vec<&str> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !HASH_TYPES.contains(&t.text.as_str()) {
            continue;
        }
        // `name : [&] [mut] [std::collections::] HashMap`
        let mut j = i;
        while j >= 2 && toks[j - 1].text == "::" {
            j -= 2; // skip `collections ::`, `std ::`
        }
        let mut k = j;
        while k > 0 && (toks[k - 1].text == "&" || toks[k - 1].text == "mut") {
            k -= 1;
        }
        if k >= 2 && toks[k - 1].text == ":" && toks[k - 2].kind == TokKind::Ident {
            hash_idents.push(&toks[k - 2].text);
            continue;
        }
        // `let [mut] name = HashMap::new/with_capacity/from/default`
        if matches(toks, i + 1, &["::"])
            && toks.get(i + 2).is_some_and(|t| {
                ["new", "with_capacity", "from", "default"].contains(&t.text.as_str())
            })
            && k >= 2
            && toks[k - 1].text == "="
            && toks[k - 2].kind == TokKind::Ident
        {
            hash_idents.push(&toks[k - 2].text);
        }
    }
    hash_idents.sort_unstable();
    hash_idents.dedup();
    if hash_idents.is_empty() {
        return;
    }

    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if ctx.in_test(t.line) {
            continue;
        }
        // `hash . iter() / keys() / …`
        if hash_idents.binary_search(&t.text.as_str()).is_ok()
            && matches(toks, i + 1, &["."])
            && toks.get(i + 2).is_some_and(|m| ITER_METHODS.contains(&m.text.as_str()))
            && toks.get(i + 3).is_some_and(|p| p.text == "(")
        {
            out.push((
                "no-hash-iter",
                i,
                format!(
                    "`{}.{}()` iterates a hash table in a deterministic-path crate; use \
                     BTreeMap/BTreeSet or sort before iterating",
                    t.text,
                    toks[i + 2].text
                ),
            ));
            continue;
        }
        // `for pat in [&[mut]] hash {` — the loop header names the map.
        if t.text == "for" {
            let mut j = i + 1;
            while j < toks.len() && toks[j].text != "in" && toks[j].text != "{" {
                j += 1;
            }
            if j >= toks.len() || toks[j].text != "in" {
                continue;
            }
            let mut k = j + 1;
            while k < toks.len() && toks[k].text != "{" && toks[k].text != ";" {
                let tk = &toks[k];
                if tk.kind == TokKind::Ident
                    && hash_idents.binary_search(&tk.text.as_str()).is_ok()
                    && toks.get(k + 1).is_none_or(|nx| nx.text != ".")
                {
                    out.push((
                        "no-hash-iter",
                        k,
                        format!(
                            "`for … in {}` iterates a hash table in a deterministic-path \
                             crate; use BTreeMap/BTreeSet or sort before iterating",
                            tk.text
                        ),
                    ));
                    break;
                }
                k += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: no-wall-clock (D0)
// ---------------------------------------------------------------------------

fn no_wall_clock(ctx: &Ctx, out: &mut Vec<Hit>) {
    let toks = ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        if t.text == "Instant" && matches(toks, i + 1, &["::", "now"]) {
            out.push((
                "no-wall-clock",
                i,
                "`Instant::now()` outside obs/bench; time through `obs::span` or \
                 `obs::Stopwatch` so the clock stays off the deterministic path"
                    .to_string(),
            ));
        } else if t.text == "SystemTime" {
            out.push((
                "no-wall-clock",
                i,
                "`SystemTime` outside obs/bench; wall-clock reads belong behind obs".to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: no-thread-order (D0)
// ---------------------------------------------------------------------------

const CHANNEL_IDENTS: &[&str] =
    &["mpsc", "try_recv", "recv_timeout", "recv_deadline", "par_iter", "into_par_iter", "rayon"];

fn no_thread_order(ctx: &Ctx, out: &mut Vec<Hit>) {
    let toks = ctx.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.in_test(t.line) {
            continue;
        }
        if CHANNEL_IDENTS.contains(&t.text.as_str()) {
            out.push((
                "no-thread-order",
                i,
                format!(
                    "`{}` can surface thread completion order; collect results by joining \
                     handles in spawn order (see core::engine)",
                    t.text
                ),
            ));
        } else if t.text == "thread" && matches(toks, i + 1, &["::", "spawn"]) {
            out.push((
                "no-thread-order",
                i,
                "detached `thread::spawn`; use a scoped spawn joined in spawn order so \
                 completion order cannot leak into results"
                    .to_string(),
            ));
        } else if t.text == "recv"
            && i > 0
            && toks[i - 1].text == "."
            && matches(toks, i + 1, &["("])
        {
            out.push((
                "no-thread-order",
                i,
                "`.recv()` consumes messages in completion order; join workers in spawn \
                 order instead"
                    .to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: no-float-key-sort (D1)
// ---------------------------------------------------------------------------

/// Ordering combinators whose key/comparator argument the rule inspects.
const SORT_LIKE: &[&str] = &[
    "sort_by",
    "sort_unstable_by",
    "sort_by_key",
    "sort_unstable_by_key",
    "sort_by_cached_key",
    "max_by",
    "min_by",
    "max_by_key",
    "min_by_key",
    "binary_search_by",
    "binary_search_by_key",
];

fn no_float_key_sort(ctx: &Ctx, out: &mut Vec<Hit>) {
    let toks = ctx.toks;
    let blessed = |a: usize, b: usize| {
        toks[a..b].iter().any(|t| ctx.policy.total_order_helpers.contains(&t.text.as_str()))
    };
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || ctx.in_test(t.line) || ctx.exempt_fn(i) {
            continue;
        }
        let method_call = i > 0 && toks[i - 1].text == "." && matches(toks, i + 1, &["("]);
        // Any `.partial_cmp(…)` is a non-total float comparator: NaN gives
        // `None` (panic or arbitrary winner) and -0.0/0.0 tie arbitrarily.
        if t.text == "partial_cmp" && method_call {
            let (a, b) = statement_bounds(toks, i);
            if !blessed(a, b) {
                out.push((
                    "no-float-key-sort",
                    i,
                    "`.partial_cmp()` comparator in a deterministic-path crate; use \
                     `total_cmp` (a total order over all bit patterns) or an integer key"
                        .to_string(),
                ));
            }
            continue;
        }
        // `.sort_by…/max_by…(…f32/f64…)` without a total-order helper: the
        // key type is explicit in the argument, so the order is float-keyed.
        if SORT_LIKE.contains(&t.text.as_str()) && method_call {
            // Argument span: tokens to the matching close paren.
            let open = i + 1;
            let close = match_delim(toks, open);
            let span_has_partial = slice_has(toks, open, close, &["partial_cmp"]);
            if span_has_partial || blessed(open, close) {
                continue; // partial_cmp branch reports it / helper blesses it
            }
            if slice_has(toks, open, close, FLOAT_TYPES) {
                out.push((
                    "no-float-key-sort",
                    i,
                    format!(
                        "`.{}()` orders by an f32/f64 key outside a blessed total-order \
                         helper; use `total_cmp` or quantize to an integer key",
                        t.text
                    ),
                ));
            }
        }
    }
}
