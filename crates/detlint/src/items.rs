//! A lightweight item model over the token stream: fn definitions, call
//! expressions, `use` imports, and impl blocks — the one place detlint
//! finds fns. The call graph ([`crate::callgraph`]) is built from it, and
//! every analysis asks it which fn a token is in ([`owners`]) and what that
//! fn's signature says ([`FnDef::sig`]), without a real parser.
//!
//! The model is deliberately syntactic. A fn is identified by
//! `(crate, self type, name)`; calls are classified as method calls
//! (`recv.name(…)`), path calls (`a::b::name(…)`), or bare calls
//! (`name(…)`), and resolution happens later against the whole-workspace
//! index. Closures contribute their tokens to the enclosing fn; nested fns
//! are items of their own.

use crate::lexer::{body_open, in_regions, is_kw, match_delim, matches, Lexed, Tok, TokKind};

/// One fn definition with everything the analyses ask of it.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Directory name under `crates/` the fn lives in.
    pub crate_name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// The fn's name.
    pub name: String,
    /// Enclosing `impl` type (last path segment), if any.
    pub self_ty: Option<String>,
    /// Does the first parameter name `self` (method vs associated/free fn)?
    pub has_self: bool,
    /// Declared `pub`, `pub(…)`, or `pub` and one qualifier (`pub const`)?
    pub is_pub: bool,
    /// Token range of the signature, end exclusive: the `fn` keyword up to
    /// the body `{`.
    pub sig: (usize, usize),
    /// Token range of the body, end exclusive: its `{` through the matching
    /// `}`.
    pub body: (usize, usize),
    /// Every call expression inside the body, in source order.
    pub calls: Vec<CallSite>,
    /// Is the fn inside a `#[cfg(test)] mod … { … }` region?
    pub in_test: bool,
}

impl FnDef {
    /// `crate::Type::name` / `crate::name` — the display identity used in
    /// reports and witness paths.
    pub fn qualified(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{}::{}::{}", self.crate_name, ty, self.name),
            None => format!("{}::{}", self.crate_name, self.name),
        }
    }

    /// Does the signature name one of `idents` (a type, usually)?
    pub fn sig_names(&self, toks: &[Tok], idents: &[&str]) -> bool {
        toks[self.sig.0..self.sig.1]
            .iter()
            .any(|t| t.kind == TokKind::Ident && idents.contains(&t.text.as_str()))
    }
}

/// One call expression inside a fn body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// 1-based line of the callee name token.
    pub line: u32,
    /// How the callee was written at the call site.
    pub callee: CalleeRef,
}

/// Syntactic callee shapes the resolver understands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CalleeRef {
    /// `recv.name(…)` — resolved against methods (`has_self`) by name.
    Method { name: String },
    /// `a::b::name(…)` — resolved via the qualifier (type, crate, module).
    Path { segs: Vec<String> },
    /// `name(…)` — resolved via `use` imports, then same-crate free fns.
    Bare { name: String },
}

impl CalleeRef {
    /// The called fn's own name (a path's last segment).
    pub fn fn_name(&self) -> &str {
        match self {
            CalleeRef::Method { name } | CalleeRef::Bare { name } => name,
            CalleeRef::Path { segs } => segs.last().map_or("", String::as_str),
        }
    }
}

/// Everything extracted from one source file.
#[derive(Debug, Clone)]
pub struct FileItems {
    /// Directory name under `crates/`.
    pub crate_name: String,
    /// Workspace-relative path.
    pub file: String,
    /// Fn definitions in source order.
    pub fns: Vec<FnDef>,
    /// `use` paths, each as its segments (brace groups expanded, one level).
    pub uses: Vec<Vec<String>>,
}

/// Rust keywords that look like call heads but are not (`if (…)`, `match (…)`).
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let", "mut", "ref", "move",
    "in", "as", "where", "impl", "dyn", "use", "pub", "mod", "struct", "enum", "trait", "type",
    "const", "static", "unsafe", "extern", "crate", "super", "self", "Self", "box", "await",
];

/// Parse one lexed file into its item model. `test_regions` are the file's
/// `#[cfg(test)]` line ranges (the model computes them once per file).
pub fn parse_lexed(
    lexed: &Lexed,
    test_regions: &[(u32, u32)],
    crate_name: &str,
    file: &str,
) -> FileItems {
    let toks = &lexed.toks;
    let impls = impl_regions(toks);
    let mut fns = Vec::new();
    // Nested fns become defs of their own (their calls are collected twice,
    // once for the outer fn — a harmless over-approximation for taint).
    for kw in 0..toks.len() {
        if !(is_kw(&toks[kw], "fn") && toks.get(kw + 1).is_some_and(|t| t.kind == TokKind::Ident)) {
            continue;
        }
        let Some(open) = body_open(toks, kw + 2) else { continue };
        let close = match_delim(toks, open);
        let self_ty =
            impls.iter().find(|r| r.open < open && close <= r.close).map(|r| r.ty.clone());
        fns.push(FnDef {
            crate_name: crate_name.to_string(),
            file: file.to_string(),
            line: toks[kw].line,
            name: toks[kw + 1].text.clone(),
            self_ty,
            has_self: first_param_is_self(&toks[kw + 2..open]),
            is_pub: declared_pub(toks, kw),
            sig: (kw, open),
            body: (open, close + 1),
            calls: collect_calls(toks, open + 1, close),
            in_test: in_regions(test_regions, toks[kw].line),
        });
    }
    FileItems {
        crate_name: crate_name.to_string(),
        file: file.to_string(),
        fns,
        uses: parse_uses(toks),
    }
}

/// Per token of a file whose fns are `fns`, the id (`base` + index into
/// `fns`) of the innermost fn whose signature or body holds it. A nested fn
/// comes after its parent in source order, so it overwrites the parent.
pub fn owners(fns: &[FnDef], ntoks: usize, base: usize) -> Vec<Option<usize>> {
    let mut owner = vec![None; ntoks];
    for (k, f) in fns.iter().enumerate() {
        owner[f.sig.0..f.body.1.min(ntoks)].fill(Some(base + k));
    }
    owner
}

/// Does a `self` open the parameter list in `sig` (the tokens after the
/// fn's name)?
fn first_param_is_self(sig: &[Tok]) -> bool {
    let mut depth = 0i32;
    for t in sig {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "," if depth == 1 => return false,
            "self" if depth == 1 => return true,
            _ => {}
        }
    }
    false
}

/// Is the `fn` at `kw` preceded by `pub`, `pub(…)`, or either of those and
/// one qualifier (`pub const fn`)?
fn declared_pub(toks: &[Tok], kw: usize) -> bool {
    let Some(mut p) = kw.checked_sub(1) else { return false };
    if toks[p].text == ")" {
        let Some(q) = match_delim(toks, p).checked_sub(1) else { return false };
        p = q;
    }
    is_kw(&toks[p], "pub") || (p > 0 && is_kw(&toks[p - 1], "pub"))
}

/// An `impl` block's body token range and its subject type.
struct ImplRegion {
    ty: String,
    open: usize,
    close: usize,
}

/// Find `impl [<…>] Type { … }` / `impl Trait for Type { … }` regions.
fn impl_regions(toks: &[Tok]) -> Vec<ImplRegion> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !is_kw(&toks[i], "impl") {
            continue;
        }
        let Some(open) = body_open(toks, i + 1) else { continue };
        // The subject type is the last uppercase-ish ident before the body
        // brace, after a `for` if one is present (trait impls).
        let mut angle = 0i32;
        let mut last_ident: Option<&String> = None;
        let mut after_for: Option<&String> = None;
        let mut saw_for = false;
        for t in &toks[i + 1..open] {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "for" if angle <= 0 => saw_for = true,
                _ if t.kind == TokKind::Ident && angle <= 0 => {
                    if saw_for {
                        after_for = Some(&t.text);
                    } else {
                        last_ident = Some(&t.text);
                    }
                }
                _ => {}
            }
        }
        if let Some(ty) = after_for.or(last_ident) {
            out.push(ImplRegion { ty: ty.clone(), open, close: match_delim(toks, open) });
        }
    }
    out
}

/// Collect call expressions in `toks[a..b]`.
fn collect_calls(toks: &[Tok], a: usize, b: usize) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in a..b.min(toks.len()) {
        let t = &toks[i];
        if t.kind != TokKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        // `name(` or `name::<…>(`; a macro bang in between disqualifies.
        let args =
            if matches(toks, i + 1, &["::", "<"]) { match_delim(toks, i + 2) + 1 } else { i + 1 };
        if !matches(toks, args, &["("]) {
            continue;
        }
        // `fn name(` is a nested definition, not a call.
        if i > 0 && toks[i - 1].text == "fn" {
            continue;
        }
        let prev = if i > 0 { toks[i - 1].text.as_str() } else { "" };
        if prev == "." {
            out.push(CallSite { line: t.line, callee: CalleeRef::Method { name: t.text.clone() } });
            continue;
        }
        if prev == "::" {
            // Walk back the whole path: ident (:: ident)*.
            let mut segs = vec![t.text.clone()];
            let mut k = i;
            while k >= 2 && toks[k - 1].text == "::" && toks[k - 2].kind == TokKind::Ident {
                segs.push(toks[k - 2].text.clone());
                k -= 2;
            }
            segs.reverse();
            // Enum-variant constructors (`Value::Map(…)`) are data, not
            // calls: an uppercase final segment is skipped.
            if t.text.chars().next().is_some_and(|c| c.is_uppercase()) {
                continue;
            }
            // `Vec::<f32>::from_value(…)`: the walk stops at the turbofish
            // and no qualifier is left — an unqualified call.
            let callee = match segs.len() {
                1 => CalleeRef::Bare { name: t.text.clone() },
                _ => CalleeRef::Path { segs },
            };
            out.push(CallSite { line: t.line, callee });
            continue;
        }
        // Bare call. Uppercase heads are tuple-struct constructors.
        if t.text.chars().next().is_some_and(|c| c.is_lowercase() || c == '_') {
            out.push(CallSite { line: t.line, callee: CalleeRef::Bare { name: t.text.clone() } });
        }
    }
    out
}

/// Parse `use` declarations into segment lists. `use a::b::{c, d}` yields
/// `[a,b,c]` and `[a,b,d]`; `use a::b as x` yields `[a,b]` (the rename is
/// not tracked — resolution falls back to name matching anyway); globs are
/// recorded as `[a,b,*]`.
fn parse_uses(toks: &[Tok]) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text != "use" || toks[i].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // Collect tokens to the terminating `;`.
        let mut j = i + 1;
        let mut prefix: Vec<String> = Vec::new();
        let mut group_prefix: Option<Vec<String>> = None;
        while j < toks.len() && toks[j].text != ";" {
            let t = &toks[j];
            match t.text.as_str() {
                "{" => group_prefix = Some(prefix.clone()),
                "}" => group_prefix = None,
                "," => {
                    if let Some(gp) = &group_prefix {
                        if prefix.len() > gp.len() {
                            out.push(prefix.clone());
                        }
                        prefix = gp.clone();
                    }
                }
                "::" => {}
                "as" => {
                    // Skip the rename ident.
                    j += 1;
                }
                "*" => prefix.push("*".to_string()),
                _ => {
                    if t.kind == TokKind::Ident {
                        prefix.push(t.text.clone());
                    }
                }
            }
            j += 1;
        }
        if !prefix.is_empty() {
            out.push(prefix);
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> FileItems {
        let lexed = crate::lexer::lex(src);
        parse_lexed(&lexed, &crate::lexer::test_regions(&lexed.toks), "demo", "demo/src/lib.rs")
    }

    #[test]
    fn fns_and_impls_are_modeled() {
        let src = "struct S;\n\
                   impl S {\n    pub fn step(&mut self, x: u32) -> u32 { helper(x) }\n}\n\
                   fn helper(x: u32) -> u32 { x + 1 }\n";
        let items = parse(src);
        assert_eq!(items.fns.len(), 2);
        assert_eq!(items.fns[0].qualified(), "demo::S::step");
        assert!(items.fns[0].has_self);
        assert_eq!(items.fns[1].qualified(), "demo::helper");
        assert!(!items.fns[1].has_self);
        assert_eq!(
            items.fns[0].calls,
            vec![CallSite { line: 3, callee: CalleeRef::Bare { name: "helper".into() } }]
        );
    }

    #[test]
    fn call_shapes_are_classified() {
        let src = "fn f() {\n\
                   let a = recv.method_one(1);\n\
                   let b = comm::allreduce_avg(&a);\n\
                   let c = Instant::now();\n\
                   let d = Some(3);\n\
                   let e = vec![1];\n\
                   bare_call();\n\
                   let g = chunk_cols::<8>(x) + x.sum::<f32>();\n\
                   }\n";
        let items = parse(src);
        let calls = &items.fns[0].calls;
        assert!(calls.iter().any(|c| c.callee == CalleeRef::Bare { name: "chunk_cols".into() }));
        assert!(calls.iter().any(|c| c.callee == CalleeRef::Method { name: "sum".into() }));
        assert!(calls.iter().any(|c| c.callee == CalleeRef::Method { name: "method_one".into() }));
        assert!(calls
            .iter()
            .any(|c| c.callee
                == CalleeRef::Path { segs: vec!["comm".into(), "allreduce_avg".into()] }));
        assert!(calls
            .iter()
            .any(|c| c.callee == CalleeRef::Path { segs: vec!["Instant".into(), "now".into()] }));
        assert!(calls.iter().any(|c| c.callee == CalleeRef::Bare { name: "bare_call".into() }));
        // `Some(3)` is a constructor, not a call.
        assert!(!calls.iter().any(|c| matches!(&c.callee,
            CalleeRef::Bare { name } if name == "Some")));
    }

    #[test]
    fn trait_impl_attributes_methods_to_the_subject_type() {
        let src = "impl Display for Engine {\n    fn fmt(&self) -> u8 { 0 }\n}\n";
        let items = parse(src);
        assert_eq!(items.fns[0].qualified(), "demo::Engine::fmt");
    }

    #[test]
    fn use_groups_expand() {
        let src = "use data::{AugmentConfig, loader::cursor};\nuse comm::heartbeat::*;\n";
        let items = parse(src);
        assert!(items.uses.contains(&vec!["data".to_string(), "AugmentConfig".to_string()]));
        assert!(items.uses.contains(&vec![
            "data".to_string(),
            "loader".to_string(),
            "cursor".to_string()
        ]));
        assert!(items.uses.contains(&vec![
            "comm".to_string(),
            "heartbeat".to_string(),
            "*".to_string()
        ]));
    }

    #[test]
    fn test_mod_fns_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n";
        let items = parse(src);
        assert!(!items.fns[0].in_test);
        assert!(items.fns[1].in_test);
    }
}
