//! A lightweight item model over the token stream: fn definitions, call
//! expressions, `use` imports, and impl blocks — just enough structure for
//! the cross-crate call graph ([`crate::callgraph`]) without a real parser.
//!
//! The model is deliberately syntactic. A fn is identified by
//! `(crate, self type, name)`; calls are classified as method calls
//! (`recv.name(…)`), path calls (`a::b::name(…)`), or bare calls
//! (`name(…)`), and resolution happens later against the whole-workspace
//! index. Closures contribute their tokens to the enclosing fn; nested fns
//! are items of their own.

use crate::lexer::{in_regions, match_delim, Lexed, Tok, TokKind};

/// One fn definition with everything taint propagation needs.
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
    /// First and last line of the body (brace to matching brace).
    pub body_lines: (u32, u32),
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
    let uses = parse_uses(toks);

    let mut fns = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text != "fn" || toks[i].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else { break };
        if name_tok.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // Signature runs to the body `{` at bracket depth 0, or `;` for a
        // bodyless trait method declaration.
        let mut j = i + 2;
        let mut depth = 0i32;
        let mut has_self = false;
        let mut seen_first_param = false;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                ";" if depth == 0 => break,
                "self" if depth == 1 && !seen_first_param => {
                    has_self = true;
                    seen_first_param = true;
                }
                "," if depth == 1 => seen_first_param = true,
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() || toks[j].text != "{" {
            i = j + 1;
            continue; // declaration without a body
        }
        let body_open = j;
        let body_close = match_delim(toks, body_open);
        let self_ty = impls
            .iter()
            .find(|r| r.open < body_open && body_close <= r.close)
            .map(|r| r.ty.clone());
        fns.push(FnDef {
            crate_name: crate_name.to_string(),
            file: file.to_string(),
            line: toks[i].line,
            name: name_tok.text.clone(),
            self_ty,
            has_self,
            body_lines: (toks[body_open].line, toks[body_close.min(toks.len() - 1)].line),
            calls: collect_calls(toks, body_open + 1, body_close),
            in_test: in_regions(test_regions, toks[i].line),
        });
        // Continue scanning *inside* the body too: nested fns become their
        // own defs (their calls are collected twice, once for the outer fn —
        // a harmless over-approximation for taint).
        i = body_open + 1;
    }
    FileItems { crate_name: crate_name.to_string(), file: file.to_string(), fns, uses }
}

/// Index (into `fns`) of the innermost fn whose body spans `(file, line)`,
/// if any. Nested fns shadow their enclosing fn because their body starts
/// later; shared by the taint and concurrency passes for event attribution.
pub fn innermost_fn_at(fns: &[FnDef], file: &str, line: u32) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, f) in fns.iter().enumerate() {
        if f.file == file
            && f.body_lines.0 <= line
            && line <= f.body_lines.1
            && best.is_none_or(|b| fns[b].body_lines.0 <= f.body_lines.0)
        {
            best = Some(i);
        }
    }
    best
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
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text != "impl" || toks[i].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // The subject type is the last uppercase-ish ident before the body
        // brace, after a `for` if one is present (trait impls).
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut last_ident: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        while j < toks.len() {
            let t = &toks[j];
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "{" if angle <= 0 => break,
                ";" if angle <= 0 => break,
                "for" if angle <= 0 => saw_for = true,
                _ => {
                    if t.kind == TokKind::Ident && angle <= 0 {
                        if saw_for {
                            after_for = Some(t.text.clone());
                        } else {
                            last_ident = Some(t.text.clone());
                        }
                    }
                }
            }
            j += 1;
        }
        if j < toks.len() && toks[j].text == "{" {
            if let Some(ty) = after_for.or(last_ident) {
                out.push(ImplRegion { ty, open: j, close: match_delim(toks, j) });
            }
            i = j + 1;
        } else {
            i = j;
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
        // `name (` with nothing or a macro bang in between disqualifies.
        let Some(next) = toks.get(i + 1) else { continue };
        if next.text != "(" {
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
                   }\n";
        let items = parse(src);
        let calls = &items.fns[0].calls;
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
