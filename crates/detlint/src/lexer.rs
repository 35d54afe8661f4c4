//! A hand-rolled Rust token scanner — the same offline-shim philosophy as
//! `shims/`: no external parser, just enough lexical structure for the rule
//! catalog. It understands comments (line, nested block), string/char/byte
//! literals, raw strings, lifetimes-vs-char-literals, and a handful of
//! compound operators the rules care about (`::`, `+=`, `->`, `=>`).
//!
//! The scanner is intentionally lossless about *lines*: every token and
//! every line comment carries its 1-based line number, which is what the
//! suppression mechanism and the report spans key on.
//!
//! The token-walking helpers every analysis shares (statement bounds, the
//! delimiter matcher, the item-header and scope walkers, `#[cfg(test)]`
//! regions) live here too, next to the token type they walk.

/// What kind of lexeme a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `for`, `HashMap`, …).
    Ident,
    /// Punctuation / operator, possibly compound (`::`, `+=`).
    Punct,
    /// Lifetime (`'a`) — distinct so `'a` never looks like a char literal.
    Lifetime,
    /// Integer literal (`42`, `0xff`, `1_000u64`).
    Int,
    /// Float literal (`1.0`, `1e-9`).
    Float,
    /// String / raw-string / byte-string literal (content dropped).
    Str,
    /// Char / byte-char literal.
    Char,
}

/// One token with its source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Lexeme class.
    pub kind: TokKind,
    /// Lexeme text (empty for string literals — rules never match inside).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

/// Lexer output: the token stream plus every `//` comment (for
/// suppressions), each tagged with its line.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub toks: Vec<Tok>,
    /// `(line, text-after-slashes)` for every line comment, `//!`/`///`
    /// included.
    pub comments: Vec<(u32, String)>,
}

/// Tokenize `src`. Never fails: unknown bytes become single-char puncts, an
/// unterminated literal consumes to end-of-file. Good enough for linting —
/// code that far gone does not compile anyway.
pub fn lex(src: &str) -> Lexed {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = Lexed::default();
    let mut i = 0;
    let mut line: u32 = 1;

    macro_rules! bump_lines {
        ($ch:expr) => {
            if $ch == '\n' {
                line += 1;
            }
        };
    }

    while i < n {
        let c = b[i];
        // Whitespace.
        if c.is_whitespace() {
            bump_lines!(c);
            i += 1;
            continue;
        }
        // Line comment.
        if c == '/' && i + 1 < n && b[i + 1] == '/' {
            let start = i + 2;
            let mut j = start;
            while j < n && b[j] != '\n' {
                j += 1;
            }
            out.comments.push((line, b[start..j].iter().collect()));
            i = j;
            continue;
        }
        // Block comment (nested).
        if c == '/' && i + 1 < n && b[i + 1] == '*' {
            let mut depth = 1;
            let mut j = i + 2;
            while j < n && depth > 0 {
                if b[j] == '/' && j + 1 < n && b[j + 1] == '*' {
                    depth += 1;
                    j += 2;
                } else if b[j] == '*' && j + 1 < n && b[j + 1] == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    bump_lines!(b[j]);
                    j += 1;
                }
            }
            i = j;
            continue;
        }
        // Raw strings r"..." / r#"..."# and byte variants br#"..."#.
        if (c == 'r' || c == 'b') && is_raw_string_start(&b, i) {
            let mut j = i;
            while b[j] != 'r' {
                j += 1; // skip the 'b' of br
            }
            j += 1;
            let mut hashes = 0;
            while j < n && b[j] == '#' {
                hashes += 1;
                j += 1;
            }
            j += 1; // opening quote
            let close: String =
                std::iter::once('"').chain(std::iter::repeat_n('#', hashes)).collect();
            let closev: Vec<char> = close.chars().collect();
            while j < n {
                if b[j] == '"' && b[j..].starts_with(&closev[..]) {
                    j += closev.len();
                    break;
                }
                bump_lines!(b[j]);
                j += 1;
            }
            out.toks.push(Tok { kind: TokKind::Str, text: String::new(), line });
            i = j;
            continue;
        }
        // Plain / byte strings.
        if c == '"' || (c == 'b' && i + 1 < n && b[i + 1] == '"') {
            let mut j = if c == '"' { i + 1 } else { i + 2 };
            while j < n {
                if b[j] == '\\' {
                    j += 2;
                    continue;
                }
                if b[j] == '"' {
                    j += 1;
                    break;
                }
                bump_lines!(b[j]);
                j += 1;
            }
            out.toks.push(Tok { kind: TokKind::Str, text: String::new(), line });
            i = j;
            continue;
        }
        // Lifetime or char literal.
        if c == '\'' {
            // Escaped char: '\n', '\'', '\u{..}'. The character after the
            // backslash is consumed unconditionally so `'\''` and `'\\'`
            // terminate at their own closing quote, not at the escape.
            if i + 1 < n && b[i + 1] == '\\' {
                let mut j = (i + 3).min(n);
                while j < n && b[j] != '\'' {
                    j += 1;
                }
                out.toks.push(Tok { kind: TokKind::Char, text: String::new(), line });
                i = j + 1;
                continue;
            }
            // 'x' is a char only when a closing quote follows immediately;
            // otherwise it is a lifetime ('a in Foo<'a>).
            if i + 2 < n && b[i + 2] == '\'' {
                out.toks.push(Tok { kind: TokKind::Char, text: String::new(), line });
                i += 3;
                continue;
            }
            let mut j = i + 1;
            while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
                j += 1;
            }
            out.toks.push(Tok { kind: TokKind::Lifetime, text: b[i..j].iter().collect(), line });
            i = j;
            continue;
        }
        // Numbers.
        if c.is_ascii_digit() {
            // Radix-prefixed literals (`0x1e5`, `0o77`, `0b1010`) are always
            // integers: the digits may contain `e`/`E` (hex) but never an
            // exponent, so the float scanner below must not see them.
            if c == '0' && i + 1 < n && matches!(b[i + 1], 'x' | 'X' | 'o' | 'O' | 'b' | 'B') {
                let mut j = i + 2;
                while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
                    j += 1;
                }
                out.toks.push(Tok { kind: TokKind::Int, text: b[i..j].iter().collect(), line });
                i = j;
                continue;
            }
            let mut j = i + 1;
            let mut float = false;
            while j < n {
                let d = b[j];
                if d == '.' {
                    // Stop at `..` (range) and at method calls `1.max(..)`.
                    if j + 1 < n && (b[j + 1] == '.' || b[j + 1].is_alphabetic()) {
                        break;
                    }
                    float = true;
                    j += 1;
                } else if d == 'e' || d == 'E' {
                    if j + 1 < n
                        && (b[j + 1] == '+' || b[j + 1] == '-' || b[j + 1].is_ascii_digit())
                    {
                        float = true;
                        j += 1;
                        if b[j] == '+' || b[j] == '-' {
                            j += 1;
                        }
                    } else {
                        break;
                    }
                } else if d.is_alphanumeric() || d == '_' {
                    j += 1;
                } else {
                    break;
                }
            }
            out.toks.push(Tok {
                kind: if float { TokKind::Float } else { TokKind::Int },
                text: b[i..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        // Identifiers / keywords.
        if c.is_alphabetic() || c == '_' {
            let mut j = i + 1;
            while j < n && (b[j].is_alphanumeric() || b[j] == '_') {
                j += 1;
            }
            out.toks.push(Tok { kind: TokKind::Ident, text: b[i..j].iter().collect(), line });
            i = j;
            continue;
        }
        // Compound puncts the rules distinguish; everything else single.
        let two: String = b[i..(i + 2).min(n)].iter().collect();
        let text = match two.as_str() {
            "::" | "+=" | "-=" | "*=" | "/=" | "->" | "=>" => two,
            _ => c.to_string(),
        };
        i += text.chars().count();
        out.toks.push(Tok { kind: TokKind::Punct, text, line });
    }
    out
}

/// Is `b[i..]` the start of a raw (possibly byte) string literal?
fn is_raw_string_start(b: &[char], i: usize) -> bool {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
        if j >= b.len() || b[j] != 'r' {
            return false;
        }
    }
    if b[j] != 'r' {
        return false;
    }
    j += 1;
    while j < b.len() && b[j] == '#' {
        j += 1;
    }
    j < b.len() && b[j] == '"'
}

/// Primitive float type names.
pub const FLOAT_TYPES: &[&str] = &["f32", "f64"];

/// Is `t` the identifier or keyword `kw`?
pub fn is_kw(t: &Tok, kw: &str) -> bool {
    t.kind == TokKind::Ident && t.text == kw
}

/// Do tokens at `start` match `pat` textually?
pub fn matches(toks: &[Tok], start: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(k, p)| toks.get(start + k).is_some_and(|t| t.text == *p))
}

/// Does `line` fall inside one of the inclusive line `regions`?
pub fn in_regions(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(a, b)| (a..=b).contains(&line))
}

/// Statement bounds around token `i`: `(start, end)` token indices between
/// the nearest `;`/`{`/`}` on each side (end exclusive).
pub fn statement_bounds(toks: &[Tok], i: usize) -> (usize, usize) {
    let boundary = |t: &Tok| matches!(t.text.as_str(), ";" | "{" | "}");
    let mut a = i;
    while a > 0 && !boundary(&toks[a - 1]) {
        a -= 1;
    }
    let mut b = i;
    while b < toks.len() && !boundary(&toks[b]) {
        b += 1;
    }
    (a, b)
}

/// The `{` opening the body of the fn or impl whose header starts at
/// `from`: the first `{` at bracket depth 0, or `None` when a `;` at that
/// depth (a bodyless declaration) or the end of the file comes first. The
/// `;` of `-> [f32; N]` is inside brackets and does not end the header.
pub fn body_open(toks: &[Tok], from: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(from) {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth <= 0 => return Some(j),
            ";" if depth <= 0 => return None,
            _ => {}
        }
    }
    None
}

/// Index of the delimiter matching the one at `at`: forward from an opener
/// (`{`/`(`/`[`/`<`), backward from a closer. Any other token matches
/// itself; an unbalanced opener yields the last token, an unbalanced closer
/// the first.
pub fn match_delim(toks: &[Tok], at: usize) -> usize {
    const PAIRS: [(&str, &str); 4] = [("{", "}"), ("(", ")"), ("[", "]"), ("<", ">")];
    let here = toks[at].text.as_str();
    let Some(&(open, close)) = PAIRS.iter().find(|(o, c)| *o == here || *c == here) else {
        return at;
    };
    let forward = here == open;
    let (same, other) = if forward { (open, close) } else { (close, open) };
    let mut depth = 0i32;
    let mut j = at;
    loop {
        let t = toks[j].text.as_str();
        if t == same {
            depth += 1;
        } else if t == other {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        if forward && j + 1 < toks.len() {
            j += 1;
        } else if !forward && j > 0 {
            j -= 1;
        } else {
            return j;
        }
    }
}

/// `#[cfg(test)] [pub[(…)]] mod … { … }` line ranges. Findings and
/// suppressions inside them are skipped by every analysis.
pub fn test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].text == "#" && matches(toks, i + 1, &["[", "cfg", "(", "test", ")", "]"])) {
            i += 1;
            continue;
        }
        let mut j = i + 7;
        // Skip further attributes and the visibility between the cfg and
        // the item.
        while j + 1 < toks.len() && toks[j].text == "#" {
            j = match_delim(toks, j + 1) + 1;
        }
        if matches(toks, j, &["pub", "("]) {
            j = match_delim(toks, j + 1) + 1;
        } else if matches(toks, j, &["pub"]) {
            j += 1;
        }
        if j < toks.len() && toks[j].text == "mod" {
            while j < toks.len() && toks[j].text != "{" {
                j += 1;
            }
            if j < toks.len() {
                let close = match_delim(toks, j);
                out.push((toks[i].line, toks[close].line));
                i = close;
                continue;
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        lex(src).toks.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn compound_operators_stay_whole() {
        assert_eq!(texts("a += b :: c -> d"), vec!["a", "+=", "b", "::", "c", "->", "d"]);
    }

    #[test]
    fn comments_are_captured_with_lines() {
        let l = lex("let x = 1;\n// detlint::allow(rule): why\nlet y = 2;");
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.comments[0].0, 2);
        assert!(l.comments[0].1.contains("detlint::allow"));
    }

    #[test]
    fn strings_hide_their_content() {
        let l = lex("let s = \"HashMap Instant::now()\";");
        assert!(l.toks.iter().all(|t| t.text != "HashMap" && t.text != "Instant"));
    }

    #[test]
    fn nested_block_comments_and_raw_strings() {
        let l = lex("/* a /* b */ c */ let r = r#\"Instant \" inside\"#; x");
        let ids: Vec<_> = l.toks.iter().filter(|t| t.kind == TokKind::Ident).collect();
        assert_eq!(ids.iter().map(|t| t.text.as_str()).collect::<Vec<_>>(), vec!["let", "r", "x"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = l.toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = l.toks.iter().filter(|t| t.kind == TokKind::Char).count();
        assert_eq!((lifetimes, chars), (2, 1));
    }

    #[test]
    fn numbers_classify_int_vs_float() {
        let l = lex("1 2.5 1e-9 0xff 3usize 1.max(2)");
        let kinds: Vec<_> = l
            .toks
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Int | TokKind::Float))
            .map(|t| t.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                TokKind::Int,
                TokKind::Float,
                TokKind::Float,
                TokKind::Int,
                TokKind::Int,
                TokKind::Int,
                TokKind::Int,
            ]
        );
    }

    #[test]
    fn radix_prefixed_literals_are_ints_even_with_hex_e_digits() {
        // Regression: the exponent scanner used to fire inside hex literals —
        // `0x1e5` has `e` followed by a digit, which misclassified the token
        // as a Float (and `no-float-key-sort`-style heuristics downstream saw
        // phantom floats in checksum constants like 0xcbf29ce484222325).
        let l = lex("0x1e5 0xE5 0xcbf29ce484222325 0o17 0b1010 0xffu64 0b1_0e1");
        let nums: Vec<_> =
            l.toks.iter().filter(|t| matches!(t.kind, TokKind::Int | TokKind::Float)).collect();
        assert_eq!(nums.len(), 7, "{:?}", l.toks);
        for t in &nums {
            assert_eq!(t.kind, TokKind::Int, "`{}` must lex as an integer", t.text);
        }
        assert_eq!(nums[2].text, "0xcbf29ce484222325", "prefix literal stays one token");
    }

    #[test]
    fn decimal_floats_stay_single_float_tokens() {
        // The shapes the radix fix must not disturb: separators, exponents
        // (signed and bare), and typed suffixes all stay one Float token.
        for src in ["1_000.0", "1e-6", "2.5E3", "1.0e-6f32"] {
            let l = lex(src);
            assert_eq!(l.toks.len(), 1, "`{src}` lexed as {:?}", l.toks);
            assert_eq!(l.toks[0].kind, TokKind::Float, "`{src}` must be a Float");
            assert_eq!(l.toks[0].text, src);
        }
    }

    #[test]
    fn raw_strings_with_hashes_hide_content_and_terminate_correctly() {
        // Multi-hash raw string containing a shorter close-like sequence:
        // `"#` inside `r##"…"##` must not terminate the literal.
        let l = lex("let s = r##\"Instant \"# HashMap\"##; after");
        assert!(l.toks.iter().all(|t| t.text != "Instant" && t.text != "HashMap"));
        assert!(l.toks.iter().any(|t| t.text == "after"), "lexer must resume after the literal");
        // Byte raw strings behave identically.
        let l = lex("let s = br#\"SystemTime\"#; after");
        assert!(l.toks.iter().all(|t| t.text != "SystemTime"));
        assert!(l.toks.iter().any(|t| t.text == "after"));
        // Raw identifiers are not raw strings: `r#match` lexes as idents,
        // and the following real code is still seen.
        let l = lex("let r#match = Instant::now();");
        assert!(l.toks.iter().any(|t| t.text == "Instant"));
    }

    #[test]
    fn deeply_nested_block_comments_hide_content() {
        let l = lex("/* a /* b /* c */ d */ e */ after");
        assert_eq!(l.toks.len(), 1);
        assert_eq!(l.toks[0].text, "after");
        // `/*/` opens-then-closes ambiguity: rustc treats the `/` after the
        // opener as content, so `/*/ */` is one complete comment.
        let l = lex("/*/ */ after");
        assert_eq!(l.toks.iter().map(|t| t.text.as_str()).collect::<Vec<_>>(), vec!["after"]);
        // Line numbers keep tracking across nested multiline comments.
        let l = lex("/* line1\n /* line2\n */ line3\n */\nafter");
        assert_eq!(l.toks[0].line, 5);
    }

    #[test]
    fn char_literals_containing_quotes_do_not_open_strings() {
        // `'"'` is a char literal; the quote inside must not start a string
        // that swallows the rest of the file.
        let l = lex("let q = '\"'; let t = Instant::now();");
        assert!(l.toks.iter().any(|t| t.text == "Instant"), "code after '\"' must still lex");
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Char).count(), 1);
        // Escaped forms: '\'' and '\"' and '\\' all close at their own quote.
        let l = lex(r"let a = '\''; let b = '\x22'; let c = '\\'; done");
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Char).count(), 3);
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(), 0);
        assert!(l.toks.iter().any(|t| t.text == "done"));
    }

    #[test]
    fn line_numbers_track_multiline_constructs() {
        let l = lex("a\n\"two\nlines\"\nb");
        let a = l.toks.iter().find(|t| t.text == "a").unwrap();
        let bt = l.toks.iter().find(|t| t.text == "b").unwrap();
        assert_eq!(a.line, 1);
        assert_eq!(bt.line, 4);
    }
}
