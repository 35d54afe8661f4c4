//! One grammar, one ledger: every analysis reads
//! `// detlint::allow(token[, token…]): reason` comments through this
//! module. A single [`AllowSet`] is scanned once per file, consumption is
//! recorded in place by whichever analysis a finding belongs to, and
//! staleness is settled once, after all three have run — so an allow
//! consumed by one analysis can never be reported stale by another.
//! [`Emitter`] is the one place a finding meets the ledger.

use crate::lexer::{in_regions, Lexed};
use crate::{Diagnostic, Mode, Related};

/// The analysis that owns a suppression token, or `None` for a token no
/// analysis recognizes (typo'd rule, future kind).
pub fn domain_of(token: &str) -> Option<Mode> {
    if token == "taint" || token.starts_with("taint-") {
        return Some(Mode::Taint);
    }
    crate::rules::rule(token).map(|r| r.mode)
}

/// Extract `(line, [token…])` suppressions from line comments. Only a
/// comment that *is* a suppression counts — `detlint::allow(` must open the
/// comment (standalone or trailing); prose that merely mentions the syntax
/// (doc comments, this very sentence) is ignored.
pub fn parse(lexed: &Lexed) -> Vec<(u32, Vec<String>)> {
    let mut out = Vec::new();
    for (line, text) in &lexed.comments {
        let Some(rest) = text.trim_start().strip_prefix("detlint::allow(") else { continue };
        let Some(close) = rest.find(')') else { continue };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        if !rules.is_empty() {
            out.push((*line, rules));
        }
    }
    out
}

/// One suppression comment with usage accounting.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Workspace-relative file the comment lives in.
    pub file: String,
    /// 1-based comment line. Covers findings on this line or the next.
    pub line: u32,
    /// Every token listed, in source order (all analyses mixed).
    pub rules: Vec<String>,
    /// Inside a skipped `#[cfg(test)] mod … { … }` region (inert).
    pub in_test: bool,
    /// Did any analysis consume any of this allow's tokens?
    pub used: bool,
}

impl Allow {
    /// Does this allow sit on a finding at `(file, line)` — the same line
    /// or the one directly above?
    fn covers(&self, file: &str, line: u32) -> bool {
        self.file == file && (self.line == line || self.line + 1 == line)
    }
}

/// The shared ledger of every allow seen by a run, across all files.
#[derive(Debug, Default)]
pub struct AllowSet {
    /// All allows, in file-scan order.
    pub allows: Vec<Allow>,
}

impl AllowSet {
    /// Scan one lexed file's comments into the set. `test_regions` marks
    /// allows that sit inside skipped test modules.
    pub fn scan_file(&mut self, lexed: &Lexed, file: &str, test_regions: &[(u32, u32)]) {
        for (line, rules) in parse(lexed) {
            self.allows.push(Allow {
                file: file.to_string(),
                line,
                in_test: in_regions(test_regions, line),
                rules,
                used: false,
            });
        }
    }

    /// Does an allow covering `(file, line)` list `token`? Read-only: the
    /// taint pass honors leaf-rule allows when harvesting sources, but
    /// their usage is the leaf pass's to record.
    pub fn lists(&self, file: &str, line: u32, token: &str) -> bool {
        self.allows.iter().any(|a| a.covers(file, line) && a.rules.iter().any(|r| r == token))
    }

    /// Mark every allow covering `(file, line)` that lists a token `wanted`
    /// accepts as used; returns whether any matched.
    fn mark(&mut self, file: &str, line: u32, wanted: impl Fn(&str) -> bool) -> bool {
        let mut hit = false;
        for a in self.allows.iter_mut() {
            if a.covers(file, line) && a.rules.iter().any(|r| wanted(r)) {
                a.used = true;
                hit = true;
            }
        }
        hit
    }

    /// Consume any allow covering `(file, line)` that lists `token`
    /// verbatim.
    pub fn consume(&mut self, file: &str, line: u32, token: &str) -> bool {
        self.mark(file, line, |r| r == token)
    }

    /// Taint consumption: `taint` blocks every source kind, `taint-<kind>`
    /// blocks exactly one.
    pub fn consume_taint(&mut self, file: &str, line: u32, kind: &str) -> bool {
        let scoped = format!("taint-{kind}");
        self.mark(file, line, |r| r == "taint" || r == scoped)
    }
}

/// Where every analysis reports: a finding goes through [`Emitter::emit`],
/// which checks it against the shared allow ledger before recording it.
#[derive(Debug, Default)]
pub struct Emitter {
    /// The run's suppression ledger.
    pub allows: AllowSet,
    /// Everything reported so far, unsorted.
    pub out: Vec<Diagnostic>,
}

impl Emitter {
    /// Report a finding of catalog rule `rule` at `(file, line)` unless an
    /// allow naming the rule covers the site (the allow is then marked
    /// used). Returns whether the finding was recorded.
    pub fn emit(
        &mut self,
        rule: &'static str,
        file: &str,
        line: u32,
        message: String,
        related: Vec<Related>,
    ) -> bool {
        if self.allows.consume(file, line, rule) {
            return false;
        }
        self.push(rule, file, line, message, related);
        true
    }

    /// Record a diagnostic without consulting the ledger (lowered taint
    /// flows, whose allows taint consumed hop by hop).
    pub fn push(
        &mut self,
        rule: &'static str,
        file: &str,
        line: u32,
        message: String,
        related: Vec<Related>,
    ) {
        let r = crate::rules::rule(rule).expect("catalog rule");
        self.out.push(Diagnostic {
            mode: r.mode,
            file: file.to_string(),
            line,
            rule: r.name,
            level: r.level,
            message,
            related,
        });
    }

    /// Settle the ledger: every live allow nothing consumed becomes an
    /// `unused-suppression` diagnostic, attributed to the analysis that
    /// owns its first token (unknown tokens surface under the leaf rules).
    pub fn settle_stale(&mut self) {
        let stale: Vec<Diagnostic> = self
            .allows
            .allows
            .iter()
            .filter(|a| !a.used && !a.in_test)
            .map(|a| Diagnostic {
                mode: domain_of(&a.rules[0]).unwrap_or(Mode::Leaf),
                file: a.file.clone(),
                line: a.line,
                rule: "unused-suppression",
                level: "meta",
                message: format!(
                    "`detlint::allow({})` matched no finding in any mode; delete the stale \
                     suppression or fix its rule list",
                    a.rules.join(", ")
                ),
                related: Vec::new(),
            })
            .collect();
        self.out.extend(stale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, test_regions};

    fn scanned(src: &str) -> Emitter {
        let lexed = lex(src);
        let mut em = Emitter::default();
        em.allows.scan_file(&lexed, "x.rs", &test_regions(&lexed.toks));
        em
    }

    #[test]
    fn domains_classify_every_token_family() {
        assert_eq!(domain_of("no-wall-clock"), Some(Mode::Leaf));
        assert_eq!(domain_of("taint"), Some(Mode::Taint));
        assert_eq!(domain_of("taint-hash-iter"), Some(Mode::Taint));
        assert_eq!(domain_of("oracle-unpaired"), Some(Mode::Accum));
        assert_eq!(domain_of("no-such-rule"), None);
    }

    #[test]
    fn consumption_by_one_analysis_silences_staleness_for_all() {
        // A mixed allow consumed by the leaf pass is used, full stop: the
        // one ledger never reports it stale on the accum token's behalf.
        let mut em =
            scanned("// detlint::allow(no-wall-clock, oracle-unpaired): both audited\nfn f(){}");
        assert!(!em.emit("no-wall-clock", "x.rs", 2, "clock".to_string(), Vec::new()));
        em.settle_stale();
        assert!(em.out.is_empty(), "{:?}", em.out);
    }

    #[test]
    fn an_unused_mixed_allow_is_one_stale_diagnostic_under_its_first_token() {
        let mut em = scanned("// detlint::allow(taint, no-wall-clock): nothing here\nfn f(){}");
        em.settle_stale();
        assert_eq!(em.out.len(), 1);
        assert_eq!((em.out[0].mode, em.out[0].rule), (Mode::Taint, "unused-suppression"));
        assert!(em.out[0].message.contains("taint, no-wall-clock"));
    }

    #[test]
    fn taint_consumption_accepts_kind_scoped_tokens() {
        let mut em = scanned("// detlint::allow(taint-wall-clock): audited\nfn f(){}");
        assert!(!em.allows.consume_taint("x.rs", 2, "hash-iter"));
        assert!(em.allows.consume_taint("x.rs", 2, "wall-clock"));
        em.settle_stale();
        assert!(em.out.is_empty());
    }

    #[test]
    fn listing_an_allow_does_not_consume_it() {
        let mut em = scanned("// detlint::allow(no-wall-clock): audited\nfn f(){}");
        assert!(em.allows.lists("x.rs", 2, "no-wall-clock"));
        assert!(!em.allows.lists("x.rs", 3, "no-wall-clock"));
        em.settle_stale();
        assert_eq!(em.out.len(), 1, "read-only lookups leave the allow unused");
    }

    #[test]
    fn test_region_allows_are_inert() {
        let mut em = scanned(
            "#[cfg(test)]\nmod tests {\n    // detlint::allow(no-wall-clock): x\n    fn f(){}\n}\n",
        );
        em.settle_stale();
        assert!(em.out.is_empty());
    }
}
