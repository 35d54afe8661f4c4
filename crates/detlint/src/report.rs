//! The human renderer: compiler-style text, one block per diagnostic, then
//! one summary line per analysis. (The machine format is SARIF —
//! [`crate::sarif`].)

use crate::{Mode, Report, Severity};

/// `file:line: [rule/level] message` per diagnostic (`/warn` marks an
/// audited, non-gating one), each followed by its witness locations as
/// `  label (file:line)` lines, then [`summary`].
pub fn human(report: &Report) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        let warn = if d.severity == Severity::Warning { "/warn" } else { "" };
        out.push_str(&format!(
            "{}:{}: [{}/{}{warn}] {}\n",
            d.file, d.line, d.rule, d.level, d.message
        ));
        for r in &d.related {
            out.push_str(&format!("  {} ({}:{})\n", r.label, r.file, r.line));
        }
    }
    out + &summary(report)
}

/// One `leaf|taint|concur|accum: clean` / `N finding(s)` line per analysis,
/// so a log says which one is dirty. Only blocking diagnostics count as
/// findings; warnings are tallied beside them.
pub fn summary(report: &Report) -> String {
    let mut out = String::new();
    for mode in Mode::ALL {
        let blocking = report.mode(mode).filter(|d| d.severity == Severity::Error).count();
        let warnings = report.mode(mode).count() - blocking;
        let verdict =
            if blocking == 0 { "clean".to_string() } else { format!("{blocking} finding(s)") };
        let tail = if warnings == 0 { String::new() } else { format!(", {warnings} warning(s)") };
        out.push_str(&format!("{}: {verdict}{tail}\n", mode.name()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{file, run};

    #[test]
    fn human_shows_rule_level_witnesses_and_a_summary_line_per_analysis() {
        // A clock read that reaches a scheduler sink: one leaf finding, one
        // taint flow with its call-path witness.
        let text = human(&run(
            &[file(
                "sched",
                "lib.rs",
                "fn leak() -> u64 { let t = std::time::Instant::now(); 0 }\n\
                 pub fn decide() -> u64 { leak() }\n",
            )],
            &[],
        ));
        assert!(text.contains("crates/sched/src/lib.rs:1: [no-wall-clock/D0] `Instant::now()`"));
        assert!(text.contains(
            "crates/sched/src/lib.rs:1: [taint-flow/D0] wall-clock -> sched-proposal (sched::decide)"
        ));
        assert!(text.contains("  sched::decide (crates/sched/src/lib.rs:2)\n"));
        assert!(text.contains("  sink: sched::decide (crates/sched/src/lib.rs:2)\n"));
        assert!(text
            .ends_with("leaf: 1 finding(s)\ntaint: 1 finding(s)\nconcur: clean\naccum: clean\n"));
    }

    #[test]
    fn audited_warnings_are_tagged_and_do_not_count_as_findings() {
        let report = run(
            &[file(
                "trace",
                "lib.rs",
                "// detlint::allow(barrier-unverified): audited fixture\n\
                 fn drain_sorted(rx: R) -> V { vec![rx.recv()] }\n",
            )],
            &[],
        );
        assert!(human(&report).contains("[barrier-unverified/D0/warn]"));
        assert!(summary(&report).contains("concur: clean, 1 warning(s)\n"));
        assert!(report.is_clean());
    }
}
