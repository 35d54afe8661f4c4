//! The human renderer: compiler-style text, one block per diagnostic, then
//! one summary line per analysis. (The machine format is SARIF —
//! [`crate::sarif`].)

use crate::{Mode, Report};

/// `file:line: [rule/level] message` per diagnostic, each followed by its
/// witness locations as `  label (file:line)` lines, then [`summary`].
pub fn human(report: &Report) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        out.push_str(&format!("{}:{}: [{}/{}] {}\n", d.file, d.line, d.rule, d.level, d.message));
        for r in &d.related {
            out.push_str(&format!("  {} ({}:{})\n", r.label, r.file, r.line));
        }
    }
    out + &summary(report)
}

/// One `leaf|taint|accum: clean` / `N finding(s)` line per analysis, so a
/// log says which one is dirty.
pub fn summary(report: &Report) -> String {
    let mut out = String::new();
    for mode in Mode::ALL {
        let n = report.mode(mode).count();
        let verdict = if n == 0 { "clean".to_string() } else { format!("{n} finding(s)") };
        out.push_str(&format!("{}: {verdict}\n", mode.name()));
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
        assert!(text.ends_with("leaf: 1 finding(s)\ntaint: 1 finding(s)\naccum: clean\n"));
    }
}
