//! SARIF 2.1.0 — the one machine format. Built on the vendored serde shims
//! (no external schema crates — the document is a hand-assembled [`Value`]
//! tree, which also makes the byte layout deterministic: maps serialize in
//! insertion order and the diagnostics arrive sorted, so repeated and
//! shuffled-order runs emit identical bytes; pinned by a proptest).
//!
//! Layout: one `run` per analysis (`properties.mode` = `leaf` / `taint` /
//! `concur` / `accum`), always all four, each declaring its slice of the
//! rule catalog under `tool.driver.rules`; results carry a
//! physical-location region, and witness paths/spans as `relatedLocations`.

use crate::{Diagnostic, Mode, Severity};
use serde::Value;

const SCHEMA: &str = "https://json.schemastore.org/sarif-2.1.0.json";
const VERSION: &str = "2.1.0";

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn physical_location(file: &str, line: u32) -> (&'static str, Value) {
    (
        "physicalLocation",
        map(vec![
            ("artifactLocation", map(vec![("uri", s(file))])),
            ("region", map(vec![("startLine", Value::U64(u64::from(line)))])),
        ]),
    )
}

/// Blocking diagnostics are `error`s — except stale allows, which are
/// `note`s (hygiene, not a determinism leak); audited demotions are
/// `warning`s.
fn sarif_level(d: &Diagnostic) -> &'static str {
    match d.severity {
        Severity::Warning => "warning",
        Severity::Error if d.level == "meta" => "note",
        Severity::Error => "error",
    }
}

fn result(d: &Diagnostic) -> Value {
    let mut entries = vec![
        ("ruleId", s(d.rule)),
        ("level", s(sarif_level(d))),
        ("message", map(vec![("text", s(&d.message))])),
        ("locations", Value::Seq(vec![map(vec![physical_location(&d.file, d.line)])])),
    ];
    if !d.related.is_empty() {
        let related = d.related.iter().map(|r| {
            map(vec![
                physical_location(&r.file, r.line),
                ("message", map(vec![("text", s(&r.label))])),
            ])
        });
        entries.push(("relatedLocations", Value::Seq(related.collect())));
    }
    map(entries)
}

/// One analysis's run: its catalog rules (stale allows can surface under
/// any analysis, so every run declares `unused-suppression`) and results.
fn run(mode: Mode, diagnostics: &[Diagnostic]) -> Value {
    let rules = crate::rules::CATALOG
        .iter()
        .filter(|r| r.mode == mode || r.name == "unused-suppression")
        .map(|r| {
            map(vec![
                ("id", s(r.name)),
                ("shortDescription", map(vec![("text", s(r.summary))])),
                ("properties", map(vec![("detlintLevel", s(r.level))])),
            ])
        });
    let driver = map(vec![
        ("name", s("detlint")),
        ("version", s(env!("CARGO_PKG_VERSION"))),
        ("rules", Value::Seq(rules.collect())),
    ]);
    let results = diagnostics.iter().filter(|d| d.mode == mode).map(result);
    map(vec![
        ("tool", map(vec![("driver", driver)])),
        ("results", Value::Seq(results.collect())),
        ("properties", map(vec![("mode", s(mode.name()))])),
    ])
}

/// Render `diagnostics` as a complete SARIF 2.1.0 document, one run per
/// analysis.
pub fn document(diagnostics: &[Diagnostic]) -> String {
    let runs = Mode::ALL.iter().map(|&mode| run(mode, diagnostics)).collect();
    let root =
        map(vec![("$schema", s(SCHEMA)), ("version", s(VERSION)), ("runs", Value::Seq(runs))]);
    let mut out = serde_json::to_string_pretty(&root).expect("value tree serializes");
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{file, run as analyze};

    fn parsed(diagnostics: &[Diagnostic]) -> Vec<Value> {
        let v: Value = serde_json::from_str(&document(diagnostics)).unwrap();
        assert_eq!(v.get_field("version"), Some(&s(VERSION)));
        assert_eq!(v.get_field("$schema"), Some(&s(SCHEMA)));
        let Some(Value::Seq(runs)) = v.get_field("runs") else { panic!("runs array") };
        runs.clone()
    }

    fn seq<'v>(v: &'v Value, field: &str) -> &'v [Value] {
        match v.get_field(field) {
            Some(Value::Seq(items)) => items,
            other => panic!("`{field}` must be an array, found {other:?}"),
        }
    }

    #[test]
    fn every_analysis_has_a_run_with_its_rule_catalog_even_when_clean() {
        let runs = parsed(&[]);
        let modes: Vec<_> = runs
            .iter()
            .map(|r| r.get_field("properties").unwrap().get_field("mode").unwrap().clone())
            .collect();
        assert_eq!(modes, vec![s("leaf"), s("taint"), s("concur"), s("accum")]);
        for r in &runs {
            let driver = r.get_field("tool").unwrap().get_field("driver").unwrap();
            assert_eq!(driver.get_field("name"), Some(&s("detlint")));
            let ids: Vec<_> = seq(driver, "rules").iter().map(|r| r.get_field("id")).collect();
            assert!(ids.contains(&Some(&s("unused-suppression"))), "{ids:?}");
            assert!(ids.len() > 1, "a run declares its own rules too: {ids:?}");
            assert!(seq(r, "results").is_empty());
        }
    }

    #[test]
    fn results_carry_rule_level_region_and_witnesses() {
        let report = analyze(
            &[file(
                "sched",
                "lib.rs",
                "// detlint::allow(no-hash-iter): stale\n\
                 fn leak() -> u64 { let t = std::time::Instant::now(); 0 }\n\
                 pub fn decide() -> u64 { leak() }\n",
            )],
            &[],
        );
        let runs = parsed(&report.diagnostics);
        let leaf = seq(&runs[0], "results");
        let got: Vec<_> =
            leaf.iter().map(|r| (r.get_field("ruleId"), r.get_field("level"))).collect();
        assert_eq!(
            got,
            vec![
                (Some(&s("unused-suppression")), Some(&s("note"))),
                (Some(&s("no-wall-clock")), Some(&s("error"))),
            ]
        );
        let region = seq(&leaf[1], "locations")[0]
            .get_field("physicalLocation")
            .and_then(|p| p.get_field("region"))
            .expect("region");
        assert_eq!(region.get_field("startLine"), Some(&Value::U64(2)));
        assert!(leaf[1].get_field("relatedLocations").is_none(), "no witnesses, no field");

        let flow = &seq(&runs[1], "results")[0];
        assert_eq!(flow.get_field("ruleId"), Some(&s("taint-flow")));
        let hops: Vec<_> = seq(flow, "relatedLocations")
            .iter()
            .map(|l| l.get_field("message").unwrap().get_field("text").unwrap().clone())
            .collect();
        assert_eq!(hops, vec![s("sched::leak"), s("sched::decide"), s("sink: sched::decide")]);
    }
}
