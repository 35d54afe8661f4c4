//! Schema validation for the JSON artifacts CI emits.
//!
//! Two artifacts cross process boundaries in this repo: detlint's
//! `results/detlint.sarif` (SARIF 2.1.0, its one machine format and the
//! interchange format external viewers consume) and the pipeline's own
//! `results/ci_report.json`. Nothing used to check that the shapes the
//! writers emit are the shapes the readers (EXPERIMENTS tooling, humans
//! with `jq`) assume — a renamed field would surface as a confusing
//! downstream failure PRs later.
//! These tests pin every schema against committed fixtures
//! (`tests/fixtures/`) and validate the live `results/` artifacts when
//! present with the same checkers. (The benchmark's own result files are
//! checked by `benchmark/tests/`.)

use serde::Value;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn read_value(path: &Path) -> Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let parsed: Value = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()));
    parsed
}

fn field<'v>(v: &'v Value, name: &str, what: &str) -> &'v Value {
    v.get_field(name).unwrap_or_else(|| panic!("{what}: missing field `{name}`"))
}

fn as_seq<'v>(v: &'v Value, what: &str) -> &'v [Value] {
    match v {
        Value::Seq(items) => items,
        other => panic!("{what}: expected array, found {}", other.kind()),
    }
}

fn expect_str(v: &Value, name: &str, what: &str) {
    assert!(field(v, name, what).as_str().is_some(), "{what}: field `{name}` must be a string");
}

fn expect_u64(v: &Value, name: &str, what: &str) {
    assert!(
        matches!(field(v, name, what), Value::U64(_)),
        "{what}: field `{name}` must be a non-negative integer"
    );
}

fn expect_number(v: &Value, name: &str, what: &str) {
    assert!(
        matches!(field(v, name, what), Value::F64(_) | Value::U64(_) | Value::I64(_)),
        "{what}: field `{name}` must be a number"
    );
}

// ------------------------------------------------- script/detlint artifacts

/// `results/ci_report.json` (written by `scripts/ci.sh`): pipeline id,
/// mode, per-stage status+seconds, overall status.
fn check_ci_report(v: &Value, what: &str) {
    expect_str(v, "pipeline", what);
    assert_eq!(field(v, "pipeline", what).as_str(), Some("easyscale-ci"));
    let mode = field(v, "mode", what).as_str().expect("mode is a string");
    assert!(mode == "quick" || mode == "full", "{what}: unknown mode {mode}");
    let status = field(v, "status", what).as_str().expect("status is a string");
    assert!(status == "ok" || status == "fail", "{what}: unknown status {status}");
    let stages = as_seq(field(v, "stages", what), what);
    assert!(!stages.is_empty(), "{what}: a report with no stages never ran anything");
    for s in stages {
        expect_str(s, "stage", what);
        let st = field(s, "status", what).as_str().expect("stage status is a string");
        assert!(st == "ok" || st == "fail", "{what}: unknown stage status {st}");
        expect_number(s, "seconds", what);
    }
}

/// `results/detlint.sarif` (written by `detlint --sarif`): a SARIF
/// 2.1.0 document, one run per analysis, each result carrying rule id,
/// severity, message, and at least one physical location.
fn check_sarif(v: &Value, what: &str) {
    assert_eq!(
        field(v, "$schema", what).as_str(),
        Some("https://json.schemastore.org/sarif-2.1.0.json"),
        "{what}: wrong $schema"
    );
    assert_eq!(field(v, "version", what).as_str(), Some("2.1.0"), "{what}: wrong version");
    let runs = as_seq(field(v, "runs", what), what);
    assert!(!runs.is_empty(), "{what}: a SARIF document with no runs");
    let check_location = |loc: &Value| {
        let phys = field(loc, "physicalLocation", what);
        expect_str(field(phys, "artifactLocation", what), "uri", what);
        expect_u64(field(phys, "region", what), "startLine", what);
    };
    for run in runs {
        let driver = field(field(run, "tool", what), "driver", what);
        assert_eq!(field(driver, "name", what).as_str(), Some("detlint"), "{what}: tool name");
        expect_str(driver, "version", what);
        let rules = as_seq(field(driver, "rules", what), what);
        assert!(!rules.is_empty(), "{what}: a run must declare its rule catalog");
        let ids: Vec<&str> = rules
            .iter()
            .map(|r| {
                expect_str(field(r, "shortDescription", what), "text", what);
                field(r, "id", what).as_str().expect("rule id is a string")
            })
            .collect();
        let mode =
            field(field(run, "properties", what), "mode", what).as_str().expect("mode is a string");
        assert!(
            ["leaf", "taint", "concur", "accum"].contains(&mode),
            "{what}: unknown run mode {mode}"
        );
        for res in as_seq(field(run, "results", what), what) {
            let rule_id = field(res, "ruleId", what).as_str().expect("ruleId is a string");
            assert!(ids.contains(&rule_id), "{what}: result cites undeclared rule {rule_id}");
            let level = field(res, "level", what).as_str().expect("level is a string");
            assert!(
                level == "note" || level == "warning" || level == "error",
                "{what}: unknown level {level}"
            );
            expect_str(field(res, "message", what), "text", what);
            let locations = as_seq(field(res, "locations", what), what);
            assert!(!locations.is_empty(), "{what}: a result without a location");
            locations.iter().for_each(check_location);
            if let Some(related) = res.get_field("relatedLocations") {
                for loc in as_seq(related, what) {
                    check_location(loc);
                    expect_str(field(loc, "message", what), "text", what);
                }
            }
        }
    }
}

#[test]
fn ci_report_fixture_is_in_schema() {
    check_ci_report(&read_value(&fixture("ci_report.json")), "fixtures/ci_report.json");
}

#[test]
fn sarif_fixture_is_in_schema_and_carries_results() {
    let v = read_value(&fixture("detlint.sarif"));
    check_sarif(&v, "fixtures/detlint.sarif");
    let runs = as_seq(field(&v, "runs", "fixture"), "fixture");
    assert_eq!(runs.len(), 4, "a document has one run per analysis");
    // Generated from detlint's planted accum fixture tree, so the results
    // and relatedLocations branches of the checker actually execute.
    let results = runs
        .iter()
        .flat_map(|r| as_seq(field(r, "results", "fixture"), "fixture"))
        .collect::<Vec<_>>();
    assert!(!results.is_empty(), "fixture must carry results or the checker is half-dead");
    assert!(
        results.iter().any(|r| r.get_field("relatedLocations").is_some()),
        "fixture must carry witness locations or that branch is dead"
    );
}

#[test]
fn live_results_artifacts_are_in_schema_when_present() {
    // The committed/regenerated artifacts under results/ must satisfy the
    // same schema the fixtures pin — this is the test that catches a writer
    // drifting away from the documented shape. Absent files are skipped
    // (a fresh checkout before any CI run has nothing to validate).
    let results = bench::results_dir();
    for (name, check) in [
        ("ci_report.json", check_ci_report as fn(&Value, &str)),
        ("detlint.sarif", check_sarif as fn(&Value, &str)),
    ] {
        let path = results.join(name);
        if path.exists() {
            check(&read_value(&path), &format!("results/{name}"));
        }
    }
}
