//! Schema validation for the JSON artifacts CI emits.
//!
//! Two artifact families cross process boundaries in this repo: detlint's
//! per-mode `results/{taint,concur,accum}_report.json` plus the combined-run
//! `results/detlint_modes.json` and `results/detlint.sarif` (SARIF 2.1.0,
//! the interchange format external viewers consume), and the pipeline's own
//! `results/ci_report.json`. Nothing used to check that the shapes the
//! writers emit are the shapes the readers (the per-mode gates in
//! `scripts/ci.sh`, EXPERIMENTS tooling, humans with `jq`) assume — a
//! renamed field would surface as a confusing downstream failure PRs later.
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

/// `results/taint_report.json` (written by `detlint --taint`): count,
/// flows with source/sink/path witnesses, stale suppressions.
fn check_taint_report(v: &Value, what: &str) {
    expect_u64(v, "count", what);
    let flows = as_seq(field(v, "flows", what), what);
    let Value::U64(count) = field(v, "count", what) else { unreachable!() };
    assert_eq!(*count as usize, flows.len(), "{what}: count must equal flows.len()");
    for f in flows {
        let src = field(f, "source", what);
        expect_str(src, "kind", what);
        expect_str(src, "file", what);
        expect_u64(src, "line", what);
        expect_str(src, "fn", what);
        let sink = field(f, "sink", what);
        expect_str(sink, "kind", what);
        expect_str(sink, "fn", what);
        expect_str(sink, "file", what);
        expect_u64(sink, "line", what);
        let path = as_seq(field(f, "path", what), what);
        assert!(!path.is_empty(), "{what}: a flow without a witness path");
        for hop in path {
            expect_str(hop, "fn", what);
            expect_str(hop, "file", what);
            expect_u64(hop, "line", what);
        }
    }
    for s in as_seq(field(v, "unused_suppressions", what), what) {
        expect_str(s, "file", what);
        expect_u64(s, "line", what);
        expect_str(s, "message", what);
    }
}

/// `results/concur_report.json` (written by `detlint --concurrency`):
/// count, findings/warnings with witness paths, role tallies, blocking-op
/// inventory.
fn check_concur_report(v: &Value, what: &str) {
    expect_u64(v, "count", what);
    let findings = as_seq(field(v, "findings", what), what);
    let Value::U64(count) = field(v, "count", what) else { unreachable!() };
    assert_eq!(*count as usize, findings.len(), "{what}: count must equal findings.len()");
    let check_finding = |f: &Value| {
        expect_str(f, "kind", what);
        expect_str(f, "file", what);
        expect_u64(f, "line", what);
        expect_str(f, "message", what);
        for path in as_seq(field(f, "paths", what), what) {
            for hop in as_seq(path, what) {
                expect_str(hop, "fn", what);
                expect_str(hop, "file", what);
                expect_u64(hop, "line", what);
            }
        }
    };
    findings.iter().for_each(check_finding);
    as_seq(field(v, "warnings", what), what).iter().for_each(check_finding);
    let roles = field(v, "roles", what);
    expect_u64(roles, "worker_fns", what);
    expect_u64(roles, "engine_fns", what);
    for op in as_seq(field(v, "blocking", what), what) {
        expect_str(op, "role", what);
        expect_str(op, "op", what);
        expect_str(op, "fn", what);
        expect_str(op, "file", what);
        expect_u64(op, "line", what);
    }
}

/// `results/accum_report.json` (written by `detlint --accum`): count,
/// findings with span witnesses, the loop inventory, oracle checks, stale
/// suppressions.
fn check_accum_report(v: &Value, what: &str) {
    expect_u64(v, "count", what);
    let findings = as_seq(field(v, "findings", what), what);
    let Value::U64(count) = field(v, "count", what) else { unreachable!() };
    assert_eq!(*count as usize, findings.len(), "{what}: count must equal findings.len()");
    for f in findings {
        let kind = field(f, "kind", what).as_str().expect("kind is a string");
        assert!(
            kind == "float-reassoc" || kind == "oracle-unpaired",
            "{what}: unknown finding kind {kind}"
        );
        expect_str(f, "file", what);
        expect_u64(f, "line", what);
        expect_str(f, "message", what);
        for span in as_seq(field(f, "spans", what), what) {
            expect_str(span, "file", what);
            expect_u64(span, "line", what);
            expect_str(span, "label", what);
        }
    }
    for l in as_seq(field(v, "loops", what), what) {
        expect_str(l, "file", what);
        expect_u64(l, "line", what);
        expect_str(l, "fn", what);
        let class = field(l, "class", what).as_str().expect("class is a string");
        assert!(
            class == "single-chain" || class == "lockstep" || class == "reassoc",
            "{what}: unknown loop class {class}"
        );
        for a in as_seq(field(l, "accumulators", what), what) {
            assert!(a.as_str().is_some(), "{what}: accumulator names are strings");
        }
    }
    for o in as_seq(field(v, "oracles", what), what) {
        expect_str(o, "kernel", what);
        expect_str(o, "file", what);
        expect_u64(o, "line", what);
        assert!(matches!(field(o, "scalar_found", what), Value::Bool(_)));
        assert!(matches!(field(o, "tested_together", what), Value::Bool(_)));
    }
    for s in as_seq(field(v, "unused_suppressions", what), what) {
        expect_str(s, "file", what);
        expect_u64(s, "line", what);
        expect_str(s, "message", what);
    }
}

/// `results/detlint_modes.json` (written by `detlint --all`): the per-mode
/// status breakdown ci.sh reads to keep per-stage granularity after the
/// three detlint stages collapsed into one combined run.
fn check_detlint_modes(v: &Value, what: &str) {
    let status = field(v, "status", what).as_str().expect("status is a string");
    assert!(status == "clean" || status == "dirty", "{what}: unknown status {status}");
    let modes = as_seq(field(v, "modes", what), what);
    let names: Vec<&str> =
        modes.iter().map(|m| field(m, "mode", what).as_str().expect("mode is a string")).collect();
    assert_eq!(names, ["leaf", "taint", "concur", "accum"], "{what}: mode set drifted");
    let mut any_dirty = false;
    for m in modes {
        let st = field(m, "status", what).as_str().expect("mode status is a string");
        assert!(st == "clean" || st == "dirty", "{what}: unknown mode status {st}");
        let Value::U64(findings) = field(m, "findings", what) else {
            panic!("{what}: findings must be a non-negative integer");
        };
        assert_eq!(st == "dirty", *findings > 0, "{what}: status must agree with findings");
        any_dirty |= st == "dirty";
    }
    assert_eq!(status == "dirty", any_dirty, "{what}: overall status must agree with modes");
}

/// `results/detlint.sarif` (written by any mode's `--sarif`): a SARIF
/// 2.1.0 document, one run per analysis mode, each result carrying rule id,
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
fn taint_report_fixture_is_in_schema() {
    check_taint_report(&read_value(&fixture("taint_report.json")), "fixtures/taint_report.json");
}

#[test]
fn concur_report_fixture_is_in_schema() {
    check_concur_report(&read_value(&fixture("concur_report.json")), "fixtures/concur_report.json");
}

#[test]
fn accum_report_fixture_is_in_schema() {
    // Generated from the planted accum fixture tree, so the findings, span,
    // loop, and oracle branches of the checker all actually execute.
    let v = read_value(&fixture("accum_report.json"));
    check_accum_report(&v, "fixtures/accum_report.json");
    let Value::U64(count) = field(&v, "count", "fixture") else { unreachable!() };
    assert!(*count > 0, "fixture must carry findings or the checker is half-dead");
}

#[test]
fn detlint_modes_fixture_is_in_schema() {
    check_detlint_modes(&read_value(&fixture("detlint_modes.json")), "fixtures/detlint_modes.json");
}

#[test]
fn sarif_fixture_is_in_schema_and_carries_results() {
    let v = read_value(&fixture("detlint.sarif"));
    check_sarif(&v, "fixtures/detlint.sarif");
    let runs = as_seq(field(&v, "runs", "fixture"), "fixture");
    assert_eq!(runs.len(), 4, "a combined --all document has one run per mode");
    let total: usize =
        runs.iter().map(|r| as_seq(field(r, "results", "fixture"), "fixture").len()).sum();
    assert!(total > 0, "fixture must carry results or the checker is half-dead");
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
        ("taint_report.json", check_taint_report as fn(&Value, &str)),
        ("concur_report.json", check_concur_report as fn(&Value, &str)),
        ("accum_report.json", check_accum_report as fn(&Value, &str)),
        ("detlint_modes.json", check_detlint_modes as fn(&Value, &str)),
        ("detlint.sarif", check_sarif as fn(&Value, &str)),
    ] {
        let path = results.join(name);
        if path.exists() {
            check(&read_value(&path), &format!("results/{name}"));
        }
    }
}
