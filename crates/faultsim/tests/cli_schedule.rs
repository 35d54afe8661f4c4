//! CLI contract for outside input: a malformed `--schedule` artifact —
//! unknown fault kind, out-of-range field, unreadable file, nesting deep
//! enough to exhaust the stack — or a `--steps` the generator cannot use
//! must fail with a one-line error on stderr and exit status 2, never a
//! panic or an abort. A valid artifact must load, replay, and report the
//! byte-identity verdict.

use std::path::{Path, PathBuf};
use std::process::Command;

fn faultsim_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_faultsim"))
}

fn tmp_file(tag: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir()
        .join(format!("easyscale-cli-schedule-{tag}-{}.json", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

/// Run `faultsim --schedule <path>` and return (status code, stderr).
fn run_with_schedule(path: &Path) -> (i32, String) {
    let out = faultsim_bin()
        .args(["--schedule", path.to_str().unwrap(), "--steps", "4"])
        .output()
        .expect("faultsim binary runs");
    (out.status.code().unwrap_or(-1), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn unknown_fault_kind_is_a_clear_error_not_a_panic() {
    let path =
        tmp_file("unknown-kind", r#"{"seed": 0, "events": [{"step": 1, "kind": "MeteorStrike"}]}"#);
    let (code, stderr) = run_with_schedule(&path);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, 2, "malformed schedule must exit 2, stderr: {stderr}");
    assert!(stderr.contains("invalid schedule"), "stderr names the problem: {stderr}");
    assert!(stderr.contains("cannot parse"), "parse failures say so: {stderr}");
    assert!(!stderr.contains("panicked"), "never a panic: {stderr}");
}

#[test]
fn out_of_range_field_is_a_clear_error_not_a_panic() {
    // Parses fine (serde-valid), but keep_frac_milli is out of range: only
    // schedule validation can catch it.
    let path = tmp_file(
        "out-of-range",
        r#"{"seed": 0, "events": [{"step": 1, "kind": {"TornCheckpoint": {"keep_frac_milli": 5000}}}]}"#,
    );
    let (code, stderr) = run_with_schedule(&path);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, 2, "invalid field must exit 2, stderr: {stderr}");
    assert!(stderr.contains("invalid schedule"), "stderr names the problem: {stderr}");
    assert!(stderr.contains("keep_frac_milli"), "stderr names the field: {stderr}");
    assert!(!stderr.contains("panicked"), "never a panic: {stderr}");
}

#[test]
fn missing_schedule_file_is_a_clear_error_not_a_panic() {
    let path = std::env::temp_dir().join("easyscale-cli-schedule-does-not-exist.json");
    let (code, stderr) = run_with_schedule(&path);
    assert_eq!(code, 2, "unreadable schedule must exit 2, stderr: {stderr}");
    assert!(stderr.contains("cannot read"), "stderr says why: {stderr}");
    assert!(!stderr.contains("panicked"), "never a panic: {stderr}");
}

#[test]
fn absurdly_nested_file_is_a_clear_error_not_a_stack_overflow() {
    let path = tmp_file("nested", &"[".repeat(200_000));
    let (code, stderr) = run_with_schedule(&path);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, 2, "must exit 2 (an abort has no exit code), stderr: {stderr}");
    assert!(stderr.contains("cannot parse"), "parse failures say so: {stderr}");
    assert!(!stderr.contains("overflow"), "never a stack overflow: {stderr}");
}

#[test]
fn too_few_steps_to_generate_a_schedule_is_a_usage_error_not_a_panic() {
    let out = faultsim_bin().args(["--steps", "1"]).output().expect("faultsim binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2, stderr: {stderr}");
    assert!(stderr.contains("--steps"), "stderr names the flag: {stderr}");
    assert!(!stderr.contains("panicked"), "never a panic: {stderr}");
}

#[test]
fn valid_thread_fault_schedule_replays_through_the_cli() {
    let schedule = faultsim::FaultSchedule::from_events(vec![faultsim::FaultEvent {
        step: 1,
        kind: faultsim::FaultKind::ThreadPanic { worker: 0 },
    }]);
    let path = tmp_file("valid", &schedule.to_json());
    let out = faultsim_bin()
        .args(["--schedule", path.to_str().unwrap(), "--steps", "4", "--json"])
        .output()
        .expect("faultsim binary runs");
    let _ = std::fs::remove_file(&path);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "valid schedule passes: {stdout}");
    assert!(stdout.contains("\"bitwise_identical\": true"), "invariant held: {stdout}");
    assert!(stdout.contains("thread_panic"), "summary lists the kind: {stdout}");
}
