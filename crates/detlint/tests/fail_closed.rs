//! detlint fails *closed*: an argument it does not understand or a source
//! file it cannot read is an error, never a silent "clean". (Both used to
//! fail open: `detlint --concurency` ran a different analysis and exited 0,
//! and an unreadable `.rs` was skipped.)

use std::path::{Path, PathBuf};
use std::process::Command;

fn detlint(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_detlint")).args(args).output().expect("detlint spawns")
}

/// A one-crate workspace under the test tmpdir whose only source file has
/// `contents`. Built at run time: a committed non-UTF-8 `.rs` under
/// `crates/detlint/tests/` would itself be walked by the live-workspace
/// gates (test files are oracle evidence).
fn scratch_workspace(name: &str, contents: &[u8]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let src = root.join("crates/demo/src");
    std::fs::create_dir_all(&src).expect("scratch tree");
    std::fs::write(src.join("lib.rs"), contents).expect("scratch source");
    root
}

#[test]
fn an_unrecognised_argument_is_a_usage_error() {
    let out = detlint(&["--concurency"]);
    assert_eq!(out.status.code(), Some(2), "typo'd flag must not run anything");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unrecognised argument `--concurency`"), "{err}");
    assert!(err.contains("USAGE"), "{err}");
    assert!(out.stdout.is_empty(), "nothing was analyzed");
}

#[test]
fn a_flag_missing_its_value_is_a_usage_error() {
    let out = detlint(&["--quiet", "--sarif"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--sarif needs a PATH"));
}

#[test]
fn the_three_flags_work_together_and_findings_exit_one() {
    let root = scratch_workspace("fail_closed_dirty", b"pub fn f() { let _ = rx.recv(); }\n");
    let sarif = root.join("out.sarif");
    let out =
        detlint(&["--root", root.to_str().unwrap(), "--sarif", sarif.to_str().unwrap(), "--quiet"]);
    assert_eq!(out.status.code(), Some(1), "an order leak is a blocking diagnostic");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "leaf: clean\ntaint: clean\nconcur: 1 finding(s)\naccum: clean\n",
        "--quiet prints exactly the per-analysis summary"
    );
    assert!(std::fs::read_to_string(&sarif).expect("sarif written").contains("\"order-leak\""));
}

#[test]
fn a_non_utf8_source_file_is_an_error_naming_the_file() {
    let root = scratch_workspace("fail_closed_bad_utf8", b"pub fn f() {}\n// \xff\xfe\n");
    let err = detlint::workspace_sources(&root).expect_err("must not be skipped as clean");
    assert!(err.to_string().contains("crates/demo/src/lib.rs"), "{err}");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    // …and through the binary it is exit 2, not a clean 0.
    let out = detlint(&["--root", root.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("crates/demo/src/lib.rs"));
}
