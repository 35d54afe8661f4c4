//! The benchmark's own end-to-end test: `esbench smoke` runs every workload
//! at its smallest scale, untraced and traced, and checks that each metric
//! and workload `BENCHMARK.json` names comes out finite and in its unit.

use std::path::Path;
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ sits in the repo root")
}

#[test]
fn smoke_covers_every_declared_metric_and_passes_its_checks() {
    let out = Command::new(env!("CARGO_BIN_EXE_esbench"))
        .arg("smoke")
        .current_dir(repo_root())
        .output()
        .expect("esbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "smoke failed\nstdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("4 workloads") && stdout.contains("checks passed"), "{stdout}");
}

#[test]
fn a_run_prints_the_contract_line_last_and_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_esbench"))
        .args([
            "--workload",
            "sched_trace",
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--smoke",
        ])
        .current_dir(repo_root())
        .output()
        .expect("esbench runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\":true,\"attempted\":"), "{last}");
    for metric in ["work_per_s", "rescale_stall_ms", "fault_stall_ms", "setup_s", "peak_rss_mb"] {
        assert!(last.contains(&format!("\"{metric}\":{{\"value\":")), "{metric} missing: {last}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in
        [&["--workload", "nope"][..], &["--workload", "train_sync", "--trace", "2"], &["bogus"]]
    {
        let out = Command::new(env!("CARGO_BIN_EXE_esbench"))
            .args(args)
            .current_dir(repo_root())
            .output()
            .expect("esbench runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} printed {:?}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
