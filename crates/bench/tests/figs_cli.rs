//! `figs` with no argument or an unknown name is a usage error: exit 2 and
//! the valid names on stderr (the convention detlint and faultsim follow),
//! nothing run and nothing written. (Exit 1, a result file that cannot be
//! written, needs a broken `results/` and is tested in-process in
//! `src/main.rs`.)

use std::process::Command;

fn figs(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_figs")).args(args).output().expect("figs runs");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn no_argument_and_unknown_names_exit_2_and_list_the_valid_names() {
    for args in [&[][..], &["fig99_nope"], &["tab01_workloads", "fig02"]] {
        let (code, stdout, stderr) = figs(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} ran something: {stdout}");
        assert!(stderr.contains("usage: figs <name>... | all"), "{stderr}");
        for name in ["tab01_workloads", "fig09_loss_consistency", "abl_est_balance"] {
            assert!(stderr.contains(name), "{args:?}: `{name}` not listed in: {stderr}");
        }
    }
    let (_, _, stderr) = figs(&["fig99_nope"]);
    assert!(stderr.contains("unknown figure `fig99_nope`"), "{stderr}");
}
