//! `cargo run -p detlint [-- [--root PATH] [--sarif PATH] [--quiet]]`
//!
//! Runs all three determinism analyses over every `crates/*/src/**/*.rs` in
//! the workspace and exits 1 on any diagnostic, so it can gate CI
//! (scripts/ci.sh) exactly like clippy does. Exit 2 is a usage or IO error:
//! an argument the tool does not know is never silently ignored.

use detlint::{report, sarif};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "USAGE: detlint [--root PATH] [--sarif PATH] [--quiet]";

const HELP: &str = "Runs the leaf rules, the interprocedural taint analysis and the kernel-oracle
pairing off one shared workspace model, prints every diagnostic with its
witnesses, and ends with one `leaf|taint|accum: clean / N finding(s)` line
per analysis.

--root PATH   workspace root (default: the enclosing workspace)
--sarif PATH  also write the diagnostics as a SARIF 2.1.0 document (one
              run per analysis)
--quiet       print only the per-analysis summary lines

Exits 1 when a diagnostic exists, 2 on a usage or IO error. Suppress a
site with `// detlint::allow(rule): reason` on the line or the line above;
the token is the diagnostic's rule id (`no-wall-clock`, `oracle-unpaired`,
…), or `taint` / `taint-<kind>` to block taint propagation through the
site.";

struct Opts {
    root: Option<PathBuf>,
    sarif: Option<PathBuf>,
    quiet: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts { root: None, sarif: None, quiet: false };
    while let Some(arg) = args.next() {
        let mut path =
            || args.next().map(PathBuf::from).ok_or_else(|| format!("{arg} needs a PATH"));
        match arg.as_str() {
            "--root" => opts.root = Some(path()?),
            "--sarif" => opts.sarif = Some(path()?),
            "--quiet" => opts.quiet = true,
            _ => return Err(format!("unrecognised argument `{arg}`")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "detlint: static determinism lint for the EasyScale workspace\n\n{USAGE}\n\n{HELP}"
        );
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(args.into_iter()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("detlint: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Under `cargo run -p detlint` the manifest dir is crates/detlint; the
    // workspace root is two levels up.
    let root = opts
        .root
        .or_else(|| std::env::var_os("CARGO_MANIFEST_DIR").map(|d| PathBuf::from(d).join("../..")))
        .unwrap_or_else(|| PathBuf::from("."));

    let rep = match detlint::analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("detlint: cannot read workspace {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &opts.sarif {
        if let Err(e) = std::fs::write(path, sarif::document(&rep.diagnostics)) {
            eprintln!("detlint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    print!("{}", if opts.quiet { report::summary(&rep) } else { report::human(&rep) });
    ExitCode::from(u8::from(!rep.is_clean()))
}
