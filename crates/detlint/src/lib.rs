//! detlint — a workspace determinism lint.
//!
//! EasyScale's accuracy-consistency story (PAPER.md §3) only holds if the
//! *whole* deterministic path is free of hidden order dependence: hash-table
//! iteration, wall-clock reads, thread-completion order, partial float
//! orders. The runtime tests (`determinism_matrix`, `nthread_eq_single`,
//! the goldens) catch a regression once an input exposes it; detlint flags
//! the order dependence at the source level, before any input does. A rule
//! stays only while it catches an edit those tests, clippy and the other
//! rules all miss (`tests/detlint_mutations.rs`, docs/DETLINT.md).
//!
//! Design constraints mirror the shims philosophy: fully offline, no
//! external parser — a hand-rolled token scanner ([`lexer`]) feeds three
//! analyses that share one lex, one item model ([`items`]) and one call
//! graph ([`callgraph`]): the leaf [`rules`], interprocedural [`taint`]
//! flows and the kernel-oracle pairing of [`accum`]. [`analyze`] runs all
//! three against one [`Policy`] and one suppression ledger ([`suppress`])
//! and returns one [`Report`] of [`Diagnostic`]s, rendered as human text
//! ([`report`]) or SARIF 2.1.0 ([`sarif`]).

pub mod accum;
pub mod callgraph;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod sarif;
pub mod suppress;
pub mod taint;

use std::io;
use std::path::{Path, PathBuf};

/// Workspace policy: which crates, fns and types each analysis keys on.
/// There is one value, [`Policy::workspace_default`] (docs/DETLINT.md).
///
/// Crate names here are the directory names under `crates/` (which for this
/// workspace equal the package names, except `core` whose package is
/// `easyscale`).
#[derive(Debug, Clone)]
pub struct Policy {
    /// Crates on the deterministic path — everything a training step's
    /// bitwise result flows through. `no-hash-iter`, `no-thread-order` and
    /// `no-float-key-sort` apply here, and only fns here count as taint
    /// witnesses when a *tainted caller* invokes a sink (keeps bench/test
    /// harness timing from fabricating flows).
    pub deterministic_path: &'static [&'static str],
    /// Crates allowed to read wall clocks (`no-wall-clock` applies in every
    /// other crate — observability and benches own the clock).
    pub wall_clock_exempt: &'static [&'static str],
    /// Crates whose float math is numeric-contract-bearing: oracle pairing
    /// applies here.
    pub float_crates: &'static [&'static str],
    /// Type names that, appearing in a fn signature, mark the fn as an
    /// order-parameterized kernel: its float order is explicit state, so
    /// `no-float-key-sort` does not fire inside it.
    pub order_param_types: &'static [&'static str],
    /// Identifiers that bless a float ordering as total (`no-float-key-sort`
    /// stands down when one appears in the comparator/statement).
    pub total_order_helpers: &'static [&'static str],
    /// Crates that are taint barriers wholesale: every fn inside absorbs
    /// taint.
    pub barrier_crates: &'static [&'static str],
    /// Fn names that are declared canonical drains, wherever they live:
    /// taint absorbs at these fns. `comm::exchange`'s unit tests prove its
    /// drains sort, and `nthread_eq_single` that nothing past them depends
    /// on thread order.
    pub drain_fns: &'static [&'static str],
    /// Taint sinks as `(crate, fn name, sink kind)`; the fn matches under
    /// any impl type. A flow is a source reaching one of these.
    pub sinks: &'static [(&'static str, &'static str, &'static str)],
    /// Vectorized-kernel name set for oracle pairing. A trailing `*` is a
    /// prefix glob (`matmul*`); names ending `_scalar` are never subjects.
    pub oracle_kernels: &'static [&'static str],
}

impl Policy {
    /// The policy for this workspace, matching docs/DETLINT.md.
    pub fn workspace_default() -> Self {
        Policy {
            deterministic_path: &[
                "core", "comm", "tensor", "sched", "data", "esrng", "models", "optim", "faultsim",
            ],
            wall_clock_exempt: &["obs", "bench"],
            float_crates: &["tensor", "comm", "models"],
            order_param_types: &["KernelProfile", "ExecCtx", "RingSpec", "ConvGeom"],
            total_order_helpers: &["total_cmp"],
            barrier_crates: &["obs", "esrng"],
            drain_fns: &["drain_sorted", "drain_deadline", "worker_main"],
            sinks: &[
                ("optim", "step", "param-update"),
                ("models", "apply_flat_delta", "param-update"),
                ("models", "load_flat_params", "param-update"),
                ("comm", "ring_allreduce", "allreduce-merge"),
                ("comm", "allreduce_avg", "allreduce-merge"),
                ("comm", "allreduce_avg_with_retry", "allreduce-merge"),
                ("core", "save", "checkpoint-serialize"),
                ("core", "encode_file", "checkpoint-serialize"),
                ("core", "checkpoint", "checkpoint-serialize"),
                ("sched", "proposals", "sched-proposal"),
                ("sched", "decide", "sched-proposal"),
            ],
            oracle_kernels: &[
                "blocked_sum",
                "leaf_partials",
                "dot",
                "matmul*",
                "conv2d*",
                "axpy_",
                "ring_allreduce",
            ],
        }
    }
}

/// The analysis a diagnostic comes from. Declaration order is report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mode {
    /// The token-level rule catalog ([`rules`]).
    Leaf,
    /// Interprocedural source→sink flows ([`taint`]).
    Taint,
    /// Kernel-oracle pairing ([`accum`]).
    Accum,
}

impl Mode {
    /// Every analysis, in report order.
    pub const ALL: [Mode; 3] = [Mode::Leaf, Mode::Taint, Mode::Accum];

    /// The short name used in summaries and SARIF `properties.mode`.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Leaf => "leaf",
            Mode::Taint => "taint",
            Mode::Accum => "accum",
        }
    }
}

/// One witness location attached to a diagnostic: a call-path hop (the
/// label is the qualified fn) or a labelled span (`kernel`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Related {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What this location witnesses.
    pub label: String,
}

/// One finding of any analysis at a source location; every one gates. Field
/// order is sort order: by analysis, then location, then rule.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// The analysis that produced it.
    pub mode: Mode,
    /// Path as reported (workspace-relative when walking a workspace).
    pub file: String,
    /// 1-based anchor line — the line an allow must cover.
    pub line: u32,
    /// Rule id from [`rules::CATALOG`]; doubles as the suppression token.
    pub rule: &'static str,
    /// Determinism level the rule protects (`D0`/`D1`/`D2`, or `meta`).
    pub level: &'static str,
    /// What is wrong and what to use instead.
    pub message: String,
    /// Witness locations: call-path hops or labelled spans.
    pub related: Vec<Related>,
}

/// One source file fed to analysis: the crate directory name it belongs
/// to, its workspace-relative path, and its text.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Directory name under `crates/`.
    pub crate_name: String,
    /// Workspace-relative path, as reported in diagnostics.
    pub file: String,
    /// File contents.
    pub src: String,
}

/// An IO error that names the path it happened on.
fn at(path: &Path) -> impl Fn(io::Error) -> io::Error + '_ {
    move |e| io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Append every `.rs` under `dir` (recursively, sorted by path) to `out`
/// as a file of `crate_name`. A missing `dir` contributes nothing.
fn read_tree(
    root: &Path,
    dir: PathBuf,
    crate_name: &str,
    out: &mut Vec<SourceFile>,
) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut pending = vec![dir];
    let mut files = Vec::new();
    while let Some(d) = pending.pop() {
        for entry in std::fs::read_dir(&d).map_err(at(&d))? {
            let p = entry.map_err(at(&d))?.path();
            if p.is_dir() {
                pending.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                files.push(p);
            }
        }
    }
    files.sort();
    for path in files {
        let src = std::fs::read_to_string(&path).map_err(at(&path))?;
        let file = path.strip_prefix(root).unwrap_or(&path).display().to_string();
        out.push(SourceFile { crate_name: crate_name.to_string(), file, src });
    }
    Ok(())
}

/// Read the workspace under `root`, in sorted order: every
/// `crates/*/src/**/*.rs` (the analyzed sources) and every integration-test
/// file — `crates/*/tests/**/*.rs` plus the workspace-level `tests/*.rs`.
/// Test files are not linted; they are *evidence* for the oracle-pairing
/// pass (a kernel and its `_scalar` sibling must be exercised together by
/// at least one test). Any directory or file that cannot be read —
/// including a `.rs` that is not UTF-8 — is an error naming the path: a
/// file the lint could not see must never count as clean.
pub fn workspace_sources(root: &Path) -> io::Result<(Vec<SourceFile>, Vec<SourceFile>)> {
    let crates_dir = root.join("crates");
    let mut crate_dirs = Vec::new();
    for entry in std::fs::read_dir(&crates_dir).map_err(at(&crates_dir))? {
        let p = entry.map_err(at(&crates_dir))?.path();
        if p.is_dir() {
            crate_dirs.push(p);
        }
    }
    crate_dirs.sort();

    let (mut sources, mut tests) = (Vec::new(), Vec::new());
    for dir in crate_dirs {
        let Some(crate_name) = dir.file_name().and_then(|n| n.to_str()) else { continue };
        read_tree(root, dir.join("src"), crate_name, &mut sources)?;
        read_tree(root, dir.join("tests"), crate_name, &mut tests)?;
    }
    read_tree(root, root.join("tests"), "tests", &mut tests)?;
    Ok((sources, tests))
}

/// One analyzed file inside a [`Model`]: lexed exactly once, with its
/// `#[cfg(test)]` regions and fn owners precomputed, shared by every
/// analysis.
#[derive(Debug)]
pub struct ModelFile {
    /// Directory name under `crates/`.
    pub crate_name: String,
    /// Workspace-relative path.
    pub file: String,
    /// The token stream + comments.
    pub lexed: lexer::Lexed,
    /// `#[cfg(test)] mod … { … }` line ranges.
    pub test_regions: Vec<(u32, u32)>,
    /// Graph ids of the file's fns, in source order.
    pub fns: std::ops::Range<usize>,
    /// Per token: graph id of the innermost fn whose signature or body
    /// holds it ([`items::owners`]).
    pub owner: Vec<Option<usize>>,
}

/// The shared analysis model: every analysis runs off one lex + one item
/// parse + one call graph. Files are sorted at build time, so downstream
/// output never depends on the caller's visit order.
#[derive(Debug)]
pub struct Model {
    /// Analyzed source files, sorted by `(crate, file)`.
    pub files: Vec<ModelFile>,
    /// Items of the integration-test files (oracle evidence), sorted by
    /// `(crate, file)`.
    pub test_files: Vec<items::FileItems>,
    /// The cross-crate call graph over `files`.
    pub graph: callgraph::Graph,
}

/// `files` in `(crate, file)` order.
fn sorted(files: &[SourceFile]) -> Vec<&SourceFile> {
    let mut sorted: Vec<&SourceFile> = files.iter().collect();
    sorted.sort_by(|a, b| (&a.crate_name, &a.file).cmp(&(&b.crate_name, &b.file)));
    sorted
}

/// Lex one file and parse its item model.
fn parse(sf: &SourceFile) -> (lexer::Lexed, Vec<(u32, u32)>, items::FileItems) {
    let lexed = lexer::lex(&sf.src);
    let regions = lexer::test_regions(&lexed.toks);
    let items = items::parse_lexed(&lexed, &regions, &sf.crate_name, &sf.file);
    (lexed, regions, items)
}

/// Build the shared model: one lex, one item parse, one graph.
pub fn build_model(files: &[SourceFile], test_files: &[SourceFile]) -> Model {
    let mut model_files: Vec<ModelFile> = Vec::with_capacity(files.len());
    let mut file_items = Vec::with_capacity(files.len());
    for sf in sorted(files) {
        let (lexed, test_regions, items) = parse(sf);
        let base = model_files.last().map_or(0, |mf| mf.fns.end);
        model_files.push(ModelFile {
            crate_name: sf.crate_name.clone(),
            file: sf.file.clone(),
            owner: items::owners(&items.fns, lexed.toks.len(), base),
            fns: base..base + items.fns.len(),
            lexed,
            test_regions,
        });
        file_items.push(items);
    }
    let test_files = sorted(test_files).into_iter().map(|sf| parse(sf).2).collect();
    Model { files: model_files, test_files, graph: callgraph::Graph::build(file_items) }
}

/// Everything one run produced: the diagnostics of all three analyses, plus
/// the typed inventories that make a zero-finding result meaningful (what
/// flowed where, which kernels were checked for an oracle).
#[derive(Debug, PartialEq, Eq)]
pub struct Report {
    /// Every diagnostic, sorted (see [`Diagnostic`]): leaf findings, lowered
    /// taint flows, oracle-pairing findings, and stale suppressions under
    /// the analysis that owns them.
    pub diagnostics: Vec<Diagnostic>,
    /// Taint flows with their typed source/sink/witness path, sorted by
    /// `(source_file, source_line, source_kind, sink_fn)`.
    pub flows: Vec<taint::Flow>,
    /// Oracle-pairing inventory, sorted by `(file, line, kernel)`.
    pub oracles: Vec<accum::OracleCheck>,
}

impl Report {
    /// The diagnostics of one analysis.
    pub fn mode(&self, mode: Mode) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.mode == mode)
    }

    /// No diagnostic in any analysis?
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Run all three analyses over one shared model against one suppression
/// ledger: scan every allow once, let each pass report through the shared
/// [`suppress::Emitter`], then settle stale allows once — an allow is stale
/// only when no analysis consumed it.
pub fn analyze(model: &Model, policy: &Policy) -> Report {
    let mut em = suppress::Emitter::default();
    for mf in &model.files {
        em.allows.scan_file(&mf.lexed, &mf.file, &mf.test_regions);
    }
    // One leaf scan per file: the leaf pass reports what its crate scoping
    // admits, taint seeds its sources from every hit.
    let hits: Vec<Vec<rules::Hit>> =
        model.files.iter().map(|mf| rules::detect(mf, &model.graph.fns, policy)).collect();
    for (mf, hits) in model.files.iter().zip(&hits) {
        for &(rule, tok, ref message) in hits {
            if rules::scoped(policy, &mf.crate_name, rule) {
                em.emit(rule, &mf.file, mf.lexed.toks[tok].line, message.clone(), Vec::new());
            }
        }
    }
    let flows = taint::analyze(model, policy, &hits, &mut em);
    let oracles = accum::analyze(model, policy, &mut em);
    em.settle_stale();
    let mut diagnostics = em.out;
    diagnostics.sort();
    Report { diagnostics, flows, oracles }
}

/// [`analyze`] over the workspace at `root` with the workspace policy.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let (files, test_files) = workspace_sources(root)?;
    Ok(analyze(&build_model(&files, &test_files), &Policy::workspace_default()))
}

/// Unit-test support shared by every module: analyze in-memory sources.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A source file at `crates/<crate_name>/src/<name>`.
    pub fn file(crate_name: &str, name: &str, src: &str) -> SourceFile {
        SourceFile {
            crate_name: crate_name.to_string(),
            file: format!("crates/{crate_name}/src/{name}"),
            src: src.to_string(),
        }
    }

    /// All three analyses over `files` (+ `test_files` as oracle evidence).
    pub fn run(files: &[SourceFile], test_files: &[SourceFile]) -> Report {
        analyze(&build_model(files, test_files), &Policy::workspace_default())
    }

    /// `report`'s diagnostics in `mode`, stale allows excluded.
    pub fn findings(report: &Report, mode: Mode) -> Vec<&Diagnostic> {
        report.mode(mode).filter(|d| d.rule != "unused-suppression").collect()
    }

    /// `report`'s stale-allow diagnostics in `mode`.
    pub fn stale(report: &Report, mode: Mode) -> Vec<&Diagnostic> {
        report.mode(mode).filter(|d| d.rule == "unused-suppression").collect()
    }
}
