//! Tier-1 mutation harness: detlint guards the *live* deterministic path,
//! not just fixtures shaped like it. Each case edits live source files in
//! memory — the kind of edit a careless refactor would make — and the
//! analysis must gain diagnostics of exactly the named rules. Needles are
//! asserted to occur exactly once, so drift in the edited code fails loudly
//! instead of silently testing nothing.
//!
//! Each rule in `rules::CATALOG` has one *evidence* case: an edit that the
//! rule catches and every other check misses (docs/DETLINT.md, "Keeping a
//! rule"). "Every other check passed" below means: the edit applied to a
//! checkout, then `cargo clippy --workspace --all-targets -- -D warnings`
//! (the clippy.toml deny-list), `cargo test --workspace` (tier-1
//! included), the release goldens (`kernel_golden`, `restore_golden`,
//! `vectorized_equiv`, `conv_golden`), `figs all` leaving `results/`
//! unchanged, the benchmark's smoke pass and faultsim's detection matrix
//! all passed, three runs each; the only failures were detlint's own gates.
//! A taint flow of a leaf rule's source kind is not a second check: the
//! leaf rule's detector is that flow's source.

use detlint::{analyze, build_model, Diagnostic, Policy, SourceFile};
use std::path::Path;
use std::sync::OnceLock;

struct Live {
    files: Vec<SourceFile>,
    test_files: Vec<SourceFile>,
    /// Diagnostics of the unedited tree (none, per the clean gate).
    baseline: Vec<Diagnostic>,
}

fn diagnostics(files: &[SourceFile], test_files: &[SourceFile]) -> Vec<Diagnostic> {
    analyze(&build_model(files, test_files), &Policy::workspace_default()).diagnostics
}

/// The live workspace, read once for every case.
fn live() -> &'static Live {
    static LIVE: OnceLock<Live> = OnceLock::new();
    LIVE.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let (files, test_files) = detlint::workspace_sources(root).expect("workspace walks");
        let baseline = diagnostics(&files, &test_files);
        Live { files, test_files, baseline }
    })
}

/// Replace the single occurrence of each `(needle, replacement)` in the
/// source or test file `file` and return the diagnostics the edit
/// introduced.
fn mutate(file: &str, edits: &[(&str, &str)]) -> Vec<Diagnostic> {
    let live = live();
    let (mut files, mut test_files) = (live.files.clone(), live.test_files.clone());
    let target = files
        .iter_mut()
        .chain(&mut test_files)
        .find(|f| f.file == file)
        .unwrap_or_else(|| panic!("{file} moved"));
    for (needle, replacement) in edits {
        assert_eq!(target.src.matches(needle).count(), 1, "needle drifted in {file}: {needle:?}");
        target.src = target.src.replace(needle, replacement);
    }
    let mut gained = diagnostics(&files, &test_files);
    gained.retain(|d| !live.baseline.contains(d));
    gained
}

fn assert_gains(gained: &[Diagnostic], rule: &str, file: &str) {
    assert!(
        gained.iter().any(|d| d.rule == rule && d.file == file),
        "the edit must raise `{rule}` in {file}; gained: {gained:#?}"
    );
}

/// The distinct rules among `gained`, sorted.
fn rules(gained: &[Diagnostic]) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = gained.iter().map(|d| d.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

// -- Evidence: one edit per rule that only that rule catches ---------------

#[test]
fn naming_a_bad_est_through_a_hash_map_is_no_hash_iter() {
    // A restore refuses a checkpoint whose contexts hold another model's
    // BatchNorm state, naming the first such EST. Indexing the contexts by
    // vrank in a HashMap makes "first" hasher order: with two bad ESTs the
    // error names a different one from run to run. The tests graft one.
    // Every other check passed.
    let file = "crates/core/src/worker.rs";
    let gained = mutate(
        file,
        &[(
            concat!(
                "        if let Some(c) = contexts.iter().find(|c| !implicit.same_shape(&c.implicit)) {\n",
                "            return Err(RestoreError::ImplicitState(c.vrank));\n",
            ),
            concat!(
                "        let by_rank: std::collections::HashMap<u32, &EstContext> =\n",
                "            contexts.iter().map(|c| (c.vrank, c)).collect();\n",
                "        if let Some((&vrank, _)) = by_rank.iter().find(|(_, c)| !implicit.same_shape(&c.implicit)) {\n",
                "            return Err(RestoreError::ImplicitState(vrank));\n",
            ),
        )],
    );
    assert_gains(&gained, "no-hash-iter", file);
    assert_eq!(rules(&gained), ["no-hash-iter", "taint-flow"], "{gained:#?}");
}

#[test]
fn launching_a_pool_thread_with_a_bare_spawn_is_no_thread_order() {
    // clippy bans `std::thread::spawn`, but `launch` carries an
    // `#[allow(clippy::disallowed_methods)]` for its raw channels, and that
    // allow covers the whole fn; detlint's allows cover one line. The
    // thread also loses its `esw-dev<id>` name, by which the benchmark pins
    // workers to cores. Every other check passed.
    let file = "crates/core/src/pool.rs";
    let gained = mutate(
        file,
        &[(
            concat!(
                "    let thread = std::thread::Builder::new()\n",
                "        .name(format!(\"esw-dev{dev}\"))\n",
                "        .spawn(move || worker_main(worker, cmd_rx, reply_tx))\n",
                "        .expect(\"failed to spawn worker thread\");\n",
            ),
            "    let thread = std::thread::spawn(move || worker_main(worker, cmd_rx, reply_tx));\n",
        )],
    );
    assert_gains(&gained, "no-thread-order", file);
    assert_eq!(rules(&gained), ["no-thread-order", "taint-flow"], "{gained:#?}");
}

#[test]
fn ranking_proposals_with_partial_cmp_is_no_float_key_sort() {
    // `decide` ranks proposals by speedup per GPU. Through
    // `partial_cmp().unwrap()` a NaN speedup panics the scheduler and
    // -0.0 ties 0.0; no trace has either. clippy has no lint for it.
    // Every other check passed.
    let file = "crates/sched/src/inter.rs";
    let gained = mutate(
        file,
        &[(
            "b.speedup_per_gpu.total_cmp(&a.speedup_per_gpu)",
            "b.speedup_per_gpu.partial_cmp(&a.speedup_per_gpu).unwrap()",
        )],
    );
    assert_gains(&gained, "no-float-key-sort", file);
    assert_eq!(rules(&gained), ["no-float-key-sort"], "{gained:#?}");
}

#[test]
fn a_hash_ordered_sm_count_flows_into_the_vendor_kernel_profile() {
    // `device` is off the deterministic path, so no leaf rule reports a
    // hash iteration there, yet `GpuType::sm_count` picks the vendor
    // kernels' tiles (`Determinism::profile_for`) and so the optimizer's
    // input bits. Today's table has one key per type, so the scan's answer —
    // and every check — is unchanged; only the taint flow sees the order
    // dependence reach the parameter update. Every other check passed.
    let file = "crates/device/src/lib.rs";
    let gained = mutate(
        file,
        &[(
            concat!(
                "        match self {\n",
                "            GpuType::V100 => 80,\n",
                "            GpuType::P100 => 56,\n",
                "            GpuType::T4 => 40,\n",
                "        }\n",
            ),
            concat!(
                "        let sms: std::collections::HashMap<GpuType, u32> =\n",
                "            [(GpuType::V100, 80), (GpuType::P100, 56), (GpuType::T4, 40)].into();\n",
                "        sms.iter().find(|(t, _)| **t == self).map_or(0, |(_, &n)| n)\n",
            ),
        )],
    );
    assert_eq!(rules(&gained), ["taint-flow"], "{gained:#?}");
    assert!(
        gained.iter().all(|d| d.file == file && d.message.starts_with("hash-iter -> ")),
        "{gained:#?}"
    );
    assert!(gained.iter().any(|d| d.message.contains("(optim::Sgd::step)")), "{gained:#?}");
}

#[test]
fn holding_matmul_a_bt_into_to_its_wrapper_is_oracle_unpaired() {
    // A tidy-up of `vectorized_equiv` checks the slice kernel against the
    // Tensor wrapper, which calls that same kernel, instead of against the
    // scalar oracle: the assertion still passes and proves nothing, and no
    // test holds `matmul_a_bt_into` to `matmul_a_bt_scalar` any more (the
    // ops unit test checks the wrapper, on its own few shapes). Every other
    // check passed.
    let gained = mutate(
        "crates/tensor/tests/vectorized_equiv.rs",
        &[
            ("    matmul_a_bt_scalar, matmul_at_b,", "    matmul_at_b,"),
            (
                concat!(
                    "    let want = matmul_a_bt_scalar(&a, &bt, profile);\n",
                    "    assert!(matmul_a_bt(&a, &bt, profile).bitwise_eq(&want), \"matmul_a_bt {dims:?} {profile:?}\");\n",
                ),
                "    let want = matmul_a_bt(&a, &bt, profile);\n",
            ),
        ],
    );
    assert_gains(&gained, "oracle-unpaired", "crates/tensor/src/ops.rs");
    assert_eq!(rules(&gained), ["oracle-unpaired"], "{gained:#?}");
    assert!(gained.iter().all(|d| d.message.contains("`matmul_a_bt_into`")), "{gained:#?}");
}

#[test]
fn receiving_commands_through_an_iterator_leaves_a_stale_allow() {
    // The refactor removes the `.recv()` the allow above it audits; the
    // stale allow would silently cover whatever lands on that line next.
    // Every other check passed.
    let file = "crates/core/src/pool.rs";
    let gained = mutate(
        file,
        &[
            (
                "        let cmd = match cmds.recv() {\n            Ok(cmd) => cmd,\n",
                "        let cmd = match cmds.iter().next() {\n            Some(cmd) => cmd,\n",
            ),
            (
                "            Err(_) => return,\n        };\n        match cmd {",
                "            None => return,\n        };\n        match cmd {",
            ),
        ],
    );
    assert_gains(&gained, "unused-suppression", file);
    assert_eq!(rules(&gained), ["unused-suppression"], "{gained:#?}");
}

#[test]
fn a_wall_clock_read_in_proposal_construction_is_flagged_and_flows_to_the_sink() {
    // clippy bans only `SystemTime::now`. Evidence for `no-wall-clock`:
    // every other check passed.
    let file = "crates/sched/src/intra.rs";
    let needle = "let mut out: Vec<ResourceProposal> = Vec::new();";
    let gained =
        mutate(file, &[(needle, &format!("let _t = std::time::Instant::now(); {needle}"))]);
    assert_gains(&gained, "no-wall-clock", file);
    assert!(
        gained.iter().any(|d| {
            d.rule == "taint-flow"
                && d.file == file
                && d.message.starts_with("wall-clock -> sched-proposal")
        }),
        "the clock read sits in a proposal sink — a taint flow: {gained:#?}"
    );
}

// -- Further edits the analyses must see -------------------------------------

#[test]
fn hashing_the_chaos_step_times_is_no_hash_iter() {
    // A chaos round lasts as long as the slowest entry of a BTreeMap of
    // device step times; a HashMap there hands hasher state its read order.
    let file = "crates/faultsim/src/harness.rs";
    let needle = "let mut times: BTreeMap<u32, u64> = BTreeMap::new();";
    let gained = mutate(file, &[(needle, &needle.replace("BTreeMap", "HashMap"))]);
    assert_gains(&gained, "no-hash-iter", file);
    assert_eq!(rules(&gained), ["no-hash-iter", "taint-flow"], "{gained:#?}");
}

#[test]
fn a_wall_clock_read_in_a_turbofish_called_kernel_flows_to_the_sinks() {
    // `chunk_cols` is only ever called as `chunk_cols::<W>(…)`: the clock
    // read reaches the optimizer and the all-reduce only if the call graph
    // has those calls.
    let file = "crates/tensor/src/ops.rs";
    let needle =
        "    let tile = profile.tile_k.max(1);\n    let ntiles = partials.len() / MAX_CHUNK;\n";
    let gained =
        mutate(file, &[(needle, &format!("    let _t = std::time::Instant::now();\n{needle}"))]);
    assert_gains(&gained, "no-wall-clock", file);
    assert_gains(&gained, "taint-flow", file);
}
