//! Tier-1 mutation harness: detlint guards the *live* deterministic path,
//! not just fixtures shaped like it. Each case edits one live source file
//! in memory — the kind of edit a careless refactor would make — and the
//! analysis must gain a blocking diagnostic of the named rule in that file.
//! The `*_clean.rs` gates prove the tree is quiet; this proves the quiet
//! means something. Needles are asserted to occur exactly once, so drift
//! in the edited code fails loudly instead of silently testing nothing.

use detlint::{analyze, build_model, Diagnostic, Policy, Severity, SourceFile};
use std::path::Path;
use std::sync::OnceLock;

struct Live {
    files: Vec<SourceFile>,
    test_files: Vec<SourceFile>,
    /// Blocking diagnostics of the unedited tree (none, per the clean gates).
    baseline: Vec<Diagnostic>,
}

fn blocking(files: &[SourceFile], test_files: &[SourceFile]) -> Vec<Diagnostic> {
    let report = analyze(&build_model(files, test_files), &Policy::workspace_default());
    report.diagnostics.into_iter().filter(|d| d.severity == Severity::Error).collect()
}

/// The live workspace, read once for every case.
fn live() -> &'static Live {
    static LIVE: OnceLock<Live> = OnceLock::new();
    LIVE.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let (files, test_files) = detlint::workspace_sources(root).expect("workspace walks");
        let baseline = blocking(&files, &test_files);
        Live { files, test_files, baseline }
    })
}

/// Replace the single occurrence of `needle` in `file` with `replacement`
/// and return the blocking diagnostics the edit introduced.
fn mutate(file: &str, needle: &str, replacement: &str) -> Vec<Diagnostic> {
    let live = live();
    let mut files = live.files.clone();
    let target =
        files.iter_mut().find(|f| f.file == file).unwrap_or_else(|| panic!("{file} moved"));
    assert_eq!(target.src.matches(needle).count(), 1, "needle drifted in {file}: {needle:?}");
    target.src = target.src.replace(needle, replacement);
    let mut gained = blocking(&files, &live.test_files);
    gained.retain(|d| !live.baseline.contains(d));
    gained
}

fn assert_gains(gained: &[Diagnostic], rule: &str, file: &str) {
    assert!(
        gained.iter().any(|d| d.rule == rule && d.file == file),
        "the edit must raise `{rule}` in {file}; gained: {gained:#?}"
    );
}

#[test]
fn reassociating_the_leaf_partials_lane_merge_is_float_reassoc() {
    let file = "crates/tensor/src/kernels.rs";
    let gained = mutate(
        file,
        "partials[b..b + lanes].copy_from_slice(&acc[..lanes]);",
        "partials[b] = acc[..lanes].iter().rev().sum::<f32>();",
    );
    assert_gains(&gained, "float-reassoc", file);
}

#[test]
fn carrying_the_chunk_accumulators_across_a_tile_boundary_is_float_reassoc() {
    // The live chunked tile loop of the row kernel with its register tile
    // hoisted out of the tile loop: tile t's store then holds the running
    // total of tiles 0..=t — every partial but the first is reassociated.
    let file = "crates/tensor/src/ops.rs";
    let gained = mutate(
        file,
        "for t in 0..ntiles.max(1) {\n                let mut acc = [0.0f32; W];\n",
        "let mut acc = [0.0f32; W];\n            for t in 0..ntiles.max(1) {\n",
    );
    assert_gains(&gained, "float-reassoc", file);
}

#[test]
fn carrying_the_direct_convolutions_block_across_a_tile_boundary_is_float_reassoc() {
    // The same edit on the forward convolution's `R × C` block: hoisted out
    // of the tile loop, every tile after the first starts from the running
    // total of the taps before it.
    let file = "crates/tensor/src/conv.rs";
    let gained = mutate(
        file,
        "for t in 0..(partials.len() / plane.len()).max(1) {\n                    let mut acc = [[0.0f32; C]; R];\n",
        "let mut acc = [[0.0f32; C]; R];\n                for t in 0..(partials.len() / plane.len()).max(1) {\n",
    );
    assert_gains(&gained, "float-reassoc", file);
}

#[test]
fn hashing_the_supervised_drain_reorder_buffer_is_no_hash_iter() {
    // `round` collects replies into a BTreeMap and returns them in key
    // order via `into_values()`; a HashMap there hands hasher state the
    // reply order.
    let file = "crates/core/src/pool.rs";
    let gained = mutate(
        file,
        "let mut got: BTreeMap<u64, T> = BTreeMap::new();",
        "let mut got: HashMap<u64, T> = HashMap::new();",
    );
    assert_gains(&gained, "no-hash-iter", file);
}

#[test]
fn a_wall_clock_read_in_proposal_construction_is_flagged_and_flows_to_the_sink() {
    let file = "crates/sched/src/intra.rs";
    let needle = "let mut out: Vec<ResourceProposal> = Vec::new();";
    let gained = mutate(file, needle, &format!("let _t = std::time::Instant::now(); {needle}"));
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

#[test]
fn a_wall_clock_read_in_a_turbofish_called_kernel_flows_to_the_sinks() {
    // `chunk_cols` is only ever called as `chunk_cols::<W>(…)`: the clock
    // read reaches the optimizer and the all-reduce only if the call graph
    // has those calls.
    let file = "crates/tensor/src/ops.rs";
    let needle =
        "    let tile = profile.tile_k.max(1);\n    let ntiles = partials.len() / MAX_CHUNK;\n";
    let gained =
        mutate(file, needle, &format!("    let _t = std::time::Instant::now();\n{needle}"));
    assert_gains(&gained, "no-wall-clock", file);
    assert_gains(&gained, "taint-flow", file);
}

// -- Known blind spots ---------------------------------------------------
// Edits that break the contract and that no analysis sees today. Pinned so
// the list stays honest: when one of these starts failing, a detector has
// learned the shape — move the case above and name its rule.

#[test]
fn blind_spot_dropping_a_pool_exchange_seal_is_not_seen_as_unsealed_drain() {
    // `unsealed-drain` keys on `binding.drain_sorted(…)` over a `let`-bound
    // exchange; the pool drains through `exchange(self).drain_deadline(…)`
    // on a struct field, which the token scan cannot tie back to `steps`.
    let gained = mutate("crates/core/src/pool.rs", "        steps.seal();\n", "");
    assert!(gained.is_empty(), "a detector learned this — promote the case: {gained:#?}");
}

#[test]
fn blind_spot_checksumming_before_the_payload_is_encoded_is_not_seen() {
    // The header checksum then covers only the job name, so payload damage
    // loads as valid. No rule models "checksum covers what is written";
    // `tests/store_format.rs`'s bit-flip sweep is what catches this edit.
    let gained = mutate(
        "crates/core/src/store.rs",
        "        codec::put_value(&ckpt.to_value(), &mut bytes);\n        \
         let checksum = payload_checksum(&bytes[HEADER_LEN..]);\n",
        "        let checksum = payload_checksum(&bytes[HEADER_LEN..]);\n        \
         codec::put_value(&ckpt.to_value(), &mut bytes);\n",
    );
    assert!(gained.is_empty(), "a detector learned this — promote the case: {gained:#?}");
}
