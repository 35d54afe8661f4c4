//! Tier-1 gate: the live workspace is accumulation-clean. Every
//! loop-carried float accumulator is either a deliberate single chain or
//! the SUM_LANES lockstep shape, every order-sensitive kernel has a tested
//! `_scalar` oracle (or an audited allow), and no accum-level suppression
//! is stale.

use detlint::{analyze_workspace, report, Mode, Report};
use std::path::Path;

fn run() -> Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    analyze_workspace(root).expect("workspace walks")
}

#[test]
fn workspace_has_no_accumulation_findings() {
    let rep = run();
    assert!(
        rep.mode(Mode::Accum).next().is_none(),
        "accumulation findings in the live workspace:\n{}",
        report::human(&rep)
    );
}

#[test]
fn the_lockstep_kernels_are_recognized_as_safe() {
    // The D1 contract's centerpiece: `leaf_partials`-style SUM_LANES loops
    // classify as `lockstep`, not `reassoc` — the analysis must understand
    // the workspace's own blessed shape, not merely stay quiet about it.
    let rep = run();
    let lockstep: Vec<_> = rep.loops.iter().filter(|l| l.class == "lockstep").collect();
    assert!(
        lockstep.iter().any(|l| l.file == "crates/tensor/src/kernels.rs"),
        "kernels.rs must contribute at least one lockstep loop: {:?}",
        rep.loops
    );
}

#[test]
fn oracle_pairing_covers_the_declared_kernel_surface() {
    // Structural pin, not line numbers: every name family from the config
    // that exists as a pub fn in an accum crate shows up in the oracle
    // inventory, and each check either passed or is audited (no-findings is
    // asserted separately).
    let rep = run();
    let have = |k: &str| rep.oracles.iter().any(|o| o.kernel == k);
    let conv = ["conv2d_forward_into", "conv2d_dw_into", "conv2d_dx_into"];
    for kernel in
        ["blocked_sum", "leaf_partials", "dot", "matmul", "ring_allreduce"].into_iter().chain(conv)
    {
        assert!(have(kernel), "oracle inventory lost `{kernel}`: {:?}", rep.oracles);
    }
    // Paired kernels really are exercised together by a test somewhere.
    for o in &rep.oracles {
        if o.scalar_found {
            assert!(
                o.tested_together,
                "`{}` has a scalar sibling but no test calls both (and no finding fired?)",
                o.kernel
            );
        }
    }
}
