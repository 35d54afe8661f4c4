//! Kernel-oracle pairing: the static half of the "same tree, faster
//! schedule" contract (PAPER.md D1, docs/DESIGN.md).
//!
//! The vectorized kernels keep bitwise consistency by computing the same
//! reduction tree as a scalar oracle, and the runtime tests
//! (`vectorized_equiv`, the goldens) prove each kernel bit-equal to its
//! oracle. This pass stops a kernel from escaping that proof: every pub fn
//! matching the configured vectorized-kernel name set must have a
//! `<name>_scalar` sibling in the workspace *and* one test (file or
//! `#[cfg(test)]` region) calling both — otherwise `oracle-unpaired`. A
//! slice-level `<name>_into` form answers to `<name>_scalar` too.
//!
//! A finding demotes through `// detlint::allow(oracle-unpaired)` with the
//! shared stale accounting of [`crate::suppress`].

use crate::items::FnDef;
use crate::suppress::Emitter;
use crate::{Model, Policy, Related};

/// Is `name` in the policy's vectorized-kernel set (oracle-pairing subject)?
fn kernel_matches(policy: &Policy, name: &str) -> bool {
    if name.ends_with("_scalar") {
        return false;
    }
    policy.oracle_kernels.iter().any(|p| match p.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => *p == name,
    })
}

/// Inventory entry: one oracle-pairing check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleCheck {
    /// Kernel fn name.
    pub kernel: String,
    /// File/line of the kernel definition.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Does `<kernel>_scalar` exist in the workspace?
    pub scalar_found: bool,
    /// Does one test context call both siblings?
    pub tested_together: bool,
}

/// The callee names in `fns`' bodies: one test context's call inventory.
fn called<'a>(fns: impl Iterator<Item = &'a FnDef>) -> Vec<&'a str> {
    fns.flat_map(|f| f.calls.iter().map(|c| c.callee.fn_name())).collect()
}

/// Run the oracle-pairing analysis over the shared model, reporting through
/// `em`. Returns the oracle-pairing inventory sorted by `(file, line,
/// kernel)`.
pub fn analyze(model: &Model, policy: &Policy, em: &mut Emitter) -> Vec<OracleCheck> {
    let mut scalar_names: Vec<&str> = model
        .graph
        .fns
        .iter()
        .filter(|f| !f.in_test && f.name.ends_with("_scalar"))
        .map(|f| f.name.as_str())
        .collect();
    scalar_names.sort_unstable();
    scalar_names.dedup();

    // Call inventories per test context: each test file, and the
    // `#[cfg(test)]` fns of each source file, is one context.
    let mut contexts: Vec<Vec<&str>> =
        model.test_files.iter().map(|tf| called(tf.fns.iter())).collect();
    for mf in &model.files {
        contexts.push(called(model.graph.fns[mf.fns.clone()].iter().filter(|f| f.in_test)));
    }

    let mut oracles: Vec<OracleCheck> = Vec::new();
    for f in &model.graph.fns {
        if f.in_test
            || !f.is_pub
            || !policy.float_crates.contains(&f.crate_name.as_str())
            || !kernel_matches(policy, &f.name)
        {
            continue;
        }
        let sib = format!("{}_scalar", f.name.strip_suffix("_into").unwrap_or(&f.name));
        let scalar_found = scalar_names.binary_search(&sib.as_str()).is_ok();
        let tested_together =
            contexts.iter().any(|c| c.contains(&f.name.as_str()) && c.contains(&sib.as_str()));
        if oracles.iter().any(|o| o.kernel == f.name && o.file == f.file && o.line == f.line) {
            continue; // nested-fn double scan
        }
        oracles.push(OracleCheck {
            kernel: f.name.clone(),
            file: f.file.clone(),
            line: f.line,
            scalar_found,
            tested_together,
        });
        if scalar_found && tested_together {
            continue;
        }
        let message = if !scalar_found {
            format!(
                "vectorized kernel `{}` has no `{sib}` oracle in the workspace; keep the \
                 scalar reference implementation in-tree so bit-equality stays provable \
                 (docs/DETLINT.md, oracle pairing)",
                f.name
            )
        } else {
            format!(
                "vectorized kernel `{}` and `{sib}` are never exercised together by one \
                 test; add a bit-equality test that calls both",
                f.name
            )
        };
        let kernel = Related { file: f.file.clone(), line: f.line, label: "kernel".to_string() };
        em.emit("oracle-unpaired", &f.file, f.line, message, vec![kernel]);
    }

    oracles.sort_by(|a, b| (&a.file, a.line, &a.kernel).cmp(&(&b.file, b.line, &b.kernel)));
    oracles
}

#[cfg(test)]
mod tests {
    use crate::testutil::{file, findings};
    use crate::{Diagnostic, Mode, Report};

    fn run(src: &str) -> Report {
        crate::testutil::run(&[file("tensor", "lib.rs", src)], &[])
    }

    fn accum(r: &Report) -> Vec<&Diagnostic> {
        findings(r, Mode::Accum)
    }

    #[test]
    fn oracle_pairing_requires_sibling_and_shared_test() {
        let kernel = "pub fn dot(a: &[f32], b: &[f32]) -> f32 { let mut s = 0.0f32; \
                      for i in 0..a.len() { s += a[i] * b[i]; } s }\n";
        // No sibling at all → unpaired.
        let r = run(kernel);
        assert!(accum(&r).iter().any(|f| f.rule == "oracle-unpaired"), "{:?}", accum(&r));
        // Sibling exists but nothing calls both → still unpaired.
        let with_sib =
            format!("{kernel}pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {{ 0.0 }}\n");
        let r = run(&with_sib);
        assert!(accum(&r).iter().any(|f| f.message.contains("never exercised together")));
        // A test file calling both closes the pair.
        let tf = crate::SourceFile {
            crate_name: "tensor".to_string(),
            file: "crates/tensor/tests/pair.rs".to_string(),
            src: "#[test]\nfn pair() { assert_eq!(dot(&[1.0], &[1.0]), dot_scalar(&[1.0], &[1.0])); }\n"
                .to_string(),
        };
        let r = crate::testutil::run(&[file("tensor", "lib.rs", &with_sib)], &[tf]);
        assert!(accum(&r).is_empty(), "{:?}", accum(&r));
        let o = r.oracles.iter().find(|o| o.kernel == "dot").unwrap();
        assert!(o.scalar_found && o.tested_together);
        // A slice-level `_into` form answers to its base name's oracle.
        let into = "pub fn matmul_into(o: &mut [f32]) { o[0] = 0.0; }\n\
                    pub fn matmul_scalar() -> f32 { 0.0 }\n";
        let r = run(into);
        let o = r.oracles.iter().find(|o| o.kernel == "matmul_into").unwrap();
        assert!(o.scalar_found && !o.tested_together);
    }

    #[test]
    fn private_fns_and_other_crates_are_not_oracle_subjects() {
        let r = run("fn matmul_rows_into(o: &mut [f32]) { o[0] = 0.0; }\n");
        assert!(accum(&r).is_empty(), "{:?}", accum(&r));
        let r = crate::testutil::run(
            &[file("sched", "lib.rs", "pub fn dot(a: &[f32]) -> f32 { a[0] }\n")],
            &[],
        );
        assert!(accum(&r).is_empty(), "{:?}", accum(&r));
    }
}
