//! Planted oracle-pairing fixtures: a kernel with no `_scalar` sibling, one
//! whose sibling no test calls with it, and a fully paired one, for
//! `crates/detlint/tests/accum_fixtures.rs`, which pins their lines.

/// Oracle subject with no `_scalar` sibling anywhere: `oracle-unpaired`.
pub fn blocked_sum(xs: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for x in xs {
        acc += *x;
    }
    acc
}

/// Oracle subject whose sibling exists but is never exercised together
/// with it by any test: still `oracle-unpaired`.
pub fn matmul(a: &[f32], b: &[f32]) -> f32 {
    a[0] * b[0]
}

/// The sibling nothing tests against `matmul`.
pub fn matmul_scalar(a: &[f32], b: &[f32]) -> f32 {
    a[0] * b[0]
}

/// Fully paired oracle subject: sibling below, shared bit-equality test in
/// `tests/calls_both.rs`. Clean.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for i in 0..a.len() {
        acc += a[i] * b[i];
    }
    acc
}

/// The scalar reference for `dot`.
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for i in 0..a.len() {
        acc += a[i] * b[i];
    }
    acc
}
