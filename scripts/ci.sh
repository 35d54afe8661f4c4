#!/usr/bin/env bash
# Staged CI pipeline (see docs/CI.md). Runs entirely offline.
#
#   scripts/ci.sh           full pipeline: fmt → clippy → detlint (one run of
#                           all four analyses; its exit status is the gate,
#                           SARIF lands in results/detlint.sarif) → build →
#                           golden_release (the bit-pinning tests, optimised)
#                           → test → benchmark_smoke (builds the `figs`
#                           binary of crates/bench, then runs
#                           the repo benchmark's `smoke` pass: every
#                           workload once, correctness checked, nothing
#                           gated — see benchmark/README.md — then the
#                           benchmark package's own tests, and must
#                           leave every tracked file under benchmark/ and
#                           BENCHMARK.json as the index has it) → faultsim
#                           chaos matrix → silent-fault detection matrix →
#                           figs (`figs all`: regenerate every tracked
#                           file under results/; the committed JSON must
#                           come out byte for byte)
#   scripts/ci.sh --quick   quick stages only (what scripts/check.sh runs):
#                           fmt → clippy → detlint → build →
#                           golden_release → test → benchmark_smoke →
#                           thread_faults (hand-authored
#                           supervised-pool schedules only)
#
# Per-stage wall-clock timings are written to results/ci_report.json whether
# the pipeline passes or fails; the script exits non-zero on the first
# failing stage.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=full
if [ "${1:-}" = "--quick" ]; then
  MODE=quick
elif [ -n "${1:-}" ]; then
  echo "usage: scripts/ci.sh [--quick]" >&2
  exit 2
fi

REPORT=results/ci_report.json
mkdir -p results
STAGES=""
STATUS=ok

write_report() {
  printf '{"pipeline":"easyscale-ci","mode":"%s","stages":[%s],"status":"%s"}\n' \
    "$MODE" "${STAGES%,}" "$STATUS" >"$REPORT"
}

stage() {
  local name="$1"
  shift
  echo
  echo "==> $name"
  local t0 t1 secs rc=0
  t0=$(date +%s%N)
  "$@" || rc=$?
  t1=$(date +%s%N)
  secs=$(awk -v a="$t0" -v b="$t1" 'BEGIN{printf "%.3f", (b-a)/1e9}')
  if [ "$rc" -eq 0 ]; then
    STAGES+="$(printf '{"stage":"%s","status":"ok","seconds":%s}' "$name" "$secs"),"
  else
    STAGES+="$(printf '{"stage":"%s","status":"fail","seconds":%s}' "$name" "$secs"),"
    STATUS=fail
    write_report
    echo
    echo "CI: stage '$name' failed (rc=$rc); report in $REPORT" >&2
    exit "$rc"
  fi
}

stage fmt        cargo fmt --all --check
stage clippy     cargo clippy --workspace --all-targets --offline -- -D warnings

# detlint always runs all four analyses — leaf rules, taint flows,
# concurrency checks, accumulation dataflow — off one lex + one call graph
# (docs/DETLINT.md) and exits 1 on any blocking diagnostic. `--quiet` keeps
# the log to one `leaf|taint|concur|accum: clean / N finding(s)` line per
# analysis, so a red stage still says which one is dirty; the diagnostics
# themselves are in the SARIF document.
stage detlint    cargo run --offline -q -p detlint -- --quiet --sarif results/detlint.sarif
stage build      cargo build --release --offline
# The bit-pinning tests at the optimisation level that ships: `test` below
# is a debug build, and a vectoriser that reorders a float chain is a
# release-only failure. The whole-model pins, every kernel against its
# scalar oracle, and Conv2d's per-geometry digests; a few seconds.
golden_release() {
  cargo test --release --offline -q --test kernel_golden --test restore_golden || return
  cargo test --release --offline -q -p tensor --test vectorized_equiv || return
  cargo test --release --offline -q -p models --test conv_golden
}
stage golden_release golden_release
stage test       cargo test -q --offline --workspace --exclude faultsim
# benchmark_smoke keeps the measured surfaces honest: compile the `figs`
# binary (one link step for all 19 experiments), then run the repo benchmark's
# smoke pass — each workload once with its correctness checks (params hash
# vs the SingleThread reference, one PoolRecovery per injected panic,
# decomposed step == Engine::step). A compile+run check: no timings are
# gated here; performance is judged by paired runs of the benchmark itself
# (benchmark/README.md). Then the benchmark package's own tests: it links
# the shims and parses its child runs' JSON through them, and no other stage
# compiles those tests. It ends by checking that no tracked file of the
# benchmark differs from the index: `benchmark/` and BENCHMARK.json change
# only in a PR whose subject is the benchmark (which stages its edits
# first), and the usual way to break that by accident is a dependency edit
# under crates/ that makes the build above rewrite benchmark/Cargo.lock.
benchmark_smoke() {
  cargo build --release --offline -q -p bench --bins || return
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- smoke || return
  cargo test --offline -q --manifest-path benchmark/Cargo.toml || return
  git diff --exit-code -- benchmark BENCHMARK.json
}
stage benchmark_smoke benchmark_smoke

if [ "$MODE" = quick ]; then
  # Thread-fault smoke: the hand-authored schedules of the supervised-pool
  # matrix (panic / stall / reply-drop, narrow and wide pools, composed
  # with a process crash) must stay bitwise-invisible. The full pipeline's
  # chaos stage runs the same suite plus the seeded matrix.
  stage thread_faults cargo test -q --offline -p faultsim --test thread_faults hand_
fi

if [ "$MODE" = full ]; then
  # The chaos matrix: every fault schedule must converge byte-identically
  # (crates/faultsim/tests/chaos_matrix.rs).
  stage chaos      cargo test -q --offline -p faultsim
  # The silent-fault detection matrix: faults nobody announces must be
  # detected by the AIMaster supervisor within their SimClock latency
  # bounds, still byte-identically (crates/faultsim/src/detect.rs). Fails
  # on any missed bound or byte divergence; report in
  # results/detect_report.json.
  stage detect     cargo run --release --offline -q -p faultsim -- \
                     --detect-matrix --out results/detect_report.json
  # The committed figures are what the code produces: every tracked file
  # under results/ is a pure function of the code (a value read from a
  # clock is printed, never written there), so regenerating all of them
  # must leave the tree untouched — and EXPERIMENTS.md quotes
  # results/measured.json (tests/experiments_doc.rs). A diff here is a
  # number that moved, not noise; for Figs 14–16
  # crates/sched/tests/sim_golden.rs says which trace. ≈ 20 s.
  figs() {
    cargo run --release --offline -q -p bench -- all >/dev/null || return
    git diff --exit-code -- results
  }
  stage figs       figs
fi

write_report
echo
echo "CI ($MODE): all stages green; report in $REPORT"
