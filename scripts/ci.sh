#!/usr/bin/env bash
# Staged CI pipeline (see docs/CI.md). Runs entirely offline.
#
#   scripts/ci.sh           full pipeline: fmt → clippy → detlint (one
#                           combined `--all` run: leaf + taint + concurrency
#                           + accum, SARIF + per-mode reports under
#                           results/) → per-mode gates → detlint_warm
#                           (cache-hit re-run; cold vs warm timing lands in
#                           ci_report.json) → build → test →
#                           benchmark_smoke (builds every paper binary under
#                           crates/bench/src/bin/, then runs the repo
#                           benchmark's `smoke` pass: every workload once,
#                           correctness checked, nothing gated — see
#                           benchmark/README.md) → faultsim chaos matrix →
#                           silent-fault detection matrix
#   scripts/ci.sh --quick   quick stages only (what scripts/check.sh runs):
#                           fmt → clippy → detlint (combined run, warm: the
#                           analysis cache under results/detlint_cache
#                           persists across quick runs) → per-mode gates →
#                           build → test → benchmark_smoke → thread_faults
#                           (hand-authored supervised-pool schedules only)
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

# One combined detlint run replaces the former detlint / taint / concurrency
# stages: `--all` shares one lex + one call graph across the leaf rules, the
# interprocedural taint flows, the static concurrency checks, and the
# float-accumulation dataflow pass (docs/DETLINT.md). It writes the same
# per-mode reports the three stages used to (results/{detlint,taint,concur,
# accum}_report.json), plus the SARIF 2.1.0 interchange document and the
# per-mode status breakdown the gate stages below read. The content-hashed
# analysis cache under results/detlint_cache makes repeat runs near-free;
# full mode clears it first so the `detlint` stage times a cold run and
# `detlint_warm` times the cache hit.
detlint_all() {
  local rc=0
  cargo run --offline -q -p detlint -- --all --quiet \
    --out-dir results --sarif results/detlint.sarif \
    --cache-dir results/detlint_cache || rc=$?
  # rc=1 means findings somewhere: let the per-mode gate stages report
  # *which* analysis is dirty. Anything else is a real failure.
  [ "$rc" -le 1 ] && [ -f results/detlint_modes.json ]
}

# Per-mode gate: fails iff results/detlint_modes.json marks the mode dirty,
# so ci_report.json keeps the per-analysis granularity the separate stages
# used to provide — without re-running anything.
mode_gate() {
  local mode="$1"
  awk -v m="$mode" '
    index($0, "\"mode\": \"" m "\"") { inmode = 1; next }
    inmode && /"status"/ { found = 1; exit ($0 ~ /"clean"/) ? 0 : 1 }
    END { if (!found) exit 2 }
  ' results/detlint_modes.json && return 0
  echo "detlint: '$mode' analysis is dirty — see results/detlint.sarif and" \
    "the per-mode reports under results/" >&2
  return 1
}

if [ "$MODE" = full ]; then
  rm -rf results/detlint_cache
fi
stage detlint     detlint_all
stage leaf_rules  mode_gate leaf
stage taint       mode_gate taint
stage concurrency mode_gate concur
stage accum       mode_gate accum
if [ "$MODE" = full ]; then
  stage detlint_warm detlint_all
fi
stage build      cargo build --release --offline
stage test       cargo test -q --offline --workspace --exclude faultsim
# benchmark_smoke keeps the measured surfaces honest: compile every paper
# binary (cargo's default `build` skips src/bin/* of non-default targets
# only when filtered, so --bins is explicit), then run the repo benchmark's
# smoke pass — each workload once with its correctness checks (params hash
# vs the SingleThread reference, one PoolRecovery per injected panic,
# decomposed step == Engine::step). A compile+run check: no timings are
# gated here; performance is judged by paired runs of the benchmark itself
# (benchmark/README.md).
benchmark_smoke() {
  cargo build --release --offline -q -p bench --bins
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- smoke
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
fi

write_report
echo
echo "CI ($MODE): all stages green; report in $REPORT"
