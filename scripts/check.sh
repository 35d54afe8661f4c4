#!/usr/bin/env bash
# Repo gate: thin wrapper over the quick stages of the CI pipeline
# (fmt → clippy → detlint [all 4 analyses, one run] → build → test →
# benchmark_smoke → thread_faults). Full pipeline, including the faultsim
# chaos matrix and the detection matrix: scripts/ci.sh.
set -euo pipefail
exec "$(dirname "$0")/ci.sh" --quick
