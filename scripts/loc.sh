#!/usr/bin/env bash
# Lines of Rust, tracked like a bench (ROADMAP "Lines of Rust"): `wc -l` of
# *.rs per crate, plus tests/, shims/ and benchmark/src, then the five
# largest files. Build output (target/) is never counted.
set -euo pipefail
cd "$(dirname "$0")/.."
rs() { find "$@" -name '*.rs' -not -path '*/target/*'; }
for d in crates/*/ tests shims benchmark/src; do
  printf '%6d  %s\n' "$(rs "$d" | xargs cat | wc -l)" "${d%/}"
done | sort -rn
printf '%6d  total\n' "$(rs crates tests shims benchmark/src examples src | xargs cat | wc -l)"
echo "largest files:"
rs crates tests shims benchmark/src | xargs wc -l | grep -v ' total$' | sort -rn | head -5
