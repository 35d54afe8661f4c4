#!/usr/bin/env bash
# Lines of Rust, tracked like a bench (ROADMAP "Lines of Rust"). Two columns
# per crate, plus tests/, shims/ and benchmark/src, and for the five largest
# files: `wc -l` of every *.rs, then the non-test lines — what precedes the
# first `#[cfg(test)]` of each file, files under a tests/ directory not
# counted at all. Build output (target/) is never counted. Prose is tracked
# the same way (ROADMAP item 11b): lines and KiB of every *.md — each
# top-level document, then docs/, benchmark/ and everything.
set -euo pipefail
cd "$(dirname "$0")/.."
rs() { find "$@" -name '*.rs' -not -path '*/target/*'; }
all() { rs "$@" | xargs cat | wc -l; }
nontest() {
  rs "$@" | { grep -Ev '(^|/)tests/' || true; } |
    xargs -r awk 'FNR==1{t=0} /^[[:space:]]*#\[cfg\(test\)\]/{t=1} !t{n++} END{print n+0}'
}
row() { # NAME PATH...
  local name="$1"
  shift
  printf '%6d %6d  %s\n' "$(all "$@")" "$(nontest "$@")" "$name"
}
echo "   all nontest"
for d in crates/*/ tests shims benchmark/src; do row "${d%/}" "$d"; done | sort -rn
row total crates tests shims benchmark/src examples src
# lines and KiB (CHANGES.md keeps an entry on one line) of the *.md under PATH...
md() {
  find "$@" -name '*.md' -not -path '*/target/*' -not -path './.claude/*' -print0 |
    xargs -0 -r cat | wc -lc | awk '{ printf "%6d %6d", $1, $2 / 1024 }'
}
echo "prose: *.md lines, KiB"
for f in *.md; do echo "$(md "$f")  $f"; done | sort -rn
for d in docs benchmark .; do echo "$(md "$d")  $d/"; done
echo "largest files:"
rs crates tests shims benchmark/src | xargs wc -l | grep -v ' total$' | sort -rn | head -5 |
  while read -r _ f; do row "$f" "$f"; done
