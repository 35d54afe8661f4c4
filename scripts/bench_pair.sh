#!/usr/bin/env bash
# Paired parent-vs-change runs of the repo benchmark (docs/CI.md
# "Performance"; the rule is choosing-metrics section 8: at least ten pairs,
# alternating which side runs first, medians and quartiles per side, wins
# counted per pair).
#
#   scripts/bench_pair.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED PAIRS [--same-bits] [--out FILE]
#
# PARENT_DIR and CHANGE_DIR are two clean checkouts (git clone / git
# archive, not this working tree: a run writes into its checkout's
# benchmark/out). Each side's esbench is built once, then every pair runs
#   esbench --workload WORKLOAD --seed SEED --seconds 20 --trace 0
# from each checkout — parent first in odd pairs, change first in even ones.
# It prints every end-to-end metric of every run, then per metric each
# side's median and quartiles, the ratio of the medians and in how many
# pairs the change read better / the same / worse (direction taken from
# BENCHMARK.json), and failed/attempted operations per side. Nothing is
# read but what esbench writes: its exit status and
# benchmark/out/result-WORKLOAD-t0.json.
#
# --same-bits: after the last pair, exit 1 unless check.step,
# check.params_fnv64 and check.loss_final of the two result files agree
# (on elastic_churn check.step counts the cycles a run had time for, so it
# can differ between two runs of one commit; that reads as a mismatch).
#
# --out FILE: also append everything printed to FILE, under a line naming
# the arguments. A PR's paired tables are kept in docs/pairs/PR<n>.txt
# (ROADMAP item 11a): they are clock readings, so never under results/.
set -euo pipefail

usage() {
  sed -n '2,29p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}
[ $# -ge 5 ] || usage
PARENT=$(cd "$1" && pwd)
CHANGE=$(cd "$2" && pwd)
WORKLOAD=$3
SEED=$4
PAIRS=$5
shift 5
SAME_BITS=
while [ $# -gt 0 ]; do
  case "$1" in
    --same-bits) SAME_BITS=1 ;;
    --out)
      [ $# -ge 2 ] || usage
      mkdir -p "$(dirname "$2")"
      echo "== bench_pair $WORKLOAD seed $SEED, $PAIRS pairs${SAME_BITS:+ --same-bits}" >>"$2"
      exec > >(tee -a "$2")
      shift
      ;;
    *) usage ;;
  esac
  shift
done
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

for dir in "$PARENT" "$CHANGE"; do
  cargo build --release --offline --quiet --manifest-path "$dir/benchmark/Cargo.toml"
done

result() { echo "$1/benchmark/out/result-$WORKLOAD-t0.json"; }

# "name value" for every metric of a result file's "metrics" object.
metrics() {
  awk '
    /^  "metrics": \{/ { inm = 1; next }
    inm && /^  \}/     { inm = 0 }
    inm && /^    "[^"]+": \{/ { split($0, q, "\""); name = q[2] }
    inm && /"value":/  { v = $2; sub(/,$/, "", v); print name, v }
  ' "$1"
}

# One top-level or detail scalar of a result file, e.g. `attempted`.
field() { awk -v k="\"$2\":" '$1 == k { v = $2; sub(/,$/, "", v); print v; exit }' "$1"; }

run_side() { # SIDE DIR PAIR
  local side=$1 dir=$2 pair=$3 rc=0 line
  rm -f "$(result "$dir")"
  (cd "$dir" && benchmark/target/release/esbench --workload "$WORKLOAD" --seed "$SEED" \
    --seconds 20 --trace 0 >/dev/null 2>"$TMP/stderr") || rc=$?
  if [ ! -f "$(result "$dir")" ]; then
    cat "$TMP/stderr" >&2
    echo "bench_pair: $side run of pair $pair wrote no result file (exit $rc)" >&2
    exit 2
  fi
  line="pair $pair $side:"
  while read -r name value; do
    echo "$value" >>"$TMP/$side.$name"
    line+=" $name=$value"
  done < <(metrics "$(result "$dir")")
  field "$(result "$dir")" attempted >>"$TMP/$side.attempted"
  field "$(result "$dir")" failed >>"$TMP/$side.failed"
  echo "$line failed=$(field "$(result "$dir")" failed)/$(field "$(result "$dir")" attempted) correct=$([ "$rc" -eq 0 ] && echo true || echo false)"
}

for pair in $(seq 1 "$PAIRS"); do
  if [ $((pair % 2)) -eq 1 ]; then
    run_side parent "$PARENT" "$pair"
    run_side change "$CHANGE" "$pair"
  else
    run_side change "$CHANGE" "$pair"
    run_side parent "$PARENT" "$pair"
  fi
done

# median [q1, q3] of a file of numbers; quartiles by linear interpolation.
summary() {
  sort -g "$1" | awk '
    { v[NR] = $1 }
    function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }
    END { printf "%.6g [%.6g, %.6g]", q(0.5), q(0.25), q(0.75) }'
}
median() { summary "$1" | awk '{ print $1 }'; }
total() { awk '{ s += $1 } END { print s + 0 }' "$1"; }

echo
echo "$WORKLOAD, seed $SEED, $PAIRS pairs: median [q1, q3], parent -> change"
while read -r name _; do
  better=$(awk -v n="\"$name\"," '$1 == "\"name\":" && $2 == n { hit = 1 } hit && $1 == "\"better\":" { gsub(/[",]/, "", $2); print $2; exit }' "$CHANGE/BENCHMARK.json")
  paste "$TMP/parent.$name" "$TMP/change.$name" | awk -v b="${better:-lower}" '
    { if ($1 == $2) t++; else if ((b == "higher") == ($2 > $1)) w++; else l++ }
    END { printf "%d better / %d same / %d worse", w, t, l }' >"$TMP/wins"
  printf '  %-18s %s -> %s  x%.3f  change %s (%s is better)\n' "$name" \
    "$(summary "$TMP/parent.$name")" "$(summary "$TMP/change.$name")" \
    "$(awk -v a="$(median "$TMP/parent.$name")" -v c="$(median "$TMP/change.$name")" 'BEGIN { print (a == 0) ? 0 : c / a }')" \
    "$(cat "$TMP/wins")" "${better:-lower}"
done < <(metrics "$(result "$CHANGE")")
for side in parent change; do
  echo "  $side: $(total "$TMP/$side.failed") failed of $(total "$TMP/$side.attempted") attempted operations"
done

if [ -n "$SAME_BITS" ]; then
  status=0
  for key in check.step check.params_fnv64 check.loss_final; do
    a=$(field "$(result "$PARENT")" "$key")
    c=$(field "$(result "$CHANGE")" "$key")
    if [ -n "$a" ] && [ "$a" = "$c" ]; then
      echo "  same bits: $key $a"
    else
      echo "  DIFFERENT: $key parent ${a:-missing} change ${c:-missing}"
      status=1
    fi
  done
  exit "$status"
fi
