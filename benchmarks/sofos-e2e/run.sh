#!/usr/bin/env bash
# The repo's claim benchmark. Two ways to call it, from anywhere:
#
#   run.sh [--seed N] [--seconds S] [--repeat R] [--smoke]
#       Build, run the four workloads (each as its own processes: one
#       untraced run for the end-to-end metrics, one traced run for the
#       per-layer metrics), merge them into out/results.json. Exits
#       non-zero on a wrong answer, a failed operation or a schema error.
#       With --repeat R every run is made R times and results.json holds
#       the median of each metric and, from R = 4 on, its spread.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       Build, run one workload once. The last line of standard output is
#       the result object BENCHMARK.json describes. This is the command
#       BENCHMARK.json names.
#
# Builds with --release --offline into $CARGO_TARGET_DIR, by default the
# repo's target/. --smoke runs 2 s windows on 2 000 observations: it
# validates the plumbing and its numbers are not comparable to anything.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(cd "$here/../.." && pwd)"

# A relative CARGO_TARGET_DIR is relative to where the caller stands.
target="${CARGO_TARGET_DIR:-$repo/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: standard output carries results only.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/sofos-e2e"
out="$here/out"

for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$bin" run --out "$out" "$@"
  fi
done

seed=1
seconds=""
repeat=1
smoke=""
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --repeat) repeat="$2"; shift 2 ;;
    --smoke) smoke="--smoke"; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [ -z "$seconds" ]; then
  if [ -n "$smoke" ]; then seconds=2; else seconds=10; fi
fi

rm -rf "$out"
mkdir -p "$out"
# Repeats are the outer loop, so the runs of one pair are minutes apart.
for ((i = 0; i < repeat; i++)); do
  for workload in view_read base_read write_durable http_open; do
    for trace in 0 1; do
      "$bin" run --out "$out" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" --repeat-index "$i" $smoke
    done
  done
done
"$bin" merge --out "$out" --seed "$seed" --seconds "$seconds" --repeat "$repeat" \
  --commit "$(git -C "$repo" rev-parse HEAD 2>/dev/null || echo unknown)" \
  --rustc "$(rustc -V)"
