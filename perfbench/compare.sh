#!/usr/bin/env bash
# Paired comparison of two checkouts, parent and change, on every
# workload: PAIRS seeds, each run on both sides with the order of the
# two sides alternating from pair to pair, then `perfbench compare`
# over the records (rules in README.md).
#
#   bash perfbench/compare.sh PARENT_CHECKOUT CHANGE_CHECKOUT [PAIRS] [SECONDS]
#
# Both checkouts must hold the same perfbench/ directory: a change that
# claims a gain may not edit the benchmark. Records and logs are kept
# under .bench_build/compare/ of the checkout holding this script.
set -euo pipefail
if [ $# -lt 2 ]; then
  echo "usage: $0 PARENT_CHECKOUT CHANGE_CHECKOUT [PAIRS] [SECONDS]" >&2
  exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
pairs="${3:-10}"
seconds="${4:-40}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$here/.bench_build/compare/$(date +%Y%m%d-%H%M%S)"
mkdir -p "$out/parent" "$out/change"
# The gated workloads of BENCHMARK.json.
workloads=(timepar-cluster spacepar-sheet)

run() {
  local side=$1 dir=$2 wl=$3 seed=$4
  bash "$dir/perfbench/run.sh" --workload "$wl" --seed "$seed" --seconds "$seconds" --trace 0 \
    --record "$out/$side/$wl-seed$seed.json" >"$out/$side/$wl-seed$seed.log"
}

for ((i = 1; i <= pairs; i++)); do
  seed=$((1000 + i))
  for wl in "${workloads[@]}"; do
    if ((i % 2)); then
      run parent "$parent" "$wl" "$seed"
      run change "$change" "$wl" "$seed"
    else
      run change "$change" "$wl" "$seed"
      run parent "$parent" "$wl" "$seed"
    fi
  done
done
bash "$here/perfbench/run.sh" compare --parent "$out/parent" --change "$out/change" | tee "$out/compare.txt"
