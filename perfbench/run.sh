#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository
# root. All build output (Go build cache, binary, results, traces and
# scratch state) stays under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload timepar-cluster --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare --parent DIR --change DIR
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
  XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
