#!/bin/sh
# CI entry point: vet, doc-comment presence, build, full test suite,
# the same suite under the race detector, and a one-iteration benchmark
# smoke lane. The solver runs dozens of goroutine ranks per test, so
# the race lane is the gate that matters — run this before every merge.
set -eux

go vet ./...

# Lint lane: the repo's own invariant analyzers — the syntactic rules
# (determinism, zero-cost hooks, error contracts, float comparisons,
# metric names) plus the v2 CFG+dataflow rules (locksafe, collective,
# allocfree, taintdet). The run against an EMPTY baseline pins the
# strictest possible gate: the tree carries zero unsuppressed findings,
# so any new finding is a hard failure and a stale baseline can never
# excuse a regression. The -json snapshot is kept and re-checked at the
# end of the script: the report must be byte-identical no matter what
# ran in between — the lint verdict may not depend on lane order or
# prior test runs.
lint_snapshot=$(mktemp)
lint_baseline=$(mktemp)
echo '[]' >"$lint_baseline"
go run ./cmd/nbodylint -baseline "$lint_baseline" ./...
rm -f "$lint_baseline"
go run ./cmd/nbodylint -json ./... >"$lint_snapshot"

# Every library package must carry a package doc comment (godoc
# presence gate); main packages are exempt from the "// Package" form.
missing=$(go list -f '{{.Name}} {{.ImportPath}} {{.Dir}}' ./... | while read -r name pkg dir; do
  [ "$name" = main ] && continue
  grep -q '^// Package ' "$dir"/*.go || echo "$pkg"
done)
if [ -n "$missing" ]; then
  echo "packages missing a package doc comment:" >&2
  echo "$missing" >&2
  exit 1
fi

go build ./...
go test ./...
go test -race ./...

# Benchmark smoke lane: one iteration each, just to keep the benchmark
# drivers compiling and running.
go test -bench . -benchtime 1x -run '^$' ./...

# Allocation smoke: the steady-state tree Eval benchmark
# (evalalloc_test.go) must be allocation-free (0 allocs/op, averaged
# over the benchtime iterations).
alloc_out=$(mktemp)
go test -bench 'BenchmarkSteadyStateEval' -benchtime 20x -benchmem -run '^$' . | tee "$alloc_out"
grep -E 'BenchmarkSteadyStateEval.*[^0-9]0 allocs/op' "$alloc_out" >/dev/null || {
  echo "tree Eval hot path is not allocation-free in steady state" >&2
  exit 1
}
rm -f "$alloc_out"

# Benchmark-harness lane: perfbench is its own module (replace repro =>
# ../), so the root go vet/test above never build it. Vetting and
# testing it here makes a change that breaks the harness's use of the
# program fail CI rather than the benchmark run.
(cd perfbench && go vet ./... && go test ./...)

# Chaos lane: the fault-injection and resilience suites once more under
# the race detector, -count=1 so cached passes don't mask flakiness in
# the recovery protocol. Time-bounded by -timeout rather than test count.
# The façade names matched here include the PS>1 grid sweep (gridchaos
# _test.go): spatial shrink, column loss + checkpoint restore, and the
# guard×crash interleaving on 2×2 and 4×2 grids.
go test -race -count=1 -timeout 10m \
  -run 'Chaos|Resilien|Crash|HardLoss|Leak|Deadline|Shrink|Agree|Torn|Levels|Fault' \
  ./internal/fault/ ./internal/mpi/ ./internal/checkpoint/ ./internal/pfasst/ .

# Checkpoint fuzz smoke: a few seconds of mutated NBLV headers against
# the checked reader — corruption must surface as errors, never panics.
go test -run '^$' -fuzz FuzzReadLevels -fuzztime 10s ./internal/checkpoint/
# Same contract for the v3 grid manifest (sharded PS>1 checkpoints):
# mutated NBLM bytes must fail closed — error, never panic, never a
# silently wrong restore.
go test -run '^$' -fuzz FuzzGridManifest -fuzztime 10s ./internal/checkpoint/

# Guard lane: bit-flip chaos — seeded memory-fault injection, invariant
# monitors, ABFT tree checks, and the recovery ladder — once more under
# the race detector with -count=1 (the ladder's redo/rollback paths are
# the concurrency-sensitive part worth re-randomizing every run).
go test -race -count=1 -timeout 10m \
  -run 'Guard|Scrub|Flip|Sticky|Moments|Ordering|Degenerate|ZeroExtent|Coincident|NaN|Resume|Checkpoint' \
  ./internal/guard/ ./internal/fault/ ./internal/tree/ ./internal/kernel/ ./internal/pfasst/ .

# Memory-fault-plan fuzz smoke: mutated mem-plan specs against the
# parser — malformed specs must surface as errors, never panics.
go test -run '^$' -fuzz FuzzParseMem -fuzztime 10s ./internal/fault/

# Server lane: build the job daemon, run the server, scheduler and
# chaos suites once more under the race detector with -count=1 (the
# drain/restart bitwise property, the goroutine-leak guard and the
# kill-during-drain recovery are the concurrency-sensitive parts), and
# lint the new packages explicitly.
daemon_bin=$(mktemp)
go build -o "$daemon_bin" ./cmd/nbodyd
rm -f "$daemon_bin"
go test -race -count=1 -timeout 15m ./internal/server/ ./internal/sched/
go run ./cmd/nbodylint ./internal/server/ ./internal/sched/ ./cmd/nbodyd/

# Server chaos benchmark: a job fleet clean vs under the chaos plan
# (jobs/sec, p50/p99 latency, bitwise agreement after crash retries)
# plus a drain+restart cycle. The record goes to a temporary file, so CI
# never rewrites the tracked BENCH_PR9.json (regenerate that by hand
# with -server-out BENCH_PR9.json); the drain+restart cycle must come
# back bitwise.
chaos_out=$(mktemp)
go run ./cmd/experiments -exp serverchaos -server-out "$chaos_out"
grep -q '"drain_bitwise": true' "$chaos_out" || {
  echo "serverchaos: drain+restart results are not bitwise identical" >&2
  exit 1
}
rm -f "$chaos_out"

# Job-spec and journal fuzz smoke: mutated specs and journal images
# against the admission parser and the journal replayer — typed
# errors, never panics; valid journals must re-encode byte-identically.
go test -run '^$' -fuzz FuzzJobSpec -fuzztime 10s ./internal/server/
go test -run '^$' -fuzz FuzzJournal -fuzztime 10s ./internal/server/

# Scaling lane: the joint space-time study at lane scale under the race
# detector — the executed 8-rank PSxPT grid (both branch exchange
# modes) plus the modeled grid up to 4096 ranks, asserting the Fig. 5 x
# Fig. 8 crossover shape: beyond spatial saturation the best PT>1
# layout beats space-only, and the batched exchange beats the ring.
go test -race -count=1 -timeout 10m -run 'ScalingLane' .

# Docs gate: SCALING.md is executable documentation — every
# `go run ./cmd/experiments ...` command it quotes must parse (-list
# validates -fig/-exp and exits before running anything).
grep -oE 'go run \./cmd/experiments[^`]*' SCALING.md | sort -u | while read -r cmd; do
  $cmd -list >/dev/null
done

# Lint-infrastructure fuzz smoke: the ignore-directive parser (a
# malformed directive must suppress nothing), the -json emitters (the
# v1 array and the engine-versioned report: always valid JSON, never a
# panic, findings never null), and the v2 CFG builder (any parseable
# function body: no panic, every statement in exactly one block,
# Preds mirror Succs).
go test -run '^$' -fuzz FuzzParseIgnoreDirective -fuzztime 10s ./internal/analysis/
go test -run '^$' -fuzz '^FuzzEmitJSON$' -fuzztime 10s ./internal/analysis/
go test -run '^$' -fuzz FuzzEmitJSONReport -fuzztime 10s ./internal/analysis/
go test -run '^$' -fuzz FuzzCFGBuild -fuzztime 10s ./internal/analysis/

# Lint order-independence: rerunning the analyzers after the race,
# chaos and guard lanes must reproduce the snapshot taken at the top
# byte for byte.
go run ./cmd/nbodylint -json ./... | cmp - "$lint_snapshot"
rm -f "$lint_snapshot"
