#!/bin/sh
# bench-check: the CI performance gate for the pipeline core.
#
# Re-runs the benchpipe suite and fails if the cold-build,
# incremental-rebuild, serve (decode, cache-hit handler) or study
# (fault-injected execution, one margins-study graph) benchmarks
# regressed more than 20% in ns/op or allocs/op against the checked-in
# baseline (BENCH_pipeline.json), or the study benchmarks in B/op.
# Each benchmark keeps the fastest of three runs on both sides of the
# comparison, so scheduling noise on a shared runner does not trip the
# gate. Refresh the baseline with `make bench` after an intentional
# performance change.
set -eu

cd "$(dirname "$0")/.."

baseline="${1:-BENCH_pipeline.json}"
if [ ! -f "$baseline" ]; then
    echo "bench-check: baseline $baseline not found (run 'make bench' first)" >&2
    exit 1
fi

exec go run ./cmd/benchpipe -check "$baseline"
