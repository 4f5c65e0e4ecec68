#!/usr/bin/env bash
# Builds the benchmark and the pland binary it drives from this checkout,
# then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 8 --trace 0
#
# Build outputs, the Go build cache and span files stay in .bench_build.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/pland" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a checkout that holds the program's sources" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go build -o "$out/pland" ./cmd/pland
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -bin "$out" "$@"
