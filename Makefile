# Development entry points; CI (.github/workflows/ci.yml) runs the same
# build/vet/fmt/race sequence as `make check`.

GO ?= go

.PHONY: all build test race vet fmt check smoke serve-smoke fleet-smoke recovery-smoke overload-smoke faults margins degrade study-identity fuzz bench bench-check bench-serve

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# perfbench/ is a nested module that compiles against internal APIs;
# the root ./... pattern skips it.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

check: build vet fmt race

# The paper-vs-measured reproduction record at full sample size.
smoke:
	$(GO) test -run TestReproduction -count=1 ./internal/experiment/

# Black-box smoke of the planning service: start cmd/pland, plan a
# generated workload (cold build + cache hit), check /metrics, and
# verify SIGTERM drains cleanly.
serve-smoke:
	sh scripts/serve-smoke.sh

# Black-box smoke of the pland fleet: three peers under a chaos
# scenario, one killed mid-load, Mandatory availability must hold at
# 99% and repeated fingerprints must not re-build fleet-wide.
fleet-smoke:
	sh scripts/fleet-smoke.sh

# Crash-recovery smoke: three peers with durable snapshots and warm
# fill, one killed with -9 mid-load and restarted against its snapshot.
# Mandatory availability must hold at 99% and the restarted peer must
# serve its hot keys without a single cold rebuild.
recovery-smoke:
	sh scripts/recovery-smoke.sh

# Overload smoke: three peers driven far past their sustainable rate
# with fresh workloads. Mandatory availability must hold at 99% with
# zero outright failures, every peer's criticality rung must engage and
# shed optional work, the brownout ladder must visibly serve degraded
# plans during the storm, and every peer must walk back to full quality
# once it passes.
overload-smoke:
	sh scripts/overload-smoke.sh

# Graceful-degradation curves under injected faults (robustness study).
faults:
	$(GO) run ./cmd/sweep -study faults

# Robustness margins: breakdown factors, estimation-error sweep, and
# adaptive re-slicing, checkpointed so an interrupted run can resume.
# Small sample so the smoke run stays in CI budget; see EXPERIMENTS.md
# for the 256-graph table.
margins:
	$(GO) run ./cmd/sweep -study margins -graphs 32 -checkpoint margins.jsonl

# Graceful degradation: achieved value vs fault intensity on
# mixed-criticality workloads, across the degradation policies. Small
# sample and a per-workload budget so the smoke run stays in CI budget;
# see EXPERIMENTS.md for the 256-graph table.
degrade:
	$(GO) run ./cmd/sweep -study degrade -graphs 24 -wtimeout 30s

# Same-answers check: builds BASE's cmd/sweep (default HEAD~1) in a
# temporary git worktree and fails unless the margins, faults, degrade,
# sched, optgap, mode, adaptn and policy studies, and the margins and
# faults studies under sporadic releases, print byte-identical output
# on both. Not a CI step: a change that alters study output on purpose
# fails it.
# Usage: make study-identity [BASE=<rev>]
study-identity:
	sh scripts/study-identity.sh $(BASE)

# Pipeline-core performance baseline: runs the benchmark suite and
# refreshes the checked-in BENCH_pipeline.json (cold vs cached builds,
# fingerprint cost, and the breakdown bisection with the plan cache off
# and on).
bench:
	$(GO) run ./cmd/benchpipe -o BENCH_pipeline.json

# Performance gate: re-runs the suite and fails if cold builds,
# incremental rebuilds, workload decoding, the cache-hit handler, the
# fault-injected executor or one margins-study graph regressed more
# than 20% (time or allocations; bytes too for the two study benches)
# against the checked-in BENCH_pipeline.json.
bench-check:
	sh scripts/bench-check.sh

# Serving-layer baseline: refreshes the checked-in BENCH_serve.json by
# driving a 3-peer fleet (snapshots + warm fill on) through the 30 s
# single-peer blackout scenario for 40 s.
bench-serve:
	sh scripts/bench-serve.sh

# Native fuzzers: the checkpoint-journal parser, the workload reader
# (plain, with a release block it must ignore, and its canonical fast
# path against encoding/json), the chaos scenario parser, and the
# slicer's chain selection, every round of every metric against
# exhaustive enumeration, each briefly past their checked-in seed
# corpora.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzParseJournal$$' -fuzztime=10s ./internal/experiment/
	$(GO) test -run='^$$' -fuzz='^FuzzReadWorkload$$' -fuzztime=10s ./internal/graphio/
	$(GO) test -run='^$$' -fuzz='^FuzzReadWorkloadRelease$$' -fuzztime=10s ./internal/graphio/
	$(GO) test -run='^$$' -fuzz='^FuzzReadWorkloadReference$$' -fuzztime=10s ./internal/graphio/
	$(GO) test -run='^$$' -fuzz='^FuzzParseScenario$$' -fuzztime=10s ./internal/chaos/
	$(GO) test -run='^$$' -fuzz='^FuzzChainSelection$$' -fuzztime=10s ./internal/slicing/
