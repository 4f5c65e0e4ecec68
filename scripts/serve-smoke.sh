#!/bin/sh
# Black-box smoke of the planning service (cmd/pland): build it, start
# it, plan a generated workload twice (cold build, then a cache hit the
# body index answers without a decode), then once more re-encoded with
# extra whitespace (an index miss the decode path answers from cache),
# check the /metrics accounting, and verify SIGTERM drains cleanly.
# Exits non-zero on the first broken contract.
set -eu

fail() { echo "serve-smoke: $1" >&2; exit 1; }

tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/pland" ./cmd/pland
go run ./cmd/taskgen -m 4 -seed 7 -out - >"$tmp/workload.json"

addr=127.0.0.1:18080
"$tmp/pland" -addr "$addr" 2>"$tmp/log" &
pid=$!

# Wait for the health endpoint.
i=0
until curl -fsS "http://$addr/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -ge 100 ] && { cat "$tmp/log" >&2; fail "server never became healthy"; }
    sleep 0.1
done

# First plan: a cold build with a verdict.
curl -fsS -X POST --data-binary @"$tmp/workload.json" \
    "http://$addr/plan?metric=ADAPT-L" >"$tmp/plan1.json" \
    || fail "plan request failed"
grep -q '"feasible"' "$tmp/plan1.json" || fail "plan response has no verdict: $(cat "$tmp/plan1.json")"

# Second identical plan: served from the shared cache.
curl -fsS -X POST --data-binary @"$tmp/workload.json" \
    "http://$addr/plan?metric=ADAPT-L" >"$tmp/plan2.json" \
    || fail "second plan request failed"
cmp -s "$tmp/plan1.json" "$tmp/plan2.json" || fail "cached plan differs from the cold build"

curl -fsS "http://$addr/metrics" >"$tmp/metrics"
grep -q '^pland_builds_total 1$' "$tmp/metrics" \
    || fail "expected exactly one cold build; metrics: $(grep ^pland_ "$tmp/metrics")"
grep -q '^pland_cache_hits_total 1$' "$tmp/metrics" \
    || fail "expected one cache hit; metrics: $(grep ^pland_ "$tmp/metrics")"
grep -q '^pland_body_index_total{outcome="hit"} 1$' "$tmp/metrics" \
    || fail "expected the repeated body to hit the body index; metrics: $(grep ^pland_body_index "$tmp/metrics")"

# Third plan: the same workload in different bytes. The body index
# keys on bytes, so it misses; the decode path finds the same plan.
sed 's/^/ /' "$tmp/workload.json" >"$tmp/workload-spaced.json"
cmp -s "$tmp/workload.json" "$tmp/workload-spaced.json" && fail "re-encoded workload has the same bytes"
curl -fsS -X POST --data-binary @"$tmp/workload-spaced.json" \
    "http://$addr/plan?metric=ADAPT-L" >"$tmp/plan3.json" \
    || fail "re-encoded plan request failed"
cmp -s "$tmp/plan1.json" "$tmp/plan3.json" || fail "re-encoded workload's plan differs from the cold build"

curl -fsS "http://$addr/metrics" >"$tmp/metrics"
grep -q '^pland_builds_total 1$' "$tmp/metrics" \
    || fail "re-encoded workload was built again; metrics: $(grep ^pland_ "$tmp/metrics")"
grep -q '^pland_cache_hits_total 2$' "$tmp/metrics" \
    || fail "expected two cache hits; metrics: $(grep ^pland_ "$tmp/metrics")"
# One miss for the first POST, one for the re-encoded body.
grep -q '^pland_body_index_total{outcome="miss"} 2$' "$tmp/metrics" \
    || fail "expected the re-encoded body to miss the body index; metrics: $(grep ^pland_body_index "$tmp/metrics")"
grep -q '^pland_body_index_total{outcome="hit"} 1$' "$tmp/metrics" \
    || fail "expected still one body index hit; metrics: $(grep ^pland_body_index "$tmp/metrics")"

# SIGTERM drains: the process exits 0 and logs the drain.
kill -TERM "$pid"
wait "$pid" || fail "pland exited non-zero on SIGTERM: $(cat "$tmp/log")"
pid=""
grep -q "drained" "$tmp/log" || fail "drain not logged: $(cat "$tmp/log")"

echo "serve-smoke: ok"
