#!/bin/sh
# Overload smoke of the pland fleet: boot three peers with one planning
# slot each and a tight queue-delay target, measure how many fresh
# workloads per second they sustain on this machine, warm a small
# working set, then offer fresh never-repeated workloads open-loop at
# twice that rate. The contract under test is graceful degradation:
# Mandatory availability holds >= 99% (a 429/503 with Retry-After is an
# honest answer; a timeout or 5xx crash is not), no request fails
# outright, every peer's criticality rung engages and sheds Optional
# work, the brownout ladder visibly engages (degraded-quality plans are
# served), and once the storm passes every peer walks back to full
# quality on its own. Exits non-zero on the first broken contract.
set -eu

fail() { echo "overload-smoke: $1" >&2; exit 1; }

tmp=$(mktemp -d)
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/pland" ./cmd/pland
go build -o "$tmp/loadgen" ./cmd/loadgen

# The cheap rung sits *below* the admission target on purpose: the
# AIMD admission controller sheds to hold worst-window sojourn near
# the target, so a rung above it only trips during violent transients.
# With cheap < target, any storm the admission controller is actively
# riding also demotes cold builds — degrade quality before (not
# instead of) shedding load.
peers="p0=http://127.0.0.1:18380,p1=http://127.0.0.1:18381,p2=http://127.0.0.1:18382"
for i in 0 1 2; do
    "$tmp/pland" -addr "127.0.0.1:1838$i" -peers "$peers" -self "p$i" \
        -inflight 1 -queue 64 \
        -admit-target 5ms -admit-window 100ms \
        -brownout-cheap 3ms -brownout-cache-only 40ms \
        -probe-interval 200ms 2>>"$tmp/p$i.log" &
    pids="$pids $!"
done

for i in 0 1 2; do
    j=0
    until curl -fsS "http://127.0.0.1:1838$i/healthz" >/dev/null 2>&1; do
        j=$((j + 1))
        [ "$j" -ge 100 ] && { cat "$tmp/p$i.log" >&2; fail "p$i never became healthy"; }
        sleep 0.1
    done
done

# Phase 0: measure the sustainable rate on this fleet and this machine.
# How fast a cold build runs depends on both, so a storm rate written
# down for one machine stops building a queue on a faster one; the
# storm is derived from a measurement instead. A 1 s open loop far
# above any plausible rate but capped at $width requests in flight is a
# closed loop of that width over fresh, never-repeated workloads, every
# one a cold build; the fleet's capacity is what it answered in that
# second. The best of three such seconds stands, so a burst from the
# machine's other tenants in one of them cannot shrink the storm. Their
# own seeds keep their workloads out of the storm's.
width=6
capacity=0
for k in 1 2 3; do
    "$tmp/loadgen" -peers "$peers" -duration 0s -concurrency 1 -workloads 1 -seed $((1000000 * k)) \
        -tasks 120 -optional-frac 0 \
        -overload-rate 100000 -overload-duration 1s -max-outstanding "$width" \
        -out "$tmp/capacity.json" 2>>"$tmp/loadgen.log" \
        || { cat "$tmp/loadgen.log" >&2; fail "capacity measurement failed"; }
    answered=$(awk '/"overload": \{/ {ov = 1} ov && /^[[:space:]]*"ok":/ {gsub(/[^0-9]/,""); s += $0} END {print s+0}' "$tmp/capacity.json")
    if [ "$answered" -gt "$capacity" ]; then capacity=$answered; fi
done
[ "$capacity" -gt 0 ] || { cat "$tmp/capacity.json" >&2; fail "capacity measurement answered nothing"; }
storm=$((2 * capacity))
echo "overload-smoke: fleet sustains ~$capacity fresh workloads/s at width $width; storm at $storm/s"

# Phase 1+2 in one loadgen run: a short closed-loop warmup over a small
# cycled set, then twice the measured sustainable rate of fresh
# fingerprints (every one a cold build) for 6 s. loadgen itself
# enforces the 99% mandatory bar for both phases. Twice the capacity
# keeps three one-slot peers' worst-window sojourn above the cheap rung;
# far past that, health probes start timing out and honest sheds turn
# into hard failures.
"$tmp/loadgen" -peers "$peers" -duration 4s -concurrency 4 -workloads 12 \
    -tasks 120 -optional-frac 0.25 \
    -overload-rate "$storm" -overload-duration 6s -max-outstanding 400 \
    -min-mandatory-availability 0.99 \
    -out "$tmp/overload.json" 2>>"$tmp/loadgen.log" \
    || { cat "$tmp/loadgen.log" >&2; fail "availability fell below 99% under overload (or loadgen broke)"; }

# Zero requests failed outright: every tier's "failed" count — main and
# overload phase, mandatory and optional — must be 0. Shed is fine;
# failed is a broken contract.
failed=$(awk '/^[[:space:]]*"failed":/ {gsub(/[^0-9]/,""); s += $0} END {print s+0}' "$tmp/overload.json")
[ "$failed" -eq 0 ] || fail "$failed requests failed outright under overload; want 0"

# The brownout ladder engaged: the fleet served degraded-quality plans
# during the storm.
degraded=$(awk '/^[[:space:]]*"plansDegraded":/ {gsub(/[^0-9.]/,""); s += $0} END {print int(s)}' "$tmp/overload.json")
[ "$degraded" -gt 0 ] || { cat "$tmp/overload.json" >&2; fail "no degraded plans served; brownout never engaged"; }

# The criticality rung fired on every peer: its admission controller
# entered optional-first shedding at least once (pland_shedding and
# pland_shed_engaged_total report that rung) and shed Optional requests.
rung=""
for i in 0 1 2; do
    m=$(curl -fsS "http://127.0.0.1:1838$i/metrics")
    e=$(echo "$m" | awk '$1 == "pland_shed_engaged_total" {print $2}')
    o=$(echo "$m" | awk '$1 == "pland_shed_total{criticality=\"optional\"}" {print $2}')
    [ "${e:-0}" -ge 1 ] || fail "p$i never engaged optional-first shedding (pland_shed_engaged_total=${e:-missing})"
    [ "${o:-0}" -ge 1 ] || fail "p$i shed no optional request (pland_shed_total{criticality=\"optional\"}=${o:-missing})"
    rung="$rung p$i=$o/$e"
done

# Hysteretic recovery: with the storm over, every peer's ladder must
# walk back to full service (pland_brownout_level 0) on its own.
j=0
while :; do
    levels=""
    for i in 0 1 2; do
        l=$(curl -fsS "http://127.0.0.1:1838$i/metrics" | awk '/^pland_brownout_level /{print $2}')
        levels="$levels ${l:-?}"
    done
    [ "$levels" = " 0 0 0" ] && break
    j=$((j + 1))
    [ "$j" -ge 100 ] && fail "brownout levels never recovered to 0 (levels:$levels)"
    sleep 0.2
done

# And the recovered fleet serves at full quality again: a calm re-run
# over the warmed set must come back 100% ok with zero degraded answers.
"$tmp/loadgen" -peers "$peers" -duration 3s -concurrency 2 -workloads 12 \
    -tasks 120 -optional-frac 0.25 -min-mandatory-availability 0.99 \
    -out "$tmp/calm.json" 2>>"$tmp/loadgen.log" \
    || { cat "$tmp/loadgen.log" >&2; fail "post-recovery availability fell below 99%"; }
calm_degraded=$(awk '/^[[:space:]]*"degraded":/ {gsub(/[^0-9]/,""); s += $0} END {print s+0}' "$tmp/calm.json")
[ "$calm_degraded" -eq 0 ] || fail "recovered fleet still served $calm_degraded degraded answers; want 0"

shed=$(awk '/^[[:space:]]*"shed":/ {gsub(/[^0-9]/,""); s += $0} END {print s+0}' "$tmp/overload.json")
echo "overload-smoke: ok (storm $storm/s against a measured $capacity/s, failed=0, shed=$shed, optional shed/rung entries per peer:$rung, degraded plans=$degraded during the storm, 0 after recovery; brownout walked back to level 0 on all peers)"
