package server

import (
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster/client"
)

// exposition reduces a Prometheus text exposition to one line per
// family, in order: its name, its TYPE, and the label keys its samples
// carry (each distinct key set once, "|"-joined), with every label
// value and sample value masked. It fails the test on a sample outside
// its family's HELP/TYPE preamble.
func exposition(t *testing.T, text string) []string {
	t.Helper()
	var out []string
	var name, kind, help string
	var keySets []string
	flush := func() {
		if name == "" {
			return
		}
		line := name + " " + kind
		if len(keySets) > 0 {
			line += " " + strings.Join(keySets, "|")
		}
		out = append(out, line)
		name, keySets = "", nil
	}
	for _, ln := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		switch {
		case strings.HasPrefix(ln, "# HELP "):
			flush()
			help = strings.Fields(ln)[2]
		case strings.HasPrefix(ln, "# TYPE "):
			f := strings.Fields(ln)
			if len(f) != 4 || f[2] != help {
				t.Fatalf("TYPE line %q does not follow its HELP line", ln)
			}
			name, kind = f[2], f[3]
		default:
			sample, _, ok := strings.Cut(ln, " ")
			if !ok {
				t.Fatalf("sample line %q has no value", ln)
			}
			base, labels, _ := strings.Cut(sample, "{")
			if base != name {
				t.Fatalf("sample %q outside its family (current %q)", ln, name)
			}
			var keys []string
			for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
				if k, _, ok := strings.Cut(kv, "="); ok {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			set := strings.Join(keys, ",")
			if set == "" {
				set = "-"
			}
			if !slices.Contains(keySets, set) {
				keySets = append(keySets, set)
			}
		}
	}
	flush()
	return out
}

// nodeExposition is the family list a single pland node renders, in
// order. A fleet node renders fleetExposition after it.
var nodeExposition = []string{
	"pland_builds_total counter -",
	"pland_cache_hits_total counter -",
	"pland_coalesced_builds_total counter -",
	"pland_canceled_builds_total counter -",
	"pland_build_errors_total counter -",
	"pland_stage_seconds_total counter stage",
	"pland_requests_total counter outcome",
	"pland_in_flight gauge -",
	"pland_queue_depth gauge -",
	"pland_cached_plans gauge -",
	"pland_draining gauge -",
	"pland_shedding gauge -",
	"pland_shed_engaged_total counter -",
	"pland_shed_total counter criticality",
	"pland_admission_admit_fraction gauge -",
	"pland_queue_delay_seconds gauge -",
	"pland_admission_shed_total counter -",
	"pland_verify_total counter -",
	"pland_brownout_level gauge -",
	"pland_brownout_transitions_total counter -",
	"pland_plans_total counter quality",
	"pland_cache_only_total counter outcome",
	"pland_batch_requests_total counter -",
	"pland_batch_items_total counter -",
	"pland_batch_routed_groups_total counter -",
	"pland_routed_total counter direction",
	"pland_warmfill_rounds_total counter -",
	"pland_warmfill_pulled_total counter -",
	"pland_warmfill_readthrough_total counter -",
	"pland_warmfill_pushed_total counter -",
	"pland_warmfill_hints_total counter -",
	"pland_warmfill_errors_total counter -",
	"pland_warmfill_pending_hints gauge -",
	"pland_warmfill_fill_total counter outcome",
	"pland_snapshot_saves_total counter -",
	"pland_snapshot_loads_total counter -",
	"pland_snapshot_saved_plans gauge -",
	"pland_snapshot_loaded_plans_total counter -",
	"pland_snapshot_errors_total counter -",
}

// fleetExposition is a fleet node's planning client: its counters and
// per-peer breaker state.
var fleetExposition = []string{
	"pland_client_attempts_total counter -",
	"pland_client_retries_total counter -",
	"pland_client_hedges_total counter -",
	"pland_client_hedge_wins_total counter -",
	"pland_client_breaker_refusals_total counter -",
	"pland_client_failures_total counter kind",
	"pland_peer_breaker_state gauge peer",
	"pland_peer_breaker_opens_total counter peer",
	"pland_peer_breaker_closes_total counter peer",
	"pland_peer_up gauge peer",
}

// TestMetricsExposition pins /metrics' shape: every family perfbench,
// loadgen and the smokes scrape by name keeps its name, its TYPE, its
// label keys and its position, on a single node and on a fleet node.
func TestMetricsExposition(t *testing.T) {
	single := httptest.NewServer(New(Options{}).Handler())
	defer single.Close()
	fleet := newFleet(t, 2, Options{}, client.Options{})

	for _, c := range []struct {
		name string
		text string
		want []string
	}{
		{"single node", scrape(t, single), nodeExposition},
		{"fleet node", scrape(t, fleet[0].ts), append(append([]string(nil), nodeExposition...), fleetExposition...)},
	} {
		got := exposition(t, c.text)
		if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("%s: /metrics families changed\n got:\n%s\nwant:\n%s",
				c.name, strings.Join(got, "\n"), strings.Join(c.want, "\n"))
		}
	}
}
