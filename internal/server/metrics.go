package server

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/pipeline"
)

// metric is one exported sample with its HELP/TYPE preamble.
type metric struct {
	name string
	kind string // "counter" or "gauge"
	help string
	rows []row
}

// row is one sample line: optional label pair plus the value.
type row struct {
	label string // rendered inside {...} verbatim; empty for none
	value float64
}

// handleMetrics renders the pipeline recorder aggregates and the
// admission gauges in the Prometheus text exposition format. The format
// is simple enough that hand-rendering it keeps the module free of a
// client library dependency.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sum := s.rec.Summary()
	adm := s.adm.snapshot()
	stageSeconds := []row{
		{`stage="estimate"`, sum.Estimate.Wall.Seconds()},
		{`stage="slice"`, sum.Slice.Wall.Seconds()},
		{`stage="dispatch"`, sum.Dispatch.Wall.Seconds()},
		{`stage="verify"`, sum.Verify.Wall.Seconds()},
	}
	ms := []metric{
		{"pland_builds_total", "counter", "Cold pipeline builds executed.",
			[]row{{"", float64(sum.Builds)}}},
		{"pland_cache_hits_total", "counter", "Plans served from the shared cache.",
			[]row{{"", float64(sum.Hits)}}},
		{"pland_coalesced_builds_total", "counter", "Builds that joined another request's in-flight build of the same key.",
			[]row{{"", float64(sum.Coalesced)}}},
		{"pland_canceled_builds_total", "counter", "Builds abandoned at a stage boundary by a done context.",
			[]row{{"", float64(sum.Canceled)}}},
		{"pland_build_errors_total", "counter", "Pipeline stage errors.",
			[]row{{"", float64(sum.Errors)}}},
		{"pland_stage_seconds_total", "counter", "Cumulative wall-clock time per pipeline stage.",
			stageSeconds},
		{"pland_requests_total", "counter", "Plan requests by outcome.",
			[]row{
				{`outcome="served"`, float64(s.served.Load())},
				{`outcome="rejected"`, float64(s.rejected.Load())},
				{`outcome="throttled"`, float64(s.throttled.Load())},
				{`outcome="expired"`, float64(s.expired.Load())},
				{`outcome="refused"`, float64(s.refused.Load())},
			}},
		{"pland_in_flight", "gauge", "Requests currently planning.",
			[]row{{"", float64(s.inFlight.Load())}}},
		{"pland_queue_depth", "gauge", "Requests waiting for a planning slot.",
			[]row{{"", float64(s.queued.Load())}}},
		{"pland_cached_plans", "gauge", "Plans resident in the shared cache.",
			[]row{{"", float64(s.cache.Len())}}},
		{"pland_draining", "gauge", "1 while the server refuses new work.",
			[]row{{"", boolGauge(s.draining.Load())}}},
		{"pland_shedding", "gauge", "1 while the overload ladder sheds Optional requests.",
			[]row{{"", boolGauge(adm.shedding)}}},
		{"pland_shed_engaged_total", "counter", "Times the shed ladder engaged (mode entries).",
			[]row{{"", float64(adm.shedEngaged)}}},
		{"pland_shed_total", "counter", "Requests shed with 429, by criticality.",
			[]row{
				{`criticality="optional"`, float64(s.shedOptional.Load())},
				{`criticality="mandatory"`, float64(s.shedMandatory.Load())},
			}},
		{"pland_admission_admit_fraction", "gauge", "Fraction of offered load the AIMD controller currently admits.",
			[]row{{"", adm.frac}}},
		{"pland_queue_delay_seconds", "gauge", "Worst queue sojourn of the last closed admission window.",
			[]row{{"", adm.delay.Seconds()}}},
		{"pland_admission_shed_total", "counter", "Requests shed by the AIMD admit coin.",
			[]row{{"", float64(s.admitShed.Load())}}},
		{"pland_verify_total", "counter", "Plans served with verification, by mode and verdict.",
			s.verifyRows()},
		{"pland_brownout_level", "gauge", "Brownout ladder rung (0 full, 1 cheap builds, 2 cache-only).",
			[]row{{"", float64(adm.level)}}},
		{"pland_brownout_transitions_total", "counter", "Brownout ladder moves in either direction.",
			[]row{{"", float64(adm.transitions)}}},
		{"pland_plans_total", "counter", "Plans served by quality.",
			[]row{
				{`quality="full"`, float64(s.plansFull.Load())},
				{`quality="degraded"`, float64(s.plansDegraded.Load())},
			}},
		{"pland_cache_only_total", "counter", "Cache-only rung outcomes (hit: served from cache, miss: 503).",
			[]row{
				{`outcome="hit"`, float64(s.cacheOnlyHits.Load())},
				{`outcome="miss"`, float64(s.cacheOnlyMiss.Load())},
			}},
		{"pland_batch_requests_total", "counter", "POST /plan/batch requests.",
			[]row{{"", float64(s.batchRequests.Load())}}},
		{"pland_batch_items_total", "counter", "Workload items across all batch requests.",
			[]row{{"", float64(s.batchItems.Load())}}},
		{"pland_batch_routed_groups_total", "counter", "Batch item groups shipped to their owning peers.",
			[]row{{"", float64(s.batchRoutedOut.Load())}}},
		{"pland_routed_total", "counter", "Fleet routing outcomes.",
			[]row{
				{`direction="out"`, float64(s.routedOut.Load())},
				{`direction="in"`, float64(s.routedIn.Load())},
				{`direction="fallback"`, float64(s.routedFallback.Load())},
			}},
		{"pland_warmfill_rounds_total", "counter", "Completed warm-fill rounds (digest pull + hint drain).",
			[]row{{"", float64(s.warmRounds.Load())}}},
		{"pland_warmfill_pulled_total", "counter", "Plans installed from peer digests (owner/standby replication).",
			[]row{{"", float64(s.warmPulled.Load())}}},
		{"pland_warmfill_readthrough_total", "counter", "Read-through sweeps run before a non-owner local build.",
			[]row{{"", float64(s.warmReads.Load())}}},
		{"pland_warmfill_pushed_total", "counter", "Hinted plans delivered back to their owners.",
			[]row{{"", float64(s.warmPushed.Load())}}},
		{"pland_warmfill_hints_total", "counter", "Handoff hints recorded for unreachable owners.",
			[]row{{"", float64(s.warmHinted.Load())}}},
		{"pland_warmfill_errors_total", "counter", "Warm-fill round-trips that failed (digest, fill, push).",
			[]row{{"", float64(s.warmErrors.Load())}}},
		{"pland_warmfill_pending_hints", "gauge", "Handoff hints awaiting a reachable owner.",
			[]row{{"", float64(s.hints.pending())}}},
		{"pland_warmfill_fill_total", "counter", "Cache fill endpoint traffic by outcome.",
			[]row{
				{`outcome="served"`, float64(s.fillServed.Load())},
				{`outcome="miss"`, float64(s.fillMisses.Load())},
				{`outcome="accepted"`, float64(s.fillAccepted.Load())},
			}},
		{"pland_snapshot_saves_total", "counter", "Successful cache snapshot saves.",
			[]row{{"", float64(s.snapSaves.Load())}}},
		{"pland_snapshot_loads_total", "counter", "Successful cache snapshot loads.",
			[]row{{"", float64(s.snapLoads.Load())}}},
		{"pland_snapshot_saved_plans", "gauge", "Plans in the most recent saved snapshot.",
			[]row{{"", float64(s.snapSavedPlans.Load())}}},
		{"pland_snapshot_loaded_plans_total", "counter", "Plans restored into the cache from snapshots.",
			[]row{{"", float64(s.snapLoadedPlans.Load())}}},
		{"pland_snapshot_errors_total", "counter", "Snapshot saves/loads that failed.",
			[]row{{"", float64(s.snapErrors.Load())}}},
		{"pland_body_index_total", "counter", "POST /plan body index outcomes (hit: answered or routed without a decode, stale: indexed but the plan was evicted, miss: no entry).",
			[]row{
				{`outcome="hit"`, float64(s.indexHits.Load())},
				{`outcome="stale"`, float64(s.indexStale.Load())},
				{`outcome="miss"`, float64(s.indexMiss.Load())},
			}},
	}
	var sb strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind)
		for _, r := range m.rows {
			if r.label != "" {
				fmt.Fprintf(&sb, "%s{%s} %s\n", m.name, r.label, formatValue(r.value))
			} else {
				fmt.Fprintf(&sb, "%s %s\n", m.name, formatValue(r.value))
			}
		}
	}
	if rt := s.opt.Router; rt != nil && rt.Client != nil {
		rt.Client.WriteMetrics(&sb)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = fmt.Fprint(w, sb.String())
}

// verifyRows renders the pland_verify_total matrix: one sample per
// verification mode and verifier verdict that has actually occurred
// (an all-zero matrix renders a single unlabeled zero so the metric
// family stays visible).
func (s *Server) verifyRows() []row {
	var rows []row
	for m := verifyFeas; int(m) < numVerifyModes; m++ {
		for o := 0; o < numVerifyOutcomes; o++ {
			if v := s.verifyTotals[m][o].Load(); v > 0 {
				rows = append(rows, row{
					fmt.Sprintf("mode=%q,outcome=%q", m, pipeline.VerifyOutcome(o)),
					float64(v),
				})
			}
		}
	}
	if len(rows) == 0 {
		rows = []row{{"", 0}}
	}
	return rows
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// formatValue renders counters as integers and seconds with full float
// precision, matching what Prometheus scrapers expect.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
