package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/deadline"
	"repro/internal/graphio"
	"repro/internal/pipeline"
	"repro/internal/slicing"
)

// feedWindow closes one admission window of srv whose worst queue
// sojourn is worst, then freezes the controller's clock so no further
// window closes: the rungs that window sets hold until the next
// feedWindow. The admit fraction is pinned back to 1, so only the rungs,
// not the AIMD coin, shape the requests under test.
func feedWindow(srv *Server, worst time.Duration) {
	a := srv.adm
	a.mu.Lock()
	defer a.mu.Unlock()
	// Start ahead of any window already open — real-clock ones from
	// earlier requests, or a previous feedWindow's frozen one — so this
	// clock can close windows.
	clock := time.Now().Add(time.Hour)
	if a.windowEnd.After(clock) {
		clock = a.windowEnd
	}
	a.roll(clock)
	a.worst = max(a.worst, worst)
	clock = clock.Add(a.opt.AdmitWindow)
	a.roll(clock)
	a.now = func() time.Time { return clock }
	a.frac = 1
}

// forceBrownout drives srv's admission controller to the wanted rung
// with one over-rung window (feedWindow) and releases the criticality
// rung that window also engaged, so only the brownout ladder shapes the
// requests under test.
func forceBrownout(srv *Server, level brownoutLevel) {
	var worst time.Duration
	switch level {
	case brownoutCheap:
		worst = srv.opt.BrownoutCheapAt
	case brownoutCacheOnly:
		worst = srv.opt.BrownoutCacheOnlyAt
	}
	feedWindow(srv, worst)
	if got := srv.adm.currentLevel(); got != level {
		panic("forceBrownout: level " + got.String() + ", want " + level.String())
	}
	srv.adm.mu.Lock()
	srv.adm.shedOptional = false
	srv.adm.mu.Unlock()
}

// planResp decodes the interesting fields of a /plan answer.
type planResp struct {
	Metric     string  `json:"metric"`
	Dispatcher string  `json:"dispatcher"`
	Quality    string  `json:"quality"`
	Feasible   bool    `json:"feasible"`
	PlanningMS float64 `json:"planningMS"`
}

func TestQualityFullOnNormalServe(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, raw := postPlan(t, ts, "metric=ADAPT-L", workloadBody(t, 31))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, raw)
	}
	if q := resp.Header.Get("X-Plan-Quality"); q != "full" {
		t.Fatalf("X-Plan-Quality = %q, want full", q)
	}
	var pr planResp
	mustUnmarshal(t, raw, &pr)
	if pr.Quality != "full" || pr.Metric != slicing.AdaptL().Name() {
		t.Fatalf("quality %q metric %q, want full/%s", pr.Quality, pr.Metric, slicing.AdaptL().Name())
	}
	if got := metricValue(t, scrape(t, ts), `pland_plans_total{quality="full"}`); got != 1 {
		t.Fatalf("full plans = %g, want 1", got)
	}
}

// TestBrownoutCheapSubstitutes: at the cheap rung a rich request is
// served with the NORM/time-driven configuration and tagged degraded —
// a plain cold build of that configuration, counted as a build — but a
// request that asked for the cheap configuration anyway keeps full
// quality, and a plan cached at full quality before the brownout still
// serves as full.
func TestBrownoutCheapSubstitutes(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Cache one workload at full quality before pressure hits.
	warm := workloadBody(t, 41)
	if resp, raw := postPlan(t, ts, "metric=ADAPT-L", warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-brownout plan: %d (%s)", resp.StatusCode, raw)
	}

	forceBrownout(srv, brownoutCheap)

	// A rich cold request is substituted and tagged.
	rich := workloadBody(t, 42)
	resp, raw := postPlan(t, ts, "metric=ADAPT-L&verify=1", rich)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, raw)
	}
	if q := resp.Header.Get("X-Plan-Quality"); q != "degraded" {
		t.Fatalf("X-Plan-Quality = %q, want degraded", q)
	}
	var pr struct {
		planResp
		Result graphio.ResultJSON `json:"result"`
	}
	mustUnmarshal(t, raw, &pr)
	if pr.Metric != slicing.NORM().Name() || pr.Dispatcher != "time-driven" || pr.Quality != "degraded" {
		t.Fatalf("served %s/%s/%s, want NORM/time-driven/degraded", pr.Metric, pr.Dispatcher, pr.Quality)
	}
	g, p, err := graphio.ReadWorkload(bytes.NewReader(rich))
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&pipeline.Builder{
		Distributor: deadline.Sliced{Metric: slicing.NORM(), Params: slicing.CalibratedParams()},
		Dispatcher:  pipeline.TimeDriven(),
	}).Build(pipeline.Spec{Graph: g, Platform: p})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pr.Result, graphio.EncodeResult(want.Assignment, want.Schedule)) {
		t.Fatalf("degraded answer differs from a NORM/time-driven build of the workload\n got %+v\nwant %+v",
			pr.Result, graphio.EncodeResult(want.Assignment, want.Schedule))
	}
	if got := metricValue(t, scrape(t, ts), "pland_builds_total"); got != 2 {
		t.Fatalf("builds = %g after the warm and the cheap build, want 2", got)
	}

	// A request already at the cheap configuration is not a downgrade.
	resp, raw = postPlan(t, ts, "metric="+slicing.NORM().Name()+"&dispatcher=time-driven", workloadBody(t, 43))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, raw)
	}
	if q := resp.Header.Get("X-Plan-Quality"); q != "full" {
		t.Fatalf("cheap-config request X-Plan-Quality = %q, want full", q)
	}

	// The pre-brownout cached plan short-circuits the ladder.
	resp, raw = postPlan(t, ts, "metric=ADAPT-L", warm)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, raw)
	}
	if q := resp.Header.Get("X-Plan-Quality"); q != "full" {
		t.Fatalf("cached plan X-Plan-Quality = %q, want full", q)
	}

	text := scrape(t, ts)
	if got := metricValue(t, text, `pland_plans_total{quality="degraded"}`); got != 1 {
		t.Fatalf("degraded plans = %g, want 1", got)
	}
	if got := metricValue(t, text, "pland_brownout_level"); got != 1 {
		t.Fatalf("brownout level = %g, want 1", got)
	}
}

// TestBrownoutCacheOnly: at the deepest rung only resident plans are
// served — full-quality ones as full, degraded ones from an earlier
// brownout as degraded — and misses get 503 with a Retry-After hint.
func TestBrownoutCacheOnly(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	warm := workloadBody(t, 51)
	if resp, _ := postPlan(t, ts, "metric=ADAPT-L", warm); resp.StatusCode != http.StatusOK {
		t.Fatal("pre-brownout plan failed")
	}
	// Cache a degraded plan for another workload while at the cheap rung.
	forceBrownout(srv, brownoutCheap)
	cheapened := workloadBody(t, 52)
	if resp, _ := postPlan(t, ts, "metric=ADAPT-L", cheapened); resp.StatusCode != http.StatusOK {
		t.Fatal("cheap-rung plan failed")
	}

	forceBrownout(srv, brownoutCacheOnly)

	// Resident full-quality plan: served full.
	resp, _ := postPlan(t, ts, "metric=ADAPT-L", warm)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Plan-Quality") != "full" {
		t.Fatalf("cached full plan: %d %q, want 200 full", resp.StatusCode, resp.Header.Get("X-Plan-Quality"))
	}
	// Resident degraded plan (cheap key) beats a 503.
	resp, _ = postPlan(t, ts, "metric=ADAPT-L", cheapened)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Plan-Quality") != "degraded" {
		t.Fatalf("cached degraded plan: %d %q, want 200 degraded", resp.StatusCode, resp.Header.Get("X-Plan-Quality"))
	}
	// Miss: refused with a hint, never built.
	resp, raw := postPlan(t, ts, "metric=ADAPT-L", workloadBody(t, 53))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cache-only miss: %d (%s), want 503", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("cache-only 503 carries no Retry-After")
	}

	text := scrape(t, ts)
	if got := metricValue(t, text, `pland_cache_only_total{outcome="hit"}`); got != 2 {
		t.Fatalf("cache-only hits = %g, want 2", got)
	}
	if got := metricValue(t, text, `pland_cache_only_total{outcome="miss"}`); got != 1 {
		t.Fatalf("cache-only misses = %g, want 1", got)
	}
	if got := metricValue(t, text, "pland_brownout_level"); got != 2 {
		t.Fatalf("brownout level = %g, want 2", got)
	}
}

// TestBrownoutRecovers closes clean windows and watches the ladder walk
// back to full service through the clean-streak hysteresis.
func TestBrownoutRecovers(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	clock := time.Now().Add(time.Hour)
	srv.adm.now = func() time.Time { return clock }
	srv.adm.observe(srv.opt.BrownoutCacheOnlyAt)
	clock = clock.Add(srv.opt.AdmitWindow)
	if srv.adm.currentLevel() != brownoutCacheOnly {
		t.Fatal("setup: not at cache-only")
	}
	// 2 × promoteAfter clean windows: back to full.
	for i := 0; i < 2*promoteAfter; i++ {
		clock = clock.Add(srv.opt.AdmitWindow)
	}
	if l := srv.adm.currentLevel(); l != brownoutOff {
		t.Fatalf("level = %v after clean streaks, want off", l)
	}
	resp, _ := postPlan(t, ts, "metric=ADAPT-L", workloadBody(t, 61))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Plan-Quality") != "full" {
		t.Fatalf("post-recovery plan: %d %q, want 200 full", resp.StatusCode, resp.Header.Get("X-Plan-Quality"))
	}
}
