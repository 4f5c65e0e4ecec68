package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/pipeline"
	"repro/internal/slicing"
)

// workloadBody serializes a generated workload as a request body.
func workloadBody(t *testing.T, seed int64) []byte {
	t.Helper()
	cfg := gen.Default(3)
	cfg.Seed = seed
	w := gen.MustGenerate(cfg)
	var buf bytes.Buffer
	if err := graphio.WriteWorkload(&buf, w.Graph, w.Platform); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postPlan(t *testing.T, ts *httptest.Server, query string, body []byte) (*http.Response, []byte) {
	t.Helper()
	url := ts.URL + "/plan"
	if query != "" {
		url += "?" + query
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// metricValue extracts one un-labelled (or exactly-labelled) sample from
// a Prometheus text exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, text)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	return string(raw)
}

// TestPlanEndpoint drives one workload through the full service path
// and checks the response carries a complete plan.
func TestPlanEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	body := workloadBody(t, 7)

	resp, raw := postPlan(t, ts, "metric=ADAPT-L&verify=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var pr PlanResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Metric != "ADAPT-L" || pr.WCET != "WCET-AVG" || pr.Dispatcher != "time-driven" {
		t.Fatalf("configuration echo wrong: %+v", pr)
	}
	if len(pr.Result.Proc) == 0 || len(pr.Result.AbsDeadline) == 0 {
		t.Fatalf("plan payload empty: %+v", pr.Result)
	}
	if len(pr.Result.Proc) != len(pr.Result.Start) || len(pr.Result.Start) != len(pr.Result.Finish) {
		t.Fatalf("ragged placements: %+v", pr.Result)
	}
}

// TestPlanVerifyModes drives one workload through every verification
// mode: each 200 must carry the verifier's verdict in the proof field,
// the analytic modes must refuse non-time-driven dispatchers, and the
// served verdicts must land in pland_verify_total{mode,outcome}.
func TestPlanVerifyModes(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	body := workloadBody(t, 9)

	allowed := map[string][]string{
		"feas":           {"rejected", "inconclusive"},
		"analytic":       {"accepted", "rejected", "inconclusive"},
		"replay":         {"accepted", "rejected"},
		"analytic-first": {"accepted", "rejected"},
	}
	for mode, verdicts := range allowed {
		resp, raw := postPlan(t, ts, "verify="+mode, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("verify=%s: status %d: %s", mode, resp.StatusCode, raw)
		}
		var pr PlanResponse
		if err := json.Unmarshal(raw, &pr); err != nil {
			t.Fatal(err)
		}
		ok := false
		for _, v := range verdicts {
			ok = ok || pr.Proof == v
		}
		if !ok {
			t.Fatalf("verify=%s: proof %q, want one of %v", mode, pr.Proof, verdicts)
		}
		if !strings.Contains(scrape(t, ts),
			fmt.Sprintf("pland_verify_total{mode=%q,outcome=%q}", mode, pr.Proof)) {
			t.Fatalf("verify=%s: verdict %q not counted in /metrics", mode, pr.Proof)
		}
	}

	// Without verification the proof field stays absent.
	resp, raw := postPlan(t, ts, "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unverified plan: status %d: %s", resp.StatusCode, raw)
	}
	var pr PlanResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Proof != "" {
		t.Fatalf("unverified plan carries proof %q", pr.Proof)
	}

	// The analytic proof models the time-driven dispatcher only.
	for _, q := range []string{"verify=analytic&dispatcher=planner", "verify=analytic-first&dispatcher=insertion", "verify=NOPE"} {
		if resp, raw := postPlan(t, ts, q, body); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d, want 422 (%s)", q, resp.StatusCode, raw)
		}
	}
	// Replay needs no such gate.
	if resp, raw := postPlan(t, ts, "verify=replay&dispatcher=planner", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("verify=replay&dispatcher=planner: status %d: %s", resp.StatusCode, raw)
	}
}

// TestPlanDefaultVerify: Options.DefaultVerify applies when the request
// omits ?verify= and is overridden when it does not.
func TestPlanDefaultVerify(t *testing.T) {
	ts := httptest.NewServer(New(Options{DefaultVerify: "analytic"}).Handler())
	defer ts.Close()
	body := workloadBody(t, 9)

	resp, raw := postPlan(t, ts, "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var pr PlanResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Proof == "" {
		t.Fatal("default verify mode did not run")
	}
	resp, raw = postPlan(t, ts, "verify=off", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	pr = PlanResponse{}
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Proof != "" {
		t.Fatalf("verify=off did not override the default (proof %q)", pr.Proof)
	}
}

// cheapen must drop any verification mode and count it as a downgrade,
// so brownout substitutes are honestly labeled degraded.
func TestCheapenDropsVerifyMode(t *testing.T) {
	base := planConfig{metric: slicing.PURE(), disp: pipeline.TimeDriven()}
	if _, down := cheapen(base); down {
		t.Fatal("already-cheap configuration counted as a downgrade")
	}
	for _, m := range []verifyMode{verifyFeas, verifyAnalytic, verifyReplay, verifyAnalyticFirst} {
		cfg := base
		cfg.verify = m
		cheap, down := cheapen(cfg)
		if cheap.verify != verifyOff || !down {
			t.Fatalf("mode %v: cheapened verify %v, downgraded %v; want off, true", m, cheap.verify, down)
		}
	}
}

// TestPlanRejections pins the 4xx surface: bad parameters, bad bodies,
// and workloads that fail boundary validation.
func TestPlanRejections(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	body := workloadBody(t, 8)
	// A task pinned to a processor the platform does not have.
	cfg := gen.Default(3)
	cfg.Seed = 8
	w := gen.MustGenerate(cfg)
	w.Graph.Task(0).Pinned = w.Platform.M()
	var pinned bytes.Buffer
	if err := graphio.WriteWorkload(&pinned, w.Graph, w.Platform); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, query string
		body        []byte
		want        int
	}{
		{"unknown metric", "metric=NOPE", body, http.StatusUnprocessableEntity},
		{"unknown wcet", "wcet=NOPE", body, http.StatusUnprocessableEntity},
		{"unknown dispatcher", "dispatcher=NOPE", body, http.StatusUnprocessableEntity},
		{"bad timeout", "timeout=-3s", body, http.StatusUnprocessableEntity},
		{"garbage body", "", []byte("not json"), http.StatusUnprocessableEntity},
		{"impossible pin", "", pinned.Bytes(), http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		resp, raw := postPlan(t, ts, c.query, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.want, raw)
		}
		var er errorResponse
		if err := json.Unmarshal(raw, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body malformed: %s", c.name, raw)
		}
	}

	// GET is not allowed on /plan.
	resp, err := http.Get(ts.URL + "/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /plan: %d", resp.StatusCode)
	}

	// A platform-free workload cannot be planned.
	var buf bytes.Buffer
	w = gen.MustGenerate(cfg)
	if err := graphio.WriteWorkload(&buf, w.Graph, nil); err != nil {
		t.Fatal(err)
	}
	resp2, raw := postPlan(t, ts, "", buf.Bytes())
	if resp2.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("platform-free workload: status %d (%s)", resp2.StatusCode, raw)
	}
}

// TestExactlyOneColdBuild is the service-level coalescing contract:
// parallel clients posting the identical workload cause exactly one
// cold pipeline build, observable in /metrics; everyone else is served
// by the cache or the in-flight build.
func TestExactlyOneColdBuild(t *testing.T) {
	const clients = 8
	ts := httptest.NewServer(New(Options{MaxInFlight: clients}).Handler())
	defer ts.Close()
	body := workloadBody(t, 9)

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/plan", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, raw)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}

	text := scrape(t, ts)
	if got := metricValue(t, text, "pland_builds_total"); got != 1 {
		t.Fatalf("pland_builds_total = %g, want exactly 1", got)
	}
	hits := metricValue(t, text, `pland_cache_hits_total`)
	coalesced := metricValue(t, text, `pland_coalesced_builds_total`)
	if hits+coalesced != clients-1 {
		t.Fatalf("hits (%g) + coalesced (%g) = %g, want %d", hits, coalesced, hits+coalesced, clients-1)
	}
	if got := metricValue(t, text, "pland_cached_plans"); got != 1 {
		t.Fatalf("pland_cached_plans = %g, want 1", got)
	}
}

// TestBackpressure pins the admission contract: with one slot and one
// queue seat both occupied, the next request is shed immediately with
// 429 and a Retry-After hint.
func TestBackpressure(t *testing.T) {
	srv := New(Options{MaxInFlight: 1, MaxQueue: 1})
	srv.holdBuild = make(chan struct{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// LIFO: a failed check must still release the held requests before
	// ts.Close waits on their handlers.
	release := sync.OnceFunc(func() { close(srv.holdBuild) })
	defer release()
	body := workloadBody(t, 10)

	done := make(chan error, 2)
	post := func() {
		resp, err := http.Post(ts.URL+"/plan", "application/json", bytes.NewReader(body))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		done <- err
	}
	// The first two requests land one in the slot and one in the queue
	// seat (either order); queue depth 1 implies the slot is taken.
	go post()
	go post()
	waitGauge(t, ts, "pland_queue_depth", 1)

	// Third request: slot busy, queue full → shed.
	resp, raw := postPlan(t, ts, "", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Release the held builds; both earlier requests complete.
	release()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("held request %d failed: %v", i, err)
		}
	}
	text := scrape(t, ts)
	if got := metricValue(t, text, `pland_requests_total{outcome="throttled"}`); got != 1 {
		t.Fatalf("throttled = %g, want 1", got)
	}
}

// waitGauge polls /metrics until the named gauge reaches want.
func waitGauge(t *testing.T, ts *httptest.Server, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
		if m := re.FindStringSubmatch(scrape(t, ts)); m != nil {
			if v, _ := strconv.ParseFloat(m[1], 64); v >= want {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("gauge %s never reached %g", name, want)
}

// TestDrain pins the shutdown contract: after Drain, /healthz flips to
// 503 and new plan requests are refused, while /metrics stays up for
// the final scrape.
func TestDrain(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy /healthz: %d", resp.StatusCode)
	}

	srv.Drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(raw), "draining") {
		t.Fatalf("draining /healthz: %d %s", resp.StatusCode, raw)
	}

	resp2, raw := postPlan(t, ts, "", workloadBody(t, 11))
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /plan: %d (%s)", resp2.StatusCode, raw)
	}
	if got := metricValue(t, scrape(t, ts), "pland_draining"); got != 1 {
		t.Fatalf("pland_draining = %g, want 1", got)
	}
}

// TestPlanTimeout pins the budget contract: a request whose budget is
// too small for even the first stage boundary comes back as 504.
func TestPlanTimeout(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A 1ns budget is over before the pipeline's first stage gate.
	resp, raw := postPlan(t, ts, "timeout=1ns", workloadBody(t, 12))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, raw)
	}
	text := scrape(t, ts)
	if got := metricValue(t, text, `pland_requests_total{outcome="expired"}`); got != 1 {
		t.Fatalf("expired = %g, want 1", got)
	}
	if got := metricValue(t, text, "pland_canceled_builds_total"); got < 1 {
		t.Fatalf("pland_canceled_builds_total = %g, want >= 1", got)
	}
}
