package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster/client"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/pipeline"
	"repro/internal/rtime"
	"repro/internal/slicing"
	"repro/internal/wcet"
)

// encodeReference renders v as writeJSON does: the reference the
// appended 200 answer must equal byte for byte.
func encodeReference(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppendPlanResponseMatchesEncoder: the appended answer equals
// encoding/json's indented encoding for every configuration name the
// server can echo, for quality full and degraded, for planningMS on
// both sides of the exponent cutoffs, for negative lateness, with each
// omitempty field set and unset, and for nil, empty and filled result
// slices. Names that need escaping are covered too.
func TestAppendPlanResponseMatchesEncoder(t *testing.T) {
	// appendPlanResponse writes the fields by hand: a new field must be
	// added there (and here) before this count moves.
	if n, m := reflect.TypeOf(PlanResponse{}).NumField(), reflect.TypeOf(graphio.ResultJSON{}).NumField(); n != 12 || m != 9 {
		t.Fatalf("PlanResponse has %d fields and ResultJSON %d; appendPlanResponse writes 12 and 9", n, m)
	}
	var names []string
	for _, m := range append(slicing.Metrics(), slicing.AdaptR(), slicing.AdaptN()) {
		names = append(names, m.Name())
	}
	for _, st := range wcet.Strategies {
		names = append(names, st.String())
	}
	for _, d := range []pipeline.Dispatcher{pipeline.TimeDriven(), pipeline.Planner(), pipeline.Insertion(), pipeline.Preemptive()} {
		names = append(names, d.Name)
	}
	for o := pipeline.VerifyOutcome(0); o <= pipeline.VerifyInconclusive; o++ {
		names = append(names, o.String())
	}
	names = append(names, pipeline.QualityFull.String(), pipeline.QualityDegraded.String(),
		"", `<a&b>`, `quote"back\slash`, "tab\tnew\nline", "é  ", "\xff")

	filled := graphio.ResultJSON{
		Metric:      "ADAPT-L",
		Arrival:     []rtime.Time{0, 12, 40},
		AbsDeadline: []rtime.Time{12, 40, 97},
		Proc:        []int{2, 0, 1},
		Start:       []rtime.Time{0, 12, 44},
		Finish:      []rtime.Time{11, 39, 101},
		Feasible:    false,
		MaxLateness: 4,
		Makespan:    101,
	}
	empty := graphio.ResultJSON{Arrival: []rtime.Time{}, AbsDeadline: []rtime.Time{}, Proc: []int{},
		Start: []rtime.Time{}, Finish: []rtime.Time{}}
	var cases []PlanResponse
	for i, name := range names {
		cases = append(cases, PlanResponse{Metric: name, WCET: name, Dispatcher: name, Proof: name,
			Quality: name, Result: graphio.ResultJSON{Metric: name}, PlanningMS: float64(i)})
	}
	for i, ms := range []float64{0, 1e-6, 9.99e-7, 1e-9, 0.073412, 1, 3.6e6, 1e20, 1e21, 123456789.125} {
		r := PlanResponse{Metric: "ADAPT-L", WCET: "WCET-AVG", Dispatcher: "time-driven",
			Feasible: i%2 == 0, OverConstrained: i%4 < 2, ProvablyInfeasible: i%3 == 0,
			MaxLateness: int64(3 - 7*i), MinLaxity: int64(i - 5), Result: filled,
			PlanningMS: ms, Quality: "full"}
		if i%2 == 1 {
			r.Proof, r.Quality, r.Result = "accepted", "degraded", empty
		}
		cases = append(cases, r)
	}
	for _, r := range cases {
		want := encodeReference(t, &r)
		if got := appendPlanResponse(nil, &r); !bytes.Equal(got, want) {
			t.Fatalf("appended answer differs from encoding/json:\n%s\nwant\n%s", got, want)
		}
	}
}

// TestPlanAnswerIsEncodingJSON: every 200 body of POST /plan, across
// every metric, WCET strategy, dispatcher and verify mode, and at full
// and degraded quality, is exactly encoding/json's indented encoding of
// the PlanResponse it carries, with a matching Content-Length. A body
// with a release block gets the answer of the body without it.
func TestPlanAnswerIsEncodingJSON(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var queries []string
	for _, m := range append(slicing.Metrics(), slicing.AdaptR(), slicing.AdaptN()) {
		queries = append(queries, "metric="+url.QueryEscape(m.Name()))
	}
	for _, st := range wcet.Strategies {
		queries = append(queries, "wcet="+url.QueryEscape(st.String()))
	}
	for _, d := range []string{"time-driven", "planner", "insertion", "preemptive"} {
		queries = append(queries, "dispatcher="+d)
	}
	for _, v := range []string{"off", "feas", "analytic", "replay", "analytic-first"} {
		queries = append(queries, "verify="+v)
	}
	check := func(query string, body []byte, quality string) {
		t.Helper()
		resp, raw := postPlan(t, ts, query, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", query, resp.StatusCode, raw)
		}
		if got := resp.Header.Get(qualityHeader); got != quality {
			t.Fatalf("%s: quality %q, want %q", query, got, quality)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(raw)) {
			t.Fatalf("%s: Content-Length %q for a %d-byte body", query, cl, len(raw))
		}
		var pr PlanResponse
		mustUnmarshal(t, raw, &pr)
		if want := encodeReference(t, &pr); !bytes.Equal(raw, want) {
			t.Fatalf("%s: answer differs from encoding/json:\n%s\nwant\n%s", query, raw, want)
		}
	}
	for i, q := range queries {
		// A loose and a tight workload: feasible and infeasible plans.
		check(q, workloadBody(t, int64(500+i)), "full")
		check(q, tightWorkloadBody(t, int64(600+i)), "full")
	}
	// A release block, well-formed or not, is a key outside the
	// workload format: the body gets the answer of the same body
	// without it, byte for byte.
	plain := workloadBody(t, 500)
	_, want := postPlan(t, ts, queries[0], plain)
	for _, block := range []string{`{"mode":"sporadic","count":3,"minGap":5000,"jitter":40}`, `{"mode":"every-tuesday"}`} {
		body := append([]byte(`{"release":`+block+`,`), plain[1:]...)
		if resp, raw := postPlan(t, ts, queries[0], body); resp.StatusCode != http.StatusOK || !bytes.Equal(raw, want) {
			t.Fatalf("release block %s: status %d, answer\n%s\nwant\n%s", block, resp.StatusCode, raw, want)
		}
	}
	forceBrownout(srv, brownoutCheap)
	check("metric=ADAPT-L&verify=feas", workloadBody(t, 700), "degraded")
}

// TestPlanAnswersConcurrent: answers written from the shared buffer
// pool by concurrent requests never mix: every cache-hit answer for a
// workload equals its first answer byte for byte.
func TestPlanAnswersConcurrent(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	const workloads, workers, rounds = 4, 4, 5
	bodies := make([][]byte, workloads)
	first := make([][]byte, workloads)
	for i := range bodies {
		bodies[i] = workloadBody(t, int64(800+i))
		resp, raw := postPlan(t, ts, "", bodies[i])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workload %d: status %d (%s)", i, resp.StatusCode, raw)
		}
		first[i] = raw
	}
	var wg sync.WaitGroup
	for w := 0; w < workers*workloads; w++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := http.Post(ts.URL+"/plan", "application/json", bytes.NewReader(bodies[i]))
				if err != nil {
					t.Error(err)
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || !bytes.Equal(raw, first[i]) {
					t.Errorf("workload %d: answer differs from its first (%v)", i, err)
					return
				}
			}
		}(w % workloads)
	}
	wg.Wait()
}

// TestReadBodyBounds: a Content-Length far beyond the real body sizes
// the read buffer at no more than the 1 MiB cap, and a body over
// MaxBodyBytes is refused with 422 as before.
func TestReadBodyBounds(t *testing.T) {
	body := workloadBody(t, 900)
	handler := New(Options{}).Handler()
	req := httptest.NewRequest(http.MethodPost, "/plan", bytes.NewReader(body))
	req.ContentLength = 1 << 40
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	handler.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusOK {
		t.Fatalf("lying Content-Length: status %d (%s)", rec.Code, rec.Body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Fatalf("a 1 TiB Content-Length cost %d bytes of allocation", alloc)
	}

	small := New(Options{MaxBodyBytes: 1 << 10}).Handler()
	rec = httptest.NewRecorder()
	small.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/plan", bytes.NewReader(body)))
	if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), "too large") {
		t.Fatalf("oversize body: status %d (%s), want 422 too large", rec.Code, rec.Body)
	}
}

// tightWorkloadBody is workloadBody with end-to-end deadlines too tight
// to meet.
func tightWorkloadBody(t *testing.T, seed int64) []byte {
	t.Helper()
	cfg := gen.Default(3)
	cfg.Seed, cfg.OLR = seed, 0.2
	w := gen.MustGenerate(cfg)
	var buf bytes.Buffer
	if err := graphio.WriteWorkload(&buf, w.Graph, w.Platform); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRelayKeepsQualityHeader: a proxied answer carries the owner's
// X-Plan-Quality and a Content-Length, and its body is the owner's.
func TestRelayKeepsQualityHeader(t *testing.T) {
	nodes := newFleet(t, 2, Options{}, client.Options{AttemptTimeout: 10 * time.Second})
	body := seedOwnedBy(t, nodes, "p0")

	direct, want := postPlan(t, nodes[0].ts, "", body)
	if direct.StatusCode != http.StatusOK {
		t.Fatalf("owner: status %d (%s)", direct.StatusCode, want)
	}
	resp, raw := postPlan(t, nodes[1].ts, "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied: status %d (%s)", resp.StatusCode, raw)
	}
	if peer := resp.Header.Get("X-Plan-Peer"); peer != "p0" {
		t.Fatalf("X-Plan-Peer %q, want p0 (the answer was not proxied)", peer)
	}
	if q := resp.Header.Get(qualityHeader); q != "full" {
		t.Fatalf("proxied X-Plan-Quality %q, want full", q)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(raw)) {
		t.Fatalf("proxied Content-Length %q for a %d-byte body", cl, len(raw))
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("proxied body differs from the owner's answer")
	}
}
