package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster/client"
	"repro/internal/gen"
	"repro/internal/graphio"
)

// served is one /plan answer as a client sees it.
type served struct {
	code   int
	header http.Header
	body   []byte
}

// serve sends one /plan POST through h in process.
func serve(h http.Handler, query string, body []byte) served {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/plan?"+query, bytes.NewReader(body)))
	return served{rec.Code, rec.Header(), rec.Body.Bytes()}
}

// sameAnswer fails unless two answers agree in status, headers and
// body bytes.
func sameAnswer(t *testing.T, what string, got, want served) {
	t.Helper()
	if got.code != want.code || !reflect.DeepEqual(got.header, want.header) || !bytes.Equal(got.body, want.body) {
		t.Fatalf("%s: answer differs\n got %d %v\n%s\nwant %d %v\n%s",
			what, got.code, got.header, got.body, want.code, want.header, want.body)
	}
}

// samples reads every sample of h's /metrics, keyed by series.
func samples(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	m := map[string]float64{}
	for _, ln := range strings.Split(rec.Body.String(), "\n") {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		series, val, _ := strings.Cut(ln, " ")
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", ln, err)
		}
		m[series] = v
	}
	return m
}

// counted are the series an indexed answer must move exactly as the
// decode path's answer does.
var counted = []string{
	"pland_cache_hits_total",
	"pland_builds_total",
	"pland_coalesced_builds_total",
	`pland_requests_total{outcome="served"}`,
	`pland_requests_total{outcome="throttled"}`,
	`pland_plans_total{quality="full"}`,
	`pland_plans_total{quality="degraded"}`,
	`pland_cache_only_total{outcome="hit"}`,
	`pland_cache_only_total{outcome="miss"}`,
	`pland_routed_total{direction="out"}`,
	`pland_routed_total{direction="in"}`,
	`pland_routed_total{direction="fallback"}`,
}

// deltas is after − before over counted and the body index family.
func deltas(before, after map[string]float64) map[string]float64 {
	d := map[string]float64{}
	for _, k := range counted {
		d[k] = after[k] - before[k]
	}
	for _, oc := range []string{"hit", "stale", "miss"} {
		k := fmt.Sprintf("pland_body_index_total{outcome=%q}", oc)
		d[k] = after[k] - before[k]
	}
	return d
}

// index returns the body index series of a deltas map.
func index(d map[string]float64) (hit, stale, miss float64) {
	return d[`pland_body_index_total{outcome="hit"}`], d[`pland_body_index_total{outcome="stale"}`],
		d[`pland_body_index_total{outcome="miss"}`]
}

// sameCounters fails unless an indexed answer's deltas equal the decode
// path's on every counted series.
func sameCounters(t *testing.T, what string, indexed, decoded map[string]float64) {
	t.Helper()
	for _, k := range counted {
		if indexed[k] != decoded[k] {
			t.Fatalf("%s: %s moved by %g, the decode path's by %g", what, k, indexed[k], decoded[k])
		}
	}
}

// measured serves one POST and returns its answer and counter deltas.
func measured(t *testing.T, h http.Handler, query string, body []byte) (served, map[string]float64) {
	t.Helper()
	before := samples(t, h)
	a := serve(h, query, body)
	return a, deltas(before, samples(t, h))
}

// indexConfigs are two request configurations that differ in every
// part of the index key but the body.
var indexConfigs = []string{
	"metric=ADAPT-L&wcet=WCET-AVG&dispatcher=time-driven&verify=analytic-first",
	"metric=NORM&wcet=WCET-MAX&dispatcher=planner&verify=feas",
}

// TestBodyIndexMatchesDecodePath is the index's differential test: over
// 32 generated workloads and two configurations, a repeated body is
// answered from the index with the same status, headers and bytes as
// its first answer and as a fresh server's decode-path answer from the
// same plan, and it moves every counter exactly as that decode-path
// answer does.
func TestBodyIndexMatchesDecodePath(t *testing.T) {
	for _, q := range indexConfigs {
		srv, ref := New(Options{}), New(Options{})
		h, refH := srv.Handler(), ref.Handler()
		for seed := int64(1000); seed < 1032; seed++ {
			body := workloadBody(t, seed)
			first, d := measured(t, h, q, body)
			if first.code != http.StatusOK {
				t.Fatalf("seed %d %s: %d %s", seed, q, first.code, first.body)
			}
			if hit, _, miss := index(d); hit != 0 || miss != 1 {
				t.Fatalf("seed %d: first POST index hit/miss %g/%g, want 0/1", seed, hit, miss)
			}
			again, d := measured(t, h, q, body)
			sameAnswer(t, fmt.Sprintf("seed %d %s: repeat", seed, q), again, first)
			if hit, _, _ := index(d); hit != 1 {
				t.Fatalf("seed %d: repeated POST index hits %g, want 1", seed, hit)
			}

			// The reference server holds the same plans but has never
			// seen the body: it decodes it and hits the cache.
			for _, p := range srv.cache.Plans() {
				ref.cache.Install(p)
			}
			decoded, rd := measured(t, refH, q, body)
			sameAnswer(t, fmt.Sprintf("seed %d %s: decode path", seed, q), again, decoded)
			if hit, _, miss := index(rd); hit != 0 || miss != 1 {
				t.Fatalf("seed %d: reference index hit/miss %g/%g, want 0/1", seed, hit, miss)
			}
			sameCounters(t, fmt.Sprintf("seed %d %s", seed, q), d, rd)
			if d["pland_cache_hits_total"] != 1 || d["pland_builds_total"] != 0 {
				t.Fatalf("seed %d: repeat moved hits/builds by %g/%g, want 1/0",
					seed, d["pland_cache_hits_total"], d["pland_builds_total"])
			}
		}
	}
}

// changeWCET bumps the leading digit of the first positive WCET entry.
func changeWCET(t *testing.T, body []byte) []byte {
	t.Helper()
	out := append([]byte(nil), body...)
	at := bytes.Index(out, []byte(`"wcet": [`))
	if at < 0 {
		t.Fatal("body has no wcet array")
	}
	for i := at + len(`"wcet": [`); i < len(out); i++ {
		if c := out[i]; c >= '1' && c <= '9' && out[i-1] != '-' {
			if c == '9' {
				out[i] = '8'
			} else {
				out[i] = c + 1
			}
			return out
		}
	}
	t.Fatal("no positive WCET entry")
	return nil
}

// TestBodyIndexByteSensitivity: the index keys on bytes, the plan on
// content. One changed WCET byte is a new workload (a miss, then a
// build); the same workload re-indented or with a task renamed is a
// miss that the decode path answers from the same plan, without a
// build.
func TestBodyIndexByteSensitivity(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	q := indexConfigs[0]
	body := workloadBody(t, 71)
	first := serve(h, q, body)
	if first.code != http.StatusOK {
		t.Fatalf("first POST: %d %s", first.code, first.body)
	}

	a, d := measured(t, h, q, changeWCET(t, body))
	if a.code != http.StatusOK || d["pland_builds_total"] != 1 {
		t.Fatalf("changed WCET: %d with %g builds, want 200 and 1", a.code, d["pland_builds_total"])
	}
	if _, _, miss := index(d); miss != 1 {
		t.Fatalf("changed WCET: index misses %g, want 1", miss)
	}
	if bytes.Equal(a.body, first.body) {
		t.Fatal("changed WCET answered with the original plan")
	}

	var indented bytes.Buffer
	if err := json.Indent(&indented, body, "", "\t"); err != nil {
		t.Fatal(err)
	}
	renamed := bytes.Replace(body, []byte(`"name": "`), []byte(`"name": "renamed-`), 1)
	if bytes.Equal(renamed, body) {
		t.Fatal("body has no task name to rename")
	}
	for _, c := range []struct {
		what string
		body []byte
	}{{"re-indented", indented.Bytes()}, {"renamed", renamed}} {
		a, d := measured(t, h, q, c.body)
		sameAnswer(t, c.what, a, first)
		if _, _, miss := index(d); miss != 1 {
			t.Fatalf("%s: index misses %g, want 1", c.what, miss)
		}
		if d["pland_builds_total"] != 0 || d["pland_cache_hits_total"] != 1 {
			t.Fatalf("%s: builds/hits %g/%g, want 0/1", c.what, d["pland_builds_total"], d["pland_cache_hits_total"])
		}
		// Now indexed in its own right.
		if _, d := measured(t, h, q, c.body); d[`pland_body_index_total{outcome="hit"}`] != 1 {
			t.Fatalf("%s: repeat was not an index hit", c.what)
		}
	}
}

// withoutTiming is a /plan answer body with planningMS zeroed: a rebuilt
// plan carries its own build's wall time.
func withoutTiming(t *testing.T, raw []byte) PlanResponse {
	t.Helper()
	var pr PlanResponse
	mustUnmarshal(t, raw, &pr)
	pr.PlanningMS = 0
	return pr
}

// TestBodyIndexStaleAfterEviction: the cache evicts by recency and the
// index by age, so a body can stay indexed after its plan is gone. Its
// next POST counts stale, is decoded and rebuilt, and answers the same
// plan; the one after is an index hit again.
func TestBodyIndexStaleAfterEviction(t *testing.T) {
	srv := New(Options{CacheCapacity: 2})
	h := srv.Handler()
	q := indexConfigs[0]
	a, b, c := workloadBody(t, 81), workloadBody(t, 82), workloadBody(t, 83)
	serve(h, q, a)
	firstB := serve(h, q, b)
	serve(h, q, a) // a becomes the cache's most recent plan
	serve(h, q, c) // the cache evicts b, the index evicts a
	if firstB.code != http.StatusOK {
		t.Fatalf("b: %d %s", firstB.code, firstB.body)
	}

	got, d := measured(t, h, q, b)
	if got.code != http.StatusOK {
		t.Fatalf("stale POST: %d %s", got.code, got.body)
	}
	if _, stale, _ := index(d); stale != 1 || d["pland_builds_total"] != 1 {
		t.Fatalf("stale POST: stale %g builds %g, want 1 and 1", stale, d["pland_builds_total"])
	}
	if !reflect.DeepEqual(withoutTiming(t, got.body), withoutTiming(t, firstB.body)) {
		t.Fatalf("rebuilt answer differs from the first\n got %s\nwant %s", got.body, firstB.body)
	}
	again, d := measured(t, h, q, b)
	sameAnswer(t, "after the rebuild", again, got)
	if hit, _, _ := index(d); hit != 1 || d["pland_cache_hits_total"] != 1 {
		t.Fatalf("after the rebuild: index hits %g cache hits %g, want 1 and 1", hit, d["pland_cache_hits_total"])
	}
	if _, _, miss := index(deltasOf(t, h, q, a)); miss != 1 {
		t.Fatal("a body the index evicted is not a miss")
	}
}

// deltasOf serves one POST and returns only its counter deltas.
func deltasOf(t *testing.T, h http.Handler, query string, body []byte) map[string]float64 {
	t.Helper()
	_, d := measured(t, h, query, body)
	return d
}

// TestBodyIndexBrownout: on the cheap and cache-only rungs an indexed
// body answers exactly as the decode path does — its full-quality plan
// short-circuits the ladder with no cache hit recorded (the cache-only
// rung counts its own hit) — and a degraded substitute is never indexed.
func TestBodyIndexBrownout(t *testing.T) {
	q := indexConfigs[0]
	warm := workloadBody(t, 91)
	srv, ref := New(Options{}), New(Options{})
	h, refH := srv.Handler(), ref.Handler()
	if a := serve(h, q, warm); a.code != http.StatusOK {
		t.Fatalf("warm: %d %s", a.code, a.body)
	}
	for _, p := range srv.cache.Plans() {
		ref.cache.Install(p)
	}
	for _, level := range []brownoutLevel{brownoutCheap, brownoutCacheOnly} {
		forceBrownout(srv, level)
		forceBrownout(ref, level)
		a, d := measured(t, h, q, warm)
		r, rd := measured(t, refH, q, warm)
		sameAnswer(t, level.String(), a, r)
		if a.header.Get(qualityHeader) != "full" {
			t.Fatalf("%s: indexed answer quality %q, want full", level, a.header.Get(qualityHeader))
		}
		if hit, _, _ := index(d); hit != 1 {
			t.Fatalf("%s: index hits %g, want 1", level, hit)
		}
		sameCounters(t, level.String(), d, rd)
		// The reference has now answered the body once at full quality,
		// so it indexed it too.
	}

	// A degraded answer is never indexed: its repeat decodes again and
	// is served degraded from the cheap plan's cache entry.
	srv2 := New(Options{})
	h2 := srv2.Handler()
	forceBrownout(srv2, brownoutCheap)
	fresh := workloadBody(t, 92)
	if a := serve(h2, q, fresh); a.header.Get(qualityHeader) != "degraded" {
		t.Fatalf("cheap rung: quality %q, want degraded", a.header.Get(qualityHeader))
	}
	a, d := measured(t, h2, q, fresh)
	if a.header.Get(qualityHeader) != "degraded" {
		t.Fatalf("repeat on the cheap rung: quality %q, want degraded", a.header.Get(qualityHeader))
	}
	if hit, _, miss := index(d); hit != 0 || miss != 1 {
		t.Fatalf("repeat of a degraded answer: index hit/miss %g/%g, want 0/1", hit, miss)
	}
}

// TestBodyIndexShedCountsNoHit: an indexed body shed by the admit coin
// or by a full queue is refused exactly as the decode path refuses it,
// without a cache hit.
func TestBodyIndexShedCountsNoHit(t *testing.T) {
	q := indexConfigs[0]
	body := workloadBody(t, 95)

	t.Run("admit coin", func(t *testing.T) {
		srv := New(Options{})
		h := srv.Handler()
		if a := serve(h, q, body); a.code != http.StatusOK {
			t.Fatalf("warm: %d", a.code)
		}
		feedWindow(srv, 0)
		srv.adm.mu.Lock()
		srv.adm.frac = 0 // every coin sheds
		srv.adm.mu.Unlock()
		a, d := measured(t, h, q, body)
		if a.code != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", a.code)
		}
		if hit, _, _ := index(d); hit != 1 || d["pland_cache_hits_total"] != 0 || d[`pland_requests_total{outcome="throttled"}`] != 1 {
			t.Fatalf("index hits %g cache hits %g throttled %g, want 1, 0, 1", hit,
				d["pland_cache_hits_total"], d[`pland_requests_total{outcome="throttled"}`])
		}
	})

	t.Run("full queue", func(t *testing.T) {
		srv := New(Options{MaxInFlight: 1, MaxQueue: -1})
		h := srv.Handler()
		if a := serve(h, q, body); a.code != http.StatusOK {
			t.Fatalf("warm: %d", a.code)
		}
		srv.holdBuild = make(chan struct{})
		held := make(chan served, 1)
		go func() { held <- serve(h, q, body) }()
		deadline := time.Now().Add(5 * time.Second)
		for len(srv.slots) == 0 {
			if time.Now().After(deadline) {
				close(srv.holdBuild)
				t.Fatal("the held request never took the slot")
			}
			time.Sleep(time.Millisecond)
		}
		a, d := measured(t, h, q, body)
		close(srv.holdBuild)
		if a.code != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", a.code)
		}
		if d["pland_cache_hits_total"] != 0 || d[`pland_requests_total{outcome="throttled"}`] != 1 {
			t.Fatalf("cache hits %g throttled %g, want 0 and 1", d["pland_cache_hits_total"],
				d[`pland_requests_total{outcome="throttled"}`])
		}
		if r := <-held; r.code != http.StatusOK {
			t.Fatalf("held request: %d", r.code)
		}
	})
}

// TestBodyIndexRoutes: on a 2-peer fleet a body the proxy has seen is
// routed without a decode to the owner the decode path chose, and the
// owner answers it from its own index.
func TestBodyIndexRoutes(t *testing.T) {
	nodes := newFleet(t, 2, Options{}, client.Options{AttemptTimeout: 10 * time.Second})
	body := seedOwnedBy(t, nodes, "p1")
	proxy, owner := nodes[0], nodes[1]
	q := indexConfigs[0]

	post := func() (*http.Response, []byte) {
		t.Helper()
		resp, raw := postPlan(t, proxy.ts, q, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		return resp, raw
	}
	first, firstRaw := post()
	pb, ob := samples(t, proxy.srv.Handler()), samples(t, owner.srv.Handler())
	again, againRaw := post()
	pd := deltas(pb, samples(t, proxy.srv.Handler()))
	od := deltas(ob, samples(t, owner.srv.Handler()))

	if !bytes.Equal(againRaw, firstRaw) {
		t.Fatalf("routed repeat differs\n got %s\nwant %s", againRaw, firstRaw)
	}
	for _, hd := range []string{"X-Plan-Peer", qualityHeader, "Content-Type", "Content-Length"} {
		if again.Header.Get(hd) != first.Header.Get(hd) {
			t.Fatalf("%s: %q, decode path %q", hd, again.Header.Get(hd), first.Header.Get(hd))
		}
	}
	if first.Header.Get("X-Plan-Peer") != "p1" {
		t.Fatalf("decode path routed to %q, want p1", first.Header.Get("X-Plan-Peer"))
	}
	if hit, _, _ := index(pd); hit != 1 || pd[`pland_routed_total{direction="out"}`] != 1 {
		t.Fatalf("proxy: index hits %g routed out %g, want 1 and 1", hit, pd[`pland_routed_total{direction="out"}`])
	}
	if hit, _, _ := index(od); hit != 1 || od["pland_cache_hits_total"] != 1 || od["pland_builds_total"] != 0 {
		t.Fatalf("owner: index hits %g cache hits %g builds %g, want 1, 1, 0", hit,
			od["pland_cache_hits_total"], od["pland_builds_total"])
	}
	if pd["pland_cache_hits_total"] != 0 || pd["pland_builds_total"] != 0 {
		t.Fatal("the proxy planned a request it routed")
	}
}

// TestIndexedHitAllocs guards the index's saving: a repeated 120-task
// body through Handler() allocates a small fraction of what the decode
// path's cache hit does (about 900 allocations), so an index that
// silently stops hitting fails here, not only in a benchmark.
func TestIndexedHitAllocs(t *testing.T) {
	cfg := gen.Default(3)
	cfg.MinTasks, cfg.MaxTasks = 120, 120
	cfg.Seed = 11
	w := gen.MustGenerate(cfg)
	var body bytes.Buffer
	if err := graphio.WriteWorkload(&body, w.Graph, w.Platform); err != nil {
		t.Fatal(err)
	}
	h := New(Options{}).Handler()
	post := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/plan?"+indexConfigs[0], bytes.NewReader(body.Bytes())))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	post()
	allocs := testing.AllocsPerRun(50, post)
	t.Logf("%.0f allocations per repeated-body POST", allocs)
	if allocs > 100 {
		t.Fatalf("%.0f allocations per repeated-body POST, want at most 100", allocs)
	}
}

// TestBodyIndexConcurrent drives index hits, inserts, evictions and
// stale entries from several goroutines at once on a two-plan cache:
// every answer is its workload's plan, and the index never outgrows the
// cache's capacity.
func TestBodyIndexConcurrent(t *testing.T) {
	srv := New(Options{CacheCapacity: 2})
	h := srv.Handler()
	q := indexConfigs[0]
	const workloads, workers, rounds = 6, 8, 20
	bodies := make([][]byte, workloads)
	want := make([]PlanResponse, workloads)
	for i := range bodies {
		bodies[i] = workloadBody(t, int64(900+i))
		a := serve(h, q, bodies[i])
		if a.code != http.StatusOK {
			t.Fatalf("workload %d: %d %s", i, a.code, a.body)
		}
		want[i] = withoutTiming(t, a.body)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % workloads
				a := serve(h, q, bodies[i])
				var pr PlanResponse
				if err := json.Unmarshal(a.body, &pr); a.code != http.StatusOK || err != nil {
					t.Errorf("workload %d: %d %v", i, a.code, err)
					return
				}
				pr.PlanningMS = 0
				if !reflect.DeepEqual(pr, want[i]) {
					t.Errorf("workload %d: answer is not its plan", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	m := samples(t, h)
	total := m[`pland_body_index_total{outcome="hit"}`] + m[`pland_body_index_total{outcome="stale"}`] +
		m[`pland_body_index_total{outcome="miss"}`]
	if total != workloads+workers*rounds {
		t.Fatalf("index outcomes sum to %g, want %d", total, workloads+workers*rounds)
	}
	for i := range srv.index.shards {
		s := &srv.index.shards[i]
		if len(s.m) > s.cap || len(s.ring) > s.cap {
			t.Fatalf("stripe %d holds %d entries (ring %d) over its capacity %d", i, len(s.m), len(s.ring), s.cap)
		}
	}
}
