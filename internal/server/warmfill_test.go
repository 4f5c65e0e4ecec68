package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/client"
	"repro/internal/graphio"
	"repro/internal/pipeline"
)

// warmNode is one fleet member behind a swappable handler, so a test
// can black out a peer (drop connections) or restart it with a fresh
// Server at the same URL — the two failure shapes the warm-fill
// protocol exists for.
type warmNode struct {
	name string
	srv  *Server
	ts   *httptest.Server
	h    atomic.Value // http.HandlerFunc
}

func (n *warmNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n.h.Load().(http.HandlerFunc).ServeHTTP(w, r)
}

// boot replaces the node's Server with a fresh one (a cold restart at
// the same address) wired onto the given ring.
func (n *warmNode) boot(ring *cluster.Ring, sopt Options, copt client.Options) {
	srv := New(sopt)
	srv.opt.Router = &Router{Ring: ring, Client: client.New(ring, copt), Self: n.name}
	n.srv = srv
	n.h.Store(http.HandlerFunc(srv.Handler().ServeHTTP))
}

// blackout makes the node drop every connection, like a killed or
// partitioned process; restore undoes it without losing cache state.
func (n *warmNode) blackout() {
	n.h.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
}

func (n *warmNode) restore() {
	n.h.Store(http.HandlerFunc(n.srv.Handler().ServeHTTP))
}

// newWarmFleet boots n warmNodes on one ring.
func newWarmFleet(t *testing.T, n int, sopt Options, copt client.Options) ([]*warmNode, *cluster.Ring) {
	t.Helper()
	nodes := make([]*warmNode, n)
	specs := make([]string, n)
	for i := range nodes {
		nodes[i] = &warmNode{name: fmt.Sprintf("p%d", i)}
		nodes[i].ts = httptest.NewServer(nodes[i])
		t.Cleanup(nodes[i].ts.Close)
		specs[i] = fmt.Sprintf("p%d=%s", i, nodes[i].ts.URL)
	}
	peers, err := cluster.ParsePeers(joinComma(specs))
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.NewRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	for i := range nodes {
		nodes[i].boot(ring, sopt, copt)
	}
	return nodes, ring
}

// warmCopt is the client tuning warm-fill tests share: fail fast, no
// hedging, breakers out of the way.
func warmCopt() client.Options {
	return client.Options{
		AttemptTimeout:   2 * time.Second,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       2 * time.Millisecond,
		BreakerThreshold: 100,
	}
}

// byName returns the named warmNode.
func byName(t *testing.T, nodes []*warmNode, name string) *warmNode {
	t.Helper()
	for _, n := range nodes {
		if n.name == name {
			return n
		}
	}
	t.Fatalf("no node named %s", name)
	return nil
}

// warmSeed finds a workload (seed in [100,200)) whose ring order starts
// with the wanted owner, returning the body and its cache key.
func warmSeed(t *testing.T, ring *cluster.Ring, srv *Server, owner string) ([]byte, pipeline.Key) {
	t.Helper()
	for seed := int64(100); seed < 200; seed++ {
		body := workloadBody(t, seed)
		g, p, err := graphio.ReadWorkload(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		fp := pipeline.Fingerprint(g, p)
		if ring.Order(fp)[0].Name != owner {
			continue
		}
		// The cache key for the default /plan query, recovered by
		// building once on a throwaway server.
		scratch := New(Options{})
		sts := httptest.NewServer(scratch.Handler())
		if resp, raw := postPlan(t, sts, "", body); resp.StatusCode != http.StatusOK {
			sts.Close()
			t.Fatalf("scratch build: %d %s", resp.StatusCode, raw)
		}
		sts.Close()
		keys := scratch.cache.Keys()
		if len(keys) != 1 {
			t.Fatalf("scratch cache holds %d keys, want 1", len(keys))
		}
		return body, keys[0]
	}
	t.Fatalf("no seed in [100,200) owned by %s", owner)
	return nil, pipeline.Key{}
}

// TestCacheDigestFillEndpoints pins the wire protocol on one node: the
// digest enumerates resident keys, GET /cache/fill serves a plan whose
// bytes decode and verify, POST installs one, and the integrity check
// refuses tampered payloads.
func TestCacheDigestFillEndpoints(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := workloadBody(t, 60)
	if resp, raw := postPlan(t, ts, "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: %d %s", resp.StatusCode, raw)
	}

	var dig digestResponse
	if err := json.Unmarshal([]byte(getText(t, ts.URL+"/cache/digest")), &dig); err != nil {
		t.Fatal(err)
	}
	if len(dig.Keys) != 1 {
		t.Fatalf("digest lists %d keys, want 1", len(dig.Keys))
	}
	key, err := pipeline.DecodeKeyParam(dig.Keys[0])
	if err != nil {
		t.Fatalf("digest token: %v", err)
	}
	if !srv.cache.Contains(key) {
		t.Fatal("digest token decodes to a key the cache does not hold")
	}

	resp, err := http.Get(ts.URL + "/cache/fill?key=" + dig.Keys[0])
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fill: %d %s", resp.StatusCode, raw)
	}
	var pj pipeline.PlanJSON
	if err := json.Unmarshal(raw, &pj); err != nil {
		t.Fatal(err)
	}
	plan, err := pipeline.DecodePlan(pj)
	if err != nil {
		t.Fatalf("served plan fails its own integrity check: %v", err)
	}
	if plan.Key != key {
		t.Fatal("served plan carries a different key than requested")
	}

	// A key the cache never held is a 404 miss, not an error.
	missing := key
	missing.Workload++
	resp, err = http.Get(ts.URL + "/cache/fill?key=" + pipeline.EncodeKeyParam(missing))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fill of absent key: %d, want 404", resp.StatusCode)
	}
	if got := metricValue(t, scrape(t, ts), `pland_warmfill_fill_total{outcome="miss"}`); got != 1 {
		t.Fatalf("fill miss metric %g, want 1", got)
	}

	// POST installs the plan into a second, cold node; the same
	// workload then serves from cache without a build.
	other := New(Options{})
	ots := httptest.NewServer(other.Handler())
	defer ots.Close()
	resp, err = http.Post(ots.URL+"/cache/fill", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("fill install: %d, want 204", resp.StatusCode)
	}
	if !other.cache.Contains(key) {
		t.Fatal("installed plan not resident")
	}
	if resp, raw := postPlan(t, ots, "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm serve: %d %s", resp.StatusCode, raw)
	}
	text := scrape(t, ots)
	if got := metricValue(t, text, "pland_builds_total"); got != 0 {
		t.Fatalf("warm node built %g times, want 0", got)
	}
	if got := metricValue(t, text, "pland_cache_hits_total"); got != 1 {
		t.Fatalf("warm node hits %g, want 1", got)
	}
	if got := metricValue(t, text, `pland_warmfill_fill_total{outcome="accepted"}`); got != 1 {
		t.Fatalf("fill accepted metric %g, want 1", got)
	}

	// Tampered estimates flip the content hash: the install is refused
	// and nothing enters the cache.
	pj.Estimates[0]++
	tampered, err := json.Marshal(pj)
	if err != nil {
		t.Fatal(err)
	}
	before := other.cache.Len()
	resp, err = http.Post(ots.URL+"/cache/fill", "application/json", bytes.NewReader(tampered))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("tampered fill: %d, want 422", resp.StatusCode)
	}
	if other.cache.Len() != before {
		t.Fatal("tampered plan entered the cache")
	}

	// Garbage key params and wrong methods are rejected cleanly.
	resp, err = http.Get(ts.URL + "/cache/fill?key=%21%21not-base64")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad key param: %d, want 422", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/cache/fill", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /cache/fill: %d, want 405", resp.StatusCode)
	}
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, raw)
	}
	return string(raw)
}

// TestWarmFillStandbyReplication: a warm-fill round copies each plan
// onto its rank-1 standby (and only there), so when the owner blacks
// out the re-routed requests hit a warm cache instead of rebuilding —
// the mechanism that removes blackout rebuilds from the chaos drill.
func TestWarmFillStandbyReplication(t *testing.T) {
	nodes, ring := newWarmFleet(t, 3, Options{}, warmCopt())
	body, key := warmSeed(t, ring, nodes[0].srv, "p0")
	order := ring.Order(key.Workload)
	owner := byName(t, nodes, order[0].Name)
	standby := byName(t, nodes, order[1].Name)
	last := byName(t, nodes, order[2].Name)

	if resp, raw := postPlan(t, owner.ts, "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("owner build: %d %s", resp.StatusCode, raw)
	}

	if n := standby.srv.WarmFillOnce(context.Background()); n != 1 {
		t.Fatalf("standby pulled %d plans, want 1", n)
	}
	if !standby.srv.cache.Contains(key) {
		t.Fatal("standby does not hold the replicated plan")
	}
	if got := metricValue(t, scrape(t, standby.ts), "pland_warmfill_pulled_total"); got != 1 {
		t.Fatalf("standby pulled metric %g, want 1", got)
	}
	// Rank 2 is outside the replication factor: it pulls nothing.
	if n := last.srv.WarmFillOnce(context.Background()); n != 0 {
		t.Fatalf("rank-2 peer pulled %d plans, want 0", n)
	}
	if last.srv.cache.Contains(key) {
		t.Fatal("rank-2 peer replicated a plan it should not hold")
	}

	// Blackout: the owner drops connections and is marked down. The
	// standby now serves the key from its pre-positioned copy — zero
	// new builds anywhere.
	owner.blackout()
	ring.ByName(owner.name).MarkDown()
	if resp, raw := postPlan(t, standby.ts, "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("blackout serve: %d %s", resp.StatusCode, raw)
	}
	text := scrape(t, standby.ts)
	if got := metricValue(t, text, "pland_builds_total"); got != 0 {
		t.Fatalf("standby rebuilt %g times during the blackout, want 0", got)
	}
	if got := metricValue(t, text, "pland_cache_hits_total"); got < 1 {
		t.Fatalf("standby hits %g, want >= 1", got)
	}
}

// TestWarmFillRestartRefill: a peer that restarts cold (empty cache)
// refills the keys it owns from its neighbors' digests before traffic
// needs them — the crash-recovery path when the snapshot is gone too.
func TestWarmFillRestartRefill(t *testing.T) {
	nodes, ring := newWarmFleet(t, 2, Options{}, warmCopt())
	body, key := warmSeed(t, ring, nodes[0].srv, "p0")
	owner := byName(t, nodes, "p0")
	peer := byName(t, nodes, "p1")

	if resp, raw := postPlan(t, owner.ts, "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("owner build: %d %s", resp.StatusCode, raw)
	}
	// The standby replicates first (in a 2-ring, p1 is rank 1).
	if n := peer.srv.WarmFillOnce(context.Background()); n != 1 {
		t.Fatalf("standby pulled %d, want 1", n)
	}

	// kill -9 + restart: a fresh Server at the same URL, cache empty.
	owner.boot(ring, Options{}, warmCopt())
	if owner.srv.cache.Contains(key) {
		t.Fatal("restarted owner is not cold")
	}
	if n := owner.srv.WarmFillOnce(context.Background()); n != 1 {
		t.Fatalf("restarted owner pulled %d plans, want 1", n)
	}
	if !owner.srv.cache.Contains(key) {
		t.Fatal("restarted owner did not refill its owned key")
	}
	if resp, raw := postPlan(t, owner.ts, "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart serve: %d %s", resp.StatusCode, raw)
	}
	text := scrape(t, owner.ts)
	if got := metricValue(t, text, "pland_builds_total"); got != 0 {
		t.Fatalf("restarted owner rebuilt %g times, want 0", got)
	}
}

// TestReadThroughFallback models the blackout hedge race: the owner
// goes dark without ever probing down (chaos leaves /healthz exempt),
// and a hedged request lands on the rank-2 peer — outside the
// replication set, so its cache is cold. The pre-build read-through
// must fetch the plan from the warm standby instead of rebuilding, and
// the per-workload cooldown must keep later sweeps from re-paying
// digest round-trips.
func TestReadThroughFallback(t *testing.T) {
	nodes, ring := newWarmFleet(t, 3, Options{}, warmCopt())
	body, key := warmSeed(t, ring, nodes[0].srv, "p0")
	order := ring.Order(key.Workload)
	owner := byName(t, nodes, order[0].Name)
	standby := byName(t, nodes, order[1].Name)
	last := byName(t, nodes, order[2].Name)

	if resp, raw := postPlan(t, owner.ts, "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("owner build: %d %s", resp.StatusCode, raw)
	}
	if n := standby.srv.WarmFillOnce(context.Background()); n != 1 {
		t.Fatalf("standby pulled %d plans, want 1", n)
	}

	// The owner drops every connection but its alive bit never flips —
	// exactly what the chaos blackout looks like to the prober.
	owner.blackout()

	post := func() {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, last.ts.URL+"/plan", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(routedHeader, "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("hedged serve on rank-2 peer: %d", resp.StatusCode)
		}
	}
	post()

	text := scrape(t, last.ts)
	if got := metricValue(t, text, "pland_builds_total"); got != 0 {
		t.Fatalf("rank-2 peer cold-built %g times, want 0 (read-through)", got)
	}
	if got := metricValue(t, text, "pland_cache_hits_total"); got != 1 {
		t.Fatalf("rank-2 peer hits %g, want 1", got)
	}
	if got := metricValue(t, text, "pland_warmfill_readthrough_total"); got != 1 {
		t.Fatalf("read-through sweeps %g, want 1", got)
	}
	if got := metricValue(t, text, "pland_warmfill_pulled_total"); got != 1 {
		t.Fatalf("read-through pulled %g plans, want 1", got)
	}
	// The dark owner's digest fetch failed and was counted.
	if got := metricValue(t, text, "pland_warmfill_errors_total"); got < 1 {
		t.Fatalf("warm-fill errors %g, want >= 1 (owner digest)", got)
	}
	if !last.srv.cache.Contains(key) {
		t.Fatal("rank-2 peer did not install the fetched plan")
	}

	// A second request inside the cooldown window is a plain hit: no new
	// sweep fires.
	post()
	text = scrape(t, last.ts)
	if got := metricValue(t, text, "pland_warmfill_readthrough_total"); got != 1 {
		t.Fatalf("read-through sweeps %g after warm hit, want still 1", got)
	}
	if got := metricValue(t, text, "pland_cache_hits_total"); got != 2 {
		t.Fatalf("rank-2 peer hits %g, want 2", got)
	}
}

// TestPullCountsMalformedDigestToken: a digest token that does not
// decode is a peer fault, counted in pland_warmfill_errors_total by the
// warm-fill round and by a read-through sweep alike.
func TestPullCountsMalformedDigestToken(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, digestResponse{Peer: "p1", Keys: []string{"not a key token"}})
	}))
	defer bad.Close()
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	peers, err := cluster.ParsePeers("p0=" + ts.URL + ",p1=" + bad.URL)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.NewRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	srv.opt.Router = &Router{Ring: ring, Client: client.New(ring, warmCopt()), Self: "p0"}

	if n := srv.WarmFillOnce(context.Background()); n != 0 {
		t.Fatalf("warm fill pulled %d plans from a bad digest", n)
	}
	if got := metricValue(t, scrape(t, ts), "pland_warmfill_errors_total"); got != 1 {
		t.Fatalf("errors after the warm-fill round = %g, want 1", got)
	}
	if n := srv.warmReadThrough(context.Background(), 42); n != 0 {
		t.Fatalf("read-through pulled %d plans from a bad digest", n)
	}
	if got := metricValue(t, scrape(t, ts), "pland_warmfill_errors_total"); got != 2 {
		t.Fatalf("errors after the read-through sweep = %g, want 2", got)
	}
}

// TestHintedHandoff: a peer that served a key for an unreachable owner
// records a hint and pushes the plan back on the owner's rise verdict;
// hints are deduplicated and drained exactly once.
func TestHintedHandoff(t *testing.T) {
	nodes, ring := newWarmFleet(t, 2, Options{}, warmCopt())
	body, key := warmSeed(t, ring, nodes[0].srv, "p0")
	owner := byName(t, nodes, "p0")
	fallback := byName(t, nodes, "p1")

	owner.blackout()
	ring.ByName("p0").MarkDown()

	// Two identical requests against the fallback: it plans locally
	// (the owner is routed around) and records exactly one hint.
	for i := 0; i < 2; i++ {
		if resp, raw := postPlan(t, fallback.ts, "", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("fallback serve %d: %d %s", i, resp.StatusCode, raw)
		}
	}
	text := scrape(t, fallback.ts)
	if got := metricValue(t, text, "pland_warmfill_hints_total"); got != 1 {
		t.Fatalf("hints recorded %g, want 1 (deduplicated)", got)
	}
	if got := metricValue(t, text, "pland_warmfill_pending_hints"); got != 1 {
		t.Fatalf("pending hints %g, want 1", got)
	}

	// The owner rises; NoteRisen drains the hint asynchronously and the
	// plan lands in the owner's cache without the owner building it.
	owner.restore()
	ring.ByName("p0").MarkUp()
	fallback.srv.NoteRisen("p0")
	// Wait for the pusher's own counter, not just the owner-side
	// install: the install completes before PushFill returns to the
	// fallback, so polling the cache alone races the counter bump.
	deadline := time.Now().Add(5 * time.Second)
	for !owner.srv.cache.Contains(key) || fallback.srv.warmPushed.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("handoff never reached the risen owner")
		}
		time.Sleep(5 * time.Millisecond)
	}
	text = scrape(t, fallback.ts)
	if got := metricValue(t, text, "pland_warmfill_pushed_total"); got != 1 {
		t.Fatalf("pushed %g, want 1", got)
	}
	if got := metricValue(t, text, "pland_warmfill_pending_hints"); got != 0 {
		t.Fatalf("pending hints %g after drain, want 0", got)
	}
	otext := scrape(t, owner.ts)
	if got := metricValue(t, otext, `pland_warmfill_fill_total{outcome="accepted"}`); got != 1 {
		t.Fatalf("owner accepted %g fills, want 1", got)
	}
	if got := metricValue(t, otext, "pland_builds_total"); got != 0 {
		t.Fatalf("owner built %g times, want 0 (the handoff carried the plan)", got)
	}
	// The owner now serves its key warm.
	if resp, raw := postPlan(t, owner.ts, "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("owner warm serve: %d %s", resp.StatusCode, raw)
	}
	if got := metricValue(t, scrape(t, owner.ts), "pland_cache_hits_total"); got < 1 {
		t.Fatalf("owner hits %g, want >= 1", got)
	}
}

// TestHintedHandoffPeriodicDrain covers the blackout-without-death
// case: the owner never probes down (its /healthz stays exempt), so no
// rise verdict ever fires — the periodic warm-fill round is what
// delivers the hint.
func TestHintedHandoffPeriodicDrain(t *testing.T) {
	nodes, ring := newWarmFleet(t, 2, Options{}, warmCopt())
	body, key := warmSeed(t, ring, nodes[0].srv, "p0")
	owner := byName(t, nodes, "p0")
	fallback := byName(t, nodes, "p1")

	// The request reaches the fallback pre-routed (as a hedge or retry
	// would deliver it); the fallback plans and hints without the
	// owner's alive bit ever flipping.
	req, err := http.NewRequest(http.MethodPost, fallback.ts.URL+"/plan", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(routedHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed fallback serve: %d", resp.StatusCode)
	}
	if got := metricValue(t, scrape(t, fallback.ts), "pland_warmfill_pending_hints"); got != 1 {
		t.Fatalf("pending hints %g, want 1", got)
	}

	fallback.srv.WarmFillOnce(context.Background())
	if !owner.srv.cache.Contains(key) {
		t.Fatal("periodic round did not deliver the hinted plan")
	}
	if got := metricValue(t, scrape(t, fallback.ts), "pland_warmfill_pending_hints"); got != 0 {
		t.Fatalf("pending hints %g after the round, want 0", got)
	}
}

// TestRingMembershipChange covers reshuffles: adding a peer keeps
// ownership a partition (exactly one owner and one standby per key),
// requests posted through nodes holding old and new ring views land on
// exactly one cached plan fleet-wide, and warm-fill rounds converge
// the digests so the new owner holds its keys.
func TestRingMembershipChange(t *testing.T) {
	// Four swappable nodes; the initial ring covers only the first
	// three (p3 is the peer about to join).
	nodes := make([]*warmNode, 4)
	specs := make([]string, 4)
	for i := range nodes {
		nodes[i] = &warmNode{name: fmt.Sprintf("p%d", i)}
		nodes[i].ts = httptest.NewServer(nodes[i])
		defer nodes[i].ts.Close()
		specs[i] = fmt.Sprintf("p%d=%s", i, nodes[i].ts.URL)
	}
	oldPeers, err := cluster.ParsePeers(joinComma(specs[:3]))
	if err != nil {
		t.Fatal(err)
	}
	oldRing, err := cluster.NewRing(oldPeers)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes[:3] {
		n.boot(oldRing, Options{}, warmCopt())
	}
	nodes[3].boot(oldRing, Options{}, warmCopt()) // placeholder until it joins

	// A key whose ownership moves with the reshuffle, so convergence is
	// actually exercised.
	newPeers, err := cluster.ParsePeers(joinComma(specs))
	if err != nil {
		t.Fatal(err)
	}
	newRing, err := cluster.NewRing(newPeers)
	if err != nil {
		t.Fatal(err)
	}
	var body []byte
	var key pipeline.Key
	for seed := int64(100); seed < 300; seed++ {
		b, k := func() ([]byte, pipeline.Key) {
			scratch := New(Options{})
			sts := httptest.NewServer(scratch.Handler())
			defer sts.Close()
			wb := workloadBody(t, seed)
			if resp, raw := postPlan(t, sts, "", wb); resp.StatusCode != http.StatusOK {
				t.Fatalf("scratch build: %d %s", resp.StatusCode, raw)
			}
			return wb, scratch.cache.Keys()[0]
		}()
		if oldRing.Owner(k.Workload).Name != newRing.Owner(k.Workload).Name {
			body, key = b, k
			break
		}
	}
	if body == nil {
		t.Fatal("no seed in [100,300) changes owner across the reshuffle")
	}
	oldOwner := byName(t, nodes, oldRing.Owner(key.Workload).Name)
	newOwner := byName(t, nodes, newRing.Owner(key.Workload).Name)

	// Build once on the old ring.
	if resp, raw := postPlan(t, oldOwner.ts, "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("old-ring build: %d %s", resp.StatusCode, raw)
	}

	// Rolling reconfiguration: re-ring every node onto the new view
	// without touching its cache (only the router is swapped, as a
	// -peers change with the same process would).
	for _, n := range nodes {
		n.srv.opt.Router = &Router{
			Ring:   newRing,
			Client: client.New(newRing, warmCopt()),
			Self:   n.name,
		}
	}

	// Ownership stays a partition after the reshuffle: every key has
	// exactly one rank-0 and one rank-1 node.
	for i := 0; i < 50; i++ {
		k := uint64(i) * 0x9e3779b97f4a7c15
		owners, standbys := 0, 0
		for _, n := range nodes {
			switch n.srv.replicaRank(k) {
			case 0:
				owners++
			case 1:
				standbys++
			}
		}
		if owners != 1 || standbys != 1 {
			t.Fatalf("key %d has %d owners and %d standbys, want exactly 1 each", i, owners, standbys)
		}
	}

	// Warm-fill rounds converge the reshuffled digests: the new owner
	// (and its standby) pull the plan from whoever held it.
	for round := 0; round < 2; round++ {
		for _, n := range nodes {
			n.srv.WarmFillOnce(context.Background())
		}
	}
	if !newOwner.srv.cache.Contains(key) {
		t.Fatal("new owner never converged onto its key")
	}

	// Requests through any node — including the joiner — are served
	// from the replicated plan: fleet-wide builds stay at exactly 1.
	for _, n := range nodes {
		if resp, raw := postPlan(t, n.ts, "", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s post-reshuffle serve: %d %s", n.name, resp.StatusCode, raw)
		}
	}
	var builds float64
	for _, n := range nodes {
		builds += metricValue(t, scrape(t, n.ts), "pland_builds_total")
	}
	if builds != 1 {
		t.Fatalf("fleet-wide builds = %g after the reshuffle, want exactly 1", builds)
	}
}

// TestSnapshotEndpointsDraining: a draining node answers its warm-fill
// endpoints with 503, so a joining peer cannot pull from (or push to) a
// cache that is about to disappear.
func TestSnapshotEndpointsDraining(t *testing.T) {
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Drain()
	for _, url := range []string{ts.URL + "/cache/digest", ts.URL + "/cache/fill?key=x"} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("GET %s while draining: %d, want 503", url, resp.StatusCode)
		}
	}
}

// TestServerSnapshotRoundTrip: SaveSnapshot/LoadSnapshot restore the
// hot set into a fresh server, which then serves without building.
func TestServerSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/cache.snap"
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	body := workloadBody(t, 61)
	if resp, raw := postPlan(t, ts, "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("build: %d %s", resp.StatusCode, raw)
	}
	if n, err := srv.SaveSnapshot(path); err != nil || n != 1 {
		t.Fatalf("save: n=%d err=%v", n, err)
	}
	ts.Close()

	restarted := New(Options{})
	if n, err := restarted.LoadSnapshot(path); err != nil || n != 1 {
		t.Fatalf("load: n=%d err=%v", n, err)
	}
	rts := httptest.NewServer(restarted.Handler())
	defer rts.Close()
	if resp, raw := postPlan(t, rts, "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("restored serve: %d %s", resp.StatusCode, raw)
	}
	text := scrape(t, rts)
	if got := metricValue(t, text, "pland_builds_total"); got != 0 {
		t.Fatalf("restored server built %g times, want 0", got)
	}
	if got := metricValue(t, text, "pland_snapshot_loaded_plans_total"); got != 1 {
		t.Fatalf("loaded plans metric %g, want 1", got)
	}
	// A missing snapshot is a cold start, not an error.
	if n, err := New(Options{}).LoadSnapshot(dir + "/absent.snap"); err != nil || n != 0 {
		t.Fatalf("missing snapshot: n=%d err=%v", n, err)
	}
}

// TestReadThroughCooldownExpiry: one read-through sweep per fingerprint
// per cooldown window — a repeat miss inside the window is absorbed
// without any peer traffic, and once the entry ages out the next miss
// sweeps and refetches.
func TestReadThroughCooldownExpiry(t *testing.T) {
	nodes, ring := newWarmFleet(t, 2, Options{}, warmCopt())
	body, key := warmSeed(t, ring, nodes[0].srv, "p0")
	owner := byName(t, nodes, "p0")
	puller := byName(t, nodes, "p1")
	if resp, raw := postPlan(t, owner.ts, "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("owner build: %d %s", resp.StatusCode, raw)
	}

	ctx := context.Background()
	if n := puller.srv.warmReadThrough(ctx, key.Workload); n != 1 {
		t.Fatalf("first sweep pulled %d plans, want 1", n)
	}
	if got := puller.srv.warmReads.Load(); got != 1 {
		t.Fatalf("sweeps = %d, want 1", got)
	}

	// A miss inside the window stays local even when the plan is gone.
	puller.srv.cache.Purge()
	if n := puller.srv.warmReadThrough(ctx, key.Workload); n != 0 {
		t.Fatalf("in-window sweep pulled %d plans, want 0", n)
	}
	if got := puller.srv.warmReads.Load(); got != 1 {
		t.Fatalf("sweeps = %d after in-window miss, want still 1", got)
	}

	// Age the entry past the cooldown: the next miss sweeps again and
	// reinstalls the plan.
	puller.srv.readMu.Lock()
	puller.srv.readLast[key.Workload] = time.Now().Add(-2 * readThroughCooldown)
	puller.srv.readMu.Unlock()
	if n := puller.srv.warmReadThrough(ctx, key.Workload); n != 1 {
		t.Fatalf("post-expiry sweep pulled %d plans, want 1", n)
	}
	if got := puller.srv.warmReads.Load(); got != 2 {
		t.Fatalf("sweeps = %d after expiry, want 2", got)
	}
	if !puller.srv.cache.Contains(key) {
		t.Fatal("plan not reinstalled after the post-expiry sweep")
	}
}

// TestReadThroughCooldownConcurrent: simultaneous misses on one
// fingerprint collapse to exactly one sweep — the first caller stamps
// the cooldown entry under the lock before sweeping, so the rest see a
// fresh entry and return without touching any peer.
func TestReadThroughCooldownConcurrent(t *testing.T) {
	nodes, ring := newWarmFleet(t, 2, Options{}, warmCopt())
	body, key := warmSeed(t, ring, nodes[0].srv, "p0")
	owner := byName(t, nodes, "p0")
	puller := byName(t, nodes, "p1")
	if resp, raw := postPlan(t, owner.ts, "", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("owner build: %d %s", resp.StatusCode, raw)
	}

	const callers = 16
	var (
		wg     sync.WaitGroup
		pulled atomic.Int64
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pulled.Add(int64(puller.srv.warmReadThrough(context.Background(), key.Workload)))
		}()
	}
	wg.Wait()
	if got := pulled.Load(); got != 1 {
		t.Fatalf("concurrent sweeps pulled %d plans total, want 1", got)
	}
	if got := puller.srv.warmReads.Load(); got != 1 {
		t.Fatalf("sweeps = %d for %d concurrent misses, want 1", puller.srv.warmReads.Load(), callers)
	}
	if !puller.srv.cache.Contains(key) {
		t.Fatal("winning sweep did not install the plan")
	}
}
