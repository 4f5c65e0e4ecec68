package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/client"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/pipeline"
)

// TestCriticalityHeader pins the header's accept/reject surface.
func TestCriticalityHeader(t *testing.T) {
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()
	body := workloadBody(t, 20)

	post := func(crit string) int {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/plan", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if crit != "" {
			req.Header.Set(criticalityHeader, crit)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, ok := range []string{"", "mandatory", "optional", "  Optional "} {
		if got := post(ok); got != http.StatusOK {
			t.Errorf("criticality %q: status %d, want 200", ok, got)
		}
	}
	if got := post("best-effort"); got != http.StatusUnprocessableEntity {
		t.Errorf("bad criticality: status %d, want 422", got)
	}
}

// TestShedHysteresis drives the criticality rung end to end: an
// admission window whose worst queue delay is over target sheds
// Optional requests while Mandatory ones keep their queue seats,
// /metrics reports the engaged rung, and after a window at or below
// half the target the optional tier is re-admitted.
func TestShedHysteresis(t *testing.T) {
	srv := New(Options{MaxInFlight: 1})
	srv.holdBuild = make(chan struct{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// LIFO: a failed check must still release the held requests before
	// ts.Close waits on their handlers.
	release := sync.OnceFunc(func() { close(srv.holdBuild) })
	defer release()
	body := workloadBody(t, 21)

	done := make(chan error, 2)
	post := func(crit string) {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/plan", bytes.NewReader(body))
		if crit != "" {
			req.Header.Set(criticalityHeader, crit)
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		done <- err
	}
	postOptional := func() *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/plan", bytes.NewReader(body))
		req.Header.Set(criticalityHeader, "optional")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	// One request holds the slot.
	go post("")
	deadline := time.Now().Add(5 * time.Second)
	for len(srv.slots) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the first request never took the planning slot")
		}
		time.Sleep(time.Millisecond)
	}

	// An over-target window (below the cheap brownout rung) engages the
	// rung: Optional work is shed up front with the pressure-derived
	// hint.
	feedWindow(srv, srv.opt.AdmitTarget*3/2)
	resp := postOptional()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("optional under pressure: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 429 without Retry-After")
	}
	text := scrape(t, ts)
	if got := metricValue(t, text, "pland_shedding"); got != 1 {
		t.Fatalf("pland_shedding = %g, want 1", got)
	}
	if got := metricValue(t, text, "pland_shed_engaged_total"); got != 1 {
		t.Fatalf("pland_shed_engaged_total = %g, want 1", got)
	}
	if got := metricValue(t, text, `pland_shed_total{criticality="optional"}`); got != 1 {
		t.Fatalf("optional shed = %g, want 1", got)
	}

	// Mandatory work still gets a queue seat while shedding.
	go post("mandatory")
	waitGauge(t, ts, "pland_queue_depth", 1)

	// A window at or below half the target releases the rung; once the
	// held requests finish, the optional tier is admitted again.
	feedWindow(srv, srv.opt.AdmitTarget/2)
	release()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("held request %d failed: %v", i, err)
		}
	}
	if resp := postOptional(); resp.StatusCode != http.StatusOK {
		t.Fatalf("optional after release: status %d, want 200", resp.StatusCode)
	}
	text = scrape(t, ts)
	if got := metricValue(t, text, "pland_shedding"); got != 0 {
		t.Fatalf("pland_shedding = %g after release, want 0", got)
	}
	if got := metricValue(t, text, "pland_shed_engaged_total"); got != 1 {
		t.Fatalf("pland_shed_engaged_total = %g after release, want 1", got)
	}
}

// TestRetryAfterJittered pins satellite behavior: the 429 hint scales
// with queue pressure and is jittered, never the constant base. With
// the 1s base and a full queue the hint is 1s × 3 × [0.75, 1.25) →
// 3..4 whole seconds, distinct from the un-scaled constant 1.
func TestRetryAfterJittered(t *testing.T) {
	srv := New(Options{MaxInFlight: 1, MaxQueue: 1})
	srv.holdBuild = make(chan struct{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// LIFO: the held builds must be released before ts.Close waits on
	// their handlers.
	defer close(srv.holdBuild)
	body := workloadBody(t, 22)

	go http.Post(ts.URL+"/plan", "application/json", bytes.NewReader(body))
	go http.Post(ts.URL+"/plan", "application/json", bytes.NewReader(body))
	waitGauge(t, ts, "pland_queue_depth", 1)

	for i := 0; i < 5; i++ {
		resp, raw := postPlan(t, ts, "", body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, raw)
		}
		secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil {
			t.Fatalf("Retry-After %q: %v", resp.Header.Get("Retry-After"), err)
		}
		if secs < 3 || secs > 4 {
			t.Fatalf("Retry-After %ds outside the pressure-scaled jitter window [3, 4]", secs)
		}
	}
	if got := metricValue(t, scrape(t, ts), `pland_shed_total{criticality="mandatory"}`); got != 5 {
		t.Fatalf("mandatory shed = %g, want 5", got)
	}
}

// fleetNode is one pland process stand-in: a Server plus its listener.
type fleetNode struct {
	srv *Server
	ts  *httptest.Server
}

// newFleet boots n Servers, rings them together, and gives each a
// Router with the supplied client options.
func newFleet(t *testing.T, n int, sopt Options, copt client.Options) []fleetNode {
	t.Helper()
	nodes := make([]fleetNode, n)
	specs := make([]string, n)
	for i := range nodes {
		srv := New(sopt)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		nodes[i] = fleetNode{srv: srv, ts: ts}
		specs[i] = fmt.Sprintf("p%d=%s", i, ts.URL)
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
		nodes[i].srv.opt.Router = &Router{
			Ring:   ring,
			Client: client.New(ring, copt),
			Self:   fmt.Sprintf("p%d", i),
		}
	}
	return nodes
}

func joinComma(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}

// keyOwner computes which fleet peer owns a workload seed's fingerprint.
func keyOwner(t *testing.T, nodes []fleetNode, seed int64) (string, []byte) {
	t.Helper()
	cfg := gen.Default(3)
	cfg.Seed = seed
	w := gen.MustGenerate(cfg)
	var buf bytes.Buffer
	if err := graphio.WriteWorkload(&buf, w.Graph, w.Platform); err != nil {
		t.Fatal(err)
	}
	key := pipeline.Fingerprint(w.Graph, w.Platform)
	return nodes[0].srv.opt.Router.Ring.Owner(key).Name, buf.Bytes()
}

// seedOwnedBy searches generator seeds until the workload's fingerprint
// is owned by the wanted peer.
func seedOwnedBy(t *testing.T, nodes []fleetNode, want string) []byte {
	t.Helper()
	for seed := int64(100); seed < 200; seed++ {
		owner, body := keyOwner(t, nodes, seed)
		if owner == want {
			return body
		}
	}
	t.Fatalf("no seed in [100,200) owned by %s", want)
	return nil
}

// TestFleetRoutingExactlyOneBuild is the fleet-wide coalescing
// contract: clients hammering every node with the identical workload
// cause exactly one cold build across the whole fleet, because every
// node routes the fingerprint to its ring owner and the owner's
// singleflight coalesces.
func TestFleetRoutingExactlyOneBuild(t *testing.T) {
	nodes := newFleet(t, 3, Options{}, client.Options{AttemptTimeout: 10 * time.Second})
	body := seedOwnedBy(t, nodes, "p0")

	const perNode = 4
	var wg sync.WaitGroup
	errs := make(chan error, perNode*len(nodes))
	for _, n := range nodes {
		for i := 0; i < perNode; i++ {
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				resp, err := http.Post(url+"/plan", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, raw)
				}
			}(n.ts.URL)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var builds, routedIn float64
	for i, n := range nodes {
		text := scrape(t, n.ts)
		builds += metricValue(t, text, "pland_builds_total")
		routedIn += metricValue(t, text, `pland_routed_total{direction="in"}`)
		if i > 0 {
			if out := metricValue(t, text, `pland_routed_total{direction="out"}`); out != perNode {
				t.Errorf("p%d routed out %g requests, want %d", i, out, perNode)
			}
		}
	}
	if builds != 1 {
		t.Fatalf("fleet-wide cold builds = %g, want exactly 1", builds)
	}
	if routedIn != 2*perNode {
		t.Fatalf("routed-in total = %g, want %d", routedIn, 2*perNode)
	}
	// Fleet mode surfaces the client and breaker state in /metrics.
	text := scrape(t, nodes[1].ts)
	if got := metricValue(t, text, `pland_peer_breaker_state{peer="p0"}`); got != 0 {
		t.Fatalf("p0 breaker state %g, want 0 (closed)", got)
	}
	if got := metricValue(t, text, "pland_client_attempts_total"); got < perNode {
		t.Fatalf("client attempts %g, want >= %d", got, perNode)
	}
}

// TestFleetFallbackPlansLocally: when the owning peer is unreachable
// and the proxy exhausts its attempts, the receiving node plans the
// request itself rather than failing it.
func TestFleetFallbackPlansLocally(t *testing.T) {
	nodes := newFleet(t, 3, Options{}, client.Options{
		AttemptTimeout: time.Second,
		MaxAttempts:    1, // the single attempt goes to the dead owner
		BaseBackoff:    time.Millisecond,
	})
	body := seedOwnedBy(t, nodes, "p0")
	nodes[0].ts.Close() // the owner is gone

	resp, err := http.Post(nodes[1].ts.URL+"/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback plan: status %d: %s", resp.StatusCode, raw)
	}
	text := scrape(t, nodes[1].ts)
	if got := metricValue(t, text, `pland_routed_total{direction="fallback"}`); got != 1 {
		t.Fatalf("fallback count %g, want 1", got)
	}
	if got := metricValue(t, text, "pland_builds_total"); got != 1 {
		t.Fatalf("local builds %g, want 1", got)
	}
}

// TestFleetDrainDuringHedge extends the drain contract to the fleet: a
// request proxied to a slow owner hedges to the next peer; draining the
// owner mid-hedge must not duplicate work — the fleet completes exactly
// one build and the client sees one good answer.
func TestFleetDrainDuringHedge(t *testing.T) {
	nodes := newFleet(t, 2, Options{}, client.Options{
		AttemptTimeout: 10 * time.Second,
		HedgeAfter:     30 * time.Millisecond,
	})
	// The owner p0 parks every admitted request until released.
	nodes[0].srv.holdBuild = make(chan struct{})
	body := seedOwnedBy(t, nodes, "p0")

	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(nodes[1].ts.URL+"/plan", "application/json", bytes.NewReader(body))
		if err == nil {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d: %s", resp.StatusCode, raw)
			}
		}
		done <- err
	}()

	// Wait until the hedge launched, then drain the stuck owner while
	// the hedged request is still outstanding, and finally release it.
	c := nodes[1].srv.opt.Router.Client
	deadline := time.Now().Add(5 * time.Second)
	for c.Snap().Hedges == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hedge never launched")
		}
		time.Sleep(time.Millisecond)
	}
	nodes[0].srv.Drain()
	if err := <-done; err != nil {
		t.Fatalf("hedged request failed: %v", err)
	}
	// The hedge won, so the client canceled the owner's copy: wait for
	// the owner to see that and give up its slot before releasing the
	// hold, or the copy could slip through and build.
	for len(nodes[0].srv.slots) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the owner's parked request never saw its cancellation")
		}
		time.Sleep(time.Millisecond)
	}
	close(nodes[0].srv.holdBuild)

	// The owner's parked request dies with its canceled context; only
	// the hedge's local build ran anywhere in the fleet.
	deadline = time.Now().Add(5 * time.Second)
	for {
		total := metricValue(t, scrape(t, nodes[0].ts), "pland_builds_total") +
			metricValue(t, scrape(t, nodes[1].ts), "pland_builds_total")
		if total == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet-wide builds = %g, want exactly 1", total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if snap := c.Snap(); snap.HedgeWins != 1 {
		t.Fatalf("hedge wins = %d, want 1", snap.HedgeWins)
	}
}
