package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
)

// keyOwnedBy finds a routing key whose ring owner is the named peer.
func keyOwnedBy(t *testing.T, ring *cluster.Ring, name string) uint64 {
	t.Helper()
	for k := uint64(0); k < 1_000_000; k++ {
		key := k * 0x9e3779b97f4a7c15
		if ring.Owner(key).Name == name {
			return key
		}
	}
	t.Fatalf("no key owned by %s", name)
	return 0
}

// fleet builds a ring of named httptest servers.
func fleet(t *testing.T, handlers map[string]http.Handler) (*cluster.Ring, func()) {
	t.Helper()
	var peers []*cluster.Peer
	var servers []*httptest.Server
	for name, h := range handlers {
		ts := httptest.NewServer(h)
		servers = append(servers, ts)
		peers = append(peers, &cluster.Peer{Name: name, URL: ts.URL})
	}
	ring, err := cluster.NewRing(peers)
	if err != nil {
		t.Fatal(err)
	}
	return ring, func() {
		for _, ts := range servers {
			ts.Close()
		}
	}
}

// countingHandler answers with a fixed status and counts plan hits.
func countingHandler(status int, hits *atomic.Int64, delay time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if delay > 0 {
			time.Sleep(delay)
		}
		w.WriteHeader(status)
		_, _ = w.Write([]byte(`{"ok":true}`))
	})
}

// TestRetryFailsOver: a 500 from the owner retries onto the next ring
// peer and succeeds; the failure shows up typed in the counters.
func TestRetryFailsOver(t *testing.T) {
	var aHits, bHits atomic.Int64
	ring, done := fleet(t, map[string]http.Handler{
		"a": countingHandler(http.StatusInternalServerError, &aHits, 0),
		"b": countingHandler(http.StatusOK, &bHits, 0),
	})
	defer done()
	c := New(ring, Options{BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})

	res, err := c.Do(context.Background(), PlanRequest{Key: keyOwnedBy(t, ring, "a")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusOK || res.Peer != "b" {
		t.Fatalf("got %d from %s, want 200 from b", res.Status, res.Peer)
	}
	if res.Attempts != 2 || res.Hedged {
		t.Fatalf("attempts=%d hedged=%v, want 2 unhedged", res.Attempts, res.Hedged)
	}
	s := c.Snap()
	if s.Retries != 1 || s.Failures[int(cluster.HTTPStatus)] != 1 {
		t.Fatalf("counters: %+v", s)
	}
	if aHits.Load() != 1 || bHits.Load() != 1 {
		t.Fatalf("hits a=%d b=%d, want 1/1", aHits.Load(), bHits.Load())
	}
}

// TestNonRetryable4xxReturnsImmediately: a 422 is the request's fault;
// the client hands it back without burning attempts on other peers.
func TestNonRetryable4xxReturnsImmediately(t *testing.T) {
	var aHits, bHits atomic.Int64
	ring, done := fleet(t, map[string]http.Handler{
		"a": countingHandler(http.StatusUnprocessableEntity, &aHits, 0),
		"b": countingHandler(http.StatusOK, &bHits, 0),
	})
	defer done()
	c := New(ring, Options{BaseBackoff: time.Millisecond})

	res, err := c.Do(context.Background(), PlanRequest{Key: keyOwnedBy(t, ring, "a")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusUnprocessableEntity || res.Attempts != 1 {
		t.Fatalf("got %d after %d attempts, want 422 after 1", res.Status, res.Attempts)
	}
	if bHits.Load() != 0 {
		t.Fatal("non-retryable rejection leaked to a second peer")
	}
	if s := c.Snap(); s.Retries != 0 {
		t.Fatalf("retried a non-retryable failure: %+v", s)
	}
}

// TestConnectRefusedFailsOver: a peer nobody listens on is classified
// connect-refused and the next ring peer serves.
func TestConnectRefusedFailsOver(t *testing.T) {
	var bHits atomic.Int64
	dead := httptest.NewServer(http.NewServeMux())
	deadURL := dead.URL
	dead.Close()
	live := httptest.NewServer(countingHandler(http.StatusOK, &bHits, 0))
	defer live.Close()

	ring, err := cluster.NewRing([]*cluster.Peer{
		{Name: "a", URL: deadURL},
		{Name: "b", URL: live.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := New(ring, Options{BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	res, err := c.Do(context.Background(), PlanRequest{Key: keyOwnedBy(t, ring, "a")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Peer != "b" {
		t.Fatalf("served by %s, want b", res.Peer)
	}
	if s := c.Snap(); s.Failures[int(cluster.ConnectRefused)] != 1 {
		t.Fatalf("refusal not classified: %+v", s)
	}
}

// TestHonorsRetryAfter: a 429's Retry-After floors the retry delay
// even when the configured backoff is much smaller.
func TestHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	ring, done := fleet(t, map[string]http.Handler{"a": h})
	defer done()
	c := New(ring, Options{BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})

	startAt := time.Now()
	res, err := c.Do(context.Background(), PlanRequest{Key: keyOwnedBy(t, ring, "a")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusOK {
		t.Fatalf("status %d", res.Status)
	}
	if elapsed := time.Since(startAt); elapsed < 900*time.Millisecond {
		t.Fatalf("retried after %v, want >= Retry-After of 1s", elapsed)
	}
}

// TestBackoffJitterBounds pins the delay formula: capped exponential
// with jitter in [d/2, 3d/2], floored by Retry-After.
func TestBackoffJitterBounds(t *testing.T) {
	ring, done := fleet(t, map[string]http.Handler{"a": http.NewServeMux()})
	defer done()
	c := New(ring, Options{BaseBackoff: 100 * time.Millisecond, MaxBackoff: 800 * time.Millisecond, Seed: 7})
	for n := 1; n <= 6; n++ {
		want := c.opt.BaseBackoff << uint(n-1)
		if want > c.opt.MaxBackoff {
			want = c.opt.MaxBackoff
		}
		for i := 0; i < 50; i++ {
			d := c.backoff(n, 0)
			if d < want/2 || d > want*3/2 {
				t.Fatalf("backoff(%d) = %v outside [%v, %v]", n, d, want/2, want*3/2)
			}
		}
	}
	if d := c.backoff(1, 5*time.Second); d != 5*time.Second {
		t.Fatalf("Retry-After floor ignored: %v", d)
	}
	// The floor is capped at the attempt timeout: an HTTP-date hint
	// hours out (clock skew, a confused peer) must not stall the retry
	// loop for longer than one attempt may even run.
	if d := c.backoff(1, 3*time.Hour); d != c.opt.AttemptTimeout {
		t.Fatalf("Retry-After floor not capped at the attempt timeout: %v (timeout %v)", d, c.opt.AttemptTimeout)
	}
	if d := c.backoff(1, c.opt.AttemptTimeout-time.Second); d != c.opt.AttemptTimeout-time.Second {
		t.Fatalf("sub-timeout floor should pass through: %v", d)
	}
}

// TestHedgeWins: the owner stalls past HedgeAfter, the hedge lands on
// the next ring peer and wins; the stalled attempt is abandoned without
// counting as a peer failure.
func TestHedgeWins(t *testing.T) {
	var slowHits, fastHits atomic.Int64
	release := make(chan struct{})
	defer close(release)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		slowHits.Add(1)
		select {
		case <-release:
		case <-r.Context().Done():
			// The hedge won and the client abandoned this attempt.
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	ring, done := fleet(t, map[string]http.Handler{
		"slow": slow,
		"fast": countingHandler(http.StatusOK, &fastHits, 0),
	})
	defer done()
	c := New(ring, Options{HedgeAfter: 30 * time.Millisecond})

	res, err := c.Do(context.Background(), PlanRequest{Key: keyOwnedBy(t, ring, "slow")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Peer != "fast" || !res.Hedged {
		t.Fatalf("got peer=%s hedged=%v, want the hedge to win", res.Peer, res.Hedged)
	}
	s := c.Snap()
	if s.Hedges != 1 || s.HedgeWins != 1 {
		t.Fatalf("hedge counters: %+v", s)
	}
	if s.Failures != [4]int64{} {
		t.Fatalf("abandoned primary counted as failure: %+v", s)
	}
	if c.BreakerState("slow") != Closed {
		t.Fatal("losing a hedge race tripped the slow peer's breaker")
	}
}

// TestHedgeNotLaunchedWhenFastEnough: a primary answering inside
// HedgeAfter never spawns the duplicate.
func TestHedgeNotLaunchedWhenFastEnough(t *testing.T) {
	var aHits, bHits atomic.Int64
	ring, done := fleet(t, map[string]http.Handler{
		"a": countingHandler(http.StatusOK, &aHits, 0),
		"b": countingHandler(http.StatusOK, &bHits, 0),
	})
	defer done()
	c := New(ring, Options{HedgeAfter: 5 * time.Second})
	if _, err := c.Do(context.Background(), PlanRequest{Key: keyOwnedBy(t, ring, "a")}); err != nil {
		t.Fatal(err)
	}
	if s := c.Snap(); s.Hedges != 0 {
		t.Fatalf("hedge launched needlessly: %+v", s)
	}
	if aHits.Load()+bHits.Load() != 1 {
		t.Fatalf("%d requests sent, want 1", aHits.Load()+bHits.Load())
	}
}

// TestDrainDuringInflightHedge is the satellite contract: one peer
// drains (503, the pland drain answer) while the client's hedged
// request is outstanding on it — the request completes with exactly
// one "build" fleet-wide, served by the surviving slow peer.
func TestDrainDuringInflightHedge(t *testing.T) {
	var builds atomic.Int64
	var draining atomic.Bool
	release := make(chan struct{})
	// "owner" accepts and builds slowly (it is healthy, just loaded).
	owner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		builds.Add(1)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`{"built":"owner"}`))
	})
	// "next" is mid-drain when the hedge arrives: it refuses like a
	// draining pland does, without building.
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":"server is draining"}`))
			return
		}
		builds.Add(1)
		w.WriteHeader(http.StatusOK)
	})
	ring, done := fleet(t, map[string]http.Handler{"owner": owner, "next": next})
	defer done()
	draining.Store(true)

	c := New(ring, Options{HedgeAfter: 20 * time.Millisecond, BaseBackoff: time.Millisecond})
	resc := make(chan *PlanResult, 1)
	errc := make(chan error, 1)
	go func() {
		res, err := c.Do(context.Background(), PlanRequest{Key: keyOwnedBy(t, ring, "owner")})
		resc <- res
		errc <- err
	}()

	// Wait until the hedge has been launched and refused by the
	// draining peer (the classified 503 shows up in the counters), then
	// let the owner finish its build.
	deadline := time.Now().Add(5 * time.Second)
	for c.Snap().Failures[int(cluster.HTTPStatus)] == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s := c.Snap(); s.Hedges == 0 || s.Failures[int(cluster.HTTPStatus)] == 0 {
		t.Fatalf("hedge never launched and failed against the draining peer: %+v", s)
	}
	close(release)

	res := <-resc
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusOK || res.Peer != "owner" {
		t.Fatalf("got %d from %s, want 200 from owner", res.Status, res.Peer)
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("fleet built %d times, want exactly 1", got)
	}
	// The drain refusal was classified, not fatal.
	if s := c.Snap(); s.Failures[int(cluster.HTTPStatus)] != 1 {
		t.Fatalf("drain 503 not classified: %+v", s)
	}
}

// TestBreakerOpensRefusesRecovers drives the breaker end to end:
// threshold failures open it, an open breaker refuses without touching
// the peer, the cooldown admits a half-open probe, and one success
// closes it.
func TestBreakerOpensRefusesRecovers(t *testing.T) {
	var hits atomic.Int64
	var healthy atomic.Bool
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if healthy.Load() {
			w.WriteHeader(http.StatusOK)
		} else {
			w.WriteHeader(http.StatusInternalServerError)
		}
	})
	ring, done := fleet(t, map[string]http.Handler{"solo": h})
	defer done()
	c := New(ring, Options{
		MaxAttempts:      1,
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
		BaseBackoff:      time.Millisecond,
	})
	key := keyOwnedBy(t, ring, "solo")

	for i := 0; i < 3; i++ {
		if _, err := c.Do(context.Background(), PlanRequest{Key: key}); err == nil {
			t.Fatalf("attempt %d against a 500 peer succeeded", i)
		}
	}
	if st := c.BreakerState("solo"); st != Open {
		t.Fatalf("breaker %v after threshold failures, want open", st)
	}
	before := hits.Load()
	_, err := c.Do(context.Background(), PlanRequest{Key: key})
	var pe *cluster.PeerError
	if !errors.As(err, &pe) || pe.Kind != cluster.BreakerOpen {
		t.Fatalf("open breaker returned %v, want BreakerOpen", err)
	}
	if hits.Load() != before {
		t.Fatal("open breaker still let a request through")
	}

	// After the cooldown the breaker is half-open: the probe goes
	// through, succeeds, and closes it.
	healthy.Store(true)
	time.Sleep(60 * time.Millisecond)
	if st := c.BreakerState("solo"); st != HalfOpen {
		t.Fatalf("breaker %v after cooldown, want half-open", st)
	}
	res, err := c.Do(context.Background(), PlanRequest{Key: key})
	if err != nil || res.Status != http.StatusOK {
		t.Fatalf("half-open probe: res=%+v err=%v", res, err)
	}
	if st := c.BreakerState("solo"); st != Closed {
		t.Fatalf("breaker %v after successful probe, want closed", st)
	}
	s := c.Snap()
	if s.BreakerOpens != 1 || s.BreakerCloses != 1 || s.BreakerRefusals == 0 {
		t.Fatalf("breaker transition counters: %+v", s)
	}
}

// TestBreakerHalfOpenFailureReopens: a failed probe goes straight back
// to Open with the cooldown restarted.
func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBreaker(2, time.Minute, func() time.Time { return now })
	b.Failure()
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed before cooldown")
	}
	now = now.Add(time.Minute)
	if !b.Allow() {
		t.Fatal("half-open breaker refused its probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state %v after failed probe, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("reopened breaker allowed before its restarted cooldown")
	}
	now = now.Add(time.Minute)
	if !b.Allow() {
		t.Fatal("second probe refused after restarted cooldown")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state %v after successful probe, want closed", b.State())
	}
	opens, closes := b.Transitions()
	if opens != 2 || closes != 1 {
		t.Fatalf("transitions = %d/%d, want 2 opens, 1 close", opens, closes)
	}
}

// TestClientMetricsRender sanity-checks the Prometheus rendering.
func TestClientMetricsRender(t *testing.T) {
	var hits atomic.Int64
	ring, done := fleet(t, map[string]http.Handler{"a": countingHandler(http.StatusOK, &hits, 0)})
	defer done()
	c := New(ring, Options{})
	if _, err := c.Do(context.Background(), PlanRequest{Key: 1}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	c.WriteMetrics(&sb)
	out := sb.String()
	for _, want := range []string{
		"pland_client_attempts_total 1",
		`pland_peer_breaker_state{peer="a"} 0`,
		`pland_peer_up{peer="a"} 1`,
		`pland_client_failures_total{kind="timeout"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}
