// Package client is the fault-tolerant planning client of the pland
// fleet. It routes a plan request to its fingerprint's owner on the
// consistent-hash ring and layers the reliability policy on top:
//
//   - per-attempt timeouts, so one stuck peer cannot absorb the whole
//     request budget;
//   - capped exponential backoff with jitter between retries, honoring
//     a 429's Retry-After hint as a floor;
//   - a hedged second request to the next ring peer when the first has
//     not answered within HedgeAfter — tail latency is bought with one
//     duplicate request, and the fleet's per-peer singleflight keeps a
//     hedge from duplicating a cold build when both land on live peers;
//   - a per-peer circuit breaker (closed → open → half-open) so a dead
//     peer stops absorbing attempts and their timeouts between health
//     probes.
//
// Failures are typed (cluster.PeerError): connect refusals, timeouts,
// 5xx, and 429 are retryable on the next ring peer; any other 4xx is a
// property of the request and is returned immediately — no peer will
// judge it differently.
package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
)

// Options configures a Client. The zero value is usable; every field
// falls back to the documented default.
type Options struct {
	// AttemptTimeout bounds each individual attempt; 0 means 10s.
	AttemptTimeout time.Duration
	// MaxAttempts bounds launched requests per Do (retries and hedges
	// both count); 0 means 3.
	MaxAttempts int
	// BaseBackoff is the first retry delay; 0 means 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth; 0 means 2s.
	MaxBackoff time.Duration
	// HedgeAfter launches a hedged request to the next ring peer when
	// the first attempt has not answered within this duration; 0
	// disables hedging.
	HedgeAfter time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// peer's breaker; 0 means 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses before
	// admitting a half-open probe; 0 means 2s.
	BreakerCooldown time.Duration
	// Transport overrides the HTTP transport (chaos injection, tests);
	// nil means http.DefaultTransport.
	Transport http.RoundTripper
	// Seed seeds the jitter PRNG so tests and chaos runs are
	// reproducible; 0 means 1.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = 10 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 2 * time.Second
	}
	if o.Transport == nil {
		o.Transport = http.DefaultTransport
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// PlanRequest is one planning call: the routing key (the workload
// fingerprint), the raw query string, the request body, and the
// fleet-facing headers.
type PlanRequest struct {
	// Key routes the request: its ring owner is tried first.
	Key uint64
	// Path is the request path; empty means "/plan". The batch fan-out
	// sets "/plan/batch" and ships a whole owner group in one body —
	// retry, hedging, and breaker policy apply to the group exactly as
	// they would to a single plan.
	Path string
	// Query is the raw query string ("metric=ADAPT-L&verify=1").
	Query string
	// Criticality is sent as X-Plan-Criticality when non-empty, so an
	// overloaded peer sheds Optional requests before Mandatory ones.
	Criticality string
	// Routed marks the request as already peer-routed
	// (X-Plan-Routed: 1): the receiving peer plans locally instead of
	// proxying again, which is what breaks forwarding loops.
	Routed bool
	// Body is the workload JSON.
	Body []byte
}

// PlanResult is the answer of the attempt that won.
type PlanResult struct {
	// Status and Body are the peer's HTTP answer verbatim.
	Status int
	Body   []byte
	// Quality is the peer's X-Plan-Quality header ("full", or
	// "degraded" when the plan was served under brownout); empty when
	// the peer sent none (non-200s, older peers).
	Quality string
	// Peer is the name of the peer that answered.
	Peer string
	// Attempts is how many requests were launched (1 = first try won).
	Attempts int
	// Hedged reports that the winning response came from a hedged
	// request, not the primary.
	Hedged bool
}

// Client is the fleet planning client. It is safe for concurrent use.
type Client struct {
	ring *cluster.Ring
	opt  Options
	http *http.Client

	breakers map[string]*breaker

	rmu sync.Mutex
	rnd *rand.Rand

	// counters for metrics.
	attempts, retries, hedges, hedgeWins atomic.Int64
	successes, breakerRefusals           atomic.Int64
	failures                             [4]atomic.Int64 // by cluster.ErrKind
}

// maxRespBytes bounds how much of a peer response the client buffers.
const maxRespBytes = 64 << 20

// New builds a client over the ring.
func New(ring *cluster.Ring, opt Options) *Client {
	opt = opt.withDefaults()
	c := &Client{
		ring:     ring,
		opt:      opt,
		http:     &http.Client{Transport: opt.Transport},
		breakers: make(map[string]*breaker, len(ring.Peers())),
		rnd:      rand.New(rand.NewSource(opt.Seed)),
	}
	for _, p := range ring.Peers() {
		c.breakers[p.Name] = newBreaker(opt.BreakerThreshold, opt.BreakerCooldown, time.Now)
	}
	return c
}

// BreakerState returns the named peer's breaker position (for metrics
// and tests).
func (c *Client) BreakerState(peer string) BreakerState {
	b, ok := c.breakers[peer]
	if !ok {
		return Closed
	}
	return b.State()
}

// NoteRisen couples the health prober's rise verdict to the breaker:
// when the prober marks a peer alive again, the peer's open breaker
// has its cooldown expired so the very next request probes it instead
// of waiting out the remainder of the open timer. Wire it as the
// prober's OnRise callback. Unknown names are ignored.
func (c *Client) NoteRisen(peer string) {
	if b, ok := c.breakers[peer]; ok {
		b.Expire()
	}
}

// outcome is what one attempt goroutine reports back.
type outcome struct {
	res       *PlanResult
	err       *cluster.PeerError
	hedged    bool
	abandoned bool // the attempt died because Do already returned a winner
}

// Do runs one plan request under the full reliability policy. The
// returned error is nil when some attempt produced a definitive answer
// — a 2xx or a non-retryable 4xx; the caller reads Status to tell them
// apart. When every attempt failed retryably, Do returns the last
// classified *cluster.PeerError, alongside the last HTTP answer (e.g.
// a final 429 with its body) if there was one.
func (c *Client) Do(ctx context.Context, req PlanRequest) (*PlanResult, error) {
	prefs := c.ring.Preference(req.Key)
	attemptCtx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()
	results := make(chan outcome, c.opt.MaxAttempts)

	launched, inflight, cursor := 0, 0, 0
	start := func(hedged bool) bool {
		if launched >= c.opt.MaxAttempts {
			return false
		}
		peer := c.pick(prefs, &cursor)
		if peer == nil {
			return false
		}
		launched++
		inflight++
		c.attempts.Add(1)
		if hedged {
			c.hedges.Add(1)
		} else if launched > 1 {
			c.retries.Add(1)
		}
		go func() { results <- c.attempt(attemptCtx, ctx, peer, req, hedged) }()
		return true
	}

	if !start(false) {
		return nil, &cluster.PeerError{Peer: "*", Kind: cluster.BreakerOpen}
	}

	var hedgeC <-chan time.Time
	if c.opt.HedgeAfter > 0 {
		t := time.NewTimer(c.opt.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	var retryC <-chan time.Time
	var lastErr *cluster.PeerError
	var lastRes *PlanResult

	for {
		select {
		case <-ctx.Done():
			if lastErr != nil {
				return lastRes, lastErr
			}
			return lastRes, ctx.Err()

		case <-hedgeC:
			hedgeC = nil
			if inflight > 0 {
				start(true)
			}

		case <-retryC:
			retryC = nil
			if !start(false) && inflight == 0 {
				return lastRes, lastErr
			}

		case o := <-results:
			inflight--
			if o.abandoned {
				if inflight == 0 && retryC == nil {
					// Nothing else running and no retry scheduled: the only
					// way here is the caller's context dying mid-attempt.
					if lastErr != nil {
						return lastRes, lastErr
					}
					return lastRes, ctx.Err()
				}
				continue
			}
			if o.err == nil {
				cancelAll()
				c.successes.Add(1)
				if o.hedged {
					c.hedgeWins.Add(1)
				}
				o.res.Attempts = launched
				o.res.Hedged = o.hedged
				return o.res, nil
			}
			c.failures[int(o.err.Kind)].Add(1)
			if !o.err.Retryable() {
				// A definitive 4xx: every peer would reject it the same way.
				cancelAll()
				o.res.Attempts = launched
				o.res.Hedged = o.hedged
				return o.res, nil
			}
			lastErr = o.err
			if o.res != nil {
				lastRes = o.res
			}
			if inflight > 0 || retryC != nil {
				continue // a sibling attempt or a scheduled retry may still win
			}
			if launched >= c.opt.MaxAttempts {
				return lastRes, lastErr
			}
			t := time.NewTimer(c.backoff(launched, o.err.RetryAfter))
			defer t.Stop()
			retryC = t.C
		}
	}
}

// pick returns the next preference-ordered peer whose breaker admits
// an attempt, or nil when every peer refuses.
func (c *Client) pick(prefs []*cluster.Peer, cursor *int) *cluster.Peer {
	for i := 0; i < len(prefs); i++ {
		p := prefs[*cursor%len(prefs)]
		*cursor++
		if c.breakers[p.Name].Allow() {
			return p
		}
		c.breakerRefusals.Add(1)
	}
	return nil
}

// attempt runs one HTTP request against one peer and classifies the
// outcome. Breaker feedback happens here: a 2xx, a non-retryable 4xx,
// or a deliberate shed (429, or 503 with Retry-After) proves the peer
// healthy; a transport failure, 5xx, or bare 503 counts against it. An
// attempt canceled because a sibling already won gives no feedback at
// all — losing a hedge race is not a peer failure.
func (c *Client) attempt(ctx, parent context.Context, peer *cluster.Peer, req PlanRequest, hedged bool) outcome {
	actx, cancel := context.WithTimeout(ctx, c.opt.AttemptTimeout)
	defer cancel()
	path := req.Path
	if path == "" {
		path = "/plan"
	}
	url := peer.URL + path
	if req.Query != "" {
		url += "?" + req.Query
	}
	hreq, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(req.Body))
	if err != nil {
		return outcome{err: &cluster.PeerError{Peer: peer.Name, Kind: cluster.ConnectRefused, Err: err}, hedged: hedged}
	}
	hreq.Header.Set("Content-Type", "application/json")
	if req.Criticality != "" {
		hreq.Header.Set("X-Plan-Criticality", req.Criticality)
	}
	if req.Routed {
		hreq.Header.Set("X-Plan-Routed", "1")
	}

	resp, err := c.http.Do(hreq)
	if err != nil {
		if ctx.Err() != nil && parent.Err() == nil {
			// cancelAll fired: a sibling attempt won the race.
			return outcome{abandoned: true, hedged: hedged}
		}
		if parent.Err() != nil && actx.Err() != context.DeadlineExceeded {
			// The caller's own context died; not the peer's fault.
			return outcome{abandoned: true, hedged: hedged}
		}
		pe := cluster.Classify(peer.Name, err)
		c.breakers[peer.Name].Failure()
		return outcome{err: pe, hedged: hedged}
	}
	body, rerr := io.ReadAll(io.LimitReader(resp.Body, maxRespBytes))
	resp.Body.Close()
	if rerr != nil {
		if ctx.Err() != nil && parent.Err() == nil {
			return outcome{abandoned: true, hedged: hedged}
		}
		pe := cluster.Classify(peer.Name, rerr)
		c.breakers[peer.Name].Failure()
		return outcome{err: pe, hedged: hedged}
	}
	res := &PlanResult{Status: resp.StatusCode, Body: body, Peer: peer.Name,
		Quality: resp.Header.Get("X-Plan-Quality")}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		c.breakers[peer.Name].Success()
		return outcome{res: res, hedged: hedged}
	}
	pe := cluster.StatusError(peer.Name, resp.StatusCode, resp.Header.Get("Retry-After"))
	// A 429, or a 503 carrying an explicit Retry-After, is deliberate
	// shedding from a peer that is up and answering fast. Counting it
	// as a breaker failure would turn every fleet-wide overload into a
	// client-side outage: breakers open on all peers and even cache
	// hits get refused locally. Only a bare 503 (draining, sick proxy)
	// and real transport/5xx failures feed the breaker.
	policyShed := resp.StatusCode == http.StatusTooManyRequests ||
		(resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "")
	switch {
	case policyShed:
		c.breakers[peer.Name].Success()
	case pe.Retryable():
		c.breakers[peer.Name].Failure()
	default:
		// The peer is healthy; the request is bad.
		c.breakers[peer.Name].Success()
	}
	return outcome{res: res, err: pe, hedged: hedged}
}

// backoff computes the delay before launch number n (1-based count of
// already-launched attempts): capped exponential growth with ±50%
// jitter, floored by the peer's Retry-After hint when one was sent.
// The floor itself is capped at the attempt timeout — an HTTP-date
// hint far in the future (a miscalibrated peer, clock skew) must not
// park the request for longer than a single attempt is even allowed
// to run.
func (c *Client) backoff(n int, retryAfter time.Duration) time.Duration {
	d := c.opt.BaseBackoff << uint(n-1)
	if d > c.opt.MaxBackoff || d <= 0 {
		d = c.opt.MaxBackoff
	}
	c.rmu.Lock()
	jittered := d/2 + time.Duration(c.rnd.Int63n(int64(d)))
	c.rmu.Unlock()
	if retryAfter > c.opt.AttemptTimeout {
		retryAfter = c.opt.AttemptTimeout
	}
	if retryAfter > jittered {
		return retryAfter
	}
	return jittered
}

// Snapshot is the client's counter state at one instant.
type Snapshot struct {
	Attempts, Retries, Hedges, HedgeWins int64
	Successes, BreakerRefusals           int64
	// Failures indexes by cluster.ErrKind.
	Failures [4]int64
	// BreakerOpens / BreakerCloses sum transitions over all peers.
	BreakerOpens, BreakerCloses int64
}

// Snap returns the current counters.
func (c *Client) Snap() Snapshot {
	s := Snapshot{
		Attempts:        c.attempts.Load(),
		Retries:         c.retries.Load(),
		Hedges:          c.hedges.Load(),
		HedgeWins:       c.hedgeWins.Load(),
		Successes:       c.successes.Load(),
		BreakerRefusals: c.breakerRefusals.Load(),
	}
	for i := range s.Failures {
		s.Failures[i] = c.failures[i].Load()
	}
	for _, b := range c.breakers {
		o, cl := b.Transitions()
		s.BreakerOpens += o
		s.BreakerCloses += cl
	}
	return s
}

// WriteMetrics renders the client counters and per-peer breaker state
// in the Prometheus text format, as the pland_client_* and pland_peer_*
// families of the serving layer's /metrics.
func (c *Client) WriteMetrics(w io.Writer) {
	s := c.Snap()
	emit := func(name, kind, help string, rows ...string) {
		fmt.Fprintf(w, "# HELP pland_%s %s\n# TYPE pland_%s %s\n", name, help, name, kind)
		for _, r := range rows {
			fmt.Fprintf(w, "pland_%s%s\n", name, r)
		}
	}
	emit("client_attempts_total", "counter", "Peer requests launched (first tries, retries, hedges).",
		fmt.Sprintf(" %d", s.Attempts))
	emit("client_retries_total", "counter", "Backed-off retry launches.",
		fmt.Sprintf(" %d", s.Retries))
	emit("client_hedges_total", "counter", "Hedged second requests launched.",
		fmt.Sprintf(" %d", s.Hedges))
	emit("client_hedge_wins_total", "counter", "Requests won by the hedged attempt.",
		fmt.Sprintf(" %d", s.HedgeWins))
	emit("client_breaker_refusals_total", "counter", "Attempts refused locally by an open breaker.",
		fmt.Sprintf(" %d", s.BreakerRefusals))
	kinds := []cluster.ErrKind{cluster.ConnectRefused, cluster.Timeout, cluster.HTTPStatus, cluster.BreakerOpen}
	rows := make([]string, len(kinds))
	for i, k := range kinds {
		rows[i] = fmt.Sprintf("{kind=%q} %d", k.String(), s.Failures[int(k)])
	}
	emit("client_failures_total", "counter", "Attempt failures by classified kind.", rows...)

	var stateRows, openRows, closeRows, upRows []string
	for _, p := range c.ring.Peers() {
		b := c.breakers[p.Name]
		o, cl := b.Transitions()
		stateRows = append(stateRows, fmt.Sprintf("{peer=%q} %d", p.Name, int(b.State())))
		openRows = append(openRows, fmt.Sprintf("{peer=%q} %d", p.Name, o))
		closeRows = append(closeRows, fmt.Sprintf("{peer=%q} %d", p.Name, cl))
		up := 0
		if p.Alive() {
			up = 1
		}
		upRows = append(upRows, fmt.Sprintf("{peer=%q} %d", p.Name, up))
	}
	emit("peer_breaker_state", "gauge", "Circuit breaker position per peer (0 closed, 1 open, 2 half-open).", stateRows...)
	emit("peer_breaker_opens_total", "counter", "Breaker closed/half-open to open transitions per peer.", openRows...)
	emit("peer_breaker_closes_total", "counter", "Breaker half-open to closed recoveries per peer.", closeRows...)
	emit("peer_up", "gauge", "1 while the health prober considers the peer alive.", upRows...)
}
