// Package server is the planning service: an HTTP/JSON front-end over
// the instrumented pipeline core. One process holds one shared plan
// cache and recorder; every request plans through them, so identical
// workloads are answered from cache and concurrent identical requests
// coalesce onto a single cold build (the cache's singleflight layer).
//
// The request path is index → admission → coalesce → build → respond:
//
//   - index: a /plan body is hashed (SHA-256) before it is decoded. A
//     body this process has already decoded and answered under the same
//     configuration is found in the body index (bodyindex.go), which
//     yields its plan Key: a fleet proxy routes it by that Key, and the
//     node holding the plan answers from it after admission, with no
//     decode, fingerprint or estimate. Any other body is decoded as
//     before and indexed once it is answered 200 at full quality.
//   - admission: at most MaxInFlight requests plan concurrently; up to
//     MaxQueue more wait for a slot, and anything beyond that is shed
//     immediately with 429 and a Retry-After hint — the service degrades
//     by refusing work it cannot start, not by queueing unboundedly.
//     The Retry-After hint is derived from the current queue depth and
//     jittered, so a thundering herd of rejected clients does not come
//     back in one synchronized wave.
//   - criticality-aware shedding: requests carry X-Plan-Criticality
//     (mandatory, the default, or optional). When an admission window's
//     worst queue delay exceeds AdmitTarget the server enters shedding
//     mode and rejects Optional requests up front, keeping the
//     remaining admission capacity for Mandatory work; it leaves
//     shedding mode after a window at or below half the target. The
//     hysteresis mirrors the mixed-criticality mode ladder in
//     internal/degrade: degrade the optional tier first, re-admit it
//     only once pressure is clearly gone. The same controller thins
//     admitted load and drives the brownout ladder (admission.go).
//   - routing: with a Router configured (a pland fleet), a request whose
//     workload fingerprint is owned by another live peer is proxied
//     there — each plan is built once fleet-wide — and planned locally
//     when the owner cannot be reached.
//   - deadline: every request plans under a context with a wall-clock
//     budget (client-requested via ?timeout=, clamped to MaxTimeout).
//     The pipeline checks it at stage boundaries, so an abandoned or
//     expired request stops computing instead of finishing as a zombie.
//   - drain: Drain flips /healthz to 503 and rejects new plan requests;
//     in-flight builds finish normally (http.Server.Shutdown provides
//     the waiting).
//
// /metrics exports the pipeline recorder's aggregates and the admission
// gauges in the Prometheus text format, hand-rendered to keep the
// module dependency-free.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/cluster/client"
	"repro/internal/deadline"
	"repro/internal/graphio"
	"repro/internal/pipeline"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
	"repro/internal/verify"
	"repro/internal/wcet"
)

// Options configures a Server. The zero value is usable; every field
// falls back to the documented default.
type Options struct {
	// MaxInFlight bounds concurrently planning requests; 0 means
	// GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds requests waiting for a planning slot; beyond it
	// requests are shed with 429. 0 means 64; negative means no queue
	// (shed whenever every slot is busy).
	MaxQueue int
	// DefaultTimeout is the per-request planning budget when the client
	// does not ask for one; 0 means 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested budgets; 0 means 2m.
	MaxTimeout time.Duration
	// CacheCapacity sizes the shared plan cache; 0 means 4096.
	CacheCapacity int
	// MaxBodyBytes bounds the request body; 0 means 16 MiB.
	MaxBodyBytes int64
	// AdmitTarget is the queue-delay (sojourn) target of the adaptive
	// admission controller: windows whose worst queue wait exceeds it
	// shed Optional requests, shrink the admitted fraction of offered
	// load and climb the brownout ladder. 0 means 25ms; negative
	// disables the controller, and with it optional-first shedding
	// (static MaxQueue admission only).
	AdmitTarget time.Duration
	// AdmitWindow is the controller's measurement window; 0 means 250ms.
	AdmitWindow time.Duration
	// BrownoutCheapAt is the worst-window-sojourn rung at which cold
	// builds switch to the cheap PURE-metric configuration; 0 means
	// 2×AdmitTarget, negative disables the rung.
	BrownoutCheapAt time.Duration
	// BrownoutCacheOnlyAt is the rung at which cold builds stop
	// entirely (cache/read-through or 503); 0 means 8×AdmitTarget,
	// negative disables the rung.
	BrownoutCacheOnlyAt time.Duration
	// MaxBatchItems bounds the items of one POST /plan/batch; 0 means
	// 256.
	MaxBatchItems int
	// DefaultVerify is the verification mode applied when a request
	// carries no ?verify= parameter: "", "off", "feas", "analytic",
	// "replay", or "analytic-first" (validate with CheckVerifyMode).
	// Empty means off.
	DefaultVerify string
	// Router, when non-nil, puts the server in fleet mode: requests
	// owned by other live peers are proxied to them.
	Router *Router
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue == 0 {
		o.MaxQueue = 64
	}
	if o.MaxQueue < 0 {
		o.MaxQueue = 0
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 2 * time.Minute
	}
	if o.CacheCapacity <= 0 {
		o.CacheCapacity = 4096
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 16 << 20
	}
	if o.AdmitTarget == 0 {
		o.AdmitTarget = 25 * time.Millisecond
	}
	if o.AdmitWindow <= 0 {
		o.AdmitWindow = 250 * time.Millisecond
	}
	if o.BrownoutCheapAt == 0 {
		o.BrownoutCheapAt = 2 * o.AdmitTarget
	}
	if o.BrownoutCacheOnlyAt == 0 {
		o.BrownoutCacheOnlyAt = 8 * o.AdmitTarget
	}
	if o.MaxBatchItems <= 0 {
		o.MaxBatchItems = 256
	}
	return o
}

// retryAfterBase is the base of the hint attached to 429 responses; the
// hint sent scales with queue depth and is jittered.
const retryAfterBase = time.Second

// randSeed seeds the Retry-After jitter and the admit coin, so their
// draws repeat from run to run.
const randSeed = 1

// Server is the planning service state: the shared pipeline cache and
// recorder, the admission machinery, and the request counters. Create
// with New; serve its Handler.
type Server struct {
	opt   Options
	cache *pipeline.Cache
	rec   *pipeline.Recorder
	mux   *http.ServeMux
	// index maps repeated /plan bodies to plan Keys (bodyindex.go).
	index *bodyIndex

	// slots is the in-flight semaphore; queued counts requests waiting
	// for a slot; inFlight gauges requests actually planning.
	slots    chan struct{}
	queued   atomic.Int64
	inFlight atomic.Int64
	draining atomic.Bool

	// Request counters by outcome, for /metrics.
	served    atomic.Int64 // 200
	rejected  atomic.Int64 // 4xx workload or parameter faults
	throttled atomic.Int64 // 429 shed at admission
	expired   atomic.Int64 // 504 budget exceeded
	refused   atomic.Int64 // 503 draining

	// 429s split by the criticality of the request shed.
	shedOptional  atomic.Int64 // optional requests shed at any rung
	shedMandatory atomic.Int64 // mandatory requests shed (coin or full queue)

	// adm is the queue-delay admission controller and brownout ladder
	// (see admission.go); the counters split its decisions.
	adm            *admitController
	admitShed      atomic.Int64 // requests shed by the AIMD admit coin
	verifyTotals   [numVerifyModes][numVerifyOutcomes]atomic.Int64
	plansFull      atomic.Int64 // 200s served at full quality
	plansDegraded  atomic.Int64 // 200s served degraded under brownout
	cacheOnlyHits  atomic.Int64 // cache-only rung answered from cache
	cacheOnlyMiss  atomic.Int64 // cache-only rung 503s (no resident plan)
	batchRequests  atomic.Int64 // POST /plan/batch calls
	batchItems     atomic.Int64 // items across all batch calls
	batchRoutedOut atomic.Int64 // batch item groups shipped to owning peers

	// Fleet routing counters.
	routedOut      atomic.Int64 // requests proxied to their owning peer
	routedFallback atomic.Int64 // proxy exhausted, planned locally instead
	routedIn       atomic.Int64 // routed requests received from peers

	// Body index outcomes of /plan requests (see bodyindex.go).
	indexHits  atomic.Int64 // answered or routed without a decode
	indexStale atomic.Int64 // indexed, but the plan was evicted
	indexMiss  atomic.Int64 // no entry

	// Warm-fill state and counters (see warmfill.go).
	hints        hintStore
	warmRounds   atomic.Int64 // completed warm-fill rounds
	warmPulled   atomic.Int64 // plans pulled from peer digests
	warmPushed   atomic.Int64 // hinted plans delivered to risen owners
	warmHinted   atomic.Int64 // handoff hints recorded
	warmErrors   atomic.Int64 // digest/fill/push round-trips that failed
	warmReads    atomic.Int64 // read-through sweeps before non-owner builds
	fillServed   atomic.Int64 // GET /cache/fill answered with a plan
	fillMisses   atomic.Int64 // GET /cache/fill for a non-resident plan
	fillAccepted atomic.Int64 // POST /cache/fill plans installed

	// readThrough throttles per-workload read-through sweeps (see
	// warmReadThrough).
	readMu   sync.Mutex
	readLast map[uint64]time.Time

	// Snapshot counters (see warmfill.go).
	snapSaves       atomic.Int64 // successful snapshot saves
	snapLoads       atomic.Int64 // successful snapshot loads
	snapSavedPlans  atomic.Int64 // plans in the latest saved snapshot
	snapLoadedPlans atomic.Int64 // plans restored from snapshots
	snapErrors      atomic.Int64 // failed saves/loads

	// rnd drives the Retry-After jitter.
	rmu sync.Mutex
	rnd *rand.Rand

	// holdBuild, when non-nil, blocks every admitted request before it
	// plans, until it is closed or the request's context is done; tests
	// use it to hold slots occupied deterministically.
	holdBuild chan struct{}
}

// New returns a Server with its own plan cache and recorder.
func New(opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{
		opt:   opt,
		cache: pipeline.NewCache(opt.CacheCapacity),
		index: newBodyIndex(opt.CacheCapacity),
		rec:   pipeline.NewRecorder(false),
		slots: make(chan struct{}, opt.MaxInFlight),
		rnd:   rand.New(rand.NewSource(randSeed)),
		adm:   newAdmitController(opt),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/plan", s.handlePlan)
	s.mux.HandleFunc("/plan/batch", s.handleBatch)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/cache/digest", s.handleCacheDigest)
	s.mux.HandleFunc("/cache/fill", s.handleCacheFill)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain puts the server into draining mode: /healthz turns 503 (so load
// balancers stop routing here) and new plan requests are refused.
// Requests already planning are unaffected; pair with
// http.Server.Shutdown to wait for them.
func (s *Server) Drain() { s.draining.Store(true) }

// PlanResponse is the JSON answer of POST /plan.
type PlanResponse struct {
	// Metric, WCET and Dispatcher echo the resolved configuration.
	Metric     string `json:"metric"`
	WCET       string `json:"wcet"`
	Dispatcher string `json:"dispatcher"`
	// Feasible, OverConstrained, ProvablyInfeasible and the measures
	// fold the plan verdict.
	Feasible           bool  `json:"feasible"`
	OverConstrained    bool  `json:"overConstrained,omitempty"`
	ProvablyInfeasible bool  `json:"provablyInfeasible,omitempty"`
	MaxLateness        int64 `json:"maxLateness"`
	MinLaxity          int64 `json:"minLaxity"`
	// Proof is the verifier's verdict on the served plan ("none",
	// "accepted", "rejected", "inconclusive"); empty when the request
	// ran without verification.
	Proof string `json:"proof,omitempty"`
	// Result carries the per-task assignment and placements in the same
	// shape cmd/taskgen and cmd/schedview archive.
	Result graphio.ResultJSON `json:"result"`
	// PlanningMS is the wall-clock planning time of the build that
	// produced the plan (0 for a cache hit whose build was instant).
	PlanningMS float64 `json:"planningMS"`
	// Quality is "full" or "degraded": degraded marks a plan built
	// under brownout with the cheap configuration substituted for a
	// richer one the client asked for. Also sent as X-Plan-Quality.
	Quality string `json:"quality"`
}

// errorResponse is the JSON body of every non-200 answer.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes an error body without counting a plan outcome; the
// warm-fill endpoints refuse peers through it, not plan clients.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// fail answers a request the server refuses before planning it.
func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeOutcome(w, planOutcome{code: code, errMsg: fmt.Sprintf(format, args...)})
}

// admit takes a planning slot, waiting in the bounded queue if none is
// free. It returns a release func, or false when the queue is full or
// the request died while waiting. Every request that actually queued
// feeds its sojourn to the admission controller — on both outcomes,
// since a request that gave up after 80ms in queue is exactly as loud
// an overload signal as one that got a slot after 80ms. Fast-path
// admissions (a free slot, zero wait) are not observed; the controller
// keys on the worst sojourn per window, which zeros cannot move.
func (s *Server) admit(ctx context.Context) (release func(), ok bool) {
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, true
	default:
	}
	if s.queued.Add(1) > int64(s.opt.MaxQueue) {
		s.queued.Add(-1)
		return nil, false
	}
	start := time.Now()
	defer func() {
		s.queued.Add(-1)
		s.adm.observe(time.Since(start))
	}()
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, true
	case <-ctx.Done():
		return nil, false
	}
}

// dispatcherByName resolves the ?dispatcher= parameter.
func dispatcherByName(name string) (pipeline.Dispatcher, error) {
	switch name {
	case "", "time-driven":
		return pipeline.TimeDriven(), nil
	case "planner":
		return pipeline.Planner(), nil
	case "insertion":
		return pipeline.Insertion(), nil
	case "preemptive":
		return pipeline.Preemptive(), nil
	}
	return pipeline.Dispatcher{}, fmt.Errorf("unknown dispatcher %q (want time-driven, planner, insertion, or preemptive)", name)
}

// strategyByName resolves the ?wcet= parameter.
func strategyByName(name string) (wcet.Strategy, error) {
	if name == "" {
		return wcet.AVG, nil
	}
	for _, st := range wcet.Strategies {
		if st.String() == name {
			return st, nil
		}
	}
	return 0, fmt.Errorf("unknown WCET strategy %q", name)
}

// budget resolves the request's planning budget from ?timeout=.
func (s *Server) budget(raw string) (time.Duration, error) {
	if raw == "" {
		return s.opt.DefaultTimeout, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("bad timeout %q", raw)
	}
	if d > s.opt.MaxTimeout {
		d = s.opt.MaxTimeout
	}
	return d, nil
}

// Fleet request headers.
const (
	// criticalityHeader lets a client declare how sheddable a request
	// is: "mandatory" (the default) or "optional".
	criticalityHeader = "X-Plan-Criticality"
	// routedHeader marks a request already forwarded by a peer; the
	// receiver plans locally, never proxies again.
	routedHeader = "X-Plan-Routed"
)

// parseCriticality resolves the X-Plan-Criticality header. Absence
// means Mandatory, so pre-fleet clients keep their old service class.
func parseCriticality(h string) (taskgraph.Criticality, error) {
	switch strings.ToLower(strings.TrimSpace(h)) {
	case "", "mandatory":
		return taskgraph.Mandatory, nil
	case "optional":
		return taskgraph.Optional, nil
	}
	return 0, fmt.Errorf("bad %s %q (want mandatory or optional)", criticalityHeader, h)
}

// retryAfterSeconds derives the 429 hint from current pressure: the
// retryAfterBase scaled by up to 3× as the queue fills, jittered
// ±25% so shed clients do not return in one synchronized wave, and
// rounded up to whole seconds (the header's unit).
func (s *Server) retryAfterSeconds() int {
	fill := 0.0
	if s.opt.MaxQueue > 0 {
		fill = float64(s.queued.Load()) / float64(s.opt.MaxQueue)
		if fill > 1 {
			fill = 1
		}
	}
	d := float64(retryAfterBase) * (1 + 2*fill)
	s.rmu.Lock()
	jitter := 0.75 + 0.5*s.rnd.Float64()
	s.rmu.Unlock()
	secs := int(math.Ceil(time.Duration(d * jitter).Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, http.StatusMethodNotAllowed, "POST a workload to /plan")
		return
	}
	if s.draining.Load() {
		s.fail(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	crit, err := parseCriticality(r.Header.Get(criticalityHeader))
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}

	cfg, err := s.parsePlanConfig(r.URL.Query())
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}

	// The body is buffered rather than streamed so a routed request can
	// forward the identical bytes to the owning peer.
	raw, err := s.readBody(w, r)
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, "reading workload: %v", err)
		return
	}
	routed := r.Header.Get(routedHeader) != ""
	if routed {
		s.routedIn.Add(1)
	}
	proxy := s.opt.Router != nil && !routed

	// A body this process decoded before is routed, or answered from its
	// resident plan, without a second decode.
	ik := bodyKey(raw, cfg)
	key, indexed := s.index.get(ik)
	var resident *pipeline.Plan
	if indexed {
		if proxy {
			if _, ok := s.route(w, r, key.Workload, crit, raw); ok {
				s.indexHits.Add(1)
				return
			}
		}
		if resident, _ = s.cache.Lookup(key); resident != nil {
			s.indexHits.Add(1)
		} else {
			s.indexStale.Add(1)
		}
	} else {
		s.indexMiss.Add(1)
	}

	var g *taskgraph.Graph
	var p *arch.Platform
	if resident == nil {
		if g, p, err = graphio.ParseWorkload(raw); err != nil {
			s.fail(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		if p == nil {
			s.fail(w, http.StatusUnprocessableEntity, "workload carries no platform; the planner needs one")
			return
		}
		// A body routed for the first time is indexed, once its owner
		// answered it, with the Key the owner's decode path computes.
		if proxy && !indexed {
			if status, ok := s.route(w, r, pipeline.Fingerprint(g, p), crit, raw); ok {
				if status == http.StatusOK {
					if _, k, err := s.builder(cfg, pipeline.QualityFull).Probe(pipeline.Spec{Graph: g, Platform: p}); err == nil {
						s.index.put(ik, k)
					}
				}
				return
			}
		}
	}

	out := s.planOne(r.Context(), cfg, crit, g, p, resident)
	if out.code == http.StatusOK && out.quality == pipeline.QualityFull && !indexed {
		s.index.put(ik, out.key)
	}
	s.writeOutcome(w, out)
}

// route proxies a /plan body to the live owner of workload when that is
// another peer, relaying the owner's answer, and reports its status and
// that it answered. When the owner and every fallback are unreachable it
// counts a fallback and returns false: the request plans here, since
// worse cache locality beats an error.
func (s *Server) route(w http.ResponseWriter, r *http.Request, workload uint64, crit taskgraph.Criticality, raw []byte) (int, bool) {
	rt := s.opt.Router
	if rt.target(workload).Name == rt.Self {
		return 0, false
	}
	res, err := rt.Client.Do(r.Context(), client.PlanRequest{
		Key:         workload,
		Query:       r.URL.RawQuery,
		Criticality: crit.String(),
		Routed:      true,
		Body:        raw,
	})
	if err != nil {
		s.routedFallback.Add(1)
		return 0, false
	}
	s.routedOut.Add(1)
	relay(w, res)
	return res.Status, true
}

// verifyMode selects the verification stage of a plan request.
type verifyMode int

const (
	// verifyOff runs no verifier.
	verifyOff verifyMode = iota
	// verifyFeas runs the O(n²) necessary-condition checks only
	// (reject/inconclusive, never accept).
	verifyFeas
	// verifyAnalytic proves deadlines analytically (holistic RTA);
	// three-valued.
	verifyAnalytic
	// verifyReplay replays the dispatched schedule through the
	// simulator; accept/reject, never inconclusive.
	verifyReplay
	// verifyAnalyticFirst tries the analytic proof and falls back to
	// replay when it is inconclusive.
	verifyAnalyticFirst
)

// numVerifyModes and numVerifyOutcomes size the pland_verify_total
// counter matrix.
const (
	numVerifyModes    = int(verifyAnalyticFirst) + 1
	numVerifyOutcomes = int(pipeline.VerifyInconclusive) + 1
)

// String implements fmt.Stringer.
func (m verifyMode) String() string {
	switch m {
	case verifyOff:
		return "off"
	case verifyFeas:
		return "feas"
	case verifyAnalytic:
		return "analytic"
	case verifyReplay:
		return "replay"
	case verifyAnalyticFirst:
		return "analytic-first"
	}
	return fmt.Sprintf("verifyMode(%d)", int(m))
}

// verifyModeByName resolves the ?verify= parameter; "1"/"true" keep
// their historical meaning of the feasibility verifier.
func verifyModeByName(name string) (verifyMode, error) {
	switch name {
	case "", "0", "false", "off":
		return verifyOff, nil
	case "1", "true", "feas":
		return verifyFeas, nil
	case "analytic":
		return verifyAnalytic, nil
	case "replay":
		return verifyReplay, nil
	case "analytic-first":
		return verifyAnalyticFirst, nil
	}
	return verifyOff, fmt.Errorf("unknown verify mode %q (want off, feas, analytic, replay, or analytic-first)", name)
}

// CheckVerifyMode validates a verify-mode name (the cmd/pland -verify
// flag) without resolving it.
func CheckVerifyMode(name string) error {
	_, err := verifyModeByName(name)
	return err
}

// planConfig is one request's resolved planning configuration.
type planConfig struct {
	metric   slicing.Metric
	strategy wcet.Strategy
	disp     pipeline.Dispatcher
	verify   verifyMode
	limit    time.Duration
}

// parsePlanConfig resolves the query parameters shared by /plan and
// /plan/batch.
func (s *Server) parsePlanConfig(q url.Values) (planConfig, error) {
	var cfg planConfig
	name := q.Get("metric")
	if name == "" {
		name = slicing.AdaptL().Name()
	}
	metric, err := slicing.ByName(name)
	if err != nil {
		return cfg, err
	}
	cfg.metric = metric
	if cfg.strategy, err = strategyByName(q.Get("wcet")); err != nil {
		return cfg, err
	}
	if cfg.disp, err = dispatcherByName(q.Get("dispatcher")); err != nil {
		return cfg, err
	}
	if cfg.limit, err = s.budget(q.Get("timeout")); err != nil {
		return cfg, err
	}
	mode := q.Get("verify")
	if mode == "" {
		mode = s.opt.DefaultVerify
	}
	if cfg.verify, err = verifyModeByName(mode); err != nil {
		return cfg, err
	}
	// The pipeline refuses a verifier that is not sound under the
	// dispatcher; refusing here answers before the body is read.
	if v := verifierFor(cfg.verify); !v.SoundUnder(cfg.disp) {
		return cfg, fmt.Errorf("verify=%s requires the %s dispatcher (got %s)", cfg.verify, v.Dispatcher, cfg.disp.Name)
	}
	return cfg, nil
}

// verifierFor is the pipeline verifier of a verification mode; the zero
// Verifier, which skips the stage, for verifyOff.
func verifierFor(mode verifyMode) pipeline.Verifier {
	switch mode {
	case verifyFeas:
		return pipeline.FeasVerifier()
	case verifyAnalytic:
		return verify.AnalyticVerifier()
	case verifyReplay:
		return verify.ReplayVerifier()
	case verifyAnalyticFirst:
		return verify.AnalyticFirstVerifier()
	}
	return pipeline.Verifier{}
}

// builder materializes the pipeline builder for cfg; plans it builds
// cold carry the quality tag.
func (s *Server) builder(cfg planConfig, quality pipeline.Quality) *pipeline.Builder {
	return &pipeline.Builder{
		Estimator:   pipeline.StrategyEstimator(cfg.strategy),
		Distributor: deadline.Sliced{Metric: cfg.metric, Params: slicing.CalibratedParams()},
		Dispatcher:  cfg.disp,
		Verifier:    verifierFor(cfg.verify),
		Cache:       s.cache,
		Recorder:    s.rec,
		Quality:     quality,
	}
}

// cheapen strips cfg to the brownout build — the PURE metric (identity
// virtual costs, no parallel-set analysis, and the slicer's one-DP-per-
// round chain search), time-driven dispatch, no verification — and
// reports whether that is actually a downgrade from what the client
// asked for. A request that already asked for the cheap configuration
// is served as-is at full quality: brownout substitutes, it never
// relabels.
func cheapen(cfg planConfig) (planConfig, bool) {
	cheap := cfg
	cheap.metric = slicing.PURE()
	cheap.disp = pipeline.TimeDriven()
	cheap.verify = verifyOff
	downgraded := cfg.metric.Name() != cheap.metric.Name() ||
		cfg.disp.Name != cheap.disp.Name || cfg.verify != verifyOff
	return cheap, downgraded
}

// planOutcome is the result of planning one workload through the local
// admission path.
type planOutcome struct {
	code       int
	resp       *PlanResponse // non-nil iff code is 200
	errMsg     string
	quality    pipeline.Quality
	key        pipeline.Key // the served plan's Key when code is 200
	retryAfter bool         // attach a pressure-scaled Retry-After hint
}

// planOne plans one workload locally under the full overload policy —
// the criticality rung, the AIMD admit coin, the bounded queue, and
// the brownout ladder. It is the shared core of POST /plan and of each
// /plan/batch item, which is what makes a batch spend the same
// admission budget as the equivalent stream of single requests.
// resident, when non-nil, is the plan the body index found for a /plan
// body that was not decoded (g and p are then nil): past the same
// rungs, it answers as the cache hit the decode path would have found.
func (s *Server) planOne(ctx context.Context, cfg planConfig, crit taskgraph.Criticality, g *taskgraph.Graph, p *arch.Platform, resident *pipeline.Plan) planOutcome {
	// First rung: while queue delay is over target the optional tier is
	// refused outright, so the queue seat it would have taken stays
	// available to mandatory work.
	if crit == taskgraph.Optional && s.adm.sheddingOptional() {
		s.shedOptional.Add(1)
		return planOutcome{code: http.StatusTooManyRequests, retryAfter: true,
			errMsg: "shedding optional work under overload"}
	}
	// Second rung: while queue delay sits over target the AIMD coin
	// sheds a growing fraction of everything else, which is what holds
	// the queue wait near the target instead of at the timeout cliff.
	if !s.adm.admit() {
		s.admitShed.Add(1)
		if crit == taskgraph.Optional {
			s.shedOptional.Add(1)
		} else {
			s.shedMandatory.Add(1)
		}
		return planOutcome{code: http.StatusTooManyRequests, retryAfter: true,
			errMsg: "admission controller shedding: queue delay over target"}
	}

	release, ok := s.admit(ctx)
	if !ok {
		if ctx.Err() != nil {
			// The client went away while queued; nothing to answer.
			return planOutcome{code: http.StatusServiceUnavailable,
				errMsg: "request canceled while queued"}
		}
		if crit == taskgraph.Optional {
			s.shedOptional.Add(1)
		} else {
			s.shedMandatory.Add(1)
		}
		return planOutcome{code: http.StatusTooManyRequests, retryAfter: true,
			errMsg: fmt.Sprintf("planning queue is full (%d in flight, %d queued)",
				s.opt.MaxInFlight, s.opt.MaxQueue)}
	}
	defer release()
	if s.holdBuild != nil {
		// A held request still dies with its context.
		select {
		case <-s.holdBuild:
		case <-ctx.Done():
		}
	}

	bctx, cancel := context.WithTimeout(ctx, cfg.limit)
	defer cancel()
	// A plan the body index found resident stands in for the decode: its
	// workload plans exactly as the body does, should the plan have been
	// evicted while this request waited.
	if resident != nil {
		g, p = resident.Graph, resident.Platform
	}
	spec := pipeline.Spec{Graph: g, Platform: p}
	b := s.builder(cfg, pipeline.QualityFull)

	// Brownout ladder: decide what this request's cold work may cost.
	// Cached plans always serve at the quality they were built at; the
	// ladder only governs new builds.
	served, quality := cfg, pipeline.QualityFull
	if level := s.adm.currentLevel(); level > brownoutOff {
		// A resident plan of the requested configuration short-circuits
		// any rung at full quality.
		plan := resident
		if plan != nil {
			plan, _ = s.cache.Lookup(plan.Key)
		} else {
			plan, _, _ = b.Probe(spec)
		}
		if plan != nil {
			if level == brownoutCacheOnly {
				s.cacheOnlyHits.Add(1)
			}
			return s.respond(cfg, plan, pipeline.QualityFull)
		}
		resident = nil
		cheap, downgraded := cheapen(cfg)
		switch level {
		case brownoutCheap:
			if downgraded {
				served, quality = cheap, pipeline.QualityDegraded
				b = s.builder(served, quality)
			}
		case brownoutCacheOnly:
			// No cold builds at all. In fleet mode, sweep the peers'
			// caches for this fingerprint first — some replica may hold
			// the plan this process never built.
			if s.opt.Router != nil {
				s.warmReadThrough(bctx, pipeline.Fingerprint(g, p))
				if plan, _, err := b.Probe(spec); err == nil && plan != nil {
					s.cacheOnlyHits.Add(1)
					return s.respond(cfg, plan, pipeline.QualityFull)
				}
			}
			// A degraded plan cached by an earlier brownout beats a 503.
			if downgraded {
				if plan, _, err := s.builder(cheap, pipeline.QualityDegraded).Probe(spec); err == nil && plan != nil {
					s.cacheOnlyHits.Add(1)
					return s.respond(cheap, plan, pipeline.QualityDegraded)
				}
			}
			s.cacheOnlyMiss.Add(1)
			return planOutcome{code: http.StatusServiceUnavailable, retryAfter: true,
				errMsg: "browned out: serving cached plans only, none resident for this workload"}
		}
	}

	// A local build on a peer that is not the workload's static owner is
	// the recovery path — the owner was unreachable, or the client was
	// re-routed here. Before paying a cold build, and only then, read
	// through the other peers' caches: some replica usually survives a
	// single-peer outage. A plan already resident here needs no sweep.
	if resident == nil && s.opt.Router != nil {
		if fp := pipeline.Fingerprint(g, p); s.replicaRank(fp) > 0 {
			plan, _, err := b.Probe(spec)
			switch {
			case err != nil:
			case plan != nil:
				resident = plan
			default:
				s.warmReadThrough(bctx, fp)
			}
		}
	}
	if resident != nil {
		plan, err := b.Resident(bctx, resident.Key)
		if err != nil {
			return buildFailure(cfg.limit, err)
		}
		if plan != nil {
			return s.respond(served, plan, quality)
		}
		// Evicted while this request waited: build it again, exactly as
		// the decode path would.
	}

	s.inFlight.Add(1)
	plan, err := b.BuildContext(bctx, spec)
	s.inFlight.Add(-1)
	if err != nil {
		return buildFailure(cfg.limit, err)
	}
	return s.respond(served, plan, quality)
}

// buildFailure maps a failed build or lookup under a limit budget to
// its outcome.
func buildFailure(limit time.Duration, err error) planOutcome {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return planOutcome{code: http.StatusGatewayTimeout,
			errMsg: fmt.Sprintf("planning exceeded its %v budget", limit)}
	case errors.Is(err, context.Canceled):
		return planOutcome{code: http.StatusServiceUnavailable, errMsg: "request canceled"}
	}
	// Stage errors are properties of the submitted workload
	// (inconsistent graph, unschedulable windows), not of the server.
	return planOutcome{code: http.StatusUnprocessableEntity, errMsg: err.Error()}
}

// respond folds a plan into the 200 outcome, echoing the configuration
// it was actually built with (under brownout that is the substituted
// cheap one, so clients can see what they got).
func (s *Server) respond(cfg planConfig, plan *pipeline.Plan, quality pipeline.Quality) planOutcome {
	// Serving a key whose static ring owner is elsewhere means the
	// owner missed it (unreachable, or restarted cold): remember to
	// hand the plan off when it is reachable again.
	s.maybeHint(plan.Key)
	proof := ""
	if cfg.verify != verifyOff {
		if o := plan.Verdict.Proof; int(o) < numVerifyOutcomes {
			s.verifyTotals[cfg.verify][o].Add(1)
		}
		proof = plan.Verdict.Proof.String()
	}
	return planOutcome{
		code:    http.StatusOK,
		quality: quality,
		key:     plan.Key,
		resp: &PlanResponse{
			Metric:             cfg.metric.Name(),
			WCET:               cfg.strategy.String(),
			Dispatcher:         cfg.disp.Name,
			Feasible:           plan.Verdict.Feasible,
			OverConstrained:    plan.Verdict.OverConstrained,
			ProvablyInfeasible: plan.Verdict.ProvablyInfeasible,
			Proof:              proof,
			MaxLateness:        int64(plan.Verdict.MaxLateness),
			MinLaxity:          int64(plan.Verdict.MinLaxity),
			Result:             graphio.EncodeResult(plan.Assignment, plan.Schedule),
			PlanningMS:         float64(plan.Stats.Total()) / float64(time.Millisecond),
			Quality:            quality.String(),
		},
	}
}

// qualityHeader carries the served quality ("full" or "degraded") on
// every 200 from /plan.
const qualityHeader = "X-Plan-Quality"

// countOutcome advances the outcome counters for one planned item.
func (s *Server) countOutcome(o planOutcome) {
	switch o.code {
	case http.StatusOK:
		s.served.Add(1)
		if o.quality == pipeline.QualityDegraded {
			s.plansDegraded.Add(1)
		} else {
			s.plansFull.Add(1)
		}
	case http.StatusTooManyRequests:
		s.throttled.Add(1)
	case http.StatusServiceUnavailable:
		s.refused.Add(1)
	case http.StatusGatewayTimeout:
		s.expired.Add(1)
	default:
		s.rejected.Add(1)
	}
}

// writeOutcome renders a planOutcome as the HTTP answer of /plan.
func (s *Server) writeOutcome(w http.ResponseWriter, o planOutcome) {
	s.countOutcome(o)
	if o.retryAfter {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	if o.code == http.StatusOK {
		w.Header().Set(qualityHeader, o.quality.String())
		writePlan(w, o.resp)
		return
	}
	writeJSON(w, o.code, errorResponse{Error: o.errMsg})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
