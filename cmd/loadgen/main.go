// Command loadgen drives a pland fleet through a timed load profile
// using the fault-tolerant fleet client (consistent-hash routing,
// retries, hedging, circuit breakers) and writes a JSON summary of
// what the fleet delivered: request availability split by criticality,
// served quality (full vs brownout-degraded), latency percentiles, the
// client's retry/hedge/breaker counters, and the fleet-wide
// build/hit/shed accounting scraped from every peer's /metrics.
//
//	go run ./cmd/loadgen -peers p0=http://127.0.0.1:18080,p1=...,p2=... \
//	    -duration 30s -concurrency 8 -out BENCH_serve.json
//
// Two load modes:
//
//   - closed loop (default): -concurrency workers each issue the next
//     request when the previous answers, so offered load adapts to the
//     fleet's speed;
//   - open loop (-rate R): requests launch at R per second regardless
//     of responses, capped at -max-outstanding in flight — the honest
//     way to model overload, where clients do not slow down just
//     because the service did.
//
// A fraction of requests (-optional-frac) is marked
// X-Plan-Criticality: optional, so an overloaded or degraded fleet
// sheds them first; -min-mandatory-availability turns the run into an
// assertion (non-zero exit below the bar). Policy refusals — 429 and
// 503, both carrying Retry-After — count as shed, not failed: the
// availability bar measures whether the fleet answered within its
// overload contract, and only transport errors and unexpected statuses
// count against it.
//
// With -overload-rate set, a second phase follows the main one: fresh,
// never-repeated workloads (every request a guaranteed cold build) at
// the given open-loop rate for -overload-duration, reported separately
// under "overload" with the brownout counters scraped from the fleet
// and the client's counters across the storm.
// scripts/overload-smoke.sh uses it to drive the fleet past its
// sustainable rate and assert the brownout ladder degrades service
// instead of failing it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/client"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/pipeline"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// Report is the JSON document loadgen emits (BENCH_serve.json).
type Report struct {
	Config    Config         `json:"config"`
	Requests  Requests       `json:"requests"`
	LatencyMS Latency        `json:"latency_ms"`
	Client    ClientSnap     `json:"client"`
	Fleet     Fleet          `json:"fleet"`
	Overload  *OverloadPhase `json:"overload,omitempty"`
}

// Config echoes the run parameters.
type Config struct {
	Peers            []string `json:"peers"`
	Duration         string   `json:"duration"`
	Concurrency      int      `json:"concurrency"`
	Rate             float64  `json:"rate,omitempty"`
	Workloads        int      `json:"workloads"`
	Tasks            int      `json:"tasks,omitempty"`
	OptionalFrac     float64  `json:"optionalFrac"`
	Seed             int64    `json:"seed"`
	OverloadRate     float64  `json:"overloadRate,omitempty"`
	OverloadDuration string   `json:"overloadDuration,omitempty"`
}

// Tier is one criticality tier's request accounting. Degraded counts
// 200s served under brownout at reduced quality; they are a subset of
// OK — a degraded answer is a served answer.
type Tier struct {
	Total        int64   `json:"total"`
	OK           int64   `json:"ok"`
	Degraded     int64   `json:"degraded"`
	Shed         int64   `json:"shed"`
	Failed       int64   `json:"failed"`
	Availability float64 `json:"availability"`
}

// Requests is the end-to-end request accounting. Aborted counts
// requests cut off by the run deadline itself; they are excluded from
// every tier and from availability.
type Requests struct {
	Total     int64 `json:"total"`
	Aborted   int64 `json:"aborted"`
	Mandatory Tier  `json:"mandatory"`
	Optional  Tier  `json:"optional"`
}

// Latency is the successful-request latency distribution.
type Latency struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

// OverloadPhase is the second-phase report: fresh workloads offered
// open-loop past the sustainable rate, plus the brownout accounting
// the fleet exported afterwards.
type OverloadPhase struct {
	Rate      float64  `json:"rate"`
	Duration  string   `json:"duration"`
	Requests  Requests `json:"requests"`
	LatencyMS Latency  `json:"latency_ms"`
	// Dropped counts requests the open loop never launched because the
	// outstanding cap was full — offered load the client itself shed.
	Dropped int64 `json:"dropped"`
	// Client is the fleet client's counters across this phase alone.
	Client ClientSnap `json:"client"`
	// Fleet-wide brownout counters scraped after the phase.
	PlansFull           float64 `json:"plansFull"`
	PlansDegraded       float64 `json:"plansDegraded"`
	AdmissionShed       float64 `json:"admissionShed"`
	CacheOnlyMisses     float64 `json:"cacheOnlyMisses"`
	BrownoutTransitions float64 `json:"brownoutTransitions"`
	// BrownoutLevelMax is the deepest rung any peer still reported at
	// scrape time (gauges, so 0 after a full recovery).
	BrownoutLevelMax float64 `json:"brownoutLevelMax"`
}

// ClientSnap folds the fleet client's reliability counters. The
// report's top-level section counts the main phase; the overload
// phase's counts the storm alone.
type ClientSnap struct {
	Attempts        int64 `json:"attempts"`
	Retries         int64 `json:"retries"`
	Hedges          int64 `json:"hedges"`
	HedgeWins       int64 `json:"hedgeWins"`
	BreakerRefusals int64 `json:"breakerRefusals"`
	BreakerOpens    int64 `json:"breakerOpens"`
	BreakerCloses   int64 `json:"breakerCloses"`
	ConnectRefused  int64 `json:"connectRefused"`
	Timeouts        int64 `json:"timeouts"`
	HTTPFailures    int64 `json:"httpFailures"`
}

// PeerStats is one peer's /metrics accounting after the run.
type PeerStats struct {
	Peer          string  `json:"peer"`
	Scraped       bool    `json:"scraped"`
	Builds        float64 `json:"builds"`
	CacheHits     float64 `json:"cacheHits"`
	Coalesced     float64 `json:"coalesced"`
	ShedOptional  float64 `json:"shedOptional"`
	ShedMandatory float64 `json:"shedMandatory"`
	// PlansFull/PlansDegraded split 200s by served quality; the
	// admission and brownout counters account the overload machinery.
	PlansFull           float64 `json:"plansFull"`
	PlansDegraded       float64 `json:"plansDegraded"`
	AdmissionShed       float64 `json:"admissionShed"`
	CacheOnlyMisses     float64 `json:"cacheOnlyMisses"`
	BrownoutTransitions float64 `json:"brownoutTransitions"`
	BrownoutLevel       float64 `json:"brownoutLevel"`
	// WarmFillPulled/Pushed and SnapshotLoaded account the recovery
	// machinery: plans replicated in from peer digests, hinted plans
	// handed back to a returned owner, and plans restored from a local
	// snapshot on start.
	WarmFillPulled float64 `json:"warmFillPulled"`
	WarmFillPushed float64 `json:"warmFillPushed"`
	SnapshotLoaded float64 `json:"snapshotLoaded"`
}

// Fleet sums the per-peer accounting. Builds against Workloads is the
// duplicate-cold-build check: a healthy fleet builds each distinct
// fingerprint exactly once; peer deaths can migrate a key to a second
// builder, never more per incident.
type Fleet struct {
	Builds        float64 `json:"builds"`
	CacheHits     float64 `json:"cacheHits"`
	Coalesced     float64 `json:"coalesced"`
	ShedOptional  float64 `json:"shedOptional"`
	ShedMandatory float64 `json:"shedMandatory"`
	PlansFull     float64 `json:"plansFull"`
	PlansDegraded float64 `json:"plansDegraded"`
	// RecoveryRebuilds is max(0, Builds − Workloads): cold builds in
	// excess of one per distinct fingerprint, i.e. the rebuilds paid
	// because a key's plan was not where a request landed (owner dead,
	// peer restarted cold). With snapshots and warm fill on, it should
	// be 0 even across blackouts and kills.
	RecoveryRebuilds float64     `json:"recoveryRebuilds"`
	WarmFillPulled   float64     `json:"warmFillPulled"`
	WarmFillPushed   float64     `json:"warmFillPushed"`
	SnapshotLoaded   float64     `json:"snapshotLoaded"`
	Peers            []PeerStats `json:"peers"`
}

func run(ctx context.Context, args []string, stdout, logw io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(logw)
	peersSpec := fs.String("peers", "", "fleet peer list (name=url,... or url,...)")
	duration := fs.Duration("duration", 20*time.Second, "how long to generate load")
	concurrency := fs.Int("concurrency", 8, "parallel request workers (closed loop)")
	rate := fs.Float64("rate", 0, "open-loop request rate per second (0 = closed loop)")
	maxOutstanding := fs.Int("max-outstanding", 256, "open-loop in-flight cap; launches beyond it are dropped")
	workloads := fs.Int("workloads", 12, "distinct workloads cycled through (each is one fingerprint)")
	tasks := fs.Int("tasks", 0, "tasks per generated workload (0 = generator default); bigger graphs plan slower")
	optionalFrac := fs.Float64("optional-frac", 0.25, "fraction of requests marked optional criticality")
	seed := fs.Int64("seed", 1, "workload and traffic seed")
	hedgeAfter := fs.Duration("hedge-after", 100*time.Millisecond, "hedge to the next peer after this wait (0 disables)")
	attemptTimeout := fs.Duration("attempt-timeout", 5*time.Second, "per-attempt timeout")
	overloadRate := fs.Float64("overload-rate", 0, "run a second phase at this open-loop rate with fresh workloads (0 disables)")
	overloadDuration := fs.Duration("overload-duration", 10*time.Second, "length of the overload phase")
	minMandatory := fs.Float64("min-mandatory-availability", 0, "fail the run when mandatory availability lands below this (0 disables)")
	out := fs.String("out", "-", "report path (- for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *peersSpec == "" {
		return errors.New("-peers is required")
	}
	peers, err := cluster.ParsePeers(*peersSpec)
	if err != nil {
		return fmt.Errorf("-peers: %w", err)
	}
	ring, err := cluster.NewRing(peers)
	if err != nil {
		return fmt.Errorf("-peers: %w", err)
	}
	// One shared transport with generous keep-alive pools: every worker
	// reuses warm connections instead of paying a TCP handshake per
	// request, which matters exactly when the point is to measure the
	// fleet and not the dialer.
	transport := &http.Transport{
		MaxIdleConns:        4 * *maxOutstanding,
		MaxIdleConnsPerHost: *maxOutstanding,
		IdleConnTimeout:     90 * time.Second,
	}
	defer transport.CloseIdleConnections()
	cl := client.New(ring, client.Options{
		HedgeAfter:     *hedgeAfter,
		AttemptTimeout: *attemptTimeout,
		Transport:      transport,
		Seed:           *seed,
	})
	scraper := &http.Client{Timeout: 2 * time.Second, Transport: transport}

	gcfg := gen.Default(3)
	if *tasks > 0 {
		gcfg.MinTasks, gcfg.MaxTasks = *tasks, *tasks
	}

	// Pre-generate the main-phase workload set; each distinct seed is
	// one fingerprint, routed to one ring owner.
	bodies := make([][]byte, *workloads)
	keys := make([]uint64, *workloads)
	for i := range bodies {
		keys[i], bodies[i], err = makeWorkload(gcfg, *seed+int64(i))
		if err != nil {
			return fmt.Errorf("workload %d: %w", i, err)
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// The rise callback expires a returned peer's breaker cooldown, so
	// traffic resumes within one probe interval of recovery.
	prober := cluster.NewProber(ring, cluster.ProberOptions{
		Interval: 250 * time.Millisecond,
		OnRise:   func(p *cluster.Peer) { cl.NoteRisen(p.Name) },
	})
	go prober.Run(runCtx)

	mode := "closed loop"
	if *rate > 0 {
		mode = fmt.Sprintf("open loop at %.1f req/s", *rate)
	}
	fmt.Fprintf(logw, "loadgen: %s, %d workloads, %v against %d peers\n",
		mode, *workloads, *duration, len(peers))
	main := runPhase(runCtx, phaseConfig{
		client:       cl,
		duration:     *duration,
		rate:         *rate,
		workers:      *concurrency,
		maxOut:       *maxOutstanding,
		optionalFrac: *optionalFrac,
		seed:         *seed,
		source: func(rnd *rand.Rand, _ int64) (uint64, []byte, error) {
			i := rnd.Intn(len(bodies))
			return keys[i], bodies[i], nil
		},
	})

	snap := cl.Snap()
	rep := Report{
		Config: Config{
			Peers:        peerNames(peers),
			Duration:     duration.String(),
			Concurrency:  *concurrency,
			Rate:         *rate,
			Workloads:    *workloads,
			Tasks:        *tasks,
			OptionalFrac: *optionalFrac,
			Seed:         *seed,
		},
		Requests:  main.req,
		LatencyMS: percentiles(main.latencies),
		Client:    clientDelta(snap, client.Snapshot{}),
	}

	// distinct counts every fingerprint offered; the overload phase's
	// fresh workloads push it up so the final fleet scrape does not
	// mistake their legitimate cold builds for recovery rebuilds.
	distinct := int64(*workloads)
	if *overloadRate > 0 {
		rep.Config.OverloadRate = *overloadRate
		rep.Config.OverloadDuration = overloadDuration.String()
		fmt.Fprintf(logw, "loadgen: overload phase, fresh workloads open loop at %.1f req/s for %v\n",
			*overloadRate, *overloadDuration)
		before := scrapeFleet(scraper, peers, *workloads)
		var uniq atomic.Int64
		ov := runPhase(runCtx, phaseConfig{
			client:       cl,
			duration:     *overloadDuration,
			rate:         *overloadRate,
			workers:      *concurrency,
			maxOut:       *maxOutstanding,
			optionalFrac: *optionalFrac,
			seed:         *seed + 1_000_003,
			// Every overload request is a fresh fingerprint: a
			// guaranteed cold build somewhere, which is what actually
			// saturates planning capacity (the main phase's cycled set
			// is all cache hits after the first lap).
			source: func(_ *rand.Rand, _ int64) (uint64, []byte, error) {
				return makeWorkload(gcfg, *seed+2_000_003+uniq.Add(1))
			},
		})
		storm := clientDelta(cl.Snap(), snap)
		after := scrapeFleet(scraper, peers, *workloads)
		rep.Overload = &OverloadPhase{
			Rate:                *overloadRate,
			Duration:            overloadDuration.String(),
			Requests:            ov.req,
			LatencyMS:           percentiles(ov.latencies),
			Dropped:             ov.dropped,
			Client:              storm,
			PlansFull:           after.PlansFull - before.PlansFull,
			PlansDegraded:       after.PlansDegraded - before.PlansDegraded,
			AdmissionShed:       sumPeer(after, func(p PeerStats) float64 { return p.AdmissionShed }) - sumPeer(before, func(p PeerStats) float64 { return p.AdmissionShed }),
			CacheOnlyMisses:     sumPeer(after, func(p PeerStats) float64 { return p.CacheOnlyMisses }) - sumPeer(before, func(p PeerStats) float64 { return p.CacheOnlyMisses }),
			BrownoutTransitions: sumPeer(after, func(p PeerStats) float64 { return p.BrownoutTransitions }) - sumPeer(before, func(p PeerStats) float64 { return p.BrownoutTransitions }),
			BrownoutLevelMax:    maxPeer(after, func(p PeerStats) float64 { return p.BrownoutLevel }),
		}
		distinct += uniq.Load()
	}

	rep.Fleet = scrapeFleet(scraper, peers, int(distinct))

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "-" {
		_, err = stdout.Write(enc)
	} else {
		err = os.WriteFile(*out, enc, 0o644)
	}
	if err != nil {
		return err
	}
	req := rep.Requests
	fmt.Fprintf(logw, "loadgen: mandatory availability %.4f (%d/%d ok, %d degraded, %d shed, %d failed), %d builds fleet-wide (%d recovery rebuilds, %d warm-fills)\n",
		req.Mandatory.Availability, req.Mandatory.OK, req.Mandatory.Total,
		req.Mandatory.Degraded, req.Mandatory.Shed, req.Mandatory.Failed, int(rep.Fleet.Builds),
		int(rep.Fleet.RecoveryRebuilds), int(rep.Fleet.WarmFillPulled))
	if ov := rep.Overload; ov != nil {
		fmt.Fprintf(logw, "loadgen: overload mandatory availability %.4f (%d ok, %d degraded, %d shed, %d failed, %d dropped), fleet served %d degraded plans\n",
			ov.Requests.Mandatory.Availability, ov.Requests.Mandatory.OK,
			ov.Requests.Mandatory.Degraded, ov.Requests.Mandatory.Shed,
			ov.Requests.Mandatory.Failed, ov.Dropped, int(ov.PlansDegraded))
	}
	if *minMandatory > 0 {
		if req.Mandatory.Availability < *minMandatory {
			return fmt.Errorf("mandatory availability %.4f below the %.4f bar",
				req.Mandatory.Availability, *minMandatory)
		}
		if ov := rep.Overload; ov != nil && ov.Requests.Mandatory.Availability < *minMandatory {
			return fmt.Errorf("overload mandatory availability %.4f below the %.4f bar",
				ov.Requests.Mandatory.Availability, *minMandatory)
		}
	}
	return nil
}

// clientDelta folds the fleet client's counters gained from before to
// now into the report's form.
func clientDelta(now, before client.Snapshot) ClientSnap {
	failures := func(k cluster.ErrKind) int64 { return now.Failures[int(k)] - before.Failures[int(k)] }
	return ClientSnap{
		Attempts:        now.Attempts - before.Attempts,
		Retries:         now.Retries - before.Retries,
		Hedges:          now.Hedges - before.Hedges,
		HedgeWins:       now.HedgeWins - before.HedgeWins,
		BreakerRefusals: now.BreakerRefusals - before.BreakerRefusals,
		BreakerOpens:    now.BreakerOpens - before.BreakerOpens,
		BreakerCloses:   now.BreakerCloses - before.BreakerCloses,
		ConnectRefused:  failures(cluster.ConnectRefused),
		Timeouts:        failures(cluster.Timeout),
		HTTPFailures:    failures(cluster.HTTPStatus),
	}
}

// makeWorkload generates one workload from a seed and returns its
// fingerprint and serialized body.
func makeWorkload(gcfg gen.Config, seed int64) (uint64, []byte, error) {
	gcfg.Seed = seed
	w := gen.MustGenerate(gcfg)
	var buf bytes.Buffer
	if err := graphio.WriteWorkload(&buf, w.Graph, w.Platform); err != nil {
		return 0, nil, err
	}
	return pipeline.Fingerprint(w.Graph, w.Platform), buf.Bytes(), nil
}

// phaseConfig shapes one load phase.
type phaseConfig struct {
	client       *client.Client
	duration     time.Duration
	rate         float64 // 0 = closed loop
	workers      int
	maxOut       int
	optionalFrac float64
	seed         int64
	// source yields the next request's key and body; n is the launch
	// ordinal.
	source func(rnd *rand.Rand, n int64) (uint64, []byte, error)
}

// phaseResult is one phase's accounting.
type phaseResult struct {
	req       Requests
	latencies []float64
	dropped   int64
}

// runPhase drives one load phase, closed- or open-loop, and accounts
// every answer: 2xx is OK (degraded when the peer says so), 429/503 is
// shed (a policy refusal within the overload contract), anything else
// is failed.
func runPhase(ctx context.Context, cfg phaseConfig) phaseResult {
	phaseCtx, cancel := context.WithTimeout(ctx, cfg.duration)
	defer cancel()

	var (
		mu  sync.Mutex
		res phaseResult
	)
	record := func(crit string, lat time.Duration, status int, quality string, err error, aborted bool) {
		mu.Lock()
		defer mu.Unlock()
		res.req.Total++
		if aborted {
			res.req.Aborted++
			return
		}
		tier := &res.req.Mandatory
		if crit == "optional" {
			tier = &res.req.Optional
		}
		tier.Total++
		switch {
		case err == nil && status >= 200 && status < 300:
			tier.OK++
			if quality == "degraded" {
				tier.Degraded++
			}
			res.latencies = append(res.latencies, float64(lat)/float64(time.Millisecond))
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			tier.Shed++
		default:
			tier.Failed++
		}
	}

	one := func(rnd *rand.Rand, n int64) {
		key, body, err := cfg.source(rnd, n)
		if err != nil {
			record("mandatory", 0, 0, "", err, false)
			return
		}
		crit := "mandatory"
		if rnd.Float64() < cfg.optionalFrac {
			crit = "optional"
		}
		startAt := time.Now()
		r, err := cfg.client.Do(phaseCtx, client.PlanRequest{
			Key:         key,
			Criticality: crit,
			Body:        body,
		})
		status, quality := 0, ""
		if r != nil {
			status, quality = r.Status, r.Quality
		}
		// A request cut off by the phase deadline is an artifact of
		// stopping, not a service failure.
		aborted := err != nil && phaseCtx.Err() != nil
		record(crit, time.Since(startAt), status, quality, err, aborted)
	}

	var wg sync.WaitGroup
	if cfg.rate <= 0 {
		for w := 0; w < cfg.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rnd := rand.New(rand.NewSource(cfg.seed + int64(w)*7919))
				for phaseCtx.Err() == nil {
					one(rnd, 0)
				}
			}(w)
		}
		wg.Wait()
		finalize(&res.req)
		return res
	}

	// Open loop: launches keep pace with the offered rate; the
	// outstanding cap bounds client memory, and launches it refuses are
	// reported as dropped rather than silently rescheduled — offered load
	// does not bend to the fleet's speed. A ticker fires at most about
	// once a millisecond however short its interval, so it ticks at most
	// once a millisecond and each tick launches every request due by
	// then: past 1,000/s one tick launches several.
	interval := max(time.Duration(float64(time.Second)/cfg.rate), time.Millisecond)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	sem := make(chan struct{}, cfg.maxOut)
	start := time.Now()
	var n int64
	for phaseCtx.Err() == nil {
		select {
		case <-phaseCtx.Done():
		case now := <-ticker.C:
			for due := int64(now.Sub(start).Seconds() * cfg.rate); n < due; {
				n++
				select {
				case sem <- struct{}{}:
					wg.Add(1)
					go func(n int64) {
						defer wg.Done()
						defer func() { <-sem }()
						one(rand.New(rand.NewSource(cfg.seed+n*7919)), n)
					}(n)
				default:
					mu.Lock()
					res.dropped++
					mu.Unlock()
				}
			}
		}
	}
	wg.Wait()
	finalize(&res.req)
	return res
}

// finalize computes each tier's availability: the fraction of answered
// requests the fleet handled within its contract — served (at any
// quality) or refused with an honest policy answer.
func finalize(req *Requests) {
	for _, t := range []*Tier{&req.Mandatory, &req.Optional} {
		if t.Total > 0 {
			t.Availability = float64(t.OK+t.Shed) / float64(t.Total)
		} else {
			t.Availability = 1
		}
	}
}

func peerNames(peers []*cluster.Peer) []string {
	names := make([]string, len(peers))
	for i, p := range peers {
		names[i] = p.Name
	}
	return names
}

// percentiles summarizes successful-request latencies in milliseconds
// using the nearest-rank definition: the q-quantile of N samples is the
// ⌈q·N⌉-th smallest. Flooring a linear index instead (the old rounding)
// collapses upper tails on small samples — p999 of 10 samples must be
// the maximum, not the 9th value — and can never reach the last rank.
func percentiles(ms []float64) Latency {
	if len(ms) == 0 {
		return Latency{}
	}
	sort.Float64s(ms)
	at := func(q float64) float64 {
		rank := int(math.Ceil(q * float64(len(ms))))
		if rank < 1 {
			rank = 1
		}
		if rank > len(ms) {
			rank = len(ms)
		}
		return ms[rank-1]
	}
	return Latency{P50: at(0.50), P90: at(0.90), P95: at(0.95), P99: at(0.99), P999: at(0.999), Max: ms[len(ms)-1]}
}

func sumPeer(fl Fleet, f func(PeerStats) float64) float64 {
	var s float64
	for _, p := range fl.Peers {
		s += f(p)
	}
	return s
}

func maxPeer(fl Fleet, f func(PeerStats) float64) float64 {
	var m float64
	for _, p := range fl.Peers {
		if v := f(p); v > m {
			m = v
		}
	}
	return m
}

// scrapeFleet reads every peer's /metrics and sums the build/hit/shed
// accounting. A peer that died during the run (chaos, kill) simply
// reports scraped=false. workloads is the distinct fingerprint count,
// the floor against which recovery rebuilds are measured.
func scrapeFleet(c *http.Client, peers []*cluster.Peer, workloads int) Fleet {
	var fl Fleet
	for _, p := range peers {
		ps := PeerStats{Peer: p.Name}
		if text, err := fetchMetrics(c, p.URL); err == nil {
			ps.Scraped = true
			ps.Builds = sample(text, `pland_builds_total`)
			ps.CacheHits = sample(text, `pland_cache_hits_total`)
			ps.Coalesced = sample(text, `pland_coalesced_builds_total`)
			ps.ShedOptional = sample(text, `pland_shed_total\{criticality="optional"\}`)
			ps.ShedMandatory = sample(text, `pland_shed_total\{criticality="mandatory"\}`)
			ps.PlansFull = sample(text, `pland_plans_total\{quality="full"\}`)
			ps.PlansDegraded = sample(text, `pland_plans_total\{quality="degraded"\}`)
			ps.AdmissionShed = sample(text, `pland_admission_shed_total`)
			ps.CacheOnlyMisses = sample(text, `pland_cache_only_total\{outcome="miss"\}`)
			ps.BrownoutTransitions = sample(text, `pland_brownout_transitions_total`)
			ps.BrownoutLevel = sample(text, `pland_brownout_level`)
			ps.WarmFillPulled = sample(text, `pland_warmfill_pulled_total`)
			ps.WarmFillPushed = sample(text, `pland_warmfill_pushed_total`)
			ps.SnapshotLoaded = sample(text, `pland_snapshot_loaded_plans_total`)
			fl.Builds += ps.Builds
			fl.CacheHits += ps.CacheHits
			fl.Coalesced += ps.Coalesced
			fl.ShedOptional += ps.ShedOptional
			fl.ShedMandatory += ps.ShedMandatory
			fl.PlansFull += ps.PlansFull
			fl.PlansDegraded += ps.PlansDegraded
			fl.WarmFillPulled += ps.WarmFillPulled
			fl.WarmFillPushed += ps.WarmFillPushed
			fl.SnapshotLoaded += ps.SnapshotLoaded
		}
		fl.Peers = append(fl.Peers, ps)
	}
	if fl.Builds > float64(workloads) {
		fl.RecoveryRebuilds = fl.Builds - float64(workloads)
	}
	return fl
}

func fetchMetrics(c *http.Client, url string) (string, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("/metrics: %d", resp.StatusCode)
	}
	return string(raw), nil
}

// sample pulls one sample value out of a Prometheus text exposition;
// a missing metric reads as 0.
func sample(text, pattern string) float64 {
	re := regexp.MustCompile(`(?m)^` + pattern + ` (\S+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		return 0
	}
	v, _ := strconv.ParseFloat(m[1], 64)
	return v
}
