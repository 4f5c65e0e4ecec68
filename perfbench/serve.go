package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/deadline"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/slicing"
	"repro/internal/verify"
	"repro/internal/wcet"
)

const (
	// defaultSeed is the seed claims are made on; README.md names the
	// held-out seed a claim must also hold on.
	defaultSeed = 1
	// planQuery is the one request configuration of every serve
	// workload: ADAPT-L slicing, WCET-AVG estimates, the paper's
	// time-driven dispatcher, analytic proof with replay fallback.
	planQuery = "metric=ADAPT-L&wcet=WCET-AVG&dispatcher=time-driven&verify=analytic-first"
	// graphTasks is the standard workload size of the pipeline benches.
	graphTasks = 120
	// warmSet is the number of distinct workloads serve-hot and
	// serve-routed cycle through.
	warmSet = 256
	// cacheCapacity is pland's default plan cache capacity, which
	// serve-cold fills before timing.
	cacheCapacity = 4096
	// fillInputs bounds the workloads serve-cold's set-up may send. The
	// cache is striped into 16 LRU shards of 256 plans, so it is full
	// only once every shard is: a median of about 4,550 distinct
	// workloads, and 5,000 in 99 of 100 key draws.
	fillInputs = 5632
	// fillBatch is how many more workloads each top-up round sends.
	fillBatch = 128
	// coldPerSecond sizes serve-cold's never-seen workload set per
	// timed second: 1.8–2× the 675–790 ops/s medians measured on a
	// 2-vCPU machine. A program that exhausts the set ends the phase
	// early and is measured over the shorter phase.
	coldPerSecond = 1400
	// clients is the closed loop's width: one per CPU of the 2-vCPU
	// target, each with one keep-alive connection.
	clients = 2
	// setupRepeats is how many times a run sets its system up; setup_s
	// is the median.
	setupRepeats = 3
)

// Input streams: input i of a stream is generated from seed
// inputSeed(seed, stream, i).
const (
	streamWarm = iota * 1_000_003
	streamFill
	streamCold
)

// inputSeed is the generator seed of input i of a stream. math/rand
// reduces a seed modulo 2^31−1, so seeds spread over 64 bits would
// collide within serve-cold's 20,000 inputs about one run in ten, and
// the repeated workload would be a cache hit. Consecutive seeds from
// one base per run never collide.
func inputSeed(seed int64, stream, i int) int64 {
	const span = 1<<31 - 1 - 1<<24 // leaves every stream room below 2^31−1
	return int64(uint64(gen.SubSeed(seed, 0))%span) + int64(stream+i) + 1
}

// input is one generated workload: its request body and fingerprint.
type input struct {
	body []byte
	key  uint64
}

// forEach calls f(worker, i) for every i in [0, n) on `clients`
// goroutines, each i once, and returns the errors f reported.
func forEach(n int, f func(worker, i int) error) []error {
	var mu sync.Mutex
	var errs []error
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if err := f(w, i); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return errs
}

// genInputs generates n standard workloads of one seed stream.
func genInputs(seed int64, stream, n int) ([]input, error) {
	out := make([]input, n)
	errs := forEach(n, func(_, i int) error {
		cfg := gen.Default(3)
		cfg.MinTasks, cfg.MaxTasks = graphTasks, graphTasks
		cfg.Seed = inputSeed(seed, stream, i)
		w, err := gen.Generate(cfg)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := graphio.WriteWorkload(&buf, w.Graph, w.Platform); err != nil {
			return err
		}
		out[i] = input{buf.Bytes(), pipeline.Fingerprint(w.Graph, w.Platform)}
		return nil
	})
	if len(errs) > 0 {
		return nil, fmt.Errorf("generating inputs: %w", errs[0])
	}
	return out, nil
}

// newClients returns one HTTP client per closed-loop client, each
// holding exactly one keep-alive connection per host.
func newClients() []*http.Client {
	hcs := make([]*http.Client, clients)
	for i := range hcs {
		hcs[i] = &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		}
	}
	return hcs
}

func closeClients(hcs []*http.Client) {
	for _, c := range hcs {
		c.CloseIdleConnections()
	}
}

// answer is one /plan response.
type answer struct {
	status  int
	quality string // X-Plan-Quality
	peer    string // X-Plan-Peer, set when a peer proxied the request
	body    []byte
}

// post sends one plan request and reads the whole answer into buf; the
// returned latency runs from send to the last response byte.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) (answer, time.Duration, error) {
	start := time.Now()
	resp, err := c.Post(url+"/plan?"+planQuery, "application/json", bytes.NewReader(body))
	if err != nil {
		return answer{}, time.Since(start), err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	return answer{resp.StatusCode, resp.Header.Get("X-Plan-Quality"), resp.Header.Get("X-Plan-Peer"), buf.Bytes()}, lat, err
}

// checkFull checks an answer was served at full quality. pland's relay
// of a proxied answer drops the owner's X-Plan-Quality header
// (internal/server/route.go), so for those the quality is read from the
// body.
func checkFull(a answer) error {
	if a.quality == "full" {
		return nil
	}
	if relayed(a) {
		var pr struct {
			Quality string `json:"quality"`
		}
		if err := json.Unmarshal(a.body, &pr); err == nil && pr.Quality == "full" {
			return nil
		}
	}
	return fmt.Errorf("answer quality %q, want full", a.quality)
}

// relayed reports an answer a peer proxied without its quality header.
func relayed(a answer) bool { return a.quality == "" && a.peer != "" }

// windows is how many equal windows a timed phase is cut into; every
// end-to-end figure but setup_s and max_rss_mb is the median of its
// per-window values, so a burst of contention from the machine's other
// tenants moves at most the windows it falls in.
const windows = 8

// closedLoop runs `clients` goroutines, each issuing op(client, k) for
// its k-th operation until d has passed or op reports no more input,
// and samples cpu at every window boundary. The phase ends when the
// last operation started before the deadline completes; operations
// completing after the deadline belong to the last window. A phase that
// runs out of input early has fewer windows.
func closedLoop(d time.Duration, cpu func() (time.Duration, error), op func(client, k int) (opRecord, bool)) (*phase, error) {
	recs := make([][]opRecord, clients)
	ph := &phase{window: d / windows}
	c0, err := cpu()
	if err != nil {
		return nil, err
	}
	ph.cpuAt = append(ph.cpuAt, c0)
	start := time.Now()
	deadline := start.Add(d)
	finished := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				r, more := op(c, k)
				if !more {
					return
				}
				r.done = time.Since(start)
				recs[c] = append(recs[c], r)
			}
		}(c)
	}
	go func() {
		wg.Wait()
		close(finished)
	}()
sample:
	for w := 1; w < windows; w++ {
		select {
		case <-time.After(time.Until(start.Add(time.Duration(w) * ph.window))):
		case <-finished:
			break sample
		}
		cw, err := cpu()
		if err != nil {
			<-finished
			return nil, err
		}
		ph.cpuAt = append(ph.cpuAt, cw)
	}
	<-finished
	ph.wall = time.Since(start)
	cend, err := cpu()
	if err != nil {
		return nil, err
	}
	ph.cpuAt = append(ph.cpuAt, cend)
	for _, r := range recs {
		ph.ops = append(ph.ops, r...)
	}
	return ph, nil
}

// fleet is the set of pland processes one serve run measures.
type fleet struct {
	peers []*pland
}

func (f *fleet) stop() {
	for _, p := range f.peers {
		p.stop()
	}
}

// cpu sums the peers' consumed CPU time.
func (f *fleet) cpu() (time.Duration, error) {
	var sum time.Duration
	for _, p := range f.peers {
		d, err := procCPU(p.pid())
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// resetPeakRSS restarts every peer's peak resident set count.
func (f *fleet) resetPeakRSS() error {
	for _, p := range f.peers {
		if err := resetPeakRSS(fmt.Sprint(p.pid())); err != nil {
			return err
		}
	}
	return nil
}

// peakRSS sums the peers' peak resident sets.
func (f *fleet) peakRSS() (float64, error) {
	var sum float64
	for _, p := range f.peers {
		v, err := procPeakRSS(fmt.Sprint(p.pid()))
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// scrape reads every peer's /metrics and sums same-named series.
func (f *fleet) scrape(c *http.Client) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, p := range f.peers {
		m, err := scrape(c, p.url)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", p.name, err)
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// ring rebuilds the fleet's consistent-hash ring from its peer list.
func (f *fleet) ring() (*cluster.Ring, error) {
	var peers []*cluster.Peer
	for _, p := range f.peers {
		peers = append(peers, &cluster.Peer{Name: p.name, URL: p.url})
	}
	return cluster.NewRing(peers)
}

// startFleet starts n pland peers (a single node when n is 1) and
// waits until each answers /healthz and, in fleet mode, sees every
// other peer up. A peer that exits during start-up most likely lost its
// free port to another socket, so start-up is retried on fresh ports.
func startFleet(o options, n int) (*fleet, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var f *fleet
		if f, err = tryStartFleet(o, n); err == nil {
			return f, nil
		}
		if !errors.Is(err, errExited) {
			break
		}
	}
	return nil, err
}

func tryStartFleet(o options, n int) (*fleet, error) {
	addrs := make([]string, n)
	var spec string
	for i := range addrs {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", port)
		if i > 0 {
			spec += ","
		}
		spec += fmt.Sprintf("p%d=http://%s", i, addrs[i])
	}
	f := &fleet{}
	for i, addr := range addrs {
		var extra []string
		if n > 1 {
			extra = []string{"-peers", spec, "-self", fmt.Sprintf("p%d", i)}
		}
		p, err := startPland(o, fmt.Sprintf("p%d", i), addr, extra...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.peers = append(f.peers, p)
	}
	hcs := newClients()
	defer closeClients(hcs)
	for _, p := range f.peers {
		if err := p.waitHealthy(hcs[0]); err != nil {
			f.stop()
			return nil, err
		}
	}
	if n > 1 {
		if err := f.waitPeersUp(hcs[0]); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// waitPeersUp waits until every peer's prober reports every peer up.
func (f *fleet) waitPeersUp(c *http.Client) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		up := true
		for _, p := range f.peers {
			m, err := scrape(c, p.url)
			if err != nil {
				return err
			}
			for _, q := range f.peers {
				if m[fmt.Sprintf("pland_peer_up{peer=%q}", q.name)] != 1 {
					up = false
				}
			}
		}
		if up {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("fleet peers did not all see each other up within 20s")
}

// plant sends every input once, client c through peer c mod len(peers),
// and with keep returns the answers' bodies. Any answer other than a
// full-quality 200 is an error: set-up must reach the warm state.
func plant(f *fleet, inputs []input, keep bool) ([][]byte, error) {
	var out [][]byte
	if keep {
		out = make([][]byte, len(inputs))
	}
	hcs := newClients()
	defer closeClients(hcs)
	bufs := make([]bytes.Buffer, clients)
	errs := forEach(len(inputs), func(c, i int) error {
		a, _, err := post(hcs[c], f.peers[c%len(f.peers)].url, inputs[i].body, &bufs[c])
		if err == nil && a.status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", a.status, a.body)
		}
		if err == nil {
			err = checkFull(a)
		}
		if err != nil {
			return fmt.Errorf("set-up request %d: %w", i, err)
		}
		if keep {
			out[i] = append([]byte(nil), a.body...)
		}
		return nil
	})
	if len(errs) > 0 {
		return nil, errs[0]
	}
	return out, nil
}

// setupServe starts a fleet of n peers and brings it to its warm state
// with warm, setupRepeats times, keeping the last fleet and warm's
// answers. Each set-up's wall time runs from process launch to the
// warm state.
func setupServe(o options, n int, warm func(f *fleet) ([][]byte, error)) (*fleet, [][]byte, []time.Duration, error) {
	var times []time.Duration
	for {
		start := time.Now()
		f, err := startFleet(o, n)
		if err != nil {
			return nil, nil, nil, err
		}
		answers, err := warm(f)
		if err != nil {
			f.stop()
			return nil, nil, nil, err
		}
		times = append(times, time.Since(start))
		if len(times) == setupRepeats {
			return f, answers, times, nil
		}
		f.stop()
	}
}

// timed wraps a closed-loop phase with the system-side measurements:
// /metrics before and after, CPU consumed and the peak RSS reached in
// the phase.
func timed(o options, f *fleet, out *runOutcome, op func(client, k int) (opRecord, bool)) (before, after map[string]float64, err error) {
	hcs := newClients()
	defer closeClients(hcs)
	if before, err = f.scrape(hcs[0]); err != nil {
		return nil, nil, err
	}
	if err := f.resetPeakRSS(); err != nil {
		return nil, nil, err
	}
	if out.phase, err = closedLoop(o.seconds, f.cpu, op); err != nil {
		return nil, nil, err
	}
	if out.rssMiB, err = f.peakRSS(); err != nil {
		return nil, nil, err
	}
	after, err = f.scrape(hcs[0])
	return before, after, err
}

// expect appends a problem unless got == want.
func expect(out *runOutcome, what string, got, want float64) {
	if got != want {
		out.problems = append(out.problems, fmt.Sprintf("%s = %v, want %v", what, got, want))
	}
}

// expectQuiet appends a problem for every throttled, expired or refused
// request the timed phase caused.
func expectQuiet(out *runOutcome, before, after map[string]float64) {
	for _, oc := range []string{"throttled", "expired", "refused"} {
		expect(out, oc+" requests during the timed phase",
			delta(before, after, fmt.Sprintf("pland_requests_total{outcome=%q}", oc)), 0)
	}
}

// runServeHot: one node, every timed request a cache hit.
func runServeHot(o options) (*runOutcome, map[string]metric, error) { return runServeWarm(o, 1) }

// runServeRouted: two peers on one ring, client i pinned to peer i.
func runServeRouted(o options) (*runOutcome, map[string]metric, error) { return runServeWarm(o, 2) }

// runServeWarm plants the warm set on a fleet of n peers, then has
// client c cycle it through peer c mod n, starting half a set away from
// the other client. Each answer must equal the set-up answer for its
// workload byte for byte; set-up checked those are at full quality, so
// a relayed answer's equal body proves its quality too.
func runServeWarm(o options, n int) (*runOutcome, map[string]metric, error) {
	inputs, err := genInputs(o.seed, streamWarm, warmSet)
	if err != nil {
		return nil, nil, err
	}
	f, setup, setups, err := setupServe(o, n, func(f *fleet) ([][]byte, error) { return plant(f, inputs, true) })
	if err != nil {
		return nil, nil, err
	}
	defer f.stop()
	ring, err := f.ring()
	if err != nil {
		return nil, nil, err
	}
	out := &runOutcome{setups: setups}
	hcs := newClients()
	defer closeClients(hcs)
	bufs := make([]bytes.Buffer, clients)
	// remote counts the ops whose ring owner is not the client's peer:
	// exactly these must be proxied.
	var remote, proxied atomic.Int64
	before, after, err := timed(o, f, out, func(c, k int) (opRecord, bool) {
		j := (c*len(inputs)/clients + k) % len(inputs)
		peer := f.peers[c%n]
		if ring.Owner(inputs[j].key).Name != peer.name {
			remote.Add(1)
		}
		a, lat, err := post(hcs[c], peer.url, inputs[j].body, &bufs[c])
		if a.peer != "" {
			proxied.Add(1)
		}
		ok := err == nil && a.status == http.StatusOK && (a.quality == "full" || relayed(a)) &&
			bytes.Equal(a.body, setup[j])
		return opRecord{lat: lat, ok: ok}, true
	})
	if err != nil {
		return nil, nil, err
	}
	expect(out, "builds during the timed phase", delta(before, after, "pland_builds_total"), 0)
	expect(out, "cache hits during the timed phase", delta(before, after, "pland_cache_hits_total"), float64(len(out.ops)))
	expect(out, "requests routed out", delta(before, after, `pland_routed_total{direction="out"}`), float64(remote.Load()))
	expect(out, "proxied answers", float64(proxied.Load()), float64(remote.Load()))
	expect(out, "routing fallbacks", delta(before, after, `pland_routed_total{direction="fallback"}`), 0)
	expectQuiet(out, before, after)
	if p := proxied.Load(); p > 0 {
		fmt.Printf("note: %d proxied answers carried no X-Plan-Quality header; their quality was read from the body\n", p)
	}
	if !o.trace {
		return out, nil, nil
	}
	layers, err := traceServe(o, out, f, inputs, setup, before, after)
	return out, layers, err
}

// runServeCold: one node whose cache is full at its default capacity;
// every timed request is a never-seen workload.
func runServeCold(o options) (*runOutcome, map[string]metric, error) {
	fill, err := genInputs(o.seed, streamFill, fillInputs)
	if err != nil {
		return nil, nil, err
	}
	f, _, setups, err := setupServe(o, 1, func(f *fleet) ([][]byte, error) { return nil, fillCache(f, fill) })
	if err != nil {
		return nil, nil, err
	}
	defer f.stop()
	fill = nil // only one input set is held at a time
	debug.FreeOSMemory()
	cold, err := genInputs(o.seed, streamCold, int(coldPerSecond*o.seconds.Seconds())+1)
	if err != nil {
		return nil, nil, err
	}
	out := &runOutcome{setups: setups}
	hcs := newClients()
	defer closeClients(hcs)
	bufs := make([]bytes.Buffer, clients)
	// Answers are kept and checked after the phase.
	stored := make([][]byte, len(cold))
	var next atomic.Int64
	before, after, err := timed(o, f, out, func(c, _ int) (opRecord, bool) {
		j := int(next.Add(1)) - 1
		if j >= len(cold) {
			return opRecord{}, false
		}
		a, lat, err := post(hcs[c], f.peers[0].url, cold[j].body, &bufs[c])
		ok := err == nil && a.status == http.StatusOK && a.quality == "full"
		if ok {
			stored[j] = append([]byte(nil), a.body...)
		}
		return opRecord{lat: lat, ok: ok}, true
	})
	if err != nil {
		return nil, nil, err
	}
	n := len(out.ops)
	cold, stored = cold[:n], stored[:n]
	expect(out, "builds during the timed phase", delta(before, after, "pland_builds_total"), float64(n))
	expect(out, "resident plans before the timed phase", before["pland_cached_plans"], cacheCapacity)
	expect(out, "resident plans after the timed phase", after["pland_cached_plans"], cacheCapacity)
	expectQuiet(out, before, after)
	for _, err := range forEach(n, func(_, j int) error {
		if stored[j] == nil {
			return nil // a failed op, already counted
		}
		if err := checkCold(cold[j].body, stored[j]); err != nil {
			return fmt.Errorf("serve-cold answer %d: %w", j, err)
		}
		return nil
	}) {
		out.problems = append(out.problems, err.Error())
	}
	if !o.trace {
		return out, nil, nil
	}
	layers, err := traceServe(o, out, f, cold, stored, before, after)
	return out, layers, err
}

// fillCache sends fill workloads until pland's cache holds
// cacheCapacity plans: the capacity's worth first, then top-up batches.
// The count sent is a function of the seed alone.
func fillCache(f *fleet, fill []input) error {
	hcs := newClients()
	defer closeClients(hcs)
	sent := cacheCapacity
	if _, err := plant(f, fill[:sent], false); err != nil {
		return err
	}
	for {
		m, err := f.scrape(hcs[0])
		if err != nil {
			return err
		}
		if m["pland_cached_plans"] >= cacheCapacity {
			return nil
		}
		if sent+fillBatch > len(fill) {
			return fmt.Errorf("cache holds %v plans after %d distinct workloads", m["pland_cached_plans"], sent)
		}
		if _, err := plant(f, fill[sent:sent+fillBatch], false); err != nil {
			return err
		}
		sent += fillBatch
	}
}

// servedBuilder is the pipeline configuration pland builds planQuery
// with.
func servedBuilder() *pipeline.Builder {
	return &pipeline.Builder{
		Estimator:   pipeline.StrategyEstimator(wcet.AVG),
		Distributor: deadline.Sliced{Metric: slicing.AdaptL(), Params: slicing.CalibratedParams()},
		Dispatcher:  pipeline.TimeDriven(),
		Verifier:    verify.AnalyticFirstVerifier(),
	}
}

// checkCold checks one stored serve-cold answer: it decodes, its
// windows equal an in-process build of the submitted workload, its
// placements pass sched.Verify against that workload, and its verdict
// and proof equal the in-process build's.
func checkCold(body, answer []byte) error {
	var resp server.PlanResponse
	if err := json.Unmarshal(answer, &resp); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	g, p, err := graphio.ReadWorkload(bytes.NewReader(body))
	if err != nil {
		return err
	}
	plan, err := servedBuilder().Build(pipeline.Spec{Graph: g, Platform: p})
	if err != nil {
		return fmt.Errorf("in-process build: %w", err)
	}
	r := resp.Result
	n := g.NumTasks()
	if len(r.Proc) != n || len(r.Start) != n || len(r.Finish) != n {
		return fmt.Errorf("answer has %d placements for %d tasks", len(r.Proc), n)
	}
	if !slices.Equal(r.Arrival, plan.Assignment.Arrival) || !slices.Equal(r.AbsDeadline, plan.Assignment.AbsDeadline) {
		return errors.New("answer windows differ from the in-process build")
	}
	s := &sched.Schedule{Placements: make([]sched.Placement, n)}
	for i := range s.Placements {
		s.Placements[i] = sched.Placement{Proc: r.Proc[i], Start: r.Start[i], Finish: r.Finish[i]}
	}
	if err := sched.Verify(g, p, plan.Assignment, s); err != nil {
		return fmt.Errorf("placements fail sched.Verify: %w", err)
	}
	if resp.Feasible != plan.Verdict.Feasible || resp.Proof != plan.Verdict.Proof.String() {
		return fmt.Errorf("verdict feasible=%v proof=%s, in-process build feasible=%v proof=%s",
			resp.Feasible, resp.Proof, plan.Verdict.Feasible, plan.Verdict.Proof)
	}
	return nil
}
