package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/client"
	"repro/internal/graphio"
	"repro/internal/pipeline"
	"repro/internal/server"
	"repro/internal/verify"
)

// span is one layer call of a traced replay.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay pass began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span; -1 for an op
	Op     int    `json:"op"`
}

// tracer keeps a replay pass's spans in memory; with on unset it
// records nothing, which is the untraced side of the overhead figure.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its index (-1 when off).
func (t *tracer) begin(name string, parent, op int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].End = int64(time.Since(t.t0))
	}
}

// stages records a cold build's stage children from its Plan.Stats,
// laid back to back from the build span's start.
func (t *tracer) stages(build, op int, st pipeline.PlanStats) {
	if build < 0 {
		return
	}
	at := t.spans[build].Start
	for _, s := range []struct {
		name string
		d    time.Duration
	}{{"wcet.estimate", st.Estimate.Wall}, {"slicing.slice", st.Slice.Wall},
		{"sched.dispatch", st.Dispatch.Wall}, {"verify.verify", st.Verify.Wall}} {
		if s.d == 0 {
			continue // the stage did not run
		}
		t.spans = append(t.spans, span{Name: s.name, Start: at, End: at + int64(s.d), Parent: build, Op: op})
		at += int64(s.d)
	}
}

// layer aggregates one span name: calls and summed self time.
type layer struct {
	calls int
	self  time.Duration
}

// meanUS is the mean self time per call in µs (0 without calls).
func (l layer) meanUS() float64 {
	if l.calls == 0 {
		return 0
	}
	return l.self.Seconds() * 1e6 / float64(l.calls)
}

// aggregate computes every layer's self time (a span minus its direct
// children) and the median per-op sum of the op's direct children,
// which is the time the replayed layers account for.
func aggregate(spans []span) (map[string]layer, float64) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	layers := map[string]layer{}
	var opSums []float64
	for i, s := range spans {
		if s.Parent < 0 {
			opSums = append(opSums, time.Duration(child[i]).Seconds()*1e3)
			continue
		}
		l := layers[s.Name]
		l.calls++
		l.self += time.Duration(s.End - s.Start - child[i])
		layers[s.Name] = l
	}
	return layers, median(opSums)
}

// writeSpans writes a pass's spans, one JSON object a line, beside the
// build outputs.
func writeSpans(o options, spans []span) error {
	path := filepath.Join(o.bin, fmt.Sprintf("trace-%s-%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// overhead runs pass untraced and traced twice each after one warm-up
// pass and returns the last traced pass's spans and the tracing
// overhead: traced over untraced median wall time, minus one.
func overhead(pass func(t *tracer) error) ([]span, float64, error) {
	if err := pass(newTracer(false)); err != nil {
		return nil, 0, err
	}
	var on, off []float64
	var spans []span
	for r := 0; r < 2; r++ {
		for _, traced := range []bool{false, true} {
			t := newTracer(traced)
			start := time.Now()
			if err := pass(t); err != nil {
				return nil, 0, err
			}
			d := time.Since(start).Seconds()
			if traced {
				on = append(on, d)
				spans = t.spans
			} else {
				off = append(off, d)
			}
		}
	}
	return spans, median(on)/median(off) - 1, nil
}

// heapInUse is the live heap after a collection. Two collections also
// free what sync.Pool victim caches held.
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer is the full per-layer metric set, every value 0 until a
// workload's replay fills in the layers it exercises.
func perLayer() map[string]metric {
	m := map[string]metric{}
	for _, d := range []struct{ name, unit string }{
		{"transport.ms_per_op", "ms"},
		{"server.queue_delay_ms", "ms"}, {"server.shed_ratio", "ratio"},
		{"graphio.decode_us", "us"}, {"graphio.decode_allocs", "count"}, {"graphio.decodes_per_op", "count"},
		{"graphio.encode_us", "us"}, {"graphio.response_kb", "KiB"},
		{"pipeline.fingerprint_us", "us"}, {"pipeline.lookup_us", "us"}, {"pipeline.hit_ratio", "ratio"},
		{"pipeline.builds_per_op", "count"}, {"pipeline.coalesced_per_op", "count"},
		{"pipeline.resident_plans", "count"}, {"pipeline.plan_kib", "KiB"},
		{"pipeline.rebuilds_per_op", "count"}, {"pipeline.rebuild_us", "us"},
		{"pipeline.rebuild_incremental_ratio", "ratio"},
		{"wcet.estimate_us", "us"},
		{"slicing.slice_us", "us"}, {"slicing.slice_allocs", "count"},
		{"sched.dispatch_us", "us"},
		{"verify.verify_us", "us"}, {"verify.inconclusive_ratio", "ratio"}, {"verify.accepted_ratio", "ratio"},
		{"cluster.routed_ratio", "ratio"}, {"cluster.hop_ms", "ms"}, {"cluster.fallback_ratio", "ratio"},
		{"cluster.hedges_per_op", "count"},
		{"gen.generate_us", "us"}, {"sim.inject_us", "us"}, {"sim.injects_per_op", "count"},
		{"robust.probes_per_op", "count"}, {"robust.breakdown_ms", "ms"}, {"robust.reslice_rounds_per_op", "count"},
		{"experiment.worker_busy_ratio", "ratio"},
		{"trace.overhead_ratio", "ratio"},
	} {
		m[d.name] = metric{0, d.unit}
	}
	return m
}

func set(m map[string]metric, name string, v float64) {
	mm, ok := m[name]
	if !ok {
		panic("perfbench: unknown per-layer metric " + name)
	}
	mm.Value = v
	m[name] = mm
}

// replayServeOps is how many ops a serve replay pass carries: three
// passes over the warm set, or the first timed serve-cold ops.
const (
	replayHotOps  = 3 * warmSet
	replayColdOps = 300
)

// encodeAnswer renders a plan as pland answers it, with the answer's
// planningMS taken from the run being replayed.
func encodeAnswer(buf *bytes.Buffer, plan *pipeline.Plan, planningMS float64) error {
	resp := server.PlanResponse{
		Metric: "ADAPT-L", WCET: "WCET-AVG", Dispatcher: "time-driven",
		Feasible:           plan.Verdict.Feasible,
		OverConstrained:    plan.Verdict.OverConstrained,
		ProvablyInfeasible: plan.Verdict.ProvablyInfeasible,
		Proof:              plan.Verdict.Proof.String(),
		MaxLateness:        int64(plan.Verdict.MaxLateness),
		MinLaxity:          int64(plan.Verdict.MinLaxity),
		Result:             graphio.EncodeResult(plan.Assignment, plan.Schedule),
		PlanningMS:         planningMS,
		Quality:            "full",
	}
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	return enc.Encode(resp)
}

// serveReplay is one serve workload's in-process replay: its ops
// cycle the inputs, and every encoded or relayed answer must equal the
// system's answer to the same input.
type serveReplay struct {
	inputs     []input
	answers    [][]byte
	planningMS []float64 // each answer's planningMS, carried into the encode
	nops       int
	cold       bool
	// warm is the builder hot and routed replays look plans up in;
	// cold replays build through a fresh cache every pass.
	warm *pipeline.Builder
	// fc and ring make the fleet hop of routed replays (nil otherwise).
	fc   *client.Client
	ring *cluster.Ring

	// Counts of the last pass.
	decodes, hops, accepted, verified int
	sum                               pipeline.Summary
	mismatches                        []string
}

// pass replays every op once, with spans when t is on.
func (r *serveReplay) pass(t *tracer) error {
	b := r.warm
	if r.cold {
		b = servedBuilder()
		b.Cache = pipeline.NewCache(cacheCapacity)
	}
	rec := pipeline.NewRecorder(false)
	b.Recorder = rec
	// Every replayed build is cold on serve-cold and a cache hit
	// elsewhere.
	buildSpan := "pipeline.lookup"
	if r.cold {
		buildSpan = "pipeline.build"
	}
	r.decodes, r.hops, r.accepted, r.verified = 0, 0, 0, 0
	r.mismatches = r.mismatches[:0]
	var buf bytes.Buffer
	ctx := context.Background()
	for k := 0; k < r.nops; k++ {
		j := k % len(r.inputs)
		root := t.begin("op", -1, k)
		s := t.begin("graphio.decode", root, k)
		g, p, err := graphio.ReadWorkload(bytes.NewReader(r.inputs[j].body))
		t.end(s)
		if err != nil {
			return err
		}
		r.decodes++
		if r.ring != nil {
			// The fleet's peers route on the fingerprint; replayed op k
			// arrives at peer k mod 2.
			s = t.begin("pipeline.fingerprint", root, k)
			key := pipeline.Fingerprint(g, p)
			t.end(s)
			if r.ring.Owner(key).Name != fmt.Sprintf("p%d", k%clients) {
				s = t.begin("cluster.hop", root, k)
				res, err := r.fc.Do(ctx, client.PlanRequest{Key: key, Query: planQuery,
					Criticality: "mandatory", Routed: true, Body: r.inputs[j].body})
				t.end(s)
				t.end(root)
				if err != nil {
					return fmt.Errorf("replay hop: %w", err)
				}
				r.hops++
				r.decodes++ // the owner decodes the forwarded body again
				if !bytes.Equal(res.Body, r.answers[j]) {
					r.mismatches = append(r.mismatches, fmt.Sprintf("hop answer %d", j))
				}
				continue
			}
		}
		s = t.begin(buildSpan, root, k)
		plan, err := b.BuildContext(ctx, pipeline.Spec{Graph: g, Platform: p})
		t.end(s)
		if err != nil {
			return err
		}
		if r.cold {
			t.stages(s, k, plan.Stats)
			r.verified++
			if plan.Verdict.Proof == pipeline.VerifyAccepted {
				r.accepted++
			}
		}
		s = t.begin("graphio.encode", root, k)
		err = encodeAnswer(&buf, plan, r.planningMS[j])
		t.end(s)
		t.end(root)
		if err != nil {
			return err
		}
		if !bytes.Equal(buf.Bytes(), r.answers[j]) {
			r.mismatches = append(r.mismatches, fmt.Sprintf("answer %d", j))
		}
	}
	r.sum = rec.Summary()
	return nil
}

// traceServe replays a serve workload's ops in process: decode,
// fingerprint (routed only: a single node fingerprints inside its
// lookup), the fleet hop or the cache build, and the encode. answers
// are the system's answers to inputs.
func traceServe(o options, out *runOutcome, f *fleet, inputs []input, answers [][]byte,
	before, after map[string]float64) (map[string]metric, error) {

	m := perLayer()
	r := &serveReplay{inputs: inputs, answers: answers, planningMS: make([]float64, len(inputs)),
		nops: replayHotOps, cold: o.workload == "serve-cold"}
	var kib float64
	for j, a := range answers {
		var pr struct {
			PlanningMS float64 `json:"planningMS"`
		}
		if err := json.Unmarshal(a, &pr); err != nil {
			return nil, fmt.Errorf("replay: decoding answer %d: %w", j, err)
		}
		r.planningMS[j] = pr.PlanningMS
		kib += float64(len(a)) / 1024
	}
	set(m, "graphio.response_kb", kib/float64(len(answers)))

	if r.cold {
		r.nops = min(replayColdOps, len(inputs))
	} else {
		// The replay's cache holds the warm set, as pland's does; its
		// growth per plan is the retained size of a plan.
		r.warm = servedBuilder()
		r.warm.Cache = pipeline.NewCache(cacheCapacity)
		h0 := heapInUse()
		for _, in := range inputs {
			g, p, err := graphio.ReadWorkload(bytes.NewReader(in.body))
			if err != nil {
				return nil, err
			}
			if _, err := r.warm.Build(pipeline.Spec{Graph: g, Platform: p}); err != nil {
				return nil, err
			}
		}
		set(m, "pipeline.plan_kib", float64(int64(heapInUse())-int64(h0))/1024/float64(len(inputs)))
	}
	if o.workload == "serve-routed" {
		var err error
		if r.ring, err = f.ring(); err != nil {
			return nil, err
		}
		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		defer tr.CloseIdleConnections()
		r.fc = client.New(r.ring, client.Options{HedgeAfter: 100 * time.Millisecond, Transport: tr})
	}

	spans, oh, err := overhead(r.pass)
	if err != nil {
		return nil, err
	}
	if err := writeSpans(o, spans); err != nil {
		return nil, err
	}
	if len(r.mismatches) > 0 {
		out.problems = append(out.problems, fmt.Sprintf("replay: %d answers differ from the system's, first %s",
			len(r.mismatches), r.mismatches[0]))
	}
	layers, opSum := aggregate(spans)
	set(m, "trace.overhead_ratio", oh)
	set(m, "graphio.decode_us", layers["graphio.decode"].meanUS())
	set(m, "graphio.encode_us", layers["graphio.encode"].meanUS())
	set(m, "graphio.decodes_per_op", float64(r.decodes)/float64(r.nops))
	set(m, "cluster.hop_ms", layers["cluster.hop"].meanUS()/1e3)
	set(m, "wcet.estimate_us", layers["wcet.estimate"].meanUS())
	set(m, "slicing.slice_us", layers["slicing.slice"].meanUS())
	set(m, "sched.dispatch_us", layers["sched.dispatch"].meanUS())
	set(m, "verify.verify_us", layers["verify.verify"].meanUS())
	set(m, "verify.accepted_ratio", ratio(float64(r.accepted), float64(r.verified)))
	set(m, "pipeline.lookup_us", layers["pipeline.lookup"].meanUS())
	// The untraced latency less what the layers account for is the
	// transport: the client and server HTTP stacks and the loopback.
	set(m, "transport.ms_per_op", out.figures().p50-opSum)

	if err := serveSide(m, inputs, r.cold, layers); err != nil {
		return nil, err
	}

	// Counts from the system's /metrics over the untraced phase,
	// cross-checked against the replay's recorder and hops.
	n := float64(len(out.ops))
	builds := delta(before, after, "pland_builds_total")
	hits := delta(before, after, "pland_cache_hits_total")
	set(m, "pipeline.hit_ratio", ratio(hits, hits+builds))
	set(m, "pipeline.builds_per_op", builds/n)
	set(m, "pipeline.coalesced_per_op", delta(before, after, "pland_coalesced_builds_total")/n)
	set(m, "pipeline.resident_plans", after["pland_cached_plans"])
	var rebuilds float64
	for _, oc := range []string{"hit", "incremental", "full"} {
		rebuilds += delta(before, after, fmt.Sprintf("pland_rebuilds_total{outcome=%q}", oc))
	}
	set(m, "pipeline.rebuilds_per_op", rebuilds/n)
	set(m, "server.queue_delay_ms", after["pland_queue_delay_seconds"]*1e3)
	set(m, "server.shed_ratio", delta(before, after, `pland_requests_total{outcome="throttled"}`)/n)
	replayHits := float64(r.sum.Hits) / float64(r.sum.Hits+r.sum.Builds)
	if replayHits != ratio(hits, hits+builds) {
		out.problems = append(out.problems, fmt.Sprintf("replay hit ratio %v, the system's %v", replayHits, ratio(hits, hits+builds)))
	}
	if r.ring != nil {
		routedOut := delta(before, after, `pland_routed_total{direction="out"}`)
		set(m, "cluster.routed_ratio", routedOut/n)
		set(m, "cluster.fallback_ratio", delta(before, after, `pland_routed_total{direction="fallback"}`)/n)
		set(m, "cluster.hedges_per_op", delta(before, after, "pland_client_hedges_total")/n)
		// The replay pins ops to peers in another order than the
		// clients do, so the shares agree only closely.
		if hopShare := float64(r.hops) / float64(r.nops); math.Abs(hopShare-routedOut/n) > 0.1 {
			out.problems = append(out.problems, fmt.Sprintf("replay routes %.3f of its ops, the system %.3f", hopShare, routedOut/n))
		}
	}
	return m, nil
}

// serveSide takes the measurements made outside the replayed ops: the
// fingerprint a single node computes inside its lookup, the decode's
// allocations, and on serve-cold the analytic verdicts, the slicing
// allocations and the retained size of a plan.
func serveSide(m map[string]metric, inputs []input, cold bool, layers map[string]layer) error {
	var fp time.Duration
	nside := min(64, len(inputs))
	a0 := mallocs()
	for j := 0; j < nside; j++ {
		g, p, err := graphio.ReadWorkload(bytes.NewReader(inputs[j].body))
		if err != nil {
			return err
		}
		start := time.Now()
		pipeline.Fingerprint(g, p)
		fp += time.Since(start)
	}
	// Fingerprint allocates nothing, so every allocation is the decode's.
	set(m, "graphio.decode_allocs", float64(mallocs()-a0)/float64(nside))
	set(m, "pipeline.fingerprint_us", fp.Seconds()*1e6/float64(nside))
	if l := layers["pipeline.fingerprint"]; l.calls > 0 {
		set(m, "pipeline.fingerprint_us", l.meanUS())
	}
	if !cold {
		return nil
	}
	b := servedBuilder()
	b.Recorder = pipeline.NewRecorder(true)
	inconclusive := 0
	h0 := heapInUse()
	keep := make([]*pipeline.Plan, 0, nside)
	for j := 0; j < nside; j++ {
		g, p, err := graphio.ReadWorkload(bytes.NewReader(inputs[j].body))
		if err != nil {
			return err
		}
		plan, err := b.Build(pipeline.Spec{Graph: g, Platform: p})
		if err != nil {
			return err
		}
		keep = append(keep, plan)
		res, err := verify.Analyze(plan.Graph, plan.Platform, plan.Assignment)
		if err != nil {
			return err
		}
		if res.Verdict == verify.Inconclusive {
			inconclusive++
		}
	}
	h1 := heapInUse()
	// inputs is dead past the loop; it must not be collected between
	// the two readings.
	runtime.KeepAlive(inputs)
	runtime.KeepAlive(keep)
	set(m, "pipeline.plan_kib", float64(int64(h1)-int64(h0))/1024/float64(nside))
	set(m, "slicing.slice_allocs", float64(b.Recorder.Summary().Slice.Allocs)/float64(nside))
	set(m, "verify.inconclusive_ratio", float64(inconclusive)/float64(nside))
	return nil
}
