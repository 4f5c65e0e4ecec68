// Command benchpipe runs the pipeline-core benchmark suite through
// testing.Benchmark and renders the results as JSON. `make bench`
// writes the output to BENCH_pipeline.json, the repo's checked-in
// performance baseline.
//
// The suite mirrors internal/pipeline/pipeline_bench_test.go:
//
//   - build/cold              one full estimate→slice→dispatch build
//     (pooled scratch, the steady-state cold cost)
//   - build/cached            the same spec through a warm plan cache
//   - build/rebuild-estimates one re-slice correction round: Rebuild
//     with a full corrected-estimate vector off the previous plan
//   - build/rebuild-wcet      Rebuild with a single-task WCET bump: an
//     estimate vector that differs from the previous plan's in one task
//   - fingerprint             the workload hash alone
//   - verify/analytic         the holistic-RTA schedulability proof of
//     the 120-task plan released sporadically — one fixed-point
//     iteration covering every legal release sequence, no timeline
//   - verify/replay           the same sporadic system checked by
//     replay: dispatch and simulate a 32-release horizon (one sequence)
//   - build/cold-120          build/cold on the 120-task graph that
//     pland and the verify benches plan
//   - build/cheap             one brownout cheap build as pland makes
//     it: a cold NORM build of the 120-task graph, tagged degraded
//   - build/verify-analytic   a full cold build of the 120-task graph
//     with the analytic verifier as its fourth stage
//   - breakdown/cache=off     breakdown-factor bisection, re-planning on
//     every probe
//   - breakdown/cache=on      the same bisection planning once
//   - study/inject            one fault-injected execution of an
//     ADAPT-L plan of a 40–60-task margins-study graph under
//     faults.Scaled(1) with slack reclamation
//   - study/graph             one graph, never drawn before, through
//     every margins-study cell (breakdown, estimation-error grid,
//     re-slice) over a fresh 4,096-plan cache
//   - serve/decode            graphio.ReadWorkload on the 120-task
//     request body pland is sent (WriteWorkload's output)
//   - serve/handler-hit       one cache-hit POST /plan of that body
//     through server.Handler() in process: body read, decode, lookup,
//     answer encode and write, without a network
//
// The off/on contrast is the headline number: the plan cache is what
// makes the robustness bisection affordable. A rebuild is a cold build
// with the previous plan's fingerprint and estimates carried over, so
// the cold/rebuild contrast shows what skipping the estimator and the
// workload hash saves, no more. The verify contrast records why
// analytic-first verification is the serving default worth reaching
// for: proving deadlines costs a fixed-point iteration, not a timeline.
//
// With -check BASELINE the suite instead runs fresh and exits nonzero
// if the cold-build, serve or study numbers regressed more than 20%
// against the checked-in baseline (the CI performance gate).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"

	"repro/internal/deadline"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/pipeline"
	"repro/internal/robust"
	"repro/internal/rtime"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/slicing"
	"repro/internal/verify"
)

type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type report struct {
	Go      string   `json:"go"`
	GOOS    string   `json:"goos"`
	GOARCH  string   `json:"goarch"`
	Results []result `json:"results"`
	// BreakdownSpeedup is breakdown/cache=off ns divided by
	// breakdown/cache=on ns: how much faster the bisection runs when
	// probes hit the plan cache instead of re-planning.
	BreakdownSpeedup float64 `json:"breakdown_speedup"`
	// ResliceSpeedup is build/cold ns divided by
	// build/rebuild-estimates ns: how one re-slice correction round
	// through Rebuild, which skips the workload hash, compares with a
	// fresh cold build.
	ResliceSpeedup float64 `json:"reslice_speedup,omitempty"`
	// VerifySpeedup is verify/replay ns divided by verify/analytic ns:
	// how much cheaper proving a 120-task plan's deadlines analytically
	// is than replaying its schedule.
	VerifySpeedup float64 `json:"verify_speedup,omitempty"`
}

func workload(seed int64) (*gen.Workload, error) {
	cfg := gen.Default(3)
	cfg.Seed = seed
	return gen.Generate(cfg)
}

func main() {
	out := flag.String("o", "", "write the JSON report to this file (default stdout)")
	check := flag.String("check", "", "compare a fresh run against this baseline JSON and fail on cold-build regressions")
	flag.Parse()
	if err := run(*out, *check); err != nil {
		fmt.Fprintln(os.Stderr, "benchpipe:", err)
		os.Exit(1)
	}
}

func run(out, check string) error {
	w, err := workload(11)
	if err != nil {
		return err
	}
	spec := pipeline.Spec{Graph: w.Graph, Platform: w.Platform}

	const samples = 8
	bw := make([]*gen.Workload, samples)
	for i := range bw {
		if bw[i], err = workload(100 + int64(i)); err != nil {
			return err
		}
	}
	bisect := func(b *testing.B, cached bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ww := bw[i%samples]
			builder := &pipeline.Builder{}
			if cached {
				builder.Cache = pipeline.NewCache(1)
			}
			if _, err := robust.BreakdownVia(builder,
				pipeline.Spec{Graph: ww.Graph, Platform: ww.Platform},
				robust.BreakdownOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}

	rep := report{Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	// Each benchmark runs three times and keeps the fastest: the minimum
	// is the stable statistic of a shared machine (scheduling noise only
	// ever adds time), and it is what both the baseline and the -check
	// run record, so the gate compares like against like.
	bench := func(name string, f func(b *testing.B)) *result {
		best := testing.Benchmark(f)
		for round := 1; round < 3; round++ {
			r := testing.Benchmark(f)
			if r.NsPerOp() < best.NsPerOp() {
				best = r
			}
		}
		rep.Results = append(rep.Results, result{
			Name:        name,
			Iterations:  best.N,
			NsPerOp:     float64(best.T.Nanoseconds()) / float64(best.N),
			AllocsPerOp: best.AllocsPerOp(),
			BytesPerOp:  best.AllocedBytesPerOp(),
		})
		return &rep.Results[len(rep.Results)-1]
	}

	bench("build/cold", func(b *testing.B) {
		builder := &pipeline.Builder{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := builder.Build(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	bench("build/cached", func(b *testing.B) {
		builder := &pipeline.Builder{Cache: pipeline.NewCache(8)}
		if _, err := builder.Build(spec); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := builder.Build(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Incremental replanning: one correction round of the re-slice loop
	// shape (a full corrected vector) and one single-task WCET bump,
	// both off the same previous plan through one Replanner. No cache is
	// configured, so every iteration pays the incremental path, never a
	// residency hit.
	cold := &rep.Results[0]
	prevBuilder := &pipeline.Builder{}
	prev, err := prevBuilder.Build(spec)
	if err != nil {
		return err
	}
	alt := make([][]rtime.Time, 4)
	for v := range alt {
		alt[v] = append([]rtime.Time(nil), prev.Estimates...)
		for i := range alt[v] {
			if i%3 == v%3 {
				alt[v][i] += rtime.Time(1 + v)
			}
		}
	}
	reb := bench("build/rebuild-estimates", func(b *testing.B) {
		rp := prevBuilder.NewReplanner()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := rp.Rebuild(prev, pipeline.EstimatesDelta(alt[i%len(alt)])); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Single-task WCET bumps, built before timing: iteration i bumps
	// task i mod n by 1 + i mod 7.
	n := w.Graph.NumTasks()
	bumps := make([][]rtime.Time, 7*n)
	for i := range bumps {
		bumps[i] = append([]rtime.Time(nil), prev.Estimates...)
		bumps[i][i%n] += rtime.Time(1 + i%7)
	}
	bench("build/rebuild-wcet", func(b *testing.B) {
		rp := prevBuilder.NewReplanner()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := rp.Rebuild(prev, pipeline.EstimatesDelta(bumps[i%len(bumps)])); err != nil {
				b.Fatal(err)
			}
		}
	})
	if reb.NsPerOp > 0 {
		rep.ResliceSpeedup = cold.NsPerOp / reb.NsPerOp
	}
	bench("fingerprint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pipeline.Fingerprint(w.Graph, w.Platform)
		}
	})
	// Analytic verification vs replay, on the standard 120-task graph
	// released sporadically (minimum gap 1.25× the plan horizon, 1/8
	// jitter — a recurring deployment of the same plan). The analytic
	// proof covers every legal release sequence with one fixed-point
	// iteration; replay verification is O(timeline) — it must dispatch
	// and simulate the whole release horizon (32 releases here) to check
	// even one sequence. VerifySpeedup records the gap.
	vcfg := gen.Default(3)
	vcfg.Seed = 11
	vcfg.MinTasks, vcfg.MaxTasks = 120, 120
	vw, err := gen.Generate(vcfg)
	if err != nil {
		return err
	}
	vspec := pipeline.Spec{Graph: vw.Graph, Platform: vw.Platform}
	vplan, err := (&pipeline.Builder{}).Build(vspec)
	if err != nil {
		return err
	}
	var horizon rtime.Time
	for _, d := range vplan.Assignment.AbsDeadline {
		if d > horizon {
			horizon = d
		}
	}
	vrel := gen.Release{
		Mode:   gen.ReleaseSporadic,
		Count:  32,
		MinGap: horizon + horizon/4,
		Jitter: (horizon + horizon/4) / 8,
	}
	vsp := verify.Sporadic{MinGap: vrel.MinGap, Jitter: vrel.Jitter}
	// The contrast is only meaningful if both sides verify the system:
	// the proof must land (accept), and the replayed sequence must agree.
	vres, err := verify.AnalyzeSporadic(vw.Graph, vw.Platform, vplan.Assignment, vsp)
	if err != nil {
		return err
	}
	if vres.Verdict != verify.Accept {
		return fmt.Errorf("verify bench: analytic verdict %v (%s), want accept", vres.Verdict, vres.Reason)
	}
	vrep, _, _, err := sim.ReplayReleases(vw.Graph, vw.Platform, vplan.Assignment, vrel, 11, sim.Options{})
	if err != nil {
		return err
	}
	if !vrep.Valid || len(vrep.DeadlineMisses) > 0 {
		return fmt.Errorf("verify bench: replay disagrees (valid=%v, %d misses)", vrep.Valid, len(vrep.DeadlineMisses))
	}
	va := bench("verify/analytic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := verify.AnalyzeSporadic(vw.Graph, vw.Platform, vplan.Assignment, vsp); err != nil {
				b.Fatal(err)
			}
		}
	})
	vr := bench("verify/replay", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := sim.ReplayReleases(vw.Graph, vw.Platform, vplan.Assignment, vrel, 11, sim.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if va.NsPerOp > 0 {
		rep.VerifySpeedup = vr.NsPerOp / va.NsPerOp
	}
	// The full-quality cold build of the 120-task graph, and the brownout
	// cheap build pland substitutes for it under overload: the same
	// graph planned cold under the NORM metric.
	bench("build/cold-120", func(b *testing.B) {
		builder := &pipeline.Builder{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := builder.Build(vspec); err != nil {
				b.Fatal(err)
			}
		}
	})
	bench("build/cheap", func(b *testing.B) {
		builder := &pipeline.Builder{
			Distributor: deadline.Sliced{Metric: slicing.NORM(), Params: slicing.CalibratedParams()},
			Quality:     pipeline.QualityDegraded,
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := builder.Build(vspec); err != nil {
				b.Fatal(err)
			}
		}
	})
	bench("build/verify-analytic", func(b *testing.B) {
		builder := &pipeline.Builder{Verifier: verify.AnalyticVerifier()}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := builder.Build(vspec); err != nil {
				b.Fatal(err)
			}
		}
	})
	off := bench("breakdown/cache=off", func(b *testing.B) { bisect(b, false) })
	on := bench("breakdown/cache=on", func(b *testing.B) { bisect(b, true) })
	if on.NsPerOp > 0 {
		rep.BreakdownSpeedup = off.NsPerOp / on.NsPerOp
	}
	if err := studyBenches(bench); err != nil {
		return err
	}

	// The serving layers around a plan, on the same 120-task workload:
	// the request body as clients send it, decoded alone and then
	// planned from cache through the whole handler.
	var body bytes.Buffer
	if err := graphio.WriteWorkload(&body, vw.Graph, vw.Platform); err != nil {
		return err
	}
	bench("serve/decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := graphio.ReadWorkload(bytes.NewReader(body.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
	const planURL = "/plan?metric=ADAPT-L&wcet=WCET-AVG&dispatcher=time-driven&verify=analytic-first"
	handler := server.New(server.Options{}).Handler()
	post := func() error {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, planURL, bytes.NewReader(body.Bytes())))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("serve bench: status %d: %s", rec.Code, rec.Body)
		}
		return nil
	}
	if err := post(); err != nil { // the cold build every timed post hits
		return err
	}
	bench("serve/handler-hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := post(); err != nil {
				b.Fatal(err)
			}
		}
	})

	if check != "" {
		return checkAgainst(check, rep)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if out == "" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (breakdown speedup with plan cache: %.1fx, reslice speedup with Rebuild: %.1fx, analytic-verify speedup over replay: %.1fx)\n",
		out, rep.BreakdownSpeedup, rep.ResliceSpeedup, rep.VerifySpeedup)
	return nil
}

// checkTolerance is the allowed regression against the checked-in
// baseline before -check fails: 20% on time, 20% (and at least 8
// absolute, to absorb counting noise near zero) on allocations, and
// 20% on bytes where those are gated.
const checkTolerance = 0.20

// gated lists the benchmarks -check compares, and whether their bytes
// per op are gated too. The cached/fingerprint paths are sub-10µs and
// too noisy for a CI tripwire, and the breakdown bisections are derived
// from the same cold path. The study benches gate bytes because the
// margins study's allocation rate sets its peak memory.
var gated = []struct {
	name  string
	bytes bool
}{
	{"build/cold", false},
	{"build/rebuild-estimates", false}, {"build/rebuild-wcet", false},
	{"build/cheap", false},
	{"serve/decode", false}, {"serve/handler-hit", false},
	{"study/inject", true}, {"study/graph", true},
}

// checkAgainst gates the fresh run rep on the baseline at path.
func checkAgainst(path string, rep report) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	baseBy := make(map[string]result, len(base.Results))
	for _, r := range base.Results {
		baseBy[r.Name] = r
	}
	failed := false
	for _, gate := range gated {
		name := gate.name
		b, ok := baseBy[name]
		if !ok {
			fmt.Printf("check %-24s skipped (not in baseline)\n", name)
			continue
		}
		var cur *result
		for i := range rep.Results {
			if rep.Results[i].Name == name {
				cur = &rep.Results[i]
			}
		}
		if cur == nil {
			return fmt.Errorf("benchmark %s missing from the fresh run", name)
		}
		ok = true
		if cur.NsPerOp > b.NsPerOp*(1+checkTolerance) {
			fmt.Printf("check %-24s FAIL time: %.0f ns/op vs baseline %.0f (+%.0f%%)\n",
				name, cur.NsPerOp, b.NsPerOp, 100*(cur.NsPerOp/b.NsPerOp-1))
			ok = false
		}
		if excess := cur.AllocsPerOp - b.AllocsPerOp; excess > 8 &&
			float64(cur.AllocsPerOp) > float64(b.AllocsPerOp)*(1+checkTolerance) {
			fmt.Printf("check %-24s FAIL allocs: %d/op vs baseline %d (+%d)\n",
				name, cur.AllocsPerOp, b.AllocsPerOp, excess)
			ok = false
		}
		if gate.bytes && float64(cur.BytesPerOp) > float64(b.BytesPerOp)*(1+checkTolerance) {
			fmt.Printf("check %-24s FAIL bytes: %d/op vs baseline %d (+%.0f%%)\n",
				name, cur.BytesPerOp, b.BytesPerOp, 100*(float64(cur.BytesPerOp)/float64(b.BytesPerOp)-1))
			ok = false
		}
		if ok {
			fmt.Printf("check %-24s ok: %.0f ns/op (baseline %.0f), %d allocs/op (baseline %d), %d B/op (baseline %d)\n",
				name, cur.NsPerOp, b.NsPerOp, cur.AllocsPerOp, b.AllocsPerOp, cur.BytesPerOp, b.BytesPerOp)
		} else {
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("cold-build, serve or study performance regressed beyond %.0f%% of %s", 100*checkTolerance, path)
	}
	return nil
}
