package experiment

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/degrade"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/pipeline"
	"repro/internal/robust"
	"repro/internal/slicing"
	"repro/internal/wcet"
)

// workloadSum checksums everything a study reads from a workload: the
// canonical encoding of its graph and platform, its average work and
// its release times.
func workloadSum(t *testing.T, w *gen.Workload) [sha256.Size]byte {
	t.Helper()
	var b bytes.Buffer
	if err := graphio.WriteWorkload(&b, w.Graph, w.Platform); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "avgWork %d releases %v", w.AvgWork, w.Releases)
	return sha256.Sum256(b.Bytes())
}

// memoConfigs returns one generator configuration of each family the
// studies draw from: the paper's default, pinned boundary tasks with
// shared resources, mixed criticality, fork-join structure and sporadic
// releases expanded by the generator.
func memoConfigs() map[string]gen.Config {
	def := gen.Default(3)
	def.OLR = DefaultOLR
	pins := def
	pins.PinProb, pins.NumResources, pins.ResourceProb = 0.5, 2, 0.3
	opt := def
	opt.OptionalProb = 0.4
	fj := def
	fj.Shape = gen.ForkJoin
	spor := def
	spor.Release = gen.Release{Mode: gen.ReleaseSporadic, Count: 2, MinGap: 1 << 20, Jitter: 64}
	return map[string]gen.Config{"default": def, "pins+resources": pins, "optional": opt,
		"fork-join": fj, "sporadic": spor}
}

// runAllStudies carries small samples through all six study entry
// points on 4 workers over one shared plan cache, including a
// sporadic-release margin point and a re-slice cell, and fails on any
// errored workload.
func runAllStudies(t *testing.T, pipe pipeline.Shared) {
	t.Helper()
	cfgs := memoConfigs()
	const graphs, master = 4, 7
	metric, params := slicing.AdaptL(), slicing.CalibratedParams()
	for _, name := range []string{"default", "pins+resources", "fork-join", "sporadic"} {
		pt := Run(Config{Gen: cfgs[name], Metric: metric, Params: params, WCET: wcet.AVG,
			NumGraphs: graphs, MasterSeed: master, Workers: 4, Pipe: pipe})
		if pt.Errors != 0 {
			t.Fatalf("Run on %s: %d errors", name, pt.Errors)
		}
	}
	if pt := FaultRun(FaultConfig{Gen: cfgs["pins+resources"], Metric: metric, Params: params,
		WCET: wcet.AVG, NumGraphs: graphs, MasterSeed: master, Workers: 4, Intensity: 1,
		Reclaim: true, Pipe: pipe}); pt.Errors != 0 {
		t.Fatalf("FaultRun: %d errors", pt.Errors)
	}
	margin := MarginConfig{Gen: cfgs["default"], Metric: metric, Params: params, WCET: wcet.AVG,
		NumGraphs: graphs, MasterSeed: master, Workers: 4, Pipe: pipe,
		Model: wcet.ErrorModel{Kind: wcet.ErrMultiplicative, Level: 0.5}}
	if pt := BreakdownRun(margin); pt.Errors != 0 {
		t.Fatalf("BreakdownRun: %d errors", pt.Errors)
	}
	if pt := MarginRun(margin); pt.Errors != 0 {
		t.Fatalf("MarginRun: %d errors", pt.Errors)
	}
	sporadic := margin
	sporadic.Release = gen.Release{Mode: gen.ReleaseSporadic, Count: 3, MinGap: 1 << 20}
	if pt := MarginRun(sporadic); pt.Errors != 0 {
		t.Fatalf("sporadic MarginRun: %d errors", pt.Errors)
	}
	reslice := margin
	reslice.Reslice = robust.ResliceOptions{MaxRetries: 4}
	if pt := MarginRun(reslice); pt.Errors != 0 {
		t.Fatalf("re-slice MarginRun: %d errors", pt.Errors)
	}
	curve, err := DegradeRun(DegradeConfig{Gen: cfgs["optional"], Metric: metric, Params: params,
		WCET: wcet.AVG, NumGraphs: graphs, MasterSeed: master, Workers: 4,
		Intensities: []float64{0, 0.5, 1}, Degrade: degrade.Options{Policy: degrade.ShedLowestValue},
		Pipe: pipe})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range curve.Points {
		if pt.Fault.Errors != 0 {
			t.Fatalf("DegradeRun: %d errors", pt.Fault.Errors)
		}
	}
	if res := OptGap(OptGapConfig{Metric: metric, Params: params, M: 2, OLR: 1,
		MinTasks: 5, MaxTasks: 7, NumGraphs: graphs, MasterSeed: master, NodeBudget: 20_000,
		Workers: 4, Pipe: pipe}); res.Graphs != graphs {
		t.Fatalf("OptGap covered %d graphs, want %d", res.Graphs, graphs)
	}
}

// memoSnapshot copies the memo's resident entries.
func memoSnapshot() map[gen.Config]*gen.Workload {
	workloads.mu.Lock()
	defer workloads.mu.Unlock()
	out := make(map[gen.Config]*gen.Workload, len(workloads.m))
	for k, w := range workloads.m {
		out[k] = w
	}
	return out
}

// The read-only contract: no study cell modifies a memoized workload.
// Every workload the studies leave in the memo must equal a fresh
// generation of its configuration, and must checksum the same after a
// second pass of every study over the shared workloads.
func TestStudiesLeaveWorkloadsUnchanged(t *testing.T) {
	pipe := pipeline.Shared{Cache: pipeline.NewCache(4096)}
	runAllStudies(t, pipe)
	before := memoSnapshot()
	sums := make(map[gen.Config][sha256.Size]byte, len(before))
	for cfg, w := range before {
		fresh, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sums[cfg] = workloadSum(t, w)
		if workloadSum(t, fresh) != sums[cfg] {
			t.Errorf("memoized workload of seed %d differs from a fresh generation", cfg.Seed)
		}
	}
	for name, cfg := range memoConfigs() {
		cfg.Seed = gen.SubSeed(7, 0)
		if _, ok := before[cfg]; !ok {
			t.Errorf("no %s workload memoized: the studies did not generate through the memo", name)
		}
	}

	runAllStudies(t, pipe)
	for cfg, w := range before {
		if workloadSum(t, w) != sums[cfg] {
			t.Errorf("workload of seed %d changed during a study pass", cfg.Seed)
		}
		if now, err := workloads.get(cfg); err != nil || now != w {
			t.Errorf("workload of seed %d was replaced in the memo", cfg.Seed)
		}
	}
}

// Two studies read the same memoized workloads at the same time: a
// margin point with a re-slice cell and a breakdown point on one
// configuration and master seed, started together on 2 workers each
// over one plan cache. Within one study every index goes to one worker,
// so only overlapping study calls (as when a body abandoned under a
// per-workload timeout still runs while the next cell starts) share a
// workload between goroutines; run under -race (make check), this shows
// they do not race. The workloads must stay resident and unchanged.
func TestConcurrentStudiesShareWorkloads(t *testing.T) {
	cfg := MarginConfig{Gen: memoConfigs()["pins+resources"], Metric: slicing.AdaptL(),
		Params: slicing.CalibratedParams(), WCET: wcet.AVG, NumGraphs: 4, MasterSeed: 13,
		Workers: 2, Pipe: pipeline.Shared{Cache: pipeline.NewCache(4096)},
		Model: wcet.ErrorModel{Kind: wcet.ErrMultiplicative, Level: 0.5}}
	shared := make([]*gen.Workload, cfg.NumGraphs)
	sums := make([][sha256.Size]byte, cfg.NumGraphs)
	for i := range shared {
		g := cfg.Gen
		g.Seed = gen.SubSeed(cfg.MasterSeed, i)
		w, err := workloads.get(g)
		if err != nil {
			t.Fatal(err)
		}
		shared[i], sums[i] = w, workloadSum(t, w)
	}

	reslice := cfg
	reslice.Reslice = robust.ResliceOptions{MaxRetries: 4}
	start := make(chan struct{})
	var plain, resliced MarginPoint
	var breakdown BreakdownPoint
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); <-start; plain = MarginRun(cfg) }()
	go func() { defer wg.Done(); <-start; resliced = MarginRun(reslice) }()
	go func() { defer wg.Done(); <-start; breakdown = BreakdownRun(cfg) }()
	close(start)
	wg.Wait()
	if plain.Errors != 0 || resliced.Errors != 0 || breakdown.Errors != 0 {
		t.Fatalf("errors: margin %d, re-slice %d, breakdown %d",
			plain.Errors, resliced.Errors, breakdown.Errors)
	}

	for i, w := range shared {
		g := cfg.Gen
		g.Seed = gen.SubSeed(cfg.MasterSeed, i)
		if now, err := workloads.get(g); err != nil || now != w {
			t.Errorf("workload %d was replaced in the memo", i)
		}
		if workloadSum(t, w) != sums[i] {
			t.Errorf("workload %d changed while two studies shared it", i)
		}
	}
}

// A memoized workload is the one gen.Generate builds, for every
// configuration family, and a repeated request returns the same
// pointer. Configurations that differ in any field, even only in the
// seed, the laxity ratio or the release count, never share an entry.
func TestWorkloadMemoIsGenerate(t *testing.T) {
	c := newWorkloadMemo(workloadMemoCap)
	var cfgs []gen.Config
	for _, cfg := range memoConfigs() {
		for i := 0; i < 3; i++ {
			cfg.Seed = gen.SubSeed(99, i)
			cfgs = append(cfgs, cfg)
		}
	}
	base := memoConfigs()["sporadic"]
	base.Seed = 3
	seed, olr, count := base, base, base
	seed.Seed++
	olr.OLR += 0.1
	count.Release.Count++
	cfgs = append(cfgs, base, seed, olr, count)

	seen := map[*gen.Workload]gen.Config{}
	for _, cfg := range cfgs {
		w, err := c.get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if workloadSum(t, w) != workloadSum(t, fresh) {
			t.Errorf("%+v: memoized workload differs from gen.Generate", cfg)
		}
		if again, _ := c.get(cfg); again != w {
			t.Errorf("%+v: second request generated a new workload", cfg)
		}
		if other, dup := seen[w]; dup {
			t.Errorf("configs %+v and %+v share a memo entry", cfg, other)
		}
		seen[w] = cfg
	}
	if len(c.m) != len(cfgs) {
		t.Errorf("memo holds %d entries, want %d", len(c.m), len(cfgs))
	}
}

// The memo never holds more than its bound, evicts in insertion order,
// stores no errors and skips keys that could never be found again.
func TestWorkloadMemoBound(t *testing.T) {
	c := newWorkloadMemo(workloadMemoCap)
	cfg := gen.Default(2)
	cfg.MinTasks, cfg.MaxTasks, cfg.MinDepth, cfg.MaxDepth = 4, 6, 2, 3
	const extra = 5
	for i := 0; i < workloadMemoCap+extra; i++ {
		cfg.Seed = int64(i)
		if _, err := c.get(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.m) != workloadMemoCap {
		t.Fatalf("memo holds %d workloads after %d distinct configs, bound %d",
			len(c.m), workloadMemoCap+extra, workloadMemoCap)
	}
	for i := 0; i < workloadMemoCap+extra; i++ {
		cfg.Seed = int64(i)
		if _, resident := c.m[cfg]; resident != (i >= extra) {
			t.Errorf("seed %d resident %v: eviction is not oldest-first", i, resident)
		}
	}

	bad := cfg
	bad.MaxTasks = 0
	if _, err := c.get(bad); err == nil {
		t.Error("invalid config generated a workload")
	}
	nan := cfg
	nan.ResourceProb = math.NaN() // valid: no resources to draw
	if _, err := c.get(nan); err != nil {
		t.Fatal(err)
	}
	if len(c.m) != workloadMemoCap {
		t.Errorf("memo holds %d workloads after an error and a NaN key, want %d", len(c.m), workloadMemoCap)
	}
}

// Concurrent misses on one configuration all end up with the workload
// the first of them stored.
func TestWorkloadMemoRacingMisses(t *testing.T) {
	c := newWorkloadMemo(workloadMemoCap)
	cfg := memoConfigs()["default"]
	cfg.Seed = 17
	const racers = 8
	got := make([]*gen.Workload, racers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, err := c.get(cfg)
			if err != nil {
				t.Error(err)
			}
			got[i] = w
		}()
	}
	wg.Wait()
	stored, _ := c.get(cfg)
	for i, w := range got {
		if w != stored {
			t.Errorf("racer %d kept its own copy instead of the stored workload", i)
		}
	}
	if len(c.m) != 1 {
		t.Errorf("memo holds %d entries, want 1", len(c.m))
	}
}
