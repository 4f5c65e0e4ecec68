package pipeline

import (
	"strings"
	"testing"

	"repro/internal/deadline"
	"repro/internal/feas"
	"repro/internal/gen"
	"repro/internal/sched"
	"repro/internal/slicing"
	"repro/internal/wcet"
)

func workload(t testing.TB, seed int64) *gen.Workload {
	t.Helper()
	cfg := gen.Default(3)
	cfg.Seed = seed
	w, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestBuildMatchesHandRolled pins the refactor's core contract: a Build
// is field-for-field identical to the hand-rolled stage sequence every
// call site used to inline.
func TestBuildMatchesHandRolled(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		w := workload(t, seed)
		for _, disp := range []Dispatcher{TimeDriven(), Planner()} {
			b := &Builder{
				Distributor: deadline.Sliced{Metric: slicing.AdaptL(), Params: slicing.CalibratedParams()},
				Dispatcher:  disp,
				Verifier:    FeasVerifier(),
			}
			plan, err := b.Build(Spec{Graph: w.Graph, Platform: w.Platform})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, disp.Name, err)
			}

			est, err := wcet.Estimates(w.Graph, w.Platform, wcet.AVG)
			if err != nil {
				t.Fatal(err)
			}
			asg, err := slicing.Distribute(w.Graph, est, w.Platform.M(), slicing.AdaptL(), slicing.CalibratedParams())
			if err != nil {
				t.Fatal(err)
			}
			var s *sched.Schedule
			if disp.Name == "planner" {
				s, err = sched.EDF(w.Graph, w.Platform, asg)
			} else {
				s, err = sched.Dispatch(w.Graph, w.Platform, asg)
			}
			if err != nil {
				t.Fatal(err)
			}
			bad, ferr := feas.Infeasible(w.Graph, w.Platform, asg)

			for i, c := range est {
				if plan.Estimates[i] != c {
					t.Fatalf("seed %d: estimate %d = %d, want %d", seed, i, plan.Estimates[i], c)
				}
			}
			for i := range asg.AbsDeadline {
				if plan.Assignment.AbsDeadline[i] != asg.AbsDeadline[i] ||
					plan.Assignment.Arrival[i] != asg.Arrival[i] {
					t.Fatalf("seed %d: window %d diverged", seed, i)
				}
			}
			if plan.Verdict.Feasible != s.Feasible ||
				plan.Verdict.OverConstrained != asg.OverConstrained ||
				plan.Verdict.MaxLateness != s.MaxLateness ||
				plan.Verdict.MinLaxity != asg.MinLaxity(est) ||
				plan.Verdict.ProvablyInfeasible != (ferr == nil && bad) {
				t.Fatalf("seed %d %s: verdict %+v diverged from hand-rolled stages", seed, disp.Name, plan.Verdict)
			}
			if plan.Schedule.Makespan != s.Makespan || len(plan.Schedule.Missed) != len(s.Missed) {
				t.Fatalf("seed %d %s: schedule diverged", seed, disp.Name)
			}
		}
	}
}

func TestCacheHitSharesPlan(t *testing.T) {
	w := workload(t, 3)
	rec := NewRecorder(false)
	b := &Builder{Cache: NewCache(8), Recorder: rec}
	p1, err := b.Build(Spec{Graph: w.Graph, Platform: w.Platform})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := b.Build(Spec{Graph: w.Graph, Platform: w.Platform})
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("second build of an identical spec did not hit the cache")
	}
	if sum := rec.Summary(); sum.Builds != 1 || sum.Hits != 1 {
		t.Errorf("recorder = %d builds, %d hits; want 1, 1", sum.Builds, sum.Hits)
	}
}

// TestGivenEstimatesShareNamespace: a plan built via the estimator
// strategy must be a cache hit for a later build that passes the same
// estimates explicitly — this is what lets the re-slicing loop's round 0
// reuse the nominal plan of the margin study.
func TestGivenEstimatesShareNamespace(t *testing.T) {
	w := workload(t, 4)
	b := &Builder{Cache: NewCache(8)}
	p1, err := b.Build(Spec{Graph: w.Graph, Platform: w.Platform})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := b.Build(Spec{Graph: w.Graph, Platform: w.Platform, Estimates: p1.Estimates})
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("explicit-estimate build missed the strategy-built plan")
	}
}

func TestCacheKeySeparatesConfigs(t *testing.T) {
	w := workload(t, 5)
	cache := NewCache(16)
	spec := Spec{Graph: w.Graph, Platform: w.Platform}
	params2 := slicing.CalibratedParams()
	params2.KL *= 2
	builders := []*Builder{
		{Cache: cache},
		{Cache: cache, Distributor: deadline.Sliced{Metric: slicing.PURE(), Params: slicing.CalibratedParams()}},
		{Cache: cache, Distributor: deadline.Sliced{Metric: slicing.AdaptL(), Params: params2}},
		{Cache: cache, Dispatcher: Planner()},
		{Cache: cache, Verifier: FeasVerifier()},
		{Cache: cache, Distributor: deadline.UD{}},
	}
	seen := make(map[Key]bool)
	for i, b := range builders {
		plan, err := b.Build(spec)
		if err != nil {
			t.Fatalf("builder %d: %v", i, err)
		}
		if seen[plan.Key] {
			t.Errorf("builder %d collided with an earlier configuration: %+v", i, plan.Key)
		}
		seen[plan.Key] = true
	}
	if cache.Len() != len(builders) {
		t.Errorf("cache holds %d plans, want %d", cache.Len(), len(builders))
	}
}

func TestFingerprint(t *testing.T) {
	w1, w2 := workload(t, 6), workload(t, 7)
	if Fingerprint(w1.Graph, w1.Platform) == Fingerprint(w2.Graph, w2.Platform) {
		t.Error("different workloads share a fingerprint")
	}
	if Fingerprint(w1.Graph, w1.Platform) != Fingerprint(w1.Graph, w1.Platform) {
		t.Error("fingerprint is not deterministic")
	}
	// Display names must not affect the fingerprint.
	before := Fingerprint(w1.Graph, w1.Platform)
	saved := w1.Graph.Task(0).Name
	w1.Graph.Task(0).Name = "renamed"
	if Fingerprint(w1.Graph, w1.Platform) != before {
		t.Error("renaming a task changed the fingerprint")
	}
	w1.Graph.Task(0).Name = saved
	// A WCET change must.
	w1.Graph.Task(0).WCET[0]++
	if Fingerprint(w1.Graph, w1.Platform) == before {
		t.Error("a WCET change left the fingerprint unchanged")
	}
	w1.Graph.Task(0).WCET[0]--
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	for i := 0; i < 3; i++ {
		c.put(Key{Workload: uint64(i)}, &Plan{})
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d plans, want 2", c.Len())
	}
	if _, ok := c.get(Key{Workload: 0}); ok {
		t.Error("least-recently-used plan was not evicted")
	}
	if _, ok := c.get(Key{Workload: 2}); !ok {
		t.Error("most-recently-inserted plan was evicted")
	}
	c.Purge()
	if c.Len() != 0 {
		t.Error("Purge left plans behind")
	}
}

func TestExplicitEstimatesAreCopied(t *testing.T) {
	w := workload(t, 8)
	est, err := wcet.Estimates(w.Graph, w.Platform, wcet.AVG)
	if err != nil {
		t.Fatal(err)
	}
	b := &Builder{}
	plan, err := b.Build(Spec{Graph: w.Graph, Platform: w.Platform, Estimates: est})
	if err != nil {
		t.Fatal(err)
	}
	est[0] += 1000
	if plan.Estimates[0] == est[0] {
		t.Error("plan aliases the caller's estimate slice")
	}
}

func TestRecorderFormat(t *testing.T) {
	w := workload(t, 9)
	rec := NewRecorder(true)
	b := &Builder{Recorder: rec, Verifier: FeasVerifier()}
	if _, err := b.Build(Spec{Graph: w.Graph, Platform: w.Platform}); err != nil {
		t.Fatal(err)
	}
	out := rec.Summary().Format()
	for _, want := range []string{"1 builds", "0 cache hits", "slice", "dispatch"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() = %q, missing %q", out, want)
		}
	}
	if sum := rec.Summary(); sum.Slice.Allocs == 0 {
		t.Error("alloc counting was requested but recorded no allocations")
	}
}

// TestProbe pins the cache-only lookup: same key as a real build, nil
// plan before the build, the built plan after, and no recorder traffic
// either way.
func TestProbe(t *testing.T) {
	cfg := gen.Default(5)
	cfg.Seed = 99
	w := gen.MustGenerate(cfg)
	spec := Spec{Graph: w.Graph, Platform: w.Platform}
	rec := NewRecorder(false)
	b := &Builder{Cache: NewCache(8), Recorder: rec}

	plan, key, err := b.Probe(spec)
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		t.Fatal("probe before any build should miss")
	}
	built, err := b.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if built.Key != key {
		t.Fatalf("probe key %+v != build key %+v", key, built.Key)
	}
	hit, _, err := b.Probe(spec)
	if err != nil {
		t.Fatal(err)
	}
	if hit != built {
		t.Fatal("probe after build should return the cached plan")
	}
	if sum := rec.Summary(); sum.Hits != 0 || sum.Builds != 1 {
		t.Fatalf("probe must not touch the recorder: %+v", sum)
	}

	if _, _, err := (&Builder{}).Probe(Spec{}); err == nil {
		t.Fatal("probe of an empty spec should fail")
	}
}

func TestBuildRejectsEmptySpec(t *testing.T) {
	if _, err := (&Builder{}).Build(Spec{}); err == nil {
		t.Fatal("Build accepted an empty spec")
	}
}

func TestStageStatsPopulated(t *testing.T) {
	w := workload(t, 10)
	plan, err := (&Builder{}).Build(Spec{Graph: w.Graph, Platform: w.Platform})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stats.Slice.Wall <= 0 || plan.Stats.Dispatch.Wall <= 0 || plan.Stats.Estimate.Wall <= 0 {
		t.Errorf("stage walls not populated: %+v", plan.Stats)
	}
	if plan.Stats.Total() < plan.Stats.Slice.Wall {
		t.Error("Total() lost a stage")
	}
}
