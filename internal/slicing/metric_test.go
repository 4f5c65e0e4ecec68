package slicing

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/rtime"
	"repro/internal/taskgraph"
)

func c1(v rtime.Time) []rtime.Time { return []rtime.Time{v} }

// forkJoin builds A→(B,C,D)→E: one source, three parallel middles, one sink.
func forkJoin(t testing.TB, mid rtime.Time) *taskgraph.Graph {
	t.Helper()
	g := taskgraph.NewGraph(1)
	a := g.MustAddTask("A", c1(10), 0)
	var mids []int
	for i := 0; i < 3; i++ {
		mids = append(mids, g.MustAddTask("M", c1(mid), 0).ID)
	}
	e := g.MustAddTask("E", c1(10), 0)
	for _, m := range mids {
		g.MustAddArc(a.ID, m, 1)
		g.MustAddArc(m, e.ID, 1)
	}
	g.MustFreeze()
	return g
}

func envFor(g *taskgraph.Graph, est []rtime.Time, m int) *Env {
	return &Env{G: g, Est: est, M: m, Params: DefaultParams()}
}

func TestPureR(t *testing.T) {
	m := PURE()
	if got := m.R(60, 3, 30); got != 10 {
		t.Errorf("R_PURE = %v, want 10", got)
	}
	if got := m.R(20, 4, 30); got != -2.5 {
		t.Errorf("R_PURE negative laxity = %v, want -2.5", got)
	}
	if !math.IsInf(m.R(10, 0, 0), 1) {
		t.Error("R_PURE with no tasks should be +Inf")
	}
}

func TestNormR(t *testing.T) {
	m := NORM()
	if got := m.R(120, 3, 60); got != 1 {
		t.Errorf("R_NORM = %v, want 1", got)
	}
	if got := m.R(30, 3, 60); got != -0.5 {
		t.Errorf("R_NORM tight = %v, want -0.5", got)
	}
	if !math.IsInf(m.R(10, 3, 0), 1) {
		t.Error("R_NORM with zero cost should be +Inf")
	}
}

func TestPureShares(t *testing.T) {
	m := PURE()
	got := m.Shares(60, []rtime.Time{10, 10, 10})
	for i, want := range []float64{20, 20, 20} {
		if got[i] != want {
			t.Errorf("share[%d] = %v, want %v", i, got[i], want)
		}
	}
	// Unequal costs: equal laxity on top of each cost (eq. 5).
	got = m.Shares(70, []rtime.Time{10, 30})
	if got[0] != 25 || got[1] != 45 {
		t.Errorf("shares = %v, want [25 45]", got)
	}
}

func TestNormShares(t *testing.T) {
	m := NORM()
	got := m.Shares(120, []rtime.Time{10, 20, 30})
	for i, want := range []float64{20, 40, 60} {
		if got[i] != want {
			t.Errorf("share[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestSharesSumToWindow(t *testing.T) {
	for _, m := range Metrics() {
		for _, w := range []rtime.Time{37, 100, 999} {
			costs := []rtime.Time{7, 19, 3, 42}
			sum := 0.0
			for _, s := range m.Shares(w, costs) {
				sum += s
			}
			if math.Abs(sum-float64(w)) > 1e-9 {
				t.Errorf("%s: shares sum to %v for window %d", m.Name(), sum, w)
			}
		}
	}
}

func TestNonAdaptiveVirtualCostsAreEstimates(t *testing.T) {
	g := forkJoin(t, 20)
	est := []rtime.Time{10, 20, 20, 20, 10}
	env := envFor(g, est, 3)
	for _, m := range []Metric{PURE(), NORM()} {
		vc := m.VirtualCosts(env)
		for i := range est {
			if vc[i] != est[i] {
				t.Errorf("%s: ĉ[%d] = %d, want %d", m.Name(), i, vc[i], est[i])
			}
		}
	}
}

func TestAdaptGVirtualCosts(t *testing.T) {
	g := forkJoin(t, 20)
	est := []rtime.Time{10, 20, 20, 20, 10}
	// Workload = 80, critical path = 10+20+10 = 40, ξ = 2.
	// Mean estimate = 16 → threshold 16; the 20s inflate, the 10s don't.
	env := envFor(g, est, 4) // m = 4 → surplus = 1.5·2/4 = 0.75
	vc := AdaptG().VirtualCosts(env)
	want := []rtime.Time{10, 35, 35, 35, 10} // 20·1.75 = 35
	for i := range want {
		if vc[i] != want[i] {
			t.Errorf("ĉ[%d] = %d, want %d", i, vc[i], want[i])
		}
	}
}

func TestAdaptLVirtualCosts(t *testing.T) {
	g := forkJoin(t, 20)
	est := []rtime.Time{10, 20, 20, 20, 10}
	// |Ψ| of each middle task is 2; of the endpoints 0.
	env := envFor(g, est, 2) // surplus = 0.2·2/2 = 0.2 for the middles
	vc := AdaptL().VirtualCosts(env)
	want := []rtime.Time{10, 24, 24, 24, 10}
	for i := range want {
		if vc[i] != want[i] {
			t.Errorf("ĉ[%d] = %d, want %d", i, vc[i], want[i])
		}
	}
}

func TestThresholdFiltersSmallTasks(t *testing.T) {
	g := forkJoin(t, 40)
	est := []rtime.Time{10, 40, 40, 40, 10}
	env := envFor(g, est, 1)
	env.Params.CThres = 40 // explicit absolute threshold
	vc := AdaptL().VirtualCosts(env)
	if vc[0] != 10 || vc[4] != 10 {
		t.Error("tasks below threshold must keep their estimate")
	}
	if vc[1] <= 40 {
		t.Error("tasks at/above threshold must inflate")
	}
}

func TestThresholdFromFactor(t *testing.T) {
	p := Params{CThresFactor: 1.0}
	if got := p.threshold([]rtime.Time{10, 20, 30}); got != 20 {
		t.Errorf("threshold = %d, want 20", got)
	}
	p2 := Params{CThresFactor: 0.5}
	if got := p2.threshold([]rtime.Time{10, 20, 30}); got != 10 {
		t.Errorf("threshold = %d, want 10", got)
	}
	p3 := Params{CThres: 7, CThresFactor: 99}
	if got := p3.threshold([]rtime.Time{10, 20, 30}); got != 7 {
		t.Error("absolute threshold must win over the factor")
	}
	if got := (Params{CThresFactor: 1}).threshold(nil); got != 0 {
		t.Errorf("threshold of empty = %d", got)
	}
}

func TestInflateNeverShrinks(t *testing.T) {
	g := forkJoin(t, 20)
	est := []rtime.Time{10, 20, 20, 20, 10}
	env := envFor(g, est, 3)
	env.Params.KL = -5 // pathological negative factor
	vc := AdaptL().VirtualCosts(env)
	for i := range est {
		if vc[i] < est[i] {
			t.Errorf("ĉ[%d] = %d < c̄ = %d", i, vc[i], est[i])
		}
	}
}

func TestMetricsAndByName(t *testing.T) {
	ms := Metrics()
	wantNames := []string{"PURE", "NORM", "ADAPT-G", "ADAPT-L"}
	if len(ms) != len(wantNames) {
		t.Fatalf("Metrics() returned %d metrics", len(ms))
	}
	for i, m := range ms {
		if m.Name() != wantNames[i] {
			t.Errorf("metric %d = %s, want %s", i, m.Name(), wantNames[i])
		}
		got, err := ByName(m.Name())
		if err != nil || got.Name() != m.Name() {
			t.Errorf("ByName(%s) failed: %v", m.Name(), err)
		}
	}
	if _, err := ByName("BOGUS"); err == nil {
		t.Error("ByName should reject unknown names")
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.KG != 1.5 || p.KL != 0.2 || p.CThresFactor != 1.0 || p.CThres != 0 {
		t.Errorf("DefaultParams = %+v, want paper §6 values", p)
	}
}

// Fixed over the estimates is PURE: the same assignment, and a copy of
// its vector as the virtual costs.
func TestFixedOverEstimatesIsPure(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		g, est := randomWorkload(rng)
		vc := append([]rtime.Time(nil), est...)
		got, err := Distribute(g, est, 3, Fixed("PURE", vc), CalibratedParams())
		if err != nil {
			t.Fatal(err)
		}
		want, err := Distribute(g, est, 3, PURE(), CalibratedParams())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workload %d: Fixed over the estimates differs from PURE", i)
		}
		Fixed("PURE", vc).VirtualCosts(nil)[0]++
		if vc[0] != est[0] {
			t.Fatal("Fixed's virtual costs alias its vector")
		}
	}
}
