package repro

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestPipelineOnGeneratedWorkload(t *testing.T) {
	cfg := DefaultWorkloadConfig(4)
	cfg.Seed = 101
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DefaultPipeline().Run(w.Graph, w.Platform)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) != w.Graph.NumTasks() {
		t.Error("estimates missing")
	}
	if err := res.Assignment.Validate(w.Graph); err != nil {
		t.Errorf("assignment invalid: %v", err)
	}
	if !res.Report.Valid {
		t.Errorf("replay violations: %v", res.Report.Violations)
	}
	if res.Schedule.Feasible != (len(res.Report.DeadlineMisses) == 0) {
		t.Error("scheduler and replay disagree on feasibility")
	}
}

func TestPipelineZeroValueDefaults(t *testing.T) {
	// A zero Pipeline must fall back to sensible policies rather than
	// crash on the nil metric.
	w, err := Generate(DefaultWorkloadConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	var pipe Pipeline
	if _, err := pipe.Run(w.Graph, w.Platform); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineVariants(t *testing.T) {
	cfg := DefaultWorkloadConfig(3)
	cfg.Seed = 7
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pipe := range []Pipeline{
		{Metric: PURE(), Params: DefaultParams(), WCET: WCETMax},
		{Metric: NORM(), Params: DefaultParams(), WCET: WCETMin, UsePlanner: true},
		{Metric: AdaptG(), Params: CalibratedParams(), SerializedBus: true},
	} {
		res, err := pipe.Run(w.Graph, w.Platform)
		if err != nil {
			t.Fatalf("%+v: %v", pipe, err)
		}
		if res.Schedule == nil || res.Report == nil {
			t.Fatalf("%+v: missing artifacts", pipe)
		}
	}
}

func TestHandBuiltGraphThroughAPI(t *testing.T) {
	g := NewGraph(2)
	sensor := g.MustAddTask("sensor", []Time{5, 7}, 0)
	filter := g.MustAddTask("filter", []Time{20, 14}, 0)
	act := g.MustAddTask("actuate", []Time{6, Unset}, 0)
	g.MustAddArc(sensor.ID, filter.ID, 2)
	g.MustAddArc(filter.ID, act.ID, 1)
	act.ETEDeadline = 90
	g.MustFreeze()

	p, err := NewPlatform([]Class{{Name: "dsp"}, {Name: "cpu"}}, []int{0, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DefaultPipeline().Run(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedule.Feasible {
		t.Errorf("3-task pipeline with deadline 90 should schedule: %+v", res.Schedule.Placements)
	}
	// The actuator is only eligible on the dsp class.
	if got := res.Schedule.Placements[act.ID].Proc; got != 0 {
		t.Errorf("actuator on processor %d, want 0", got)
	}
}

func TestMetricHelpers(t *testing.T) {
	if len(Metrics()) != 4 {
		t.Error("Metrics should return four metrics")
	}
	m, err := MetricByName("ADAPT-L")
	if err != nil || m.Name() != "ADAPT-L" {
		t.Errorf("MetricByName failed: %v", err)
	}
	if _, err := MetricByName("nope"); err == nil {
		t.Error("unknown metric accepted")
	}
}

func TestFigureDispatch(t *testing.T) {
	opts := DefaultExperimentOptions()
	opts.NumGraphs = 2
	table, err := Figure(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Series) != 4 {
		t.Errorf("figure 2 has %d series", len(table.Series))
	}
	if _, err := Figure(99, opts); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestPeriodicThroughAPI(t *testing.T) {
	g := NewGraph(1)
	a := g.MustAddTask("a", []Time{10}, 0)
	b := g.MustAddTask("b", []Time{10}, 0)
	a.Period, b.Period = 50, 50
	g.MustAddArc(a.ID, b.ID, 1)
	c := g.MustAddTask("c", []Time{10}, 0)
	c.Period = 100
	b.ETEDeadline = 45
	c.ETEDeadline = 95
	g.MustFreeze()

	e, err := ExpandPeriodic(g)
	if err != nil {
		t.Fatal(err)
	}
	if e.Graph.NumTasks() != 5 {
		t.Fatalf("expanded to %d tasks, want 5", e.Graph.NumTasks())
	}
	res, err := DefaultPipeline().Run(e.Graph, HomogeneousPlatform(2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedule.Feasible {
		t.Errorf("periodic expansion should schedule: missed %v", res.Schedule.Missed)
	}
}

func TestSubSeedExported(t *testing.T) {
	if SubSeed(1, 2) == SubSeed(1, 3) {
		t.Error("SubSeed collision")
	}
}

func TestExtensionSchedulersThroughAPI(t *testing.T) {
	cfg := DefaultWorkloadConfig(3)
	cfg.Seed = 55
	cfg.OLR = 0.6
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Estimates(w.Graph, w.Platform, WCETAvg)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := Distribute(w.Graph, est, w.Platform.M(), AdaptL(), CalibratedParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InsertEDF(w.Graph, w.Platform, asg); err != nil {
		t.Errorf("InsertEDF: %v", err)
	}
	pre, err := DispatchPreemptive(w.Graph, w.Platform, asg)
	if err != nil {
		t.Fatalf("DispatchPreemptive: %v", err)
	}
	if len(pre.Slices) == 0 {
		t.Error("preemptive schedule has no slices")
	}
}

func TestExactScheduleThroughAPI(t *testing.T) {
	g := NewGraph(1)
	g.MustAddTask("a", []Time{5}, 0)
	g.MustAddTask("b", []Time{5}, 0)
	g.MustAddArc(0, 1, 0)
	g.Task(1).ETEDeadline = 20
	g.MustFreeze()
	p := HomogeneousPlatform(1)
	est, err := Estimates(g, p, WCETAvg)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := Distribute(g, est, 1, PURE(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExactSchedule(g, p, asg, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || !res.Schedule.Feasible {
		t.Errorf("trivial exact search failed: %+v", res)
	}
}

func TestAdaptRThroughAPI(t *testing.T) {
	if AdaptR().Name() != "ADAPT-R" {
		t.Error("AdaptR name wrong")
	}
	if m, err := MetricByName("ADAPT-R"); err != nil || m.Name() != "ADAPT-R" {
		t.Errorf("MetricByName(ADAPT-R): %v", err)
	}
}

func TestResourceWorkloadThroughAPI(t *testing.T) {
	cfg := DefaultWorkloadConfig(3)
	cfg.Seed = 66
	cfg.NumResources = 2
	cfg.ResourceProb = 0.3
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hasRes := false
	for _, tk := range w.Graph.Tasks() {
		if len(tk.Resources) > 0 {
			hasRes = true
		}
	}
	if !hasRes {
		t.Fatal("no resources generated")
	}
	res, err := Pipeline{Metric: AdaptR(), Params: CalibratedParams()}.Run(w.Graph, w.Platform)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Valid {
		t.Errorf("replay violations: %v", res.Report.Violations)
	}
}

func TestFaultInjectionThroughAPI(t *testing.T) {
	cfg := DefaultWorkloadConfig(3)
	cfg.Seed = 77
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DefaultPipeline().Run(w.Graph, w.Platform)
	if err != nil {
		t.Fatal(err)
	}
	var span Time
	for _, o := range w.Graph.Outputs() {
		if d := w.Graph.Task(o).ETEDeadline; d > span {
			span = d
		}
	}
	// Zero intensity reproduces the nominal replay exactly.
	tr, err := MaterializeFaults(ScaledFaultPlan(0, 7), w.Graph, w.Platform, span)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := InjectFaults(w.Graph, w.Platform, res.Assignment, res.Schedule, tr, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&ir.Report, res.Report) {
		t.Errorf("zero-intensity injection diverged from nominal replay")
	}
	// Full intensity degrades but still verifies.
	tr, err = MaterializeFaults(ScaledFaultPlan(1, 7), w.Graph, w.Platform, span)
	if err != nil {
		t.Fatal(err)
	}
	ir, err = InjectFaults(w.Graph, w.Platform, res.Assignment, res.Schedule, tr, true)
	if err != nil {
		t.Fatal(err)
	}
	if !ir.Valid {
		t.Errorf("injected run structurally invalid: %v", ir.Violations)
	}
	if ir.Degradation.Overruns == 0 {
		t.Error("full-intensity plan injected no overruns")
	}
}

// manualAssignment builds windows directly, bypassing the slicer, so a
// dispatcher can be driven on hand-picked windows.
func manualAssignment(arrivals, deadlines []Time) *Assignment {
	rel := make([]Time, len(arrivals))
	for i := range rel {
		rel[i] = deadlines[i] - arrivals[i]
	}
	return &Assignment{Arrival: arrivals, AbsDeadline: deadlines, RelDeadline: rel}
}

func fullFrac(n int) []float64 {
	f := make([]float64, n)
	for i := range f {
		f[i] = 1
	}
	return f
}

// With every task running its full WCET, DispatchActual is the nominal
// time-driven dispatch.
func TestActualFullFractionMatchesDispatch(t *testing.T) {
	t.Run("generated", func(t *testing.T) {
		cfg := DefaultWorkloadConfig(3)
		cfg.Seed = 31
		w, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		est, err := Estimates(w.Graph, w.Platform, WCETAvg)
		if err != nil {
			t.Fatal(err)
		}
		asg, err := Distribute(w.Graph, est, 3, AdaptL(), CalibratedParams())
		if err != nil {
			t.Fatal(err)
		}
		checkFullFraction(t, w.Graph, w.Platform, asg)
	})
	// A chain a→b→c whose middle task is pinned to a processor of a
	// class it has no WCET on. The dispatcher screens b out as
	// unplaceable and runs c once a is done.
	t.Run("bad-pin", func(t *testing.T) {
		g := NewGraph(2)
		a := g.MustAddTask("a", []Time{10, 10}, 0)
		b := g.MustAddTask("b", []Time{10, Unset}, 0)
		c := g.MustAddTask("c", []Time{10, 10}, 0)
		b.Pinned = 1
		g.MustAddArc(a.ID, b.ID, 1)
		g.MustAddArc(b.ID, c.ID, 1)
		c.ETEDeadline = 60
		g.MustFreeze()
		p, err := NewPlatform([]Class{{Name: "e0"}, {Name: "e1"}}, []int{0, 1}, 1)
		if err != nil {
			t.Fatal(err)
		}
		asg := manualAssignment([]Time{0, 20, 40}, []Time{20, 40, 60})
		s := checkFullFraction(t, g, p, asg)
		if len(s.Missed) != 1 || s.Missed[0] != b.ID || s.Placements[c.ID].Proc < 0 {
			t.Errorf("missed %v, c placed on %d; want only b missed and c run",
				s.Missed, s.Placements[c.ID].Proc)
		}
	})
}

// checkFullFraction requires DispatchActual under all-1 fractions to
// return Dispatch's schedule, and returns it.
func checkFullFraction(t *testing.T, g *Graph, p *Platform, asg *Assignment) *Schedule {
	t.Helper()
	want, err := Dispatch(g, p, asg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DispatchActual(g, p, asg, fullFrac(g.NumTasks()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("full fractions diverge from Dispatch:\nwant %+v\ngot  %+v", want, got)
	}
	return got
}

func TestActualValidation(t *testing.T) {
	g := NewGraph(1)
	g.MustAddTask("", []Time{10}, 0)
	g.MustFreeze()
	p := HomogeneousPlatform(1)
	asg := manualAssignment([]Time{0}, []Time{20})
	if _, err := DispatchActual(g, p, asg, nil); err == nil {
		t.Error("missing fractions accepted")
	}
	if _, err := DispatchActual(g, p, asg, []float64{0}); err == nil {
		t.Error("zero fraction accepted")
	}
	if _, err := DispatchActual(g, p, asg, []float64{1.5}); err == nil {
		t.Error("fraction above 1 accepted")
	}
}

// The Graham-style anomaly, constructed deterministically: a schedule
// that is feasible under full WCETs becomes infeasible when one task
// finishes early, because the early completion lets the dispatcher
// commit a long, later-deadline task before the tight one arrives.
func TestEarlyCompletionAnomaly(t *testing.T) {
	g := NewGraph(1)
	g.MustAddTask("X", []Time{12}, 0)      // deadline 12: always dispatched first
	g.MustAddTask("Y", []Time{14}, 0)      // slack task
	z := g.MustAddTask("Z", []Time{14}, 0) // tight, arrives at 11
	g.MustFreeze()
	p := HomogeneousPlatform(1)
	asg := manualAssignment(
		[]Time{0, 0, 11},
		[]Time{12, 40, 26})

	// Full WCET: X [0,12); at 12 both Y and Z are ready, EDF picks Z
	// (deadline 26 < 40) → Z [12,26) meets, Y [26,40) meets.
	full, err := DispatchActual(g, p, asg, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Feasible {
		t.Fatalf("full-WCET run should be feasible: %+v", full.Placements)
	}

	// X finishes early (10 of 12): at 10 only Y is ready → Y [10,24);
	// Z arrives at 11, waits, runs [24,38) and misses 26.
	early, err := DispatchActual(g, p, asg, []float64{10.0 / 12.0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if early.Feasible {
		t.Fatalf("early completion should trigger the anomaly: %+v", early.Placements)
	}
	if len(early.Missed) != 1 || early.Missed[0] != z.ID {
		t.Errorf("missed = %v, want [Z]", early.Missed)
	}
}

// Statistical view of the anomaly: over random workloads with random
// early completions, count both directions (early completion rescues a
// failing schedule vs breaks a feasible one). Rescues should dominate —
// shorter work usually helps — but breaks must exist.
func TestAnomalyRates(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical study")
	}
	rescued, broken := 0, 0
	const graphs = 200
	for idx := 0; idx < graphs; idx++ {
		cfg := DefaultWorkloadConfig(3)
		cfg.OLR = 0.55
		cfg.Seed = SubSeed(3, idx)
		w, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		est, err := Estimates(w.Graph, w.Platform, WCETAvg)
		if err != nil {
			t.Fatal(err)
		}
		asg, err := Distribute(w.Graph, est, 3, AdaptL(), CalibratedParams())
		if err != nil {
			t.Fatal(err)
		}
		full, err := Dispatch(w.Graph, w.Platform, asg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(SubSeed(4, idx)))
		frac := make([]float64, w.Graph.NumTasks())
		for i := range frac {
			frac[i] = 0.5 + 0.5*rng.Float64()
		}
		actual, err := DispatchActual(w.Graph, w.Platform, asg, frac)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case !full.Feasible && actual.Feasible:
			rescued++
		case full.Feasible && !actual.Feasible:
			broken++
		}
	}
	t.Logf("rescued %d, broken (anomaly) %d of %d", rescued, broken, graphs)
	if rescued == 0 {
		t.Error("early completion never helped — suspicious")
	}
	// The anomaly is real but rare; do not demand it on every sample
	// set, only that the mechanism is not impossibly frequent.
	if broken > graphs/4 {
		t.Errorf("anomaly rate %d/%d implausibly high", broken, graphs)
	}
}

func TestBreakdownFactorThroughAPI(t *testing.T) {
	cfg := DefaultWorkloadConfig(3)
	cfg.Seed = 33
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DefaultPipeline().Run(w.Graph, w.Platform)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BreakdownFactor(w.Graph, w.Platform, res.Assignment, res.Schedule, BreakdownOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b.SurvivesNominal != res.Schedule.Feasible {
		t.Errorf("breakdown nominal %v, schedule feasible %v", b.SurvivesNominal, res.Schedule.Feasible)
	}
	if b.SurvivesNominal && b.Factor < 1 {
		t.Errorf("nominally feasible but factor %.3f < 1", b.Factor)
	}
}

func TestMarginStudyThroughAPI(t *testing.T) {
	cfg := MarginConfig{
		Gen:        DefaultWorkloadConfig(3),
		Metric:     AdaptL(),
		Params:     CalibratedParams(),
		WCET:       WCETAvg,
		NumGraphs:  10,
		MasterSeed: 5,
		Model:      WCETErrorModel{Kind: WCETErrMultiplicative, Level: 0.25},
	}
	pt := MarginStudy(cfg)
	if pt.Success.Total != 10 || pt.Errors != 0 {
		t.Fatalf("margin point malformed: %+v", pt)
	}
	bp := BreakdownStudy(cfg)
	if bp.Nominal.Total != 10 || bp.Errors != 0 {
		t.Fatalf("breakdown point malformed: %+v", bp)
	}
}

func TestResliceLoopThroughAPI(t *testing.T) {
	cfg := DefaultWorkloadConfig(3)
	cfg.Seed = 11
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Estimates(w.Graph, w.Platform, WCETAvg)
	if err != nil {
		t.Fatal(err)
	}
	var span Time
	for _, o := range w.Graph.Outputs() {
		if d := w.Graph.Task(o).ETEDeadline; d > span {
			span = d
		}
	}
	tr, err := MaterializeFaults(ScaledFaultPlan(0, 3), w.Graph, w.Platform, span)
	if err != nil {
		t.Fatal(err)
	}
	// A zero trace needs no feedback: the loop must report immediate
	// recovery (or an over-constrained base assignment) with 0 iterations.
	rr, err := ResliceLoop(w.Graph, w.Platform, est, AdaptL(), CalibratedParams(), tr, ResliceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Iterations != 0 {
		t.Errorf("zero trace demanded %d feedback iterations", rr.Iterations)
	}
}

func TestDegradationThroughAPI(t *testing.T) {
	cfg := DefaultWorkloadConfig(3)
	cfg.Seed = 13
	cfg.OptionalProb = 0.5
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	modes, err := DegradeModes(w.Graph, DegradeOptions{Policy: DegradeShedLowestValue})
	if err != nil {
		t.Fatal(err)
	}
	if len(modes) < 2 {
		t.Fatalf("no degraded modes at p(optional)=0.5: %d", len(modes))
	}
	if modes[0].Graph != w.Graph || modes[0].Quality != 1 {
		t.Errorf("mode 0 is not the full application: %+v", modes[0])
	}
	for _, m := range modes[1:] {
		if m.Quality >= 1 || m.Shed == 0 {
			t.Errorf("mode %d sheds nothing: quality %v, shed %d", m.Level, m.Quality, m.Shed)
		}
		for old, crit := range criticalities(w.Graph) {
			if crit == Mandatory && m.Old2New[old] < 0 {
				t.Errorf("mode %d shed mandatory task %d", m.Level, old)
			}
		}
	}

	// The controller escalates on a hot frame and probes back after a
	// clean streak.
	ctl := NewModeController(ModeControllerOptions{MaxLevel: len(modes) - 1, CleanStreak: 2})
	if tr := ctl.Observe(ModeObservation{MandatoryMisses: 1}); tr.To != 1 {
		t.Errorf("no escalation: %+v", tr)
	}
	ctl.Observe(ModeObservation{})
	if tr := ctl.Observe(ModeObservation{}); tr.To != 0 {
		t.Errorf("no probe after a clean streak: %+v", tr)
	}

	curve, err := DegradeStudy(DegradeConfig{
		Gen: cfg, Metric: AdaptL(), Params: CalibratedParams(), WCET: WCETAvg,
		NumGraphs: 4, MasterSeed: 5, Intensities: []float64{0, 1},
		Degrade: DegradeOptions{Policy: DegradeProportionalBudget},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Points) != 2 {
		t.Fatalf("points: %d", len(curve.Points))
	}
	if curve.Points[0].Value.Mean() < curve.Points[1].Value.Mean() {
		t.Errorf("achieved value increased with intensity: %v then %v",
			curve.Points[0].Value.Mean(), curve.Points[1].Value.Mean())
	}
}

// criticalities flattens the graph's criticality labels by task ID.
func criticalities(g *Graph) []Criticality {
	out := make([]Criticality, g.NumTasks())
	for i := range out {
		out[i] = g.Task(i).Criticality
	}
	return out
}
