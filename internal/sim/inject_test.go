package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
	"repro/internal/wcet"
)

// chainFixture builds a 3-task chain on one processor with PURE windows
// [0,20) [20,40) [40,60): the workload of the hand-checkable overrun
// table test.
func chainFixture(t *testing.T) (*taskgraph.Graph, *arch.Platform, *slicing.Assignment) {
	t.Helper()
	g := taskgraph.NewGraph(1)
	g.MustAddTask("a", c1(10), 0)
	g.MustAddTask("b", c1(10), 0)
	g.MustAddTask("c", c1(10), 0)
	g.MustAddArc(0, 1, 0)
	g.MustAddArc(1, 2, 0)
	g.Task(2).ETEDeadline = 60
	g.MustFreeze()
	p := arch.Homogeneous(1)
	est := []rtime.Time{10, 10, 10}
	asg, err := slicing.Distribute(g, est, 1, slicing.PURE(), slicing.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return g, p, asg
}

// Property: a zero-intensity fault plan is a strict superset of nominal
// replay — the injected execution reproduces the time-driven schedule
// and the nominal Report byte for byte.
func TestZeroIntensityInjectionMatchesReplay(t *testing.T) {
	f := func(seed int64, mRaw uint8, serialized bool) bool {
		m := 2 + int(mRaw%6)
		cfg := gen.Default(m)
		cfg.Seed = seed
		w, err := gen.Generate(cfg)
		if err != nil {
			return false
		}
		est, err := wcet.Estimates(w.Graph, w.Platform, wcet.AVG)
		if err != nil {
			return false
		}
		asg, err := slicing.Distribute(w.Graph, est, m, slicing.AdaptL(), slicing.CalibratedParams())
		if err != nil {
			return false
		}
		s, err := sched.Dispatch(w.Graph, w.Platform, asg)
		if err != nil {
			return false
		}
		nominal, err := Replay(w.Graph, w.Platform, asg, s, Options{SerializedBus: serialized})
		if err != nil {
			return false
		}
		trace, err := faults.Scaled(0, seed).Materialize(w.Graph, w.Platform, 1000)
		if err != nil {
			return false
		}
		ir, err := Inject(w.Graph, w.Platform, asg, s, Options{SerializedBus: serialized, Faults: trace})
		if err != nil {
			return false
		}
		if !reflect.DeepEqual(ir.Executed.Placements, s.Placements) {
			t.Logf("seed %d m %d: executed placements diverge", seed, m)
			return false
		}
		if !reflect.DeepEqual(&ir.Report, nominal) {
			t.Logf("seed %d m %d: reports diverge:\nnominal  %+v\ninjected %+v", seed, m, nominal, ir.Report)
			return false
		}
		if ir.Degradation.Overruns != 0 || ir.Degradation.Aborted != 0 ||
			ir.Degradation.Migrations != 0 || ir.Degradation.Reclamations != 0 {
			t.Logf("seed %d m %d: zero trace reported fault activity: %+v", seed, m, ir.Degradation)
			return false
		}
		// Recovery must also be inert on feasible nominal runs.
		if s.Feasible {
			ir2, err := Inject(w.Graph, w.Platform, asg, s, Options{SerializedBus: serialized, Faults: trace, Reclaim: true})
			if err != nil || !reflect.DeepEqual(&ir2.Report, nominal) {
				t.Logf("seed %d m %d: reclaim perturbed a feasible zero-fault run", seed, m)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

// Table test: one known overrun produces exactly the predicted
// downstream misses. t0 (window [0,20)) runs 4× over on a single
// processor: t0 finishes at 40 (miss, lateness 20), t1 runs [40,50)
// against deadline 40 (miss, lateness 10), t2 runs [50,60) against
// deadline 60 — on time. The end-to-end contract survives.
func TestSingleOverrunPredictedMisses(t *testing.T) {
	g, p, asg := chainFixture(t)
	s, err := sched.Dispatch(g, p, asg)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Feasible {
		t.Fatalf("nominal chain infeasible: %+v", s)
	}
	trace := faults.ZeroTrace(3, 1)
	trace.ExecScale[0] = 4

	ir, err := Inject(g, p, asg, s, Options{Faults: trace})
	if err != nil {
		t.Fatal(err)
	}
	d := ir.Degradation
	wantPlacements := []sched.Placement{
		{Proc: 0, Start: 0, Finish: 40},
		{Proc: 0, Start: 40, Finish: 50},
		{Proc: 0, Start: 50, Finish: 60},
	}
	if !reflect.DeepEqual(ir.Executed.Placements, wantPlacements) {
		t.Fatalf("executed placements = %+v, want %+v", ir.Executed.Placements, wantPlacements)
	}
	if got, want := ir.Executed.Missed, []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("missed = %v, want %v", got, want)
	}
	if d.Misses != 2 || d.ETEMisses != 0 || d.Unplaced != 0 {
		t.Errorf("Misses=%d ETEMisses=%d Unplaced=%d, want 2, 0, 0", d.Misses, d.ETEMisses, d.Unplaced)
	}
	if d.Overruns != 1 {
		t.Errorf("Overruns = %d, want 1", d.Overruns)
	}
	if d.FirstMiss != 40 {
		t.Errorf("FirstMiss = %d, want 40", d.FirstMiss)
	}
	if d.MaxLateness != 20 {
		t.Errorf("MaxLateness = %d, want 20", d.MaxLateness)
	}
	if d.MeanLateness != 15 { // (20 + 10) / 2
		t.Errorf("MeanLateness = %v, want 15", d.MeanLateness)
	}
	if !ir.Valid {
		t.Errorf("injected run structurally invalid: %v", ir.Violations)
	}

	// With recovery: the same overrun triggers exactly one reclamation
	// (the deadline accounting, judged against the original windows, is
	// unchanged on a single processor where no reordering is possible).
	ir2, err := Inject(g, p, asg, s, Options{Faults: trace, Reclaim: true})
	if err != nil {
		t.Fatal(err)
	}
	if ir2.Degradation.Reclamations != 1 {
		t.Errorf("Reclamations = %d, want 1", ir2.Degradation.Reclamations)
	}
	if !reflect.DeepEqual(ir2.Executed.Placements, wantPlacements) {
		t.Errorf("recovery changed a single-processor chain: %+v", ir2.Executed.Placements)
	}
}

// Processor loss: the task running on the dying processor is aborted
// and migrates to the survivor, exploiting relaxed locality.
func TestProcessorLossMigration(t *testing.T) {
	g := taskgraph.NewGraph(1)
	g.MustAddTask("a", c1(10), 0)
	g.MustAddTask("b", c1(10), 0)
	g.Task(0).ETEDeadline = 40
	g.Task(1).ETEDeadline = 40
	g.MustFreeze()
	p := arch.Homogeneous(2)
	est := []rtime.Time{10, 10}
	asg, err := slicing.Distribute(g, est, 2, slicing.PURE(), slicing.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Dispatch(g, p, asg)
	if err != nil {
		t.Fatal(err)
	}
	trace := faults.ZeroTrace(2, 2)
	trace.DownAt[0] = 5 // processor 0 dies mid-execution of task 0

	ir, err := Inject(g, p, asg, s, Options{Faults: trace})
	if err != nil {
		t.Fatal(err)
	}
	d := ir.Degradation
	if d.Aborted != 1 || d.Migrations != 1 {
		t.Fatalf("Aborted=%d Migrations=%d, want 1, 1", d.Aborted, d.Migrations)
	}
	pl := ir.Executed.Placements
	if pl[0].Proc != 1 || pl[0].Start != 10 || pl[0].Finish != 20 {
		t.Errorf("migrated task placement = %+v, want proc 1 [10,20)", pl[0])
	}
	if pl[1].Proc != 1 || pl[1].Start != 0 || pl[1].Finish != 10 {
		t.Errorf("survivor placement = %+v, want proc 1 [0,10)", pl[1])
	}
	if !ir.Executed.Feasible || d.Misses != 0 {
		t.Errorf("run should still meet every deadline: %+v", d)
	}
	if !ir.Valid {
		t.Errorf("injected run structurally invalid: %v", ir.Violations)
	}
}

// Total loss: when every eligible processor is gone, the stranded tasks
// are reported unplaced, not looped on forever.
func TestProcessorLossStrandsTasks(t *testing.T) {
	g := taskgraph.NewGraph(1)
	g.MustAddTask("a", c1(10), 0)
	g.Task(0).ETEDeadline = 40
	g.MustFreeze()
	p := arch.Homogeneous(1)
	asg, err := slicing.Distribute(g, []rtime.Time{10}, 1, slicing.PURE(), slicing.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Dispatch(g, p, asg)
	if err != nil {
		t.Fatal(err)
	}
	trace := faults.ZeroTrace(1, 1)
	trace.DownAt[0] = 5

	ir, err := Inject(g, p, asg, s, Options{Faults: trace})
	if err != nil {
		t.Fatal(err)
	}
	if ir.Degradation.Unplaced != 1 || ir.Degradation.Misses != 1 {
		t.Fatalf("Unplaced=%d Misses=%d, want 1, 1", ir.Degradation.Unplaced, ir.Degradation.Misses)
	}
	if ir.Executed.Feasible {
		t.Error("stranded run reported feasible")
	}
}

// Bus jitter: a jittered message delays its consumer by exactly the
// extra delay, and the injected replay verifies the late landing.
func TestBusJitterDelaysConsumer(t *testing.T) {
	// Two classes, one processor each; a runs only on class 0, b only
	// on class 1, so the message must cross the bus (3 items × 1 unit).
	g := taskgraph.NewGraph(2)
	g.MustAddTask("a", []rtime.Time{10, rtime.Unset}, 0)
	g.MustAddTask("b", []rtime.Time{rtime.Unset, 10}, 0)
	g.MustAddArc(0, 1, 3)
	g.Task(1).ETEDeadline = 60
	g.MustFreeze()
	p := arch.MustNew(arch.Unrelated,
		[]arch.Class{{Name: "e0", Speed: 1}, {Name: "e1", Speed: 1}},
		[]int{0, 1}, arch.Bus{DelayPerItem: 1})
	est := []rtime.Time{10, 10}
	asg, err := slicing.Distribute(g, est, 2, slicing.PURE(), slicing.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Dispatch(g, p, asg)
	if err != nil {
		t.Fatal(err)
	}
	// Nominal landing is 10 + 3 = 13, but the consumer's assigned
	// arrival gates it until its window opens; 27 extra units push the
	// landing past every nominal gate, so the start tracks the landing.
	trace := faults.ZeroTrace(2, 2)
	trace.MsgExtra[[2]int{0, 1}] = 27

	ir, err := Inject(g, p, asg, s, Options{Faults: trace})
	if err != nil {
		t.Fatal(err)
	}
	if len(ir.Transfers) != 1 || ir.Transfers[0].End-ir.Transfers[0].Start != 3+27 {
		t.Fatalf("transfer = %+v, want 30 bus units", ir.Transfers)
	}
	if got, want := ir.Executed.Placements[1].Start, ir.Transfers[0].End; got != want {
		t.Errorf("jittered consumer starts at %d, want the landing at %d", got, want)
	}
	if got := ir.Executed.Placements[1].Start; got <= s.Placements[1].Start {
		t.Errorf("jitter did not delay the consumer: %d vs nominal %d", got, s.Placements[1].Start)
	}
	if !ir.Valid {
		t.Errorf("injected run structurally invalid: %v", ir.Violations)
	}
}

// Recovery effectiveness: on a fork where the overrun's sibling branch
// hogs the EDF priority, reclamation re-prioritizes the starved
// descendant and rescues the end-to-end deadline.
func TestReclaimReordersDispatch(t *testing.T) {
	// d0 → d1 and s0 → s1 compete for one processor. Nominal windows
	// give d1 a later deadline than s1; after d0's overrun, d1's chain
	// is the tight one — only reclamation notices.
	g := taskgraph.NewGraph(1)
	g.MustAddTask("d0", c1(10), 0)
	g.MustAddTask("d1", c1(10), 0)
	g.MustAddTask("s0", c1(10), 0)
	g.MustAddTask("s1", c1(10), 0)
	g.MustAddArc(0, 1, 0)
	g.MustAddArc(2, 3, 0)
	g.Task(1).ETEDeadline = 58
	g.Task(3).ETEDeadline = 60
	g.MustFreeze()
	p := arch.Homogeneous(1)
	est := []rtime.Time{10, 10, 10, 10}
	asg, err := slicing.Distribute(g, est, 1, slicing.PURE(), slicing.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Dispatch(g, p, asg)
	if err != nil {
		t.Fatal(err)
	}
	trace := faults.ZeroTrace(4, 1)
	trace.ExecScale[0] = 3.5 // d0 runs 35, past its window — observable overrun

	plain, err := Inject(g, p, asg, s, Options{Faults: trace})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Inject(g, p, asg, s, Options{Faults: trace, Reclaim: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Degradation.Reclamations == 0 {
		t.Fatal("no reclamation triggered")
	}
	if rec.Degradation.ETEMisses > plain.Degradation.ETEMisses {
		t.Errorf("recovery made end-to-end misses worse: %d > %d",
			rec.Degradation.ETEMisses, plain.Degradation.ETEMisses)
	}
	if !rec.Valid {
		t.Errorf("recovered run structurally invalid: %v", rec.Violations)
	}
}

// Injected executions must satisfy every structural obligation the
// verifier checks, whatever the fault mix — the executor and the
// verifier are independent implementations of the faulted semantics.
func TestInjectedRunsReplayCleanly(t *testing.T) {
	f := func(seed int64, mRaw uint8, intensityRaw uint8, reclaim bool) bool {
		m := 2 + int(mRaw%6)
		intensity := float64(intensityRaw%5) / 4
		cfg := gen.Default(m)
		cfg.Seed = seed
		w, err := gen.Generate(cfg)
		if err != nil {
			return false
		}
		est, err := wcet.Estimates(w.Graph, w.Platform, wcet.AVG)
		if err != nil {
			return false
		}
		asg, err := slicing.Distribute(w.Graph, est, m, slicing.AdaptL(), slicing.CalibratedParams())
		if err != nil {
			return false
		}
		s, err := sched.Dispatch(w.Graph, w.Platform, asg)
		if err != nil {
			return false
		}
		var span rtime.Time
		for _, o := range w.Graph.Outputs() {
			if d := w.Graph.Task(o).ETEDeadline; d > span {
				span = d
			}
		}
		trace, err := faults.Scaled(intensity, seed+1).Materialize(w.Graph, w.Platform, span)
		if err != nil {
			return false
		}
		ir, err := Inject(w.Graph, w.Platform, asg, s, Options{Faults: trace, Reclaim: reclaim})
		if err != nil {
			return false
		}
		if !ir.Valid {
			t.Logf("seed %d m %d intensity %.2f: %v", seed, m, intensity, ir.Violations)
			return false
		}
		d := ir.Degradation
		if d.Misses != len(ir.Executed.Missed) || d.MissRatio() < 0 || d.MissRatio() > 1 {
			t.Logf("seed %d: inconsistent accounting %+v", seed, d)
			return false
		}
		if d.Misses != len(ir.DeadlineMisses)+d.Unplaced {
			t.Logf("seed %d: %d misses != %d placed + %d unplaced",
				seed, d.Misses, len(ir.DeadlineMisses), d.Unplaced)
			return false
		}
		if (d.Misses == 0) != ir.Executed.Feasible {
			t.Logf("seed %d: feasibility disagreement", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

// injectTally counts the fault activity a corpus of reference runs
// exercised, so the equivalence test can show it covered every path.
type injectTally struct {
	runs, faulted, aborted, migrations, reclamations, unplaced int
}

// injectAgrees runs Inject and the reference executor on one input and
// fails unless their errors and whole reports are equal.
func injectAgrees(t *testing.T, label string, g *taskgraph.Graph, p *arch.Platform,
	asg *slicing.Assignment, s *sched.Schedule, opts Options, tally *injectTally) {
	t.Helper()
	want, werr := injectReference(g, p, asg, s, opts)
	got, gerr := Inject(g, p, asg, s, opts)
	if fmt.Sprint(werr) != fmt.Sprint(gerr) {
		t.Errorf("%s: error %v, reference %v", label, gerr, werr)
		return
	}
	if werr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: reports diverge\nreference   %+v\n  executed  %+v\nincremental %+v\n  executed  %+v",
			label, *want, *want.Executed, *got, *got.Executed)
		return
	}
	d := want.Degradation
	tally.runs++
	if d.Overruns+d.Aborted+d.Reclamations+d.Unplaced > 0 {
		tally.faulted++
	}
	tally.aborted += d.Aborted
	tally.migrations += d.Migrations
	tally.reclamations += d.Reclamations
	tally.unplaced += d.Unplaced
}

// outputSpan is the latest end-to-end deadline of g, the horizon fault
// traces are materialized over.
func outputSpan(g *taskgraph.Graph) rtime.Time {
	var span rtime.Time
	for _, o := range g.Outputs() {
		if d := g.Task(o).ETEDeadline; d > span {
			span = d
		}
	}
	return span
}

// planned is one generated workload's nominal plan under a metric: the
// input every Inject of the equivalence corpus starts from.
func planned(t *testing.T, cfg gen.Config, metric slicing.Metric) (*gen.Workload, *slicing.Assignment, *sched.Schedule) {
	t.Helper()
	w, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := wcet.Estimates(w.Graph, w.Platform, wcet.AVG)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := slicing.Distribute(w.Graph, est, cfg.M, metric, slicing.CalibratedParams())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Dispatch(w.Graph, w.Platform, asg)
	if err != nil {
		t.Fatal(err)
	}
	return w, asg, s
}

// Property: the incremental executor is the rescanning one, report for
// report — placements, order, misses, degradation accounting and the
// replay verdict — over generated workloads of the study's shape and
// larger, PURE- and NORM-shaped assignments, exclusive resources and
// pinned tasks, sporadic release expansions, every fault intensity,
// with and without slack reclamation, and a task no processor can host.
func TestInjectMatchesReference(t *testing.T) {
	intensities := []float64{0, 0.25, 0.5, 1}
	metrics := []slicing.Metric{slicing.AdaptL(), slicing.NORM()}
	var tally injectTally
	// each runs every intensity × Reclaim off and on over one plan.
	each := func(label string, g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment,
		s *sched.Schedule, traceOf func(intensity float64) *faults.Trace) {
		for _, intensity := range intensities {
			tr := traceOf(intensity)
			for _, reclaim := range []bool{false, true} {
				injectAgrees(t, fmt.Sprintf("%s intensity %.2f reclaim %v", label, intensity, reclaim),
					g, p, asg, s, Options{Faults: tr, Reclaim: reclaim}, &tally)
			}
		}
	}
	materialize := func(g *taskgraph.Graph, p *arch.Platform, seed int64) func(float64) *faults.Trace {
		return func(intensity float64) *faults.Trace {
			tr, err := faults.Scaled(intensity, seed).Materialize(g, p, outputSpan(g))
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
	}

	type family struct {
		name     string
		seeds    int
		min, max int
		olr      float64 // 0 keeps the generator's default laxity
		// res and pin enable exclusive resources and pinned boundary
		// tasks; sporadic expands three releases of the plan.
		res, pin, sporadic bool
	}
	families := []family{
		{name: "study", seeds: 12, min: 40, max: 60, olr: 0.55}, // the margins study's laxity
		{name: "large", seeds: 2, min: 100, max: 140},
		{name: "resources+pins", seeds: 6, min: 40, max: 60, res: true, pin: true},
		{name: "sporadic", seeds: 2, min: 40, max: 60, sporadic: true},
	}
	for fi, f := range families {
		for k := 0; k < f.seeds; k++ {
			seed := int64(1000*(fi+1) + k)
			m := 2 + k%6
			cfg := gen.Default(m)
			cfg.Seed = seed
			cfg.MinTasks, cfg.MaxTasks = f.min, f.max
			if f.olr > 0 {
				cfg.OLR = f.olr
			}
			if f.res {
				cfg.NumResources, cfg.ResourceProb = 3, 0.3
			}
			if f.pin {
				cfg.PinProb = 0.5
			}
			for _, metric := range metrics {
				w, asg, s := planned(t, cfg, metric)
				label := fmt.Sprintf("%s seed %d m %d %s", f.name, seed, m, metric.Name())
				if !f.sporadic {
					each(label, w.Graph, w.Platform, asg, s, materialize(w.Graph, w.Platform, seed))
					continue
				}
				// As the margins study does: expand the plan over a
				// seeded release sequence and tile the base trace.
				span := outputSpan(w.Graph)
				rel := gen.Release{Mode: gen.ReleaseSporadic, Count: 3, MinGap: span, Jitter: span / 4}
				eg, easg, es, times, err := ExpandSystem(w.Graph, w.Platform, asg, rel, seed)
				if err != nil {
					t.Fatal(err)
				}
				base := materialize(w.Graph, w.Platform, seed)
				each(label, eg, w.Platform, easg, es, func(intensity float64) *faults.Trace {
					return base(intensity).Tile(w.Graph.NumTasks(), len(times))
				})
			}
		}
	}

	// A task eligible only on a class no processor has is screened out
	// before the run; its successor waits on it no further and runs.
	g := taskgraph.NewGraph(2)
	g.MustAddTask("a", []rtime.Time{10, rtime.Unset}, 0)
	g.MustAddTask("ghost", []rtime.Time{rtime.Unset, 10}, 0)
	g.MustAddTask("b", []rtime.Time{10, rtime.Unset}, 0)
	g.MustAddTask("c", []rtime.Time{10, rtime.Unset}, 0)
	g.MustAddArc(0, 2, 2)
	g.MustAddArc(1, 2, 2)
	g.MustAddArc(2, 3, 1)
	g.Task(3).ETEDeadline = 80
	g.MustFreeze()
	p := arch.MustNew(arch.Unrelated,
		[]arch.Class{{Name: "e0", Speed: 1}, {Name: "e1", Speed: 1}},
		[]int{0, 0}, arch.Bus{DelayPerItem: 1})
	asg, err := slicing.Distribute(g, []rtime.Time{10, 10, 10, 10}, 2, slicing.PURE(), slicing.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Dispatch(g, p, asg)
	if err != nil {
		t.Fatal(err)
	}
	each("screened", g, p, asg, s, materialize(g, p, 7))
	injectAgrees(t, "screened zero trace", g, p, asg, s, Options{}, &tally)
	ir, err := Inject(g, p, asg, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ir.Executed.Missed; !reflect.DeepEqual(got, []int{1}) || ir.Executed.Placements[2].Proc < 0 {
		t.Errorf("screened ghost: missed %v, b placed on %d; want [1] and b placed", got, ir.Executed.Placements[2].Proc)
	}

	t.Logf("%d runs, %d with fault activity: %d aborts, %d migrations, %d reclamations, %d stranded tasks",
		tally.runs, tally.faulted, tally.aborted, tally.migrations, tally.reclamations, tally.unplaced)
	if tally.aborted == 0 || tally.migrations == 0 || tally.reclamations == 0 || tally.unplaced == 0 {
		t.Errorf("corpus left a fault path unexercised: %+v", tally)
	}
}

// injectReference is Inject as it was before readiness became
// incremental: every dispatch decision rescans all n tasks and
// re-derives each one's readiness from its predecessors' placements.
// It is kept, unchanged, as the oracle TestInjectMatchesReference holds
// the incremental executor to.
func injectReference(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment,
	s *sched.Schedule, opts Options) (*InjectedReport, error) {

	n := g.NumTasks()
	if len(s.Placements) != n {
		return nil, fmt.Errorf("sim: schedule covers %d tasks, graph has %d", len(s.Placements), n)
	}
	if len(asg.Arrival) != n || len(asg.AbsDeadline) != n {
		return nil, fmt.Errorf("sim: assignment covers %d tasks, graph has %d", len(asg.Arrival), n)
	}
	for i := 0; i < n; i++ {
		if !asg.Arrival[i].IsSet() || !asg.AbsDeadline[i].IsSet() {
			return nil, fmt.Errorf("sim: task %d has an unassigned window", i)
		}
	}
	trace := opts.Faults
	if trace == nil {
		trace = faults.ZeroTrace(n, p.M())
	}
	if len(trace.ExecScale) != n || len(trace.Slow) != p.M() {
		return nil, fmt.Errorf("sim: fault trace sized for %d tasks / %d processors, workload has %d / %d",
			len(trace.ExecScale), len(trace.Slow), n, p.M())
	}

	ex := &sched.Schedule{
		Placements:  make([]sched.Placement, n),
		Feasible:    true,
		MaxLateness: -rtime.Infinity,
	}
	for i := range ex.Placements {
		ex.Placements[i] = sched.Placement{Proc: -1}
	}
	var deg Degradation
	deg.Tasks = n
	deg.FirstMiss = rtime.Unset

	m := p.M()
	procFree := make([]rtime.Time, m)
	resFree := sched.ResourceTable(g)
	done := make([]bool, n)
	placed := 0

	// Dynamic state the faults and the recovery policy evolve: EDF
	// deadlines, effective arrivals, and the earliest re-dispatch time
	// of aborted tasks.
	dl := append([]rtime.Time(nil), asg.AbsDeadline...)
	arr := append([]rtime.Time(nil), asg.Arrival...)
	blockedUntil := make([]rtime.Time, n)
	wasAborted := make([]bool, n)

	// Pending reclamations: an overrun is only observable when the task
	// finishes, so its recovery applies at that instant, not at the
	// dispatch instant the simulator learns the outcome.
	type reclaimEvent struct {
		at   rtime.Time
		task int
	}
	var reclaims []reclaimEvent

	// The dispatcher's a-priori screen, as in sched.Dispatch: tasks
	// with no eligible processor at all can never run.
	present := p.ClassesPresent()
	for i := 0; i < n; i++ {
		ok := false
		if pin := g.Task(i).Pinned; pin >= 0 {
			if pin < m && g.Task(i).WCET[p.ClassOf(pin)].IsSet() {
				ok = true
			}
		} else {
			for k, c := range g.Task(i).WCET {
				if c.IsSet() && k < len(present) && present[k] {
					ok = true
					break
				}
			}
		}
		if !ok {
			ex.Feasible = false
			ex.Missed = append(ex.Missed, i)
			done[i] = true
			placed++
		}
	}

	dead := func(q int, at rtime.Time) bool { return trace.DownAt[q] <= at }

	// readyOn is sched.Dispatch's readiness rule over the effective
	// arrivals, plus message jitter and the abort gate.
	readyOn := func(i, q int) rtime.Time {
		t := rtime.Max(arr[i], blockedUntil[i])
		for _, pr := range g.Preds(i) {
			pl := ex.Placements[pr]
			if pl.Proc < 0 {
				if done[pr] {
					continue // unplaceable predecessor: task is doomed anyway
				}
				return rtime.Unset
			}
			arrive := pl.Finish + p.CommCost(pl.Proc, q, g.MessageItems(pr, i))
			if pl.Proc != q {
				arrive += trace.ExtraMsg(pr, i)
			}
			if arrive > t {
				t = arrive
			}
		}
		for _, res := range g.Task(i).Resources {
			if resFree[res] > t {
				t = resFree[res]
			}
		}
		return t
	}

	applyReclaims := func(now rtime.Time) {
		for k := 0; k < len(reclaims); {
			ev := reclaims[k]
			if ev.at > now {
				k++
				continue
			}
			reclaims = append(reclaims[:k], reclaims[k+1:]...)
			pending := make([]bool, n)
			any := false
			for j := 0; j < n; j++ {
				if !done[j] && g.Reaches(ev.task, j) {
					pending[j] = true
					any = true
				}
			}
			if !any {
				continue
			}
			nd, ok := slicing.ReclaimWindows(g, asg.Virtual, pending, ev.at, asg.AbsDeadline)
			if !ok {
				continue
			}
			deg.Reclamations++
			for j := 0; j < n; j++ {
				if !pending[j] {
					continue
				}
				dl[j] = nd[j]
				if arr[j] > ev.at {
					arr[j] = ev.at // the stale arrival gate is reclaimed too
				}
			}
		}
	}

	var latenessSum float64
	now := rtime.Time(0)
	for placed < n {
		if opts.Reclaim {
			applyReclaims(now)
		}
		// Dispatch loop at the current instant: repeatedly take the
		// EDF-closest (under the possibly reclaimed deadlines) task
		// that is dispatchable on an idle, surviving processor.
		for {
			bestTask, bestProc := -1, -1
			for i := 0; i < n; i++ {
				if done[i] {
					continue
				}
				task := g.Task(i)
				if bestTask >= 0 {
					if dl[i] > dl[bestTask] || (dl[i] == dl[bestTask] && i > bestTask) {
						continue
					}
				}
				tProc, tFinish := -1, rtime.Time(0)
				for q := 0; q < m; q++ {
					if task.Pinned >= 0 && q != task.Pinned {
						continue
					}
					if dead(q, now) || procFree[q] > now {
						continue
					}
					class := p.ClassOf(q)
					if !task.EligibleOn(class) {
						continue
					}
					r := readyOn(i, q)
					if !r.IsSet() || r > now {
						continue
					}
					// Processor choice uses worst-case knowledge: the
					// dispatcher cannot foresee overruns or slowdowns.
					finish := now + task.WCET[class]
					if tProc < 0 || finish < tFinish {
						tProc, tFinish = q, finish
					}
				}
				if tProc >= 0 {
					bestTask, bestProc = i, tProc
				}
			}
			if bestTask < 0 {
				break
			}
			task := g.Task(bestTask)
			class := p.ClassOf(bestProc)
			nominal := task.WCET[class]
			actual := trace.Exec(bestTask, bestProc, nominal)
			finish := now + actual
			if down := trace.DownAt[bestProc]; down < finish {
				// The processor dies mid-execution: the work is lost
				// and the task must be re-dispatched elsewhere.
				deg.Aborted++
				wasAborted[bestTask] = true
				blockedUntil[bestTask] = down
				procFree[bestProc] = down
				for _, res := range task.Resources {
					resFree[res] = down
				}
				continue
			}
			if wasAborted[bestTask] {
				deg.Migrations++
				wasAborted[bestTask] = false
			}
			if actual > nominal {
				deg.Overruns++
			}
			ex.Placements[bestTask] = sched.Placement{Proc: bestProc, Start: now, Finish: finish}
			procFree[bestProc] = finish
			for _, res := range task.Resources {
				resFree[res] = finish
			}
			done[bestTask] = true
			placed++
			ex.Order = append(ex.Order, bestTask)
			if finish > ex.Makespan {
				ex.Makespan = finish
			}
			late := finish - asg.AbsDeadline[bestTask]
			if late > ex.MaxLateness {
				ex.MaxLateness = late
			}
			if late > 0 {
				ex.Feasible = false
				ex.Missed = append(ex.Missed, bestTask)
				latenessSum += float64(late)
				if !deg.FirstMiss.IsSet() || finish < deg.FirstMiss {
					deg.FirstMiss = finish
				}
			}
			if opts.Reclaim && finish > dl[bestTask] {
				reclaims = append(reclaims, reclaimEvent{at: finish, task: bestTask})
			}
		}
		if placed == n {
			break
		}

		// Advance to the next instant anything can change: a surviving
		// processor frees, a task becomes ready, or a queued recovery
		// event relaxes an arrival gate.
		next := rtime.Infinity
		for q := 0; q < m; q++ {
			if dead(q, now) {
				continue
			}
			if procFree[q] > now && procFree[q] < next {
				next = procFree[q]
			}
		}
		for i := 0; i < n; i++ {
			if done[i] {
				continue
			}
			for q := 0; q < m; q++ {
				if g.Task(i).Pinned >= 0 && q != g.Task(i).Pinned {
					continue
				}
				if !g.Task(i).EligibleOn(p.ClassOf(q)) {
					continue
				}
				if dead(q, now) {
					continue // q is already dead; it never hosts i again
				}
				r := readyOn(i, q)
				if r.IsSet() && r > now && r < next {
					next = r
				}
			}
		}
		if opts.Reclaim {
			for _, ev := range reclaims {
				if ev.at > now && ev.at < next {
					next = ev.at
				}
			}
		}
		if next == rtime.Infinity {
			// Remaining tasks can never run (stuck behind unplaceable
			// predecessors, or every eligible processor died).
			for i := 0; i < n; i++ {
				if !done[i] {
					done[i] = true
					placed++
					ex.Feasible = false
					ex.Missed = append(ex.Missed, i)
				}
			}
			break
		}
		now = next
	}
	sort.Ints(ex.Missed)

	// Degradation accounting against the original assignment.
	outputs := map[int]bool{}
	for _, o := range g.Outputs() {
		outputs[o] = true
	}
	deg.Misses = len(ex.Missed)
	for _, i := range ex.Missed {
		if outputs[i] {
			deg.ETEMisses++
		}
		if g.Task(i).Criticality == taskgraph.Mandatory {
			deg.MandatoryMisses++
		}
		if ex.Placements[i].Proc < 0 {
			deg.Unplaced++
		}
	}
	if missedPlaced := deg.Misses - deg.Unplaced; missedPlaced > 0 {
		deg.MeanLateness = latenessSum / float64(missedPlaced)
	}
	deg.MaxLateness = ex.MaxLateness

	// Verify the executed schedule under the faulted timing model: the
	// injected run must satisfy every structural obligation the nominal
	// one does, with the perturbed execution times, effective arrivals,
	// and jittered messages as the expectations.
	lossy := false
	for _, d := range trace.DownAt {
		if d < rtime.Infinity {
			lossy = true
			break
		}
	}
	tm := timing{
		exec: func(i, q int) rtime.Time {
			return trace.Exec(i, q, g.Task(i).WCET[p.ClassOf(q)])
		},
		arrival:  func(i int) rtime.Time { return arr[i] },
		extraMsg: trace.ExtraMsg,
		// Tasks stranded by a processor loss are degradation, not a
		// structural violation; without loss the nominal rule applies,
		// preserving zero-trace identity.
		allowUnplaced: lossy,
	}
	rep, err := replay(g, p, asg, ex, opts, tm)
	if err != nil {
		return nil, err
	}
	return &InjectedReport{Report: *rep, Executed: ex, Degradation: deg}, nil
}
