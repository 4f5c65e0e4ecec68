package optsched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
	"repro/internal/wcet"
)

func c1(v rtime.Time) []rtime.Time { return []rtime.Time{v} }

func manual(arr, dl []rtime.Time) *slicing.Assignment {
	rel := make([]rtime.Time, len(arr))
	for i := range rel {
		rel[i] = dl[i] - arr[i]
	}
	return &slicing.Assignment{Arrival: arr, AbsDeadline: dl, RelDeadline: rel}
}

func TestExactSingleTask(t *testing.T) {
	g := taskgraph.NewGraph(1)
	g.MustAddTask("", c1(10), 0)
	g.MustFreeze()
	res, err := Schedule(g, arch.Homogeneous(1), manual([]rtime.Time{0}, []rtime.Time{10}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Schedule == nil || !res.Schedule.Feasible {
		t.Fatalf("res = %+v", res)
	}
	if res.Schedule.MaxLateness != 0 {
		t.Errorf("lateness = %d, want 0", res.Schedule.MaxLateness)
	}
}

func TestExactFindsNonGreedySolution(t *testing.T) {
	// The classic non-preemptive EDF trap: at t=0 only the long slack
	// task is ready; the work-conserving dispatcher starts it, blocking
	// the processor, and the tight task arriving at 2 misses by 5. The
	// optimal schedule deliberately idles [0,2), runs tight [2,5), then
	// long [5,15) — an *active* schedule (the long task cannot shift
	// left without delaying the tight one), so Giffler–Thompson finds it.
	g := taskgraph.NewGraph(1)
	g.MustAddTask("long", c1(10), 0)
	g.MustAddTask("tight", c1(3), 0)
	g.MustFreeze()
	p := arch.Homogeneous(1)
	asg := manual([]rtime.Time{0, 2}, []rtime.Time{30, 8})

	d, err := sched.Dispatch(g, p, asg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Feasible || d.MaxLateness != 5 {
		t.Fatalf("dispatcher should miss by 5, got %d (feasible=%v)", d.MaxLateness, d.Feasible)
	}

	res, err := Schedule(g, p, asg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Fatal("tiny instance must be solved to optimality")
	}
	if !res.Schedule.Feasible || res.Schedule.MaxLateness != -3 {
		t.Errorf("max lateness = %d, want -3 (tight [2,5), long [5,15))", res.Schedule.MaxLateness)
	}
	if res.Schedule.Placements[1].Start != 2 || res.Schedule.Placements[0].Start != 5 {
		t.Errorf("placements = %+v", res.Schedule.Placements)
	}
}

func TestExactBeatsDispatchOnProcessorChoice(t *testing.T) {
	// Two tasks, two heterogeneous processors. Greedy EDF sends the
	// first task to the fast processor; the optimal assignment swaps
	// them so both meet their deadlines.
	g := taskgraph.NewGraph(2)
	g.MustAddTask("a", []rtime.Time{10, 30}, 0) // slow on class 1
	g.MustAddTask("b", []rtime.Time{10, 12}, 0)
	g.MustFreeze()
	p := arch.MustNew(arch.Unrelated, []arch.Class{{}, {}}, []int{0, 1}, arch.Bus{DelayPerItem: 1})
	// a must use class 0 to fit; b fits on class 1.
	asg := manual([]rtime.Time{0, 0}, []rtime.Time{10, 12})

	d, err := sched.Dispatch(g, p, asg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Schedule(g, p, asg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal {
		t.Fatal("instance too small to exhaust budget")
	}
	if !res.Schedule.Feasible {
		t.Fatalf("optimal is feasible: a→p0 [0,10), b→p1 [0,12); got lateness %d",
			res.Schedule.MaxLateness)
	}
	// The dispatcher happens to solve this too (both procs idle at 0,
	// each task picks min finish) — assert exact is at least as good.
	if res.Schedule.MaxLateness > d.MaxLateness {
		t.Errorf("exact (%d) worse than dispatch (%d)", res.Schedule.MaxLateness, d.MaxLateness)
	}
}

func TestStopAtFeasible(t *testing.T) {
	g := taskgraph.NewGraph(1)
	for i := 0; i < 6; i++ {
		g.MustAddTask("", c1(5), 0)
	}
	g.MustFreeze()
	p := arch.Homogeneous(2)
	asg := manual(
		[]rtime.Time{0, 0, 0, 0, 0, 0},
		[]rtime.Time{40, 40, 40, 40, 40, 40})
	res, err := Schedule(g, p, asg, Options{StopAtFeasible: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || !res.Schedule.Feasible {
		t.Fatalf("loose instance should stop at the first feasible schedule: %+v", res)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	// 12 independent tasks on 3 processors with a 2-node budget cannot
	// possibly finish.
	g := taskgraph.NewGraph(1)
	for i := 0; i < 12; i++ {
		g.MustAddTask("", c1(5), 0)
	}
	g.MustFreeze()
	arr := make([]rtime.Time, 12)
	dl := make([]rtime.Time, 12)
	for i := range dl {
		dl[i] = 100
	}
	res, err := Schedule(g, arch.Homogeneous(3), manual(arr, dl), Options{NodeBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimal {
		t.Error("budget-capped search must not claim optimality")
	}
}

func TestUnplaceableTaskIsConclusive(t *testing.T) {
	g := taskgraph.NewGraph(2)
	g.MustAddTask("", []rtime.Time{10, rtime.Unset}, 0)
	g.MustFreeze()
	p := arch.MustNew(arch.Unrelated, []arch.Class{{}, {}}, []int{1}, arch.Bus{DelayPerItem: 1})
	res, err := Schedule(g, p, manual([]rtime.Time{0}, []rtime.Time{100}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Schedule != nil {
		t.Errorf("no schedule exists; res = %+v", res)
	}
}

// exactDominates generates the small workload of seed and checks that
// the exact schedule verifies and, when proved optimal, is never later
// than the dispatcher's.
func exactDominates(t *testing.T, seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	cfg := gen.Default(2 + rng.Intn(2))
	cfg.Seed = seed
	cfg.MinTasks, cfg.MaxTasks = 6, 10
	cfg.MinDepth, cfg.MaxDepth = 2, 4
	cfg.OLR = 0.4 + rng.Float64()*0.4
	w, err := gen.Generate(cfg)
	if err != nil {
		return false
	}
	est, err := wcet.Estimates(w.Graph, w.Platform, wcet.AVG)
	if err != nil {
		return false
	}
	asg, err := slicing.Distribute(w.Graph, est, w.Platform.M(), slicing.AdaptL(), slicing.CalibratedParams())
	if err != nil {
		return false
	}
	d, err := sched.Dispatch(w.Graph, w.Platform, asg)
	if err != nil {
		return false
	}
	res, err := Schedule(w.Graph, w.Platform, asg, Options{NodeBudget: 500_000})
	if err != nil {
		return false
	}
	if res.Schedule == nil {
		return !res.Optimal // ran out of budget without a leaf: acceptable
	}
	if err := sched.Verify(w.Graph, w.Platform, asg, res.Schedule); err != nil {
		t.Logf("seed %d: %v", seed, err)
		return false
	}
	if res.Optimal && everyTaskPlaced(d) && res.Schedule.MaxLateness > d.MaxLateness {
		t.Logf("seed %d: exact %d vs dispatch %d", seed, res.Schedule.MaxLateness, d.MaxLateness)
		return false
	}
	return true
}

// Property: on small random workloads the exact schedule verifies, and
// its max lateness is never worse than the dispatcher's.
func TestExactDominatesHeuristics(t *testing.T) {
	f := func(seed int64) bool { return exactDominates(t, seed) }
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestSymmetryKeepsPlacedProcessors pins a workload (6 tasks, 3
// processors of one class) on which symmetry breaking once treated
// processors that had already run different tasks as interchangeable:
// Schedule claimed an optimal max lateness of 25 while the dispatcher's
// schedule verified at 24. Colocating a task with its predecessor
// saves the message, so such processors are not interchangeable.
func TestSymmetryKeepsPlacedProcessors(t *testing.T) {
	if !exactDominates(t, -6121187809666648207) {
		t.Fatal("exact schedule is not optimal")
	}
}

func everyTaskPlaced(s *sched.Schedule) bool {
	for _, pl := range s.Placements {
		if pl.Proc < 0 {
			return false
		}
	}
	return true
}
