package sim

import (
	"math/rand"
	"strings"
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

func c1(v rtime.Time) []rtime.Time { return []rtime.Time{v} }

// pipelineFixture returns a small two-task remote pipeline with manual
// placements for direct Report checks.
func pipelineFixture(t *testing.T) (*taskgraph.Graph, *arch.Platform, *slicing.Assignment) {
	t.Helper()
	g := taskgraph.NewGraph(1)
	g.MustAddTask("a", c1(10), 0)
	g.MustAddTask("b", c1(10), 0)
	g.MustAddArc(0, 1, 4)
	g.MustFreeze()
	p := arch.Homogeneous(2)
	asg := &slicing.Assignment{
		Arrival:     []rtime.Time{0, 10},
		AbsDeadline: []rtime.Time{10, 40},
		RelDeadline: []rtime.Time{10, 30},
	}
	return g, p, asg
}

func TestReplayValidSchedule(t *testing.T) {
	g, p, asg := pipelineFixture(t)
	s := &sched.Schedule{Placements: []sched.Placement{
		{Proc: 0, Start: 0, Finish: 10},
		{Proc: 1, Start: 14, Finish: 24}, // message lands at 10+4
	}}
	r, err := Replay(g, p, asg, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Valid || len(r.Violations) != 0 {
		t.Fatalf("valid schedule rejected: %v", r.Violations)
	}
	if len(r.DeadlineMisses) != 0 {
		t.Errorf("deadline misses: %v", r.DeadlineMisses)
	}
	if r.BusBusy != 4 {
		t.Errorf("BusBusy = %d, want 4", r.BusBusy)
	}
	if r.Makespan != 24 {
		t.Errorf("Makespan = %d, want 24", r.Makespan)
	}
	if u := r.Utilization(); u < 0.41 || u > 0.42 { // 20 / (24·2)
		t.Errorf("Utilization = %v", u)
	}
}

// Replay only verifies: a fault trace is Inject's to execute.
func TestReplayRefusesFaults(t *testing.T) {
	g, p, asg := pipelineFixture(t)
	s, err := sched.Dispatch(g, p, asg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Replay(g, p, asg, s, Options{Faults: faults.ZeroTrace(g.NumTasks(), p.M())})
	if err == nil || !strings.Contains(err.Error(), "Inject") {
		t.Errorf("Replay with a fault trace: err %v, want a refusal naming Inject", err)
	}
}

func TestReplayCatchesEarlyStartBeforeMessage(t *testing.T) {
	g, p, asg := pipelineFixture(t)
	s := &sched.Schedule{Placements: []sched.Placement{
		{Proc: 0, Start: 0, Finish: 10},
		{Proc: 1, Start: 12, Finish: 22}, // message lands at 14
	}}
	r, err := Replay(g, p, asg, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Valid {
		t.Fatal("start before message landing not caught")
	}
	if !strings.Contains(strings.Join(r.Violations, ";"), "message") {
		t.Errorf("violations = %v", r.Violations)
	}
}

func TestReplayCatchesProcessorOverlap(t *testing.T) {
	g := taskgraph.NewGraph(1)
	g.MustAddTask("a", c1(10), 0)
	g.MustAddTask("b", c1(10), 0)
	g.MustFreeze()
	p := arch.Homogeneous(1)
	asg := &slicing.Assignment{
		Arrival:     []rtime.Time{0, 0},
		AbsDeadline: []rtime.Time{100, 100},
		RelDeadline: []rtime.Time{100, 100},
	}
	s := &sched.Schedule{Placements: []sched.Placement{
		{Proc: 0, Start: 0, Finish: 10},
		{Proc: 0, Start: 5, Finish: 15},
	}}
	r, _ := Replay(g, p, asg, s, Options{})
	if r.Valid {
		t.Fatal("overlapping executions on one processor not caught")
	}
}

// Conflicts on two exclusive resources are reported in resource index
// order on every call: sched.Verify returns resource 0's, and Replay
// lists both the same way each time. Tasks 0 and 1 hold resource 1, so
// neither task order nor map order yields this.
func TestResourceConflictsReportedInIndexOrder(t *testing.T) {
	g := taskgraph.NewGraph(1)
	for i, res := range []int{1, 1, 0, 0} {
		g.MustAddTask(string(rune('a'+i)), c1(10), 0).Resources = []int{res}
	}
	g.MustFreeze()
	p := arch.Homogeneous(4)
	asg := &slicing.Assignment{
		Arrival:     []rtime.Time{0, 0, 0, 0},
		AbsDeadline: []rtime.Time{30, 30, 30, 30},
		RelDeadline: []rtime.Time{30, 30, 30, 30},
	}
	s := &sched.Schedule{Placements: []sched.Placement{
		{Proc: 0, Start: 0, Finish: 10},
		{Proc: 1, Start: 5, Finish: 15},
		{Proc: 2, Start: 0, Finish: 10},
		{Proc: 3, Start: 5, Finish: 15},
	}}
	want := []string{
		"resource 0 held by tasks 2 and 3 concurrently",
		"resource 1 held by tasks 0 and 1 concurrently",
	}
	for call := 0; call < 200; call++ {
		err := sched.Verify(g, p, asg, s)
		if err == nil || err.Error() != "sched: "+want[0] {
			t.Fatalf("call %d: Verify = %v, want sched: %s", call, err, want[0])
		}
		r, err := Replay(g, p, asg, s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(r.Violations, "\n") != strings.Join(want, "\n") {
			t.Fatalf("call %d: Replay violations %q, want %q", call, r.Violations, want)
		}
	}
}

func TestReplayCatchesWCETMismatchAndEarlyArrival(t *testing.T) {
	g := taskgraph.NewGraph(1)
	g.MustAddTask("a", c1(10), 0)
	g.MustFreeze()
	p := arch.Homogeneous(1)
	asg := &slicing.Assignment{
		Arrival:     []rtime.Time{5},
		AbsDeadline: []rtime.Time{50},
		RelDeadline: []rtime.Time{45},
	}
	s := &sched.Schedule{Placements: []sched.Placement{{Proc: 0, Start: 3, Finish: 9}}}
	r, _ := Replay(g, p, asg, s, Options{})
	if r.Valid || len(r.Violations) < 2 {
		t.Fatalf("want WCET + arrival violations, got %v", r.Violations)
	}
}

func TestReplayCatchesUnplacedAndIneligible(t *testing.T) {
	g := taskgraph.NewGraph(2)
	g.MustAddTask("a", []rtime.Time{10, rtime.Unset}, 0)
	g.MustFreeze()
	p := arch.MustNew(arch.Unrelated, []arch.Class{{}, {}}, []int{1}, arch.Bus{DelayPerItem: 1})
	asg := &slicing.Assignment{
		Arrival:     []rtime.Time{0},
		AbsDeadline: []rtime.Time{50},
		RelDeadline: []rtime.Time{50},
	}
	r, _ := Replay(g, p, asg, &sched.Schedule{Placements: []sched.Placement{{Proc: -1}}}, Options{})
	if r.Valid {
		t.Error("unplaced task not caught")
	}
	r2, _ := Replay(g, p, asg, &sched.Schedule{Placements: []sched.Placement{{Proc: 0, Start: 0, Finish: 10}}}, Options{})
	if r2.Valid {
		t.Error("ineligible placement not caught")
	}
}

func TestReplayReportsDeadlineMissSeparately(t *testing.T) {
	g := taskgraph.NewGraph(1)
	g.MustAddTask("a", c1(10), 0)
	g.MustFreeze()
	p := arch.Homogeneous(1)
	asg := &slicing.Assignment{
		Arrival:     []rtime.Time{0},
		AbsDeadline: []rtime.Time{8},
		RelDeadline: []rtime.Time{8},
	}
	s := &sched.Schedule{Placements: []sched.Placement{{Proc: 0, Start: 0, Finish: 10}}}
	r, _ := Replay(g, p, asg, s, Options{})
	if !r.Valid {
		t.Errorf("a deadline miss is not a structural violation: %v", r.Violations)
	}
	if len(r.DeadlineMisses) != 1 || r.DeadlineMisses[0] != 0 {
		t.Errorf("DeadlineMisses = %v", r.DeadlineMisses)
	}
}

func TestSerializedBusQueuesMessages(t *testing.T) {
	// Two senders finish at the same time; their messages must share the
	// bus sequentially, so the second lands later than nominal.
	g := taskgraph.NewGraph(1)
	g.MustAddTask("s1", c1(10), 0)
	g.MustAddTask("s2", c1(10), 0)
	g.MustAddTask("r1", c1(5), 0)
	g.MustAddTask("r2", c1(5), 0)
	g.MustAddArc(0, 2, 4)
	g.MustAddArc(1, 3, 4)
	g.MustFreeze()
	p := arch.Homogeneous(4)
	asg := &slicing.Assignment{
		Arrival:     []rtime.Time{0, 0, 10, 10},
		AbsDeadline: []rtime.Time{10, 10, 60, 60},
		RelDeadline: []rtime.Time{10, 10, 50, 50},
	}
	s := &sched.Schedule{Placements: []sched.Placement{
		{Proc: 0, Start: 0, Finish: 10},
		{Proc: 1, Start: 0, Finish: 10},
		{Proc: 2, Start: 14, Finish: 19}, // nominal landing: 14
		{Proc: 3, Start: 14, Finish: 19},
	}}
	rNom, _ := Replay(g, p, asg, s, Options{})
	if !rNom.Valid {
		t.Fatalf("nominal model should accept: %v", rNom.Violations)
	}
	rSer, _ := Replay(g, p, asg, s, Options{SerializedBus: true})
	if rSer.Valid {
		t.Fatal("serialized bus should flag the second message (lands at 18)")
	}
	if rSer.BusBusy != 8 {
		t.Errorf("BusBusy = %d, want 8", rSer.BusBusy)
	}
	// One transfer must start when the other ends.
	var ends []rtime.Time
	for _, tr := range rSer.Transfers {
		if !tr.SameProc {
			ends = append(ends, tr.End)
		}
	}
	if len(ends) != 2 || ends[0] == ends[1] {
		t.Errorf("transfers not serialized: %+v", rSer.Transfers)
	}
}

// Property: every schedule produced by either scheduler replays cleanly
// under the nominal bus model on generated workloads.
func TestSchedulersReplayCleanly(t *testing.T) {
	f := func(seed int64, mRaw uint8) bool {
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
		for _, build := range []func() (*sched.Schedule, error){
			func() (*sched.Schedule, error) { return sched.EDF(w.Graph, w.Platform, asg) },
			func() (*sched.Schedule, error) { return sched.Dispatch(w.Graph, w.Platform, asg) },
		} {
			s, err := build()
			if err != nil {
				return false
			}
			r, err := Replay(w.Graph, w.Platform, asg, s, Options{})
			if err != nil {
				return false
			}
			if !r.Valid {
				t.Logf("seed %d m %d: %v", seed, m, r.Violations)
				return false
			}
			// Feasibility agreement: scheduler says feasible ⇔ replay
			// sees no deadline miss (given every task was placed).
			if s.Feasible != (len(r.DeadlineMisses) == 0) {
				t.Logf("seed %d m %d: feasibility disagreement", seed, m)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Mutation fuzzing: take a valid schedule and apply a random harmful
// mutation; Replay must flag it. Each mutation is constructed to break
// a specific obligation, so a silent pass is a verifier hole.
func TestReplayCatchesMutations(t *testing.T) {
	cfg := gen.Default(3)
	cfg.Seed = 23
	w := gen.MustGenerate(cfg)
	est, err := wcet.Estimates(w.Graph, w.Platform, wcet.AVG)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := slicing.Distribute(w.Graph, est, 3, slicing.AdaptL(), slicing.CalibratedParams())
	if err != nil {
		t.Fatal(err)
	}
	base, err := sched.Dispatch(w.Graph, w.Platform, asg)
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := Replay(w.Graph, w.Platform, asg, base, Options{}); !r.Valid {
		t.Fatalf("baseline invalid: %v", r.Violations)
	}

	clone := func() *sched.Schedule {
		c := *base
		c.Placements = append([]sched.Placement(nil), base.Placements...)
		return c2ptr(c)
	}

	rng := rand.New(rand.NewSource(99))
	mutations := []struct {
		name  string
		apply func(s *sched.Schedule) bool // returns false if inapplicable
	}{
		{"start before arrival", func(s *sched.Schedule) bool {
			for _, i := range rng.Perm(len(s.Placements)) {
				pl := &s.Placements[i]
				if pl.Proc >= 0 && pl.Start > 0 && asg.Arrival[i] == pl.Start {
					pl.Start--
					return true
				}
			}
			return false
		}},
		{"shrink execution below WCET", func(s *sched.Schedule) bool {
			for _, i := range rng.Perm(len(s.Placements)) {
				pl := &s.Placements[i]
				if pl.Proc >= 0 {
					pl.Finish--
					return true
				}
			}
			return false
		}},
		{"move to ineligible class", func(s *sched.Schedule) bool {
			for _, i := range rng.Perm(len(s.Placements)) {
				pl := &s.Placements[i]
				if pl.Proc < 0 {
					continue
				}
				for q := 0; q < w.Platform.M(); q++ {
					if !w.Graph.Task(i).EligibleOn(w.Platform.ClassOf(q)) {
						pl.Proc = q
						return true
					}
				}
			}
			return false
		}},
		{"overlap two tasks on one processor", func(s *sched.Schedule) bool {
			// Move the second task of some processor onto the first one's
			// interval.
			byProc := map[int][]int{}
			for i, pl := range s.Placements {
				if pl.Proc >= 0 {
					byProc[pl.Proc] = append(byProc[pl.Proc], i)
				}
			}
			for _, ids := range byProc {
				if len(ids) < 2 {
					continue
				}
				a, b := ids[0], ids[1]
				dur := s.Placements[b].Finish - s.Placements[b].Start
				s.Placements[b].Start = s.Placements[a].Start
				s.Placements[b].Finish = s.Placements[b].Start + dur
				return true
			}
			return false
		}},
		{"drop a placement", func(s *sched.Schedule) bool {
			for _, i := range rng.Perm(len(s.Placements)) {
				if s.Placements[i].Proc >= 0 {
					s.Placements[i] = sched.Placement{Proc: -1}
					return true
				}
			}
			return false
		}},
	}
	for _, mu := range mutations {
		s := clone()
		if !mu.apply(s) {
			t.Logf("mutation %q inapplicable on this workload", mu.name)
			continue
		}
		r, err := Replay(w.Graph, w.Platform, asg, s, Options{})
		if err != nil {
			t.Fatalf("%s: %v", mu.name, err)
		}
		if r.Valid {
			t.Errorf("mutation %q not caught by replay", mu.name)
		}
	}
}

func c2ptr(s sched.Schedule) *sched.Schedule { return &s }
