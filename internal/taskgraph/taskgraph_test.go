package taskgraph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rtime"
)

// c returns a 1-class WCET vector.
func c(v rtime.Time) []rtime.Time { return []rtime.Time{v} }

// diamond builds A→B, A→C, B→D, C→D with unit messages.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph(1)
	a := g.MustAddTask("A", c(10), 0)
	b := g.MustAddTask("B", c(20), 0)
	cc := g.MustAddTask("C", c(30), 0)
	d := g.MustAddTask("D", c(10), 0)
	g.MustAddArc(a.ID, b.ID, 1)
	g.MustAddArc(a.ID, cc.ID, 1)
	g.MustAddArc(b.ID, d.ID, 1)
	g.MustAddArc(cc.ID, d.ID, 1)
	g.MustFreeze()
	return g
}

// TestNewGraphSizedMatchesNewGraph: reserving storage, too little or
// plenty, changes nothing a caller can observe.
func TestNewGraphSizedMatchesNewGraph(t *testing.T) {
	want := diamond(t)
	for _, size := range [][2]int{{2, 1}, {4, 4}, {10, 10}} {
		g := NewGraphSized(1, size[0], size[1])
		for _, tk := range want.Tasks() {
			g.MustAddTask(tk.Name, tk.WCET, tk.Phase)
		}
		for _, a := range want.Arcs() {
			g.MustAddArc(a.From, a.To, a.Items)
		}
		g.MustFreeze()
		if !reflect.DeepEqual(g.TopoOrder(), want.TopoOrder()) || !reflect.DeepEqual(g.Arcs(), want.Arcs()) {
			t.Fatalf("reserve %v: structure differs", size)
		}
		for i := 0; i < g.NumTasks(); i++ {
			if !reflect.DeepEqual(g.Task(i), want.Task(i)) {
				t.Fatalf("reserve %v: task %d = %+v, want %+v", size, i, g.Task(i), want.Task(i))
			}
			if !reflect.DeepEqual(g.Succs(i), want.Succs(i)) || !reflect.DeepEqual(g.Preds(i), want.Preds(i)) ||
				g.ParallelSetSize(i) != want.ParallelSetSize(i) {
				t.Fatalf("reserve %v: task %d adjacency differs", size, i)
			}
			for j := 0; j < g.NumTasks(); j++ {
				if g.Reaches(i, j) != want.Reaches(i, j) {
					t.Fatalf("reserve %v: Reaches(%d, %d) differs", size, i, j)
				}
			}
		}
	}
}

func TestAddTaskValidation(t *testing.T) {
	g := NewGraph(2)
	if _, err := g.AddTask("bad-len", []rtime.Time{5}, 0); err == nil {
		t.Error("wrong WCET length accepted")
	}
	if _, err := g.AddTask("bad-neg", []rtime.Time{5, -7}, 0); err == nil {
		t.Error("negative non-sentinel WCET accepted")
	}
	if _, err := g.AddTask("bad-zero", []rtime.Time{0, 5}, 0); err == nil {
		t.Error("zero WCET accepted")
	}
	if _, err := g.AddTask("no-class", []rtime.Time{rtime.Unset, rtime.Unset}, 0); err == nil {
		t.Error("fully ineligible task accepted")
	}
	if _, err := g.AddTask("bad-phase", []rtime.Time{5, 5}, -1); err == nil {
		t.Error("negative phase accepted")
	}
	tk, err := g.AddTask("ok", []rtime.Time{5, rtime.Unset}, 3)
	if err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}
	if tk.ID != 0 || !tk.EligibleOn(0) || tk.EligibleOn(1) || tk.EligibleOn(2) || tk.EligibleOn(-1) {
		t.Error("eligibility wrong")
	}
}

func TestAddArcValidation(t *testing.T) {
	g := NewGraph(1)
	a := g.MustAddTask("a", c(1), 0)
	b := g.MustAddTask("b", c(1), 0)
	if err := g.AddArc(a.ID, a.ID, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddArc(a.ID, 99, 0); err == nil {
		t.Error("dangling arc accepted")
	}
	if err := g.AddArc(a.ID, b.ID, -1); err == nil {
		t.Error("negative message size accepted")
	}
	if err := g.AddArc(a.ID, b.ID, 2); err != nil {
		t.Fatalf("valid arc rejected: %v", err)
	}
	if err := g.AddArc(a.ID, b.ID, 2); err == nil {
		t.Error("duplicate arc accepted")
	}
}

func TestFreezeRejectsCycle(t *testing.T) {
	g := NewGraph(1)
	a := g.MustAddTask("a", c(1), 0)
	b := g.MustAddTask("b", c(1), 0)
	g.MustAddArc(a.ID, b.ID, 0)
	g.MustAddArc(b.ID, a.ID, 0)
	if err := g.Freeze(); err == nil {
		t.Fatal("cyclic graph frozen")
	}
}

func TestFreezeRejectsEmptyAndDouble(t *testing.T) {
	if err := NewGraph(1).Freeze(); err == nil {
		t.Error("empty graph frozen")
	}
	g := NewGraph(1)
	g.MustAddTask("a", c(1), 0)
	g.MustFreeze()
	if err := g.Freeze(); err == nil {
		t.Error("double Freeze accepted")
	}
	if _, err := g.AddTask("late", c(1), 0); err == nil {
		t.Error("AddTask after Freeze accepted")
	}
	if err := g.AddArc(0, 0, 0); err == nil {
		t.Error("AddArc after Freeze accepted")
	}
}

func TestQueriesBeforeFreezePanic(t *testing.T) {
	g := NewGraph(1)
	g.MustAddTask("a", c(1), 0)
	defer func() {
		if recover() == nil {
			t.Error("TopoOrder before Freeze should panic")
		}
	}()
	g.TopoOrder()
}

func TestDiamondStructure(t *testing.T) {
	g := diamond(t)
	if g.NumTasks() != 4 || g.NumArcs() != 4 {
		t.Fatalf("size = (%d, %d)", g.NumTasks(), g.NumArcs())
	}
	if got := g.Inputs(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Inputs = %v", got)
	}
	if got := g.Outputs(); len(got) != 1 || got[0] != 3 {
		t.Errorf("Outputs = %v", got)
	}
	if g.Depth() != 3 {
		t.Errorf("Depth = %d, want 3", g.Depth())
	}
	if g.Level(0) != 0 || g.Level(1) != 1 || g.Level(2) != 1 || g.Level(3) != 2 {
		t.Error("levels wrong")
	}
	if !g.Reaches(0, 3) || g.Reaches(3, 0) || g.Reaches(1, 2) {
		t.Error("reachability wrong")
	}
	if got := g.MessageItems(0, 1); got != 1 {
		t.Errorf("MessageItems(0,1) = %d", got)
	}
	if got := g.MessageItems(1, 2); got != 0 {
		t.Errorf("MessageItems on non-arc = %d", got)
	}
}

func TestDiamondTopoOrder(t *testing.T) {
	g := diamond(t)
	pos := make(map[int]int)
	for i, v := range g.TopoOrder() {
		pos[v] = i
	}
	for _, a := range g.Arcs() {
		if pos[a.From] >= pos[a.To] {
			t.Errorf("arc %d→%d violates topo order", a.From, a.To)
		}
	}
}

func TestDiamondParallelSets(t *testing.T) {
	g := diamond(t)
	// B and C are parallel with each other only.
	if g.ParallelSetSize(1) != 1 || g.ParallelSetSize(2) != 1 {
		t.Errorf("|Ψ_B| = %d, |Ψ_C| = %d, want 1, 1",
			g.ParallelSetSize(1), g.ParallelSetSize(2))
	}
	if g.ParallelSetSize(0) != 0 || g.ParallelSetSize(3) != 0 {
		t.Error("endpoints of a diamond have no parallel tasks")
	}
	if got := g.ParallelSet(1, nil); len(got) != 1 || got[0] != 2 {
		t.Errorf("Ψ_B = %v, want [2]", got)
	}
}

func TestDiamondStaticLevels(t *testing.T) {
	g := diamond(t)
	est := []rtime.Time{10, 20, 30, 10}
	sl := g.StaticLevels(est)
	want := []rtime.Time{50, 30, 40, 10} // A: 10+max(30,40); B: 20+10; C: 30+10; D: 10
	for i := range want {
		if sl[i] != want[i] {
			t.Errorf("SL[%d] = %d, want %d", i, sl[i], want[i])
		}
	}
	if g.CriticalPathLength(est) != 50 {
		t.Errorf("critical path = %d, want 50", g.CriticalPathLength(est))
	}
	if TotalWork(est) != 70 {
		t.Errorf("total work = %d, want 70", TotalWork(est))
	}
	xi := g.AvgParallelism(est)
	if xi < 1.39 || xi > 1.41 { // 70/50
		t.Errorf("ξ = %v, want 1.4", xi)
	}
}

func TestLinearChainHasNoParallelism(t *testing.T) {
	g := NewGraph(1)
	const n = 6
	for i := 0; i < n; i++ {
		g.MustAddTask("", c(5), 0)
	}
	for i := 1; i < n; i++ {
		g.MustAddArc(i-1, i, 0)
	}
	g.MustFreeze()
	if g.Depth() != n {
		t.Errorf("Depth = %d, want %d", g.Depth(), n)
	}
	est := make([]rtime.Time, n)
	for i := range est {
		est[i] = 5
	}
	if xi := g.AvgParallelism(est); xi != 1 {
		t.Errorf("chain ξ = %v, want 1", xi)
	}
	for i := 0; i < n; i++ {
		if g.ParallelSetSize(i) != 0 {
			t.Errorf("|Ψ_%d| = %d, want 0", i, g.ParallelSetSize(i))
		}
	}
}

func TestIndependentTasksAreFullyParallel(t *testing.T) {
	g := NewGraph(1)
	const n = 5
	for i := 0; i < n; i++ {
		g.MustAddTask("", c(7), 0)
	}
	g.MustFreeze()
	for i := 0; i < n; i++ {
		if g.ParallelSetSize(i) != n-1 {
			t.Errorf("|Ψ_%d| = %d, want %d", i, g.ParallelSetSize(i), n-1)
		}
	}
	est := []rtime.Time{7, 7, 7, 7, 7}
	if xi := g.AvgParallelism(est); xi != n {
		t.Errorf("ξ = %v, want %d", xi, n)
	}
	if len(g.Inputs()) != n || len(g.Outputs()) != n {
		t.Error("all isolated tasks are both inputs and outputs")
	}
}

func TestValidateChain(t *testing.T) {
	g := diamond(t)
	if err := g.ValidateChain([]int{0, 1, 3}); err != nil {
		t.Errorf("valid chain rejected: %v", err)
	}
	if err := g.ValidateChain([]int{0, 3}); err == nil {
		t.Error("0→3 is not an immediate succession but was accepted")
	}
	if err := g.ValidateChain([]int{2}); err != nil {
		t.Errorf("singleton chain rejected: %v", err)
	}
	if err := g.ValidateChain(nil); err != nil {
		t.Errorf("empty chain rejected: %v", err)
	}
}

// randomDAG builds a random layered DAG with n tasks; arcs only go from
// lower to higher IDs so it is acyclic by construction.
func randomDAG(rng *rand.Rand, n int) *Graph {
	g := NewGraph(1)
	for i := 0; i < n; i++ {
		g.MustAddTask("", c(rtime.Time(1+rng.Intn(30))), 0)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(4) == 0 {
				g.MustAddArc(i, j, rtime.Time(rng.Intn(3)))
			}
		}
	}
	g.MustFreeze()
	return g
}

// Property: closure is consistent — Reaches(a,b) implies !Reaches(b,a),
// and |Ψᵢ| matches a brute-force count.
func TestClosureProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := randomDAG(rng, n)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a != b && g.Reaches(a, b) && g.Reaches(b, a) {
					return false
				}
			}
		}
		for i := 0; i < n; i++ {
			brute := 0
			for j := 0; j < n; j++ {
				if j != i && !g.Reaches(i, j) && !g.Reaches(j, i) {
					brute++
				}
			}
			if brute != g.ParallelSetSize(i) {
				return false
			}
			if got := g.ParallelSet(i, nil); len(got) != brute {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: SL(τ) ≥ est(τ), and SL of a task is strictly larger than the
// SL of each of its successors.
func TestStaticLevelProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := randomDAG(rng, n)
		est := make([]rtime.Time, n)
		for i := range est {
			est[i] = g.Task(i).WCET[0]
		}
		sl := g.StaticLevels(est)
		for i := 0; i < n; i++ {
			if sl[i] < est[i] {
				return false
			}
			for _, s := range g.Succs(i) {
				if sl[i] < est[i]+sl[s] {
					return false
				}
			}
		}
		xi := g.AvgParallelism(est)
		return xi >= 1.0-1e-9 && xi <= float64(n)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: topological order respects all arcs for random DAGs.
func TestTopoOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(25))
		pos := make([]int, g.NumTasks())
		for i, v := range g.TopoOrder() {
			pos[v] = i
		}
		for _, a := range g.Arcs() {
			if pos[a.From] >= pos[a.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLevelWidthsAndDegrees(t *testing.T) {
	g := diamond(t)
	widths := g.LevelWidths()
	if len(widths) != 3 || widths[0] != 1 || widths[1] != 2 || widths[2] != 1 {
		t.Errorf("LevelWidths = %v, want [1 2 1]", widths)
	}
	d := g.Degrees()
	if d.MaxIn != 2 || d.MaxOut != 2 {
		t.Errorf("max degrees = (%d, %d), want (2, 2)", d.MaxIn, d.MaxOut)
	}
	if d.MeanIn != 1.0 || d.MeanOut != 1.0 { // 4 arcs / 4 tasks
		t.Errorf("mean degrees = (%v, %v), want (1, 1)", d.MeanIn, d.MeanOut)
	}
}
