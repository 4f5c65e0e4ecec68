// Package taskgraph models the application of the paper (§3.2): a set of
// tasks under an irreflexive precedence partial order, represented as a
// directed acyclic task graph G = (N, A). Nodes carry per-processor-class
// worst-case execution times (WCETs); arcs carry message sizes in data
// items.
//
// Beyond the raw structure the package computes the derived quantities
// that the deadline-distribution metrics need: topological order,
// transitive closure, static levels SL(τ), the parallel set Ψᵢ of each
// task (tasks that are neither predecessors nor successors, eq. 8), and
// the average task-graph parallelism ξ (eq. 7).
package taskgraph

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/rtime"
)

// Task is one node of the task graph, characterised by the static task
// parameters ⟨cᵢ, φᵢ, dᵢ, Tᵢ⟩ of §3.2. The relative deadline dᵢ and the
// arrival time are *outputs* of deadline distribution and therefore do
// not live here; see package slicing.
type Task struct {
	// ID is the node index in the owning Graph; assigned by AddTask.
	ID int
	// Name is an optional human-readable label used in dumps.
	Name string
	// WCET[k] is the worst-case execution time of the task on a
	// processor of class k, or rtime.Unset if the task may not execute
	// on that class (e.g. it needs special hardware, §5.2). At least one
	// entry must be set.
	WCET []rtime.Time
	// Phase φᵢ is the earliest time at which the first invocation of the
	// task occurs, relative to the time origin. Meaningful for input
	// tasks; interior tasks inherit arrival times from slicing.
	Phase rtime.Time
	// Period Tᵢ is the interval between consecutive invocations; 0 means
	// the task is treated as single-shot (one invocation), which is how
	// the paper's experiments run. Package periodic expands periodic
	// sets over the planning cycle.
	Period rtime.Time
	// ETEDeadline is the end-to-end deadline Dα associated with this
	// task when it is an output task, rtime.Unset otherwise. The
	// generator assigns it from the overall laxity ratio (OLR).
	ETEDeadline rtime.Time
	// Pinned is the processor ID this task is statically assigned to, or
	// -1 under relaxed locality constraints (the paper's default). §1:
	// strict locality constraints arise for tasks bound to resources in
	// their physical proximity, such as sensors and actuators; for such
	// tasks the assignment — and hence the exact WCET — is known a
	// priori.
	Pinned int
	// Resources lists the indices of the exclusive logical resources
	// (shared data structures, devices) the task holds for its whole
	// execution. The paper's future work (§7.3) extends the technique
	// from processors to such general resources; see the resource-aware
	// dispatcher in package sched and the ADAPT-R metric in package
	// slicing. Empty for the paper's core experiments.
	Resources []int
	// Criticality classifies the task for graceful degradation
	// (imprecise-computation model): Mandatory tasks must always meet
	// their deadlines, Optional tasks may be shed under overload. The
	// zero value is Mandatory.
	Criticality Criticality
	// Value is the task's value weight for degraded-quality accounting;
	// ValueWeight treats non-positive values as 1. Only meaningful
	// relative to the other tasks of the same graph.
	Value float64
}

// SharesResource reports whether the two tasks require at least one
// common exclusive resource.
func SharesResource(a, b *Task) bool {
	for _, ra := range a.Resources {
		for _, rb := range b.Resources {
			if ra == rb {
				return true
			}
		}
	}
	return false
}

// EligibleOn reports whether the task may execute on processor class k.
func (t *Task) EligibleOn(k int) bool {
	return k >= 0 && k < len(t.WCET) && t.WCET[k].IsSet()
}

// Arc is a directed precedence constraint τ_from ≺· τ_to, optionally
// carrying a message of Items data items (the arc weight m_{i,j}).
type Arc struct {
	From, To int
	Items    rtime.Time
}

// Graph is an immutable-after-Freeze directed acyclic task graph.
// Construct with NewGraph, populate with AddTask/AddArc, and call Freeze
// before using any query method.
type Graph struct {
	NumClasses int

	tasks []*Task
	arcs  []Arc

	// Adjacency, by task ID. succs/preds hold IDs of immediate
	// successors/predecessors; arcIdx[from][to] indexes into arcs.
	succs  [][]int
	preds  [][]int
	arcIdx map[[2]int]int

	frozen bool

	// spare holds preallocated Task storage that AddTask hands out
	// before allocating (see NewGraphSized).
	spare []Task

	// Derived, filled by Freeze.
	topo    []int        // topological order of task IDs
	level   []int        // length (in arcs) of the longest incoming path
	desc    []bitset.Set // desc[i]: IDs reachable from i (strict descendants)
	anc     []bitset.Set // anc[i]: IDs that reach i (strict ancestors)
	psetLen []int        // |Ψᵢ|
	inputs  []int
	outputs []int
	depth   int
}

// NewGraph returns an empty graph whose tasks execute on numClasses
// processor classes.
func NewGraph(numClasses int) *Graph {
	return NewGraphSized(numClasses, 0, 0)
}

// NewGraphSized is NewGraph with storage reserved for the given numbers
// of tasks and arcs, so a caller that knows them up front (a decoder)
// builds the graph without growing it. Adding more than reserved is
// allowed.
func NewGraphSized(numClasses, tasks, arcs int) *Graph {
	if numClasses <= 0 {
		panic("taskgraph: NewGraph needs at least one processor class")
	}
	return &Graph{
		NumClasses: numClasses,
		tasks:      make([]*Task, 0, tasks),
		spare:      make([]Task, tasks),
		succs:      make([][]int, 0, tasks),
		preds:      make([][]int, 0, tasks),
		arcs:       make([]Arc, 0, arcs),
		arcIdx:     make(map[[2]int]int, arcs),
	}
}

// AddTask appends a task and returns it. The task's WCET slice must have
// exactly NumClasses entries with at least one set; Phase must be
// non-negative. The returned task's ID is its index in the graph.
func (g *Graph) AddTask(name string, wcet []rtime.Time, phase rtime.Time) (*Task, error) {
	if g.frozen {
		return nil, fmt.Errorf("taskgraph: AddTask on frozen graph")
	}
	if len(wcet) != g.NumClasses {
		return nil, fmt.Errorf("taskgraph: task %q has %d WCET entries, graph has %d classes",
			name, len(wcet), g.NumClasses)
	}
	any := false
	for k, c := range wcet {
		if c == rtime.Unset {
			continue
		}
		if c <= 0 {
			return nil, fmt.Errorf("taskgraph: task %q has non-positive WCET %d on class %d", name, c, k)
		}
		any = true
	}
	if !any {
		return nil, fmt.Errorf("taskgraph: task %q is eligible on no processor class", name)
	}
	if phase < 0 {
		return nil, fmt.Errorf("taskgraph: task %q has negative phase %d", name, phase)
	}
	var t *Task
	if len(g.spare) > 0 {
		t, g.spare = &g.spare[0], g.spare[1:]
	} else {
		t = new(Task)
	}
	*t = Task{
		ID:          len(g.tasks),
		Name:        name,
		WCET:        append([]rtime.Time(nil), wcet...),
		Phase:       phase,
		ETEDeadline: rtime.Unset,
		Pinned:      -1,
	}
	g.tasks = append(g.tasks, t)
	g.succs = append(g.succs, nil)
	g.preds = append(g.preds, nil)
	return t, nil
}

// MustAddTask is AddTask that panics on error; it is a convenience for
// tests and examples that build literal graphs.
func (g *Graph) MustAddTask(name string, wcet []rtime.Time, phase rtime.Time) *Task {
	t, err := g.AddTask(name, wcet, phase)
	if err != nil {
		panic(err)
	}
	return t
}

// AddArc records the precedence constraint from ≺· to with a message of
// items data items (0 for pure control dependences). Duplicate arcs and
// self-loops are rejected; cycles are detected at Freeze.
func (g *Graph) AddArc(from, to int, items rtime.Time) error {
	if g.frozen {
		return fmt.Errorf("taskgraph: AddArc on frozen graph")
	}
	if from < 0 || from >= len(g.tasks) || to < 0 || to >= len(g.tasks) {
		return fmt.Errorf("taskgraph: arc (%d → %d) references missing task", from, to)
	}
	if from == to {
		return fmt.Errorf("taskgraph: self-loop on task %d", from)
	}
	if items < 0 {
		return fmt.Errorf("taskgraph: arc (%d → %d) has negative message size", from, to)
	}
	key := [2]int{from, to}
	if _, dup := g.arcIdx[key]; dup {
		return fmt.Errorf("taskgraph: duplicate arc (%d → %d)", from, to)
	}
	g.arcIdx[key] = len(g.arcs)
	g.arcs = append(g.arcs, Arc{From: from, To: to, Items: items})
	g.succs[from] = append(g.succs[from], to)
	g.preds[to] = append(g.preds[to], from)
	return nil
}

// MustAddArc is AddArc that panics on error.
func (g *Graph) MustAddArc(from, to int, items rtime.Time) {
	if err := g.AddArc(from, to, items); err != nil {
		panic(err)
	}
}

// Freeze validates the graph (non-empty, acyclic) and computes the
// derived structures. It must be called exactly once, after which the
// graph is read-only.
func (g *Graph) Freeze() error {
	if g.frozen {
		return fmt.Errorf("taskgraph: Freeze called twice")
	}
	n := len(g.tasks)
	if n == 0 {
		return fmt.Errorf("taskgraph: empty graph")
	}
	// Kahn's algorithm gives the topological order and detects cycles.
	indeg := make([]int, n)
	for _, a := range g.arcs {
		indeg[a.To]++
	}
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	topo := make([]int, 0, n)
	for len(queue) > 0 {
		// Pop the smallest ID for a deterministic order.
		sort.Ints(queue)
		v := queue[0]
		queue = queue[1:]
		topo = append(topo, v)
		for _, s := range g.succs[v] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(topo) != n {
		return fmt.Errorf("taskgraph: precedence constraints contain a cycle")
	}
	g.topo = topo

	// Levels and depth.
	g.level = make([]int, n)
	for _, v := range topo {
		for _, p := range g.preds[v] {
			if g.level[p]+1 > g.level[v] {
				g.level[v] = g.level[p] + 1
			}
		}
	}
	g.depth = 0
	for _, l := range g.level {
		if l+1 > g.depth {
			g.depth = l + 1
		}
	}

	// Transitive closure via bitsets, in reverse topological order for
	// descendants and forward order for ancestors: O(n·|A|/64) words.
	// All 2n sets are carved out of one slab; the three-index slices cap
	// each at its own words, so no set can grow into its neighbour.
	g.desc = make([]bitset.Set, n)
	g.anc = make([]bitset.Set, n)
	w := (n + 63) / 64 // words per set, as bitset.New sizes it
	slab := make([]uint64, 2*n*w)
	for i := 0; i < n; i++ {
		g.desc[i] = slab[2*i*w : (2*i+1)*w : (2*i+1)*w]
		g.anc[i] = slab[(2*i+1)*w : (2*i+2)*w : (2*i+2)*w]
	}
	for i := n - 1; i >= 0; i-- {
		v := topo[i]
		for _, s := range g.succs[v] {
			g.desc[v].Add(s)
			g.desc[v].UnionWith(g.desc[s])
		}
	}
	for _, v := range topo {
		for _, p := range g.preds[v] {
			g.anc[v].Add(p)
			g.anc[v].UnionWith(g.anc[p])
		}
	}

	// Parallel sets: Ψᵢ = T \ ({τᵢ} ∪ desc(i) ∪ anc(i)).
	g.psetLen = make([]int, n)
	for i := 0; i < n; i++ {
		g.psetLen[i] = n - 1 - g.desc[i].Count() - g.anc[i].Count()
	}

	// Inputs and outputs.
	for i := 0; i < n; i++ {
		if len(g.preds[i]) == 0 {
			g.inputs = append(g.inputs, i)
		}
		if len(g.succs[i]) == 0 {
			g.outputs = append(g.outputs, i)
		}
	}
	g.frozen = true
	return nil
}

// MustFreeze is Freeze that panics on error.
func (g *Graph) MustFreeze() {
	if err := g.Freeze(); err != nil {
		panic(err)
	}
}

// Frozen reports whether Freeze has completed.
func (g *Graph) Frozen() bool { return g.frozen }

// NumTasks returns the number of tasks.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// NumArcs returns the number of precedence arcs.
func (g *Graph) NumArcs() int { return len(g.arcs) }

// Task returns the task with the given ID.
func (g *Graph) Task(id int) *Task { return g.tasks[id] }

// Tasks returns the task slice, indexed by ID. Callers must not mutate it.
func (g *Graph) Tasks() []*Task { return g.tasks }

// Arcs returns the arc slice. Callers must not mutate it.
func (g *Graph) Arcs() []Arc { return g.arcs }

// Succs returns the immediate successors of id. Callers must not mutate it.
func (g *Graph) Succs(id int) []int { return g.succs[id] }

// Preds returns the immediate predecessors of id. Callers must not mutate it.
func (g *Graph) Preds(id int) []int { return g.preds[id] }

// ArcBetween returns the arc from → to and whether it exists.
func (g *Graph) ArcBetween(from, to int) (Arc, bool) {
	if i, ok := g.arcIdx[[2]int{from, to}]; ok {
		return g.arcs[i], true
	}
	return Arc{}, false
}

// MessageItems returns the message size on the arc from → to, or 0 if the
// arc does not exist or carries no data.
func (g *Graph) MessageItems(from, to int) rtime.Time {
	a, ok := g.ArcBetween(from, to)
	if !ok {
		return 0
	}
	return a.Items
}

func (g *Graph) mustBeFrozen(op string) {
	if !g.frozen {
		panic("taskgraph: " + op + " before Freeze")
	}
}

// TopoOrder returns task IDs in a deterministic topological order.
// Callers must not mutate the returned slice.
func (g *Graph) TopoOrder() []int {
	g.mustBeFrozen("TopoOrder")
	return g.topo
}

// Depth returns the number of levels in the graph (length in tasks of the
// longest chain).
func (g *Graph) Depth() int {
	g.mustBeFrozen("Depth")
	return g.depth
}

// Level returns the 0-based level of id: the length in arcs of the
// longest path from any input task to id.
func (g *Graph) Level(id int) int {
	g.mustBeFrozen("Level")
	return g.level[id]
}

// Inputs returns the IDs of tasks with no predecessors.
func (g *Graph) Inputs() []int {
	g.mustBeFrozen("Inputs")
	return g.inputs
}

// Outputs returns the IDs of tasks with no successors.
func (g *Graph) Outputs() []int {
	g.mustBeFrozen("Outputs")
	return g.outputs
}

// Reaches reports whether there is a directed path from a to b (a ≺ b).
func (g *Graph) Reaches(a, b int) bool {
	g.mustBeFrozen("Reaches")
	return g.desc[a].Has(b)
}

// ParallelSetSize returns |Ψᵢ|, the number of tasks that are neither
// predecessors nor successors of id — the candidates for executing in
// parallel with it (eq. 8).
func (g *Graph) ParallelSetSize(id int) int {
	g.mustBeFrozen("ParallelSetSize")
	return g.psetLen[id]
}

// ParallelSet appends the IDs of Ψᵢ to dst in increasing order.
func (g *Graph) ParallelSet(id int, dst []int) []int {
	g.mustBeFrozen("ParallelSet")
	n := len(g.tasks)
	rel := g.desc[id].Clone()
	rel.UnionWith(g.anc[id])
	rel.Add(id)
	for i := 0; i < n; i++ {
		if !rel.Has(i) {
			dst = append(dst, i)
		}
	}
	return dst
}

// ResourceConflicts returns the number of tasks in Ψᵢ (potentially
// parallel tasks) that share at least one exclusive resource with id —
// tasks that serialize with it no matter how many processors exist.
func (g *Graph) ResourceConflicts(id int) int {
	g.mustBeFrozen("ResourceConflicts")
	ti := g.tasks[id]
	if len(ti.Resources) == 0 {
		return 0
	}
	count := 0
	for j := range g.tasks {
		if j == id || g.desc[id].Has(j) || g.anc[id].Has(j) {
			continue
		}
		if SharesResource(ti, g.tasks[j]) {
			count++
		}
	}
	return count
}

// StaticLevels returns SL(τᵢ) for every task under the estimated WCETs
// est: the length of the longest chain that starts at τᵢ and ends at an
// output task, where a chain's length is the sum of the estimated WCETs
// of its tasks (§3.2).
func (g *Graph) StaticLevels(est []rtime.Time) []rtime.Time {
	g.mustBeFrozen("StaticLevels")
	if len(est) != len(g.tasks) {
		panic("taskgraph: StaticLevels estimate length mismatch")
	}
	sl := make([]rtime.Time, len(g.tasks))
	for i := len(g.topo) - 1; i >= 0; i-- {
		v := g.topo[i]
		var best rtime.Time
		for _, s := range g.succs[v] {
			if sl[s] > best {
				best = sl[s]
			}
		}
		sl[v] = est[v] + best
	}
	return sl
}

// CriticalPathLength returns max SL(τ) over all tasks: the length of the
// longest path in the graph under est.
func (g *Graph) CriticalPathLength(est []rtime.Time) rtime.Time {
	var best rtime.Time
	for _, sl := range g.StaticLevels(est) {
		if sl > best {
			best = sl
		}
	}
	return best
}

// TotalWork returns Σ est over all tasks: the application workload.
func TotalWork(est []rtime.Time) rtime.Time {
	var sum rtime.Time
	for _, c := range est {
		sum += c
	}
	return sum
}

// AvgParallelism returns ξ, the average task-graph parallelism (eq. 7):
// the application workload divided by the length of the longest path.
func (g *Graph) AvgParallelism(est []rtime.Time) float64 {
	cp := g.CriticalPathLength(est)
	if cp == 0 {
		return 0
	}
	return float64(TotalWork(est)) / float64(cp)
}

// ValidateChain reports whether ids form a task chain: each element is an
// immediate successor of the previous one.
func (g *Graph) ValidateChain(ids []int) error {
	g.mustBeFrozen("ValidateChain")
	for i := 1; i < len(ids); i++ {
		if _, ok := g.ArcBetween(ids[i-1], ids[i]); !ok {
			return fmt.Errorf("taskgraph: %d → %d is not an arc", ids[i-1], ids[i])
		}
	}
	return nil
}

// LevelWidths returns, for each level, the number of tasks on it — the
// per-stage parallelism profile that drives contention.
func (g *Graph) LevelWidths() []int {
	g.mustBeFrozen("LevelWidths")
	widths := make([]int, g.depth)
	for _, l := range g.level {
		widths[l]++
	}
	return widths
}

// DegreeStats summarises the fan-in/fan-out distribution.
type DegreeStats struct {
	MaxIn, MaxOut   int
	MeanIn, MeanOut float64
}

// Degrees returns the degree statistics of the graph.
func (g *Graph) Degrees() DegreeStats {
	g.mustBeFrozen("Degrees")
	var s DegreeStats
	n := len(g.tasks)
	for i := 0; i < n; i++ {
		in, out := len(g.preds[i]), len(g.succs[i])
		if in > s.MaxIn {
			s.MaxIn = in
		}
		if out > s.MaxOut {
			s.MaxOut = out
		}
		s.MeanIn += float64(in)
		s.MeanOut += float64(out)
	}
	s.MeanIn /= float64(n)
	s.MeanOut /= float64(n)
	return s
}
