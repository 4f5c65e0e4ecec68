package slicing

import (
	"repro/internal/rtime"
	"repro/internal/taskgraph"
)

// cand is one cached chain candidate of a start task: the best
// (maximum-Σĉ) chain of length l from the start to end. Candidates are
// window-free — the end-to-end window [EA(start), LD(end)] is applied at
// evaluation time, which is what makes them reusable across rounds: the
// DP that produces them depends only on the graph, the virtual costs,
// and the set of already-assigned tasks.
type cand struct {
	end int32
	l   int32
	sum rtime.Time
}

// Workspace is the reusable working memory of Distribute: the flat
// critical-chain DP tables, the per-start candidate caches, the EA/LD
// corridor arrays, and the slice-boundary scratch. A zero Workspace is
// ready to use; it grows to the largest graph it has seen and never
// shrinks. A Workspace is not safe for concurrent use — pool instances
// (pipeline.BuildScratch does) instead of sharing one.
//
// The two chain searches of findCriticalChain share the DP tables. The
// multi-source DP of the PURE-shaped metrics keeps key = EA(start) + Σĉ
// in maxC and the chain's start in src, and uses no candidate store; the
// per-start DP of the other metrics keeps Σĉ in maxC and fills valid,
// cands and reach. Each table is grown on the first build that needs it.
//
// Nothing reachable from the returned *Assignment ever aliases workspace
// memory: all assignment fields are freshly allocated on every call, so
// assignments stay immutable when the workspace is reused.
type Workspace struct {
	n     int
	depth int

	// Per-start candidate store: valid[s] marks cands[s] exact for the
	// rest of the current build.
	valid []bool
	cands [][]cand
	reach [][]uint64 // reach[s]: bitset of tasks the DP from s touched

	// DP scratch for one DP at a time. Tables are allocated flat
	// (n×(depth+1)) and cells are claimed lazily via visit stamps (stamp
	// per node, cell per (node, length) entry), with lo/hi bracketing
	// each reached node's set lengths, so a DP touches only the cells it
	// reaches and allocates nothing.
	maxC    []rtime.Time
	par     []int32
	src     []int32 // multi-source DP only: the start of each cell's chain
	stamp   []uint32
	cell    []uint32
	lo, hi  []int32
	tick    uint32
	touched []int32
	dpStart int // start of the last per-start DP this round; -1 when stale

	// Per-build slicer state.
	assigned []bool
	ea, ld   []rtime.Time
	dirty    []uint64

	// Slice-boundary scratch.
	costs  []rtime.Time
	shares []float64
	bnd    []rtime.Time
}

// NewWorkspace returns an empty workspace. The zero value is equivalent.
func NewWorkspace() *Workspace { return &Workspace{} }

// Distribute runs the slicing algorithm through this workspace; see the
// package-level Distribute for the algorithm contract. The result is
// identical to Distribute's for any workspace state: reuse changes where
// working memory comes from, never the outcome.
func (ws *Workspace) Distribute(g *taskgraph.Graph, est []rtime.Time, m int, metric Metric, params Params) (*Assignment, error) {
	if ws == nil {
		ws = &Workspace{}
	}
	return distribute(ws, g, est, m, metric, params)
}

// prepare sizes the workspace for graph g and for the chain search the
// build runs: the candidate store for the per-start DP, the start table
// for the multi-source one. A per-start build invalidates every
// candidate list first. A completed build leaves none valid (each
// list's reach contains its own start, and every task is committed in
// some round), but a build cut short by an error or a panic can return
// a workspace with live lists to its pool.
func (ws *Workspace) prepare(g *taskgraph.Graph, perStart bool) {
	n, depth := g.NumTasks(), g.Depth()
	ws.grow(n, depth)
	if perStart {
		ws.growCands(n)
		for i := 0; i < n; i++ {
			ws.valid[i] = false
		}
	} else {
		ws.src = growInt32s(ws.src, n*(depth+1))
	}
	ws.n, ws.depth = n, depth
	for i := 0; i < n; i++ {
		ws.assigned[i] = false
	}
	ws.dpStart = -1
}

// grow (re)sizes the arrays both chain searches use for an n-task,
// depth-deep graph, keeping existing backing stores when they are large
// enough.
func (ws *Workspace) grow(n, depth int) {
	rows := n * (depth + 1)
	ws.maxC = growTimes(ws.maxC, rows)
	ws.par = growInt32s(ws.par, rows)
	if cap(ws.stamp) < n || cap(ws.cell) < rows {
		// The node and cell stamps share one tick: reset them together
		// so a zeroed new array can never collide with a surviving one.
		ws.stamp = make([]uint32, n)
		ws.cell = make([]uint32, rows)
		ws.tick = 0
	}
	ws.stamp = ws.stamp[:n]
	ws.cell = ws.cell[:rows]
	ws.lo = growInt32s(ws.lo, n)
	ws.hi = growInt32s(ws.hi, n)

	ws.ea = growTimes(ws.ea, n)
	ws.ld = growTimes(ws.ld, n)
	ws.costs = growTimes(ws.costs, n)
	ws.bnd = growTimes(ws.bnd, n+1)
	if cap(ws.assigned) < n {
		ws.assigned = make([]bool, n)
	}
	ws.assigned = ws.assigned[:n]
	if cap(ws.shares) < n {
		ws.shares = make([]float64, n)
	}
	ws.shares = ws.shares[:n]
}

// growCands (re)sizes the per-start candidate store and its scratch.
func (ws *Workspace) growCands(n int) {
	words := (n + 63) / 64
	if cap(ws.valid) < n {
		ws.valid = make([]bool, n)
	}
	ws.valid = ws.valid[:n]
	if len(ws.cands) < n {
		cands := make([][]cand, n)
		copy(cands, ws.cands)
		ws.cands = cands
	}
	if len(ws.reach) < n {
		reach := make([][]uint64, n)
		copy(reach, ws.reach)
		ws.reach = reach
	}
	for i := 0; i < n; i++ {
		if cap(ws.reach[i]) < words {
			ws.reach[i] = make([]uint64, words)
		}
		ws.reach[i] = ws.reach[i][:words]
	}
	if cap(ws.dirty) < words {
		ws.dirty = make([]uint64, words)
	}
	ws.dirty = ws.dirty[:words]
	if cap(ws.touched) < n {
		ws.touched = make([]int32, 0, n)
	}
}

// nextTick starts a DP: it returns a stamp no cell or node holds. When
// the counter wraps, every stamp is cleared first, since a tick of 0,
// or one reused after 2³² DPs, would match cells the DP never claimed.
func (ws *Workspace) nextTick() uint32 {
	ws.tick++
	if ws.tick == 0 {
		clear(ws.stamp[:cap(ws.stamp)])
		clear(ws.cell[:cap(ws.cell)])
		ws.tick = 1
	}
	return ws.tick
}

// widen records that the DP stamped tick has a chain of l tasks ending
// at u, widening u's band of lengths, and reports whether u was
// unreached before.
func (ws *Workspace) widen(u int, l int32, tick uint32) bool {
	if ws.stamp[u] != tick {
		ws.stamp[u] = tick
		ws.lo[u], ws.hi[u] = l, l
		return true
	}
	if l < ws.lo[u] {
		ws.lo[u] = l
	}
	if l > ws.hi[u] {
		ws.hi[u] = l
	}
	return false
}

func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growTimes(s []rtime.Time, n int) []rtime.Time {
	if cap(s) < n {
		return make([]rtime.Time, n)
	}
	return s[:n]
}

// intersects reports whether two equal-width bitsets share a bit.
func intersects(a, b []uint64) bool {
	for i := range a {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

// invalidateChain drops every candidate list whose DP reached a task
// of the just-committed chain: those lists were computed when the
// chain's tasks were still unassigned, so their sums and reachability
// are no longer exact. Lists whose reach is disjoint from the chain
// would compute bit-identically today and stay valid.
func (ws *Workspace) invalidateChain(chain []int) {
	d := ws.dirty
	for i := range d {
		d[i] = 0
	}
	for _, t := range chain {
		d[t>>6] |= 1 << (uint(t) & 63)
	}
	for s := 0; s < ws.n; s++ {
		if ws.valid[s] && intersects(ws.reach[s], d) {
			ws.valid[s] = false
		}
	}
	ws.dpStart = -1
}
