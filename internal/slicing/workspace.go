package slicing

import (
	"repro/internal/rtime"
	"repro/internal/taskgraph"
)

// Workspace is the reusable working memory of Distribute: the tables of
// the critical-chain search, the EA/LD corridor arrays, and the
// slice-boundary scratch. A zero Workspace is ready to use; it grows to
// the largest graph it has seen and never shrinks. A Workspace is not
// safe for concurrent use — pool instances (pipeline.BuildScratch does)
// instead of sharing one.
//
// Each of the two chain searches of findCriticalChain has its own
// tables, grown on the first build that needs them: the multi-source DP
// of the PURE-shaped metrics keeps flat (node, length) cells, and the
// Dinkelbach search of the NORM-shaped ones keeps two slots per node.
// Nothing carries over between rounds or builds: every DP pass takes a
// fresh stamp, and a cell or slot counts only under the current one.
//
// Nothing reachable from the returned *Assignment ever aliases workspace
// memory: all assignment fields are freshly allocated on every call, so
// assignments stay immutable when the workspace is reused.
type Workspace struct {
	depth int

	// Multi-source DP cells (pureChain), allocated flat (n×(depth+1)):
	// maxC holds each cell's key, par its predecessor and src its chain's
	// start. Cells are claimed lazily via visit stamps (stamp per node,
	// cell per (node, length) entry), with lo/hi bracketing each reached
	// node's set lengths, so a DP touches only the cells it reaches and
	// allocates nothing.
	maxC   []rtime.Time
	par    []int32
	src    []int32
	stamp  []uint32
	cell   []uint32
	lo, hi []int32

	// Per-node slots of the Dinkelbach search (normChain): slots[2v] is
	// the best chain into v with Σĉ > 0, slots[2v+1] the best zero-cost
	// one.
	slots []slot

	// tick is the stamp of the current DP pass; cells and slots share it.
	tick uint32

	// Per-build slicer state.
	assigned []bool
	ea, ld   []rtime.Time

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
// build runs: the (node, length) cells of the multi-source DP when pure
// is set, the per-node slots otherwise. Fresh arrays are zero, a stamp
// no DP pass uses, so growing one table never requires clearing another.
func (ws *Workspace) prepare(g *taskgraph.Graph, pure bool) {
	n := g.NumTasks()
	if pure {
		depth := g.Depth()
		rows := n * (depth + 1)
		ws.maxC = grow(ws.maxC, rows)
		ws.par = grow(ws.par, rows)
		ws.src = grow(ws.src, rows)
		ws.cell = grow(ws.cell, rows)
		ws.stamp = grow(ws.stamp, n)
		ws.lo = grow(ws.lo, n)
		ws.hi = grow(ws.hi, n)
		ws.depth = depth
	} else {
		ws.slots = grow(ws.slots, 2*n)
	}

	ws.ea = grow(ws.ea, n)
	ws.ld = grow(ws.ld, n)
	ws.costs = grow(ws.costs, n)
	ws.bnd = grow(ws.bnd, n+1)
	ws.assigned = grow(ws.assigned, n)
	clear(ws.assigned)
	ws.shares = grow(ws.shares, n)
}

// nextTick starts a DP pass: it returns a stamp no cell, node or slot
// holds. When the counter wraps, every stamp is cleared first, since a
// tick of 0, or one reused after 2³² passes, would match entries the
// pass never claimed.
func (ws *Workspace) nextTick() uint32 {
	ws.tick++
	if ws.tick == 0 {
		clear(ws.stamp[:cap(ws.stamp)])
		clear(ws.cell[:cap(ws.cell)])
		clear(ws.slots[:cap(ws.slots)])
		ws.tick = 1
	}
	return ws.tick
}

// widen records that the DP stamped tick has a chain of l tasks ending
// at u, widening u's band of lengths.
func (ws *Workspace) widen(u int, l int32, tick uint32) {
	if ws.stamp[u] != tick {
		ws.stamp[u] = tick
		ws.lo[u], ws.hi[u] = l, l
		return
	}
	if l < ws.lo[u] {
		ws.lo[u] = l
	}
	if l > ws.hi[u] {
		ws.hi[u] = l
	}
}

// grow returns s resized to n entries, reallocated (zeroed) only when
// its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
