package slicing

import (
	"fmt"
	"math"

	"repro/internal/rtime"
	"repro/internal/taskgraph"
)

// Assignment is the output of deadline distribution: an execution window
// per task, plus diagnostics about how the windows were derived.
type Assignment struct {
	// Arrival[i] is the absolute arrival time aᵢ of task i: the earliest
	// time at which it may begin execution.
	Arrival []rtime.Time
	// AbsDeadline[i] is the absolute deadline Dᵢ of task i: the latest
	// time by which it must finish.
	AbsDeadline []rtime.Time
	// RelDeadline[i] = Dᵢ − aᵢ (dᵢ), never negative (zero for
	// over-constrained windows).
	RelDeadline []rtime.Time
	// Virtual[i] is the virtual execution time ĉᵢ the metric used.
	Virtual []rtime.Time
	// Chains records the critical paths in extraction order; their
	// concatenation covers every task exactly once.
	Chains [][]int
	// ChainR records the metric value R of each extracted chain, in the
	// same order as Chains — the "criticalness" ranking the algorithm
	// acted on (diagnostics; lower means more critical).
	ChainR []float64
	// OverConstrained reports that the end-to-end deadlines were too
	// tight for a coherent distribution: some window is empty, or the
	// windows of some precedence-related pair overlap. Such an
	// assignment cannot be feasibly scheduled.
	OverConstrained bool
	// Rounds is the number of main-loop iterations (= len(Chains)).
	Rounds int
	// MetricName records which metric produced the assignment.
	MetricName string
}

// Window returns task i's execution window.
func (a *Assignment) Window(i int) rtime.Window {
	return rtime.Window{Arrival: a.Arrival[i], Deadline: a.AbsDeadline[i]}
}

// Laxity returns Xᵢ = dᵢ − c̄ᵢ (§4.2), the slack the metric granted task
// i relative to the supplied estimates. Negative laxity means the window
// cannot hold the task even in isolation.
func (a *Assignment) Laxity(i int, est []rtime.Time) rtime.Time {
	return a.RelDeadline[i] - est[i]
}

// MinLaxity returns the minimum laxity over all tasks, the secondary
// quality measure of §4.2 for workloads with loose deadlines.
func (a *Assignment) MinLaxity(est []rtime.Time) rtime.Time {
	best := rtime.Infinity
	for i := range a.RelDeadline {
		if x := a.Laxity(i, est); x < best {
			best = x
		}
	}
	return best
}

// Validate checks the structural invariants the slicing technique
// guarantees for assignments that are not over-constrained: every task
// has a window, for every precedence arc (i, j) the deadline of i does
// not exceed the arrival of j — i.e. the execution windows of sequential
// tasks never overlap (the property behind implications I1/I2) — and no
// output finishes after its end-to-end deadline (the path constraint,
// eq. 1). Over-constrained assignments are only checked for coverage,
// since the non-overlap guarantee is unachievable for them by
// definition.
func (a *Assignment) Validate(g *taskgraph.Graph) error {
	n := g.NumTasks()
	if len(a.Arrival) != n || len(a.AbsDeadline) != n {
		return fmt.Errorf("slicing: assignment covers %d tasks, graph has %d", len(a.Arrival), n)
	}
	for i := 0; i < n; i++ {
		if !a.Arrival[i].IsSet() || !a.AbsDeadline[i].IsSet() {
			return fmt.Errorf("slicing: task %d has unassigned window", i)
		}
	}
	if a.OverConstrained {
		return nil
	}
	for _, arc := range g.Arcs() {
		if a.AbsDeadline[arc.From] > a.Arrival[arc.To] {
			return fmt.Errorf("slicing: windows of %d → %d overlap (D=%d > a=%d)",
				arc.From, arc.To, a.AbsDeadline[arc.From], a.Arrival[arc.To])
		}
	}
	for _, out := range g.Outputs() {
		ete := g.Task(out).ETEDeadline
		if ete.IsSet() && a.AbsDeadline[out] > ete {
			return fmt.Errorf("slicing: output %d deadline %d exceeds E-T-E deadline %d",
				out, a.AbsDeadline[out], ete)
		}
	}
	return nil
}

// slicer carries one Distribute invocation. All working memory lives in
// the workspace; the slicer itself only binds the invocation's inputs.
type slicer struct {
	g      *taskgraph.Graph
	metric Metric
	mode   Mode
	est    []rtime.Time // c̄, the WCET estimates
	vc     []rtime.Time // ĉ, the metric's virtual costs
	n      int
	topo   []int
	ws     *Workspace
	// assigned/ea/ld alias workspace arrays. In Consistent mode ea/ld
	// are the ASAP/ALAP corridors recomputed every round; in Faithful
	// mode they hold the recorded boundary values of Figure 1's attach
	// step, rtime.Unset when absent.
	assigned []bool
	ea       []rtime.Time
	ld       []rtime.Time
	asg      *Assignment
	// left is |Π|, the number of tasks not yet sliced.
	left int
	// sh devirtualizes the metric's R/Shares rules when the metric is
	// one of the package's shape-based ones (all built-ins are); pure
	// marks the PURE-shaped ones, whose chain search is multi-source.
	sh   shape
	shOK bool
	pure bool
}

// Distribute runs the SLICING algorithm (Figure 1) over graph g with the
// given WCET estimates, platform size m, metric, and parameters. Every
// output task must carry an end-to-end deadline.
//
// The constraint bookkeeping of steps 5–12 (attaching the remaining
// tasks to the sliced spine) is implemented transitively: before each
// round the earliest arrival EA(τ) and latest deadline LD(τ) of every
// unassigned task are derived by ASAP/ALAP propagation through the
// unassigned subgraph, anchored at the windows already committed and at
// the application's phases and E-T-E deadlines. EA/LD reduce exactly to
// the paper's immediate-neighbour rule for tasks adjacent to a spine,
// and additionally keep multi-spine constraints consistent for tasks
// further away (see DESIGN.md).
func Distribute(g *taskgraph.Graph, est []rtime.Time, m int, metric Metric, params Params) (*Assignment, error) {
	return distribute(&Workspace{}, g, est, m, metric, params)
}

// distribute is Distribute bound to a workspace.
func distribute(ws *Workspace, g *taskgraph.Graph, est []rtime.Time, m int, metric Metric, params Params) (*Assignment, error) {
	if !g.Frozen() {
		return nil, fmt.Errorf("slicing: graph must be frozen")
	}
	if len(est) != g.NumTasks() {
		return nil, fmt.Errorf("slicing: %d estimates for %d tasks", len(est), g.NumTasks())
	}
	if m <= 0 {
		return nil, fmt.Errorf("slicing: system size m=%d", m)
	}
	for _, out := range g.Outputs() {
		if !g.Task(out).ETEDeadline.IsSet() {
			return nil, fmt.Errorf("slicing: output task %d has no end-to-end deadline", out)
		}
	}

	env := &Env{G: g, Est: est, M: m, Params: params}
	n := g.NumTasks()
	vc := metric.VirtualCosts(env)
	bm, shOK := metric.(*baseMetric)
	pure := shOK && bm.shape == pureShape
	ws.prepare(g, !pure)
	s := &slicer{
		g:        g,
		metric:   metric,
		mode:     params.Mode,
		est:      est,
		vc:       vc,
		n:        n,
		topo:     g.TopoOrder(),
		ws:       ws,
		assigned: ws.assigned,
		ea:       ws.ea,
		ld:       ws.ld,
		left:     n,
		asg: &Assignment{
			Arrival:     make([]rtime.Time, n),
			AbsDeadline: make([]rtime.Time, n),
			RelDeadline: make([]rtime.Time, n),
			MetricName:  metric.Name(),
		},
		shOK: shOK,
		pure: pure,
	}
	if shOK {
		s.sh = bm.shape
	}
	for i := range s.asg.Arrival {
		s.asg.Arrival[i] = rtime.Unset
		s.asg.AbsDeadline[i] = rtime.Unset
	}
	s.asg.Virtual = append([]rtime.Time(nil), s.vc...)

	if s.mode == Faithful {
		// Step 1 of Figure 1: boundary tasks get their application-level
		// timing; everything else starts unconstrained.
		for i := range s.ea {
			s.ea[i] = rtime.Unset
			s.ld[i] = rtime.Unset
		}
		for _, in := range g.Inputs() {
			s.ea[in] = g.Task(in).Phase
		}
		for _, out := range g.Outputs() {
			s.ld[out] = g.Task(out).ETEDeadline
		}
	}

	for s.left > 0 {
		if s.mode == Consistent {
			s.computeBounds()
		}
		chain, r, ok := s.findCriticalChain()
		if !ok {
			return nil, fmt.Errorf("slicing: internal error: no candidate chain with %d tasks unassigned", s.left)
		}
		s.distribute(chain)
		if !s.pure {
			s.ws.invalidateChain(chain)
		}
		if s.mode == Faithful {
			s.attach(chain)
		}
		s.asg.Chains = append(s.asg.Chains, chain)
		s.asg.ChainR = append(s.asg.ChainR, r)
		s.asg.Rounds++
	}

	// Flag over-constrained outcomes: empty windows, or overlapping
	// windows of precedence-related tasks (possible only when E-T-E
	// deadlines cannot accommodate the workload).
	for i := 0; i < n; i++ {
		if s.asg.RelDeadline[i] <= 0 {
			s.asg.OverConstrained = true
		}
	}
	for _, arc := range g.Arcs() {
		if s.asg.AbsDeadline[arc.From] > s.asg.Arrival[arc.To] {
			s.asg.OverConstrained = true
		}
	}
	return s.asg, nil
}

// computeBounds refreshes EA and LD over the unassigned subgraph.
//
//	EA(τ) = max(φ_τ, max over preds p: p assigned ? D_p : EA(p)+c̄_p)
//	LD(τ) = min(D_ETE if output, min over succs u: u assigned ? a_u : LD(u)−c̄_u)
func (s *slicer) computeBounds() {
	topo := s.topo
	for _, v := range topo {
		if s.assigned[v] {
			continue
		}
		ea := s.g.Task(v).Phase
		for _, p := range s.g.Preds(v) {
			var t rtime.Time
			if s.assigned[p] {
				t = s.asg.AbsDeadline[p]
			} else {
				t = s.ea[p] + s.est[p]
			}
			if t > ea {
				ea = t
			}
		}
		s.ea[v] = ea
	}
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		if s.assigned[v] {
			continue
		}
		ld := rtime.Infinity
		if ete := s.g.Task(v).ETEDeadline; ete.IsSet() {
			ld = ete
		}
		for _, u := range s.g.Succs(v) {
			var t rtime.Time
			if s.assigned[u] {
				t = s.asg.Arrival[u]
			} else {
				t = s.ld[u] - s.est[u]
			}
			if t < ld {
				ld = t
			}
		}
		s.ld[v] = ld
	}
}

// candidate is one evaluated chain.
type candidate struct {
	r          float64
	nTasks     int
	sumC       rtime.Time
	start, end int
	valid      bool
}

// better reports whether b should replace c. Ties break toward longer
// chains (constraining more tasks per window), then larger total cost,
// then lower task IDs, keeping runs deterministic.
func (c *candidate) better(b *candidate) bool {
	if !c.valid {
		return true
	}
	if b.r != c.r {
		return b.r < c.r
	}
	if b.nTasks != c.nTasks {
		return b.nTasks > c.nTasks
	}
	if b.sumC != c.sumC {
		return b.sumC > c.sumC
	}
	if b.start != c.start {
		return b.start < c.start
	}
	return b.end < c.end
}

// findCriticalChain implements Step 3: a sweep over the unassigned
// subgraph that finds the chain minimizing the metric value R. A chain
// may start and end at any unassigned task; its end-to-end window is
// [EA(start), LD(end)]. For each start and (node, length) the search
// keeps the chain of maximum Σĉ (total virtual cost), which is the
// minimum-R chain of its (start, end, length) wherever R does not rise
// with Σĉ:
//
//   - PURE-shaped metrics (PURE, ADAPT-G, ADAPT-L, ADAPT-R):
//     R = (window − Σĉ)/length always falls as Σĉ grows, and across
//     starts it falls as EA(start) + Σĉ grows, so one multi-source DP
//     per round serves every start at once (pureChain);
//   - NORM-shaped metrics (NORM, ADAPT-N): R = window/Σĉ − 1 falls on a
//     positive window, is flat on a zero one (the tie-break then prefers
//     the larger Σĉ) and rises on a negative one. R is a ratio, so no
//     such reduction over starts holds: these metrics, and caller-defined
//     ones, run one DP per start.
//
// In Consistent mode with positive estimates no chain whose window is
// ≤ 0 is the minimum: LD(start) ≤ LD(end) minus the estimates of the
// chain's later tasks, so the single-task chain at its own start has a
// strictly smaller window over a no larger Σĉ, hence a strictly smaller
// R, and the DP keeps every length-1 candidate. The selection is exact
// there. A zero estimate breaks the strict step (the slicer may then
// take a shorter chain of equal R than the length tie-break prefers),
// and Faithful mode has no LD propagation: on a window ≤ 0 its
// NORM-shaped selection can miss the minimum R. Either way the round
// over-constrains whichever chain is taken. The selection is kept as it
// is, since changing it would move the golden tables that cross such
// corridors; TestChainSelectionMatchesExhaustive pins all of this
// against enumeration.
//
// The per-start DP is window-free, so its candidate lists are cached
// per start in the workspace and only recomputed for starts whose
// reachable set intersects a chain committed since (the EA/LD windows,
// which do change every round, are applied at evaluation time).
func (s *slicer) findCriticalChain() ([]int, float64, bool) {
	if s.pure {
		return s.pureChain()
	}
	var best candidate
	ws := s.ws
	for start := 0; start < s.n; start++ {
		if s.assigned[start] {
			continue
		}
		if s.mode == Faithful && !s.ea[start].IsSet() {
			continue // Figure 1: chains begin at recorded arrivals
		}
		if !ws.valid[start] {
			s.runDP(start)
			s.collectCands(start)
		}
		s.evalCands(start, &best)
	}
	if !best.valid {
		return nil, 0, false
	}
	return s.reconstruct(best.start, best.end, best.nTasks), best.r, true
}

// pureChain is findCriticalChain for the PURE-shaped metrics: one DP
// over the unassigned subgraph, seeded at every eligible start with
// key = EA(start) + ĉ(start), finds the chain the per-start DPs would.
//
// Why it is exact. R = (LD(end) − key)/l with key = EA(start) + Σĉ, so
// for a fixed (end, l) R falls as key rises: strictly, since keys are
// integers and |LD − key| stays below 2⁵². candidate.better orders the
// chains of one (end, l) by R, then Σĉ (larger first), then start
// (lower first), so cell (v, l) keeps the lexicographic best of (key,
// larger first; Σĉ, larger first; start, lower first) over every chain
// of l tasks ending at v. Appending a task adds the same ĉ to key and
// Σĉ, so that order survives the extension and cell optima compose: the
// best chain into (u, l+1) extends the best chain of some (v, l). Nodes
// are relaxed in topo order and a cell is replaced only on a strict
// improvement, so among equal tuples the topo-earliest predecessor
// wins. That is the per-start DP's own tie-break, and the winner's path
// is the one its start's DP reconstructs. Each cell is scored once its
// task is final; candidate.better is a strict total order over cells of
// distinct (end, l), so the order cells are scored in cannot change the
// winner.
//
// Within a round Σĉ = key − EA(start), so maxC holds key and src the
// start. The search neither fills nor reads the candidate store.
func (s *slicer) pureChain() ([]int, float64, bool) {
	ws := s.ws
	depth := ws.depth
	W := depth + 1
	tick := ws.nextTick()
	faithful := s.mode == Faithful
	var best candidate
	for _, v := range s.topo {
		if s.assigned[v] {
			continue
		}
		row := v * W
		if !faithful || s.ea[v].IsSet() {
			// Seed v as a start. No predecessor writes length 1, so the
			// seed can wait until v's own turn in topo order.
			c := row + 1
			ws.cell[c] = tick
			ws.maxC[c] = s.ea[v] + s.vc[v]
			ws.par[c] = -1
			ws.src[c] = int32(v)
			if ws.stamp[v] != tick {
				ws.stamp[v] = tick
				ws.hi[v] = 1
			}
			ws.lo[v] = 1
		} else if ws.stamp[v] != tick {
			continue
		}
		ld := s.ld[v]
		score := !faithful || ld.IsSet()
		succs := s.g.Succs(v)
		for l := ws.lo[v]; l <= ws.hi[v]; l++ {
			cell := row + int(l)
			if ws.cell[cell] != tick {
				continue // a hole in the band: no chain of this length
			}
			key, start := ws.maxC[cell], int(ws.src[cell])
			eaStart := s.ea[start]
			if score {
				r := float64(ld-key) / float64(l)
				if !best.valid || r <= best.r {
					c := candidate{r: r, nTasks: int(l), sumC: key - eaStart, start: start, end: v, valid: true}
					if best.better(&c) {
						best = c
					}
				}
			}
			if int(l) >= depth {
				continue // targets sit at l+1 ≤ depth
			}
			for _, u := range succs {
				if s.assigned[u] {
					continue
				}
				uc := u*W + int(l) + 1
				tot := key + s.vc[u]
				if ws.cell[uc] != tick {
					ws.cell[uc] = tick
					ws.widen(u, l+1, tick)
				} else if old := ws.maxC[uc]; tot < old {
					continue
				} else if tot == old {
					// Equal keys: the larger Σĉ is the earlier EA(start).
					prev := int(ws.src[uc])
					if eaPrev := s.ea[prev]; eaStart > eaPrev || eaStart == eaPrev && start >= prev {
						continue
					}
				}
				ws.maxC[uc] = tot
				ws.par[uc] = int32(v)
				ws.src[uc] = int32(start)
			}
		}
	}
	if !best.valid {
		return nil, 0, false
	}
	return s.chainTo(best.end, best.nTasks), best.r, true
}

// evalCands folds start's (exact) candidate list into best under the
// current EA/LD windows. The r computation is specialized inline for
// the NORM shape — this fold is the hottest loop of the per-start
// search — and candidates that lose on R alone (the overwhelming
// majority) skip the tie-break comparison entirely, which is sound
// because better replaces only on strictly smaller r or on a tie.
func (s *slicer) evalCands(start int, best *candidate) {
	eaStart := s.ea[start]
	faithful := s.mode == Faithful
	norm := s.shOK && s.sh == normShape
	for _, c := range s.ws.cands[start] {
		end := int(c.end)
		ld := s.ld[end]
		if faithful && !ld.IsSet() {
			continue
		}
		window := ld - eaStart
		var r float64
		if norm {
			if c.sum == 0 {
				r = math.Inf(1)
			} else {
				r = float64(window-c.sum) / float64(c.sum)
			}
		} else {
			r = s.metric.R(window, int(c.l), c.sum)
		}
		if best.valid && r > best.r {
			continue
		}
		cand := candidate{r: r, nTasks: int(c.l), sumC: c.sum, start: start, end: end, valid: true}
		if best.better(&cand) {
			*best = cand
		}
	}
}

// runDP runs the per-start longest-chain DP into the workspace's flat
// tables: maxC[v·W+l] is the maximum Σĉ over chains of length l from
// start to v through unassigned tasks, par the matching predecessor.
// Cells are claimed lazily through a per-cell visit stamp and each
// reached node carries its [lo, hi] band of set lengths, so the DP
// initializes nothing up front, scans no unset cells outside the bands,
// and allocates nothing. Nodes are relaxed in topo order (a node's
// cells are final before its own band is scanned), and for equal sums
// the topo-earliest predecessor wins — the same tie-break the dense
// formulation had.
func (s *slicer) runDP(start int) {
	ws := s.ws
	depth := ws.depth
	W := depth + 1
	tick := ws.nextTick()
	ws.touched = ws.touched[:0]
	ws.stamp[start] = tick
	ws.touched = append(ws.touched, int32(start))
	ws.lo[start], ws.hi[start] = 1, 1
	c0 := start*W + 1
	ws.maxC[c0] = s.vc[start]
	ws.par[c0] = -1
	ws.cell[c0] = tick

	for _, v := range s.topo {
		if ws.stamp[v] != tick || s.assigned[v] {
			continue
		}
		row := v * W
		hi := ws.hi[v]
		if hi >= int32(depth) {
			hi = int32(depth) - 1 // targets sit at l+1 ≤ depth
		}
		for l := ws.lo[v]; l <= hi; l++ {
			cell := row + int(l)
			if ws.cell[cell] != tick {
				continue // a hole in the band: no chain of this length
			}
			cur := ws.maxC[cell]
			for _, u := range s.g.Succs(v) {
				if s.assigned[u] {
					continue
				}
				uc := u*W + int(l) + 1
				tot := cur + s.vc[u]
				if ws.cell[uc] != tick {
					ws.cell[uc] = tick
					ws.maxC[uc] = tot
					ws.par[uc] = int32(v)
					if ws.widen(u, l+1, tick) {
						ws.touched = append(ws.touched, int32(u))
					}
				} else if tot > ws.maxC[uc] {
					ws.maxC[uc] = tot
					ws.par[uc] = int32(v)
				}
			}
		}
	}
	ws.dpStart = start
}

// collectCands snapshots the DP's reached (end, length, Σĉ) triples into
// the start's cached candidate list and records the reached-task bitset
// that governs the list's invalidation.
func (s *slicer) collectCands(start int) {
	ws := s.ws
	W := ws.depth + 1
	tick := ws.tick
	rb := ws.reach[start]
	for i := range rb {
		rb[i] = 0
	}
	cl := ws.cands[start][:0]
	for _, v32 := range ws.touched {
		v := int(v32)
		rb[v>>6] |= 1 << (uint(v) & 63)
		row := v * W
		for l := ws.lo[v]; l <= ws.hi[v]; l++ {
			if cell := row + int(l); ws.cell[cell] == tick {
				cl = append(cl, cand{end: v32, l: l, sum: ws.maxC[cell]})
			}
		}
	}
	ws.cands[start] = cl
	ws.valid[start] = true
}

// reconstruct recovers the winning chain of the per-start search by
// walking the parent table of the start's DP, re-running it first unless
// it is the one still in the workspace tables. A cached candidate's DP
// re-run is bit-identical to the run that produced it: its validity
// guarantees no task it reaches was assigned since.
func (s *slicer) reconstruct(start, end, length int) []int {
	if s.ws.dpStart != start {
		s.runDP(start)
	}
	return s.chainTo(end, length)
}

// chainTo walks the parent table back from cell (end, length).
func (s *slicer) chainTo(end, length int) []int {
	W := s.ws.depth + 1
	chain := make([]int, length)
	v, l := end, length
	for l > 0 {
		chain[l-1] = v
		v, l = int(s.ws.par[v*W+l]), l-1
	}
	return chain
}

// distribute implements Step 4: partition the chain's end-to-end window
// [EA(first), LD(last)] into per-task slices according to the metric's
// share rule. Raw shares are clamped at zero and converted to integral,
// monotone boundaries by rounding the cumulative share; the boundaries
// are then clamped into each task's [EA, LD] corridor so that no window
// contradicts a constraint recorded by an earlier spine.
func (s *slicer) distribute(chain []int) {
	k := len(chain)
	first, last := chain[0], chain[k-1]
	a0 := s.ea[first]
	dEnd := s.ld[last]
	window := dEnd - a0

	if window <= 0 {
		// Degenerate: the deadline corridor is empty. Give every task
		// the empty window at the corridor edge; scheduling will fail
		// these tasks, as it should.
		d := rtime.Min(dEnd, a0)
		for _, t := range chain {
			s.commit(t, rtime.Max(a0, d), rtime.Max(a0, d))
		}
		return
	}

	costs := s.ws.costs[:k]
	for i, t := range chain {
		costs[i] = s.vc[t]
	}
	var shares []float64
	if s.shOK {
		shares = s.sh.sharesInto(s.ws.shares[:k], window, costs)
	} else {
		shares = s.metric.Shares(window, costs)
	}
	total := 0.0
	for i, sh := range shares {
		if sh < 0 || math.IsNaN(sh) {
			sh = 0
		}
		shares[i] = sh
		total += sh
	}
	if total <= 0 {
		// All shares clamped away (window far smaller than the total
		// cost): fall back to an equal split.
		for i := range shares {
			shares[i] = 1
		}
		total = float64(k)
	}

	// Monotone cumulative rounding: b_j = a0 + round(W·cum_j/total),
	// with b_0 = a0 and b_k = dEnd exactly.
	b := s.ws.bnd[:k+1]
	b[0] = a0
	cum := 0.0
	for i := 0; i < k; i++ {
		cum += shares[i]
		x := a0 + rtime.Time(math.Round(float64(window)*cum/total))
		if x < b[i] {
			x = b[i]
		}
		b[i+1] = x
	}
	b[k] = dEnd

	// In Consistent mode, clamp the interior boundaries into the EA/LD
	// corridors: forward for arrivals, backward for deadlines. For
	// feasible corridors this preserves monotonicity; for infeasible
	// ones the overlap is caught by the post-pass in Distribute.
	// Faithful mode uses the raw boundaries, as Figure 1 does.
	if s.mode == Consistent {
		for i := 1; i < k; i++ {
			if ea := s.ea[chain[i]]; b[i] < ea {
				b[i] = ea
			}
			if b[i] < b[i-1] {
				b[i] = b[i-1]
			}
		}
		for i := k - 1; i >= 1; i-- {
			if ld := s.ld[chain[i-1]]; b[i] > ld {
				b[i] = ld
			}
			if b[i] > b[i+1] {
				b[i] = b[i+1]
			}
		}
	}

	for i, t := range chain {
		s.commit(t, b[i], b[i+1])
	}
}

// attach implements steps 5–12 of Figure 1 for Faithful mode: the sliced
// chain becomes a spine; each unassigned immediate predecessor receives
// an end-to-end deadline equal to the chain task's arrival (earliest
// such arrival wins) and each unassigned immediate successor an arrival
// equal to the chain task's absolute deadline (latest wins).
func (s *slicer) attach(chain []int) {
	for _, t := range chain {
		at, dt := s.asg.Arrival[t], s.asg.AbsDeadline[t]
		for _, p := range s.g.Preds(t) {
			if s.assigned[p] {
				continue
			}
			if !s.ld[p].IsSet() || at < s.ld[p] {
				s.ld[p] = at
			}
		}
		for _, u := range s.g.Succs(t) {
			if s.assigned[u] {
				continue
			}
			if !s.ea[u].IsSet() || dt > s.ea[u] {
				s.ea[u] = dt
			}
		}
	}
}

// commit finalizes one task's window.
func (s *slicer) commit(t int, a, d rtime.Time) {
	s.assigned[t] = true
	s.asg.Arrival[t] = a
	s.asg.AbsDeadline[t] = d
	rel := d - a
	if rel < 0 {
		rel = 0
	}
	s.asg.RelDeadline[t] = rel
	s.left--
}
