package slicing

import (
	"fmt"
	"math"
	"math/bits"

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
	g    *taskgraph.Graph
	mode Mode
	est  []rtime.Time // c̄, the WCET estimates
	vc   []rtime.Time // ĉ, the metric's virtual costs
	n    int
	topo []int
	ws   *Workspace
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
	// sh is the metric's shape: it picks the chain search and the share
	// rule.
	sh shape
}

// Distribute runs the SLICING algorithm (Figure 1) over graph g with the
// given WCET estimates, platform size m, metric, and parameters. Every
// output task must carry an end-to-end deadline, and no estimate may be
// negative.
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
	var s slicer
	if err := s.init(ws, g, est, m, metric, params); err != nil {
		return nil, err
	}
	return s.run(s.findCriticalChain)
}

// init checks Distribute's inputs and sets up step 1 of Figure 1.
func (s *slicer) init(ws *Workspace, g *taskgraph.Graph, est []rtime.Time, m int, metric Metric, params Params) error {
	if !g.Frozen() {
		return fmt.Errorf("slicing: graph must be frozen")
	}
	if len(est) != g.NumTasks() {
		return fmt.Errorf("slicing: %d estimates for %d tasks", len(est), g.NumTasks())
	}
	if m <= 0 {
		return fmt.Errorf("slicing: system size m=%d", m)
	}
	for i, c := range est {
		if c < 0 {
			return fmt.Errorf("slicing: task %d has negative estimate %d", i, c)
		}
	}
	for _, out := range g.Outputs() {
		if !g.Task(out).ETEDeadline.IsSet() {
			return fmt.Errorf("slicing: output task %d has no end-to-end deadline", out)
		}
	}

	env := &Env{G: g, Est: est, M: m, Params: params}
	n := g.NumTasks()
	sh := metric.laxityShape()
	ws.prepare(g, sh == pureShape)
	*s = slicer{
		g:        g,
		mode:     params.Mode,
		est:      est,
		vc:       metric.VirtualCosts(env),
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
		sh: sh,
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
	return nil
}

// run executes the rounds of Figure 1 (steps 2–13), each slicing the
// chain find returns: findCriticalChain, or a reference search in the
// package's tests.
func (s *slicer) run(find func() ([]int, float64, bool)) (*Assignment, error) {
	for s.left > 0 {
		if s.mode == Consistent {
			s.computeBounds()
		}
		chain, r, ok := find()
		if !ok {
			return nil, fmt.Errorf("slicing: internal error: no candidate chain with %d tasks unassigned", s.left)
		}
		s.distribute(chain)
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
	for i := 0; i < s.n; i++ {
		if s.asg.RelDeadline[i] <= 0 {
			s.asg.OverConstrained = true
		}
	}
	for _, arc := range s.g.Arcs() {
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

// findCriticalChain implements Step 3: it finds the chain of the
// unassigned subgraph with the least metric value R, candidate.better
// deciding ties. A chain may start at any unassigned task whose arrival
// is known and end at any unassigned task whose deadline is known (in
// Consistent mode every task qualifies); its end-to-end window is
// [EA(start), LD(end)]. Both searches are exact, on every window:
//
//   - PURE-shaped metrics (PURE, ADAPT-G, ADAPT-L, ADAPT-R):
//     R = (LD(end) − (EA(start) + Σĉ))/length, so one multi-source DP
//     over (node, length) cells serves every start at once (pureChain);
//   - NORM-shaped metrics (NORM, ADAPT-N): R = window/Σĉ − 1 is a
//     ratio, minimized by Dinkelbach iteration over a per-node DP
//     (normChain).
func (s *slicer) findCriticalChain() ([]int, float64, bool) {
	if s.sh == pureShape {
		return s.pureChain()
	}
	return s.normChain()
}

// pureChain is findCriticalChain for the PURE-shaped metrics: one DP
// over the unassigned subgraph, seeded at every eligible start with
// key = EA(start) + ĉ(start), finds the chain one DP per start would
// (the package's tests keep that search as a reference).
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
// wins. That is a per-start DP's own tie-break, and the winner's path
// is the one its start's DP reconstructs. Each cell is scored once its
// task is final; candidate.better is a strict total order over cells of
// distinct (end, l), so the order cells are scored in cannot change the
// winner.
//
// Within a round Σĉ = key − EA(start), so maxC holds key and src the
// start.
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

// normChain is findCriticalChain for the NORM-shaped metrics. R =
// W/Σĉ − 1 with W = LD(end) − EA(start), so the least R is the least
// ratio W/Σĉ over chains with Σĉ > 0: a fractional program, which
// Dinkelbach's parametric method solves with a few longest-path passes.
//
// Each pass fixes λ = W_λ/Σĉ_λ, the ratio of some chain, and walks the
// unassigned subgraph in topo order keeping, per node v, the chain that
// maximizes key = Σĉ_λ·EA(start) + W_λ·Σĉ. Its residual Σĉ_λ·LD(v) − key
// = Σĉ_λ·W − W_λ·Σĉ is negative exactly when its ratio is below λ, and
// no other chain into v has a smaller residual. If some node's residual
// is negative, the least such ratio becomes λ and the walk repeats: λ
// falls strictly, over finitely many chains. Otherwise no chain beats
// λ, which some chain attains, so λ is the least ratio and the chains
// of least R are those of residual 0. The first λ is the least ratio
// over single-task chains, or +Inf (1/0, under which key is Σĉ) when no
// single task is a chain of positive cost.
//
// Ties. Appending a task adds the same amount to the key, length and Σĉ
// of every chain into it, so the per-node lexicographic best of (key,
// larger first; length, larger first; Σĉ, larger first; start, lower
// first) composes: the best chain into u extends the best chain into
// one of its predecessors. The chains of residual 0 into v share the
// largest key, and among them that order is candidate.better's, so the
// winner is the candidate.better-best node of residual 0. A slot is
// replaced only on a strict improvement and nodes are relaxed in topo
// order, so on equal tuples the topo-earliest predecessor wins, as in a
// DP per start; where W_λ > 0 each chain of least R has the largest Σĉ
// of its (start, end, length), so that DP reconstructs the same path.
//
// A zero-cost chain has R = +Inf. It is a candidate only when no chain
// of positive cost is, and it must not displace one, since its
// extensions differ. Each node therefore keeps a second slot for
// zero-cost chains, which feed the slots of its successors. At λ = +Inf
// every zero-cost key is 0, so that slot holds the longest zero-cost
// chain (the lowest start on ties); if no chain of positive cost can
// end anywhere, the best of those wins.
//
// Keys, residuals and ratio comparisons are exact 128-bit integers
// wherever times and sums stay below 2⁵², as pureChain assumes; 64-bit
// products overflow once Σĉ_λ·EA passes 2⁶³. A new λ must also pass a
// direct ratio comparison, exact for any int64 operands, so λ falls
// strictly and the loop ends even on inputs outside that envelope.
func (s *slicer) normChain() ([]int, float64, bool) {
	ws := s.ws
	faithful := s.mode == Faithful
	lw, lc := rtime.Time(1), rtime.Time(0) // λ = lw/lc, +Inf until a chain sets it
	for _, v := range s.topo {
		c := s.vc[v]
		if s.assigned[v] || c == 0 || faithful && (!s.ea[v].IsSet() || !s.ld[v].IsSet()) {
			continue
		}
		if w := s.ld[v] - s.ea[v]; lc == 0 || ratioLess(w, c, lw, lc) {
			lw, lc = w, c
		}
	}
	for {
		tick := ws.nextTick()
		var best candidate
		var bestSlot int
		var nw, nc rtime.Time // the least ratio below λ so far; nc == 0 while none
		for _, v := range s.topo {
			if s.assigned[v] {
				continue
			}
			c := s.vc[v]
			inc := mul128(lw, c)
			pos, zero := &ws.slots[2*v], &ws.slots[2*v+1]
			// Append v to the chains that reached it. A zero-cost chain
			// reaches v only if c is 0.
			if pos.tick == tick {
				pos.key, pos.l, pos.sum = pos.key.add(inc), pos.l+1, pos.sum+c
			}
			if zero.tick == tick {
				zero.l++
			}
			if !faithful || s.ea[v].IsSet() {
				// The chain [v] ties an appended one only on key, and
				// then loses on length.
				seed := slot{key: mul128(lc, s.ea[v]).add(inc), sum: c, l: 1, start: int32(v), par: -1, tick: tick}
				sl := pos
				if c == 0 {
					sl = zero
				}
				if sl.tick != tick || seed.key.cmp(sl.key) > 0 {
					*sl = seed
				}
			}
			if ld := s.ld[v]; !faithful || ld.IsSet() {
				if pos.tick == tick {
					w := ld - s.ea[pos.start]
					// The residual's sign is that of Σĉ_λ·LD(v) − key.
					switch res := mul128(lc, ld).cmp(pos.key); {
					case res < 0:
						// The ratio test repeats the residual's verdict
						// inside the envelope and keeps λ falling outside it.
						if ratioLess(w, pos.sum, lw, lc) && (nc == 0 || ratioLess(w, pos.sum, nw, nc)) {
							nw, nc = w, pos.sum
						}
					case res == 0 && nc == 0:
						found := candidate{r: float64(w-pos.sum) / float64(pos.sum), nTasks: int(pos.l), sumC: pos.sum, start: int(pos.start), end: v, valid: true}
						if best.better(&found) {
							best, bestSlot = found, 2*v
						}
					}
				}
				if lc == 0 && zero.tick == tick {
					found := candidate{r: math.Inf(1), nTasks: int(zero.l), start: int(zero.start), end: v, valid: true}
					if best.better(&found) {
						best, bestSlot = found, 2*v+1
					}
				}
			}
			succs := s.g.Succs(v)
			for z, sl := range [2]*slot{pos, zero} {
				if sl.tick != tick {
					continue
				}
				in := *sl
				in.par = int32(2*v + z)
				for _, u := range succs {
					if s.assigned[u] {
						continue
					}
					t := &ws.slots[2*u]
					if z == 1 && s.vc[u] == 0 {
						t = &ws.slots[2*u+1]
					}
					if t.tick != tick || in.beats(t) {
						*t = in
					}
				}
			}
		}
		if nc == 0 {
			if !best.valid {
				return nil, 0, false
			}
			return s.slotChain(bestSlot), best.r, true
		}
		lw, lc = nw, nc
	}
}

// slot is one entry of normChain's per-node DP: the best chain into a
// node within one cost class (Σĉ > 0, or Σĉ = 0). Until the node's
// turn in a pass it holds the best chain into a predecessor, and the
// node is appended at its turn.
type slot struct {
	key   i128 // Σĉ_λ·EA(start) + W_λ·Σĉ
	sum   rtime.Time
	l     int32
	start int32
	par   int32  // the predecessor's slot, 2·node + zero-cost bit; -1 at the start
	tick  uint32 // the pass that wrote the slot
}

// beats reports whether a should replace b: key larger, then length
// larger, then Σĉ larger, then start lower.
func (a *slot) beats(b *slot) bool {
	if c := a.key.cmp(b.key); c != 0 {
		return c > 0
	}
	if a.l != b.l {
		return a.l > b.l
	}
	if a.sum != b.sum {
		return a.sum > b.sum
	}
	return a.start < b.start
}

// slotChain walks normChain's parent links back from slot i.
func (s *slicer) slotChain(i int) []int {
	chain := make([]int, s.ws.slots[i].l)
	for k := len(chain) - 1; k >= 0; k-- {
		chain[k] = i >> 1
		i = int(s.ws.slots[i].par)
	}
	return chain
}

// i128 is a signed 128-bit integer in two's complement.
type i128 struct {
	hi int64
	lo uint64
}

// mul128 returns a·b exactly.
func mul128(a, b rtime.Time) i128 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	// Mul64 multiplies the operands as unsigned; a negative operand
	// added 2⁶⁴ times the other one to the high word.
	if a < 0 {
		hi -= uint64(b)
	}
	if b < 0 {
		hi -= uint64(a)
	}
	return i128{int64(hi), lo}
}

func (x i128) add(y i128) i128 {
	lo, carry := bits.Add64(x.lo, y.lo, 0)
	return i128{x.hi + y.hi + int64(carry), lo}
}

// cmp returns -1, 0 or +1 as x is less than, equal to or greater than y.
func (x i128) cmp(y i128) int {
	switch {
	case x.hi < y.hi || x.hi == y.hi && x.lo < y.lo:
		return -1
	case x == y:
		return 0
	}
	return 1
}

// ratioLess reports whether w1/c1 < w2/c2, for c1, c2 > 0.
func ratioLess(w1, c1, w2, c2 rtime.Time) bool {
	return mul128(w1, c2).cmp(mul128(w2, c1)) < 0
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
	shares := s.sh.sharesInto(s.ws.shares[:k], window, costs)
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
