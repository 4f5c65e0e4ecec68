package slicing

import (
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/rtime"
	"repro/internal/taskgraph"
	"repro/internal/wcet"
)

// smallWorkload draws a 3–12-task random DAG for the exhaustive
// chain-selection reference: OLR between 0.05 and 1.5, each output
// holding either the common end-to-end deadline or a tighter one of its
// own, a few phased tasks, a few exclusive resources (so ADAPT-R departs
// from ADAPT-L), and, with zeros set, some estimates of 0. Every time is
// drawn in multiples of unit; a unit above 1 adds a random remainder
// below it to each estimate and phase.
func smallWorkload(rng *rand.Rand, zeros bool, unit rtime.Time) (*taskgraph.Graph, []rtime.Time) {
	scaled := func(x int) rtime.Time {
		t := rtime.Time(x) * unit
		if unit > 1 {
			t += rtime.Time(rng.Int63n(int64(unit)))
		}
		return t
	}
	n := 3 + rng.Intn(10)
	g := taskgraph.NewGraph(1)
	est := make([]rtime.Time, n)
	var work rtime.Time
	for i := range est {
		est[i] = scaled(1 + rng.Intn(30))
		work += est[i]
		var phase rtime.Time
		if rng.Intn(5) == 0 {
			phase = scaled(rng.Intn(20))
		}
		tk := g.MustAddTask("", c1(est[i]), phase)
		if rng.Intn(4) == 0 {
			tk.Resources = []int{rng.Intn(2)}
		}
		if zeros && rng.Intn(3) == 0 {
			est[i] = 0
		}
	}
	for j := 1; j < n; j++ {
		for q := 0; q < j; q++ {
			if rng.Intn(3) == 0 {
				g.MustAddArc(q, j, rtime.Time(rng.Intn(3)))
			}
		}
	}
	g.MustFreeze()
	d := rtime.Time(float64(work) * (0.05 + rng.Float64()*1.45))
	for _, out := range g.Outputs() {
		g.Task(out).ETEDeadline = d
		if rng.Intn(3) == 0 {
			g.Task(out).ETEDeadline = rtime.Time(float64(d) * (0.3 + 0.7*rng.Float64()))
		}
	}
	return g, est
}

// eachRound replays the rounds of asg, a Distribute result for g, est,
// metric and mode. Before visiting round k it rebuilds the corridors
// the slicer saw then: computeBounds over the windows committed in
// earlier rounds in Consistent mode, the step-1 boundaries plus attach
// of each earlier chain in Faithful mode.
func eachRound(g *taskgraph.Graph, est []rtime.Time, asg *Assignment, metric Metric, mode Mode, visit func(s *slicer, k int)) {
	n := g.NumTasks()
	s := &slicer{
		g: g, mode: mode, est: est, vc: asg.Virtual, n: n, topo: g.TopoOrder(),
		asg: asg, sh: metric.laxityShape(),
		assigned: make([]bool, n),
		ea:       make([]rtime.Time, n),
		ld:       make([]rtime.Time, n),
	}
	if mode == Faithful {
		for i := range s.ea {
			s.ea[i], s.ld[i] = rtime.Unset, rtime.Unset
		}
		for _, in := range g.Inputs() {
			s.ea[in] = g.Task(in).Phase
		}
		for _, out := range g.Outputs() {
			s.ld[out] = g.Task(out).ETEDeadline
		}
	}
	for k, chain := range asg.Chains {
		if mode == Consistent {
			s.computeBounds()
		}
		visit(s, k)
		for _, v := range chain {
			s.assigned[v] = true
		}
		if mode == Faithful {
			s.attach(chain)
		}
	}
}

// eachChain calls visit for every chain of s's unassigned subgraph
// that the slicer may take under its current EA/LD corridors.
func eachChain(s *slicer, visit func(start, end, l int, sum rtime.Time)) {
	var walk func(start, v, l int, sum rtime.Time)
	walk = func(start, v, l int, sum rtime.Time) {
		if s.mode == Consistent || s.ld[v].IsSet() {
			visit(start, v, l, sum)
		}
		for _, u := range s.g.Succs(v) {
			if !s.assigned[u] {
				walk(start, u, l+1, sum+s.vc[u])
			}
		}
	}
	for start := 0; start < s.n; start++ {
		if !s.assigned[start] && (s.mode == Consistent || s.ea[start].IsSet()) {
			walk(start, start, 1, s.vc[start])
		}
	}
}

// bestChain returns the best chain of eachChain under candidate.better.
func bestChain(s *slicer) candidate {
	var best candidate
	eachChain(s, func(start, end, l int, sum rtime.Time) {
		c := candidate{r: s.sh.r(s.ld[end]-s.ea[start], l, sum), nTasks: l, sumC: sum, start: start, end: end, valid: true}
		if best.better(&c) {
			best = c
		}
	})
	return best
}

// checkSelection runs Distribute and requires every round to slice the
// enumerator's best chain: the same start, end, length and R. It
// returns the number of rounds checked.
func checkSelection(t *testing.T, label string, g *taskgraph.Graph, est []rtime.Time, m int, metric Metric, params Params) int {
	t.Helper()
	asg, err := Distribute(g, est, m, metric, params)
	if err != nil {
		t.Fatalf("%s %s %v: %v", label, metric.Name(), params.Mode, err)
	}
	eachRound(g, est, asg, metric, params.Mode, func(s *slicer, k int) {
		want := bestChain(s)
		chain := asg.Chains[k]
		start, end, r := chain[0], chain[len(chain)-1], asg.ChainR[k]
		if r != want.r || start != want.start || end != want.end || len(chain) != want.nTasks {
			t.Fatalf("%s %s %v %+v round %d: slicer chain %v (R %g, window %d), enumerator best %d→%d length %d (R %g, window %d)",
				label, metric.Name(), params.Mode, params, k, chain, r, s.ld[end]-s.ea[start],
				want.start, want.end, want.nTasks, want.r, s.ld[want.end]-s.ea[want.start])
		}
	})
	return len(asg.Chains)
}

// The slicer's chain selection against exhaustive enumeration, every
// round of every metric in both modes under both parameter sets: the
// slicer's chain must be the enumerator's best, with no exception. Half
// the workloads have zero estimates, and some phases lie past a
// deadline, so the corpus includes rounds whose best window is ≤ 0.
func TestChainSelectionMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rounds := 0
	for trial := 0; trial < 2500; trial++ {
		g, est := smallWorkload(rng, trial%2 == 1, 1)
		m := 1 + rng.Intn(4)
		for _, metric := range allMetrics() {
			for _, mode := range []Mode{Consistent, Faithful} {
				for _, params := range paramsForMode(mode) {
					rounds += checkSelection(t, fmt.Sprintf("trial %d", trial), g, est, m, metric, params)
				}
			}
		}
	}
	t.Logf("%d selection rounds", rounds)
}

// exactChain is one chain of a NORM-shaped metric with its R = W/Σĉ − 1
// held exactly; a nil r is R = +Inf, a zero-cost chain.
type exactChain struct {
	r          *big.Rat
	l          int
	sum        rtime.Time
	start, end int
}

// better is candidate.better over exact R; a zero exactChain is empty.
func (c *exactChain) better(b *exactChain) bool {
	switch {
	case c.l == 0:
		return true
	case (b.r == nil) != (c.r == nil):
		return c.r == nil
	case b.r != nil && b.r.Cmp(c.r) != 0:
		return b.r.Cmp(c.r) < 0
	case b.l != c.l:
		return b.l > c.l
	case b.sum != c.sum:
		return b.sum > c.sum
	case b.start != c.start:
		return b.start < c.start
	}
	return b.end < c.end
}

// At times around 2⁴⁰ the products in normChain's keys pass 2⁶³, and
// distinct ratios can round to one float64 R. Every round of both
// NORM-shaped metrics must still slice the chain of exactly least R
// (math/big), ties broken as candidate.better breaks them, and record
// that chain's R.
func TestNormSelectionExactAtLargeTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rounds := 0
	for trial := 0; trial < 400; trial++ {
		g, est := smallWorkload(rng, trial%2 == 1, 1<<40)
		m := 1 + rng.Intn(4)
		for _, metric := range []Metric{NORM(), AdaptN()} {
			for _, mode := range []Mode{Consistent, Faithful} {
				for _, params := range paramsForMode(mode) {
					asg, err := Distribute(g, est, m, metric, params)
					if err != nil {
						t.Fatal(err)
					}
					eachRound(g, est, asg, metric, mode, func(s *slicer, k int) {
						var best exactChain
						eachChain(s, func(start, end, l int, sum rtime.Time) {
							c := exactChain{l: l, sum: sum, start: start, end: end}
							if sum != 0 {
								c.r = new(big.Rat).SetFrac64(int64(s.ld[end]-s.ea[start]-sum), int64(sum))
							}
							if best.better(&c) {
								best = c
							}
						})
						chain := asg.Chains[k]
						start, end := chain[0], chain[len(chain)-1]
						wantR := s.sh.r(s.ld[best.end]-s.ea[best.start], best.l, best.sum)
						if start != best.start || end != best.end || len(chain) != best.l || asg.ChainR[k] != wantR {
							t.Fatalf("trial %d %s %v %+v round %d: slicer chain %v (R %g), exact best %d→%d length %d (R %v)",
								trial, metric.Name(), mode, params, k, chain, asg.ChainR[k], best.start, best.end, best.l, best.r)
						}
						rounds++
					})
				}
			}
		}
	}
	t.Logf("%d rounds", rounds)
}

// perStartChain is a plain per-start chain search, kept as a reference:
// for every eligible start, a DP over (node, length) keeps the largest
// Σĉ (the topo-earliest predecessor on ties), and every reachable (end,
// length) is scored under candidate.better. It finds the least R
// wherever R does not rise with Σĉ: always for the PURE-shaped metrics,
// and for the NORM-shaped ones on windows > 0, which covers Consistent
// mode with positive estimates (a chain of window ≤ 0 there loses to
// the single task at its start; DESIGN.md §5).
func perStartChain(s *slicer) ([]int, float64, bool) {
	depth := s.g.Depth()
	W := depth + 1
	sum := make([]rtime.Time, s.n*W)
	par := make([]int, s.n*W)
	// A cell or node holds the DP of start s when its stamp is s+1; hi
	// is the longest chain into a reached node.
	cell := make([]int32, s.n*W)
	node := make([]int32, s.n)
	hi := make([]int, s.n)
	var best candidate
	var chain []int
	for start := 0; start < s.n; start++ {
		if s.assigned[start] || s.mode == Faithful && !s.ea[start].IsSet() {
			continue
		}
		stamp := int32(start + 1)
		c0 := start*W + 1
		cell[c0], sum[c0], par[c0], node[start], hi[start] = stamp, s.vc[start], -1, stamp, 1
		for _, v := range s.topo {
			if node[v] != stamp || s.assigned[v] {
				continue
			}
			for l := 1; l <= hi[v]; l++ {
				c := v*W + l
				if cell[c] != stamp {
					continue
				}
				if s.mode == Consistent || s.ld[v].IsSet() {
					found := candidate{r: s.sh.r(s.ld[v]-s.ea[start], l, sum[c]), nTasks: l, sumC: sum[c], start: start, end: v, valid: true}
					if best.better(&found) {
						best = found
						chain = make([]int, l)
						for u, k := v, l; k > 0; u, k = par[u*W+k], k-1 {
							chain[k-1] = u
						}
					}
				}
				if l == depth {
					continue
				}
				for _, u := range s.g.Succs(v) {
					if s.assigned[u] {
						continue
					}
					uc := u*W + l + 1
					if tot := sum[c] + s.vc[u]; cell[uc] != stamp || tot > sum[uc] {
						cell[uc], sum[uc], par[uc] = stamp, tot, v
					}
					if node[u] != stamp {
						node[u], hi[u] = stamp, l+1
					} else if l+1 > hi[u] {
						hi[u] = l + 1
					}
				}
			}
		}
	}
	return chain, best.r, best.valid
}

// checkMatchesPerStart requires Distribute on the reused workspace ws
// to give the same whole Assignment as the slicer run with
// perStartChain on a fresh one, for each metric in both modes (or
// Consistent mode alone, with consistentOnly) under both parameter
// sets. It returns the number of assignments compared.
func checkMatchesPerStart(t *testing.T, label string, ws *Workspace, g *taskgraph.Graph, est []rtime.Time, m int, metrics []Metric, consistentOnly bool) int {
	t.Helper()
	compared := 0
	for _, metric := range metrics {
		for _, mode := range []Mode{Consistent, Faithful} {
			if consistentOnly && mode == Faithful {
				continue
			}
			for _, params := range paramsForMode(mode) {
				got, err1 := ws.Distribute(g, est, m, metric, params)
				var want *Assignment
				var s slicer
				err2 := s.init(NewWorkspace(), g, est, m, metric, params)
				if err2 == nil {
					want, err2 = s.run(func() ([]int, float64, bool) { return perStartChain(&s) })
				}
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%s %s %v: slicer err=%v, per-start err=%v", label, metric.Name(), mode, err1, err2)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s %v %+v: slicer and per-start reference differ\nslicer    chains %v R %v\nper-start chains %v R %v",
						label, metric.Name(), mode, params, got.Chains, got.ChainR, want.Chains, want.ChainR)
				}
				compared++
			}
		}
	}
	return compared
}

// Both chain searches against the per-start reference, whole
// Assignments compared, wherever that reference finds the least R:
// smallWorkload's corpus for the PURE-shaped metrics in both modes, and
// for the NORM-shaped ones in Consistent mode with positive estimates;
// then generated 40–240-task graphs with exclusive resources (so ADAPT-R
// departs from ADAPT-L), every metric in both modes.
func TestSelectionMatchesPerStart(t *testing.T) {
	ws := NewWorkspace()
	pure := []Metric{PURE(), AdaptG(), AdaptL(), AdaptR()}
	norm := []Metric{NORM(), AdaptN()}
	compared := 0
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 4000; trial++ {
		zeros := trial%2 == 1
		g, est := smallWorkload(rng, zeros, 1)
		m := 1 + rng.Intn(4)
		label := fmt.Sprintf("small trial %d", trial)
		compared += checkMatchesPerStart(t, label, ws, g, est, m, pure, false)
		if !zeros {
			compared += checkMatchesPerStart(t, label, ws, g, est, m, norm, true)
		}
	}
	for i := 0; i < 60; i++ {
		cfg := gen.Default(2 + i%6)
		cfg.Seed = int64(1000 + i)
		cfg.MinTasks, cfg.MaxTasks = 40, 240
		cfg.MinDepth, cfg.MaxDepth = 8, 8+i%24
		cfg.NumResources, cfg.ResourceProb = 3, 0.2
		cfg.OLR = 0.4 + 0.05*float64(i%20)
		w := gen.MustGenerate(cfg)
		est, err := wcet.Estimates(w.Graph, w.Platform, wcet.AVG)
		if err != nil {
			t.Fatal(err)
		}
		compared += checkMatchesPerStart(t, fmt.Sprintf("generated seed %d", cfg.Seed), ws, w.Graph, est, w.Platform.M(), allMetrics(), false)
	}
	t.Logf("%d assignments compared", compared)
}

// FuzzChainSelection decodes fuzz bytes into a small DAG and checks
// every round of every metric, in both modes under both parameter sets,
// against the enumerator, as TestChainSelectionMatchesExhaustive does.
func FuzzChainSelection(f *testing.F) {
	f.Add([]byte{7, 2, 10, 20, 30, 40, 50, 60, 70, 0xff, 0x0f, 0xa5, 0x3c, 120, 90})
	f.Add([]byte{15, 0, 0, 5, 0, 9, 0, 200, 3, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 3})
	f.Add([]byte{3, 1, 255, 255, 255, 0x07, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, est, m := fuzzWorkload(data)
		for _, metric := range allMetrics() {
			for _, mode := range []Mode{Consistent, Faithful} {
				for _, params := range paramsForMode(mode) {
					checkSelection(t, "fuzz", g, est, m, metric, params)
				}
			}
		}
	})
}

// fuzzWorkload reads a DAG of 1–16 tasks from fuzz bytes, missing bytes
// reading as 0: the task count and m, then per task one byte for its
// cost (with a zero estimate for every seventh value), one for its
// phase and one for an exclusive resource, then one bit per (q, j)
// pair, q < j, for the arc q → j, then the common end-to-end deadline
// (OLR 0.05–1.5) and a byte per output that may tighten its own.
func fuzzWorkload(data []byte) (*taskgraph.Graph, []rtime.Time, int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n, m := 1+next()%16, 1+next()%4
	g := taskgraph.NewGraph(1)
	est := make([]rtime.Time, n)
	var work rtime.Time
	for i := range est {
		c := next()
		wc := rtime.Time(1 + c%40)
		work += wc
		est[i] = wc
		if c%7 == 0 {
			est[i] = 0
		}
		var phase rtime.Time
		if p := next(); p%4 == 0 {
			phase = rtime.Time(p % 30)
		}
		tk := g.MustAddTask("", c1(wc), phase)
		if r := next(); r%3 == 0 {
			tk.Resources = []int{r % 2}
		}
	}
	var bits, left int
	for j := 1; j < n; j++ {
		for q := 0; q < j; q++ {
			if left == 0 {
				bits, left = next(), 8
			}
			if bits&1 == 1 {
				g.MustAddArc(q, j, rtime.Time(q%3))
			}
			bits, left = bits>>1, left-1
		}
	}
	g.MustFreeze()
	d := rtime.Time(float64(work) * (0.05 + 1.45*float64(next())/255))
	for _, out := range g.Outputs() {
		g.Task(out).ETEDeadline = d
		if b := next(); b%3 == 0 {
			g.Task(out).ETEDeadline = rtime.Time(float64(d) * (0.3 + 0.7*float64(b)/255))
		}
	}
	return g, est, m
}
