package slicing

import (
	"fmt"
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
// from ADAPT-L), and, with zeros set, some estimates of 0.
func smallWorkload(rng *rand.Rand, zeros bool) (*taskgraph.Graph, []rtime.Time) {
	n := 3 + rng.Intn(10)
	g := taskgraph.NewGraph(1)
	est := make([]rtime.Time, n)
	var work rtime.Time
	for i := range est {
		est[i] = rtime.Time(1 + rng.Intn(30))
		work += est[i]
		var phase rtime.Time
		if rng.Intn(5) == 0 {
			phase = rtime.Time(rng.Intn(20))
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

// bestChain enumerates every chain of s's unassigned subgraph under its
// current EA/LD corridors and returns the best under candidate.better:
// the reference findCriticalChain's DP must agree with.
func bestChain(s *slicer) candidate {
	var best candidate
	var walk func(start, v, l int, sum rtime.Time)
	walk = func(start, v, l int, sum rtime.Time) {
		if s.mode == Consistent || s.ld[v].IsSet() {
			c := candidate{
				r:      s.metric.R(s.ld[v]-s.ea[start], l, sum),
				nTasks: l, sumC: sum, start: start, end: v, valid: true,
			}
			if best.better(&c) {
				best = c
			}
		}
		for _, u := range s.g.Succs(v) {
			if !s.assigned[u] {
				walk(start, u, l+1, sum+s.vc[u])
			}
		}
	}
	for start := 0; start < s.n; start++ {
		if s.assigned[start] || (s.mode == Faithful && !s.ea[start].IsSet()) {
			continue
		}
		walk(start, start, 1, s.vc[start])
	}
	return best
}

// The slicer's chain selection against exhaustive enumeration. Each
// round's corridors are rebuilt from the windows the assignment
// committed in earlier rounds (computeBounds in Consistent mode, the
// step-1 boundaries plus attach in Faithful mode), and every chain of
// the unassigned subgraph is scored. The slicer's chain must be the
// enumerator's best (same start, end, length and R) except in two cases,
// both on corridors whose window is ≤ 0, where the round over-constrains
// whichever chain is taken:
//
//   - Consistent mode with some estimate at 0 (only a caller-supplied
//     estimate vector has one): the slicer's R is the minimum, but it may
//     pick a shorter chain of equal R than the length tie-break prefers;
//   - Faithful mode, whose corridors carry no LD propagation, with a
//     NORM-shaped metric: on a window ≤ 0 (a phase past a deadline) the
//     DP's largest-Σĉ chain has the largest R of its (start, end,
//     length), so the slicer may miss the minimum R; its own chain's
//     window is then ≤ 0 as well.
func TestChainSelectionMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rounds, zeroTies, faithfulMisses := 0, 0, 0
	for trial := 0; trial < 2500; trial++ {
		g, est := smallWorkload(rng, trial%2 == 1)
		hasZero := false
		for _, c := range est {
			hasZero = hasZero || c == 0
		}
		m := 1 + rng.Intn(4)
		n := g.NumTasks()
		for _, metric := range allMetrics() {
			norm := metric.(*baseMetric).shape == normShape
			for _, mode := range []Mode{Consistent, Faithful} {
				for _, params := range paramsForMode(mode) {
					asg, err := Distribute(g, est, m, metric, params)
					if err != nil {
						t.Fatalf("trial %d %s %v: %v", trial, metric.Name(), mode, err)
					}
					s := &slicer{
						g: g, metric: metric, mode: mode, est: est, vc: asg.Virtual,
						n: n, topo: g.TopoOrder(), asg: asg,
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
						want := bestChain(s)
						start, end, r := chain[0], chain[len(chain)-1], asg.ChainR[k]
						window := s.ld[end] - s.ea[start]
						bestWindow := s.ld[want.end] - s.ea[want.start]
						switch {
						case r == want.r && start == want.start && end == want.end && len(chain) == want.nTasks:
						case mode == Consistent && hasZero && r == want.r && bestWindow <= 0:
							zeroTies++
						case mode == Faithful && norm && r >= want.r && bestWindow <= 0 && window <= 0:
							faithfulMisses++
						default:
							t.Fatalf("trial %d %s %v %+v round %d: slicer chain %v (R %g, window %d), enumerator best %d→%d length %d (R %g, window %d)",
								trial, metric.Name(), mode, params, k, chain, r, window,
								want.start, want.end, want.nTasks, want.r, bestWindow)
						}
						for _, v := range chain {
							s.assigned[v] = true
						}
						if mode == Faithful {
							s.attach(chain)
						}
						rounds++
					}
				}
			}
		}
	}
	t.Logf("%d selection rounds: %d zero-estimate ties, %d Faithful misses on windows ≤ 0", rounds, zeroTies, faithfulMisses)
}

// perStartMetric hides a metric's shape from the slicer, so a
// PURE-shaped metric takes the per-start search, with its candidate
// store, instead of the multi-source DP.
type perStartMetric struct{ Metric }

// checkPureMatchesPerStart requires every PURE-shaped metric, in both
// modes and under both parameter sets, to give the same whole
// Assignment through the multi-source DP (on the reused workspace ws)
// as through the per-start search (on a fresh one). It returns the
// number of assignments compared.
func checkPureMatchesPerStart(t *testing.T, label string, ws *Workspace, g *taskgraph.Graph, est []rtime.Time, m int) int {
	t.Helper()
	compared := 0
	for _, metric := range []Metric{PURE(), AdaptG(), AdaptL(), AdaptR()} {
		for _, mode := range []Mode{Consistent, Faithful} {
			for _, params := range paramsForMode(mode) {
				got, err1 := ws.Distribute(g, est, m, metric, params)
				want, err2 := Distribute(g, est, m, perStartMetric{metric}, params)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%s %s %v: multi-source err=%v, per-start err=%v", label, metric.Name(), mode, err1, err2)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s %v %+v: multi-source and per-start searches differ\nmulti-source chains %v R %v\nper-start    chains %v R %v",
						label, metric.Name(), mode, params, got.Chains, got.ChainR, want.Chains, want.ChainR)
				}
				compared++
			}
		}
	}
	return compared
}

// The multi-source DP of the PURE-shaped metrics against the per-start
// search it replaces, whole Assignments compared: smallWorkload's
// corpus with and without zero estimates, then generated 40–240-task
// graphs with exclusive resources (so ADAPT-R departs from ADAPT-L).
func TestPureSelectionMatchesPerStart(t *testing.T) {
	ws := NewWorkspace()
	compared := 0
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 4000; trial++ {
		g, est := smallWorkload(rng, trial%2 == 1)
		compared += checkPureMatchesPerStart(t, fmt.Sprintf("small trial %d", trial), ws, g, est, 1+rng.Intn(4))
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
		compared += checkPureMatchesPerStart(t, fmt.Sprintf("generated seed %d", cfg.Seed), ws, w.Graph, est, w.Platform.M())
	}
	t.Logf("%d assignments compared", compared)
}

// FuzzChainSelection decodes fuzz bytes into a small DAG and runs the
// same comparison as TestPureSelectionMatchesPerStart.
func FuzzChainSelection(f *testing.F) {
	f.Add([]byte{7, 2, 10, 20, 30, 40, 50, 60, 70, 0xff, 0x0f, 0xa5, 0x3c, 120, 90})
	f.Add([]byte{15, 0, 0, 5, 0, 9, 0, 200, 3, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 3})
	f.Add([]byte{3, 1, 255, 255, 255, 0x07, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, est, m := fuzzWorkload(data)
		checkPureMatchesPerStart(t, "fuzz", NewWorkspace(), g, est, m)
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
