package slicing

import (
	"math/rand"
	"testing"

	"repro/internal/rtime"
	"repro/internal/taskgraph"
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
