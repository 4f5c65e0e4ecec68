package slicing

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/wcet"
)

// allMetrics is the full metric set the workspace must stay exact for:
// the paper's four plus both extensions (covering both shapes and every
// virtual-cost rule).
func allMetrics() []Metric {
	return append(Metrics(), AdaptR(), AdaptN())
}

func paramsForMode(mode Mode) []Params {
	d := DefaultParams()
	d.Mode = mode
	c := CalibratedParams()
	c.Mode = mode
	return []Params{d, c}
}

// A reused workspace must reproduce the fresh
// Distribute result bit-for-bit across arbitrary workload sequences —
// the zero-alloc cold path may change where working memory lives, never
// the assignment.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	for _, mode := range []Mode{Consistent, Faithful} {
		ws := NewWorkspace()
		rng := rand.New(rand.NewSource(7))
		for seed := 0; seed < 25; seed++ {
			g, est := randomWorkload(rng)
			m := 1 + rng.Intn(8)
			for _, metric := range allMetrics() {
				for _, params := range paramsForMode(mode) {
					want, err1 := Distribute(g, est, m, metric, params)
					got, err2 := ws.Distribute(g, est, m, metric, params)
					if (err1 == nil) != (err2 == nil) {
						t.Fatalf("mode %v seed %d %s: fresh err=%v reuse err=%v",
							mode, seed, metric.Name(), err1, err2)
					}
					if err1 != nil {
						continue
					}
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("mode %v seed %d %s: reused workspace diverged\nfresh: %+v\nreuse: %+v",
							mode, seed, metric.Name(), want, got)
					}
				}
			}
		}
	}
}

// Assignments produced through a workspace must not alias its memory:
// mutating every workspace array after the build must leave the
// assignment untouched.
func TestWorkspaceOutputDoesNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, est := randomWorkload(rng)
	ws := NewWorkspace()
	asg, err := ws.Distribute(g, est, 3, AdaptL(), CalibratedParams())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Distribute(g, est, 3, AdaptL(), CalibratedParams())
	if err != nil {
		t.Fatal(err)
	}
	// Scribble over every workspace slice.
	for i := range ws.ea {
		ws.ea[i], ws.ld[i] = -7, -7
	}
	for i := range ws.bnd {
		ws.bnd[i] = -7
	}
	for i := range ws.costs {
		ws.costs[i] = -7
	}
	if !reflect.DeepEqual(asg, snap) {
		t.Fatal("assignment aliases workspace memory")
	}
}

// The DP stamp counter wraps after 2³² passes. Whatever the workspace
// holds at that point (stamps up to the counter, any table contents),
// the next build must match a fresh one: no stamp from before the wrap
// may read as claimed after it, whether a cell of the multi-source DP
// or a slot of the NORM-shaped metrics' search.
func TestWorkspaceTickWrapMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ws := NewWorkspace()
	for seed := 0; seed < 10; seed++ {
		g, est := randomWorkload(rng)
		for _, metric := range allMetrics() {
			want, err := Distribute(g, est, 3, metric, CalibratedParams())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ws.Distribute(g, est, 3, metric, CalibratedParams()); err != nil {
				t.Fatal(err)
			}
			for i := range ws.cell {
				ws.cell[i], ws.maxC[i] = uint32(i%4), 1<<40
			}
			for i := range ws.stamp {
				ws.stamp[i] = uint32(i % 4)
			}
			for i := range ws.slots {
				ws.slots[i] = slot{key: i128{hi: 1 << 40}, sum: 1 << 40, l: 1, start: int32(i / 2), par: -1, tick: uint32(i % 4)}
			}
			ws.tick = math.MaxUint32
			got, err := ws.Distribute(g, est, 3, metric, CalibratedParams())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d %s: build across the stamp wrap diverged\nfresh: %v\nwrap:  %v",
					seed, metric.Name(), want.Chains, got.Chains)
			}
		}
	}
}

// A fresh-workspace Distribute of a NORM-shaped metric allocates about
// what an ADAPT-L one does: its chain search needs one slot pair per
// task and keeps nothing across rounds. On the 120-task seed-11 graph
// (the one cmd/benchpipe's build/cold-120 plans), NORM and ADAPT-N must
// stay within a few allocations of ADAPT-L.
func TestNormDistributeAllocsMatchPure(t *testing.T) {
	cfg := gen.Default(3)
	cfg.Seed = 11
	cfg.MinTasks, cfg.MaxTasks = 120, 120
	w := gen.MustGenerate(cfg)
	est, err := wcet.Estimates(w.Graph, w.Platform, wcet.AVG)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(metric Metric) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Distribute(w.Graph, est, w.Platform.M(), metric, CalibratedParams()); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs(AdaptL())
	for _, metric := range []Metric{NORM(), AdaptN()} {
		if got := allocs(metric); got > base+8 {
			t.Errorf("fresh %s Distribute: %.0f allocations, ADAPT-L %.0f", metric.Name(), got, base)
		} else {
			t.Logf("fresh %s Distribute: %.0f allocations, ADAPT-L %.0f", metric.Name(), got, base)
		}
	}
}
