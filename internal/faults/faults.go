// Package faults models run-time deviations from the platform
// assumptions the deadline-assignment step bakes into its windows: WCET
// overruns (a task executes longer than its declared worst case),
// processor degradation (a class slows down, or a processor drops out
// mid-run), and bus jitter (a message occupies the interconnect for
// longer than the nominal per-item delay).
//
// The paper's robustness claim for ADAPT-L is that its contention-aware
// windows leave slack where contention actually bites, so assignments
// should degrade gracefully when reality is worse than the model. This
// package provides the fault side of that experiment: a Plan describes
// a fault *distribution*; Materialize draws one concrete, fully
// deterministic Trace for a workload from a seeded generator. The sim
// package executes schedules under a Trace and reports degradation.
//
// All randomness flows through a single *rand.Rand seeded from
// Plan.Seed — there is no package-global generator — so a given
// (Plan, workload) pair always yields byte-identical fault traces
// across runs and platforms.
package faults

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/rtime"
	"repro/internal/taskgraph"
)

// Plan is a fault distribution: the probabilities and severities from
// which one concrete Trace is drawn per workload. The zero value is the
// fault-free plan.
type Plan struct {
	// Seed drives all randomness of one materialization.
	Seed int64

	// OverrunProb is the per-task probability of a WCET overrun.
	OverrunProb float64
	// OverrunFactor bounds the multiplicative severity of an overrun:
	// an overrunning task executes for up to (1+OverrunFactor)·WCET,
	// uniformly drawn.
	OverrunFactor float64
	// OverrunAdd is an additive severity applied to every overrunning
	// task on top of the multiplicative draw (0 for none).
	OverrunAdd rtime.Time

	// SlowProb is the per-class probability that a whole processor
	// class degrades (e.g. thermal throttling).
	SlowProb float64
	// SlowFactor is the slowdown severity: a degraded class executes
	// everything (1+SlowFactor)× slower.
	SlowFactor float64

	// FailProb is the probability that one processor (uniformly chosen)
	// drops out of the system.
	FailProb float64
	// FailFrac places the failure instant as a fraction of the
	// workload's end-to-end horizon (see Materialize's span argument).
	FailFrac float64

	// JitterProb is the per-message probability of bus jitter.
	JitterProb float64
	// JitterMax bounds the extra delay of a jittered message, uniform
	// in [1, JitterMax] time units.
	JitterMax rtime.Time
}

// Zero reports whether the plan can only ever produce fault-free
// traces.
func (p Plan) Zero() bool {
	return p.OverrunProb <= 0 && p.SlowProb <= 0 && p.FailProb <= 0 && p.JitterProb <= 0
}

// Validate checks the plan for consistency. Violations are reported as
// *ParamError values naming the rejected field; NaN and Inf are rejected
// explicitly rather than slipping past range comparisons.
func (p Plan) Validate() error {
	for _, c := range []struct {
		name string
		v    float64
		prob bool
	}{
		{"OverrunProb", p.OverrunProb, true},
		{"OverrunFactor", p.OverrunFactor, false},
		{"SlowProb", p.SlowProb, true},
		{"SlowFactor", p.SlowFactor, false},
		{"FailProb", p.FailProb, true},
		{"FailFrac", p.FailFrac, true},
		{"JitterProb", p.JitterProb, true},
	} {
		var err *ParamError
		if c.prob {
			err = checkProb(c.name, c.v)
		} else {
			err = checkFactor(c.name, c.v)
		}
		if err != nil {
			return err
		}
	}
	switch {
	case p.OverrunAdd < 0:
		return &ParamError{Param: "OverrunAdd", Value: float64(p.OverrunAdd), Reason: "is negative"}
	case p.JitterMax < 0:
		return &ParamError{Param: "JitterMax", Value: float64(p.JitterMax), Reason: "is negative"}
	case p.JitterProb > 0 && p.JitterMax < 1:
		return &ParamError{Param: "JitterMax", Value: float64(p.JitterMax),
			Reason: fmt.Sprintf("cannot host jitter with JitterProb %v", p.JitterProb)}
	}
	return nil
}

// Scaled returns the canonical one-knob fault family used for the
// graceful-degradation curves: every probability and severity grows
// linearly with intensity ∈ [0, 1]. Intensity 0 is the fault-free plan;
// intensity 1 combines frequent overruns (30 % of tasks up to 50 %
// over), likely class slowdown (25 % slower), a probable mid-run
// processor loss, and jittery messages.
func Scaled(intensity float64, seed int64) Plan {
	if intensity < 0 {
		intensity = 0
	}
	if intensity > 1 {
		intensity = 1
	}
	return Plan{
		Seed:          seed,
		OverrunProb:   0.30 * intensity,
		OverrunFactor: 0.50 * intensity,
		SlowProb:      0.20 * intensity,
		SlowFactor:    0.25 * intensity,
		FailProb:      0.25 * intensity,
		FailFrac:      0.40,
		JitterProb:    0.50 * intensity,
		JitterMax:     rtime.Time(math.Ceil(4 * intensity)),
	}
}

// Trace is one concrete materialized fault scenario for one workload:
// everything the injected execution needs, with no randomness left.
type Trace struct {
	// ExecScale[i] multiplies task i's execution time on whatever class
	// it lands on: exactly 1 for a task that runs its nominal time,
	// above 1 for an overrun. A scale below 1 models early completion,
	// which the paper's reading of cᵢ as an upper bound (§3.2) allows.
	ExecScale []float64
	// ExecAdd[i] is extra absolute execution time for task i.
	ExecAdd []rtime.Time
	// Slow[q] multiplies every execution time on processor q (≥ 1).
	Slow []float64
	// DownAt[q] is the instant processor q fails (rtime.Infinity when
	// it never does). A failing processor aborts whatever it is running
	// at that instant; the aborted work is lost.
	DownAt []rtime.Time
	// MsgExtra maps an arc (from, to) to extra bus delay for its
	// message, on top of the platform's nominal cost.
	MsgExtra map[[2]int]rtime.Time
}

// Zero reports whether the trace perturbs nothing, i.e. injected
// execution under it is exactly nominal execution.
func (t *Trace) Zero() bool {
	for _, s := range t.ExecScale {
		if s != 1 {
			return false
		}
	}
	for _, a := range t.ExecAdd {
		if a != 0 {
			return false
		}
	}
	for _, s := range t.Slow {
		if s != 1 {
			return false
		}
	}
	for _, d := range t.DownAt {
		if d < rtime.Infinity {
			return false
		}
	}
	return len(t.MsgExtra) == 0
}

// ZeroTrace returns the fault-free trace for a workload of n tasks on m
// processors.
func ZeroTrace(n, m int) *Trace {
	t := &Trace{
		ExecScale: make([]float64, n),
		ExecAdd:   make([]rtime.Time, n),
		Slow:      make([]float64, m),
		DownAt:    make([]rtime.Time, m),
		MsgExtra:  map[[2]int]rtime.Time{},
	}
	for i := range t.ExecScale {
		t.ExecScale[i] = 1
	}
	for q := range t.Slow {
		t.Slow[q] = 1
		t.DownAt[q] = rtime.Infinity
	}
	return t
}

// Tile returns the trace of a release-expanded system: k release-major
// copies of an n-task base graph (gen.ExpandReleases), where the copy
// of task i in release k sits at k·n+i. Per-task deviations repeat for
// every release — an overrun or estimation error is a property of the
// task, so every instance of it misbehaves the same way — while the
// per-processor state (slow-downs, failure instants) is shared by all
// releases, and a message jitter applies to the corresponding arc of
// every copy. The receiver must be sized for n tasks.
func (t *Trace) Tile(n, k int) *Trace {
	if len(t.ExecScale) != n {
		panic("faults: Tile receiver not sized for the base graph")
	}
	out := &Trace{
		ExecScale: make([]float64, 0, n*k),
		ExecAdd:   make([]rtime.Time, 0, n*k),
		Slow:      append([]float64(nil), t.Slow...),
		DownAt:    append([]rtime.Time(nil), t.DownAt...),
		MsgExtra:  make(map[[2]int]rtime.Time, len(t.MsgExtra)*k),
	}
	for c := 0; c < k; c++ {
		out.ExecScale = append(out.ExecScale, t.ExecScale...)
		out.ExecAdd = append(out.ExecAdd, t.ExecAdd...)
		for arc, extra := range t.MsgExtra {
			out.MsgExtra[[2]int{c*n + arc[0], c*n + arc[1]}] = extra
		}
	}
	return out
}

// Exec returns the faulted execution time of task i running a nominal
// wcet on processor q: scale, slow-down, then the additive term, never
// below one unit (or below zero for a zero-length nominal).
func (t *Trace) Exec(i, q int, wcet rtime.Time) rtime.Time {
	if wcet <= 0 {
		return wcet
	}
	c := rtime.Time(math.Ceil(t.ExecScale[i] * t.Slow[q] * float64(wcet)))
	c += t.ExecAdd[i]
	if c < 1 {
		c = 1
	}
	return c
}

// ExtraMsg returns the extra bus delay of the (from, to) message.
func (t *Trace) ExtraMsg(from, to int) rtime.Time {
	return t.MsgExtra[[2]int{from, to}]
}

// Project restricts the trace to a subgraph: new2old maps the reduced
// graph's task IDs to the original ones the trace was materialized for.
// Per-task perturbations follow the surviving tasks, per-processor state
// (slowdowns, failure instants) is platform-wide and carries over
// unchanged, and message jitter survives for arcs whose both endpoints
// are kept. The graceful-degradation machinery uses this so that every
// operating mode of a workload faces the *same* fault scenario — paired
// comparison across degradation levels.
func (t *Trace) Project(new2old []int) *Trace {
	out := &Trace{
		ExecScale: make([]float64, len(new2old)),
		ExecAdd:   make([]rtime.Time, len(new2old)),
		Slow:      append([]float64(nil), t.Slow...),
		DownAt:    append([]rtime.Time(nil), t.DownAt...),
		MsgExtra:  map[[2]int]rtime.Time{},
	}
	old2new := map[int]int{}
	for ni, oi := range new2old {
		out.ExecScale[ni] = t.ExecScale[oi]
		out.ExecAdd[ni] = t.ExecAdd[oi]
		old2new[oi] = ni
	}
	for arc, extra := range t.MsgExtra {
		nf, okF := old2new[arc[0]]
		nt, okT := old2new[arc[1]]
		if okF && okT {
			out.MsgExtra[[2]int{nf, nt}] = extra
		}
	}
	return out
}

// Materialize draws one concrete fault trace for the given workload.
// span is the end-to-end horizon the failure instant is placed within
// (typically the workload's end-to-end deadline, which is independent
// of the metric under evaluation, so that every metric faces the exact
// same fault scenario — paired comparisons). The draw order is fixed:
// per-task overruns in ID order, per-class slowdowns, the processor
// loss, then per-arc jitter in arc order.
func (p Plan) Materialize(g *taskgraph.Graph, plat *arch.Platform, span rtime.Time) (*Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	n, m := g.NumTasks(), plat.M()
	t := ZeroTrace(n, m)

	for i := 0; i < n; i++ {
		if p.OverrunProb > 0 && rng.Float64() < p.OverrunProb {
			t.ExecScale[i] = 1 + p.OverrunFactor*rng.Float64()
			t.ExecAdd[i] = p.OverrunAdd
		}
	}
	if p.SlowProb > 0 {
		for k := 0; k < plat.NumClasses(); k++ {
			if rng.Float64() >= p.SlowProb {
				continue
			}
			for q := 0; q < m; q++ {
				if plat.ClassOf(q) == k {
					t.Slow[q] = 1 + p.SlowFactor
				}
			}
		}
	}
	if p.FailProb > 0 && rng.Float64() < p.FailProb {
		q := rng.Intn(m)
		at := rtime.Time(math.Round(p.FailFrac * float64(span)))
		if at < 1 {
			at = 1
		}
		t.DownAt[q] = at
	}
	if p.JitterProb > 0 && p.JitterMax >= 1 {
		for _, a := range g.Arcs() {
			if a.Items <= 0 {
				continue
			}
			if rng.Float64() < p.JitterProb {
				t.MsgExtra[[2]int{a.From, a.To}] = 1 + rtime.Time(rng.Int63n(int64(p.JitterMax)))
			}
		}
	}
	return t, nil
}

// MustMaterialize is Materialize that panics on error; plan errors are
// programming errors in experiment setup.
func (p Plan) MustMaterialize(g *taskgraph.Graph, plat *arch.Platform, span rtime.Time) *Trace {
	t, err := p.Materialize(g, plat, span)
	if err != nil {
		panic(err)
	}
	return t
}
