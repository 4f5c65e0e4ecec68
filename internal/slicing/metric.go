// Package slicing implements the paper's primary contribution: the
// slicing technique for distributing end-to-end deadlines over the tasks
// of a heterogeneous distributed real-time application under relaxed
// locality constraints (§4), together with the four critical-path
// metrics it is evaluated with (§4.5):
//
//   - PURE  — pure laxity ratio (Di Natale & Stankovic, eq. 4–5)
//   - NORM  — normalized laxity ratio (Di Natale & Stankovic, eq. 2–3)
//   - ADAPT-G — globally adaptive laxity ratio (Jonsson & Shin, eq. 6–7)
//   - ADAPT-L — locally adaptive laxity ratio (this paper, eq. 8)
//
// The algorithm (Figure 1) repeatedly extracts the most critical path —
// the chain of not-yet-assigned tasks minimizing the metric value R —
// and partitions that chain's end-to-end window into non-overlapping
// slices, one per task. Slices of sequential tasks never overlap, which
// eliminates precedence-induced release jitter and decouples the
// scheduling of sequential tasks on different processors (implications
// I1 and I2 of the paper).
package slicing

import (
	"fmt"
	"math"

	"repro/internal/rtime"
	"repro/internal/taskgraph"
)

// Mode selects how the slicer keeps the constraints recorded by the
// attach step (Figure 1, steps 5–12) consistent across rounds.
type Mode int

const (
	// Consistent (the default) derives transitively consistent earliest-
	// arrival / latest-deadline corridors by ASAP/ALAP propagation over
	// the unassigned subgraph each round, and clamps slice boundaries
	// into them. It reduces to the paper's immediate-neighbour rule for
	// tasks adjacent to a spine and additionally keeps multi-spine
	// constraints coherent (see DESIGN.md).
	Consistent Mode = iota
	// Faithful is the literal Figure-1 bookkeeping: only immediate
	// neighbours of a sliced spine receive constraints, chains run
	// between tasks with recorded boundaries, and no corridor clamping
	// is applied. Windows of precedence-related tasks on different
	// spines can contradict each other; such workloads fail scheduling.
	Faithful
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Consistent:
		return "consistent"
	case Faithful:
		return "faithful"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Params holds the tunables of the adaptive metrics. The zero value is
// not useful; start from DefaultParams (the paper's §6 defaults).
type Params struct {
	// CThres is the absolute execution-time threshold c_thres: tasks
	// with estimated WCET at or above it receive a virtual execution
	// time. If zero, the threshold is CThresFactor times the mean
	// estimated WCET.
	CThres rtime.Time
	// CThresFactor scales the mean estimated WCET into c_thres when
	// CThres is zero. The paper uses 1.0.
	CThresFactor float64
	// KG is the global adaptivity factor k_G of ADAPT-G (paper: 1.5).
	KG float64
	// KL is the local adaptivity factor k_L of ADAPT-L (paper: 0.2).
	KL float64
	// KR is the resource-conflict factor of the ADAPT-R extension; zero
	// means "use KL".
	KR float64
	// Mode selects the constraint-bookkeeping variant (see Mode).
	Mode Mode
}

// DefaultParams returns the paper's §6 defaults: c_thres = 1.0·c_mean,
// k_G = 1.5, k_L = 0.2.
func DefaultParams() Params {
	return Params{CThresFactor: 1.0, KG: 1.5, KL: 0.2}
}

// CalibratedParams returns the adaptivity factors calibrated for this
// implementation's scheduler and generator: c_thres = 1.0·c_mean,
// k_G = 0.5, k_L = 0.1. The paper itself notes (§7.1) that no factor
// value is universally best — the published k_G = 1.5 / k_L = 0.2 were
// tuned for the GAST pipeline, and in this reproduction they over-inflate
// virtual execution times, draining the laxity of sub-threshold tasks
// (see EXPERIMENTS.md for the calibration sweep). The experiment harness
// uses these values.
func CalibratedParams() Params {
	return Params{CThresFactor: 1.0, KG: 0.5, KL: 0.1}
}

// threshold resolves the execution-time threshold for the given
// estimates.
func (p Params) threshold(est []rtime.Time) rtime.Time {
	if p.CThres > 0 {
		return p.CThres
	}
	if len(est) == 0 {
		return 0
	}
	var sum float64
	for _, c := range est {
		sum += float64(c)
	}
	return rtime.Time(math.Round(p.CThresFactor * sum / float64(len(est))))
}

// Env is the environment a metric sees when preparing virtual execution
// times: the application, the WCET estimates, and the platform size.
type Env struct {
	G      *taskgraph.Graph
	Est    []rtime.Time // c̄ᵢ, indexed by task ID
	M      int          // number of processors in the system
	Params Params
}

// Metric is a critical-path metric for the slicing technique. A metric
// does two jobs: it ranks candidate chains (R — lower means more
// critical, so the chain is sliced earlier) and it apportions a chain's
// window into per-task relative-deadline shares.
//
// The set of metrics is closed: PURE, NORM, AdaptG, AdaptL, AdaptR,
// AdaptN and Fixed. Each follows one of two shapes (PURE's equal laxity
// shares or NORM's proportional ones), and the slicer's chain searches
// are exact only for those two R rules, so the interface carries an
// unexported method that no type outside this package can implement.
type Metric interface {
	// Name returns the metric's display name (e.g. "ADAPT-L").
	Name() string
	// VirtualCosts returns ĉᵢ for every task. For the non-adaptive
	// metrics this is the estimate itself; the adaptive metrics inflate
	// tasks above the execution-time threshold.
	VirtualCosts(env *Env) []rtime.Time
	// R evaluates the criticalness of a chain with the given end-to-end
	// window length, task count, and total virtual cost.
	R(window rtime.Time, n int, sumC rtime.Time) float64
	// Shares returns each chain task's relative-deadline share given the
	// window and the tasks' virtual costs. Shares may come out negative
	// for over-constrained windows; the slicer clamps them at zero.
	Shares(window rtime.Time, costs []rtime.Time) []float64
	// laxityShape returns the shape of the metric's R and Shares rules.
	laxityShape() shape
}

// shape factors the two laxity-apportioning rules shared by the metrics:
// pureShape gives every task an equal laxity share on top of its cost
// (eq. 4–5); normShape scales each task's cost by a common factor
// (eq. 2–3).
type shape int

const (
	pureShape shape = iota
	normShape
)

func (s shape) r(window rtime.Time, n int, sumC rtime.Time) float64 {
	switch s {
	case pureShape:
		if n == 0 {
			return math.Inf(1)
		}
		return float64(window-sumC) / float64(n)
	case normShape:
		if sumC == 0 {
			return math.Inf(1)
		}
		return float64(window-sumC) / float64(sumC)
	}
	panic("slicing: unknown shape")
}

func (s shape) shares(window rtime.Time, costs []rtime.Time) []float64 {
	return s.sharesInto(make([]float64, len(costs)), window, costs)
}

// sharesInto is shares writing into caller-provided storage (the slicer
// workspace's scratch), len(out) == len(costs).
func (s shape) sharesInto(out []float64, window rtime.Time, costs []rtime.Time) []float64 {
	var sumC rtime.Time
	for _, c := range costs {
		sumC += c
	}
	r := s.r(window, len(costs), sumC)
	for i, c := range costs {
		switch s {
		case pureShape:
			out[i] = float64(c) + r // dᵢ = ĉᵢ + R (eq. 5)
		case normShape:
			out[i] = float64(c) * (1 + r) // dᵢ = ĉᵢ(1 + R) (eq. 3)
		}
	}
	return out
}

// baseMetric implements Metric from a name, a shape, and a virtual-cost
// rule.
type baseMetric struct {
	name    string
	shape   shape
	virtual func(env *Env) []rtime.Time
}

func (m *baseMetric) Name() string                       { return m.name }
func (m *baseMetric) VirtualCosts(env *Env) []rtime.Time { return m.virtual(env) }
func (m *baseMetric) R(w rtime.Time, n int, s rtime.Time) float64 {
	return m.shape.r(w, n, s)
}
func (m *baseMetric) Shares(w rtime.Time, costs []rtime.Time) []float64 {
	return m.shape.shares(w, costs)
}
func (m *baseMetric) laxityShape() shape { return m.shape }

func identityCosts(env *Env) []rtime.Time {
	return append([]rtime.Time(nil), env.Est...)
}

// inflate applies the virtual-execution-time rule (eq. 6 / eq. 8): tasks
// whose estimate reaches the threshold get their cost scaled by
// (1 + surplus(i)); others keep the estimate.
func inflate(env *Env, surplus func(i int) float64) []rtime.Time {
	thres := env.Params.threshold(env.Est)
	out := make([]rtime.Time, len(env.Est))
	for i, c := range env.Est {
		if c < thres {
			out[i] = c
			continue
		}
		v := rtime.Time(math.Round(float64(c) * (1 + surplus(i))))
		if v < c {
			v = c // a negative surplus factor never shrinks a task
		}
		out[i] = v
	}
	return out
}

// PURE returns the pure laxity ratio metric: the overall laxity of a
// chain divided by its task count; every task receives an equal share of
// laxity (eq. 4–5).
func PURE() Metric {
	return &baseMetric{name: "PURE", shape: pureShape, virtual: identityCosts}
}

// NORM returns the normalized laxity ratio metric: the overall laxity of
// a chain divided by the sum of its execution times; laxity is assigned
// in proportion to task execution time (eq. 2–3).
func NORM() Metric {
	return &baseMetric{name: "NORM", shape: normShape, virtual: identityCosts}
}

// AdaptG returns the globally adaptive laxity ratio metric (ADAPT-G):
// PURE over virtual execution times, where tasks above the threshold are
// inflated by k_G·ξ/m with ξ the average task-graph parallelism (eq. 6–7).
func AdaptG() Metric {
	return &baseMetric{
		name:  "ADAPT-G",
		shape: pureShape,
		virtual: func(env *Env) []rtime.Time {
			xi := env.G.AvgParallelism(env.Est)
			f := env.Params.KG * xi / float64(env.M)
			return inflate(env, func(int) float64 { return f })
		},
	}
}

// AdaptL returns the locally adaptive laxity ratio metric (ADAPT-L), the
// paper's contribution: PURE over virtual execution times, where a task
// above the threshold is inflated by k_L·|Ψᵢ|/m with Ψᵢ its parallel set
// (eq. 8), so the surplus adapts to the contention each individual task
// actually faces.
func AdaptL() Metric {
	return &baseMetric{
		name:  "ADAPT-L",
		shape: pureShape,
		virtual: func(env *Env) []rtime.Time {
			return inflate(env, func(i int) float64 {
				return env.Params.KL * float64(env.G.ParallelSetSize(i)) / float64(env.M)
			})
		},
	}
}

// Fixed returns a PURE-shaped metric whose virtual costs are vc,
// indexed by task ID. The ADAPT metrics differ only in the rule that
// computes such a vector, so the slicer runs this one as it runs them.
// VirtualCosts returns a copy of vc, read at each call.
func Fixed(name string, vc []rtime.Time) Metric {
	return &baseMetric{
		name:  name,
		shape: pureShape,
		virtual: func(*Env) []rtime.Time {
			return append([]rtime.Time(nil), vc...)
		},
	}
}

// Metrics returns the paper's four metrics in presentation order.
func Metrics() []Metric {
	return []Metric{PURE(), NORM(), AdaptG(), AdaptL()}
}

// ByName returns the metric with the given name; besides the paper's
// four it resolves the ADAPT-R and ADAPT-N extensions.
func ByName(name string) (Metric, error) {
	for _, m := range append(Metrics(), AdaptR(), AdaptN()) {
		if m.Name() == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("slicing: unknown metric %q", name)
}
