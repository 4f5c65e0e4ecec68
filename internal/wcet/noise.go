package wcet

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// ErrorKind selects how the *true* execution times of a workload deviate
// from the WCET estimates the deadline-distribution step worked from.
// The paper's robustness claim (§5.3, figures 5–6) is evaluated only by
// swapping the estimation strategy; these models instead perturb reality
// away from the estimates, so the harness can measure how much
// estimation error each metric's assignment tolerates.
type ErrorKind int

const (
	// ErrNone leaves reality exactly at the declared per-class WCETs.
	ErrNone ErrorKind = iota
	// ErrMultiplicative scales every task independently by a factor
	// uniform in [1−level, 1+level] — unbiased symmetric noise.
	ErrMultiplicative
	// ErrClassBias scales every processor class by its own factor
	// uniform in [1−level, 1+level]: a systematically mis-characterized
	// class (e.g. a benchmark run on the wrong silicon revision).
	ErrClassBias
	// ErrHeavyTail leaves most tasks exact but makes a few overrun by a
	// truncated-Pareto factor — the rare-path blowups WCET analysis
	// tends to miss. The overrun probability and severity both grow with
	// level.
	ErrHeavyTail
)

// ErrorKinds lists the perturbing models in presentation order.
var ErrorKinds = []ErrorKind{ErrMultiplicative, ErrClassBias, ErrHeavyTail}

// String implements fmt.Stringer.
func (k ErrorKind) String() string {
	switch k {
	case ErrNone:
		return "none"
	case ErrMultiplicative:
		return "mult"
	case ErrClassBias:
		return "bias"
	case ErrHeavyTail:
		return "tail"
	}
	return fmt.Sprintf("ErrorKind(%d)", int(k))
}

// ErrorModel is one estimation-error scenario: a deviation shape and a
// magnitude. Level 0 is always the identity — every scale factor is
// exactly 1 — for every kind, which anchors the zero-perturbation
// identity property the margin studies rely on.
type ErrorModel struct {
	Kind  ErrorKind
	Level float64
}

// Zero reports whether the model can only produce identity
// perturbations.
func (e ErrorModel) Zero() bool { return e.Kind == ErrNone || e.Level == 0 }

// ParamError is a typed rejection of an error-model parameter, so
// callers can errors.As for configuration mistakes (negative levels,
// NaN/Inf, unknown kinds) instead of silently drawing nonsense
// perturbations.
type ParamError struct {
	// Param is the rejected field, "Kind" or "Level".
	Param string
	// Value is the offending value.
	Value float64
	// Reason says what was expected.
	Reason string
}

// Error implements error.
func (e *ParamError) Error() string {
	return fmt.Sprintf("wcet: error-model %s = %v %s", e.Param, e.Value, e.Reason)
}

// Validate checks the model: the kind must be known and the level a
// finite non-negative magnitude. NaN and Inf are rejected explicitly —
// they pass naive range comparisons and would otherwise propagate into
// every drawn scale factor.
func (e ErrorModel) Validate() error {
	switch e.Kind {
	case ErrNone, ErrMultiplicative, ErrClassBias, ErrHeavyTail:
	default:
		return &ParamError{Param: "Kind", Value: float64(e.Kind), Reason: "is not a known error kind"}
	}
	if math.IsNaN(e.Level) || math.IsInf(e.Level, 0) {
		return &ParamError{Param: "Level", Value: e.Level, Reason: "is not a finite magnitude"}
	}
	if e.Level < 0 {
		return &ParamError{Param: "Level", Value: e.Level, Reason: "is negative"}
	}
	return nil
}

// Perturbation is one concrete draw of truth-vs-estimate scale factors
// for a workload: per-task multiplicative factors and per-class
// multiplicative factors (both 1 when unperturbed). The sim package's
// fault traces carry exactly this shape (Trace.ExecScale / Trace.Slow),
// so a Perturbation injects through the existing executor.
type Perturbation struct {
	// TaskScale[i] multiplies task i's execution time (≥ 0; values
	// below 1 model early completion).
	TaskScale []float64
	// ClassScale[k] multiplies every execution time on class k.
	ClassScale []float64
}

// Zero reports whether the perturbation changes nothing.
func (p Perturbation) Zero() bool {
	for _, s := range p.TaskScale {
		if s != 1 {
			return false
		}
	}
	for _, s := range p.ClassScale {
		if s != 1 {
			return false
		}
	}
	return true
}

// heavyTailCap truncates the Pareto overrun factor so a single unlucky
// draw cannot dominate a whole study cell.
const heavyTailCap = 8.0

// sources recycles Draw's random sources, which no Perturbation retains:
// seeding a reused source is exactly rand.NewSource, without allocating
// its 4.9 KB state.
var sources = sync.Pool{New: func() any { return rand.NewSource(0) }}

// Draw materializes one deterministic perturbation for a workload of n
// tasks over numClasses processor classes. The same (model, n,
// numClasses, seed) always yields the same factors: task draws happen in
// ID order, class draws in class order, so the draw is stable regardless
// of how the caller consumes it.
func (e ErrorModel) Draw(n, numClasses int, seed int64) Perturbation {
	p := Perturbation{
		TaskScale:  make([]float64, n),
		ClassScale: make([]float64, numClasses),
	}
	for i := range p.TaskScale {
		p.TaskScale[i] = 1
	}
	for k := range p.ClassScale {
		p.ClassScale[k] = 1
	}
	if e.Zero() {
		return p
	}
	src := sources.Get().(rand.Source)
	defer sources.Put(src)
	src.Seed(seed)
	rng := rand.New(src)
	level := e.Level
	switch e.Kind {
	case ErrMultiplicative:
		for i := 0; i < n; i++ {
			p.TaskScale[i] = 1 + level*(2*rng.Float64()-1)
		}
	case ErrClassBias:
		for k := 0; k < numClasses; k++ {
			p.ClassScale[k] = 1 + level*(2*rng.Float64()-1)
		}
	case ErrHeavyTail:
		// Overrun probability 0.1·(1+level); severity a Pareto(α=1.5)
		// factor blended in by level, truncated at heavyTailCap.
		prob := 0.1 * (1 + level)
		const alpha = 1.5
		for i := 0; i < n; i++ {
			u := rng.Float64()
			hit := u < prob
			x := math.Pow(1-rng.Float64(), -1/alpha) // Pareto ≥ 1
			if !hit {
				continue
			}
			if x > heavyTailCap {
				x = heavyTailCap
			}
			p.TaskScale[i] = 1 + level*(x-1)
		}
	}
	for i := range p.TaskScale {
		if p.TaskScale[i] < 0 {
			p.TaskScale[i] = 0
		}
	}
	for k := range p.ClassScale {
		if p.ClassScale[k] < 0 {
			p.ClassScale[k] = 0
		}
	}
	return p
}
