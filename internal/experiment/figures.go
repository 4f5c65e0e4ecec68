package experiment

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/slicing"
	"repro/internal/wcet"
)

// Options configures a whole figure regeneration.
type Options struct {
	// NumGraphs is the per-point sample size (paper: 1024).
	NumGraphs int
	// MasterSeed seeds all workloads.
	MasterSeed int64
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
	// Params overrides the adaptive parameters; zero value means the
	// paper's defaults.
	Params slicing.Params
}

// DefaultOLR is the deadline-tightness operating point of the
// reproduction. The paper runs its default scenario at OLR = 0.8; in
// this implementation the same qualitative regime — failures driven by
// deadline-distribution quality rather than by raw capacity, with the
// paper's metric ordering ADAPT-L > ADAPT-G > NORM > PURE — sits at
// OLR ≈ 0.55 (the pipeline here loses less capacity to dispatch
// artifacts, so deadlines must be proportionally tighter to exercise
// the metrics; see EXPERIMENTS.md).
const DefaultOLR = 0.55

// DefaultOptions uses the paper's 1024 graphs per point and the
// calibrated adaptivity factors.
func DefaultOptions() Options {
	return Options{NumGraphs: 1024, MasterSeed: 19990412, Params: slicing.CalibratedParams()}
}

func (o Options) params() slicing.Params {
	if o.Params == (slicing.Params{}) {
		return slicing.CalibratedParams()
	}
	return o.Params
}

// point evaluates one (generator, metric, strategy) cell.
func (o Options) point(g gen.Config, m slicing.Metric, s wcet.Strategy) Point {
	return Run(Config{
		Gen:        g,
		Metric:     m,
		Params:     o.params(),
		WCET:       s,
		NumGraphs:  o.NumGraphs,
		MasterSeed: o.MasterSeed,
		Workers:    o.Workers,
	})
}

// fill gives t one series per label with one point per x-value, point
// x of series s being cell(s, x). It walks the x-values outside and the
// series inside. Every series of one x-value draws the same sample
// (the same generator configuration under the same seeds), so the
// series after the first find it resident in the workload memo
// whenever one point's sample fits within the memo's bound.
func fill(t *Table, labels []string, cell func(s, x int) Point) {
	t.Series = make([]Series, len(labels))
	for s, label := range labels {
		t.Series[s] = Series{Name: label, Points: make([]Point, len(t.XValues))}
	}
	for x := range t.XValues {
		for s := range t.Series {
			t.Series[s].Points[x] = cell(s, x)
		}
	}
}

// names labels each of xs with name.
func names[T any](xs []T, name func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = name(x)
	}
	return out
}

// Fig2 regenerates Figure 2: success ratio as a function of system size
// (m = 2..8) for PURE, NORM, ADAPT-G, and ADAPT-L at ETD = 25 %,
// OLR = DefaultOLR, WCET-AVG.
func Fig2(o Options) Table {
	t := Table{
		Title:  "Figure 2: success ratio vs. system size (ETD=25%, OLR=0.55)",
		XLabel: "processors",
	}
	sizes := []int{2, 3, 4, 5, 6, 7, 8}
	for _, m := range sizes {
		t.XValues = append(t.XValues, fmt.Sprintf("%d", m))
	}
	metrics := slicing.Metrics()
	fill(&t, names(metrics, slicing.Metric.Name), func(s, x int) Point {
		g := gen.Default(sizes[x])
		g.OLR = DefaultOLR
		return o.point(g, metrics[s], wcet.AVG)
	})
	return t
}

// OLRSweep is the deadline-tightness axis used by Figures 3 and 5. The
// paper plots "tight" to "loose"; in this implementation's regime the
// transition from near-0 to near-100 % success at m = 3 spans the
// overall laxity ratios 0.40–0.70 (see DefaultOLR).
var OLRSweep = []float64{0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70}

// Fig3 regenerates Figure 3: success ratio as a function of OLR for the
// four metrics on a three-processor system (ETD = 25 %, WCET-AVG).
func Fig3(o Options) Table {
	t := Table{
		Title:  "Figure 3: success ratio vs. OLR (m=3, ETD=25%)",
		XLabel: "OLR",
	}
	for _, olr := range OLRSweep {
		t.XValues = append(t.XValues, fmt.Sprintf("%.2f", olr))
	}
	metrics := slicing.Metrics()
	fill(&t, names(metrics, slicing.Metric.Name), func(s, x int) Point {
		g := gen.Default(3)
		g.OLR = OLRSweep[x]
		return o.point(g, metrics[s], wcet.AVG)
	})
	return t
}

// ETDSweep is the execution-time-distribution axis of Figures 4 and 6:
// 0 % to 100 % in steps of 25 % (§6.3).
var ETDSweep = []float64{0, 0.25, 0.5, 0.75, 1.0}

// Fig4 regenerates Figure 4: success ratio as a function of ETD for the
// four metrics on a three-processor system (OLR = DefaultOLR, WCET-AVG).
func Fig4(o Options) Table {
	t := Table{
		Title:  "Figure 4: success ratio vs. ETD (m=3, OLR=0.55)",
		XLabel: "ETD",
	}
	for _, etd := range ETDSweep {
		t.XValues = append(t.XValues, fmt.Sprintf("%.0f%%", etd*100))
	}
	metrics := slicing.Metrics()
	fill(&t, names(metrics, slicing.Metric.Name), func(s, x int) Point {
		g := gen.Default(3)
		g.OLR = DefaultOLR
		g.ETD = ETDSweep[x]
		return o.point(g, metrics[s], wcet.AVG)
	})
	return t
}

// Fig5 regenerates Figure 5: success ratio for ADAPT-L as a function of
// OLR under the three WCET estimation strategies (m = 3, ETD = 25 %).
func Fig5(o Options) Table {
	t := Table{
		Title:  "Figure 5: ADAPT-L success ratio vs. OLR per WCET strategy (m=3, ETD=25%)",
		XLabel: "OLR",
	}
	for _, olr := range OLRSweep {
		t.XValues = append(t.XValues, fmt.Sprintf("%.2f", olr))
	}
	metric := slicing.AdaptL()
	fill(&t, names(wcet.Strategies, wcet.Strategy.String), func(s, x int) Point {
		g := gen.Default(3)
		g.OLR = OLRSweep[x]
		return o.point(g, metric, wcet.Strategies[s])
	})
	return t
}

// Fig6 regenerates Figure 6: success ratio for ADAPT-L as a function of
// ETD under the three WCET estimation strategies (m = 3, OLR = DefaultOLR).
func Fig6(o Options) Table {
	t := Table{
		Title:  "Figure 6: ADAPT-L success ratio vs. ETD per WCET strategy (m=3, OLR=0.55)",
		XLabel: "ETD",
	}
	for _, etd := range ETDSweep {
		t.XValues = append(t.XValues, fmt.Sprintf("%.0f%%", etd*100))
	}
	metric := slicing.AdaptL()
	fill(&t, names(wcet.Strategies, wcet.Strategy.String), func(s, x int) Point {
		g := gen.Default(3)
		g.OLR = DefaultOLR
		g.ETD = ETDSweep[x]
		return o.point(g, metric, wcet.Strategies[s])
	})
	return t
}

// Figures maps figure numbers to their regenerators.
var Figures = map[int]func(Options) Table{
	2: Fig2, 3: Fig3, 4: Fig4, 5: Fig5, 6: Fig6,
}
