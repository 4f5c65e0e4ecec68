// Package experiment is the evaluation harness that regenerates the
// paper's figures: it fans workloads out over a worker pool, runs the
// slice→schedule pipeline on each, and aggregates success ratios and the
// secondary quality measures (§4.2).
//
// The harness plays the role of the GAST framework [19] the paper used:
// deterministic workload generation, a parameter sweep per figure, and
// per-cell aggregation. Each data point evaluates Config.NumGraphs
// independent workloads; workload i of a point derives its seed from the
// master seed with gen.SubSeed, so every metric and strategy sees the
// *same* workload sample — paired comparisons, as in the paper. Each
// sample workload is generated once per process and shared read-only
// by every cell that draws it (workloads.go).
package experiment

import (
	"context"
	"fmt"

	"repro/internal/deadline"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/slicing"
	"repro/internal/stats"
	"repro/internal/wcet"
)

// Config describes one data point: a workload distribution and a
// pipeline configuration to evaluate on it.
type Config struct {
	// Gen is the workload generator configuration (Gen.Seed is ignored;
	// per-graph seeds derive from MasterSeed).
	Gen gen.Config
	// Metric is the critical-path metric under evaluation.
	Metric slicing.Metric
	// Params are the adaptive-metric parameters (§6 defaults normally).
	Params slicing.Params
	// WCET is the estimation strategy (§5.3).
	WCET wcet.Strategy
	// NumGraphs is the sample size per point (paper: 1024).
	NumGraphs int
	// MasterSeed makes the whole experiment reproducible.
	MasterSeed int64
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// Dispatcher schedules the assigned windows; the zero value is the
	// paper's time-driven dispatcher (pipeline.TimeDriven).
	Dispatcher pipeline.Dispatcher
	// Classify additionally runs the feas necessary-condition check on
	// every assignment, filling Point.ProvablyInfeasible. It roughly
	// doubles the per-workload cost (O(n²) boundary intervals), so it is
	// off by default.
	Classify bool
	// Pipe optionally supplies a shared plan cache and instrumentation
	// recorder for the planning pipeline; the zero value plans uncached
	// and unrecorded.
	Pipe pipeline.Shared
	// Release selects the release model the planned system is judged
	// under. The zero value (ReleaseSingle) keeps the classic one-shot
	// evaluation. With ReleaseSporadic, each workload's plan is
	// additionally expanded over a seeded sporadic release sequence
	// (sim.ExpandPlan), dispatched by Dispatcher, and counts as a
	// success only when every release of every task meets its shifted
	// deadline; lateness and laxity still report the base plan, so the
	// secondary measures stay comparable across release models. The
	// release sequence of workload i derives from MasterSeed, so paired
	// comparison across metrics is preserved.
	Release gen.Release
}

// builder assembles the pipeline configuration this point plans with.
func (cfg Config) builder() *pipeline.Builder {
	b := &pipeline.Builder{
		Estimator:   pipeline.StrategyEstimator(cfg.WCET),
		Distributor: deadline.Sliced{Metric: cfg.Metric, Params: cfg.Params},
		Dispatcher:  cfg.Dispatcher,
		Cache:       cfg.Pipe.Cache,
		Recorder:    cfg.Pipe.Recorder,
	}
	if cfg.Classify {
		b.Verifier = pipeline.FeasVerifier()
	}
	return b
}

// Point aggregates one data point.
type Point struct {
	// Success counts workloads whose schedule met every assigned
	// deadline — the paper's success ratio.
	Success stats.Ratio
	// OverConstrained counts workloads where slicing produced an empty
	// window (guaranteed failures).
	OverConstrained int
	// ProvablyInfeasible counts workloads whose assignment fails a
	// necessary feasibility condition (filled only when Config.Classify
	// is set); these failures are the metric's fault, not the
	// scheduler's.
	ProvablyInfeasible int
	// Lateness accumulates the maximum task lateness of each schedule
	// (§4.2's secondary measure; negative values are margin).
	Lateness stats.Running
	// MinLaxity accumulates the minimum task laxity of each assignment.
	MinLaxity stats.Running
	// Errors counts pipeline failures (generator or slicer errors);
	// always 0 in a healthy configuration.
	Errors int
}

// Run evaluates one data point. Workloads fan out over the
// panic-isolated worker pool and their outcomes fold in index order, so
// the point is byte-identical for every worker count; a workload that
// panics counts as an error for that workload only.
func Run(cfg Config) Point {
	outs, errs, _ := runIndexed(cfg.Workers, cfg.NumGraphs, 0, func(ctx context.Context, idx int) (any, error) {
		return runOne(ctx, cfg, idx)
	})
	var point Point
	for i := range outs {
		if errs[i] != nil {
			point.Errors++
			continue
		}
		o := outs[i].(runOutcome)
		point.Success.Add(o.feasible)
		if o.overConstrained {
			point.OverConstrained++
		}
		if o.provablyInfeasible {
			point.ProvablyInfeasible++
		}
		point.Lateness.Add(o.maxLateness)
		point.MinLaxity.Add(o.minLaxity)
	}
	return point
}

// runOutcome is the per-workload result Run folds.
type runOutcome struct {
	feasible           bool
	overConstrained    bool
	provablyInfeasible bool
	maxLateness        float64
	minLaxity          float64
}

// runOne generates workload idx and runs the planning pipeline on it.
func runOne(ctx context.Context, cfg Config, idx int) (runOutcome, error) {
	var o runOutcome
	gcfg := cfg.Gen
	gcfg.Seed = gen.SubSeed(cfg.MasterSeed, idx)
	w, err := workloads.get(gcfg)
	if err != nil {
		return o, err
	}
	plan, err := cfg.builder().BuildContext(ctx, pipeline.Spec{Graph: w.Graph, Platform: w.Platform})
	if err != nil {
		return o, err
	}
	o.feasible = plan.Verdict.Feasible
	o.overConstrained = plan.Verdict.OverConstrained
	o.provablyInfeasible = plan.Verdict.ProvablyInfeasible
	o.maxLateness = float64(plan.Verdict.MaxLateness)
	o.minLaxity = float64(plan.Verdict.MinLaxity)
	if cfg.Release.Mode == gen.ReleaseSporadic && o.feasible {
		// A plan that survives one release must also survive the
		// recurring workload: dispatch the seeded release sequence with
		// the point's own dispatcher and demote the success when any
		// release misses. The base verdict's lateness/laxity are kept —
		// they grade the plan, not the draw.
		eg, easg, _, err := sim.ExpandPlan(w.Graph, plan.Assignment, cfg.Release, gcfg.Seed)
		if err != nil {
			return o, err
		}
		disp := cfg.Dispatcher
		if disp.Run == nil {
			disp = pipeline.TimeDriven()
		}
		s, err := disp.Run(eg, w.Platform, easg, nil)
		if err != nil {
			return o, err
		}
		o.feasible = s.Feasible
	}
	return o, nil
}

// Series is one labelled line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Table is the harness rendering of one paper figure: a sweep on the X
// axis with one series per configuration.
type Table struct {
	Title   string
	XLabel  string
	XValues []string
	Series  []Series
}

// SuccessRow returns the success ratios of one series as floats.
func (t *Table) SuccessRow(series int) []float64 {
	out := make([]float64, len(t.Series[series].Points))
	for i, p := range t.Series[series].Points {
		out[i] = p.Success.Value()
	}
	return out
}

// SeriesByName returns the index of the named series, or an error.
func (t *Table) SeriesByName(name string) (int, error) {
	for i, s := range t.Series {
		if s.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("experiment: no series %q in table %q", name, t.Title)
}
