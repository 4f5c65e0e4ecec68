package experiment

import (
	"context"
	"fmt"

	"repro/internal/deadline"
	"repro/internal/gen"
	"repro/internal/optsched"
	"repro/internal/pipeline"
	"repro/internal/slicing"
)

// OptGap quantifies how much of the success-ratio shortfall is the
// *dispatcher's* fault versus the *deadline distribution's* fault. For
// each small random workload it distributes deadlines with the given
// metric and then asks three questions:
//
//  1. does the time-driven EDF dispatcher meet every window?
//  2. if not, does ANY non-preemptive schedule meet them (exact
//     branch-and-bound over active schedules)?
//  3. if not even that, the windows themselves are infeasible — the
//     metric, not the scheduler, lost the workload.
//
// The paper evaluates metrics only through the heuristic scheduler;
// this study separates the two error sources, which the NP-completeness
// framing of §1 leaves entangled.
type OptGapResult struct {
	Graphs int
	// DispatchOK counts workloads the heuristic dispatcher schedules.
	DispatchOK int
	// RescuedByExact counts workloads the dispatcher fails but an exact
	// scheduler proves feasible (dispatcher's fault).
	RescuedByExact int
	// WindowsInfeasible counts workloads where no non-preemptive
	// schedule meets the assigned windows (metric's fault).
	WindowsInfeasible int
	// Inconclusive counts exact searches that exhausted their node
	// budget.
	Inconclusive int
}

// String summarizes the result.
func (r OptGapResult) String() string {
	return fmt.Sprintf("dispatch %d/%d, rescued-by-exact %d, windows-infeasible %d, inconclusive %d",
		r.DispatchOK, r.Graphs, r.RescuedByExact, r.WindowsInfeasible, r.Inconclusive)
}

// OptGapConfig parameterizes the study.
type OptGapConfig struct {
	// Metric under test.
	Metric slicing.Metric
	// Params for the metric.
	Params slicing.Params
	// M is the system size.
	M int
	// OLR is the deadline tightness.
	OLR float64
	// Tasks bounds the graph size (small, for the exact search).
	MinTasks, MaxTasks int
	// NumGraphs is the sample size.
	NumGraphs int
	// MasterSeed drives the workloads.
	MasterSeed int64
	// NodeBudget caps each exact search.
	NodeBudget int
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
	// Pipe optionally supplies a shared plan cache and instrumentation
	// recorder for the planning pipeline.
	Pipe pipeline.Shared
}

// optGapOutcome classifies one workload of the study.
type optGapOutcome int

const (
	optGapDispatchOK optGapOutcome = iota
	optGapRescued
	optGapInfeasible
	optGapInconclusive
)

// OptGap runs the study over the panic-isolated worker pool; a
// panicking workload counts as inconclusive for that workload only, and
// the tallies are independent of the worker count.
func OptGap(cfg OptGapConfig) OptGapResult {
	if cfg.NodeBudget <= 0 {
		cfg.NodeBudget = 2_000_000
	}
	outs, errs, _ := runIndexed(cfg.Workers, cfg.NumGraphs, 0, func(ctx context.Context, idx int) (any, error) {
		return optGapOne(ctx, cfg, idx), nil
	})
	res := OptGapResult{Graphs: cfg.NumGraphs}
	for i := range outs {
		o := optGapInconclusive
		if errs[i] == nil {
			o = outs[i].(optGapOutcome)
		}
		switch o {
		case optGapDispatchOK:
			res.DispatchOK++
		case optGapRescued:
			res.RescuedByExact++
		case optGapInfeasible:
			res.WindowsInfeasible++
		default:
			res.Inconclusive++
		}
	}
	return res
}

func optGapOne(ctx context.Context, cfg OptGapConfig, idx int) optGapOutcome {
	gcfg := gen.Default(cfg.M)
	gcfg.Seed = gen.SubSeed(cfg.MasterSeed, idx)
	gcfg.OLR = cfg.OLR
	gcfg.MinTasks, gcfg.MaxTasks = cfg.MinTasks, cfg.MaxTasks
	gcfg.MinDepth, gcfg.MaxDepth = 2, 4
	w, err := workloads.get(gcfg)
	if err != nil {
		return optGapInconclusive
	}
	// Default pipeline hooks: WCET-AVG estimates, time-driven dispatch.
	b := &pipeline.Builder{
		Distributor: deadline.Sliced{Metric: cfg.Metric, Params: cfg.Params},
		Cache:       cfg.Pipe.Cache,
		Recorder:    cfg.Pipe.Recorder,
	}
	plan, err := b.BuildContext(ctx, pipeline.Spec{Graph: w.Graph, Platform: w.Platform})
	if err != nil {
		return optGapInconclusive
	}
	if plan.Verdict.Feasible {
		return optGapDispatchOK
	}
	exact, err := optsched.Schedule(w.Graph, w.Platform, plan.Assignment,
		optsched.Options{NodeBudget: cfg.NodeBudget, StopAtFeasible: true})
	if err != nil {
		return optGapInconclusive
	}
	switch {
	case exact.Schedule != nil && exact.Schedule.Feasible:
		return optGapRescued
	case exact.Optimal:
		return optGapInfeasible
	}
	return optGapInconclusive
}
