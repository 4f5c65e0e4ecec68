package experiment

import (
	"context"
	"time"

	"repro/internal/deadline"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/robust"
	"repro/internal/sim"
	"repro/internal/slicing"
	"repro/internal/stats"
	"repro/internal/wcet"
)

// MarginConfig describes one robustness-margin data point: a workload
// distribution, a metric, and either an estimation-error model
// (MarginRun) or a breakdown-factor search (BreakdownRun) to evaluate
// the resulting assignments under.
type MarginConfig struct {
	// Gen is the workload generator configuration (Gen.Seed is ignored;
	// per-graph seeds derive from MasterSeed).
	Gen gen.Config
	// Metric is the critical-path metric under evaluation.
	Metric slicing.Metric
	// Params are the adaptive-metric parameters.
	Params slicing.Params
	// WCET is the estimation strategy the assignments are derived from.
	WCET wcet.Strategy
	// NumGraphs is the sample size per point.
	NumGraphs int
	// MasterSeed makes the study reproducible. Workload idx draws its
	// graph from SubSeed(MasterSeed, idx) and its perturbation from
	// SubSeed(MasterSeed+2, idx) — the perturbation seed does not depend
	// on the metric, so every metric faces the identical estimation
	// error (paired comparison, as everywhere in the harness).
	MasterSeed int64
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// Model is the estimation-error scenario MarginRun executes under;
	// the zero model reproduces nominal execution exactly.
	Model wcet.ErrorModel
	// Reclaim runs the online slack-reclamation policy during injected
	// executions.
	Reclaim bool
	// Reslice, when MaxRetries > 0, runs the adaptive re-slicing
	// feedback loop on every workload whose perturbed run misses a
	// deadline, reporting recovery alongside the plain degradation.
	Reslice robust.ResliceOptions
	// Breakdown bounds BreakdownRun's critical-factor search.
	Breakdown robust.BreakdownOptions
	// Timeout is the per-workload wall-clock budget (0 = none); a
	// workload over budget is abandoned and counted in Point.Timeouts.
	Timeout time.Duration
	// Pipe optionally supplies a shared plan cache and instrumentation
	// recorder for the planning pipeline. A shared cache lets the
	// re-slicing loop's first round and the breakdown bisection's probes
	// reuse the nominal plan instead of re-planning it.
	Pipe pipeline.Shared
	// Release selects the release model the perturbed executions run
	// under. The zero value (ReleaseSingle) injects into one release of
	// the plan, as before. With ReleaseSporadic, the plan is expanded
	// over a seeded sporadic release sequence (sim.ExpandSystem) and the
	// estimation-error trace is tiled over every release (faults.Tile),
	// so a margin point grades the recurring workload. The re-slicing
	// feedback loop is single-shot recovery machinery and is skipped on
	// sporadic points. BreakdownRun ignores this field.
	Release gen.Release
}

// builder assembles the pipeline configuration this point plans with.
func (cfg MarginConfig) builder() *pipeline.Builder {
	return &pipeline.Builder{
		Estimator:   pipeline.StrategyEstimator(cfg.WCET),
		Distributor: deadline.Sliced{Metric: cfg.Metric, Params: cfg.Params},
		Cache:       cfg.Pipe.Cache,
		Recorder:    cfg.Pipe.Recorder,
	}
}

// MarginPoint aggregates one estimation-error data point.
type MarginPoint struct {
	// Success counts runs that met every originally assigned deadline
	// under the perturbed truth. At a zero error model it equals the
	// nominal time-driven success ratio for the same (metric, seed).
	Success stats.Ratio
	// MissRatio accumulates the per-run task deadline-miss ratio.
	MissRatio stats.Running
	// ETEMissRatio accumulates the per-run end-to-end (output-task)
	// miss ratio.
	ETEMissRatio stats.Running
	// Recovered counts, over the runs that missed a deadline, those the
	// adaptive re-slicing loop brought back to a clean run (tracked only
	// when Reslice.MaxRetries > 0).
	Recovered stats.Ratio
	// ResliceIters accumulates the feedback iterations of attempted
	// recoveries.
	ResliceIters stats.Running
	// Rebuilds and RebuildHits total the re-slice correction rounds
	// re-planned incrementally and the subset answered from the shared
	// cache (see pipeline.Replanner).
	Rebuilds, RebuildHits int
	// Overruns and Reclamations total the observed overruns and online
	// slack reclamations of the first (pre-reslice) executions.
	Overruns, Reclamations int
	// Errors counts pipeline failures, including panicking workloads.
	Errors int
	// Timeouts counts workloads abandoned at the per-workload budget.
	Timeouts int
	// Abandoned counts abandoned workload goroutines still running when
	// the point finished (see PoolStats.Abandoned); cooperative
	// cancellation normally keeps this at 0.
	Abandoned int
}

// marginOutcome is the per-workload result MarginRun folds.
type marginOutcome struct {
	success      bool
	missRatio    float64
	eteMissRatio float64
	outputs      int
	overruns     int
	reclamations int
	attempted    bool // re-slicing ran
	recovered    bool
	iters        int
	rebuilds     int
	rebuildHits  int
}

// MarginRun evaluates one estimation-error data point: every workload's
// assignment is derived from the estimates, reality is perturbed by one
// draw of cfg.Model, and the schedule is executed by the fault-injected
// dispatcher. With Reslice.MaxRetries > 0, failing runs additionally go
// through the adaptive re-slicing feedback loop.
func MarginRun(cfg MarginConfig) MarginPoint {
	outs, errs, pst := runIndexed(cfg.Workers, cfg.NumGraphs, cfg.Timeout, func(ctx context.Context, idx int) (any, error) {
		return marginRunOne(ctx, cfg, idx)
	})
	var point MarginPoint
	point.Abandoned = pst.Abandoned
	for i := range outs {
		if errs[i] != nil {
			point.Errors++
			if _, ok := errs[i].(*TimeoutError); ok {
				point.Timeouts++
			}
			continue
		}
		o := outs[i].(marginOutcome)
		point.Success.Add(o.success)
		point.MissRatio.Add(o.missRatio)
		if o.outputs > 0 {
			point.ETEMissRatio.Add(o.eteMissRatio)
		}
		point.Overruns += o.overruns
		point.Reclamations += o.reclamations
		if o.attempted {
			point.Recovered.Add(o.recovered)
			point.ResliceIters.Add(float64(o.iters))
			point.Rebuilds += o.rebuilds
			point.RebuildHits += o.rebuildHits
		}
	}
	return point
}

// perturbTrace converts a truth-vs-estimate perturbation into a fault
// trace the injected executor understands: task factors become
// per-task execution scales, class factors become per-processor
// slowdowns.
func perturbTrace(p wcet.Perturbation, m int, classOf func(q int) int) *faults.Trace {
	tr := faults.ZeroTrace(len(p.TaskScale), m)
	copy(tr.ExecScale, p.TaskScale)
	for q := 0; q < m; q++ {
		tr.Slow[q] = p.ClassScale[classOf(q)]
	}
	return tr
}

// marginRunOne executes workload idx under its estimation-error draw.
func marginRunOne(ctx context.Context, cfg MarginConfig, idx int) (marginOutcome, error) {
	var o marginOutcome
	if err := cfg.Model.Validate(); err != nil {
		return o, err
	}
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
	pert := cfg.Model.Draw(w.Graph.NumTasks(), w.Platform.NumClasses(),
		gen.SubSeed(cfg.MasterSeed+2, idx))
	tr := perturbTrace(pert, w.Platform.M(), w.Platform.ClassOf)
	graph, asg, sched := w.Graph, plan.Assignment, plan.Schedule
	itr, sporadic := tr, cfg.Release.Mode == gen.ReleaseSporadic
	if sporadic {
		// Recurring workload: expand the plan over the seeded release
		// sequence and repeat the per-task estimation error for every
		// release (the error lives in the estimate, not the draw).
		eg, easg, es, times, err := sim.ExpandSystem(w.Graph, w.Platform, plan.Assignment, cfg.Release, gcfg.Seed)
		if err != nil {
			return o, err
		}
		graph, asg, sched = eg, easg, es
		itr = tr.Tile(w.Graph.NumTasks(), len(times))
	}
	ir, err := sim.Inject(graph, w.Platform, asg, sched,
		sim.Options{Faults: itr, Reclaim: cfg.Reclaim})
	if err != nil {
		return o, err
	}
	d := ir.Degradation
	o.success = d.Misses == 0
	o.missRatio = d.MissRatio()
	o.outputs = len(graph.Outputs())
	if o.outputs > 0 {
		o.eteMissRatio = float64(d.ETEMisses) / float64(o.outputs)
	}
	o.overruns = d.Overruns
	o.reclamations = d.Reclamations
	if !o.success && !sporadic && cfg.Reslice.MaxRetries > 0 {
		ropt := cfg.Reslice
		ropt.Pipe = cfg.Pipe
		rr, err := robust.ResliceLoopContext(ctx, w.Graph, w.Platform, plan.Estimates, cfg.Metric,
			cfg.Params, tr, ropt)
		if err != nil {
			return o, err
		}
		o.attempted = true
		o.recovered = rr.Recovered
		o.iters = rr.Iterations
		o.rebuilds = rr.Rebuilds
		o.rebuildHits = rr.RebuildHits
	}
	return o, nil
}

// BreakdownPoint aggregates one breakdown-factor data point.
type BreakdownPoint struct {
	// Factor accumulates the per-workload critical WCET scaling factors
	// (workloads that survive at the search cap contribute the cap, so
	// the mean is cap-censored).
	Factor stats.Running
	// Unbounded counts workloads whose assignment survived at the
	// search ceiling.
	Unbounded int
	// Nominal counts workloads that survive unscaled execution — by
	// construction exactly the nominal time-driven success ratio.
	Nominal stats.Ratio
	// Errors counts pipeline failures, including panicking workloads.
	Errors int
	// Timeouts counts workloads abandoned at the per-workload budget.
	Timeouts int
	// Abandoned counts abandoned workload goroutines still running when
	// the point finished (see PoolStats.Abandoned).
	Abandoned int
}

// BreakdownRun measures the distribution of critical WCET scaling
// factors (robust.BreakdownFactor) over the workload sample.
func BreakdownRun(cfg MarginConfig) BreakdownPoint {
	outs, errs, pst := runIndexed(cfg.Workers, cfg.NumGraphs, cfg.Timeout, func(ctx context.Context, idx int) (any, error) {
		return breakdownRunOne(ctx, cfg, idx)
	})
	var point BreakdownPoint
	point.Abandoned = pst.Abandoned
	for i := range outs {
		if errs[i] != nil {
			point.Errors++
			if _, ok := errs[i].(*TimeoutError); ok {
				point.Timeouts++
			}
			continue
		}
		b := outs[i].(robust.Breakdown)
		point.Factor.Add(b.Factor)
		if b.Unbounded {
			point.Unbounded++
		}
		point.Nominal.Add(b.SurvivesNominal)
	}
	return point
}

func breakdownRunOne(ctx context.Context, cfg MarginConfig, idx int) (robust.Breakdown, error) {
	var b robust.Breakdown
	gcfg := cfg.Gen
	gcfg.Seed = gen.SubSeed(cfg.MasterSeed, idx)
	w, err := workloads.get(gcfg)
	if err != nil {
		return b, err
	}
	// Every bisection probe re-fetches the plan through the pipeline —
	// only the WCET scaling changes between probes, so with a plan cache
	// the workload is planned exactly once. Without a shared cache a
	// private single-entry cache keeps the probes amortized.
	builder := cfg.builder()
	if builder.Cache == nil {
		builder.Cache = pipeline.NewCache(1)
	}
	return robust.BreakdownViaContext(ctx, builder,
		pipeline.Spec{Graph: w.Graph, Platform: w.Platform}, cfg.Breakdown)
}
