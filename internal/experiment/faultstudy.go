package experiment

import (
	"context"

	"repro/internal/deadline"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/rtime"
	"repro/internal/sim"
	"repro/internal/slicing"
	"repro/internal/stats"
	"repro/internal/wcet"
)

// FaultConfig describes one robustness data point: a workload
// distribution, a deadline-distribution metric, and a fault intensity to
// execute the resulting schedules under.
type FaultConfig struct {
	// Gen is the workload generator configuration (Gen.Seed is ignored;
	// per-graph seeds derive from MasterSeed).
	Gen gen.Config
	// Metric is the critical-path metric under evaluation.
	Metric slicing.Metric
	// Params are the adaptive-metric parameters.
	Params slicing.Params
	// WCET is the estimation strategy.
	WCET wcet.Strategy
	// NumGraphs is the sample size per point.
	NumGraphs int
	// MasterSeed makes the whole study reproducible. Workload idx draws
	// its graph from SubSeed(MasterSeed, idx) and its fault trace from
	// SubSeed(MasterSeed+1, idx) — the trace seed does not depend on the
	// metric, so every metric faces the identical fault scenario (paired
	// comparison, as everywhere in the harness).
	MasterSeed int64
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// Intensity in [0, 1] scales the fault plan (faults.Scaled); 0 is
	// the nominal, fault-free execution.
	Intensity float64
	// Reclaim enables the online slack-reclamation recovery policy.
	Reclaim bool
	// Pipe optionally supplies a shared plan cache and instrumentation
	// recorder for the planning pipeline.
	Pipe pipeline.Shared
	// Release selects the release model the faulted executions run
	// under. The zero value (ReleaseSingle) injects into one release of
	// the plan, as before. With ReleaseSporadic, the plan is expanded
	// over a seeded sporadic release sequence (sim.ExpandSystem) and the
	// fault plan is materialized over the whole released horizon, so
	// overruns and processor failures can land in any release — the
	// graceful-degradation measures then grade the recurring workload.
	Release gen.Release
}

// builder assembles the pipeline configuration this point plans with
// (faults are injected into the nominal time-driven plan).
func (cfg FaultConfig) builder() *pipeline.Builder {
	return &pipeline.Builder{
		Estimator:   pipeline.StrategyEstimator(cfg.WCET),
		Distributor: deadline.Sliced{Metric: cfg.Metric, Params: cfg.Params},
		Cache:       cfg.Pipe.Cache,
		Recorder:    cfg.Pipe.Recorder,
	}
}

// FaultPoint aggregates the graceful-degradation measures of one data
// point.
type FaultPoint struct {
	// Success counts runs that met every originally assigned deadline
	// despite the faults. At Intensity 0 it equals the nominal
	// time-driven success ratio for the same (metric, seed) point.
	Success stats.Ratio
	// MissRatio accumulates the per-run task deadline-miss ratio.
	MissRatio stats.Running
	// ETEMissRatio accumulates the per-run end-to-end (output-task) miss
	// ratio — the failures the application actually observes.
	ETEMissRatio stats.Running
	// MeanLateness accumulates each run's mean positive lateness.
	MeanLateness stats.Running
	// MaxLateness accumulates each run's maximum lateness.
	MaxLateness stats.Running
	// FirstMiss accumulates the first-miss time over runs that missed —
	// how long the system runs before degrading.
	FirstMiss stats.Running
	// Overruns, Aborted, Migrations and Reclamations total the fault and
	// recovery event counts over the sample.
	Overruns, Aborted, Migrations, Reclamations int
	// Errors counts pipeline failures; always 0 in a healthy
	// configuration.
	Errors int
}

// FaultRun evaluates one robustness data point over the panic-isolated
// worker pool; outcomes fold in index order, so the point is
// byte-identical for every worker count.
func FaultRun(cfg FaultConfig) FaultPoint {
	outs, errs, _ := runIndexed(cfg.Workers, cfg.NumGraphs, 0, func(ctx context.Context, idx int) (any, error) {
		return faultRunOne(ctx, cfg, idx)
	})
	var point FaultPoint
	for i := range outs {
		if errs[i] != nil {
			point.Errors++
			continue
		}
		point.fold(outs[i].(faultOutcome))
	}
	return point
}

// fold accumulates one workload outcome into the point. DegradeRun
// reuses it so its per-intensity baseline points stay byte-identical to
// FaultRun's.
func (point *FaultPoint) fold(o faultOutcome) {
	d := o.deg
	point.Success.Add(d.Misses == 0)
	point.MissRatio.Add(d.MissRatio())
	if o.outputs > 0 {
		point.ETEMissRatio.Add(float64(d.ETEMisses) / float64(o.outputs))
	}
	point.MeanLateness.Add(d.MeanLateness)
	point.MaxLateness.Add(float64(d.MaxLateness))
	if d.FirstMiss.IsSet() {
		point.FirstMiss.Add(float64(d.FirstMiss))
	}
	point.Overruns += d.Overruns
	point.Aborted += d.Aborted
	point.Migrations += d.Migrations
	point.Reclamations += d.Reclamations
}

// faultOutcome is the per-workload result FaultRun folds.
type faultOutcome struct {
	deg     sim.Degradation
	outputs int
}

// faultRunOne executes workload idx under its fault trace.
func faultRunOne(ctx context.Context, cfg FaultConfig, idx int) (faultOutcome, error) {
	var o faultOutcome
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
	graph, asg, sched := w.Graph, plan.Assignment, plan.Schedule
	if cfg.Release.Mode == gen.ReleaseSporadic {
		// Recurring workload: the faulted execution covers every release,
		// so faults are drawn over the expanded system and its horizon.
		graph, asg, sched, _, err = sim.ExpandSystem(w.Graph, w.Platform, plan.Assignment, cfg.Release, gcfg.Seed)
		if err != nil {
			return o, err
		}
	}
	// The failure-instant horizon is the workload's end-to-end deadline
	// (of the last release, under sporadic releases): metric-independent,
	// so identical across the compared series.
	var span rtime.Time
	for _, out := range graph.Outputs() {
		if d := graph.Task(out).ETEDeadline; d > span {
			span = d
		}
	}
	fplan := faults.Scaled(cfg.Intensity, gen.SubSeed(cfg.MasterSeed+1, idx))
	trace, err := fplan.Materialize(graph, w.Platform, span)
	if err != nil {
		return o, err
	}
	ir, err := sim.Inject(graph, w.Platform, asg, sched,
		sim.Options{Faults: trace, Reclaim: cfg.Reclaim})
	if err != nil {
		return o, err
	}
	o.deg = ir.Degradation
	o.outputs = len(graph.Outputs())
	return o, nil
}
