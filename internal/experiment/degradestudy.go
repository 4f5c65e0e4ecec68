package experiment

import (
	"context"
	"fmt"
	"time"

	"repro/internal/deadline"
	"repro/internal/degrade"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/rtime"
	"repro/internal/sim"
	"repro/internal/slicing"
	"repro/internal/stats"
	"repro/internal/wcet"
)

// DegradeConfig describes one graceful-degradation study series: a
// mixed-criticality workload distribution, a metric, a degradation
// policy, and an ascending ramp of fault intensities the online mode
// controller climbs.
type DegradeConfig struct {
	// Gen is the workload generator configuration; set Gen.OptionalProb
	// to get optional work to degrade (Gen.Seed is ignored; per-graph
	// seeds derive from MasterSeed).
	Gen gen.Config
	// Metric is the critical-path metric under evaluation.
	Metric slicing.Metric
	// Params are the adaptive-metric parameters.
	Params slicing.Params
	// WCET is the estimation strategy.
	WCET wcet.Strategy
	// NumGraphs is the sample size per intensity.
	NumGraphs int
	// MasterSeed makes the study reproducible, with the same seed split
	// as FaultRun: workload idx draws its graph from
	// SubSeed(MasterSeed, idx) and its fault trace from
	// SubSeed(MasterSeed+1, idx), independent of metric and policy, so
	// every series faces identical workloads and fault scenarios.
	MasterSeed int64
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// Intensities is the ascending fault-intensity ramp; each workload
	// is carried through the whole ramp by one controller instance, so
	// its admitted mode level is non-decreasing along it.
	Intensities []float64
	// Degrade selects the degradation policy and ladder depth.
	Degrade degrade.Options
	// Reclaim enables the online slack-reclamation recovery policy
	// inside every executed frame.
	Reclaim bool
	// Timeout is the per-workload wall-clock budget (0 = none).
	Timeout time.Duration
	// Pipe optionally supplies a shared plan cache and instrumentation
	// recorder for the planning pipeline. With a shared cache the
	// baseline fault path re-plans each workload once instead of once
	// per intensity.
	Pipe pipeline.Shared
}

// DegradePoint aggregates one intensity of a degradation series.
type DegradePoint struct {
	// Fault is the plain fault-injection baseline at this intensity —
	// the full application with no mode controller — computed with
	// FaultRun's own per-workload path, so with degradation disabled
	// (Policy None, or no optional tasks) it is byte-identical to the
	// FaultRun point of the same configuration.
	Fault FaultPoint
	// Value accumulates the achieved value fraction: the Quality of the
	// admitted operating mode, or 0 for a rejected workload. Per
	// workload it is non-increasing along the intensity ramp, so the
	// mean is too.
	Value stats.Running
	// MandatoryMet counts workloads whose admitted frame ran with zero
	// mandatory deadline misses. A workload that cannot hold the
	// mandatory set even at the top level is rejected (and stays
	// rejected at higher intensities).
	MandatoryMet stats.Ratio
	// Level accumulates the admitted mode level.
	Level stats.Running
	// Escalations totals the upward mode changes spent at this
	// intensity; Saturated counts workloads that ran at the top level.
	Escalations, Saturated int
	// Rejected counts workloads with no admissible mode at (or before)
	// this intensity.
	Rejected int
	// ModeErrors counts degraded-mode pipeline failures (the mode was
	// treated as inadmissible and the controller escalated past it).
	ModeErrors int
	// Errors counts workload-level pipeline failures, including
	// panicking workloads; Timeouts those abandoned at the budget.
	Errors, Timeouts int
	// Abandoned counts abandoned workload goroutines still running when
	// the series finished (see PoolStats.Abandoned); identical on every
	// point of a curve, since the pool spans the whole ramp.
	Abandoned int
}

// DegradeCurve is one policy/metric series over the intensity ramp.
type DegradeCurve struct {
	Intensities []float64
	Points      []DegradePoint
}

// degradeOutcome is the per-workload result DegradeRun folds: one entry
// per intensity, plus the baseline fault outcome for each.
type degradeOutcome struct {
	fault    []faultOutcome
	faultErr []error
	level    []int
	value    []float64
	mandOK   []bool
	escal    []int
	sat      []bool
	rejected []bool
	modeErrs []int
}

// DegradeRun evaluates one graceful-degradation series. Every workload
// is generated once, its mode ladder built once, and one controller
// instance carries it up the whole intensity ramp: at each intensity
// the current mode executes under the workload's materialized fault
// trace (projected onto the mode's surviving tasks, so every mode faces
// the same scenario), and overloaded frames escalate the controller
// until a frame is admitted or the ladder is exhausted. The achieved
// value of an intensity is the admitted mode's retained-value fraction
// — 0 when even the top mode misses mandatory deadlines, a rejection
// that latches for the rest of the ramp. Both the admitted level and
// the rejection latch are monotone per workload, so every aggregate
// value curve is non-increasing by construction.
//
// Runs on the panic-isolated worker pool; outcomes fold in index order,
// so the curve is byte-identical for every worker count.
func DegradeRun(cfg DegradeConfig) (DegradeCurve, error) {
	ni := len(cfg.Intensities)
	if ni == 0 {
		return DegradeCurve{}, fmt.Errorf("experiment: DegradeRun needs at least one intensity")
	}
	for i := 1; i < ni; i++ {
		if cfg.Intensities[i] < cfg.Intensities[i-1] {
			return DegradeCurve{}, fmt.Errorf("experiment: intensities not ascending at %d", i)
		}
	}
	curve := DegradeCurve{
		Intensities: append([]float64(nil), cfg.Intensities...),
		Points:      make([]DegradePoint, ni),
	}
	outs, errs, pst := runIndexed(cfg.Workers, cfg.NumGraphs, cfg.Timeout, func(ctx context.Context, idx int) (any, error) {
		return degradeRunOne(ctx, cfg, idx)
	})
	for p := range curve.Points {
		curve.Points[p].Abandoned = pst.Abandoned
	}
	for i := range outs {
		if errs[i] != nil {
			_, timedOut := errs[i].(*TimeoutError)
			for p := range curve.Points {
				curve.Points[p].Errors++
				curve.Points[p].Fault.Errors++
				if timedOut {
					curve.Points[p].Timeouts++
				}
			}
			continue
		}
		o := outs[i].(degradeOutcome)
		for p := range curve.Points {
			pt := &curve.Points[p]
			if o.faultErr[p] != nil {
				pt.Fault.Errors++
			} else {
				pt.Fault.fold(o.fault[p])
			}
			pt.Value.Add(o.value[p])
			pt.MandatoryMet.Add(o.mandOK[p])
			pt.Level.Add(float64(o.level[p]))
			pt.Escalations += o.escal[p]
			if o.sat[p] {
				pt.Saturated++
			}
			if o.rejected[p] {
				pt.Rejected++
			}
			pt.ModeErrors += o.modeErrs[p]
		}
	}
	return curve, nil
}

// modePipe is the memoized plan of one operating mode.
type modePipe struct {
	plan *pipeline.Plan
	err  error
}

// degradeRunOne carries workload idx through the whole intensity ramp.
func degradeRunOne(ctx context.Context, cfg DegradeConfig, idx int) (degradeOutcome, error) {
	ni := len(cfg.Intensities)
	o := degradeOutcome{
		fault:    make([]faultOutcome, ni),
		faultErr: make([]error, ni),
		level:    make([]int, ni),
		value:    make([]float64, ni),
		mandOK:   make([]bool, ni),
		escal:    make([]int, ni),
		sat:      make([]bool, ni),
		rejected: make([]bool, ni),
		modeErrs: make([]int, ni),
	}

	gcfg := cfg.Gen
	gcfg.Seed = gen.SubSeed(cfg.MasterSeed, idx)
	w, err := gen.Generate(gcfg)
	if err != nil {
		return o, err
	}
	modes, err := degrade.Modes(w.Graph, cfg.Degrade)
	if err != nil {
		return o, err
	}
	top := len(modes) - 1

	// Lazily memoized plans, one per mode: estimates over the mode
	// graph, re-sliced end-to-end deadlines, re-verified dispatch — one
	// pipeline build per mode level.
	builder := &pipeline.Builder{
		Estimator:   pipeline.StrategyEstimator(cfg.WCET),
		Distributor: deadline.Sliced{Metric: cfg.Metric, Params: cfg.Params},
		Cache:       cfg.Pipe.Cache,
		Recorder:    cfg.Pipe.Recorder,
	}
	pipes := make([]*modePipe, len(modes))
	rp := builder.NewReplanner()
	var lastPlan *pipeline.Plan
	pipe := func(l int) *modePipe {
		if pipes[l] != nil {
			return pipes[l]
		}
		p := &modePipe{}
		pipes[l] = p
		spec := pipeline.Spec{Graph: modes[l].Graph, Platform: w.Platform}
		if lastPlan == nil {
			p.plan, p.err = builder.BuildContext(ctx, spec)
		} else {
			// Each mode level drops tasks, so escalation is a workload
			// delta: the replanner falls back to a full build and the
			// recorder counts it as one, keeping the ladder's planning
			// cost visible next to the loops that do rebuild cheaply.
			p.plan, _, p.err = rp.RebuildContext(ctx, lastPlan, pipeline.WorkloadDelta(spec))
		}
		if p.err == nil {
			lastPlan = p.plan
		}
		return p
	}

	// The failure-instant horizon, as in FaultRun: metric-independent
	// and mode-independent, so every series and mode level faces the
	// same scenario.
	var span rtime.Time
	for _, out := range w.Graph.Outputs() {
		if d := w.Graph.Task(out).ETEDeadline; d > span {
			span = d
		}
	}

	// One controller per workload, carried across the whole ramp. The
	// clean-streak requirement exceeds any possible frame count, so the
	// controller never probes downward mid-study and the admitted level
	// is non-decreasing along the ramp (re-admission is exercised by the
	// unit tests and the example, not the study).
	ctl := degrade.NewController(degrade.ControllerOptions{
		MaxLevel:    top,
		CleanStreak: ni*(top+1) + 1,
	})

	rejected := false
	for p, intensity := range cfg.Intensities {
		plan := faults.Scaled(intensity, gen.SubSeed(cfg.MasterSeed+1, idx))
		trace, err := plan.Materialize(w.Graph, w.Platform, span)
		if err != nil {
			return o, err
		}

		// The uncontrolled baseline: the level-0 plan (FaultRun's plan of
		// this workload, since modes[0].Graph is w.Graph) under the same
		// trace FaultRun draws for it.
		if base := pipe(0); base.err != nil {
			o.faultErr[p] = base.err
		} else if ir, err := sim.Inject(w.Graph, w.Platform, base.plan.Assignment, base.plan.Schedule,
			sim.Options{Faults: trace, Reclaim: cfg.Reclaim}); err != nil {
			o.faultErr[p] = err
		} else {
			o.fault[p] = faultOutcome{deg: ir.Degradation, outputs: len(w.Graph.Outputs())}
		}

		if rejected {
			o.rejected[p] = true
			o.level[p] = top
			continue
		}

		// Escalate until a frame is admitted or the ladder is exhausted.
		for {
			lv := ctl.Level()
			var deg sim.Degradation
			var frameErr error
			if lv == 0 {
				// The baseline already executed exactly this frame.
				deg, frameErr = o.fault[p].deg, o.faultErr[p]
			} else {
				pl := pipe(lv)
				if pl.err != nil {
					frameErr = pl.err
				} else {
					ir, err := sim.Inject(modes[lv].Graph, w.Platform, pl.plan.Assignment, pl.plan.Schedule,
						sim.Options{Faults: trace.Project(modes[lv].New2Old), Reclaim: cfg.Reclaim})
					if err != nil {
						frameErr = err
					} else {
						deg = ir.Degradation
					}
				}
			}

			obs := degrade.Observation{
				MandatoryMisses: deg.MandatoryMisses,
				OptionalMisses:  deg.Misses - deg.MandatoryMisses,
				Overruns:        deg.Overruns,
				Aborts:          deg.Aborted,
			}
			if frameErr != nil {
				// An unplannable mode is inadmissible: escalate past it.
				o.modeErrs[p]++
				obs = degrade.Observation{MandatoryMisses: 1}
			}
			tr := ctl.Observe(obs)
			if tr.Cause == degrade.Escalate {
				o.escal[p]++
				continue
			}
			// Admitted (clean frame) or saturated at the top level.
			o.level[p] = lv
			o.sat[p] = lv == top && top > 0
			if frameErr == nil && deg.MandatoryMisses == 0 {
				o.mandOK[p] = true
				o.value[p] = modes[lv].Quality
			} else {
				rejected = true
				o.rejected[p] = true
			}
			break
		}
	}
	return o, nil
}
