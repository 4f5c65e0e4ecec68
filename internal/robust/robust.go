// Package robust quantifies how much WCET estimation error a deadline
// assignment tolerates, and recovers from observed overruns by feeding
// corrected estimates back into the slicing step.
//
// The paper's titular claim is that ADAPT-L is *robust*: its
// success-ratio advantage survives inaccurate WCET estimates (§5.3).
// The figures only compare estimation strategies at a point, though —
// they never measure a margin. This package provides two instruments:
//
//   - BreakdownFactor: the critical uniform WCET scaling factor φ* at
//     which an assignment first misses a deadline when every task's true
//     execution time is φ·WCET while the dispatcher keeps planning with
//     nominal knowledge. A larger φ* means the metric left its slack
//     where overruns actually bite.
//
//   - ResliceLoop: adaptive re-slicing feedback. When the fault-injected
//     executor observes overruns, the observed execution times become
//     corrected estimates, the slicer redistributes the end-to-end
//     window, and the run is replayed — with bounded retries and a
//     multiplicative backoff on the inflation factor, mirroring how an
//     online system would re-plan after reality disagrees with the model.
//
// Both instruments execute through sim.Inject, so a zero perturbation
// reproduces the nominal dispatcher exactly.
package robust

import (
	"context"
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/deadline"
	"repro/internal/faults"
	"repro/internal/pipeline"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
)

// BreakdownOptions bounds the critical-factor search.
type BreakdownOptions struct {
	// MaxFactor is the search ceiling (default 4): workloads that still
	// meet every deadline with 4× execution times are reported Unbounded.
	MaxFactor float64
	// Tol is the bracket width at which bisection stops (default 1/64).
	Tol float64
	// Reclaim runs the online slack-reclamation policy during the probe
	// executions, measuring the breakdown of the recovered system.
	Reclaim bool
}

func (o BreakdownOptions) withDefaults() BreakdownOptions {
	if o.MaxFactor <= 0 {
		o.MaxFactor = 4
	}
	if o.Tol <= 0 {
		o.Tol = 1.0 / 64
	}
	return o
}

// Breakdown is the outcome of a critical-factor search.
type Breakdown struct {
	// Factor is the largest probed uniform WCET scaling the assignment
	// survives (every task meets its originally assigned deadline).
	// Values below 1 mean the nominal assignment already fails and
	// reality must be *faster* than the estimates by that factor.
	Factor float64
	// SurvivesNominal reports the φ=1 probe — exactly the nominal
	// dispatcher's success on this workload.
	SurvivesNominal bool
	// Unbounded reports that the assignment survived at MaxFactor, so
	// Factor is only a lower bound.
	Unbounded bool
}

// BreakdownFactor bisects for the critical uniform WCET scaling factor
// of one (assignment, schedule) pair. Each probe executes the schedule
// with every task's true execution time scaled by φ (the dispatcher
// still decides with nominal WCET knowledge, as in sim.Inject) and asks
// whether every originally assigned deadline is met.
//
// Survival is not perfectly monotone in φ — early completions can
// trigger Graham anomalies — so the result is the bisection limit of the
// first observed survive/fail bracket, which is the standard sensitivity
// measure and deterministic for a given workload.
func BreakdownFactor(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment,
	s *sched.Schedule, opt BreakdownOptions) (Breakdown, error) {

	opt = opt.withDefaults()
	n, m := g.NumTasks(), p.M()
	return bisect(context.Background(), opt, func(factor float64) (bool, error) {
		tr := faults.ZeroTrace(n, m)
		for i := range tr.ExecScale {
			tr.ExecScale[i] = factor
		}
		ir, err := sim.Inject(g, p, asg, s, sim.Options{Faults: tr, Reclaim: opt.Reclaim})
		if err != nil {
			return false, err
		}
		return ir.Degradation.Misses == 0, nil
	})
}

// BreakdownVia runs the critical-factor search with each probe fetching
// the workload's plan through the pipeline builder: only the WCET
// scaling changes between probes, so with a plan cache on b the
// workload is planned once and every later probe is a cache hit —
// without one, every probe re-plans. This is the instrumented path the
// experiment harness and the pipeline benchmarks use; BreakdownFactor
// remains the primitive for callers that already hold a plan.
func BreakdownVia(b *pipeline.Builder, spec pipeline.Spec, opt BreakdownOptions) (Breakdown, error) {
	return BreakdownViaContext(context.Background(), b, spec, opt)
}

// BreakdownViaContext is BreakdownVia under a cancellation context: the
// context gates every bisection probe and propagates into the pipeline
// builds, so an abandoned study workload stops probing at the next
// bracket step instead of running the search to its tolerance.
func BreakdownViaContext(ctx context.Context, b *pipeline.Builder, spec pipeline.Spec,
	opt BreakdownOptions) (Breakdown, error) {

	opt = opt.withDefaults()
	return bisect(ctx, opt, func(factor float64) (bool, error) {
		plan, err := b.BuildContext(ctx, spec)
		if err != nil {
			return false, err
		}
		g, p := plan.Graph, plan.Platform
		tr := faults.ZeroTrace(g.NumTasks(), p.M())
		for i := range tr.ExecScale {
			tr.ExecScale[i] = factor
		}
		ir, err := sim.Inject(g, p, plan.Assignment, plan.Schedule,
			sim.Options{Faults: tr, Reclaim: opt.Reclaim})
		if err != nil {
			return false, err
		}
		return ir.Degradation.Misses == 0, nil
	})
}

// bisect runs the survive/fail bracket search shared by BreakdownFactor
// and BreakdownVia, checking ctx before every probe. opt must already
// have defaults applied.
func bisect(ctx context.Context, opt BreakdownOptions, probe func(factor float64) (bool, error)) (Breakdown, error) {
	var b Breakdown
	inner := probe
	probe = func(factor float64) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		return inner(factor)
	}
	ok, err := probe(1)
	if err != nil {
		return b, err
	}
	b.SurvivesNominal = ok
	lo, hi := 0.0, 1.0
	if ok {
		okMax, err := probe(opt.MaxFactor)
		if err != nil {
			return b, err
		}
		if okMax {
			b.Factor = opt.MaxFactor
			b.Unbounded = true
			return b, nil
		}
		lo, hi = 1, opt.MaxFactor
	} else {
		okZero, err := probe(0)
		if err != nil {
			return b, err
		}
		if !okZero {
			// Even instantaneous execution misses a window: the
			// assignment is over-constrained, there is no margin at all.
			b.Factor = 0
			return b, nil
		}
	}
	for hi-lo > opt.Tol {
		mid := (lo + hi) / 2
		ok, err := probe(mid)
		if err != nil {
			return b, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	b.Factor = lo
	return b, nil
}

// ResliceOptions bounds the adaptive re-slicing feedback loop.
type ResliceOptions struct {
	// MaxRetries bounds the number of re-slice rounds (default 4).
	MaxRetries int
	// Backoff multiplies the estimate-inflation factor after each failed
	// round (default 1.25): the first correction trusts the observations,
	// later ones pad them, so persistent failures converge toward
	// pessimism instead of oscillating.
	Backoff float64
	// Reclaim additionally runs the online slack-reclamation policy
	// inside every injected execution.
	Reclaim bool
	// Pipe optionally supplies a shared plan cache and instrumentation
	// recorder the loop's re-planning rounds go through; with a cache
	// shared with the caller, round 0 reuses the caller's nominal plan.
	Pipe pipeline.Shared
}

func (o ResliceOptions) withDefaults() ResliceOptions {
	if o.MaxRetries <= 0 {
		o.MaxRetries = 4
	}
	if o.Backoff <= 1 {
		o.Backoff = 1.25
	}
	return o
}

// ResliceResult reports one feedback loop.
type ResliceResult struct {
	// Iterations is the number of re-slice rounds performed; 0 means the
	// initial assignment already survived (or nothing could be learned).
	Iterations int
	// Recovered reports that the final injected execution met every
	// deadline of its (re-sliced) assignment — and therefore every
	// end-to-end deadline, which re-slicing never extends.
	Recovered bool
	// OverConstrained reports that estimate inflation grew past what the
	// end-to-end deadlines can accommodate, ending the loop early.
	OverConstrained bool
	// Assignment and Estimates are the final re-sliced assignment and
	// the corrected estimates it was derived from.
	Assignment *slicing.Assignment
	Estimates  []rtime.Time
	// Final is the injected execution of the final assignment (its
	// Degradation.Reclamations counts online recoveries, reported
	// alongside the offline re-slice Iterations).
	Final *sim.InjectedReport
	// Rebuilds counts the correction rounds re-planned incrementally
	// through pipeline.Rebuild (round 0 is a plain build); RebuildHits
	// the subset answered from cache residency.
	Rebuilds, RebuildHits int
}

// ResliceLoop executes the estimate→slice→schedule→inject pipeline under
// the fault trace tr, and while the run misses deadlines, feeds the
// *observed* execution times back as corrected estimates and re-slices:
//
//	est′ᵢ = max(estᵢ, ⌈inflate · observedᵢ⌉)   inflate = Backoff^round
//
// The loop stops when the run is clean, when no observation exceeds its
// estimate (the misses are not the estimates' fault), when re-slicing
// becomes over-constrained (the corrected load no longer fits the
// end-to-end deadlines), or after MaxRetries rounds. Deadline misses in
// every round are judged against that round's assignment, whose output
// windows never exceed the end-to-end deadlines.
func ResliceLoop(g *taskgraph.Graph, p *arch.Platform, est []rtime.Time,
	metric slicing.Metric, params slicing.Params, tr *faults.Trace,
	opt ResliceOptions) (*ResliceResult, error) {

	return ResliceLoopContext(context.Background(), g, p, est, metric, params, tr, opt)
}

// ResliceLoopContext is ResliceLoop under a cancellation context: the
// context gates every feedback round and propagates into the pipeline
// builds, so an abandoned study workload stops re-planning instead of
// burning its remaining retries.
func ResliceLoopContext(ctx context.Context, g *taskgraph.Graph, p *arch.Platform,
	est []rtime.Time, metric slicing.Metric, params slicing.Params, tr *faults.Trace,
	opt ResliceOptions) (*ResliceResult, error) {

	opt = opt.withDefaults()
	if len(est) != g.NumTasks() {
		return nil, fmt.Errorf("robust: %d estimates for %d tasks", len(est), g.NumTasks())
	}
	b := &pipeline.Builder{
		Distributor: deadline.Sliced{Metric: metric, Params: params},
		Cache:       opt.Pipe.Cache,
		Recorder:    opt.Pipe.Recorder,
	}
	rp := b.NewReplanner()
	cur := append([]rtime.Time(nil), est...)
	inflate := 1.0
	res := &ResliceResult{}
	var plan *pipeline.Plan
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		if round == 0 {
			plan, err = b.BuildContext(ctx, pipeline.Spec{Graph: g, Platform: p, Estimates: cur})
		} else {
			// Correction rounds change only the estimate vector, so they
			// rebuild off the previous round's plan, which carries the
			// workload fingerprint over instead of re-hashing the graph.
			var outcome pipeline.RebuildOutcome
			plan, outcome, err = rp.RebuildContext(ctx, plan, pipeline.EstimatesDelta(cur))
			if err == nil {
				res.Rebuilds++
				if outcome == pipeline.RebuildHit {
					res.RebuildHits++
				}
			}
		}
		if err != nil {
			return nil, err
		}
		asg := plan.Assignment
		ir, err := sim.Inject(g, p, asg, plan.Schedule, sim.Options{Faults: tr, Reclaim: opt.Reclaim})
		if err != nil {
			return nil, err
		}
		res.Iterations = round
		res.Assignment = asg
		res.Estimates = plan.Estimates
		res.Final = ir
		if ir.Degradation.Misses == 0 {
			res.Recovered = true
			return res, nil
		}
		if asg.OverConstrained {
			res.OverConstrained = true
			return res, nil
		}
		if round >= opt.MaxRetries {
			return res, nil
		}
		// Correct the estimates from what actually executed.
		changed := false
		next := append([]rtime.Time(nil), cur...)
		for i := range next {
			pl := ir.Executed.Placements[i]
			if pl.Proc < 0 {
				continue
			}
			obs := pl.Finish - pl.Start
			if obs <= cur[i] {
				continue
			}
			c := rtime.Time(math.Ceil(inflate * float64(obs)))
			if c > next[i] {
				next[i] = c
				changed = true
			}
		}
		if !changed {
			return res, nil
		}
		cur = next
		inflate *= opt.Backoff
	}
}
