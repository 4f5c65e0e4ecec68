package pipeline

import (
	"context"
	"fmt"

	"repro/internal/rtime"
)

// DeltaKind classifies what changed between a previous Plan and the
// workload to re-plan.
type DeltaKind int

const (
	// DeltaNone: same workload, same estimates — re-plan under this
	// Replanner's stage configuration (the brownout ladder's cheap
	// substitute builds reuse a full plan's estimates this way).
	DeltaNone DeltaKind = iota
	// DeltaEstimates replaces the whole estimate vector (the re-slicing
	// loop's inflation-corrected estimates).
	DeltaEstimates
	// DeltaWorkload changes the graph or platform; nothing from the
	// previous plan survives and the Replanner falls back to a full
	// build.
	DeltaWorkload
)

// String implements fmt.Stringer.
func (k DeltaKind) String() string {
	switch k {
	case DeltaNone:
		return "none"
	case DeltaEstimates:
		return "estimates"
	case DeltaWorkload:
		return "workload"
	}
	return fmt.Sprintf("DeltaKind(%d)", int(k))
}

// Delta describes one workload change for Rebuild. Use the constructors;
// the zero value is DeltaNone.
type Delta struct {
	Kind DeltaKind

	// Estimates is the full replacement vector (DeltaEstimates).
	Estimates []rtime.Time

	// Spec is the replacement workload (DeltaWorkload).
	Spec Spec
}

// EstimatesDelta declares a full estimate-vector replacement.
func EstimatesDelta(est []rtime.Time) Delta {
	return Delta{Kind: DeltaEstimates, Estimates: est}
}

// WorkloadDelta declares a workload replacement; Rebuild degenerates to
// a full build of spec.
func WorkloadDelta(spec Spec) Delta {
	return Delta{Kind: DeltaWorkload, Spec: spec}
}

// RebuildOutcome reports how a Rebuild was satisfied.
type RebuildOutcome int

const (
	// RebuildHit: the plan was already resident in the cache.
	RebuildHit RebuildOutcome = iota
	// RebuildIncremental: the plan was rebuilt off the previous one,
	// reusing its workload fingerprint without re-running the estimator.
	RebuildIncremental
	// RebuildFull: the delta invalidated everything and a cold build of
	// the new workload ran instead.
	RebuildFull
)

// String implements fmt.Stringer.
func (o RebuildOutcome) String() string {
	switch o {
	case RebuildHit:
		return "hit"
	case RebuildIncremental:
		return "incremental"
	case RebuildFull:
		return "full"
	}
	return fmt.Sprintf("RebuildOutcome(%d)", int(o))
}

// Replanner rebuilds plans against a previous Plan: a build with the
// previous plan's workload fingerprint and estimates carried over, so
// the estimator never re-runs and the workload is never re-hashed. Its
// builds draw pooled scratch like every other build, and the produced
// Plan is byte-identical to a cold Build of the mutated workload.
//
// A Replanner holds only its Builder, which is safe for concurrent use,
// so one Replanner may serve several goroutines.
type Replanner struct {
	b *Builder
}

// NewReplanner returns a Replanner over this builder's configuration.
func (b *Builder) NewReplanner() *Replanner {
	return &Replanner{b: b}
}

// Rebuild re-plans prev's workload under the given delta; see
// RebuildContext.
func (rp *Replanner) Rebuild(prev *Plan, delta Delta) (*Plan, RebuildOutcome, error) {
	return rp.RebuildContext(context.Background(), prev, delta)
}

// RebuildContext produces the Plan a cold BuildContext of the mutated
// workload would produce — same fingerprint, assignment, schedule, and
// verdict — while reusing what the delta provably left intact: the
// workload fingerprint, and the estimates in place of the estimator,
// which never re-runs (DeltaNone carries the previous plan's vector,
// DeltaEstimates takes the new one). Cache and recorder behavior match
// BuildContext's: hits coalesce and are reported as RebuildHit.
//
// DeltaWorkload (or a nil prev) falls back to a full build of the new
// workload; this is reported as RebuildFull.
func (rp *Replanner) RebuildContext(ctx context.Context, prev *Plan, delta Delta) (*Plan, RebuildOutcome, error) {
	b := rp.b
	if delta.Kind == DeltaWorkload {
		plan, err := b.BuildContext(ctx, delta.Spec)
		b.Recorder.recordRebuild(RebuildFull)
		return plan, RebuildFull, err
	}
	if prev == nil {
		return nil, RebuildFull, fmt.Errorf("pipeline: Rebuild needs a previous plan for %v deltas", delta.Kind)
	}
	if prev.Graph == nil || prev.Platform == nil {
		return nil, RebuildFull, fmt.Errorf("pipeline: previous plan carries no workload (snapshot stub?)")
	}
	n := prev.Graph.NumTasks()

	// Resolve the estimates and their hash without re-running the
	// estimator: the previous plan already carries its output.
	var est []rtime.Time
	var estHash uint64
	estName := ""
	switch delta.Kind {
	case DeltaNone:
		est = prev.Estimates
		estHash = prev.Key.Estimates
		estName = prev.Estimator
	case DeltaEstimates:
		if len(delta.Estimates) != n {
			return nil, RebuildFull, fmt.Errorf("pipeline: %d estimates for %d tasks", len(delta.Estimates), n)
		}
		est = append([]rtime.Time(nil), delta.Estimates...)
		estHash = hashTimes(est)
	default:
		return nil, RebuildFull, fmt.Errorf("pipeline: unknown delta kind %v", delta.Kind)
	}

	// Same graph and platform: reuse the fingerprint.
	dist := b.distributor()
	key := b.key(prev.Key.Workload, estHash, dist)
	spec := Spec{Graph: prev.Graph, Platform: prev.Platform, Estimates: est}
	plan, hit, err := b.buildKeyed(ctx, spec, dist, key, est, estName, PlanStats{}, nil)
	outcome := RebuildIncremental
	if hit {
		outcome = RebuildHit
	}
	if err == nil {
		b.Recorder.recordRebuild(outcome)
	}
	return plan, outcome, err
}
