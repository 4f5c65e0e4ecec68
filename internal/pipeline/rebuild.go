package pipeline

import (
	"context"
	"fmt"

	"repro/internal/rtime"
)

// Delta describes one workload change for Rebuild: a full replacement
// of the estimate vector (the re-slicing loop's inflation-corrected
// estimates). Build one with EstimatesDelta.
type Delta struct {
	Estimates []rtime.Time
}

// EstimatesDelta declares a full estimate-vector replacement.
func EstimatesDelta(est []rtime.Time) Delta {
	return Delta{Estimates: est}
}

// RebuildOutcome reports how a Rebuild was satisfied.
type RebuildOutcome int

const (
	// RebuildHit: the plan was already resident in the cache.
	RebuildHit RebuildOutcome = iota
	// RebuildIncremental: the plan was rebuilt off the previous one,
	// reusing its workload fingerprint without re-running the estimator.
	RebuildIncremental
)

// String implements fmt.Stringer.
func (o RebuildOutcome) String() string {
	switch o {
	case RebuildHit:
		return "hit"
	case RebuildIncremental:
		return "incremental"
	}
	return fmt.Sprintf("RebuildOutcome(%d)", int(o))
}

// Replanner rebuilds plans against a previous Plan: a build with the
// previous plan's workload fingerprint carried over and the estimates
// given, so the estimator never runs and the workload is never
// re-hashed. Its builds draw pooled scratch like every other build, and
// the produced Plan is byte-identical to a cold Build of the workload
// under the new estimates.
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

// RebuildContext produces the Plan a cold BuildContext of prev's
// workload under delta's estimates would produce — same fingerprint,
// assignment, schedule, and verdict — while reusing prev's workload
// fingerprint in place of a re-hash. Cache and recorder behavior match
// BuildContext's: hits coalesce and are reported as RebuildHit. The
// outcome means nothing when err is non-nil.
func (rp *Replanner) RebuildContext(ctx context.Context, prev *Plan, delta Delta) (*Plan, RebuildOutcome, error) {
	b := rp.b
	if prev == nil {
		return nil, RebuildIncremental, fmt.Errorf("pipeline: Rebuild needs a previous plan")
	}
	if prev.Graph == nil || prev.Platform == nil {
		return nil, RebuildIncremental, fmt.Errorf("pipeline: previous plan carries no workload (snapshot stub?)")
	}
	if n := prev.Graph.NumTasks(); len(delta.Estimates) != n {
		return nil, RebuildIncremental, fmt.Errorf("pipeline: %d estimates for %d tasks", len(delta.Estimates), n)
	}
	est := append([]rtime.Time(nil), delta.Estimates...)

	// Same graph and platform: reuse the fingerprint.
	dist := b.distributor()
	key := b.key(prev.Key.Workload, hashTimes(est), dist)
	spec := Spec{Graph: prev.Graph, Platform: prev.Platform, Estimates: est}
	plan, hit, err := b.buildKeyed(ctx, spec, dist, key, est, PlanStats{})
	outcome := RebuildIncremental
	if hit {
		outcome = RebuildHit
	}
	if err == nil {
		b.Recorder.recordRebuild(outcome)
	}
	return plan, outcome, err
}
