package sim

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
)

// ShiftAssignment builds the window assignment of a release-major
// expansion (gen.ExpandReleases) from a base assignment: the copy of
// task i in release k runs under the base window shifted by the k-th
// release time. This is the sporadic windows contract the analytic
// verifier (internal/verify) proves against: every release reuses the
// base deadline distribution relative to its own release instant.
func ShiftAssignment(asg *slicing.Assignment, times []rtime.Time) (*slicing.Assignment, error) {
	n := len(asg.Arrival)
	if len(asg.AbsDeadline) != n {
		return nil, fmt.Errorf("sim: assignment arrival/deadline length mismatch %d/%d", n, len(asg.AbsDeadline))
	}
	out := &slicing.Assignment{
		Arrival:     make([]rtime.Time, 0, n*len(times)),
		AbsDeadline: make([]rtime.Time, 0, n*len(times)),
		RelDeadline: make([]rtime.Time, 0, n*len(times)),
		MetricName:  asg.MetricName,
	}
	for _, t0 := range times {
		for i := 0; i < n; i++ {
			out.Arrival = append(out.Arrival, asg.Arrival[i]+t0)
			out.AbsDeadline = append(out.AbsDeadline, asg.AbsDeadline[i]+t0)
			out.RelDeadline = append(out.RelDeadline, asg.AbsDeadline[i]-asg.Arrival[i])
		}
	}
	return out, nil
}

// ExpandPlan materializes a plan of a sporadically released system as
// the plan of a single one-shot system: the base graph g is expanded
// over the seeded release times of rel (gen.ExpandReleases,
// release-major), and every release runs under the base window
// assignment shifted by its release time. The release times come back
// too, so callers sizing per-release state (for example a fault trace
// over the expanded task set) know the copy count and offsets.
func ExpandPlan(g *taskgraph.Graph, asg *slicing.Assignment,
	rel gen.Release, seed int64) (*taskgraph.Graph, *slicing.Assignment, []rtime.Time, error) {

	times, err := gen.ReleaseTimes(rel, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	expanded, err := gen.ExpandReleases(g, times)
	if err != nil {
		return nil, nil, nil, err
	}
	easg, err := ShiftAssignment(asg, times)
	if err != nil {
		return nil, nil, nil, err
	}
	return expanded, easg, times, nil
}

// ExpandSystem is ExpandPlan with the expanded system scheduled by the
// time-driven EDF dispatcher.
func ExpandSystem(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment,
	rel gen.Release, seed int64) (*taskgraph.Graph, *slicing.Assignment, *sched.Schedule, []rtime.Time, error) {

	expanded, easg, times, err := ExpandPlan(g, asg, rel, seed)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	s, err := sched.Dispatch(expanded, p, easg)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return expanded, easg, s, times, nil
}

// ReplayReleases dispatches and replays a sporadically released graph
// (ExpandSystem followed by Replay under opts). It returns the replay
// report together with the dispatched schedule and the expanded
// assignment (indexed release-major, copy of task i in release k at
// k·n+i).
func ReplayReleases(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment,
	rel gen.Release, seed int64, opts Options) (*Report, *sched.Schedule, *slicing.Assignment, error) {

	expanded, easg, s, _, err := ExpandSystem(g, p, asg, rel, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	rep, err := Replay(expanded, p, easg, s, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	return rep, s, easg, nil
}
