package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/rtime"
	"repro/internal/taskgraph"
)

// ReleaseMode selects how often an application is released.
type ReleaseMode int

const (
	// ReleaseSingle is the paper's model: the graph arrives once, at
	// time zero. The zero value, so existing configurations are
	// byte-identical.
	ReleaseSingle ReleaseMode = iota
	// ReleaseSporadic releases the whole graph recurrently with a
	// minimum inter-arrival time and bounded per-release jitter (the
	// sporadic DAG model of Dong & Liu).
	ReleaseSporadic
)

// String implements fmt.Stringer.
func (m ReleaseMode) String() string {
	switch m {
	case ReleaseSingle:
		return "single"
	case ReleaseSporadic:
		return "sporadic"
	}
	return fmt.Sprintf("ReleaseMode(%d)", int(m))
}

// ParseReleaseMode parses a mode name; "" means single-shot.
func ParseReleaseMode(s string) (ReleaseMode, error) {
	switch s {
	case "", "single":
		return ReleaseSingle, nil
	case "sporadic":
		return ReleaseSporadic, nil
	}
	return ReleaseSingle, fmt.Errorf("gen: unknown release mode %q (want single or sporadic)", s)
}

// Release parameterizes recurring releases of an application. The
// graph is planned once; ReleaseTimes and ExpandReleases, bundled with
// the window shift by sim.ExpandPlan, unroll the plan over the
// releases. The zero value is the single-shot model.
type Release struct {
	// Mode selects single-shot or sporadic release.
	Mode ReleaseMode
	// Count is the number of releases to expand (sporadic only, ≥ 1).
	Count int
	// MinGap is the minimum inter-arrival time T between consecutive
	// releases (sporadic only, ≥ 1).
	MinGap rtime.Time
	// Jitter is the maximum per-release delay J beyond the earliest
	// release time (0 ≤ J < MinGap): release k arrives at k·T + uₖ with
	// uₖ uniform in [0, J]. Consecutive releases thus arrive at least
	// T − J apart.
	Jitter rtime.Time
}

// Validate checks the release parameters.
func (r Release) Validate() error {
	if r.Mode == ReleaseSingle {
		return nil
	}
	switch {
	case r.Mode != ReleaseSporadic:
		return fmt.Errorf("gen: unknown release mode %d", int(r.Mode))
	case r.Count < 1:
		return fmt.Errorf("gen: release count %d < 1", r.Count)
	case r.MinGap < 1:
		return fmt.Errorf("gen: release MinGap %d < 1", r.MinGap)
	case r.Jitter < 0:
		return fmt.Errorf("gen: release Jitter %d < 0", r.Jitter)
	case r.Jitter >= r.MinGap:
		return fmt.Errorf("gen: release Jitter %d >= MinGap %d (releases could collide)", r.Jitter, r.MinGap)
	}
	return nil
}

// ReleaseTimes draws the seeded release-time sequence: tₖ = k·MinGap +
// uₖ with uₖ uniform in [0, Jitter]. The sequence is strictly
// increasing with consecutive gaps of at least MinGap − Jitter.
func ReleaseTimes(rel Release, seed int64) ([]rtime.Time, error) {
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	if rel.Mode == ReleaseSingle {
		return []rtime.Time{0}, nil
	}
	rng := rand.New(rand.NewSource(seed ^ releaseSeedMix))
	times := make([]rtime.Time, rel.Count)
	for k := range times {
		u := rtime.Time(0)
		if rel.Jitter > 0 {
			u = rtime.Time(rng.Int63n(int64(rel.Jitter) + 1))
		}
		times[k] = rtime.Time(k)*rel.MinGap + u
	}
	return times, nil
}

// releaseSeedMix decorrelates the release-time stream from the
// structural stream of the same workload seed.
const releaseSeedMix = 0x2545F4914F6CDD1D

// ExpandReleases unrolls a frozen graph over the given release times:
// release k contributes a full copy of every task with its phase and
// end-to-end deadline shifted by tₖ, and every arc duplicated within
// the release. Copies are release-major — the copy of task i in
// release k has ID k·n + i — so per-release window shifting is a flat
// index computation. The original graph is not modified.
func ExpandReleases(g *taskgraph.Graph, times []rtime.Time) (*taskgraph.Graph, error) {
	if !g.Frozen() {
		return nil, fmt.Errorf("gen: ExpandReleases needs a frozen graph")
	}
	if len(times) == 0 {
		return nil, fmt.Errorf("gen: ExpandReleases needs at least one release time")
	}
	n := g.NumTasks()
	out := taskgraph.NewGraph(g.NumClasses)
	for k, t0 := range times {
		for _, t := range g.Tasks() {
			nt, err := out.AddTask(fmt.Sprintf("%s@%d", t.Name, k),
				append([]rtime.Time(nil), t.WCET...), t.Phase+t0)
			if err != nil {
				return nil, err
			}
			nt.Period = t.Period
			nt.Pinned = t.Pinned
			nt.Resources = append([]int(nil), t.Resources...)
			nt.Criticality = t.Criticality
			nt.Value = t.Value
			if t.ETEDeadline.IsSet() {
				nt.ETEDeadline = t.ETEDeadline + t0
			}
		}
		for _, a := range g.Arcs() {
			if err := out.AddArc(k*n+a.From, k*n+a.To, a.Items); err != nil {
				return nil, err
			}
		}
	}
	if err := out.Freeze(); err != nil {
		return nil, err
	}
	return out, nil
}
