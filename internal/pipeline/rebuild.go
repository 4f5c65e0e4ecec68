package pipeline

import (
	"context"
	"fmt"

	"repro/internal/deadline"
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
	// DeltaTaskEstimate changes a single task's WCET estimate.
	DeltaTaskEstimate
	// DeltaWindows overrides some tasks' windows (fault-adjusted
	// corridors) and replays the rest of the previous assignment
	// verbatim, skipping the slicer entirely.
	DeltaWindows
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
	case DeltaTaskEstimate:
		return "task-estimate"
	case DeltaWindows:
		return "windows"
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

	// Task and Estimate are the single changed entry (DeltaTaskEstimate).
	Task     int
	Estimate rtime.Time

	// Arrival and AbsDeadline are per-task window overrides
	// (DeltaWindows); rtime.Unset entries keep the previous plan's
	// window. Either slice may be nil (no overrides on that edge).
	Arrival     []rtime.Time
	AbsDeadline []rtime.Time

	// Spec is the replacement workload (DeltaWorkload).
	Spec Spec
}

// EstimatesDelta declares a full estimate-vector replacement.
func EstimatesDelta(est []rtime.Time) Delta {
	return Delta{Kind: DeltaEstimates, Estimates: est}
}

// TaskEstimateDelta declares a single-task WCET change.
func TaskEstimateDelta(task int, est rtime.Time) Delta {
	return Delta{Kind: DeltaTaskEstimate, Task: task, Estimate: est}
}

// WindowsDelta declares per-task window overrides; Unset entries (or a
// nil slice) keep the previous plan's values.
func WindowsDelta(arrival, absDeadline []rtime.Time) Delta {
	return Delta{Kind: DeltaWindows, Arrival: arrival, AbsDeadline: absDeadline}
}

// WorkloadDelta declares a workload replacement; Rebuild degenerates to
// a full build of spec.
func WorkloadDelta(spec Spec) Delta {
	return Delta{Kind: DeltaWorkload, Spec: spec}
}

// WindowError reports a malformed window set produced by a DeltaWindows
// override: a window the overrides gave negative length, a precedence
// overlap the overrides introduced (a predecessor's deadline pushed past
// its successor's arrival when the previous plan had them ordered), or
// an overridden deadline past the workload's end-to-end horizon. It is
// returned unwrapped so callers can errors.As on it and surface the
// offending task instead of retrying the rebuild.
type WindowError struct {
	// Reason is "negative-length", "overlap", or "out-of-horizon".
	Reason string
	// Task is the offending task (the successor for overlap errors).
	Task int
	// Pred is the predecessor task for overlap errors, -1 otherwise.
	Pred int
	// Window is the offending merged window. For overlap errors it is
	// the predecessor's window, whose Deadline exceeds the successor's
	// arrival.
	Window rtime.Window
	// Horizon is the end-to-end deadline bound for out-of-horizon
	// errors, rtime.Unset otherwise.
	Horizon rtime.Time
}

// Error implements error.
func (e *WindowError) Error() string {
	switch e.Reason {
	case "negative-length":
		return fmt.Sprintf("pipeline: window override gives task %d negative-length window %v", e.Task, e.Window)
	case "overlap":
		return fmt.Sprintf("pipeline: window override makes predecessor %d (window %v) overlap successor %d", e.Pred, e.Window, e.Task)
	case "out-of-horizon":
		return fmt.Sprintf("pipeline: window override pushes task %d (window %v) past the end-to-end horizon %d", e.Task, e.Window, e.Horizon)
	}
	return fmt.Sprintf("pipeline: malformed window override (%s) on task %d", e.Reason, e.Task)
}

// validateWindows rejects malformed merged windows after a DeltaWindows
// override. Only damage the overrides introduce is an error: windows the
// previous plan already held are trusted (UD/ED-style distributions
// legitimately overlap across independent tasks), so overlap is checked
// along precedence arcs only and only where the previous plan had the
// pair ordered, and the length/horizon checks run on overridden tasks
// only.
func validateWindows(prev *Plan, delta Delta, arr, dl []rtime.Time) error {
	overridden := func(i int) bool {
		return (delta.Arrival != nil && delta.Arrival[i].IsSet()) ||
			(delta.AbsDeadline != nil && delta.AbsDeadline[i].IsSet())
	}
	horizon := rtime.Unset
	for _, t := range prev.Graph.Tasks() {
		if t.ETEDeadline.IsSet() && (!horizon.IsSet() || t.ETEDeadline > horizon) {
			horizon = t.ETEDeadline
		}
	}
	for i := range arr {
		if !overridden(i) {
			continue
		}
		w := rtime.Window{Arrival: arr[i], Deadline: dl[i]}
		if dl[i] < arr[i] {
			return &WindowError{Reason: "negative-length", Task: i, Pred: -1, Window: w, Horizon: rtime.Unset}
		}
		if horizon.IsSet() && dl[i] > horizon {
			return &WindowError{Reason: "out-of-horizon", Task: i, Pred: -1, Window: w, Horizon: horizon}
		}
	}
	pArr, pDl := prev.Assignment.Arrival, prev.Assignment.AbsDeadline
	for _, a := range prev.Graph.Arcs() {
		if dl[a.From] > arr[a.To] && pDl[a.From] <= pArr[a.To] {
			return &WindowError{
				Reason: "overlap", Task: a.To, Pred: a.From,
				Window:  rtime.Window{Arrival: arr[a.From], Deadline: dl[a.From]},
				Horizon: rtime.Unset,
			}
		}
	}
	return nil
}

// RebuildOutcome reports how a Rebuild was satisfied.
type RebuildOutcome int

const (
	// RebuildHit: the plan was already resident in the cache.
	RebuildHit RebuildOutcome = iota
	// RebuildIncremental: the plan was rebuilt off the previous one,
	// reusing its workload fingerprint, its estimator output (for every
	// delta but DeltaWorkload) and, for DeltaWindows, its assignment in
	// place of the slicer.
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
// workload fingerprint, the previous estimator output (the estimator
// never re-runs), and for DeltaWindows the previous assignment, which
// replaces the slicer. Cache and recorder behavior match BuildContext's:
// hits coalesce and are reported as RebuildHit.
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
	case DeltaTaskEstimate:
		if delta.Task < 0 || delta.Task >= n {
			return nil, RebuildFull, fmt.Errorf("pipeline: task %d outside graph of %d", delta.Task, n)
		}
		est = append([]rtime.Time(nil), prev.Estimates...)
		est[delta.Task] = delta.Estimate
		estHash = hashTimes(est)
	case DeltaWindows:
		est = prev.Estimates
		estHash = prev.Key.Estimates
	default:
		return nil, RebuildFull, fmt.Errorf("pipeline: unknown delta kind %v", delta.Kind)
	}

	// Resolve the distributor: window deltas replay the previous
	// assignment's windows (with overrides) through deadline.Fixed and
	// skip the slicer; everything else re-slices under the builder's
	// configured distributor.
	var dist deadline.Distributor
	if delta.Kind == DeltaWindows {
		if prev.Assignment == nil {
			return nil, RebuildFull, fmt.Errorf("pipeline: previous plan carries no assignment")
		}
		if (delta.Arrival != nil && len(delta.Arrival) != n) ||
			(delta.AbsDeadline != nil && len(delta.AbsDeadline) != n) {
			return nil, RebuildFull, fmt.Errorf("pipeline: window overrides cover %d/%d tasks, graph has %d",
				len(delta.Arrival), len(delta.AbsDeadline), n)
		}
		arr := append([]rtime.Time(nil), prev.Assignment.Arrival...)
		dl := append([]rtime.Time(nil), prev.Assignment.AbsDeadline...)
		for i := 0; i < n; i++ {
			if delta.Arrival != nil && delta.Arrival[i].IsSet() {
				arr[i] = delta.Arrival[i]
			}
			if delta.AbsDeadline != nil && delta.AbsDeadline[i].IsSet() {
				dl[i] = delta.AbsDeadline[i]
			}
		}
		if err := validateWindows(prev, delta, arr, dl); err != nil {
			return nil, RebuildFull, err
		}
		dist = deadline.Fixed{Arrival: arr, AbsDeadline: dl}
	} else {
		dist = b.distributor()
	}

	// Same graph and platform: reuse the fingerprint.
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
