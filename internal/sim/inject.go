package sim

import (
	"fmt"
	"sync"

	"repro/internal/arch"
	"repro/internal/faults"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
)

// Degradation quantifies how far a fault-injected run fell from the
// nominal contract. All deadline accounting is against the *original*
// window assignment: slack reclamation may re-prioritize the
// dispatcher, but it never redefines success.
type Degradation struct {
	// Tasks is the application size (the miss-ratio denominator).
	Tasks int
	// Misses counts tasks that finished after their originally
	// assigned absolute deadline, plus tasks that could not be placed
	// at all.
	Misses int
	// ETEMisses counts output tasks among Misses — end-to-end deadline
	// violations, the failures the application actually observes.
	ETEMisses int
	// MandatoryMisses counts tasks of Mandatory criticality among
	// Misses (including unplaced mandatory tasks). For all-mandatory
	// graphs it equals Misses; the graceful-degradation mode controller
	// treats any non-zero value as an inadmissible frame.
	MandatoryMisses int
	// MeanLateness is the mean positive lateness over missing placed
	// tasks (0 when nothing missed).
	MeanLateness float64
	// MaxLateness is max(fᵢ − Dᵢ) over placed tasks (negative values
	// are margin).
	MaxLateness rtime.Time
	// FirstMiss is the earliest finish time of a missing task
	// (rtime.Unset when nothing missed) — how long the system ran
	// before degrading.
	FirstMiss rtime.Time
	// Overruns counts completed executions that consumed more than
	// their nominal WCET.
	Overruns int
	// Aborted counts executions cut short by a processor failure (the
	// work is lost).
	Aborted int
	// Migrations counts re-dispatches of aborted tasks onto surviving
	// processors (possible because locality is relaxed, §1).
	Migrations int
	// Reclamations counts slack-reclamation events (0 unless
	// Options.Reclaim).
	Reclamations int
	// Unplaced counts tasks that never completed anywhere (e.g. every
	// eligible processor died).
	Unplaced int
}

// MissRatio returns Misses/Tasks in [0, 1].
func (d Degradation) MissRatio() float64 {
	if d.Tasks == 0 {
		return 0
	}
	return float64(d.Misses) / float64(d.Tasks)
}

// InjectedReport is the outcome of executing a schedule under a fault
// trace: the replay verification of the perturbed run, the schedule
// that actually executed, and the degradation accounting.
type InjectedReport struct {
	// Report verifies the executed (not the planned) schedule under the
	// faulted timing model. Under a zero trace it is byte-identical to
	// the nominal Replay report.
	Report
	// Executed is the schedule the fault-aware dispatcher actually
	// produced; under a zero trace it equals the planned schedule for
	// time-driven plans.
	Executed *sched.Schedule
	// Degradation is the miss/lateness accounting against the original
	// assignment.
	Degradation Degradation
}

// Inject executes the planned schedule for graph g on platform p under
// the fault trace in opts.Faults and reports the degradation. The run
// is sched.Execute: the paper's non-preemptive time-driven EDF
// dispatcher, the one sched.Dispatch runs, under the trace's WCET
// overruns or early completions, processor slowdowns and failures, and
// bus jitter, with opts.Reclaim turning on online slack reclamation.
// Deadline misses are always judged against the original assignment.
//
// The planned schedule s is checked only for size: the run dispatches
// afresh from the assignment, and s steers nothing. A nil or zero trace
// with Reclaim off reproduces sched.Dispatch exactly, making injection
// a strict superset of nominal replay. With Reclaim on, a deadline miss
// queues a reclamation even under a zero trace.
//
// The degradation accounting is read off the executed schedule, and
// the executed schedule is replayed under the faulted timing model as a
// self-check: the report's Report half is that replay.
func Inject(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment,
	s *sched.Schedule, opts Options) (*InjectedReport, error) {

	n := g.NumTasks()
	if len(s.Placements) != n {
		return nil, fmt.Errorf("sim: schedule covers %d tasks, graph has %d", len(s.Placements), n)
	}
	if len(asg.Arrival) != n || len(asg.AbsDeadline) != n {
		return nil, fmt.Errorf("sim: assignment covers %d tasks, graph has %d", len(asg.Arrival), n)
	}
	for i := 0; i < n; i++ {
		if !asg.Arrival[i].IsSet() || !asg.AbsDeadline[i].IsSet() {
			return nil, fmt.Errorf("sim: task %d has an unassigned window", i)
		}
	}
	trace := opts.Faults
	if trace == nil {
		trace = faults.ZeroTrace(n, p.M())
	}
	if len(trace.ExecScale) != n || len(trace.Slow) != p.M() {
		return nil, fmt.Errorf("sim: fault trace sized for %d tasks / %d processors, workload has %d / %d",
			len(trace.ExecScale), len(trace.Slow), n, p.M())
	}

	ws := dispatchPool.Get().(*sched.Scratch)
	defer dispatchPool.Put(ws)
	ex, run, err := sched.Execute(g, p, asg, trace, opts.Reclaim, ws)
	if err != nil {
		return nil, err
	}

	// Degradation accounting against the original assignment.
	deg := Degradation{
		Tasks:        n,
		Misses:       len(ex.Missed),
		MaxLateness:  ex.MaxLateness,
		FirstMiss:    rtime.Unset,
		Aborted:      run.Aborted,
		Migrations:   run.Migrations,
		Reclamations: run.Reclamations,
	}
	var latenessSum float64
	for _, i := range ex.Order { // placement order: the sum adds up as the run did
		pl := ex.Placements[i]
		if pl.Finish-pl.Start > g.Task(i).WCET[p.ClassOf(pl.Proc)] {
			deg.Overruns++
		}
		if late := pl.Finish - asg.AbsDeadline[i]; late > 0 {
			latenessSum += float64(late)
			if !deg.FirstMiss.IsSet() || pl.Finish < deg.FirstMiss {
				deg.FirstMiss = pl.Finish
			}
		}
	}
	for _, i := range ex.Missed {
		if len(g.Succs(i)) == 0 { // an output task
			deg.ETEMisses++
		}
		if g.Task(i).Criticality == taskgraph.Mandatory {
			deg.MandatoryMisses++
		}
		if ex.Placements[i].Proc < 0 {
			deg.Unplaced++
		}
	}
	if missedPlaced := deg.Misses - deg.Unplaced; missedPlaced > 0 {
		deg.MeanLateness = latenessSum / float64(missedPlaced)
	}

	// Verify the executed schedule under the faulted timing model: the
	// injected run must satisfy every structural obligation the nominal
	// one does, with the perturbed execution times, effective arrivals,
	// and jittered messages as the expectations.
	lossy := false
	for _, d := range trace.DownAt {
		if d < rtime.Infinity {
			lossy = true
			break
		}
	}
	tm := timing{
		exec: func(i, q int) rtime.Time {
			return trace.Exec(i, q, g.Task(i).WCET[p.ClassOf(q)])
		},
		arrival:  func(i int) rtime.Time { return run.Arrival[i] },
		extraMsg: trace.ExtraMsg,
		// Tasks stranded by a processor loss are degradation, not a
		// structural violation; without loss the nominal rule applies,
		// preserving zero-trace identity.
		allowUnplaced: lossy,
	}
	rep, err := replay(g, p, asg, ex, opts, tm)
	if err != nil {
		return nil, err
	}
	return &InjectedReport{Report: *rep, Executed: ex, Degradation: deg}, nil
}

// dispatchPool holds Inject's dispatcher scratch; nothing reachable
// from an InjectedReport aliases it.
var dispatchPool = sync.Pool{New: func() any { return new(sched.Scratch) }}
