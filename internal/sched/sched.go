// Package sched implements the baseline task-assignment and scheduling
// strategy of §5.4: a list-scheduling version of the earliest-deadline-
// first (EDF) algorithm for a heterogeneous multiprocessor with a
// non-preemptive, time-driven dispatching strategy.
//
// At each scheduling step the algorithm selects, from all ready tasks
// (tasks whose predecessors have all been scheduled), the one with the
// closest absolute deadline, and places it on the available processor
// that yields the earliest start time, taking into account per-class
// execution times, class eligibility, interprocessor communication cost
// over the shared bus, and the task's arrival-time constraint. The
// complexity is O(n²·m) for n tasks and m processors.
//
// Dispatch is the run-time counterpart the paper scores every metric
// with: a work-conserving, non-preemptive time-driven dispatcher with
// no lookahead. It is the only time-driven dispatcher in the
// repository. Execute runs it under a fault trace (overruns, processor
// loss, bus jitter) and optional slack reclamation; sim.Inject and the
// robustness studies execute plans through it, and with no trace it is
// Dispatch.
package sched

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/rtime"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
)

// Placement records where and when one task executes.
type Placement struct {
	Proc   int // processor ID, -1 if the task could not be placed
	Start  rtime.Time
	Finish rtime.Time
}

// Schedule is a complete time-driven, non-preemptive multiprocessor
// schedule: each task is mapped to a start time and a processor (§3.3).
type Schedule struct {
	// Placements is indexed by task ID.
	Placements []Placement
	// Feasible reports that every task was placed and finished no later
	// than its assigned absolute deadline.
	Feasible bool
	// Missed lists the IDs of tasks that missed their deadline or could
	// not be placed at all, in increasing ID order.
	Missed []int
	// MaxLateness is max(fᵢ − Dᵢ) over all placed tasks (§4.2): a
	// non-positive value for a valid schedule measures "how far" from
	// infeasibility the schedule is. Unplaceable tasks do not contribute.
	MaxLateness rtime.Time
	// Makespan is the latest finish time over all placed tasks.
	Makespan rtime.Time
	// Order is the EDF dispatch order (task IDs as selected).
	Order []int
}

// LatenessOf returns fᵢ − Dᵢ for a placed task i.
func (s *Schedule) LatenessOf(i int, deadline rtime.Time) rtime.Time {
	return s.Placements[i].Finish - deadline
}

// EDF builds the schedule for graph g on platform p under the
// arrival-time and deadline assignment asg. The sched package does not
// care how the assignment was produced; any assignment with one window
// per task works.
func EDF(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment) (*Schedule, error) {
	return EDFScratch(g, p, asg, nil)
}

// EDFScratch is EDF running over reusable scratch memory (nil allocates
// internally). The schedule is identical for any scratch state and never
// aliases it.
func EDFScratch(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, ws *Scratch) (*Schedule, error) {
	n := g.NumTasks()
	if len(asg.Arrival) != n || len(asg.AbsDeadline) != n {
		return nil, fmt.Errorf("sched: assignment covers %d tasks, graph has %d", len(asg.Arrival), n)
	}
	for i := 0; i < n; i++ {
		if !asg.Arrival[i].IsSet() || !asg.AbsDeadline[i].IsSet() {
			return nil, fmt.Errorf("sched: task %d has an unassigned window", i)
		}
	}

	s := &Schedule{
		Placements:  make([]Placement, n),
		Feasible:    true,
		MaxLateness: -rtime.Infinity,
	}
	for i := range s.Placements {
		s.Placements[i] = Placement{Proc: -1}
	}

	if ws == nil {
		ws = &Scratch{}
	}
	ws.ensureList(g, n, p.M())
	procFree, resFree := ws.procFree, ws.resFree
	unscheduledPreds := ws.predsLeft
	ready := ws.ready
	for i := 0; i < n; i++ {
		unscheduledPreds[i] = int32(len(g.Preds(i)))
		if unscheduledPreds[i] == 0 {
			ready = append(ready, i)
		}
	}

	scheduled := 0
	for len(ready) > 0 {
		// EDF selection: closest absolute deadline; ties break on the
		// earlier arrival, then the lower ID, for determinism.
		sel := 0
		for j := 1; j < len(ready); j++ {
			a, b := ready[j], ready[sel]
			switch {
			case asg.AbsDeadline[a] < asg.AbsDeadline[b]:
				sel = j
			case asg.AbsDeadline[a] == asg.AbsDeadline[b] && asg.Arrival[a] < asg.Arrival[b]:
				sel = j
			case asg.AbsDeadline[a] == asg.AbsDeadline[b] && asg.Arrival[a] == asg.Arrival[b] && a < b:
				sel = j
			}
		}
		t := ready[sel]
		ready = append(ready[:sel], ready[sel+1:]...)
		task := g.Task(t)

		// Pick the eligible processor with the earliest start time;
		// ties break on the earlier finish (heterogeneity), then the
		// lower processor ID.
		bestProc := -1
		var bestStart, bestFinish rtime.Time
		for q := 0; q < p.M(); q++ {
			if task.Pinned >= 0 && q != task.Pinned {
				continue // strict locality constraint (§1)
			}
			class := p.ClassOf(q)
			if !task.EligibleOn(class) {
				continue
			}
			start := rtime.Max(procFree[q], asg.Arrival[t])
			for _, pr := range g.Preds(t) {
				pl := s.Placements[pr]
				if pl.Proc < 0 {
					continue // unplaceable predecessor; precedence moot
				}
				arrive := pl.Finish + p.CommCost(pl.Proc, q, g.MessageItems(pr, t))
				if arrive > start {
					start = arrive
				}
			}
			for _, res := range task.Resources {
				if resFree[res] > start {
					start = resFree[res]
				}
			}
			finish := start + task.WCET[class]
			if bestProc < 0 || start < bestStart ||
				(start == bestStart && finish < bestFinish) {
				bestProc, bestStart, bestFinish = q, start, finish
			}
		}

		if bestProc < 0 {
			// No processor of an eligible class exists: unschedulable.
			s.Feasible = false
			s.Missed = append(s.Missed, t)
		} else {
			s.Placements[t] = Placement{Proc: bestProc, Start: bestStart, Finish: bestFinish}
			procFree[bestProc] = bestFinish
			for _, res := range task.Resources {
				resFree[res] = bestFinish
			}
			if bestFinish > s.Makespan {
				s.Makespan = bestFinish
			}
			late := bestFinish - asg.AbsDeadline[t]
			if late > s.MaxLateness {
				s.MaxLateness = late
			}
			if late > 0 {
				s.Feasible = false
				s.Missed = append(s.Missed, t)
			}
		}
		s.Order = append(s.Order, t)
		scheduled++

		for _, u := range g.Succs(t) {
			unscheduledPreds[u]--
			if unscheduledPreds[u] == 0 {
				ready = append(ready, u)
			}
		}
	}
	if scheduled != n {
		return nil, fmt.Errorf("sched: scheduled %d of %d tasks (precedence cycle?)", scheduled, n)
	}
	sort.Ints(s.Missed)
	return s, nil
}

// Verify independently checks a schedule against the graph, the platform
// and the assignment: processor exclusivity (non-preemptive, one task at
// a time), class eligibility, arrival-time respect, precedence plus
// communication delays, and WCET-exact execution. It is used by tests
// and by the sim package's replay as a second opinion on the scheduler.
func Verify(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, s *Schedule) error {
	n := g.NumTasks()
	type span struct {
		t     int
		start rtime.Time
		end   rtime.Time
	}
	perProc := make([][]span, p.M())
	for i := 0; i < n; i++ {
		pl := s.Placements[i]
		if pl.Proc < 0 {
			continue
		}
		if pl.Proc >= p.M() {
			return fmt.Errorf("sched: task %d on missing processor %d", i, pl.Proc)
		}
		class := p.ClassOf(pl.Proc)
		if !g.Task(i).EligibleOn(class) {
			return fmt.Errorf("sched: task %d placed on ineligible class %d", i, class)
		}
		if pin := g.Task(i).Pinned; pin >= 0 && pl.Proc != pin {
			return fmt.Errorf("sched: task %d pinned to processor %d but placed on %d", i, pin, pl.Proc)
		}
		if pl.Finish-pl.Start != g.Task(i).WCET[class] {
			return fmt.Errorf("sched: task %d runs %d units, WCET is %d",
				i, pl.Finish-pl.Start, g.Task(i).WCET[class])
		}
		if pl.Start < asg.Arrival[i] {
			return fmt.Errorf("sched: task %d starts at %d before arrival %d",
				i, pl.Start, asg.Arrival[i])
		}
		perProc[pl.Proc] = append(perProc[pl.Proc], span{i, pl.Start, pl.Finish})
	}
	for q, spans := range perProc {
		sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
		for i := 1; i < len(spans); i++ {
			if spans[i].start < spans[i-1].end {
				return fmt.Errorf("sched: processor %d runs tasks %d and %d concurrently",
					q, spans[i-1].t, spans[i].t)
			}
		}
	}
	for _, a := range g.Arcs() {
		from, to := s.Placements[a.From], s.Placements[a.To]
		if from.Proc < 0 || to.Proc < 0 {
			continue
		}
		need := from.Finish + p.CommCost(from.Proc, to.Proc, a.Items)
		if to.Start < need {
			return fmt.Errorf("sched: task %d starts at %d before message from %d lands at %d",
				a.To, to.Start, a.From, need)
		}
	}
	return verifyResources(g, s)
}
