package sched

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/faults"
	"repro/internal/rtime"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
)

// Dispatch simulates the non-preemptive, time-driven task dispatching
// strategy of the paper (§1, §3.3) and is the baseline scheduler of the
// experiments: a work-conserving run-time dispatcher that, whenever a
// processor is idle, starts the ready task with the closest absolute
// deadline.
//
// A task is dispatchable on processor q at time t when its arrival time
// has been reached, all its predecessors have finished, and their
// messages have landed on q (finish + bus cost for remote predecessors).
// Unlike EDF (the planning variant in this package), the dispatcher has
// no lookahead: an idle processor takes the best currently-ready task
// even if a more urgent one arrives a moment later — the classic
// non-preemptive anomaly, and a genuine source of deadline misses that
// the deadline-distribution metrics compete to avoid.
func Dispatch(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment) (*Schedule, error) {
	return DispatchScratch(g, p, asg, EDFPolicy, nil)
}

// DispatchWith is Dispatch under an alternative dispatch policy (§7.3's
// policy axis): the same work-conserving time-driven dispatcher, with
// the ready-task selection rule swapped.
func DispatchWith(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, policy Policy) (*Schedule, error) {
	return DispatchScratch(g, p, asg, policy, nil)
}

// DispatchScratch is DispatchWith running over reusable scratch memory
// (nil allocates internally). The schedule is identical for any scratch
// state and never aliases it.
func DispatchScratch(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, policy Policy, ws *Scratch) (*Schedule, error) {
	s, _, err := dispatch(g, p, asg, policy, nil, false, ws)
	return s, err
}

// Execution is what a run under a fault trace reports beyond its
// schedule: the activity no placement records.
type Execution struct {
	// Aborted counts executions cut short by a processor failure.
	Aborted int
	// Migrations counts aborted tasks that later completed on another
	// processor.
	Migrations int
	// Reclamations counts slack-reclamation events.
	Reclamations int
	// Arrival is every task's effective arrival: the assigned one,
	// unless slack reclamation relaxed it. It aliases the scratch the
	// run used and is valid until that scratch is next used.
	Arrival []rtime.Time
}

// Execute runs Dispatch under the fault trace tr (nil runs nominal):
//
//   - tasks execute for their trace-perturbed time (WCET overruns,
//     class slowdown, or early completion under a scale below 1) while
//     the dispatcher keeps deciding with nominal WCET knowledge — it
//     cannot foresee either; an early finish can break a feasible
//     schedule (the Graham anomaly);
//   - a processor accepts no work from its failure instant on, and the
//     task it is running at that instant is aborted (work lost) and
//     re-dispatched on a surviving eligible processor, exploiting the
//     relaxed locality assumption;
//   - remote messages land late by their jitter.
//
// With reclaim, each deadline miss against the run's current deadlines
// triggers the online slack-reclamation policy when the task finishes:
// the remaining end-to-end slack is redistributed over the task's
// pending descendants using the active metric's virtual costs
// (slicing.ReclaimWindows), which re-prioritizes subsequent EDF
// decisions and relaxes stale arrival gates. Deadline misses are always
// judged against asg. With a nil trace and reclaim off the schedule is
// Dispatch's.
func Execute(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, tr *faults.Trace, reclaim bool, ws *Scratch) (*Schedule, Execution, error) {
	return dispatch(g, p, asg, EDFPolicy, tr, reclaim, ws)
}

// dispatch is the one time-driven dispatcher behind DispatchScratch and
// Execute.
//
// Readiness is tracked incrementally instead of rescanning predecessors:
// landing[i·m+q] carries the latest message-landing time of task i on
// processor q, folded in once per arc as predecessors are placed, and
// predsLeft[i] counts unfinished predecessors. The ready list holds
// exactly the tasks not done whose counter is zero; an aborted task
// stays in it. A ready task is dispatchable on q once
// max(gate(i), landing[i·m+q]) has been reached. The gate (arrival,
// abort gate, resource floor) is computed live, because reclamation
// lowers arrivals and an abort raises the gate after a task became
// ready.
func dispatch(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, policy Policy,
	tr *faults.Trace, reclaim bool, ws *Scratch) (*Schedule, Execution, error) {

	var run Execution
	n, m := g.NumTasks(), p.M()
	if len(asg.Arrival) != n || len(asg.AbsDeadline) != n {
		return nil, run, fmt.Errorf("sched: assignment covers %d tasks, graph has %d", len(asg.Arrival), n)
	}
	for i := 0; i < n; i++ {
		if !asg.Arrival[i].IsSet() || !asg.AbsDeadline[i].IsSet() {
			return nil, run, fmt.Errorf("sched: task %d has an unassigned window", i)
		}
	}
	if tr != nil && (len(tr.ExecScale) != n || len(tr.Slow) != m) {
		return nil, run, fmt.Errorf("sched: fault trace sized for %d tasks / %d processors, workload has %d / %d",
			len(tr.ExecScale), len(tr.Slow), n, m)
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
	ws.ensure(g, asg, n, m)
	procFree, resFree := ws.procFree, ws.resFree
	done, minC := ws.done, ws.minC
	predsLeft, landing := ws.predsLeft, ws.landing
	dl, arr, blockedUntil, aborted := ws.dl, ws.arr, ws.blockedUntil, ws.aborted
	run.Arrival = arr
	placed := 0

	// Screen out tasks that can never run; minC feeds the LLF policy's
	// dynamic laxity.
	present := p.ClassesPresent()
	for i := 0; i < n; i++ {
		minC[i] = rtime.Infinity
		if pin := g.Task(i).Pinned; pin >= 0 {
			if pin < m {
				if c := g.Task(i).WCET[p.ClassOf(pin)]; c.IsSet() {
					minC[i] = c
				}
			}
		} else {
			for k, c := range g.Task(i).WCET {
				if c.IsSet() && k < len(present) && present[k] && c < minC[i] {
					minC[i] = c
				}
			}
		}
		if minC[i] == rtime.Infinity {
			s.Feasible = false
			s.Missed = append(s.Missed, i)
			done[i] = true // treat as absent; successors become stuck too
			placed++
			// An unplaceable predecessor never finishes and never sends:
			// successors wait on it no further (they are doomed to stall
			// at Infinity unless every other input lands).
			for _, u := range g.Succs(i) {
				predsLeft[u]--
			}
		}
	}

	// dead reports whether processor q has failed by instant at.
	dead := func(q int, at rtime.Time) bool { return tr != nil && tr.DownAt[q] <= at }

	// gate is the processor-independent part of task i's readiness: its
	// effective arrival, its abort gate and the release of the latest
	// exclusive resource it needs.
	gate := func(i int) rtime.Time {
		t := rtime.Max(arr[i], blockedUntil[i])
		for _, res := range g.Task(i).Resources {
			if resFree[res] > t {
				t = resFree[res]
			}
		}
		return t
	}

	// Pending reclamations: a miss is only observable when the task
	// finishes, so its recovery applies at that instant.
	type reclaimEvent struct {
		at   rtime.Time
		task int
	}
	var reclaims []reclaimEvent
	applyReclaims := func(now rtime.Time) {
		for k := 0; k < len(reclaims); {
			ev := reclaims[k]
			if ev.at > now {
				k++
				continue
			}
			reclaims = append(reclaims[:k], reclaims[k+1:]...)
			pending := make([]bool, n)
			any := false
			for j := 0; j < n; j++ {
				if !done[j] && g.Reaches(ev.task, j) {
					pending[j] = true
					any = true
				}
			}
			if !any {
				continue
			}
			nd, ok := slicing.ReclaimWindows(g, asg.Virtual, pending, ev.at, asg.AbsDeadline)
			if !ok {
				continue
			}
			run.Reclamations++
			for j := 0; j < n; j++ {
				if !pending[j] {
					continue
				}
				dl[j] = nd[j]
				if arr[j] > ev.at {
					arr[j] = ev.at // the stale arrival gate is reclaimed too
				}
			}
		}
	}

	// The selection rule (policy key, then task id) is a strict total
	// order, so scanning the ready list instead of all n tasks cannot
	// change the winner.
	ready := ws.ready[:0]
	for i := 0; i < n; i++ {
		if !done[i] && predsLeft[i] == 0 {
			ready = append(ready, i)
		}
	}

	now := rtime.Time(0)
	for placed < n {
		if reclaim {
			applyReclaims(now)
		}
		// Dispatch loop at the current instant: repeatedly take the
		// policy's most urgent task that is dispatchable on an idle,
		// surviving processor.
		for {
			bestTask, bestProc, bestIdx := -1, -1, -1
			var bestFinish rtime.Time
			for ri, i := range ready {
				// Skip unless strictly better under the policy before
				// probing processors.
				if bestTask >= 0 {
					ki := policy.key(asg, dl, i, now, minC[i])
					kb := policy.key(asg, dl, bestTask, now, minC[bestTask])
					if ki > kb || (ki == kb && i > bestTask) {
						continue
					}
				}
				if gate(i) > now {
					continue
				}
				task := g.Task(i)
				base := i * m
				tProc, tFinish := -1, rtime.Time(0)
				for q := 0; q < m; q++ {
					if task.Pinned >= 0 && q != task.Pinned {
						continue
					}
					if dead(q, now) || procFree[q] > now || landing[base+q] > now {
						continue
					}
					class := p.ClassOf(q)
					if !task.EligibleOn(class) {
						continue
					}
					// Processor choice uses worst-case knowledge: the
					// dispatcher cannot foresee overruns or slowdowns.
					finish := now + task.WCET[class]
					if tProc < 0 || finish < tFinish {
						tProc, tFinish = q, finish
					}
				}
				if tProc >= 0 {
					bestTask, bestProc, bestFinish, bestIdx = i, tProc, tFinish, ri
				}
			}
			if bestTask < 0 {
				break
			}
			task := g.Task(bestTask)
			finish := bestFinish
			if tr != nil {
				finish = now + tr.Exec(bestTask, bestProc, bestFinish-now)
				if down := tr.DownAt[bestProc]; down < finish {
					// The processor dies mid-execution: the work is lost
					// and the task must be re-dispatched elsewhere.
					run.Aborted++
					aborted[bestTask] = true
					blockedUntil[bestTask] = down
					procFree[bestProc] = down
					for _, res := range task.Resources {
						resFree[res] = down
					}
					continue
				}
				if aborted[bestTask] {
					run.Migrations++
					aborted[bestTask] = false
				}
			}
			s.Placements[bestTask] = Placement{Proc: bestProc, Start: now, Finish: finish}
			procFree[bestProc] = finish
			for _, res := range task.Resources {
				resFree[res] = finish
			}
			done[bestTask] = true
			placed++
			ready[bestIdx] = ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			if s.Order == nil { // a run that places nothing keeps a nil Order
				s.Order = make([]int, 0, n)
			}
			s.Order = append(s.Order, bestTask)
			// Fold the new messages into the successors' landing
			// times: one arc lookup and one jitter lookup per arc.
			for _, u := range g.Succs(bestTask) {
				predsLeft[u]--
				if predsLeft[u] == 0 && !done[u] {
					ready = append(ready, u)
				}
				items := g.MessageItems(bestTask, u)
				var jitter rtime.Time
				if tr != nil {
					jitter = tr.ExtraMsg(bestTask, u)
				}
				ub := u * m
				for q := 0; q < m; q++ {
					arrive := finish + p.CommCost(bestProc, q, items)
					if q != bestProc {
						arrive += jitter
					}
					if arrive > landing[ub+q] {
						landing[ub+q] = arrive
					}
				}
			}
			if finish > s.Makespan {
				s.Makespan = finish
			}
			late := finish - asg.AbsDeadline[bestTask]
			if late > s.MaxLateness {
				s.MaxLateness = late
			}
			if late > 0 {
				s.Feasible = false
				s.Missed = append(s.Missed, bestTask)
			}
			if reclaim && finish > dl[bestTask] {
				reclaims = append(reclaims, reclaimEvent{at: finish, task: bestTask})
			}
		}
		if placed == n {
			break
		}

		// Advance to the next instant anything can change: a surviving
		// processor frees, a ready task's gate opens or a message lands,
		// or a queued recovery event relaxes an arrival gate.
		next := rtime.Infinity
		for q := 0; q < m; q++ {
			if !dead(q, now) && procFree[q] > now && procFree[q] < next {
				next = procFree[q]
			}
		}
		for _, i := range ready {
			task := g.Task(i)
			floor := gate(i)
			base := i * m
			for q := 0; q < m; q++ {
				if task.Pinned >= 0 && q != task.Pinned {
					continue
				}
				if !task.EligibleOn(p.ClassOf(q)) || dead(q, now) {
					continue // a dead q never hosts i again
				}
				r := rtime.Max(floor, landing[base+q])
				if r > now && r < next {
					next = r
				}
			}
		}
		for _, ev := range reclaims {
			if ev.at > now && ev.at < next {
				next = ev.at
			}
		}
		if next == rtime.Infinity {
			// Remaining tasks can never run (stuck behind unplaceable
			// predecessors, or every eligible processor died).
			for i := 0; i < n; i++ {
				if !done[i] {
					done[i] = true
					placed++
					s.Feasible = false
					s.Missed = append(s.Missed, i)
				}
			}
			break
		}
		now = next
	}
	sort.Ints(s.Missed)
	return s, run, nil
}
