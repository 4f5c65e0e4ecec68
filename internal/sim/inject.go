package sim

import (
	"fmt"
	"sort"
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
// the fault trace in opts.Faults and reports the degradation. The
// execution model is the paper's non-preemptive time-driven EDF
// dispatcher (the same run-time system sched.Dispatch simulates), with
// run-time deviations applied:
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
// With opts.Reclaim, each observed overrun triggers the online
// slack-reclamation policy: the remaining end-to-end slack is
// redistributed over the overrunning task's pending descendants using
// the active metric's virtual costs (slicing.ReclaimWindows), which
// re-prioritizes subsequent EDF decisions and relaxes stale arrival
// gates. Deadline misses are always judged against the original
// assignment.
//
// The planned schedule s is checked only for size: the run dispatches
// afresh from the assignment, and s steers nothing. Under a zero trace
// the injected execution reproduces sched.Dispatch exactly, making
// injection a strict superset of nominal replay.
//
// Readiness is tracked incrementally, as in sched.DispatchScratch: a
// ready list holds the tasks whose predecessors are all placed, and
// each predecessor's (jittered) message landing on every processor is
// folded into a landing table once, when it is placed. Only the ready
// list is scanned per decision. The report is identical to the one a
// full rescan of every task and predecessor per decision produces.
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

	ex := &sched.Schedule{
		Placements:  make([]sched.Placement, n),
		Feasible:    true,
		MaxLateness: -rtime.Infinity,
	}
	for i := range ex.Placements {
		ex.Placements[i] = sched.Placement{Proc: -1}
	}
	var deg Degradation
	deg.Tasks = n
	deg.FirstMiss = rtime.Unset

	m := p.M()
	ws := injectPool.Get().(*injectScratch)
	defer injectPool.Put(ws)
	ws.ensure(g, asg, n, m)
	procFree, resFree := ws.procFree, ws.resFree
	done, wasAborted := ws.done, ws.wasAborted
	predsLeft, landing := ws.predsLeft, ws.landing
	placed := 0

	// Dynamic state the faults and the recovery policy evolve: EDF
	// deadlines, effective arrivals, and the earliest re-dispatch time
	// of aborted tasks.
	dl, arr, blockedUntil := ws.dl, ws.arr, ws.blockedUntil

	// Pending reclamations: an overrun is only observable when the task
	// finishes, so its recovery applies at that instant, not at the
	// dispatch instant the simulator learns the outcome.
	type reclaimEvent struct {
		at   rtime.Time
		task int
	}
	var reclaims []reclaimEvent

	// The dispatcher's a-priori screen, as in sched.Dispatch: tasks
	// with no eligible processor at all can never run.
	present := p.ClassesPresent()
	for i := 0; i < n; i++ {
		ok := false
		if pin := g.Task(i).Pinned; pin >= 0 {
			if pin < m && g.Task(i).WCET[p.ClassOf(pin)].IsSet() {
				ok = true
			}
		} else {
			for k, c := range g.Task(i).WCET {
				if c.IsSet() && k < len(present) && present[k] {
					ok = true
					break
				}
			}
		}
		if !ok {
			ex.Feasible = false
			ex.Missed = append(ex.Missed, i)
			done[i] = true
			placed++
			// A screened task never runs and never sends: its
			// successors wait on it no further (they are doomed anyway).
			for _, u := range g.Succs(i) {
				predsLeft[u]--
			}
		}
	}

	dead := func(q int, at rtime.Time) bool { return trace.DownAt[q] <= at }

	// gate is the processor-independent part of task i's readiness: its
	// effective arrival, its abort gate and the release of the latest
	// exclusive resource it needs. Reclamation lowers arr and an abort
	// raises blockedUntil after the task became ready, so neither is
	// folded into landing; a ready task is dispatchable on q once
	// max(gate(i), landing[i·m+q]) has been reached.
	gate := func(i int) rtime.Time {
		t := rtime.Max(arr[i], blockedUntil[i])
		for _, res := range g.Task(i).Resources {
			if resFree[res] > t {
				t = resFree[res]
			}
		}
		return t
	}

	// The ready list holds exactly the tasks not done whose predecessors
	// are all placed; aborted tasks stay in it. The selection rule
	// (deadline, then task id) is a strict total order, so scanning it
	// instead of all n tasks cannot change the winner.
	ready := ws.ready[:0]
	for i := 0; i < n; i++ {
		if !done[i] && predsLeft[i] == 0 {
			ready = append(ready, i)
		}
	}

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
			deg.Reclamations++
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

	var latenessSum float64
	now := rtime.Time(0)
	for placed < n {
		if opts.Reclaim {
			applyReclaims(now)
		}
		// Dispatch loop at the current instant: repeatedly take the
		// EDF-closest (under the possibly reclaimed deadlines) task
		// that is dispatchable on an idle, surviving processor.
		for {
			bestTask, bestProc, bestIdx := -1, -1, -1
			for ri, i := range ready {
				if bestTask >= 0 {
					if dl[i] > dl[bestTask] || (dl[i] == dl[bestTask] && i > bestTask) {
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
					bestTask, bestProc, bestIdx = i, tProc, ri
				}
			}
			if bestTask < 0 {
				break
			}
			task := g.Task(bestTask)
			class := p.ClassOf(bestProc)
			nominal := task.WCET[class]
			actual := trace.Exec(bestTask, bestProc, nominal)
			finish := now + actual
			if down := trace.DownAt[bestProc]; down < finish {
				// The processor dies mid-execution: the work is lost
				// and the task must be re-dispatched elsewhere.
				deg.Aborted++
				wasAborted[bestTask] = true
				blockedUntil[bestTask] = down
				procFree[bestProc] = down
				for _, res := range task.Resources {
					resFree[res] = down
				}
				continue
			}
			if wasAborted[bestTask] {
				deg.Migrations++
				wasAborted[bestTask] = false
			}
			if actual > nominal {
				deg.Overruns++
			}
			ex.Placements[bestTask] = sched.Placement{Proc: bestProc, Start: now, Finish: finish}
			procFree[bestProc] = finish
			for _, res := range task.Resources {
				resFree[res] = finish
			}
			done[bestTask] = true
			placed++
			ready[bestIdx] = ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			if ex.Order == nil { // a run that places nothing keeps a nil Order
				ex.Order = make([]int, 0, n)
			}
			ex.Order = append(ex.Order, bestTask)
			// Fold the new messages into the successors' landing
			// times: one arc lookup and one jitter lookup per arc.
			for _, u := range g.Succs(bestTask) {
				predsLeft[u]--
				if predsLeft[u] == 0 && !done[u] {
					ready = append(ready, u)
				}
				items, jitter := g.MessageItems(bestTask, u), trace.ExtraMsg(bestTask, u)
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
			if finish > ex.Makespan {
				ex.Makespan = finish
			}
			late := finish - asg.AbsDeadline[bestTask]
			if late > ex.MaxLateness {
				ex.MaxLateness = late
			}
			if late > 0 {
				ex.Feasible = false
				ex.Missed = append(ex.Missed, bestTask)
				latenessSum += float64(late)
				if !deg.FirstMiss.IsSet() || finish < deg.FirstMiss {
					deg.FirstMiss = finish
				}
			}
			if opts.Reclaim && finish > dl[bestTask] {
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
			if dead(q, now) {
				continue
			}
			if procFree[q] > now && procFree[q] < next {
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
				if !task.EligibleOn(p.ClassOf(q)) {
					continue
				}
				if dead(q, now) {
					continue // q is already dead; it never hosts i again
				}
				r := rtime.Max(floor, landing[base+q])
				if r > now && r < next {
					next = r
				}
			}
		}
		if opts.Reclaim {
			for _, ev := range reclaims {
				if ev.at > now && ev.at < next {
					next = ev.at
				}
			}
		}
		if next == rtime.Infinity {
			// Remaining tasks can never run (stuck behind unplaceable
			// predecessors, or every eligible processor died).
			for i := 0; i < n; i++ {
				if !done[i] {
					done[i] = true
					placed++
					ex.Feasible = false
					ex.Missed = append(ex.Missed, i)
				}
			}
			break
		}
		now = next
	}
	sort.Ints(ex.Missed)

	// Degradation accounting against the original assignment.
	deg.Misses = len(ex.Missed)
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
	deg.MaxLateness = ex.MaxLateness

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
		arrival:  func(i int) rtime.Time { return arr[i] },
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

// injectScratch is Inject's pooled working memory: the EDF deadlines,
// effective arrivals and abort gates the run evolves, the
// predecessor counters, the n×m landing table and the ready list.
// Nothing reachable from an InjectedReport aliases it.
type injectScratch struct {
	procFree, resFree     []rtime.Time
	dl, arr, blockedUntil []rtime.Time
	landing               []rtime.Time
	done, wasAborted      []bool
	predsLeft             []int32
	ready                 []int
}

var injectPool = sync.Pool{New: func() any { return new(injectScratch) }}

// ensure sizes the scratch for an n-task, m-processor run of g under
// asg and resets it: deadlines and arrivals copied from asg, every
// counter at its task's in-degree, everything else zero. A landing
// time of 0 is exact because the abort gate starts at 0.
func (ws *injectScratch) ensure(g *taskgraph.Graph, asg *slicing.Assignment, n, m int) {
	maxRes := -1
	for _, t := range g.Tasks() {
		for _, r := range t.Resources {
			maxRes = max(maxRes, r)
		}
	}
	ws.procFree = resize(ws.procFree, m)
	ws.resFree = resize(ws.resFree, maxRes+1)
	ws.dl = append(ws.dl[:0], asg.AbsDeadline...)
	ws.arr = append(ws.arr[:0], asg.Arrival...)
	ws.blockedUntil = resize(ws.blockedUntil, n)
	ws.landing = resize(ws.landing, n*m)
	ws.done = resize(ws.done, n)
	ws.wasAborted = resize(ws.wasAborted, n)
	ws.predsLeft = resize(ws.predsLeft, n)
	for i := range ws.predsLeft {
		ws.predsLeft[i] = int32(len(g.Preds(i)))
	}
	if cap(ws.ready) < n {
		ws.ready = make([]int, 0, n)
	}
}

// resize returns s with length n and every element zero, reusing its
// storage when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
