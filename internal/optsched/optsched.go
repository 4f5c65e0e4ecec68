// Package optsched is an exact branch-and-bound scheduler for small
// task graphs. The combined deadline-distribution and task-assignment
// problem is NP-complete (§1, [11]), which is why the paper — like the
// branch-and-bound assignment algorithms it cites [3, 4] — resorts to
// heuristics; this package provides the optimal yardstick those
// heuristics are implicitly measured against.
//
// The search enumerates *active* non-preemptive schedules with the
// Giffler–Thompson branching scheme, generalized to heterogeneous
// processors, window arrival times, shared-bus communication delays,
// and exclusive resources: at each node it computes the earliest
// possible (start, finish) of every ready (task, processor) pair,
// identifies the minimal earliest finish t*, and branches only on pairs
// that start strictly before t* — a complete scheme for regular
// objectives such as maximum lateness. Subtrees are pruned as soon as a
// lower bound on some task's finish time exceeds its deadline by more
// than the best lateness found so far.
//
// Use it for graphs up to roughly 20 tasks; NodeBudget caps the search
// so callers degrade gracefully instead of hanging.
package optsched

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
)

// Options bounds the search.
type Options struct {
	// NodeBudget caps the number of explored branch nodes (0 means the
	// default of 2 million).
	NodeBudget int
	// StopAtFeasible ends the search at the first schedule with no
	// deadline miss instead of proving optimal max lateness.
	StopAtFeasible bool
}

// Result reports the outcome of an exact search.
type Result struct {
	// Schedule is the best schedule found (nil when no complete
	// schedule was constructed within the budget).
	Schedule *sched.Schedule
	// Optimal reports that the search space was exhausted, so
	// Schedule's max lateness is minimal over all active schedules (or,
	// with StopAtFeasible, that a feasible schedule was found).
	Optimal bool
	// Nodes is the number of branch nodes explored.
	Nodes int
}

type searcher struct {
	g   *taskgraph.Graph
	p   *arch.Platform
	asg *slicing.Assignment
	opt Options

	n, m int

	// Mutable state, undone on backtrack.
	placed    []sched.Placement
	procFree  []rtime.Time
	onProc    []int // tasks placed on each processor
	resFree   []rtime.Time
	predsLeft []int
	doneCount int

	bestLate rtime.Time
	best     []sched.Placement
	nodes    int
	budget   int
	finished bool

	// pinTarget marks the processors some task is pinned to.
	pinTarget []bool
}

// Schedule runs the exact search.
func Schedule(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, opt Options) (*Result, error) {
	n := g.NumTasks()
	if len(asg.Arrival) != n || len(asg.AbsDeadline) != n {
		return nil, fmt.Errorf("optsched: assignment covers %d tasks, graph has %d", len(asg.Arrival), n)
	}
	// Every task must have an eligible present class; otherwise no
	// complete schedule exists at all.
	present := p.ClassesPresent()
	for i := 0; i < n; i++ {
		ok := false
		for k, c := range g.Task(i).WCET {
			if c.IsSet() && k < len(present) && present[k] {
				ok = true
				break
			}
		}
		if !ok {
			return &Result{Optimal: true}, nil
		}
	}

	s := &searcher{
		g: g, p: p, asg: asg, opt: opt,
		n: n, m: p.M(),
		placed:    make([]sched.Placement, n),
		procFree:  make([]rtime.Time, p.M()),
		onProc:    make([]int, p.M()),
		pinTarget: make([]bool, p.M()),
		resFree:   makeResTable(g),
		predsLeft: make([]int, n),
		bestLate:  rtime.Infinity,
		budget:    opt.NodeBudget,
	}
	if s.budget <= 0 {
		s.budget = 2_000_000
	}
	for i := range s.placed {
		s.placed[i] = sched.Placement{Proc: -1}
		s.predsLeft[i] = len(g.Preds(i))
		if q := g.Task(i).Pinned; q >= 0 && q < p.M() {
			s.pinTarget[q] = true
		}
	}
	s.dfs(-rtime.Infinity)

	res := &Result{Nodes: s.nodes}
	if s.best != nil {
		res.Schedule = s.buildSchedule()
	}
	// The result is conclusive when the search space was exhausted
	// within budget, or when a feasible schedule satisfied an early-stop
	// request.
	res.Optimal = s.nodes < s.budget || (opt.StopAtFeasible && s.finished)
	return res, nil
}

func makeResTable(g *taskgraph.Graph) []rtime.Time {
	max := -1
	for _, t := range g.Tasks() {
		for _, r := range t.Resources {
			if r > max {
				max = r
			}
		}
	}
	return make([]rtime.Time, max+1)
}

// earliest computes the earliest (start, finish) of task i on processor
// q in the current partial schedule, or ok=false if ineligible.
func (s *searcher) earliest(i, q int) (start, finish rtime.Time, ok bool) {
	task := s.g.Task(i)
	if task.Pinned >= 0 && q != task.Pinned {
		return 0, 0, false
	}
	class := s.p.ClassOf(q)
	if !task.EligibleOn(class) {
		return 0, 0, false
	}
	start = rtime.Max(s.procFree[q], s.asg.Arrival[i])
	for _, pr := range s.g.Preds(i) {
		pl := s.placed[pr]
		arrive := pl.Finish + s.p.CommCost(pl.Proc, q, s.g.MessageItems(pr, i))
		if arrive > start {
			start = arrive
		}
	}
	for _, r := range task.Resources {
		if s.resFree[r] > start {
			start = s.resFree[r]
		}
	}
	return start, start + task.WCET[class], true
}

// bound returns a lower bound on the maximum lateness achievable from
// the current partial schedule: for each unscheduled ready-or-not task,
// its earliest possible finish ignoring processor contention (critical
// path over unscheduled tasks, best class).
func (s *searcher) bound(curLate rtime.Time) rtime.Time {
	lb := curLate
	topo := s.g.TopoOrder()
	eft := make([]rtime.Time, s.n) // earliest finish bound
	for _, v := range topo {
		if s.placed[v].Proc >= 0 {
			eft[v] = s.placed[v].Finish
			continue
		}
		start := s.asg.Arrival[v]
		for _, pr := range s.g.Preds(v) {
			if eft[pr] > start { // free communication: still a valid bound
				start = eft[pr]
			}
		}
		bestC := rtime.Infinity
		for k, c := range s.g.Task(v).WCET {
			if c.IsSet() && k < len(s.p.Classes) && c < bestC {
				bestC = c
			}
		}
		eft[v] = start + bestC
		if late := eft[v] - s.asg.AbsDeadline[v]; late > lb {
			lb = late
		}
	}
	return lb
}

func (s *searcher) dfs(curLate rtime.Time) {
	if s.nodes >= s.budget || s.finished {
		return
	}
	s.nodes++

	if s.doneCount == s.n {
		if curLate < s.bestLate {
			s.bestLate = curLate
			s.best = append([]sched.Placement(nil), s.placed...)
			if s.opt.StopAtFeasible && curLate <= 0 {
				s.finished = true
			}
		}
		return
	}

	if lb := s.bound(curLate); lb >= s.bestLate {
		return // cannot improve
	}
	if s.opt.StopAtFeasible && s.bestLate <= 0 {
		s.finished = true
		return
	}

	// Giffler–Thompson: find the minimal earliest finish t* among all
	// ready (task, proc) pairs, then branch on every pair starting
	// before t*.
	type move struct {
		task, proc    int
		start, finish rtime.Time
	}
	var moves []move
	tStar := rtime.Infinity
	type symKey struct {
		task, class int
	}
	seen := map[symKey]bool{}
	for i := 0; i < s.n; i++ {
		if s.placed[i].Proc >= 0 || s.predsLeft[i] != 0 {
			continue
		}
		for q := 0; q < s.m; q++ {
			// Symmetry breaking: processors of the same class that have
			// run nothing yet and that no task is pinned to are
			// interchangeable — branch only on the lowest-indexed one.
			// A processor that has run a task is not interchangeable
			// with any other, even at equal availability: a message
			// between two tasks on one processor costs nothing.
			// Dedicated network links break the symmetry too, so the
			// optimization only applies to pure shared-bus platforms.
			if s.p.Net == nil && s.onProc[q] == 0 && !s.pinTarget[q] {
				key := symKey{i, s.p.ClassOf(q)}
				if seen[key] {
					continue
				}
				seen[key] = true
			}
			st, fin, ok := s.earliest(i, q)
			if !ok {
				continue
			}
			moves = append(moves, move{i, q, st, fin})
			if fin < tStar {
				tStar = fin
			}
		}
	}
	// Branch only on pairs that start before t* (active schedules).
	for _, mv := range moves {
		if mv.start >= tStar {
			continue
		}
		// Apply.
		late := mv.finish - s.asg.AbsDeadline[mv.task]
		newLate := curLate
		if late > newLate {
			newLate = late
		}
		if newLate >= s.bestLate {
			continue
		}
		prevProcFree := s.procFree[mv.proc]
		task := s.g.Task(mv.task)
		prevRes := make([]rtime.Time, len(task.Resources))
		for k, r := range task.Resources {
			prevRes[k] = s.resFree[r]
			s.resFree[r] = mv.finish
		}
		s.placed[mv.task] = sched.Placement{Proc: mv.proc, Start: mv.start, Finish: mv.finish}
		s.procFree[mv.proc] = mv.finish
		s.onProc[mv.proc]++
		for _, u := range s.g.Succs(mv.task) {
			s.predsLeft[u]--
		}
		s.doneCount++

		s.dfs(newLate)

		// Undo.
		s.doneCount--
		for _, u := range s.g.Succs(mv.task) {
			s.predsLeft[u]++
		}
		s.procFree[mv.proc] = prevProcFree
		s.onProc[mv.proc]--
		for k, r := range task.Resources {
			s.resFree[r] = prevRes[k]
		}
		s.placed[mv.task] = sched.Placement{Proc: -1}
		if s.finished {
			return
		}
	}
}

func (s *searcher) buildSchedule() *sched.Schedule {
	out := &sched.Schedule{
		Placements:  s.best,
		Feasible:    s.bestLate <= 0,
		MaxLateness: s.bestLate,
	}
	for i, pl := range s.best {
		if pl.Proc < 0 {
			continue
		}
		if pl.Finish > out.Makespan {
			out.Makespan = pl.Finish
		}
		if pl.Finish > s.asg.AbsDeadline[i] {
			out.Missed = append(out.Missed, i)
		}
	}
	return out
}
