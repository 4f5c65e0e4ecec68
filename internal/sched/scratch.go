package sched

import (
	"repro/internal/rtime"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
)

// ispan is one busy interval of a processor timeline (InsertEDF's gap
// scanner).
type ispan struct{ start, end rtime.Time }

// Scratch is the reusable working memory of the schedulers in this
// package: the time-driven dispatcher's ready/landing tables and the
// state a fault-injected run evolves, the list schedulers' ready
// queues, and the insertion scheduler's timelines. A zero Scratch is
// ready to use; it grows to the largest (tasks × processors) shape it
// has seen. A Scratch is not safe for concurrent use — pool instances
// (pipeline.BuildScratch does) instead of sharing one.
//
// Nothing reachable from a returned *Schedule aliases scratch memory:
// placements, order, and missed lists are freshly allocated per call.
type Scratch struct {
	procFree  []rtime.Time
	resFree   []rtime.Time
	done      []bool
	minC      []rtime.Time
	predsLeft []int32
	landing   []rtime.Time // n×m message-landing matrix
	ready     []int
	timeline  [][]ispan

	// The time-driven run's evolving state: the deadlines and arrivals
	// slack reclamation moves, the gate an abort puts on re-dispatch,
	// and which tasks were aborted.
	dl, arr, blockedUntil []rtime.Time
	aborted               []bool
}

// ensureList sizes the subset every scheduler here shares: idle times,
// resource release times, predecessor counters, and the ready queue.
func (ws *Scratch) ensureList(g *taskgraph.Graph, n, m int) {
	ws.procFree = zeroed(ws.procFree, m)
	ws.resFree = zeroed(ws.resFree, numResources(g))
	if cap(ws.predsLeft) < n {
		ws.predsLeft = make([]int32, n)
	}
	ws.predsLeft = ws.predsLeft[:n]

	if cap(ws.ready) < n {
		ws.ready = make([]int, 0, n)
	}
	ws.ready = ws.ready[:0]
}

// ensure sizes and resets every table the time-driven dispatcher reads
// for a run of g under asg: each counter at its task's in-degree, the
// deadlines and arrivals copied from asg, and the done, abort and
// landing tables zero. A landing time of 0 is exact because a task's
// arrival gates it separately.
func (ws *Scratch) ensure(g *taskgraph.Graph, asg *slicing.Assignment, n, m int) {
	ws.ensureList(g, n, m)
	for i := range ws.predsLeft {
		ws.predsLeft[i] = int32(len(g.Preds(i)))
	}
	ws.done = zeroed(ws.done, n)
	ws.aborted = zeroed(ws.aborted, n)
	ws.minC = zeroed(ws.minC, n)
	ws.blockedUntil = zeroed(ws.blockedUntil, n)
	ws.landing = zeroed(ws.landing, n*m)
	ws.dl = append(ws.dl[:0], asg.AbsDeadline...)
	ws.arr = append(ws.arr[:0], asg.Arrival...)
}

// zeroed returns s with length n and every element zero, reusing its
// storage when it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// timelines returns m empty per-processor timelines, reusing span
// storage from earlier runs.
func (ws *Scratch) timelines(m int) [][]ispan {
	if cap(ws.timeline) < m {
		tl := make([][]ispan, m)
		copy(tl, ws.timeline)
		ws.timeline = tl
	}
	ws.timeline = ws.timeline[:m]
	for q := range ws.timeline {
		ws.timeline[q] = ws.timeline[q][:0]
	}
	return ws.timeline
}
