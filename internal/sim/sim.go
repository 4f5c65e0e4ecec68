// Package sim replays a static multiprocessor schedule on the modelled
// platform as a discrete-event simulation and verifies every run-time
// obligation: processor exclusivity under non-preemptive dispatch, class
// eligibility, WCET-exact execution, arrival-time gating, precedence with
// message delays, and deadline compliance.
//
// The replay exists as a second, independent implementation of the
// platform semantics (the role GAST's execution engine played for the
// paper): the sched package *constructs* schedules, sim *re-executes*
// them. Disagreement between the two is a bug in one of them, which the
// property tests exploit.
//
// Beyond the nominal-delay bus model of the paper (§3.1, one time unit
// per data item, messages never queue), Replay optionally serializes the
// shared bus: messages occupy it one at a time in FCFS order of their
// ready times. The paper's nominal delay is an upper bound *per message*
// but not *per bus*, so a schedule that is valid under the nominal model
// can be reported as violating under serialization — quantifying how
// much headroom the nominal model hides.
//
// Inject re-executes a plan under a fault trace. It has no dispatcher
// of its own: it runs sched.Execute, the time-driven EDF dispatcher
// sched.Dispatch runs, reads the degradation accounting off the
// executed schedule, and replays that schedule under the faulted timing
// model. Its reports are identical to those of the rescanning executor
// inject_test.go keeps as the reference.
package sim

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/arch"
	"repro/internal/faults"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
)

// Options configures a replay.
type Options struct {
	// SerializedBus makes messages occupy the shared bus exclusively, in
	// FCFS order of their ready times (ties broken by arc order). When
	// false the paper's nominal-delay model is used.
	SerializedBus bool
	// Faults is the trace Inject executes under: WCET overruns,
	// processor degradation/loss, and bus jitter (nil: none). Replay
	// verifies a given schedule and refuses a set Faults.
	Faults *faults.Trace
	// Reclaim enables Inject's online slack-reclamation recovery
	// policy: when a task misses its window, the remaining end-to-end
	// slack is redistributed over its pending descendants using the
	// active metric's virtual costs (slicing.ReclaimWindows),
	// re-prioritizing the dispatcher. Replay ignores it.
	Reclaim bool
}

// timing is the execution-time model a replay verifies against: nominal
// replay expects WCET-exact execution, original arrivals, and nominal
// bus delays; fault-injected replay expects the trace-perturbed
// equivalents.
type timing struct {
	// exec is the expected execution length of task i on processor q.
	exec func(i, q int) rtime.Time
	// arrival is the effective arrival time of task i (slack
	// reclamation may relax the assigned one).
	arrival func(i int) rtime.Time
	// extraMsg is additional bus delay for the (from, to) message.
	extraMsg func(from, to int) rtime.Time
	// allowUnplaced tolerates tasks with no placement: legitimate only
	// for fault-injected runs where a processor loss stranded them.
	allowUnplaced bool
}

// nominalTiming is the paper's model: WCET-exact on the landing class,
// assigned arrivals, nominal bus.
func nominalTiming(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment) timing {
	return timing{
		exec:     func(i, q int) rtime.Time { return g.Task(i).WCET[p.ClassOf(q)] },
		arrival:  func(i int) rtime.Time { return asg.Arrival[i] },
		extraMsg: func(from, to int) rtime.Time { return 0 },
	}
}

// span is one task's busy interval on a processor.
type span struct {
	t          int
	start, end rtime.Time
}

// spanLists is replay's per-processor span storage, pooled because no
// Report refers to it.
type spanLists struct {
	counts  []int
	perProc [][]span
	slab    []span
}

var spanPool = sync.Pool{New: func() any { return new(spanLists) }}

// carve returns m empty span lists, list q with room for every
// placement on processor q, all carved from one reused slab.
func (sl *spanLists) carve(placements []sched.Placement, m int) [][]span {
	sl.counts = resize(sl.counts, m)
	total := 0
	for _, pl := range placements {
		if pl.Proc >= 0 && pl.Proc < m {
			sl.counts[pl.Proc]++
			total++
		}
	}
	sl.slab = resize(sl.slab, total)
	sl.perProc = resize(sl.perProc, m)
	slab := sl.slab
	for q, c := range sl.counts {
		sl.perProc[q], slab = slab[:0:c], slab[c:]
	}
	return sl.perProc
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

// Transfer describes one message movement over the bus.
type Transfer struct {
	From, To   int // task IDs
	Items      rtime.Time
	Ready      rtime.Time // sender finish time
	Start, End rtime.Time // bus occupancy interval
	SameProc   bool
}

// Report is the outcome of a replay.
type Report struct {
	// Valid reports that no structural violation occurred (deadline
	// misses are tracked separately in DeadlineMisses, matching the
	// paper's distinction between an invalid schedule and an infeasible
	// one).
	Valid bool
	// Violations lists every structural problem found.
	Violations []string
	// DeadlineMisses lists tasks that finish after their absolute
	// deadline.
	DeadlineMisses []int
	// Transfers lists all remote message movements in bus order.
	Transfers []Transfer
	// BusBusy is the total bus occupancy.
	BusBusy rtime.Time
	// ProcBusy is the per-processor busy time.
	ProcBusy []rtime.Time
	// Makespan is the latest finish (or message landing) observed.
	Makespan rtime.Time
}

// Utilization returns the mean processor utilization over the makespan.
func (r *Report) Utilization() float64 {
	if r.Makespan <= 0 || len(r.ProcBusy) == 0 {
		return 0
	}
	var busy rtime.Time
	for _, b := range r.ProcBusy {
		busy += b
	}
	return float64(busy) / (float64(r.Makespan) * float64(len(r.ProcBusy)))
}

func (r *Report) violate(format string, args ...any) {
	r.Valid = false
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// Replay re-executes schedule s for graph g on platform p under the
// window assignment asg and verifies it against the nominal timing
// model. It executes no fault trace: a set opts.Faults is an error,
// and Inject is the call that runs one.
func Replay(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment,
	s *sched.Schedule, opts Options) (*Report, error) {

	if opts.Faults != nil {
		return nil, errors.New("sim: Replay runs no fault trace; use Inject")
	}
	return replay(g, p, asg, s, opts, nominalTiming(g, p, asg))
}

// replay is the verification core, parameterized by the timing model
// the schedule is held against.
func replay(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment,
	s *sched.Schedule, opts Options, tm timing) (*Report, error) {

	n := g.NumTasks()
	if len(s.Placements) != n {
		return nil, fmt.Errorf("sim: schedule covers %d tasks, graph has %d", len(s.Placements), n)
	}
	r := &Report{Valid: true, ProcBusy: make([]rtime.Time, p.M())}

	// Phase 1: per-task static checks and processor accounting.
	sl := spanPool.Get().(*spanLists)
	defer spanPool.Put(sl)
	perProc := sl.carve(s.Placements, p.M())
	for i := 0; i < n; i++ {
		pl := s.Placements[i]
		if pl.Proc < 0 {
			if !tm.allowUnplaced {
				r.violate("task %d was never placed", i)
			}
			continue
		}
		if pl.Proc >= p.M() {
			r.violate("task %d placed on missing processor %d", i, pl.Proc)
			continue
		}
		class := p.ClassOf(pl.Proc)
		if !g.Task(i).EligibleOn(class) {
			r.violate("task %d placed on ineligible class %d", i, class)
			continue
		}
		if pin := g.Task(i).Pinned; pin >= 0 && pl.Proc != pin {
			r.violate("task %d pinned to processor %d but placed on %d", i, pin, pl.Proc)
		}
		if got, want := pl.Finish-pl.Start, tm.exec(i, pl.Proc); got != want {
			r.violate("task %d executes for %d units, WCET on class %d is %d", i, got, class, want)
		}
		if arr := tm.arrival(i); pl.Start < arr {
			r.violate("task %d starts at %d before its arrival %d", i, pl.Start, arr)
		}
		perProc[pl.Proc] = append(perProc[pl.Proc], span{i, pl.Start, pl.Finish})
		r.ProcBusy[pl.Proc] += pl.Finish - pl.Start
		if pl.Finish > r.Makespan {
			r.Makespan = pl.Finish
		}
		if pl.Finish > asg.AbsDeadline[i] {
			r.DeadlineMisses = append(r.DeadlineMisses, i)
		}
	}
	for q, spans := range perProc {
		sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
		for i := 1; i < len(spans); i++ {
			if spans[i].start < spans[i-1].end {
				r.violate("processor %d preempted: tasks %d and %d overlap", q, spans[i-1].t, spans[i].t)
			}
		}
	}

	// Phase 2: message timing. Collect remote transfers, order them, and
	// either charge the nominal per-message delay or serialize the bus.
	arcs := 0
	for _, a := range g.Arcs() {
		if s.Placements[a.From].Proc >= 0 && s.Placements[a.To].Proc >= 0 {
			arcs++
		}
	}
	r.Transfers = make([]Transfer, 0, arcs)
	for _, a := range g.Arcs() {
		from, to := s.Placements[a.From], s.Placements[a.To]
		if from.Proc < 0 || to.Proc < 0 {
			continue
		}
		same := from.Proc == to.Proc
		tr := Transfer{
			From: a.From, To: a.To, Items: a.Items,
			Ready: from.Finish, SameProc: same,
		}
		if same || a.Items <= 0 {
			tr.Start, tr.End = from.Finish, from.Finish
		} else {
			tr.Start = from.Finish
			tr.End = from.Finish + p.CommCost(from.Proc, to.Proc, a.Items) + tm.extraMsg(a.From, a.To)
		}
		r.Transfers = append(r.Transfers, tr)
	}
	// (Ready, From, To) is a total order over distinct arcs, so an
	// unstable sort has one outcome.
	slices.SortFunc(r.Transfers, func(a, b Transfer) int {
		return cmp.Or(cmp.Compare(a.Ready, b.Ready), cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	if opts.SerializedBus {
		var busFree rtime.Time
		for i := range r.Transfers {
			tr := &r.Transfers[i]
			if tr.SameProc || tr.Items <= 0 {
				continue
			}
			start := rtime.Max(tr.Ready, busFree)
			tr.Start = start
			tr.End = start + p.CommCost(s.Placements[tr.From].Proc, s.Placements[tr.To].Proc, tr.Items) +
				tm.extraMsg(tr.From, tr.To)
			busFree = tr.End
		}
	}
	for _, tr := range r.Transfers {
		if tr.SameProc || tr.Items <= 0 {
			continue
		}
		r.BusBusy += tr.End - tr.Start
		if tr.End > r.Makespan {
			r.Makespan = tr.End
		}
		start := s.Placements[tr.To].Start
		if start < tr.End {
			r.violate("task %d starts at %d before its message from %d lands at %d",
				tr.To, start, tr.From, tr.End)
		}
	}
	// Co-located precedence still requires finish-before-start.
	for _, a := range g.Arcs() {
		from, to := s.Placements[a.From], s.Placements[a.To]
		if from.Proc < 0 || to.Proc < 0 {
			continue
		}
		if from.Proc == to.Proc && to.Start < from.Finish {
			r.violate("task %d starts at %d before co-located predecessor %d finishes at %d",
				a.To, to.Start, a.From, from.Finish)
		}
	}

	// Phase 3: exclusive resources (the §7.3 extension) — two holders of
	// the same resource may never overlap, independent of processors.
	for _, c := range sched.ResourceConflicts(g, s) {
		r.violate("resource %d held by tasks %d and %d concurrently", c.Resource, c.First, c.Second)
	}
	sort.Ints(r.DeadlineMisses)
	return r, nil
}
