// Package feas provides fast necessary feasibility tests for a window
// assignment — certificates of infeasibility that need no scheduling
// search. They complement the exact search in package optsched: feas
// can only say "provably infeasible" or "maybe feasible", but it says
// it in O(n²) instead of exponential time, which lets experiments
// classify the bulk of metric-caused failures cheaply.
//
// Three conditions are checked, all classical demand arguments:
//
//   - Window capacity: a task must fit its own window (c̄ᵢ ≤ dᵢ, using
//     the smallest eligible-and-present WCET).
//   - Processor demand: for every interval [a, b) spanned by window
//     boundaries, the total minimal work of tasks whose windows nest
//     inside [a, b) cannot exceed m·(b − a).
//   - Resource demand: for every exclusive resource and interval, the
//     minimal work of nested holder windows cannot exceed (b − a).
//
// All three are necessary for any schedule — preemptive or not, with or
// without migration — so a feas violation is a property of the deadline
// distribution alone.
package feas

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/rtime"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
)

// Violation describes one failed necessary condition.
type Violation struct {
	// Kind is "window", "processors", or "resource".
	Kind string
	// Task is the offending task for window violations, -1 otherwise.
	Task int
	// Resource is the resource index for resource violations, -1
	// otherwise.
	Resource int
	// Interval is the overloaded interval.
	Interval rtime.Window
	// Demand and Capacity quantify the overload.
	Demand, Capacity rtime.Time
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	switch v.Kind {
	case "window":
		return fmt.Sprintf("task %d needs %d units but its window %v holds %d",
			v.Task, v.Demand, v.Interval, v.Capacity)
	case "resource":
		return fmt.Sprintf("resource %d: demand %d exceeds capacity %d in %v",
			v.Resource, v.Demand, v.Capacity, v.Interval)
	case "processors":
		return fmt.Sprintf("processors: demand %d exceeds capacity %d in %v",
			v.Demand, v.Capacity, v.Interval)
	}
	return fmt.Sprintf("unknown kind %q: demand %d, capacity %d in %v",
		v.Kind, v.Demand, v.Capacity, v.Interval)
}

// Check runs all necessary conditions and returns every violation
// found (empty means the assignment *may* be feasible).
func Check(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment) ([]Violation, error) {
	var out []Violation
	err := scan(g, p, asg, &Scratch{}, func(v Violation) bool {
		out = append(out, v)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Infeasible reports whether the assignment is provably unschedulable,
// from Check's full list of violations; InfeasibleScratch reaches the
// same verdict at the first one.
func Infeasible(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment) (bool, error) {
	v, err := Check(g, p, asg)
	if err != nil {
		return false, err
	}
	return len(v) > 0, nil
}

// scan checks the three conditions over sc — every task's own window,
// then processor demand over every boundary interval, then each
// resource's demand over every boundary interval — and hands each
// violation, in that order, to report. It stops at the first report
// that returns false.
func scan(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, sc *Scratch, report func(Violation) bool) error {
	n := g.NumTasks()
	if len(asg.Arrival) != n || len(asg.AbsDeadline) != n {
		return fmt.Errorf("feas: assignment covers %d tasks, graph has %d", len(asg.Arrival), n)
	}
	present := p.ClassesPresent()

	// Minimal execution time per task over eligible present classes.
	if cap(sc.minC) < n {
		sc.minC = make([]rtime.Time, n)
	}
	minC := sc.minC[:n]
	for i, t := range g.Tasks() {
		best := rtime.Infinity
		if t.Pinned >= 0 {
			if t.Pinned < p.M() {
				if c := t.WCET[p.ClassOf(t.Pinned)]; c.IsSet() {
					best = c
				}
			}
		} else {
			for k, c := range t.WCET {
				if c.IsSet() && k < len(present) && present[k] && c < best {
					best = c
				}
			}
		}
		if best == rtime.Infinity {
			return fmt.Errorf("feas: task %d eligible on no present class", i)
		}
		minC[i] = best
	}

	// Condition 1: own-window capacity.
	for i := 0; i < n; i++ {
		w := rtime.Window{Arrival: asg.Arrival[i], Deadline: asg.AbsDeadline[i]}
		if minC[i] > w.Len() && !report(Violation{
			Kind: "window", Task: i, Resource: -1,
			Interval: w, Demand: minC[i], Capacity: w.Len(),
		}) {
			return nil
		}
	}

	// Boundary set for interval enumeration: the 2n window edges,
	// sorted and deduplicated in place.
	if cap(sc.bounds) < 2*n {
		sc.bounds = make([]rtime.Time, 2*n)
	}
	bounds := sc.bounds[:0]
	for i := 0; i < n; i++ {
		bounds = append(bounds, asg.Arrival[i], asg.AbsDeadline[i])
	}
	sort.Slice(bounds, func(a, b int) bool { return bounds[a] < bounds[b] })
	k := 0
	for i, b := range bounds {
		if i == 0 || b != bounds[k-1] {
			bounds[k] = b
			k++
		}
	}
	bounds = bounds[:k]

	demandIn := func(a, b rtime.Time, filter func(i int) bool) rtime.Time {
		var d rtime.Time
		for i := 0; i < n; i++ {
			if asg.Arrival[i] >= a && asg.AbsDeadline[i] <= b && asg.AbsDeadline[i] > asg.Arrival[i] {
				if filter == nil || filter(i) {
					d += minC[i]
				}
			}
		}
		return d
	}

	// Condition 2: processor demand over every boundary interval.
	m := rtime.Time(p.M())
	for ai := 0; ai < len(bounds); ai++ {
		for bi := ai + 1; bi < len(bounds); bi++ {
			a, b := bounds[ai], bounds[bi]
			capacity := m * (b - a)
			if d := demandIn(a, b, nil); d > capacity && !report(Violation{
				Kind: "processors", Task: -1, Resource: -1,
				Interval: rtime.Window{Arrival: a, Deadline: b},
				Demand:   d, Capacity: capacity,
			}) {
				return nil
			}
		}
	}

	// Condition 3: per-resource demand (capacity 1 per time unit).
	resMax := -1
	for _, t := range g.Tasks() {
		for _, r := range t.Resources {
			if r > resMax {
				resMax = r
			}
		}
	}
	for r := 0; r <= resMax; r++ {
		holds := func(i int) bool {
			for _, rr := range g.Task(i).Resources {
				if rr == r {
					return true
				}
			}
			return false
		}
		for ai := 0; ai < len(bounds); ai++ {
			for bi := ai + 1; bi < len(bounds); bi++ {
				a, b := bounds[ai], bounds[bi]
				if d := demandIn(a, b, holds); d > b-a && !report(Violation{
					Kind: "resource", Task: -1, Resource: r,
					Interval: rtime.Window{Arrival: a, Deadline: b},
					Demand:   d, Capacity: b - a,
				}) {
					return nil
				}
			}
		}
	}
	return nil
}
