package sched

import (
	"fmt"

	"repro/internal/rtime"
	"repro/internal/slicing"
)

// Policy selects which ready task a work-conserving dispatcher picks
// when a processor is free — the axis the paper's future work (§7.3)
// proposes exploring beyond deadline-driven dispatching.
type Policy int

const (
	// EDFPolicy picks the closest absolute deadline (the paper's
	// baseline, §5.4).
	EDFPolicy Policy = iota
	// DMPolicy (deadline-monotonic) picks the smallest relative
	// deadline — a static priority per task.
	DMPolicy
	// FIFOPolicy picks the earliest arrival time.
	FIFOPolicy
	// LLFPolicy (least laxity first) picks the smallest dynamic laxity
	// D − t − c̄, re-evaluated at each dispatch instant with the task's
	// best eligible WCET.
	LLFPolicy
)

// Policies lists every dispatch policy.
var Policies = []Policy{EDFPolicy, DMPolicy, FIFOPolicy, LLFPolicy}

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case EDFPolicy:
		return "EDF"
	case DMPolicy:
		return "DM"
	case FIFOPolicy:
		return "FIFO"
	case LLFPolicy:
		return "LLF"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// key returns the priority value of task i at instant now under the
// policy (smaller = more urgent). dl holds the run's absolute deadlines
// (asg's, unless slack reclamation moved them); minC is the task's
// smallest eligible WCET, used by LLF.
func (p Policy) key(asg *slicing.Assignment, dl []rtime.Time, i int, now, minC rtime.Time) rtime.Time {
	switch p {
	case DMPolicy:
		return asg.RelDeadline[i]
	case FIFOPolicy:
		return asg.Arrival[i]
	case LLFPolicy:
		return dl[i] - now - minC
	}
	return dl[i]
}
