package feas

import (
	"repro/internal/arch"
	"repro/internal/rtime"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
)

// Scratch is reusable working memory for InfeasibleScratch: the per-task
// minimal-WCET table and the window-boundary list. A zero Scratch is
// ready to use; it grows to the largest graph it has seen. Not safe for
// concurrent use — pool instances (pipeline.BuildScratch does) instead
// of sharing one.
type Scratch struct {
	minC   []rtime.Time
	bounds []rtime.Time
}

// InfeasibleScratch is Infeasible running over reusable scratch memory
// (nil allocates internally) and returning at the first violated
// condition instead of enumerating all of them. The verdict — and any
// error — is identical to Infeasible's.
func InfeasibleScratch(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, sc *Scratch) (bool, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	bad := false
	err := scan(g, p, asg, sc, func(Violation) bool {
		bad = true
		return false
	})
	return bad, err
}
