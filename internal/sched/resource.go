package sched

import (
	"fmt"
	"sort"

	"repro/internal/rtime"
	"repro/internal/taskgraph"
)

// ResourceTable returns a release-time table sized for the largest
// resource index used by any task (empty when the application uses no
// exclusive resources). It is exported for the sim package's reference
// executor, a test oracle that keeps the dispatcher's resource
// bookkeeping outside this package.
func ResourceTable(g *taskgraph.Graph) []rtime.Time {
	return make([]rtime.Time, numResources(g))
}

// numResources is one more than the largest resource index any task
// uses, 0 when none does.
func numResources(g *taskgraph.Graph) int {
	max := -1
	for _, t := range g.Tasks() {
		for _, r := range t.Resources {
			if r > max {
				max = r
			}
		}
	}
	return max + 1
}

// usesResources reports whether any task declares a resource
// requirement.
func usesResources(g *taskgraph.Graph) bool {
	for _, t := range g.Tasks() {
		if len(t.Resources) > 0 {
			return true
		}
	}
	return false
}

// ResourceConflict is one overlap between two holders of an exclusive
// resource: First started no later than Second, and Second started
// before First ended.
type ResourceConflict struct {
	Resource, First, Second int
}

// ResourceConflicts lists the overlaps between holders of each
// exclusive resource that Verify and sim.Replay both check: resources in
// index order, each one's placed holders ordered by start time, every
// holder that starts before the previous one ends. The order is
// deterministic, so two checks of one schedule report the same list.
func ResourceConflicts(g *taskgraph.Graph, s *Schedule) []ResourceConflict {
	nres := numResources(g)
	if nres == 0 {
		return nil
	}
	type hold struct {
		task       int
		start, end rtime.Time
	}
	perRes := make([][]hold, nres)
	for i, t := range g.Tasks() {
		pl := s.Placements[i]
		if pl.Proc < 0 {
			continue
		}
		for _, r := range t.Resources {
			perRes[r] = append(perRes[r], hold{i, pl.Start, pl.Finish})
		}
	}
	var out []ResourceConflict
	for r, holds := range perRes {
		sort.Slice(holds, func(a, b int) bool { return holds[a].start < holds[b].start })
		for i := 1; i < len(holds); i++ {
			if holds[i].start < holds[i-1].end {
				out = append(out, ResourceConflict{r, holds[i-1].task, holds[i].task})
			}
		}
	}
	return out
}

// verifyResources checks that no two tasks sharing an exclusive
// resource overlap in time, reporting the first conflict
// ResourceConflicts lists.
func verifyResources(g *taskgraph.Graph, s *Schedule) error {
	if c := ResourceConflicts(g, s); len(c) > 0 {
		return fmt.Errorf("sched: resource %d held by tasks %d and %d concurrently",
			c[0].Resource, c[0].First, c[0].Second)
	}
	return nil
}
