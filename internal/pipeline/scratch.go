package pipeline

import (
	"sync"

	"repro/internal/feas"
	"repro/internal/sched"
	"repro/internal/slicing"
)

// BuildScratch bundles the reusable working memory of one cold build:
// the slicer's workspace (DP tables, candidate caches, corridor arrays),
// the scheduler scratch (ready tables, landing matrix, timelines), and
// the verifier's boundary buffers. Every build, Replanner rebuilds
// included, draws one from a package pool and returns it afterwards, so
// steady-state builds allocate only the immutable Plan artifact itself —
// nothing reachable from a Plan ever aliases scratch memory (each
// sub-scratch guarantees this for its stage's output).
//
// A BuildScratch is not safe for concurrent use.
type BuildScratch struct {
	Slicing *slicing.Workspace
	Sched   *sched.Scratch
	Feas    *feas.Scratch
}

// scratchPool hands out empty scratches; their arrays grow to the
// largest workload they serve.
var scratchPool = sync.Pool{New: func() any {
	return &BuildScratch{
		Slicing: slicing.NewWorkspace(),
		Sched:   &sched.Scratch{},
		Feas:    &feas.Scratch{},
	}
}}

func getScratch() *BuildScratch   { return scratchPool.Get().(*BuildScratch) }
func putScratch(sc *BuildScratch) { scratchPool.Put(sc) }
