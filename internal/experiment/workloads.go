package experiment

import (
	"sync"

	"repro/internal/gen"
)

// workloadMemoCap bounds the study-workload memo at one sample of the
// paper's 1,024 graphs per point. Every caller runs a point's cells one
// after another, each over the point's whole sample: cmd/sweep's cells
// of a point share one sample (512 graphs by default), slicebench's
// figures run every series of an x-value on that x-value's sample
// before the next x-value (fill in figures.go), and perfbench's study
// runs all of one graph's cells in turn. Holding one whole sample thus
// lets every cell after a point's first find its graphs resident. Past
// the bound the oldest workload goes first, so a sample larger than the
// bound regenerates every graph in every cell, as it did without the
// memo.
const workloadMemoCap = 1024

// workloads is the process-wide source of the studies' generated
// workloads: every cell of every study, over any plan cache, gets the
// one *gen.Workload its (config, seed) generated first. The workloads
// it hands out are shared and read-only: no caller may modify one, and
// plans built from them keep pointing at the same graph.
var workloads = newWorkloadMemo(workloadMemoCap)

// workloadMemo is a bounded, mutex-guarded map from a whole generator
// configuration, seed included, to the workload gen.Generate builds
// from it, evicting in insertion order.
type workloadMemo struct {
	mu    sync.Mutex
	m     map[gen.Config]*gen.Workload
	order []gen.Config // ring of resident keys; order[next] is the oldest once full
	next  int
}

func newWorkloadMemo(capacity int) *workloadMemo {
	return &workloadMemo{
		m:     make(map[gen.Config]*gen.Workload, capacity),
		order: make([]gen.Config, 0, capacity),
	}
}

// get returns the workload gen.Generate builds from cfg, generating it
// only when the memo does not hold it. Errors are never stored.
func (c *workloadMemo) get(cfg gen.Config) (*gen.Workload, error) {
	if cfg != cfg {
		// A NaN field: the key could never be found or evicted again.
		return gen.Generate(cfg)
	}
	c.mu.Lock()
	w, ok := c.m[cfg]
	c.mu.Unlock()
	if ok {
		return w, nil
	}
	// Generate outside the lock, so workers generating different
	// graphs do not wait on each other.
	w, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if first, ok := c.m[cfg]; ok {
		// A racing miss stored its copy first; every caller gets that one.
		return first, nil
	}
	if len(c.order) < cap(c.order) {
		c.order = append(c.order, cfg)
	} else {
		delete(c.m, c.order[c.next])
		c.order[c.next] = cfg
		c.next = (c.next + 1) % len(c.order)
	}
	c.m[cfg] = w
	return w, nil
}
