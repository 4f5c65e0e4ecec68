package pipeline

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// stageProbe captures the start of one stage execution.
type stageProbe struct {
	start  time.Time
	allocs bool
	m0     runtime.MemStats
}

func beginStage(countAllocs bool) stageProbe {
	p := stageProbe{allocs: countAllocs}
	if countAllocs {
		runtime.ReadMemStats(&p.m0)
	}
	p.start = time.Now()
	return p
}

func (p stageProbe) end() StageStats {
	s := StageStats{Wall: time.Since(p.start)}
	if p.allocs {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		s.Allocs = m1.Mallocs - p.m0.Mallocs
		s.Bytes = m1.TotalAlloc - p.m0.TotalAlloc
	}
	return s
}

// StageSummary aggregates one stage across builds.
type StageSummary struct {
	Wall   time.Duration
	Allocs uint64
	Bytes  uint64
}

func (s *StageSummary) add(st StageStats) {
	s.Wall += st.Wall
	s.Allocs += st.Allocs
	s.Bytes += st.Bytes
}

// Summary is a point-in-time aggregate view of a Recorder.
type Summary struct {
	// Builds counts completed (non-error) pipeline executions;
	// Hits/Errors count cache hits and stage errors.
	Builds, Hits, Errors uint64
	// Coalesced counts builds that joined another builder's in-flight
	// cold build of the same key instead of planning themselves (the
	// cache's singleflight layer).
	Coalesced uint64
	// Canceled counts builds abandoned at a stage boundary because
	// their context was done; cancellations are operational, so they
	// are kept apart from stage Errors.
	Canceled uint64
	// Rebuilds counts Replanner.Rebuild calls and RebuildHits the subset
	// answered from cache residency. The remainder ran incrementally,
	// off the previous plan's fingerprint. RebuildFallbacks always reads
	// 0, since no delta falls back to a full build; it stays only because
	// perfbench's traced study replay (perfbench/tracestudy.go) reads it.
	Rebuilds, RebuildHits, RebuildFallbacks uint64

	Estimate StageSummary
	Slice    StageSummary
	Dispatch StageSummary
	Verify   StageSummary
}

// Total returns the summed wall time across stages.
func (s Summary) Total() time.Duration {
	return s.Estimate.Wall + s.Slice.Wall + s.Dispatch.Wall + s.Verify.Wall
}

// Recorder accumulates pipeline instrumentation across builds; it is
// safe for concurrent use and may be shared by many Builders. All-wall
// timing is always on; allocation counting (runtime.ReadMemStats per
// stage, which is itself costly and counts process-wide) is opted into
// at construction.
type Recorder struct {
	mu     sync.Mutex
	allocs bool
	sum    Summary
}

// NewRecorder returns a Recorder; withAllocs additionally samples heap
// allocation counters around every stage.
func NewRecorder(withAllocs bool) *Recorder {
	return &Recorder{allocs: withAllocs}
}

func (r *Recorder) countsAllocs() bool { return r != nil && r.allocs }

func (r *Recorder) recordBuild(st PlanStats) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sum.Builds++
	r.sum.Estimate.add(st.Estimate)
	r.sum.Slice.add(st.Slice)
	r.sum.Dispatch.add(st.Dispatch)
	r.sum.Verify.add(st.Verify)
}

func (r *Recorder) recordHit() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sum.Hits++
	r.mu.Unlock()
}

func (r *Recorder) recordError() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sum.Errors++
	r.mu.Unlock()
}

func (r *Recorder) recordCoalesced() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sum.Coalesced++
	r.mu.Unlock()
}

func (r *Recorder) recordRebuild(o RebuildOutcome) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sum.Rebuilds++
	if o == RebuildHit {
		r.sum.RebuildHits++
	}
	r.mu.Unlock()
}

func (r *Recorder) recordCanceled() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sum.Canceled++
	r.mu.Unlock()
}

// Summary returns a snapshot of the aggregates.
func (r *Recorder) Summary() Summary {
	if r == nil {
		return Summary{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sum
}

// Format renders the summary as the `sweep -stats` table: one row per
// stage with total wall time, share, and (when counted) allocations.
func (s Summary) Format() string {
	type row struct {
		name string
		st   StageSummary
	}
	rows := []row{
		{"estimate", s.Estimate},
		{"slice", s.Slice},
		{"dispatch", s.Dispatch},
		{"verify", s.Verify},
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].st.Wall > rows[j].st.Wall })
	total := s.Total()
	var sb strings.Builder
	fmt.Fprintf(&sb, "pipeline: %d builds, %d cache hits, %d coalesced, %d errors, %v planning\n",
		s.Builds, s.Hits, s.Coalesced, s.Errors, total.Round(time.Microsecond))
	if s.Canceled > 0 {
		fmt.Fprintf(&sb, "  %d builds canceled at a stage boundary\n", s.Canceled)
	}
	if s.Rebuilds > 0 {
		fmt.Fprintf(&sb, "  %d rebuilds: %d cache hits, %d incremental\n",
			s.Rebuilds, s.RebuildHits, s.Rebuilds-s.RebuildHits)
	}
	for _, r := range rows {
		if r.st.Wall == 0 && r.st.Allocs == 0 {
			continue
		}
		share := 0.0
		if total > 0 {
			share = 100 * float64(r.st.Wall) / float64(total)
		}
		fmt.Fprintf(&sb, "  %-8s %10v  %5.1f%%", r.name, r.st.Wall.Round(time.Microsecond), share)
		if r.st.Allocs > 0 {
			fmt.Fprintf(&sb, "  %d allocs, %s", r.st.Allocs, formatBytes(r.st.Bytes))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func formatBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}
