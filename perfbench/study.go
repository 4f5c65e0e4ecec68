package main

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/deadline"
	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/robust"
	"repro/internal/slicing"
	"repro/internal/wcet"
)

const (
	// studyFillBatch is how many fill graphs a study set-up carries
	// through the re-slice cells before it checks whether the shared
	// cache is full, and studyFillMax bounds the fill graphs it may use.
	studyFillBatch = 64
	studyFillMax   = 2048
	// studyWarmups is the number of graphs each study set-up then
	// carries through every cell.
	studyWarmups = 16
)

// Study op streams, offset like the serve input streams.
const (
	streamStudy = 3_000_009 + iota*1_000_003
	streamStudyWarm
	streamStudyFill
)

// The margins study's cells, in the order cmd/sweep -study margins
// runs them: one breakdown bisection per metric, the estimation-error
// grid (kind × level × metric), and the re-slice recovery per metric.
var (
	studyMetrics = append(slicing.Metrics(), slicing.AdaptR())
	studyLevels  = []float64{0, 0.1, 0.25, 0.5}
	resliceModel = wcet.ErrorModel{Kind: wcet.ErrMultiplicative, Level: 0.5}
)

// studyCells is one graph's outcome in every cell: the study's data
// points over a one-graph sample.
type studyCells struct {
	breakdown []experiment.BreakdownPoint
	margin    []experiment.MarginPoint
	reslice   []experiment.MarginPoint
}

// studyConfig is cmd/sweep's margins configuration for one graph: op
// master seed m plans graph gen.SubSeed(m, 0) and perturbs it with
// gen.SubSeed(m+2, 0).
func studyConfig(metric slicing.Metric, pipe pipeline.Shared, master int64) experiment.MarginConfig {
	return experiment.MarginConfig{
		Gen: studyGen(), Metric: metric, Params: slicing.CalibratedParams(), WCET: wcet.AVG,
		NumGraphs: 1, MasterSeed: master, Workers: 1, Pipe: pipe,
	}
}

// studyGen is cmd/sweep's generator configuration: the paper's
// 40–60-task graphs on 3 processors at the default laxity.
func studyGen() gen.Config {
	g := gen.Default(3)
	g.OLR = experiment.DefaultOLR
	return g
}

// studyBuilder is the pipeline configuration the study plans metric
// with.
func studyBuilder(metric slicing.Metric, pipe pipeline.Shared) *pipeline.Builder {
	return &pipeline.Builder{
		Estimator:   pipeline.StrategyEstimator(wcet.AVG),
		Distributor: deadline.Sliced{Metric: metric, Params: slicing.CalibratedParams()},
		Cache:       pipe.Cache,
		Recorder:    pipe.Recorder,
	}
}

// studyOp carries one graph through every cell of the study.
func studyOp(pipe pipeline.Shared, master int64) studyCells {
	var c studyCells
	for _, m := range studyMetrics {
		c.breakdown = append(c.breakdown, experiment.BreakdownRun(studyConfig(m, pipe, master)))
	}
	for _, kind := range wcet.ErrorKinds {
		for _, level := range studyLevels {
			for _, m := range studyMetrics {
				cfg := studyConfig(m, pipe, master)
				cfg.Model = wcet.ErrorModel{Kind: kind, Level: level}
				c.margin = append(c.margin, experiment.MarginRun(cfg))
			}
		}
	}
	c.reslice = resliceCells(pipe, master)
	return c
}

// resliceCells runs one graph's re-slice recovery cell for every metric.
func resliceCells(pipe pipeline.Shared, master int64) []experiment.MarginPoint {
	var out []experiment.MarginPoint
	for _, m := range studyMetrics {
		cfg := studyConfig(m, pipe, master)
		cfg.Model = resliceModel
		cfg.Reslice = robust.ResliceOptions{MaxRetries: 4}
		out = append(out, experiment.MarginRun(cfg))
	}
	return out
}

// clean reports whether no cell errored, timed out or abandoned a run.
func (c studyCells) clean() bool {
	for _, b := range c.breakdown {
		if b.Errors+b.Timeouts+b.Abandoned != 0 {
			return false
		}
	}
	for _, p := range slices.Concat(c.margin, c.reslice) {
		if p.Errors+p.Timeouts+p.Abandoned != 0 {
			return false
		}
	}
	return true
}

// equal reports cell-by-cell equality.
func (c studyCells) equal(d studyCells) bool {
	return slices.Equal(c.breakdown, d.breakdown) && slices.Equal(c.margin, d.margin) &&
		slices.Equal(c.reslice, d.reslice)
}

// studyCacheCapacity is the capacity of the plan cache cmd/sweep shares
// across a study.
const studyCacheCapacity = 4096

// studySetup creates the study's shared plan cache and recorder, as
// cmd/sweep does, fills the cache to capacity and carries the warm-up
// graphs through every cell.
//
// The fill carries batches of other graphs through the re-slice cells
// until every shard of the cache is full. Those cells insert the plans
// a study op inserts: each metric's nominal plan, over its own copy of
// the graph, and the re-slice rebuilds. So the timed phase starts from
// the plan mix a long sweep holds, and resident memory does not change
// with the number of ops a run completes. The number of fill graphs is
// a function of the seed alone.
func studySetup(seed int64) (pipeline.Shared, error) {
	pipe := pipeline.Shared{Cache: pipeline.NewCache(studyCacheCapacity), Recorder: pipeline.NewRecorder(false)}
	for sent := 0; pipe.Cache.Len() < studyCacheCapacity; sent += studyFillBatch {
		if sent == studyFillMax {
			return pipe, fmt.Errorf("study cache holds %d plans after %d fill graphs, want %d",
				pipe.Cache.Len(), sent, studyCacheCapacity)
		}
		errs := forEach(studyFillBatch, func(_, k int) error {
			for _, p := range resliceCells(pipe, gen.SubSeed(seed+streamStudyFill, sent+k)) {
				if p.Errors+p.Timeouts+p.Abandoned != 0 {
					return fmt.Errorf("fill graph %d: a re-slice cell failed", sent+k)
				}
			}
			return nil
		})
		if len(errs) > 0 {
			return pipe, fmt.Errorf("filling the study cache: %w", errs[0])
		}
	}
	forEach(studyWarmups, func(_, k int) error {
		studyOp(pipe, gen.SubSeed(seed+streamStudyWarm, k))
		return nil
	})
	return pipe, nil
}

// selfCPU is the benchmark process's user+system CPU time.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// studyRun is the untraced study run's state the replay reads.
type studyRun struct {
	masters []int64
	cells   []studyCells
	before  pipeline.Summary
	after   pipeline.Summary
	pipe    pipeline.Shared
}

// runStudyMargins: the margins study's cells over a seeded stream of
// the paper's 40–60-task graphs, one graph per op, on `clients`
// workers sharing one plan cache.
func runStudyMargins(o options) (*runOutcome, map[string]metric, error) {
	out := &runOutcome{}
	var pipe pipeline.Shared
	for r := 0; r < setupRepeats; r++ {
		start := time.Now()
		var err error
		if pipe, err = studySetup(o.seed); err != nil {
			return nil, nil, err
		}
		out.setups = append(out.setups, time.Since(start))
	}

	// The study runs in this process: start the phase from a collected
	// heap, and count the peak resident set from there.
	debug.FreeOSMemory()
	if err := resetPeakRSS("self"); err != nil {
		return nil, nil, err
	}
	sr := &studyRun{pipe: pipe, before: pipe.Recorder.Summary()}
	var mu sync.Mutex
	var next atomic.Int64
	var err error
	out.phase, err = closedLoop(o.seconds, selfCPU, func(_, _ int) (opRecord, bool) {
		k := int(next.Add(1)) - 1
		start := time.Now()
		master := gen.SubSeed(o.seed+streamStudy, k)
		cells := studyOp(pipe, master)
		lat := time.Since(start)
		mu.Lock()
		// Ops are numbered densely, so every slot up to the last op
		// started is filled once all have finished.
		for len(sr.cells) <= k {
			sr.cells = append(sr.cells, studyCells{})
			sr.masters = append(sr.masters, 0)
		}
		sr.cells[k], sr.masters[k] = cells, master
		mu.Unlock()
		return opRecord{lat: lat, ok: cells.clean()}, true
	})
	if err != nil {
		return nil, nil, err
	}
	if out.rssMiB, err = procPeakRSS("self"); err != nil {
		return nil, nil, err
	}
	sr.after = pipe.Recorder.Summary()

	out.problems = append(out.problems, checkStudy(sr)...)
	if !o.trace {
		return out, nil, nil
	}
	layers, err := traceStudy(o, out, sr)
	return out, layers, err
}

// checkStudy recomputes every timed op serially over a private plan
// cache (the reference for the seed) and compares the cells.
func checkStudy(sr *studyRun) []string {
	var problems []string
	for _, err := range forEach(len(sr.masters), func(_, k int) error {
		if !sr.cells[k].clean() {
			return fmt.Errorf("study op %d: a cell reported errors, timeouts or abandoned runs", k)
		}
		if !studyOp(pipeline.Shared{Cache: pipeline.NewCache(studyCacheCapacity)}, sr.masters[k]).equal(sr.cells[k]) {
			return fmt.Errorf("study op %d: cells differ from the serial reference", k)
		}
		return nil
	}) {
		problems = append(problems, err.Error())
	}
	return problems
}
