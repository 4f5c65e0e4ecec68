package main

import (
	"fmt"
	"testing"

	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/robust"
	"repro/internal/rtime"
	"repro/internal/sim"
	"repro/internal/slicing"
	"repro/internal/wcet"
)

// The margins study as `sweep -study margins` runs it: its metrics, the
// estimation-error levels of its grid, and its plan cache capacity.
var (
	studyMetrics = append(slicing.Metrics(), slicing.AdaptR())
	studyLevels  = []float64{0, 0.1, 0.25, 0.5}
)

const studyCacheCapacity = 4096

// studyGen is sweep's generator configuration: the paper's 40–60-task
// graphs on 3 processors at the default laxity.
func studyGen() gen.Config {
	g := gen.Default(3)
	g.OLR = experiment.DefaultOLR
	return g
}

// studyConfig is sweep's margins configuration for one graph: master
// seed master plans graph gen.SubSeed(master, 0).
func studyConfig(metric slicing.Metric, pipe pipeline.Shared, master int64) experiment.MarginConfig {
	return experiment.MarginConfig{
		Gen: studyGen(), Metric: metric, Params: slicing.CalibratedParams(), WCET: wcet.AVG,
		NumGraphs: 1, MasterSeed: master, Workers: 1, Pipe: pipe,
	}
}

// studyGraph carries one graph through every margins-study cell in
// sweep's order: a breakdown bisection per metric, the kind × level ×
// metric estimation-error grid, and a re-slice recovery cell per
// metric. It fails if any cell errored.
func studyGraph(pipe pipeline.Shared, master int64) error {
	for _, m := range studyMetrics {
		if pt := experiment.BreakdownRun(studyConfig(m, pipe, master)); pt.Errors > 0 {
			return fmt.Errorf("study bench: breakdown %s failed", m.Name())
		}
	}
	for _, kind := range wcet.ErrorKinds {
		for _, level := range studyLevels {
			for _, m := range studyMetrics {
				cfg := studyConfig(m, pipe, master)
				cfg.Model = wcet.ErrorModel{Kind: kind, Level: level}
				if pt := experiment.MarginRun(cfg); pt.Errors > 0 {
					return fmt.Errorf("study bench: margin %v/%g/%s failed", kind, level, m.Name())
				}
			}
		}
	}
	for _, m := range studyMetrics {
		cfg := studyConfig(m, pipe, master)
		cfg.Model = wcet.ErrorModel{Kind: wcet.ErrMultiplicative, Level: 0.5}
		cfg.Reslice = robust.ResliceOptions{MaxRetries: 4}
		if pt := experiment.MarginRun(cfg); pt.Errors > 0 {
			return fmt.Errorf("study bench: re-slice %s failed", m.Name())
		}
	}
	return nil
}

// studyBenches runs the margins study's two benches:
//
//   - study/inject one fault-injected execution (sim.Inject) of an
//     ADAPT-L plan of a study graph under faults.Scaled(1) with slack
//     reclamation, the study's innermost layer;
//   - study/graph  one graph through every margins-study cell over a
//     fresh 4,096-plan cache, the study's unit of work.
//
// Both cycle through 8 seeds.
func studyBenches(bench func(string, func(*testing.B)) *result) error {
	const samples = 8
	type injectInput struct {
		w    *gen.Workload
		plan *pipeline.Plan
		tr   *faults.Trace
	}
	in := make([]injectInput, samples)
	for k := range in {
		cfg := studyGen()
		cfg.Seed = gen.SubSeed(1, k)
		w, err := gen.Generate(cfg)
		if err != nil {
			return err
		}
		plan, err := (&pipeline.Builder{}).Build(pipeline.Spec{Graph: w.Graph, Platform: w.Platform})
		if err != nil {
			return err
		}
		var span rtime.Time
		for _, o := range w.Graph.Outputs() {
			span = max(span, w.Graph.Task(o).ETEDeadline)
		}
		tr, err := faults.Scaled(1, cfg.Seed).Materialize(w.Graph, w.Platform, span)
		if err != nil {
			return err
		}
		in[k] = injectInput{w, plan, tr}
	}
	bench("study/inject", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x := in[i%samples]
			if _, err := sim.Inject(x.w.Graph, x.w.Platform, x.plan.Assignment, x.plan.Schedule,
				sim.Options{Faults: x.tr, Reclaim: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	bench("study/graph", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pipe := pipeline.Shared{Cache: pipeline.NewCache(studyCacheCapacity)}
			if err := studyGraph(pipe, int64(1+i%samples)); err != nil {
				b.Fatal(err)
			}
		}
	})
	return nil
}
