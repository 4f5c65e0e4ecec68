package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/deadline"
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

// replayStudyOps is how many of the untraced run's ops a study replay
// pass carries.
const replayStudyOps = 12

// studyCounts are the replay's work counts.
type studyCounts struct {
	injects, probes, rounds, rebuilds int
	// reslices keeps each re-sliced graph's nominal plan and final
	// estimates for the side measurement of one rebuild.
	reslices []resliced
}

type resliced struct {
	metric slicing.Metric
	plan   *pipeline.Plan
	est    []rtime.Time
}

// perturbTrace converts an estimation-error draw into the fault trace
// the injected executor runs under, as the study does.
func perturbTrace(p wcet.Perturbation, pl *arch.Platform) *faults.Trace {
	tr := faults.ZeroTrace(len(p.TaskScale), pl.M())
	copy(tr.ExecScale, p.TaskScale)
	for q := 0; q < pl.M(); q++ {
		tr.Slow[q] = p.ClassScale[pl.ClassOf(q)]
	}
	return tr
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// studyReplayer replays study ops through gen.Generate,
// robust.BreakdownVia, the pipeline builder, sim.Inject and
// robust.ResliceLoop, with a span around each.
type studyReplayer struct {
	t    *tracer
	pipe pipeline.Shared
	// builds classifies each margin-cell build as cold or a lookup.
	builds *pipeline.Recorder
	c      studyCounts
}

func (r *studyReplayer) generate(root, k int, master int64) (*gen.Workload, error) {
	g := studyGen()
	g.Seed = gen.SubSeed(master, 0)
	s := r.t.begin("gen.generate", root, k)
	w, err := gen.Generate(g)
	r.t.end(s)
	return w, err
}

// breakdown replays one breakdown cell and checks it against the
// system's point.
func (r *studyReplayer) breakdown(root, k int, master int64, metric slicing.Metric, want experiment.BreakdownPoint) error {
	w, err := r.generate(root, k, master)
	if err != nil {
		return err
	}
	rec := pipeline.NewRecorder(false)
	b := studyBuilder(metric, pipeline.Shared{Cache: r.pipe.Cache, Recorder: rec})
	spec := pipeline.Spec{Graph: w.Graph, Platform: w.Platform}
	s := r.t.begin("robust.breakdown", root, k)
	bd, err := robust.BreakdownVia(b, spec, robust.BreakdownOptions{})
	r.t.end(s)
	if err != nil {
		return err
	}
	sum := rec.Summary()
	r.c.probes += int(sum.Builds + sum.Hits + sum.Coalesced)
	r.c.injects += int(sum.Builds + sum.Hits + sum.Coalesced)
	if sum.Builds > 0 {
		// The first probe planned the workload; its stages are the
		// breakdown span's children.
		plan, _, err := b.Probe(spec)
		if err != nil || plan == nil {
			return fmt.Errorf("breakdown plan not resident: %v", err)
		}
		r.t.stages(s, k, plan.Stats)
	}
	if want.Factor.Mean() != bd.Factor || want.Unbounded != b2i(bd.Unbounded) || want.Nominal.Succ != b2i(bd.SurvivesNominal) {
		return fmt.Errorf("breakdown %s differs from the study's", metric.Name())
	}
	return nil
}

// margin replays one estimation-error cell, with the re-slice loop
// when reslice is set, and checks it against the system's point.
func (r *studyReplayer) margin(root, k int, master int64, metric slicing.Metric, model wcet.ErrorModel,
	reslice bool, want experiment.MarginPoint) error {

	w, err := r.generate(root, k, master)
	if err != nil {
		return err
	}
	b := studyBuilder(metric, pipeline.Shared{Cache: r.pipe.Cache, Recorder: r.builds})
	before := r.builds.Summary().Builds
	s := r.t.begin("pipeline.lookup", root, k)
	plan, err := b.BuildContext(context.Background(), pipeline.Spec{Graph: w.Graph, Platform: w.Platform})
	r.t.end(s)
	if err != nil {
		return err
	}
	if r.builds.Summary().Builds != before && s >= 0 {
		r.t.spans[s].Name = "pipeline.build"
		r.t.stages(s, k, plan.Stats)
	}
	pert := model.Draw(w.Graph.NumTasks(), w.Platform.NumClasses(), gen.SubSeed(master+2, 0))
	tr := perturbTrace(pert, w.Platform)
	s = r.t.begin("sim.inject", root, k)
	ir, err := sim.Inject(w.Graph, w.Platform, plan.Assignment, plan.Schedule, sim.Options{Faults: tr})
	r.t.end(s)
	if err != nil {
		return err
	}
	r.c.injects++
	d := ir.Degradation
	if want.Success.Succ != b2i(d.Misses == 0) || want.MissRatio.Mean() != d.MissRatio() || want.Overruns != d.Overruns {
		return fmt.Errorf("margin cell %s %v differs from the study's", metric.Name(), model)
	}
	if !reslice || d.Misses == 0 {
		if want.Recovered.Total != 0 {
			return fmt.Errorf("re-slice cell %s ran in the study but not in the replay", metric.Name())
		}
		return nil
	}
	s = r.t.begin("robust.reslice", root, k)
	rr, err := robust.ResliceLoop(w.Graph, w.Platform, plan.Estimates, metric, slicing.CalibratedParams(), tr,
		robust.ResliceOptions{MaxRetries: 4, Pipe: r.pipe})
	r.t.end(s)
	if err != nil {
		return err
	}
	r.c.rounds += rr.Iterations
	r.c.injects += rr.Iterations + 1
	r.c.rebuilds += rr.Rebuilds
	if rr.Iterations > 0 {
		r.c.reslices = append(r.c.reslices, resliced{metric, plan, rr.Estimates})
	}
	if want.Recovered.Succ != b2i(rr.Recovered) || want.ResliceIters.Mean() != float64(rr.Iterations) ||
		want.Rebuilds != rr.Rebuilds || want.RebuildHits != rr.RebuildHits {
		return fmt.Errorf("re-slice cell %s differs from the study's", metric.Name())
	}
	return nil
}

// op replays every cell of one graph in the study's order.
func (r *studyReplayer) op(k int, master int64, want studyCells) error {
	root := r.t.begin("op", -1, k)
	defer r.t.end(root)
	for i, m := range studyMetrics {
		if err := r.breakdown(root, k, master, m, want.breakdown[i]); err != nil {
			return err
		}
	}
	i := 0
	for _, kind := range wcet.ErrorKinds {
		for _, level := range studyLevels {
			for _, m := range studyMetrics {
				if err := r.margin(root, k, master, m, wcet.ErrorModel{Kind: kind, Level: level}, false, want.margin[i]); err != nil {
					return err
				}
				i++
			}
		}
	}
	for i, m := range studyMetrics {
		if err := r.margin(root, k, master, m, resliceModel, true, want.reslice[i]); err != nil {
			return err
		}
	}
	return nil
}

// traceStudy replays the first study ops with spans, checks the
// replay reproduces the study's cells, and reports the study's layers.
func traceStudy(o options, out *runOutcome, sr *studyRun) (map[string]metric, error) {
	m := perLayer()
	nops := min(replayStudyOps, len(sr.masters))
	var last studyCounts
	spans, oh, err := overhead(func(t *tracer) error {
		r := &studyReplayer{t: t, builds: pipeline.NewRecorder(false),
			pipe: pipeline.Shared{Cache: pipeline.NewCache(studyCacheCapacity), Recorder: pipeline.NewRecorder(false)}}
		for k := 0; k < nops; k++ {
			if err := r.op(k, sr.masters[k], sr.cells[k]); err != nil {
				return fmt.Errorf("replay of study op %d: %w", k, err)
			}
		}
		if got := r.pipe.Recorder.Summary().Rebuilds; int(got) != r.c.rebuilds {
			return fmt.Errorf("replay: recorder counts %d rebuilds, the re-slice loops %d", got, r.c.rebuilds)
		}
		last = r.c
		return nil
	})
	if err != nil {
		out.problems = append(out.problems, err.Error())
		return m, nil
	}
	if err := writeSpans(o, spans); err != nil {
		return nil, err
	}
	layers, _ := aggregate(spans)
	set(m, "trace.overhead_ratio", oh)
	set(m, "gen.generate_us", layers["gen.generate"].meanUS())
	set(m, "sim.inject_us", layers["sim.inject"].meanUS())
	set(m, "robust.breakdown_ms", layers["robust.breakdown"].meanUS()/1e3)
	set(m, "pipeline.lookup_us", layers["pipeline.lookup"].meanUS())
	set(m, "wcet.estimate_us", layers["wcet.estimate"].meanUS())
	set(m, "slicing.slice_us", layers["slicing.slice"].meanUS())
	set(m, "sched.dispatch_us", layers["sched.dispatch"].meanUS())
	set(m, "sim.injects_per_op", float64(last.injects)/float64(nops))
	set(m, "robust.probes_per_op", float64(last.probes)/float64(nops))
	set(m, "robust.reslice_rounds_per_op", float64(last.rounds)/float64(nops))

	// One incremental rebuild, timed outside the ops: each re-sliced
	// graph's nominal plan replanned with the loop's final estimates,
	// through an uncached replanner so the rebuild really runs.
	if len(last.reslices) > 0 {
		var d time.Duration
		for _, rs := range last.reslices {
			b := &pipeline.Builder{Distributor: deadline.Sliced{Metric: rs.metric, Params: slicing.CalibratedParams()}}
			start := time.Now()
			if _, _, err := b.NewReplanner().Rebuild(rs.plan, pipeline.EstimatesDelta(rs.est)); err != nil {
				return nil, fmt.Errorf("side rebuild: %w", err)
			}
			d += time.Since(start)
		}
		set(m, "pipeline.rebuild_us", d.Seconds()*1e6/float64(len(last.reslices)))
	}

	// Retained size of a plan: a fresh study cache after a few ops.
	pipe := pipeline.Shared{Cache: pipeline.NewCache(studyCacheCapacity)}
	h0 := heapInUse()
	for k := 0; k < min(4, nops); k++ {
		studyOp(pipe, sr.masters[k])
	}
	set(m, "pipeline.plan_kib", float64(int64(heapInUse())-int64(h0))/1024/float64(max(pipe.Cache.Len(), 1)))

	// Counts from the study's recorder over the untraced timed phase.
	n := float64(len(out.ops))
	b, a := sr.before, sr.after
	builds, hits := float64(a.Builds-b.Builds), float64(a.Hits-b.Hits)
	rebuilds := float64(a.Rebuilds - b.Rebuilds)
	set(m, "pipeline.hit_ratio", ratio(hits, hits+builds))
	set(m, "pipeline.builds_per_op", builds/n)
	set(m, "pipeline.coalesced_per_op", float64(a.Coalesced-b.Coalesced)/n)
	set(m, "pipeline.resident_plans", float64(sr.pipe.Cache.Len()))
	set(m, "pipeline.rebuilds_per_op", rebuilds/n)
	set(m, "pipeline.rebuild_incremental_ratio",
		ratio(rebuilds-float64(a.RebuildHits-b.RebuildHits)-float64(a.RebuildFallbacks-b.RebuildFallbacks), rebuilds))
	// The study process's CPU over the untraced phase against what its
	// workers could have used: time they spent blocked on the shared
	// cache, the collector or pool hand-offs lowers it.
	cpu := out.cpuAt[len(out.cpuAt)-1] - out.cpuAt[0]
	set(m, "experiment.worker_busy_ratio", cpu.Seconds()/(clients*out.wall.Seconds()))
	return m, nil
}
