// Command sweep runs the ablation studies the paper's discussion (§7)
// calls for, beyond the five headline figures:
//
//	-study kl      ADAPT-L sensitivity to the local adaptivity factor k_L
//	-study kg      ADAPT-G sensitivity to the global adaptivity factor k_G
//	-study cthres  sensitivity to the execution-time threshold factor
//	-study ccr     sensitivity to the communication-to-computation ratio
//	-study mode    Consistent vs Faithful slicing bookkeeping
//	-study sched   dispatcher vs planner vs insertion vs preemptive EDF
//	-study overlap slicing vs the overlapping-window baselines (UD/ED)
//	-study shape   robustness across graph structures (§1's decompositions)
//	-study res     resource contention: ADAPT-L vs the ADAPT-R extension (§7.3)
//	-study optgap  dispatcher-fault vs metric-fault failure attribution
//	-study late    mean max lateness under loose deadlines (§4.2)
//	-study hom     homogeneous single-class platforms (the [12] setting)
//	-study policy  dispatch policies: EDF vs DM vs FIFO vs LLF (§7.3)
//	-study pinned  strict vs relaxed locality constraints (§1)
//	-study headroom searched virtual costs vs ADAPT-L (annealing upper bound)
//	-study adaptn  ADAPT-N (NORM-shaped adaptive) across the ETD axis
//	-study faults  graceful degradation under injected faults (WCET
//	               overruns, processor loss, bus jitter) with and without
//	               online slack reclamation
//	-study margins robustness margins: breakdown factors (the critical
//	               WCET scaling each assignment survives), success under
//	               WCET estimation error (multiplicative, class-bias,
//	               heavy-tail), and adaptive re-slicing recovery
//	-study degrade graceful degradation on mixed-criticality workloads:
//	               achieved value vs fault intensity as the online mode
//	               controller sheds optional work (shed-value, shed-pset,
//	               budget policies)
//
// Each study prints a success-ratio table over its parameter axis for a
// three-processor system at the calibrated operating point.
//
// -release sporadic judges every plan over a recurring workload instead
// of a single release: each workload re-releases -releases times with a
// minimum inter-arrival time of -mit and up to -rjitter of release
// jitter, and a plan succeeds only when every release meets its shifted
// deadlines (the margins and faults studies likewise perturb the whole
// released horizon). The released horizon is dispatched time-driven
// whatever a row's dispatcher; a row under another dispatcher must also
// meet every deadline of its own single-release schedule. The overlap,
// optgap, late, headroom and degrade studies judge a single release,
// and their headers name no release model.
//
// Long sweeps can checkpoint: -checkpoint journal.jsonl records every
// completed cell, and -resume replays the journal so an interrupted run
// recomputes only the missing cells and renders byte-identically.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/anneal"
	"repro/internal/arch"
	"repro/internal/deadline"
	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/slicing"
	"repro/internal/wcet"
)

// cfgT carries the sweep-wide knobs; a value is built per invocation so
// the study functions stay testable.
type cfgT struct {
	graphs     int
	seed       int64
	m          int
	olr        float64
	workers    int
	checkpoint string
	resume     bool
	wtimeout   time.Duration
	stats      bool
	rel        gen.Release
	pipe       pipeline.Shared
	w          io.Writer
	errw       io.Writer
}

var sw cfgT

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	graphs := fs.Int("graphs", 512, "workloads per data point")
	seed := fs.Int64("seed", 19990412, "master seed")
	m := fs.Int("m", 3, "number of processors")
	olr := fs.Float64("olr", experiment.DefaultOLR, "overall laxity ratio")
	workers := fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
	study := fs.String("study", "", "study to run (empty = all)")
	checkpoint := fs.String("checkpoint", "", "journal completed cells to this file (margins study)")
	resume := fs.Bool("resume", false, "replay the -checkpoint journal before computing")
	wtimeout := fs.Duration("wtimeout", 0, "per-workload wall-clock budget (0 = none; margins study)")
	stats := fs.Bool("stats", false, "print the pipeline per-stage time/alloc breakdown after the studies")
	release := fs.String("release", "single", "release model the studies judge plans under (single, sporadic)")
	releases := fs.Int("releases", 8, "releases per workload under -release sporadic")
	mit := fs.Int64("mit", 1000, "minimum inter-arrival time between releases (sporadic)")
	rjitter := fs.Int64("rjitter", 0, "release jitter on top of the minimum inter-arrival time (sporadic)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	relMode, err := gen.ParseReleaseMode(*release)
	if err != nil {
		fmt.Fprintf(stderr, "sweep: -release: %v\n", err)
		return 2
	}
	rel := gen.Release{Mode: relMode, Count: *releases,
		MinGap: rtime.Time(*mit), Jitter: rtime.Time(*rjitter)}
	if relMode == gen.ReleaseSporadic {
		if err := rel.Validate(); err != nil {
			fmt.Fprintf(stderr, "sweep: %v\n", err)
			return 2
		}
	}
	sw = cfgT{graphs: *graphs, seed: *seed, m: *m, olr: *olr, workers: *workers,
		checkpoint: *checkpoint, resume: *resume, wtimeout: *wtimeout, stats: *stats,
		rel: rel, w: stdout, errw: stderr}
	// One plan cache and recorder shared by every study of the
	// invocation: workloads revisited across studies (same seed, metric,
	// parameters, scheduler) reuse their plans, and -stats aggregates
	// every build. Allocation counters need per-stage ReadMemStats
	// sampling, so they are only taken when -stats asks for the table.
	sw.pipe = pipeline.Shared{Cache: pipeline.NewCache(4096)}
	if sw.stats {
		sw.pipe.Recorder = pipeline.NewRecorder(true)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "sweep: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "sweep: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "sweep: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "sweep: %v\n", err)
			}
		}()
	}
	if sw.stats {
		defer func() {
			fmt.Fprintf(sw.w, "\n%s  plan cache: %d plans resident\n",
				sw.pipe.Recorder.Summary().Format(), sw.pipe.Cache.Len())
		}()
	}

	// ok adapts the infallible studies to the exit-code signature the
	// checkpointing ones need.
	ok := func(f func()) func() int {
		return func() int { f(); return 0 }
	}
	studies := map[string]func() int{
		"kl":       ok(studyKL),
		"kg":       ok(studyKG),
		"cthres":   ok(studyCThres),
		"ccr":      ok(studyCCR),
		"mode":     ok(studyMode),
		"sched":    ok(studySched),
		"overlap":  ok(studyOverlap),
		"shape":    ok(studyShape),
		"res":      ok(studyResources),
		"optgap":   ok(studyOptGap),
		"late":     ok(studyLateness),
		"hom":      ok(studyHom),
		"policy":   ok(studyPolicy),
		"pinned":   ok(studyPinned),
		"headroom": ok(studyHeadroom),
		"adaptn":   ok(studyAdaptN),
		"faults":   ok(studyFaults),
		"margins":  studyMargins,
		"degrade":  studyDegrade,
	}
	if *study != "" {
		f, ok := studies[*study]
		if !ok {
			fmt.Fprintf(stderr, "sweep: unknown study %q\n", *study)
			return 2
		}
		return f()
	}
	code := 0
	for _, name := range []string{"kl", "kg", "cthres", "ccr", "mode", "sched", "overlap", "shape", "res", "optgap", "late", "hom", "policy", "pinned", "headroom", "adaptn", "faults", "margins", "degrade"} {
		if c := studies[name](); c != 0 {
			code = c
		}
		fmt.Fprintln(sw.w)
	}
	return code
}

func genCfg() gen.Config {
	g := gen.Default(sw.m)
	g.OLR = sw.olr
	return g
}

// runPoint renders the success percentage of one data point of the
// calibrated pipeline under the -release model.
func runPoint(g gen.Config, metric slicing.Metric, params slicing.Params, disp pipeline.Dispatcher) float64 {
	pt := experiment.Run(experiment.Config{
		Gen: g, Metric: metric, Params: params, WCET: wcet.AVG,
		NumGraphs: sw.graphs, MasterSeed: sw.seed, Workers: sw.workers, Dispatcher: disp,
		Pipe: sw.pipe, Release: sw.rel,
	})
	return 100 * pt.Success.Value()
}

// pointSucc renders the success percentage of one ad-hoc pipeline
// configuration — any distributor, any dispatcher — over the standard
// workload sample, each plan judged on a single release. A workload
// failing at any stage simply does not count as a success, as in all
// the ablation studies.
func pointSucc(cfg gen.Config, dist deadline.Distributor, disp pipeline.Dispatcher) float64 {
	b := &pipeline.Builder{
		Distributor: dist,
		Dispatcher:  disp,
		Cache:       sw.pipe.Cache,
		Recorder:    sw.pipe.Recorder,
	}
	succ := 0
	for idx := 0; idx < sw.graphs; idx++ {
		cfg.Seed = gen.SubSeed(sw.seed, idx)
		w, err := gen.Generate(cfg)
		if err != nil {
			continue
		}
		plan, err := b.Build(pipeline.Spec{Graph: w.Graph, Platform: w.Platform})
		if err != nil {
			continue
		}
		if plan.Verdict.Feasible {
			succ++
		}
	}
	return 100 * float64(succ) / float64(sw.graphs)
}

// header prints a study's title line. It names the -release model only
// when released is set: when every row of the study is judged under it.
func header(title string, released bool) {
	fmt.Fprintf(sw.w, "== %s (m=%d, OLR=%.2f, %d graphs/point", title, sw.m, sw.olr, sw.graphs)
	if released && sw.rel.Mode == gen.ReleaseSporadic {
		fmt.Fprintf(sw.w, ", sporadic %d×T=%d J=%d", sw.rel.Count, sw.rel.MinGap, sw.rel.Jitter)
	}
	fmt.Fprintln(sw.w, ") ==")
}

func studyKL() {
	header("ADAPT-L sensitivity to k_L (§7.1)", true)
	for _, kl := range []float64{0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.3} {
		p := slicing.CalibratedParams()
		p.KL = kl
		fmt.Fprintf(sw.w, "  k_L=%.2f  %5.1f%%\n", kl, runPoint(genCfg(), slicing.AdaptL(), p, pipeline.TimeDriven()))
	}
}

func studyKG() {
	header("ADAPT-G sensitivity to k_G (§7.1)", true)
	for _, kg := range []float64{0.1, 0.25, 0.5, 0.75, 1.0, 1.5} {
		p := slicing.CalibratedParams()
		p.KG = kg
		fmt.Fprintf(sw.w, "  k_G=%.2f  %5.1f%%\n", kg, runPoint(genCfg(), slicing.AdaptG(), p, pipeline.TimeDriven()))
	}
}

func studyCThres() {
	header("ADAPT-L sensitivity to c_thres factor", true)
	for _, f := range []float64{0.5, 0.75, 1.0, 1.25, 1.5} {
		p := slicing.CalibratedParams()
		p.CThresFactor = f
		fmt.Fprintf(sw.w, "  c_thres=%.2f·c_mean  %5.1f%%\n", f, runPoint(genCfg(), slicing.AdaptL(), p, pipeline.TimeDriven()))
	}
}

func studyCCR() {
	header("sensitivity to CCR (paper fixes 0.1)", true)
	for _, ccr := range []float64{0, 0.05, 0.1, 0.2, 0.5, 1.0} {
		g := genCfg()
		g.CCR = ccr
		fmt.Fprintf(sw.w, "  CCR=%.2f  ADAPT-L %5.1f%%  PURE %5.1f%%\n", ccr,
			runPoint(g, slicing.AdaptL(), slicing.CalibratedParams(), pipeline.TimeDriven()),
			runPoint(g, slicing.PURE(), slicing.CalibratedParams(), pipeline.TimeDriven()))
	}
}

func studyMode() {
	header("Consistent vs Faithful constraint bookkeeping (DESIGN.md)", true)
	for _, mode := range []slicing.Mode{slicing.Consistent, slicing.Faithful} {
		p := slicing.CalibratedParams()
		p.Mode = mode
		fmt.Fprintf(sw.w, "  %-10v", mode)
		for _, metric := range slicing.Metrics() {
			fmt.Fprintf(sw.w, "  %s %5.1f%%", metric.Name(), runPoint(genCfg(), metric, p, pipeline.TimeDriven()))
		}
		fmt.Fprintln(sw.w)
	}
}

func studySched() {
	header("time-driven dispatcher vs offline planner", true)
	// The paper's dispatcher, the offline planner, and the extension
	// schedulers, through the same pipeline core.
	for _, disp := range []pipeline.Dispatcher{pipeline.TimeDriven(), pipeline.Planner(), pipeline.Insertion(), pipeline.Preemptive()} {
		fmt.Fprintf(sw.w, "  %-12s", disp.Name)
		for _, metric := range slicing.Metrics() {
			fmt.Fprintf(sw.w, "  %s %5.1f%%", metric.Name(),
				runPoint(genCfg(), metric, slicing.CalibratedParams(), disp))
		}
		fmt.Fprintln(sw.w)
	}
}

func studyShape() {
	header("robustness across graph structures", true)
	// Serial-heavy shapes (fork-join) have far less parallelism, so the
	// same OLR is much tighter relative to their critical path; show two
	// tightness rows per shape.
	for _, shape := range gen.Shapes {
		for _, olrV := range []float64{sw.olr, sw.olr + 0.25} {
			fmt.Fprintf(sw.w, "  %-10v OLR=%.2f", shape, olrV)
			for _, metric := range slicing.Metrics() {
				cfg := genCfg()
				cfg.Shape = shape
				cfg.OLR = olrV
				fmt.Fprintf(sw.w, "  %s %5.1f%%", metric.Name(),
					runPoint(cfg, metric, slicing.CalibratedParams(), pipeline.TimeDriven()))
			}
			fmt.Fprintln(sw.w)
		}
	}
}

func studyResources() {
	header("exclusive-resource contention: ADAPT-L vs ADAPT-R (§7.3)", true)
	for _, prob := range []float64{0, 0.2, 0.4} {
		cfg := genCfg()
		if prob > 0 {
			cfg.NumResources = 2
			cfg.ResourceProb = prob
		}
		fmt.Fprintf(sw.w, "  p(res)=%.1f  ADAPT-L %5.1f%%  ADAPT-R %5.1f%%\n", prob,
			runPoint(cfg, slicing.AdaptL(), slicing.CalibratedParams(), pipeline.TimeDriven()),
			runPoint(cfg, slicing.AdaptR(), slicing.CalibratedParams(), pipeline.TimeDriven()))
	}
}

func studyOptGap() {
	header("failure attribution: dispatcher vs deadline distribution (small graphs)", false)
	for _, metric := range []slicing.Metric{slicing.PURE(), slicing.AdaptL()} {
		res := experiment.OptGap(experiment.OptGapConfig{
			Metric:     metric,
			Params:     slicing.CalibratedParams(),
			M:          2,
			OLR:        sw.olr,
			MinTasks:   8,
			MaxTasks:   12,
			NumGraphs:  min(sw.graphs, 200),
			MasterSeed: sw.seed,
			NodeBudget: 400_000,
			Workers:    sw.workers,
			Pipe:       sw.pipe,
		})
		fmt.Fprintf(sw.w, "  %-8s %v\n", metric.Name(), res)
	}
}

func studyLateness() {
	header("mean max lateness under loose deadlines (§4.2 secondary measure)", false)
	opts := experiment.DefaultOptions()
	opts.NumGraphs = sw.graphs
	opts.MasterSeed = sw.seed
	opts.Workers = sw.workers
	fmt.Fprint(sw.w, experiment.FormatLatenessTable(experiment.LatenessStudy(opts)))
}

func studyHom() {
	header("homogeneous single-class platform (the setting of [12])", true)
	// Identical processors, one class, no per-class ineligibility: the
	// configuration the ADAPT metrics were first proposed for. The same
	// ordering should hold without any heterogeneity in play.
	for _, metric := range slicing.Metrics() {
		cfg := genCfg()
		cfg.Kind = arch.Identical
		cfg.MinClasses, cfg.MaxClasses = 1, 1
		cfg.IneligibleProb = 0
		fmt.Fprintf(sw.w, "  %s %5.1f%%", metric.Name(),
			runPoint(cfg, metric, slicing.CalibratedParams(), pipeline.TimeDriven()))
	}
	fmt.Fprintln(sw.w)
}

func studyPolicy() {
	header("dispatch policies under ADAPT-L windows (§7.3)", true)
	for _, pol := range sched.Policies {
		fmt.Fprintf(sw.w, "  %-5v %5.1f%%\n", pol,
			runPoint(genCfg(), slicing.AdaptL(), slicing.CalibratedParams(), pipeline.WithPolicy(pol)))
	}
}

func studyPinned() {
	header("strict vs relaxed locality constraints (§1)", true)
	// Pin an increasing fraction of the boundary (sensor/actuator)
	// tasks; pinned tasks have exact a-priori WCETs but zero assignment
	// freedom.
	for _, prob := range []float64{0, 0.25, 0.5, 1.0} {
		fmt.Fprintf(sw.w, "  pin=%.2f ", prob)
		for _, metric := range slicing.Metrics() {
			cfg := genCfg()
			cfg.PinProb = prob
			fmt.Fprintf(sw.w, "  %s %5.1f%%", metric.Name(),
				runPoint(cfg, metric, slicing.CalibratedParams(), pipeline.TimeDriven()))
		}
		fmt.Fprintln(sw.w)
	}
}

func studyHeadroom() {
	header("headroom above ADAPT-L: annealed virtual costs (related work [15])", false)
	graphsN := min(sw.graphs, 120)
	builder := &pipeline.Builder{
		Distributor: deadline.Sliced{Metric: slicing.AdaptL(), Params: slicing.CalibratedParams()},
		Cache:       sw.pipe.Cache,
		Recorder:    sw.pipe.Recorder,
	}
	alSucc, annSucc := 0, 0
	for idx := 0; idx < graphsN; idx++ {
		cfg := genCfg()
		cfg.Seed = gen.SubSeed(sw.seed, idx)
		w, err := gen.Generate(cfg)
		if err != nil {
			continue
		}
		plan, err := builder.Build(pipeline.Spec{Graph: w.Graph, Platform: w.Platform})
		if err != nil {
			continue
		}
		if plan.Verdict.Feasible {
			alSucc++
			annSucc++ // annealing starts from ADAPT-L: never worse
			continue
		}
		res, err := anneal.Search(w.Graph, w.Platform, plan.Estimates, slicing.CalibratedParams(),
			anneal.Options{Iterations: 300, Seed: gen.SubSeed(sw.seed+1, idx)})
		if err != nil {
			continue
		}
		if res.Schedule.Feasible {
			annSucc++
		}
	}
	fmt.Fprintf(sw.w, "  ADAPT-L %5.1f%%   annealed ĉ %5.1f%%   (%d workloads; the gap is the\n",
		100*float64(alSucc)/float64(graphsN), 100*float64(annSucc)/float64(graphsN), graphsN)
	fmt.Fprintln(sw.w, "   headroom any closed-form virtual-cost metric could still claim)")
}

func studyAdaptN() {
	header("ADAPT-N: NORM-shaped adaptive metric across ETD (§6.3 follow-up)", true)
	metrics := []slicing.Metric{slicing.NORM(), slicing.AdaptG(), slicing.AdaptL(), slicing.AdaptN()}
	for _, etd := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		fmt.Fprintf(sw.w, "  ETD=%3.0f%%", etd*100)
		for _, metric := range metrics {
			cfg := genCfg()
			cfg.ETD = etd
			fmt.Fprintf(sw.w, "  %s %5.1f%%", metric.Name(),
				runPoint(cfg, metric, slicing.CalibratedParams(), pipeline.TimeDriven()))
		}
		fmt.Fprintln(sw.w)
	}
}

func studyFaults() {
	header("graceful degradation under injected faults (robustness)", true)
	runFaultPoint := func(metric slicing.Metric, intensity float64, reclaim bool) experiment.FaultPoint {
		return experiment.FaultRun(experiment.FaultConfig{
			Gen: genCfg(), Metric: metric, Params: slicing.CalibratedParams(), WCET: wcet.AVG,
			NumGraphs: sw.graphs, MasterSeed: sw.seed, Workers: sw.workers,
			Intensity: intensity, Reclaim: reclaim, Pipe: sw.pipe, Release: sw.rel,
		})
	}
	// Success ratio and per-run task miss ratio per metric as the fault
	// intensity rises; intensity 0 is the nominal time-driven row of
	// -study sched.
	intensities := []float64{0, 0.25, 0.5, 0.75, 1.0}
	fmt.Fprintf(sw.w, "  success%% / mean task-miss%% per run:\n")
	for _, intensity := range intensities {
		fmt.Fprintf(sw.w, "  i=%.2f", intensity)
		for _, metric := range slicing.Metrics() {
			p := runFaultPoint(metric, intensity, false)
			fmt.Fprintf(sw.w, "  %s %5.1f%%/%4.1f%%", metric.Name(),
				100*p.Success.Value(), 100*p.MissRatio.Mean())
		}
		fmt.Fprintln(sw.w)
	}
	// Recovery: the same faulted runs with online slack reclamation.
	fmt.Fprintln(sw.w, "  with slack-reclamation recovery:")
	for _, intensity := range intensities {
		fmt.Fprintf(sw.w, "  i=%.2f", intensity)
		for _, metric := range slicing.Metrics() {
			p := runFaultPoint(metric, intensity, true)
			fmt.Fprintf(sw.w, "  %s %5.1f%%/%4.1f%%", metric.Name(),
				100*p.Success.Value(), 100*p.MissRatio.Mean())
		}
		fmt.Fprintln(sw.w)
	}
	p := runFaultPoint(slicing.AdaptL(), 1, true)
	fmt.Fprintf(sw.w, "  (ADAPT-L at i=1.00: %d overruns, %d aborts, %d migrations, %d reclamations\n",
		p.Overruns, p.Aborted, p.Migrations, p.Reclamations)
	fmt.Fprintf(sw.w, "   over %d runs; misses are always judged against the original windows)\n",
		sw.graphs)
}

func studyOverlap() {
	header("slicing vs overlapping-window baselines (UD/ED)", false)
	dists := []deadline.Distributor{
		deadline.Sliced{Metric: slicing.AdaptL(), Params: slicing.CalibratedParams()},
		deadline.Sliced{Metric: slicing.PURE(), Params: slicing.CalibratedParams()},
		deadline.UD{},
		deadline.ED{},
	}
	for _, d := range dists {
		fmt.Fprintf(sw.w, "  %-14s %5.1f%%\n", d.Name(), pointSucc(genCfg(), d, pipeline.TimeDriven()))
	}
	fmt.Fprintln(sw.w, "  (UD/ED check only the end-to-end deadline; slicing additionally")
	fmt.Fprintln(sw.w, "   guarantees I1/I2 — independent per-processor scheduling, no jitter)")
}
