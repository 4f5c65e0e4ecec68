package main

import (
	"fmt"

	"repro/internal/experiment"
	"repro/internal/robust"
	"repro/internal/slicing"
	"repro/internal/wcet"
)

// marginMetrics is the metric set of the robustness-margin study: the
// paper's four plus the resource-aware extension.
func marginMetrics() []slicing.Metric {
	return append(slicing.Metrics(), slicing.AdaptR())
}

// The journaled cells. All fields are exported so they roundtrip through
// the JSON journal, and the renderer reads only the cell — never the
// live point — so a resumed sweep prints byte-identically to an
// uninterrupted one (float64 survives encoding/json exactly).
type breakdownCell struct {
	Mean      float64 `json:"mean"`
	Max       float64 `json:"max"`
	Unbounded int     `json:"unbounded"`
	NomSucc   int     `json:"nom_succ"`
	NomTotal  int     `json:"nom_total"`
	Errors    int     `json:"errors"`
	Timeouts  int     `json:"timeouts"`
	Abandoned int     `json:"abandoned,omitempty"`
}

type marginCell struct {
	Succ     int     `json:"succ"`
	Total    int     `json:"total"`
	MissMean float64 `json:"miss_mean"`
	Overruns int     `json:"overruns"`
	Errors   int     `json:"errors"`
}

type resliceCell struct {
	RecSucc   int     `json:"rec_succ"`
	RecTotal  int     `json:"rec_total"`
	ItersMean float64 `json:"iters_mean"`
	Errors    int     `json:"errors"`
	// Correction rounds re-planned incrementally (pipeline.Rebuild) and
	// the subset answered from cache residency. omitempty keeps journals
	// written before these columns replayable.
	Rebuilds    int `json:"rebuilds,omitempty"`
	RebuildHits int `json:"rebuild_hits,omitempty"`
}

// cell returns the journaled value for key, computing and recording it
// on a miss. With a nil journal it always computes.
func cell[T any](j *experiment.Journal, key string, compute func() T) (T, error) {
	var c T
	ok, err := j.Lookup(key, &c)
	if err != nil || ok {
		return c, err
	}
	c = compute()
	return c, j.Record(key, c)
}

// studyMargins measures how much estimation error each metric's
// assignments absorb: breakdown factors (the critical uniform WCET
// scaling survived), success ratios under the wcet estimation-error
// models, and the adaptive re-slicing recovery rate. It is the one
// study wired to the -checkpoint/-resume journal.
func studyMargins() int {
	header("robustness margins under WCET estimation error", true)
	fingerprint := fmt.Sprintf("margins graphs=%d seed=%d m=%d olr=%g",
		sw.graphs, sw.seed, sw.m, sw.olr)
	var journal *experiment.Journal
	if sw.checkpoint != "" {
		var err error
		journal, err = experiment.OpenJournal(sw.checkpoint, fingerprint, sw.resume)
		if err != nil {
			fmt.Fprintf(sw.errw, "sweep: %v\n", err)
			return 2
		}
		defer journal.Close()
	}
	baseCfg := func(metric slicing.Metric) experiment.MarginConfig {
		return experiment.MarginConfig{
			Gen: genCfg(), Metric: metric, Params: slicing.CalibratedParams(), WCET: wcet.AVG,
			NumGraphs: sw.graphs, MasterSeed: sw.seed, Workers: sw.workers, Timeout: sw.wtimeout,
			Pipe: sw.pipe, Release: sw.rel,
		}
	}

	// Breakdown factors: the largest uniform execution-time scaling each
	// metric's assignments survive (bisection, capped at 4×). The
	// nominal column is the unscaled success ratio — identical to the
	// time-driven row of -study sched by construction.
	fmt.Fprintln(sw.w, "  breakdown factor (critical WCET scale, cap 4x; mean over sample):")
	for _, metric := range marginMetrics() {
		c, err := cell(journal, "breakdown/"+metric.Name(), func() breakdownCell {
			pt := experiment.BreakdownRun(baseCfg(metric))
			return breakdownCell{
				Mean: pt.Factor.Mean(), Max: pt.Factor.Max(), Unbounded: pt.Unbounded,
				NomSucc: pt.Nominal.Succ, NomTotal: pt.Nominal.Total,
				Errors: pt.Errors, Timeouts: pt.Timeouts, Abandoned: pt.Abandoned,
			}
		})
		if err != nil {
			fmt.Fprintf(sw.errw, "sweep: %v\n", err)
			return 2
		}
		fmt.Fprintf(sw.w, "  %-8s mean %5.2f  max %5.2f  unbounded %3.0f%%  nominal %5.1f%%",
			metric.Name(), c.Mean, c.Max,
			100*float64(c.Unbounded)/float64(max(c.NomTotal, 1)),
			100*float64(c.NomSucc)/float64(max(c.NomTotal, 1)))
		if c.Errors > 0 || c.Timeouts > 0 || c.Abandoned > 0 {
			fmt.Fprintf(sw.w, "  (%d errors, %d timeouts", c.Errors, c.Timeouts)
			if c.Abandoned > 0 {
				// Abandoned workload bodies were still running at pool
				// drain despite cooperative cancellation — a stage ran a
				// long uninterruptible computation.
				fmt.Fprintf(sw.w, ", %d abandoned", c.Abandoned)
			}
			fmt.Fprint(sw.w, ")")
		}
		fmt.Fprintln(sw.w)
	}

	// Estimation-error sweep: assignments planned from the estimates,
	// executed under perturbed truth. Level 0 of every model is the
	// zero-perturbation identity row.
	fmt.Fprintln(sw.w, "  success% when true WCETs deviate from the estimates:")
	for _, kind := range wcet.ErrorKinds {
		for _, level := range []float64{0, 0.1, 0.25, 0.5} {
			fmt.Fprintf(sw.w, "  %-4v lvl=%.2f", kind, level)
			for _, metric := range marginMetrics() {
				key := fmt.Sprintf("margin/%v/%g/%s", kind, level, metric.Name())
				c, err := cell(journal, key, func() marginCell {
					cfg := baseCfg(metric)
					cfg.Model = wcet.ErrorModel{Kind: kind, Level: level}
					pt := experiment.MarginRun(cfg)
					return marginCell{
						Succ: pt.Success.Succ, Total: pt.Success.Total,
						MissMean: pt.MissRatio.Mean(), Overruns: pt.Overruns,
						Errors: pt.Errors,
					}
				})
				if err != nil {
					fmt.Fprintf(sw.errw, "sweep: %v\n", err)
					return 2
				}
				fmt.Fprintf(sw.w, "  %s %5.1f%%", metric.Name(),
					100*float64(c.Succ)/float64(max(c.Total, 1)))
			}
			fmt.Fprintln(sw.w)
		}
	}

	// Adaptive re-slicing: runs that missed under the strongest
	// multiplicative error feed the observed execution times back into
	// the slicer (bounded retries, backed-off inflation).
	fmt.Fprintln(sw.w, "  adaptive re-slicing recovery (mult error, lvl=0.50, <=4 retries):")
	for _, metric := range marginMetrics() {
		c, err := cell(journal, "reslice/"+metric.Name(), func() resliceCell {
			cfg := baseCfg(metric)
			cfg.Model = wcet.ErrorModel{Kind: wcet.ErrMultiplicative, Level: 0.5}
			cfg.Reslice = robust.ResliceOptions{MaxRetries: 4}
			pt := experiment.MarginRun(cfg)
			return resliceCell{
				RecSucc: pt.Recovered.Succ, RecTotal: pt.Recovered.Total,
				ItersMean: pt.ResliceIters.Mean(), Errors: pt.Errors,
				Rebuilds: pt.Rebuilds, RebuildHits: pt.RebuildHits,
			}
		})
		if err != nil {
			fmt.Fprintf(sw.errw, "sweep: %v\n", err)
			return 2
		}
		fmt.Fprintf(sw.w, "  %-8s recovered %3.0f%% of %d missed runs, mean %.1f feedback iterations",
			metric.Name(), 100*float64(c.RecSucc)/float64(max(c.RecTotal, 1)),
			c.RecTotal, c.ItersMean)
		if c.Rebuilds > 0 {
			fmt.Fprintf(sw.w, " (%d rebuilds, %d cached)", c.Rebuilds, c.RebuildHits)
		}
		fmt.Fprintln(sw.w)
	}
	fmt.Fprintln(sw.w, "  (misses are always judged against the originally assigned windows)")
	return 0
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
