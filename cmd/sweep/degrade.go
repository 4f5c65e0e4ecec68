package main

import (
	"fmt"

	"repro/internal/degrade"
	"repro/internal/experiment"
	"repro/internal/slicing"
	"repro/internal/wcet"
)

// studyDegrade measures graceful degradation on mixed-criticality
// workloads: as the fault intensity rises, the online mode controller
// climbs the degradation ladder, shedding optional work so the
// mandatory set keeps meeting its deadlines. Mandatory success is 1.0
// at every admitted level and the per-workload achieved value is
// non-increasing along the ramp by construction; the numbers worth
// comparing are how much value each policy retains per metric and how
// often the ladder saturates or rejects outright.
func studyDegrade() int {
	header("graceful degradation: achieved value under overload-triggered mode changes", false)
	intensities := []float64{0, 0.25, 0.5, 0.75, 1.0}
	run := func(metric slicing.Metric, pol degrade.Policy) (experiment.DegradeCurve, bool) {
		g := genCfg()
		g.OptionalProb = 0.5
		curve, err := experiment.DegradeRun(experiment.DegradeConfig{
			Gen: g, Metric: metric, Params: slicing.CalibratedParams(), WCET: wcet.AVG,
			NumGraphs: sw.graphs, MasterSeed: sw.seed, Workers: sw.workers,
			Intensities: intensities,
			Degrade:     degrade.Options{Policy: pol},
			Reclaim:     true,
			Timeout:     sw.wtimeout,
			Pipe:        sw.pipe,
		})
		if err != nil {
			fmt.Fprintf(sw.errw, "sweep: %v\n", err)
			return curve, false
		}
		return curve, true
	}

	metrics := marginMetrics()
	fmt.Fprintln(sw.w, "  mixed-criticality workloads (p(optional)=0.50, slack reclamation on);")
	fmt.Fprintln(sw.w, "  mean achieved value% / mandatory-success% per fault intensity:")
	for _, pol := range degrade.Policies {
		curves := make([]experiment.DegradeCurve, len(metrics))
		for mi, metric := range metrics {
			c, ok := run(metric, pol)
			if !ok {
				return 2
			}
			curves[mi] = c
		}
		fmt.Fprintf(sw.w, "  policy %v:\n", pol)
		for p, intensity := range intensities {
			fmt.Fprintf(sw.w, "  i=%.2f", intensity)
			for mi, metric := range metrics {
				pt := curves[mi].Points[p]
				fmt.Fprintf(sw.w, "  %s %5.1f%%/%5.1f%%", metric.Name(),
					100*pt.Value.Mean(), 100*pt.MandatoryMet.Value())
			}
			fmt.Fprintln(sw.w)
		}
		// One detail row per policy: how hard ADAPT-L worked at the top
		// of the ramp (the other metrics face identical scenarios).
		for mi, metric := range metrics {
			if metric.Name() != "ADAPT-L" {
				continue
			}
			pt := curves[mi].Points[len(intensities)-1]
			fmt.Fprintf(sw.w, "    (ADAPT-L at i=1.00: mean level %.2f, %d escalations, %d saturated, %d rejected)\n",
				pt.Level.Mean(), pt.Escalations, pt.Saturated, pt.Rejected)
		}
	}
	fmt.Fprintln(sw.w, "  (value is the admitted mode's retained fraction, 0 when even the top")
	fmt.Fprintln(sw.w, "   mode misses mandatory deadlines; misses are judged against the")
	fmt.Fprintln(sw.w, "   re-sliced windows of the admitted mode's own re-verified plan)")
	return 0
}
