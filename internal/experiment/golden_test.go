package experiment

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/degrade"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/robust"
	"repro/internal/slicing"
	"repro/internal/stats"
	"repro/internal/wcet"
)

// The golden files pin the exact numeric output of the study entry
// points for fixed seeds, so refactors of the planning path (the
// estimate → slice → dispatch sequence now lives in internal/pipeline)
// are provably behavior-preserving: any drift in any aggregate of any
// study shows up as a byte diff. Regenerate with
//
//	go test ./internal/experiment -run TestGolden -update
//
// only when an intentional behavior change is being made.
var update = flag.Bool("update", false, "rewrite the golden study tables")

const goldenSeed = 424242

func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if string(want) != got {
		t.Errorf("output drifted from %s:\n--- want\n%s--- got\n%s", path, want, got)
	}
}

// fr renders a Running accumulator with full float64 round-trip
// precision, so any numeric drift — not just large ones — breaks the
// golden comparison.
func fr(r stats.Running) string {
	return fmt.Sprintf("n=%d mean=%g min=%g max=%g", r.N(), r.Mean(), r.Min(), r.Max())
}

func TestGoldenRun(t *testing.T) {
	var sb strings.Builder
	for _, olr := range []float64{0.45, 0.8} { // tight deadlines exercise the failure paths
		for _, metric := range slicing.Metrics() {
			for _, disp := range []pipeline.Dispatcher{pipeline.TimeDriven(), pipeline.Planner()} {
				gcfg := gen.Default(3)
				gcfg.OLR = olr
				pt := Run(Config{
					Gen: gcfg, Metric: metric, Params: slicing.CalibratedParams(),
					WCET: wcet.AVG, NumGraphs: 24, MasterSeed: goldenSeed, Dispatcher: disp,
					Classify: true,
				})
				fmt.Fprintf(&sb, "olr=%g %s %v succ=%d/%d overc=%d infeas=%d errs=%d late{%s} lax{%s}\n",
					olr, metric.Name(), disp.Name, pt.Success.Succ, pt.Success.Total, pt.OverConstrained,
					pt.ProvablyInfeasible, pt.Errors, fr(pt.Lateness), fr(pt.MinLaxity))
			}
		}
	}
	goldenCompare(t, "golden_run.txt", sb.String())
}

func TestGoldenFaultRun(t *testing.T) {
	var sb strings.Builder
	for _, metric := range []slicing.Metric{slicing.PURE(), slicing.AdaptL()} {
		for _, intensity := range []float64{0, 0.5, 1} {
			for _, reclaim := range []bool{false, true} {
				pt := FaultRun(FaultConfig{
					Gen: gen.Default(3), Metric: metric, Params: slicing.CalibratedParams(),
					WCET: wcet.AVG, NumGraphs: 16, MasterSeed: goldenSeed,
					Intensity: intensity, Reclaim: reclaim,
				})
				fmt.Fprintf(&sb, "%s i=%g reclaim=%v succ=%d/%d miss{%s} ete{%s} meanlate{%s} maxlate{%s} first{%s} ov=%d ab=%d mig=%d rec=%d errs=%d\n",
					metric.Name(), intensity, reclaim, pt.Success.Succ, pt.Success.Total,
					fr(pt.MissRatio), fr(pt.ETEMissRatio), fr(pt.MeanLateness), fr(pt.MaxLateness),
					fr(pt.FirstMiss), pt.Overruns, pt.Aborted, pt.Migrations, pt.Reclamations, pt.Errors)
			}
		}
	}
	goldenCompare(t, "golden_faultrun.txt", sb.String())
}

func TestGoldenMarginRun(t *testing.T) {
	var sb strings.Builder
	for _, kind := range []wcet.ErrorKind{wcet.ErrMultiplicative, wcet.ErrClassBias} {
		for _, level := range []float64{0, 0.5} {
			pt := MarginRun(MarginConfig{
				Gen: gen.Default(3), Metric: slicing.AdaptL(), Params: slicing.CalibratedParams(),
				WCET: wcet.AVG, NumGraphs: 16, MasterSeed: goldenSeed,
				Model:   wcet.ErrorModel{Kind: kind, Level: level},
				Reslice: robust.ResliceOptions{MaxRetries: 3},
			})
			fmt.Fprintf(&sb, "%v lvl=%g succ=%d/%d miss{%s} ete{%s} rec=%d/%d iters{%s} ov=%d rc=%d errs=%d\n",
				kind, level, pt.Success.Succ, pt.Success.Total, fr(pt.MissRatio), fr(pt.ETEMissRatio),
				pt.Recovered.Succ, pt.Recovered.Total, fr(pt.ResliceIters), pt.Overruns,
				pt.Reclamations, pt.Errors)
		}
	}
	for _, metric := range []slicing.Metric{slicing.PURE(), slicing.AdaptL()} {
		pt := BreakdownRun(MarginConfig{
			Gen: gen.Default(3), Metric: metric, Params: slicing.CalibratedParams(),
			WCET: wcet.AVG, NumGraphs: 16, MasterSeed: goldenSeed,
		})
		fmt.Fprintf(&sb, "breakdown %s factor{%s} unbounded=%d nominal=%d/%d errs=%d\n",
			metric.Name(), fr(pt.Factor), pt.Unbounded, pt.Nominal.Succ, pt.Nominal.Total, pt.Errors)
	}
	goldenCompare(t, "golden_marginrun.txt", sb.String())
}

func TestGoldenDegradeRun(t *testing.T) {
	gcfg := gen.Default(3)
	gcfg.OptionalProb = 0.5
	var sb strings.Builder
	for _, pol := range []degrade.Policy{degrade.ShedLowestValue, degrade.ProportionalBudget} {
		curve, err := DegradeRun(DegradeConfig{
			Gen: gcfg, Metric: slicing.AdaptL(), Params: slicing.CalibratedParams(),
			WCET: wcet.AVG, NumGraphs: 10, MasterSeed: goldenSeed,
			Intensities: []float64{0, 0.5, 1},
			Degrade:     degrade.Options{Policy: pol},
			Reclaim:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for p, intensity := range curve.Intensities {
			pt := curve.Points[p]
			fmt.Fprintf(&sb, "%v i=%g value{%s} mand=%d/%d level{%s} esc=%d sat=%d rej=%d moderr=%d fault.succ=%d/%d fault.miss{%s} errs=%d\n",
				pol, intensity, fr(pt.Value), pt.MandatoryMet.Succ, pt.MandatoryMet.Total,
				fr(pt.Level), pt.Escalations, pt.Saturated, pt.Rejected, pt.ModeErrors,
				pt.Fault.Success.Succ, pt.Fault.Success.Total, fr(pt.Fault.MissRatio), pt.Errors)
		}
	}
	goldenCompare(t, "golden_degraderun.txt", sb.String())
}
