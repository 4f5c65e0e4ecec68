package experiment

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/slicing"
	"repro/internal/stats"
	"repro/internal/wcet"
)

func smallConfig(metric slicing.Metric) Config {
	g := gen.Default(3)
	g.OLR = DefaultOLR
	return Config{
		Gen:        g,
		Metric:     metric,
		Params:     slicing.CalibratedParams(),
		WCET:       wcet.AVG,
		NumGraphs:  30,
		MasterSeed: 42,
	}
}

func TestRunBasics(t *testing.T) {
	p := Run(smallConfig(slicing.AdaptL()))
	if p.Success.Total != 30 {
		t.Fatalf("Total = %d, want 30", p.Success.Total)
	}
	if p.Errors != 0 {
		t.Errorf("Errors = %d", p.Errors)
	}
	if p.Success.Succ == 0 {
		t.Error("ADAPT-L at the default point should schedule some workloads")
	}
	if p.Lateness.N() != 30 || p.MinLaxity.N() != 30 {
		t.Error("secondary measures not accumulated per workload")
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	base := smallConfig(slicing.NORM())
	var points []Point
	for _, workers := range []int{1, 2, 7} {
		cfg := base
		cfg.Workers = workers
		points = append(points, Run(cfg))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Success != points[0].Success {
			t.Errorf("workers=%d changed the success count: %v vs %v",
				[]int{1, 2, 7}[i], points[i].Success, points[0].Success)
		}
		// Welford merges are float-order sensitive, so allow rounding
		// noise; the statistics themselves must agree.
		if d := points[i].Lateness.Mean() - points[0].Lateness.Mean(); d > 1e-6 || d < -1e-6 {
			t.Errorf("lateness mean depends on worker count: %v vs %v",
				points[i].Lateness.Mean(), points[0].Lateness.Mean())
		}
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	a := Run(smallConfig(slicing.PURE()))
	cfg := smallConfig(slicing.PURE())
	cfg.MasterSeed = 43
	b := Run(cfg)
	if a.Success == b.Success && a.Lateness.Mean() == b.Lateness.Mean() {
		t.Error("different master seeds gave identical points (suspicious)")
	}
}

func TestSchedulerVariantsBothWork(t *testing.T) {
	for _, d := range []pipeline.Dispatcher{{}, pipeline.TimeDriven(), pipeline.Planner()} {
		cfg := smallConfig(slicing.AdaptL())
		cfg.Dispatcher = d
		p := Run(cfg)
		if p.Errors != 0 || p.Success.Total != 30 {
			t.Errorf("%q: errors=%d total=%d", d.Name, p.Errors, p.Success.Total)
		}
	}
}

func TestFigureShapes(t *testing.T) {
	opts := DefaultOptions()
	opts.NumGraphs = 4 // shape check only
	cases := []struct {
		fig     int
		series  int
		columns int
	}{
		{2, 4, 7},
		{3, 4, len(OLRSweep)},
		{4, 4, len(ETDSweep)},
		{5, 3, len(OLRSweep)},
		{6, 3, len(ETDSweep)},
	}
	for _, c := range cases {
		table := Figures[c.fig](opts)
		if len(table.Series) != c.series {
			t.Errorf("fig %d: %d series, want %d", c.fig, len(table.Series), c.series)
		}
		if len(table.XValues) != c.columns {
			t.Errorf("fig %d: %d columns, want %d", c.fig, len(table.XValues), c.columns)
		}
		for _, s := range table.Series {
			if len(s.Points) != c.columns {
				t.Errorf("fig %d series %s: %d points", c.fig, s.Name, len(s.Points))
			}
			for _, p := range s.Points {
				if p.Success.Total != 4 || p.Errors != 0 {
					t.Errorf("fig %d series %s: bad point %+v", c.fig, s.Name, p.Success)
				}
			}
		}
	}
}

func TestTableHelpers(t *testing.T) {
	table := Table{
		Title:   "t",
		XLabel:  "x",
		XValues: []string{"1", "2"},
		Series: []Series{
			{Name: "a", Points: []Point{{}, {}}},
		},
	}
	table.Series[0].Points[0].Success.Add(true)
	table.Series[0].Points[1].Success.Add(false)
	row := table.SuccessRow(0)
	if row[0] != 1 || row[1] != 0 {
		t.Errorf("SuccessRow = %v", row)
	}
	if i, err := table.SeriesByName("a"); err != nil || i != 0 {
		t.Errorf("SeriesByName = %d, %v", i, err)
	}
	if _, err := table.SeriesByName("zzz"); err == nil {
		t.Error("missing series not reported")
	}
}

func TestFormatTable(t *testing.T) {
	table := Table{
		Title:   "Figure X",
		XLabel:  "m",
		XValues: []string{"2", "3"},
		Series:  []Series{{Name: "PURE", Points: make([]Point, 2)}},
	}
	table.Series[0].Points[0].Success = statsRatio(1, 2)
	table.Series[0].Points[1].Success = statsRatio(2, 2)
	out := FormatTable(table)
	if !strings.Contains(out, "Figure X") || !strings.Contains(out, "PURE") {
		t.Errorf("table missing pieces:\n%s", out)
	}
	if !strings.Contains(out, "50.0%") || !strings.Contains(out, "100.0%") {
		t.Errorf("percentages missing:\n%s", out)
	}
	csv := FormatTableCSV(table)
	if !strings.HasPrefix(csv, "series,2,3\n") || !strings.Contains(csv, "PURE,0.5000,1.0000") {
		t.Errorf("CSV wrong:\n%s", csv)
	}
}

func TestOptionsParamsFallback(t *testing.T) {
	var o Options
	if o.params() != slicing.CalibratedParams() {
		t.Error("zero Params should fall back to the calibrated set")
	}
	o.Params = slicing.DefaultParams()
	if o.params() != slicing.DefaultParams() {
		t.Error("explicit Params ignored")
	}
}

// statsRatio builds a Ratio value for table tests.
func statsRatio(succ, total int) (r stats.Ratio) {
	for i := 0; i < total; i++ {
		r.Add(i < succ)
	}
	return r
}

func TestClassifyCountsProvablyInfeasible(t *testing.T) {
	cfg := smallConfig(slicing.PURE())
	cfg.Classify = true
	g := cfg.Gen
	g.OLR = 0.35 // tight enough that many assignments are provably dead
	cfg.Gen = g
	p := Run(cfg)
	if p.ProvablyInfeasible == 0 {
		t.Error("tight point should certify some assignments infeasible")
	}
	failures := p.Success.Total - p.Success.Succ
	if p.ProvablyInfeasible > failures {
		t.Errorf("certified %d infeasible but only %d failed", p.ProvablyInfeasible, failures)
	}
	// Without Classify the counter stays zero.
	cfg.Classify = false
	if q := Run(cfg); q.ProvablyInfeasible != 0 {
		t.Error("counter filled without Classify")
	}
}

// Sporadic releases can only demote a point's successes: a plan counts
// only when every release meets its shifted deadline. And with releases
// spaced far beyond any horizon, each release replays the one-shot
// schedule verbatim, so the success count must match exactly.
func TestRunSporadicRelease(t *testing.T) {
	base := smallConfig(slicing.AdaptL())
	single := Run(base)

	wide := base
	wide.Release = gen.Release{Mode: gen.ReleaseSporadic, Count: 3, MinGap: 1 << 20}
	wp := Run(wide)
	if wp.Errors != 0 {
		t.Fatalf("wide sporadic point errored %d times", wp.Errors)
	}
	if wp.Success != single.Success {
		t.Errorf("disjoint releases changed success: %v, one-shot %v", wp.Success, single.Success)
	}

	tight := base
	tight.Release = gen.Release{Mode: gen.ReleaseSporadic, Count: 4, MinGap: 40, Jitter: 10}
	tp := Run(tight)
	if tp.Errors != 0 {
		t.Fatalf("tight sporadic point errored %d times", tp.Errors)
	}
	if tp.Success.Succ > single.Success.Succ {
		t.Errorf("overlapping releases raised success: %v > %v", tp.Success, single.Success)
	}
	// Secondary measures still grade the base plan.
	if tp.Lateness.N() != single.Lateness.N() {
		t.Errorf("lateness sample size %d, want %d", tp.Lateness.N(), single.Lateness.N())
	}
}
