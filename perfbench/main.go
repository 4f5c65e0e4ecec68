// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload per invocation, checks every output the system produced,
// and prints one JSON result object as the last line of standard output:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// Three workloads (serve-hot, serve-cold, serve-routed) drive real
// cmd/pland processes over HTTP; study-margins runs the robustness-margin
// study's cells in process. With --trace 0 the result carries the
// end-to-end metrics; with --trace 1 the same run is followed by an
// in-process replay of the workload's seeded operations with spans
// around every layer call, and the result carries the per-layer
// metrics instead. README.md records why each workload and metric was
// chosen.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one named result value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// bin is the directory holding the pland binary built from this
	// checkout; span files are written there too.
	bin string
}

// runOutcome is what a workload's untraced run hands to the reporter
// and, with --trace 1, to its replay.
type runOutcome struct {
	// setups are the wall times of the repeated set-ups.
	setups []time.Duration
	*phase
	// rssMiB is the system's processes' summed peak resident set.
	rssMiB float64
	// problems lists every failed output check and broken invariant.
	problems []string
}

// phase is a timed phase's record.
type phase struct {
	// ops holds one record per attempted operation.
	ops []opRecord
	// wall is the phase's duration, window the length of each of its
	// windows but the last, which runs to the end of the phase.
	wall, window time.Duration
	// cpuAt samples the user+system CPU time of the system's processes
	// at the phase's start, every window boundary, and its end.
	cpuAt []time.Duration
}

// opRecord is one timed operation: its latency, whether its output was
// correct, and when it completed (since the phase began).
type opRecord struct {
	lat, done time.Duration
	ok        bool
}

// workloads maps each workload's name to its run, which sets the
// system up, runs the timed phase and checks the outputs, and with
// --trace 1 also replays the operations with spans.
var workloads = map[string]func(o options) (*runOutcome, map[string]metric, error){
	"serve-hot":     runServeHot,
	"serve-cold":    runServeCold,
	"serve-routed":  runServeRouted,
	"study-margins": runStudyMargins,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: serve-hot, serve-cold, serve-routed or study-margins")
	seed := fs.Int64("seed", defaultSeed, "workload seed; every input is derived from it")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 replays the operations with spans and reports the per-layer metrics")
	bin := fs.String("bin", ".bench_build", "directory holding the pland binary built from this checkout")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	runWorkload, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	binDir, err := filepath.Abs(*bin)
	if err != nil {
		return err
	}
	o := options{workload: *name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, bin: binDir}

	out, layers, err := runWorkload(o)
	if err != nil {
		return err
	}
	res := report(o, out, layers)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// windowed computes every window's figures. An op counts toward each
// window in proportion to the share of its latency spent there, so a
// window's rate is not quantized to whole ops; its latency counts in
// the window it completed in, a failed op as infinitely slow.
func (ph *phase) windowed() []figures {
	nw := len(ph.cpuAt) - 1
	lats := make([][]float64, nw)
	good := make([]float64, nw)
	end := func(w int) time.Duration {
		if w == nw-1 {
			return ph.wall
		}
		return time.Duration(w+1) * ph.window
	}
	for _, op := range ph.ops {
		w := min(int(op.done/ph.window), nw-1)
		if !op.ok {
			lats[w] = append(lats[w], math.Inf(1))
			continue
		}
		lats[w] = append(lats[w], op.lat.Seconds()*1e3)
		start := op.done - op.lat
		for v := max(int(start/ph.window), 0); v <= w; v++ {
			lo, hi := max(start, time.Duration(v)*ph.window), min(op.done, end(v))
			if op.lat > 0 && hi > lo {
				good[v] += float64(hi-lo) / float64(op.lat)
			}
		}
	}
	out := make([]figures, nw)
	for w := range out {
		d := end(w) - time.Duration(w)*ph.window
		sort.Float64s(lats[w])
		cpu := ph.cpuAt[w+1] - ph.cpuAt[w]
		out[w] = figures{
			opsPerS:  good[w] / d.Seconds(),
			p50:      percentile(lats[w], 0.50),
			p90:      percentile(lats[w], 0.90),
			cpuPerOp: cpu.Seconds() * 1e3 / math.Max(good[w], 1),
		}
	}
	return out
}

// figures are a window's or a phase's end-to-end figures.
type figures struct {
	opsPerS, p50, p90, cpuPerOp float64
}

// figures are the phase's end-to-end figures: each the median of its
// per-window values.
func (ph *phase) figures() figures {
	win := ph.windowed()
	pick := func(f func(figures) float64) float64 {
		v := make([]float64, len(win))
		for i, w := range win {
			v[i] = f(w)
		}
		return finite(median(v))
	}
	return figures{
		opsPerS:  pick(func(w figures) float64 { return w.opsPerS }),
		p50:      pick(func(w figures) float64 { return w.p50 }),
		p90:      pick(func(w figures) float64 { return w.p90 }),
		cpuPerOp: pick(func(w figures) float64 { return w.cpuPerOp }),
	}
}

// report folds a run into the result object, printing the figures that
// are shown but not gated (whole-phase p99, the sample count, the
// failed ratio, each window's rate) on the lines before it.
func report(o options, out *runOutcome, layers map[string]metric) result {
	attempted := len(out.ops)
	failed := 0
	lats := make([]float64, attempted)
	for i, op := range out.ops {
		if op.ok {
			lats[i] = op.lat.Seconds() * 1e3
		} else {
			failed++
			lats[i] = math.Inf(1)
		}
	}
	sort.Float64s(lats)
	setup := make([]float64, len(out.setups))
	for i, d := range out.setups {
		setup[i] = d.Seconds()
	}
	fig := out.figures()
	e2e := map[string]metric{
		"setup_s":        {median(setup), "s"},
		"ops_per_s":      {fig.opsPerS, "ops/s"},
		"latency_p50_ms": {fig.p50, "ms"},
		"latency_p90_ms": {fig.p90, "ms"},
		"cpu_ms_per_op":  {fig.cpuPerOp, "ms"},
		"max_rss_mb":     {out.rssMiB, "MiB"},
	}
	for _, p := range out.problems {
		fmt.Println("check failed:", p)
	}
	fmt.Printf("%s seed=%d: %d ops in %.2fs, %d failed (failed_ratio %.4f); whole phase: %.1f ops/s, latency p50 %.3fms p90 %.3fms p99 %.3fms max %.3fms over %d samples, %.3f CPU-ms/op; set-ups %v\n",
		o.workload, o.seed, attempted, out.wall.Seconds(), failed, float64(failed)/float64(max(attempted, 1)),
		float64(attempted-failed)/out.wall.Seconds(), finite(percentile(lats, 0.50)), finite(percentile(lats, 0.90)),
		finite(percentile(lats, 0.99)), finite(percentile(lats, 1)), attempted,
		(out.cpuAt[len(out.cpuAt)-1]-out.cpuAt[0]).Seconds()*1e3/float64(max(attempted-failed, 1)), out.setups)
	var rates []string
	for _, w := range out.windowed() {
		rates = append(rates, fmt.Sprintf("%.0f", w.opsPerS))
	}
	fmt.Printf("ops/s by window: %s\n", strings.Join(rates, " "))
	res := result{
		Correct:   len(out.problems) == 0 && failed == 0 && attempted > 0,
		Attempted: max(attempted, 1),
		Failed:    failed,
		Metrics:   e2e,
	}
	if attempted == 0 {
		res.Failed = 1
	}
	if o.trace {
		layers["failed_ratio"] = metric{float64(failed) / float64(max(attempted, 1)), "ratio"}
		res.Metrics = layers
	}
	return res
}

// percentile is the nearest-rank p-quantile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median of unsorted values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// finite keeps a latency that counts failed operations as infinite
// encodable: the run is already marked incorrect when one is.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}
