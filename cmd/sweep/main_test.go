package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/slicing"
	"repro/internal/wcet"
)

func TestRunSingleStudy(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-study", "mode", "-graphs", "8"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	s := out.String()
	for _, want := range []string{"Consistent vs Faithful", "consistent", "faithful", "ADAPT-L"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunStudyGrid(t *testing.T) {
	// Exercise the cheap studies end-to-end at tiny sample sizes.
	for _, study := range []string{"kl", "kg", "cthres", "hom", "policy", "pinned", "adaptn"} {
		var out, errBuf bytes.Buffer
		if code := run([]string{"-study", study, "-graphs", "4"}, &out, &errBuf); code != 0 {
			t.Errorf("%s: exit %d: %s", study, code, errBuf.String())
		}
		if !strings.Contains(out.String(), "==") {
			t.Errorf("%s: no header", study)
		}
	}
}

func TestRunFaultsStudy(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-study", "faults", "-graphs", "6"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	s := out.String()
	for _, want := range []string{"graceful degradation", "i=0.00", "i=1.00",
		"slack-reclamation", "ADAPT-L", "PURE"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// The robustness study is seed-stable: identical invocations print
// byte-identical tables (all randomness flows through the seeded
// per-workload and per-trace generators).
func TestRunFaultsStudyDeterministic(t *testing.T) {
	render := func() string {
		var out, errBuf bytes.Buffer
		if code := run([]string{"-study", "faults", "-graphs", "6", "-seed", "7"}, &out, &errBuf); code != 0 {
			t.Fatalf("exit %d: %s", code, errBuf.String())
		}
		return out.String()
	}
	if a, b := render(), render(); a != b {
		t.Errorf("same seed, different tables:\n--- first\n%s--- second\n%s", a, b)
	}
}

func TestRunDegradeStudy(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-study", "degrade", "-graphs", "4"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	s := out.String()
	for _, want := range []string{"graceful degradation", "policy shed-value",
		"policy shed-pset", "policy budget", "i=0.00", "i=1.00", "ADAPT-L", "ADAPT-R",
		"mean level"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// The degradation study is seed-stable for the same reason the faults
// study is: workloads and fault scenarios are derived from the master
// seed alone, and outcomes fold in index order.
func TestRunDegradeStudyDeterministic(t *testing.T) {
	render := func(workers string) string {
		var out, errBuf bytes.Buffer
		if code := run([]string{"-study", "degrade", "-graphs", "4", "-seed", "7",
			"-workers", workers}, &out, &errBuf); code != 0 {
			t.Fatalf("exit %d: %s", code, errBuf.String())
		}
		return out.String()
	}
	if a, b := render("1"), render("5"); a != b {
		t.Errorf("same seed, different tables:\n--- workers=1\n%s--- workers=5\n%s", a, b)
	}
}

func TestRunMarginsStudy(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-study", "margins", "-graphs", "4"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	s := out.String()
	for _, want := range []string{"robustness margins", "breakdown factor",
		"mult lvl=0.00", "tail lvl=0.50", "re-slicing recovery", "ADAPT-R"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// The margins table is byte-identical whatever the worker count: the
// pool collects per-index results and folds them in index order, so the
// floating-point aggregation order never changes.
func TestRunMarginsWorkerIndependent(t *testing.T) {
	render := func(workers string) string {
		var out, errBuf bytes.Buffer
		if code := run([]string{"-study", "margins", "-graphs", "4", "-workers", workers},
			&out, &errBuf); code != 0 {
			t.Fatalf("workers=%s: exit %d: %s", workers, code, errBuf.String())
		}
		return out.String()
	}
	one := render("1")
	for _, workers := range []string{"2", "7"} {
		if got := render(workers); got != one {
			t.Errorf("workers=%s changed the table:\n--- workers=1\n%s--- workers=%s\n%s",
				workers, one, workers, got)
		}
	}
}

// Kill-and-resume: a margins run checkpointed to a journal, interrupted
// (journal truncated mid-cell, torn trailing line included), then
// resumed, renders the final report byte-identically to the
// uninterrupted run.
func TestRunMarginsCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "margins.jsonl")
	args := []string{"-study", "margins", "-graphs", "4", "-checkpoint", journal}

	var full, errBuf bytes.Buffer
	if code := run(args, &full, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}

	// Simulate the crash: keep the header and the first few completed
	// cells, then a torn partial write.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 5 {
		t.Fatalf("journal too short to truncate: %d lines", len(lines))
	}
	torn := strings.Join(lines[:4], "") + `{"key":"margin/mult/0.25/PU`
	if err := os.WriteFile(journal, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	var resumed bytes.Buffer
	errBuf.Reset()
	if code := run(append(args, "-resume"), &resumed, &errBuf); code != 0 {
		t.Fatalf("resume exit %d: %s", code, errBuf.String())
	}
	if resumed.String() != full.String() {
		t.Errorf("resumed report differs from the uninterrupted one:\n--- full\n%s--- resumed\n%s",
			full.String(), resumed.String())
	}
}

// Resuming a journal written under a different configuration must be
// refused (exit 2), not silently mixed in.
func TestRunMarginsCheckpointHeaderMismatch(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "margins.jsonl")
	var out, errBuf bytes.Buffer
	if code := run([]string{"-study", "margins", "-graphs", "4", "-checkpoint", journal},
		&out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	out.Reset()
	errBuf.Reset()
	if code := run([]string{"-study", "margins", "-graphs", "8", "-checkpoint", journal, "-resume"},
		&out, &errBuf); code != 2 {
		t.Fatalf("mismatched resume: exit %d, want 2 (stderr %q)", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "header") {
		t.Errorf("stderr = %q", errBuf.String())
	}
}

func TestRunUnknownStudy(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-study", "astrology"}, &out, &errBuf); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "unknown study") {
		t.Errorf("stderr = %q", errBuf.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-nope"}, &out, &errBuf); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

// TestReleaseModelReachesEveryRow: under -release sporadic every row of
// -study sched and -study policy is judged over the released horizon,
// exactly as experiment.Run judges that dispatcher, and the studies that
// judge a single release whatever -release says name no release model
// in their headers.
func TestReleaseModelReachesEveryRow(t *testing.T) {
	const graphs, seed = 16, 5
	flags := []string{"-graphs", fmt.Sprint(graphs), "-seed", fmt.Sprint(seed),
		"-release", "sporadic", "-releases", "4", "-mit", "400"}
	rel := gen.Release{Mode: gen.ReleaseSporadic, Count: 4, MinGap: 400}
	const tag = "sporadic 4×T=400 J=0"
	cell := func(metric slicing.Metric, disp pipeline.Dispatcher) string {
		g := gen.Default(3)
		g.OLR = experiment.DefaultOLR
		pt := experiment.Run(experiment.Config{
			Gen: g, Metric: metric, Params: slicing.CalibratedParams(), WCET: wcet.AVG,
			NumGraphs: graphs, MasterSeed: seed, Dispatcher: disp, Release: rel,
		})
		return fmt.Sprintf("%5.1f%%", 100*pt.Success.Value())
	}
	study := func(name string) string {
		var out, errBuf bytes.Buffer
		if code := run(append([]string{"-study", name}, flags...), &out, &errBuf); code != 0 {
			t.Fatalf("%s: exit %d: %s", name, code, errBuf.String())
		}
		return out.String()
	}

	var want []string
	for _, disp := range []pipeline.Dispatcher{pipeline.TimeDriven(), pipeline.Planner(), pipeline.Insertion(), pipeline.Preemptive()} {
		row := fmt.Sprintf("  %-12s", disp.Name)
		for _, metric := range slicing.Metrics() {
			row += fmt.Sprintf("  %s %s", metric.Name(), cell(metric, disp))
		}
		want = append(want, row)
	}
	checkRows(t, "sched", study("sched"), tag, want)

	want = want[:0]
	for _, pol := range sched.Policies {
		want = append(want, fmt.Sprintf("  %-5v %s", pol, cell(slicing.AdaptL(), pipeline.WithPolicy(pol))))
	}
	checkRows(t, "policy", study("policy"), tag, want)

	for _, name := range []string{"overlap", "optgap", "late", "headroom", "degrade"} {
		hdr, _, _ := strings.Cut(study(name), "\n")
		if strings.Contains(hdr, "sporadic") {
			t.Errorf("%s judges one release but its header names the release model: %s", name, hdr)
		}
	}
}

// checkRows requires out's header to carry tag and its body to hold
// every wanted row as a whole line.
func checkRows(t *testing.T, name, out, tag string, want []string) {
	t.Helper()
	hdr, body, _ := strings.Cut(out, "\n")
	if !strings.Contains(hdr, tag) {
		t.Errorf("%s header lacks %q: %s", name, tag, hdr)
	}
	lines := strings.Split(body, "\n")
	for _, row := range want {
		if !slices.Contains(lines, row) {
			t.Errorf("%s: no row\n%s\nin\n%s", name, row, body)
		}
	}
}
