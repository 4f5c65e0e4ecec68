package graphio

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
	"repro/internal/wcet"
)

func roundTrip(t *testing.T, g *taskgraph.Graph) *taskgraph.Graph {
	t.Helper()
	got, err := DecodeGraph(EncodeGraph(g))
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	return got
}

func TestGraphRoundTrip(t *testing.T) {
	g := taskgraph.NewGraph(2)
	a := g.MustAddTask("a", []rtime.Time{10, 12}, 3)
	b := g.MustAddTask("b", []rtime.Time{rtime.Unset, 20}, 0)
	a.Period = 100
	b.ETEDeadline = 80
	b.Criticality, b.Value = taskgraph.Optional, 2.5
	g.MustAddArc(a.ID, b.ID, 5)
	g.MustFreeze()

	got := roundTrip(t, g)
	if got.NumTasks() != 2 || got.NumArcs() != 1 || got.NumClasses != 2 {
		t.Fatalf("shape lost: %d tasks, %d arcs", got.NumTasks(), got.NumArcs())
	}
	ga, gb := got.Task(0), got.Task(1)
	if ga.Name != "a" || ga.Phase != 3 || ga.Period != 100 || ga.WCET[1] != 12 {
		t.Errorf("task a lost fields: %+v", ga)
	}
	if gb.WCET[0] != rtime.Unset || gb.ETEDeadline != 80 {
		t.Errorf("task b lost fields: %+v", gb)
	}
	if ga.ETEDeadline.IsSet() {
		t.Error("task a gained a deadline")
	}
	if got.MessageItems(0, 1) != 5 {
		t.Error("arc weight lost")
	}
	if ga.Criticality != taskgraph.Mandatory || gb.Criticality != taskgraph.Optional || gb.Value != 2.5 {
		t.Errorf("criticality lost: %+v, %+v", ga, gb)
	}
}

func TestDecodeGraphRejectsBadInput(t *testing.T) {
	bad := GraphJSON{NumClasses: 1, Tasks: []TaskJSON{{WCET: []rtime.Time{5}}, {WCET: []rtime.Time{5}}},
		Arcs: []ArcJSON{{From: 0, To: 1}, {From: 1, To: 0}}}
	if _, err := DecodeGraph(bad); err == nil {
		t.Error("cyclic serialized graph accepted")
	}
	bad2 := GraphJSON{NumClasses: 1, Tasks: []TaskJSON{{WCET: []rtime.Time{-3}}}}
	if _, err := DecodeGraph(bad2); err == nil {
		t.Error("negative WCET accepted")
	}
	if _, err := DecodeGraph(GraphJSON{NumClasses: 0}); err == nil {
		t.Error("zero-class graph accepted (NewGraph would panic)")
	}
	bad3 := GraphJSON{NumClasses: 1, Tasks: []TaskJSON{{WCET: []rtime.Time{5}, Criticality: 7}}}
	if _, err := DecodeGraph(bad3); err == nil {
		t.Error("unknown criticality accepted")
	}
}

func TestPlatformRoundTrip(t *testing.T) {
	cfg := gen.Default(4)
	cfg.Seed = 5
	w := gen.MustGenerate(cfg)
	pj := EncodePlatform(w.Platform)
	got, err := DecodePlatform(pj)
	if err != nil {
		t.Fatal(err)
	}
	if got.M() != w.Platform.M() || got.NumClasses() != w.Platform.NumClasses() ||
		got.Kind != w.Platform.Kind || got.Bus != w.Platform.Bus {
		t.Errorf("platform lost fields: %v vs %v", got, w.Platform)
	}
	for q := 0; q < got.M(); q++ {
		if got.ClassOf(q) != w.Platform.ClassOf(q) {
			t.Errorf("ClassOf(%d) mismatch", q)
		}
	}
}

func TestDecodePlatformUnknownKind(t *testing.T) {
	if _, err := DecodePlatform(PlatformJSON{Kind: "quantum", Classes: nil, ClassOf: []int{0}}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestWorkloadFileRoundTrip(t *testing.T) {
	cfg := gen.Default(3)
	cfg.Seed = 9
	w := gen.MustGenerate(cfg)
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, w.Graph, w.Platform); err != nil {
		t.Fatal(err)
	}
	g, p, err := ReadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != w.Graph.NumTasks() || g.NumArcs() != w.Graph.NumArcs() {
		t.Error("graph shape changed through file round trip")
	}
	if p == nil || p.M() != w.Platform.M() {
		t.Error("platform lost")
	}
	// The round-tripped workload runs through the full pipeline.
	est, err := wcet.Estimates(g, p, wcet.AVG)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := slicing.Distribute(g, est, p.M(), slicing.AdaptL(), slicing.CalibratedParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Dispatch(g, p, asg); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadWithoutPlatform(t *testing.T) {
	g := taskgraph.NewGraph(1)
	g.MustAddTask("only", []rtime.Time{7}, 0)
	g.MustFreeze()
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "platform") {
		t.Error("nil platform serialized")
	}
	_, p, err := ReadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p != nil {
		t.Error("platform materialized from nothing")
	}
}

func TestReadWorkloadRejectsGarbage(t *testing.T) {
	if _, _, err := ReadWorkload(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
}

// A workload whose graph names a task runnable only on a class with no
// processor on the platform is rejected at load with the typed error,
// instead of surfacing later as an estimator failure mid-pipeline.
func TestReadWorkloadRejectsIneligibleTask(t *testing.T) {
	g := taskgraph.NewGraph(2)
	g.MustAddTask("ok", []rtime.Time{5, 6}, 0)
	g.MustAddTask("stranded", []rtime.Time{rtime.Unset, 9}, 0)
	g.MustFreeze()
	// Two classes declared, but every processor is class 0: "stranded"
	// (eligible only on class 1) can never run.
	p, err := arch.New(arch.Unrelated, []arch.Class{{}, {}}, []int{0, 0}, arch.Bus{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, g, p); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReadWorkload(&buf)
	var ie *IneligibleTaskError
	if !errors.As(err, &ie) {
		t.Fatalf("want IneligibleTaskError, got %v", err)
	}
	if ie.Task != 1 || ie.Name != "stranded" {
		t.Fatalf("wrong task identified: %+v", ie)
	}
	if !strings.Contains(ie.Error(), "stranded") {
		t.Errorf("message omits the task name: %q", ie.Error())
	}

	// The same workload without a platform loads fine — eligibility is a
	// property of the pair, not of the graph alone.
	buf.Reset()
	if err := WriteWorkload(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadWorkload(&buf); err != nil {
		t.Fatalf("platform-free workload rejected: %v", err)
	}
}

// A task pinned to a processor the platform lacks, or to one whose
// class has no WCET for it, is rejected at load with the typed error,
// on the one-pass decoder and on the encoding/json reference alike.
func TestReadWorkloadRejectsImpossiblePins(t *testing.T) {
	p, err := arch.New(arch.Unrelated, []arch.Class{{}, {}}, []int{0, 1}, arch.Bus{})
	if err != nil {
		t.Fatal(err)
	}
	workload := func(pin int) WorkloadJSON {
		g := taskgraph.NewGraph(2)
		g.MustAddTask("a", []rtime.Time{5, 6}, 0)
		b := g.MustAddTask("b", []rtime.Time{7, rtime.Unset}, 0)
		b.Pinned = pin
		g.MustAddArc(0, 1, 1)
		g.MustFreeze()
		pj := EncodePlatform(p)
		return WorkloadJSON{Graph: EncodeGraph(g), Platform: &pj}
	}
	for _, tc := range []struct {
		name, msg string
		pin       int
	}{
		{"absent processor", "platform has 2 processors", 7},
		{"ineligible class", "no WCET", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wl := workload(tc.pin)
			var canonical bytes.Buffer
			enc := json.NewEncoder(&canonical)
			enc.SetIndent("", "  ")
			if err := enc.Encode(wl); err != nil {
				t.Fatal(err)
			}
			compact, err := json.Marshal(wl)
			if err != nil {
				t.Fatal(err)
			}
			// An escaped name is outside the canonical form.
			escaped := bytes.Replace(compact, []byte(`"name":"b"`), []byte(`"name":"\u0062"`), 1)
			for path, data := range map[string][]byte{"one-pass": canonical.Bytes(), "encoding/json": escaped} {
				if took := checkAgainstReference(t, data); took != (path == "one-pass") {
					t.Fatalf("%s input: one-pass decoder took it = %v", path, took)
				}
				_, _, err := ParseWorkload(data)
				var pe *PinError
				if !errors.As(err, &pe) {
					t.Fatalf("%s: want PinError, got %v", path, err)
				}
				if pe.Task != 1 || pe.Name != "b" || pe.Pin != tc.pin {
					t.Errorf("%s: wrong task or pin identified: %+v", path, pe)
				}
				if msg := pe.Error(); !strings.Contains(msg, "(b)") || !strings.Contains(msg, tc.msg) {
					t.Errorf("%s: message %q does not name the task and the fault", path, msg)
				}
			}
		})
	}
	// A pin onto an eligible processor loads.
	data, err := json.Marshal(workload(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ParseWorkload(data); err != nil {
		t.Fatalf("eligible pin rejected: %v", err)
	}
}

func TestEncodeResult(t *testing.T) {
	asg := &slicing.Assignment{
		MetricName:  "ADAPT-L",
		Arrival:     []rtime.Time{0},
		AbsDeadline: []rtime.Time{10},
	}
	s := &sched.Schedule{
		Placements: []sched.Placement{{Proc: 2, Start: 1, Finish: 9}},
		Feasible:   true, MaxLateness: -1, Makespan: 9,
	}
	r := EncodeResult(asg, s)
	if r.Metric != "ADAPT-L" || r.Proc[0] != 2 || r.Start[0] != 1 || r.Finish[0] != 9 ||
		!r.Feasible || r.MaxLateness != -1 || r.Makespan != 9 {
		t.Errorf("result = %+v", r)
	}
}

// Property: generated workloads survive serialization bit-exactly at the
// structural level.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		cfg := gen.Default(3)
		cfg.Seed = seed
		w, err := gen.Generate(cfg)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteWorkload(&buf, w.Graph, w.Platform); err != nil {
			return false
		}
		g, p, err := ReadWorkload(&buf)
		if err != nil || p == nil {
			return false
		}
		if g.NumTasks() != w.Graph.NumTasks() || g.NumArcs() != w.Graph.NumArcs() {
			return false
		}
		for i := 0; i < g.NumTasks(); i++ {
			want, got := w.Graph.Task(i), g.Task(i)
			if want.ETEDeadline != got.ETEDeadline || want.Phase != got.Phase {
				return false
			}
			for k := range want.WCET {
				if want.WCET[k] != got.WCET[k] {
					return false
				}
			}
		}
		for _, a := range w.Graph.Arcs() {
			if g.MessageItems(a.From, a.To) != a.Items {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPlatformNetworkRoundTrip(t *testing.T) {
	p := arch.Homogeneous(3)
	p.Net = arch.NewNetwork(3).SetLink(0, 1, 0)
	p.Net.SetLink(1, 2, 4)
	got, err := DecodePlatform(EncodePlatform(p))
	if err != nil {
		t.Fatal(err)
	}
	if got.CommCost(0, 1, 9) != 0 {
		t.Error("fast link lost")
	}
	if got.CommCost(1, 2, 2) != 8 {
		t.Error("slow link lost")
	}
	if got.CommCost(0, 2, 2) != 2 {
		t.Error("bus fallback changed")
	}
}

func TestDecodePlatformRejectsDanglingLink(t *testing.T) {
	pj := EncodePlatform(arch.Homogeneous(2))
	pj.Links = []LinkJSON{{A: 0, B: 5, PerItem: 1}}
	if _, err := DecodePlatform(pj); err == nil {
		t.Error("dangling link accepted")
	}
}
