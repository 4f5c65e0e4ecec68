// Package graphio serializes workloads and results as JSON so that
// generated task sets can be archived, diffed, and replayed across tool
// invocations (cmd/taskgen writes them, cmd/schedview reads them).
//
// The on-disk format is deliberately explicit — no pointers, no derived
// fields — so files remain stable under refactoring of the in-memory
// types.
//
// Reading has a canonical fast path and a reference. Input in the form
// WriteWorkload and WriteWorkloadRelease emit is scanned in one pass
// without reflection; anything else is handed, as the same bytes, to
// encoding/json, the reference, so every input decodes to encoding/json's
// result and error text. Either way the decoded values share no memory
// with the input: a server that caches plans must not pin request
// bodies. The planning service appends its answers by hand in the same
// spirit, byte-identical to encoding/json's indented encoding.
package graphio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
)

// TaskJSON is the serialized form of one task.
type TaskJSON struct {
	Name        string       `json:"name,omitempty"`
	WCET        []rtime.Time `json:"wcet"`
	Phase       rtime.Time   `json:"phase,omitempty"`
	Period      rtime.Time   `json:"period,omitempty"`
	ETEDeadline *rtime.Time  `json:"eteDeadline,omitempty"`
	Pinned      *int         `json:"pinned,omitempty"`
	Resources   []int        `json:"resources,omitempty"`
	// Criticality is 0 (mandatory, omitted) or 1 (optional); Value is
	// the optional task's value weight (0 means unset, weighed as 1).
	Criticality int     `json:"criticality,omitempty"`
	Value       float64 `json:"value,omitempty"`
}

// ArcJSON is the serialized form of one precedence arc.
type ArcJSON struct {
	From  int        `json:"from"`
	To    int        `json:"to"`
	Items rtime.Time `json:"items,omitempty"`
}

// GraphJSON is the serialized form of a task graph.
type GraphJSON struct {
	NumClasses int        `json:"numClasses"`
	Tasks      []TaskJSON `json:"tasks"`
	Arcs       []ArcJSON  `json:"arcs"`
}

// PlatformJSON is the serialized form of a platform.
type PlatformJSON struct {
	Kind         string       `json:"kind"`
	Classes      []arch.Class `json:"classes"`
	ClassOf      []int        `json:"classOf"`
	BusDelayItem rtime.Time   `json:"busDelayPerItem"`
	// Links lists dedicated network links (absent for pure-bus
	// platforms).
	Links []LinkJSON `json:"links,omitempty"`
}

// LinkJSON is one dedicated bidirectional link.
type LinkJSON struct {
	A       int        `json:"a"`
	B       int        `json:"b"`
	PerItem rtime.Time `json:"perItem"`
}

// ReleaseJSON is the serialized release policy of a workload: how often
// the whole graph re-arrives. Absent (or mode "single") means the
// paper's single-shot model.
type ReleaseJSON struct {
	Mode   string     `json:"mode"`
	Count  int        `json:"count,omitempty"`
	MinGap rtime.Time `json:"minGap,omitempty"`
	Jitter rtime.Time `json:"jitter,omitempty"`
}

// WorkloadJSON bundles a graph with the platform it targets and an
// optional release policy.
type WorkloadJSON struct {
	Graph    GraphJSON     `json:"graph"`
	Platform *PlatformJSON `json:"platform,omitempty"`
	Release  *ReleaseJSON  `json:"release,omitempty"`
}

// EncodeRelease converts a release policy to its serialized form.
func EncodeRelease(rel gen.Release) ReleaseJSON {
	out := ReleaseJSON{Mode: rel.Mode.String()}
	if rel.Mode == gen.ReleaseSporadic {
		out.Count, out.MinGap, out.Jitter = rel.Count, rel.MinGap, rel.Jitter
	}
	return out
}

// DecodeRelease rebuilds and validates a release policy.
func DecodeRelease(in ReleaseJSON) (gen.Release, error) {
	mode, err := gen.ParseReleaseMode(in.Mode)
	if err != nil {
		return gen.Release{}, fmt.Errorf("graphio: %w", err)
	}
	rel := gen.Release{Mode: mode}
	if mode == gen.ReleaseSporadic {
		rel.Count, rel.MinGap, rel.Jitter = in.Count, in.MinGap, in.Jitter
	} else if in.Count != 0 || in.MinGap != 0 || in.Jitter != 0 {
		return gen.Release{}, fmt.Errorf("graphio: single-shot release carries sporadic parameters (count %d, minGap %d, jitter %d)",
			in.Count, in.MinGap, in.Jitter)
	}
	if err := rel.Validate(); err != nil {
		return gen.Release{}, fmt.Errorf("graphio: %w", err)
	}
	return rel, nil
}

// EncodeGraph converts a frozen graph to its serialized form.
func EncodeGraph(g *taskgraph.Graph) GraphJSON {
	out := GraphJSON{NumClasses: g.NumClasses}
	for _, t := range g.Tasks() {
		tj := TaskJSON{Name: t.Name, WCET: t.WCET, Phase: t.Phase, Period: t.Period,
			Resources: t.Resources, Criticality: int(t.Criticality), Value: t.Value}
		if t.Pinned >= 0 {
			pin := t.Pinned
			tj.Pinned = &pin
		}
		if t.ETEDeadline.IsSet() {
			d := t.ETEDeadline
			tj.ETEDeadline = &d
		}
		out.Tasks = append(out.Tasks, tj)
	}
	for _, a := range g.Arcs() {
		out.Arcs = append(out.Arcs, ArcJSON{From: a.From, To: a.To, Items: a.Items})
	}
	return out
}

// DecodeGraph rebuilds a frozen graph from its serialized form.
func DecodeGraph(in GraphJSON) (*taskgraph.Graph, error) {
	if in.NumClasses <= 0 {
		return nil, fmt.Errorf("graphio: graph declares %d processor classes", in.NumClasses)
	}
	g := taskgraph.NewGraphSized(in.NumClasses, len(in.Tasks), len(in.Arcs))
	for i, tj := range in.Tasks {
		if tj.Criticality != int(taskgraph.Mandatory) && tj.Criticality != int(taskgraph.Optional) {
			return nil, fmt.Errorf("graphio: task %d has unknown criticality %d", i, tj.Criticality)
		}
		t, err := g.AddTask(tj.Name, tj.WCET, tj.Phase)
		if err != nil {
			return nil, fmt.Errorf("graphio: task %d: %w", i, err)
		}
		t.Period = tj.Period
		t.Resources = tj.Resources
		t.Criticality = taskgraph.Criticality(tj.Criticality)
		t.Value = tj.Value
		if tj.Pinned != nil {
			t.Pinned = *tj.Pinned
		}
		if tj.ETEDeadline != nil {
			t.ETEDeadline = *tj.ETEDeadline
		}
	}
	for _, aj := range in.Arcs {
		if err := g.AddArc(aj.From, aj.To, aj.Items); err != nil {
			return nil, fmt.Errorf("graphio: %w", err)
		}
	}
	if err := g.Freeze(); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	return g, nil
}

// EncodePlatform converts a platform to its serialized form.
func EncodePlatform(p *arch.Platform) PlatformJSON {
	out := PlatformJSON{
		Kind:         p.Kind.String(),
		Classes:      p.Classes,
		BusDelayItem: p.Bus.DelayPerItem,
	}
	for _, pr := range p.Procs {
		out.ClassOf = append(out.ClassOf, pr.Class)
	}
	if p.Net != nil {
		for a := 0; a < p.M(); a++ {
			for b := a + 1; b < p.M(); b++ {
				// CommCost with one item reveals the effective per-item
				// delay; record pairs that differ from the bus.
				if d := p.CommCost(a, b, 1); d != p.Bus.DelayPerItem {
					out.Links = append(out.Links, LinkJSON{A: a, B: b, PerItem: d})
				}
			}
		}
	}
	return out
}

// DecodePlatform rebuilds a platform from its serialized form.
func DecodePlatform(in PlatformJSON) (*arch.Platform, error) {
	var kind arch.Kind
	switch in.Kind {
	case "identical":
		kind = arch.Identical
	case "uniform":
		kind = arch.Uniform
	case "unrelated", "":
		kind = arch.Unrelated
	default:
		return nil, fmt.Errorf("graphio: unknown platform kind %q", in.Kind)
	}
	p, err := arch.New(kind, in.Classes, in.ClassOf, arch.Bus{DelayPerItem: in.BusDelayItem})
	if err != nil {
		return nil, err
	}
	if len(in.Links) > 0 {
		p.Net = arch.NewNetwork(len(in.ClassOf))
		for _, l := range in.Links {
			if l.A < 0 || l.A >= len(in.ClassOf) || l.B < 0 || l.B >= len(in.ClassOf) {
				return nil, fmt.Errorf("graphio: link %d–%d references missing processor", l.A, l.B)
			}
			p.Net.SetLink(l.A, l.B, l.PerItem)
		}
	}
	return p, nil
}

// IneligibleTaskError reports a workload whose graph names a task that
// cannot execute anywhere on the accompanying platform: every class the
// task is eligible on has no processor present. Such a workload can
// never be scheduled, so loading rejects it at the boundary instead of
// letting the estimator fail deep inside the planning pipeline.
type IneligibleTaskError struct {
	// Task is the task index in the graph; Name its optional label.
	Task int
	Name string
}

// Error implements error.
func (e *IneligibleTaskError) Error() string {
	if e.Name != "" {
		return fmt.Sprintf("graphio: task %d (%s) is eligible on no processor class present on the platform", e.Task, e.Name)
	}
	return fmt.Sprintf("graphio: task %d is eligible on no processor class present on the platform", e.Task)
}

// PinError reports a workload whose graph pins a task to a processor
// it can never run on: one the platform does not have, or one whose
// class has no WCET for the task. The task would never be dispatched,
// so loading rejects it at the boundary instead of the plan reporting
// the task missed.
type PinError struct {
	// Task is the task index in the graph; Name its optional label.
	Task int
	Name string
	// Pin is the processor the task is pinned to.
	Pin int
	// M is the platform's processor count.
	M int
}

// Error implements error.
func (e *PinError) Error() string {
	task := fmt.Sprintf("task %d", e.Task)
	if e.Name != "" {
		task = fmt.Sprintf("task %d (%s)", e.Task, e.Name)
	}
	if e.Pin >= e.M {
		return fmt.Sprintf("graphio: %s is pinned to processor %d, but the platform has %d processors", task, e.Pin, e.M)
	}
	return fmt.Sprintf("graphio: %s is pinned to processor %d, whose class has no WCET for it", task, e.Pin)
}

// ValidateEligibility checks that every task of g can run on at least
// one processor class that is actually present on p, and that every
// pinned task is pinned to a processor of p whose class it is eligible
// on. It returns an *IneligibleTaskError or a *PinError for the first
// task that fails. ReadWorkload applies it automatically whenever the
// file carries a platform.
func ValidateEligibility(g *taskgraph.Graph, p *arch.Platform) error {
	present := p.ClassesPresent()
	for _, t := range g.Tasks() {
		ok := false
		for k := range present {
			if present[k] && t.EligibleOn(k) {
				ok = true
				break
			}
		}
		if !ok {
			return &IneligibleTaskError{Task: t.ID, Name: t.Name}
		}
		if t.Pinned >= 0 && (t.Pinned >= p.M() || !t.EligibleOn(p.ClassOf(t.Pinned))) {
			return &PinError{Task: t.ID, Name: t.Name, Pin: t.Pinned, M: p.M()}
		}
	}
	return nil
}

// WriteWorkload writes a workload as indented JSON.
func WriteWorkload(w io.Writer, g *taskgraph.Graph, p *arch.Platform) error {
	return WriteWorkloadRelease(w, g, p, gen.Release{})
}

// WriteWorkloadRelease writes a workload with a release policy; the
// single-shot zero value is omitted from the file, keeping it
// byte-identical to WriteWorkload's output.
func WriteWorkloadRelease(w io.Writer, g *taskgraph.Graph, p *arch.Platform, rel gen.Release) error {
	if err := rel.Validate(); err != nil {
		return fmt.Errorf("graphio: %w", err)
	}
	wl := WorkloadJSON{Graph: EncodeGraph(g)}
	if p != nil {
		pj := EncodePlatform(p)
		wl.Platform = &pj
	}
	if rel.Mode != gen.ReleaseSingle {
		rj := EncodeRelease(rel)
		wl.Release = &rj
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(wl)
}

// ReadWorkload parses a workload written by WriteWorkload. The platform
// may be absent, in which case it is returned as nil. A release policy
// in the file is validated but dropped; use ReadWorkloadRelease to keep
// it.
func ReadWorkload(r io.Reader) (*taskgraph.Graph, *arch.Platform, error) {
	g, p, _, err := ReadWorkloadRelease(r)
	return g, p, err
}

// ReadWorkloadRelease parses a workload together with its release
// policy. A file without a release block yields the single-shot zero
// value; a malformed block (unknown mode, zero count or gap, jitter at
// or above the gap) is an error, not a silent single-shot fallback.
// It reads all of r, and decodes what it read as ParseWorkload does.
func ReadWorkloadRelease(r io.Reader) (*taskgraph.Graph, *arch.Platform, gen.Release, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		// Room for the final read to see EOF without growing.
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, nil, gen.Release{}, fmt.Errorf("graphio: %w", err)
	}
	return ParseWorkload(buf.Bytes())
}

// ParseWorkload decodes the workload in b: the first JSON value, as
// json.Decoder reads it. Input in the canonical form (see the package
// doc) takes the one-pass scanner; anything else is decoded by
// encoding/json, so every input gets encoding/json's result and error
// text. Nothing returned aliases b.
func ParseWorkload(b []byte) (*taskgraph.Graph, *arch.Platform, gen.Release, error) {
	var wl WorkloadJSON
	if !parseCanonical(b, &wl) {
		wl = WorkloadJSON{}
		if err := json.NewDecoder(bytes.NewReader(b)).Decode(&wl); err != nil {
			return nil, nil, gen.Release{}, fmt.Errorf("graphio: %w", err)
		}
	}
	return decodeWorkload(wl)
}

// decodeWorkload rebuilds and validates a decoded workload.
func decodeWorkload(wl WorkloadJSON) (*taskgraph.Graph, *arch.Platform, gen.Release, error) {
	g, err := DecodeGraph(wl.Graph)
	if err != nil {
		return nil, nil, gen.Release{}, err
	}
	var p *arch.Platform
	if wl.Platform != nil {
		p, err = DecodePlatform(*wl.Platform)
		if err != nil {
			return nil, nil, gen.Release{}, err
		}
		if err := ValidateEligibility(g, p); err != nil {
			return nil, nil, gen.Release{}, err
		}
	}
	var rel gen.Release
	if wl.Release != nil {
		rel, err = DecodeRelease(*wl.Release)
		if err != nil {
			return nil, nil, gen.Release{}, err
		}
	}
	return g, p, rel, nil
}

// ResultJSON serializes one pipeline outcome for archival.
type ResultJSON struct {
	Metric      string       `json:"metric"`
	Arrival     []rtime.Time `json:"arrival"`
	AbsDeadline []rtime.Time `json:"absDeadline"`
	Proc        []int        `json:"proc"`
	Start       []rtime.Time `json:"start"`
	Finish      []rtime.Time `json:"finish"`
	Feasible    bool         `json:"feasible"`
	MaxLateness rtime.Time   `json:"maxLateness"`
	Makespan    rtime.Time   `json:"makespan"`
}

// EncodeResult bundles an assignment and a schedule.
func EncodeResult(asg *slicing.Assignment, s *sched.Schedule) ResultJSON {
	out := ResultJSON{
		Metric:      asg.MetricName,
		Arrival:     asg.Arrival,
		AbsDeadline: asg.AbsDeadline,
		Feasible:    s.Feasible,
		MaxLateness: s.MaxLateness,
		Makespan:    s.Makespan,
	}
	for _, pl := range s.Placements {
		out.Proc = append(out.Proc, pl.Proc)
		out.Start = append(out.Start, pl.Start)
		out.Finish = append(out.Finish, pl.Finish)
	}
	return out
}
