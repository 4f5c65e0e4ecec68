package graphio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/taskgraph"
)

// checkAgainstReference fails t unless ReadWorkload returns on data
// what the reference returns: the same error text, or an equal graph
// and platform. The reference is ReadWorkload as it was before the
// fast path: encoding/json's Decoder, then the unchanged validation.
// Whenever the fast path accepts data, encoding/json must accept it
// too and decode the identical WorkloadJSON. It reports whether the
// fast path took data.
func checkAgainstReference(t *testing.T, data []byte) bool {
	t.Helper()
	var refWL, fast WorkloadJSON
	jsonErr := json.NewDecoder(bytes.NewReader(data)).Decode(&refWL)
	canonical := parseCanonical(data, &fast)
	if canonical && jsonErr != nil {
		t.Fatalf("fast path accepted input encoding/json rejects: %v", jsonErr)
	}
	if canonical && !reflect.DeepEqual(fast, refWL) {
		t.Fatalf("fast path decoded\n%#v\nencoding/json decoded\n%#v", fast, refWL)
	}
	var refG *taskgraph.Graph
	var refP *arch.Platform
	refErr := fmt.Errorf("graphio: %w", jsonErr)
	if jsonErr == nil {
		refG, refP, refErr = decodeWorkload(refWL)
	}

	g, p, err := ReadWorkload(bytes.NewReader(data))
	if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
		t.Fatalf("error %v, reference error %v", err, refErr)
	}
	if err != nil {
		return canonical
	}
	if !reflect.DeepEqual(EncodeGraph(g), EncodeGraph(refG)) {
		t.Fatal("graph differs from the reference")
	}
	if (p == nil) != (refP == nil) || p != nil && !reflect.DeepEqual(EncodePlatform(p), EncodePlatform(refP)) {
		t.Fatal("platform differs from the reference")
	}
	return canonical
}

// corpusSeeds returns the checked-in corpus of the fuzz target name.
func corpusSeeds(f *testing.F, name string) [][]byte {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", name, "*"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no corpus for %s: %v", name, err)
	}
	var out [][]byte
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		header, val, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		val, ok := strings.CutPrefix(val, "[]byte(")
		if !ok || header != "go test fuzz v1" {
			f.Fatalf("%s: unexpected corpus format", file)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(val, ")"))
		if err != nil {
			f.Fatalf("%s: %v", file, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// offCanonicalSeeds sit on both sides of the canonical form's edge:
// inputs just outside it must fall back to encoding/json, boundary
// values inside it must decode as encoding/json decodes them.
var offCanonicalSeeds = []string{
	// Escapes and non-ASCII in strings.
	`{"graph":{"numClasses":1,"tasks":[{"name":"t\u0030","wcet":[5]}],"arcs":[]}}`,
	`{"graph":{"numClasses":1,"tasks":[{"name":"a\"b","wcet":[5]}],"arcs":[]}}`,
	`{"graph":{"numClasses":1,"tasks":[{"name":"é","wcet":[5]}],"arcs":[]}}`,
	`{"graph":{"numClasses":1,"tasks":[{"name":"tab	","wcet":[5]}],"arcs":[]}}`,
	// Keys that differ from the tags only in case, and unknown keys.
	`{"Graph":{"NumClasses":1,"Tasks":[{"WCET":[5]}],"arcs":[]}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5]}],"arcs":[]},"platform":{"kind":"identical","classes":[{"NAME":"a","SPEED":1}],"classOf":[0],"busDelayPerItem":1}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5],"colour":"red"}],"arcs":[]}}`,
	// Duplicate keys and nulls.
	`{"graph":{"numClasses":1,"numClasses":2,"tasks":[{"wcet":[5,5]}],"arcs":[]}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5],"wcet":[6,7]}],"arcs":[]}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5]}],"arcs":[]},"platform":null}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":null}],"arcs":null}}`,
	`{"graph":{"numClasses":1,"tasks":[{"name":null,"wcet":[5],"pinned":null}]}}`,
	`null`,
	// Non-integer literals, leading zeros and out-of-range integers.
	`{"graph":{"numClasses":1.0,"tasks":[{"wcet":[5]}],"arcs":[]}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[1e2]}],"arcs":[]}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[01]}],"arcs":[]}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[9223372036854775808]}],"arcs":[]}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[9223372036854775807]}],"arcs":[]}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5],"phase":-9223372036854775808}],"arcs":[]}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5],"phase":-9223372036854775809}],"arcs":[]}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[-0]}],"arcs":[]}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5],"pinned":18446744073709551616}],"arcs":[]}}`,
	// Float fields: hex floats, bad grammar, out of range, and fine.
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5],"criticality":1,"value":0x1p-2}],"arcs":[]}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5],"criticality":1,"value":.5}],"arcs":[]}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5],"criticality":1,"value":1e400}],"arcs":[]}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5],"criticality":1,"value":-2.5E-3}],"arcs":[]}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5]}],"arcs":[]},"platform":{"kind":"uniform","classes":[{"Name":"a","Speed":1e-320}],"classOf":[0],"busDelayPerItem":1}}`,
	// Trailing bytes, leading space, and truncation.
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5]}],"arcs":[]}} x`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5]}],"arcs":[]}}{}`,
	" \t\r\n{\"graph\":{\"numClasses\":1,\"tasks\":[{\"wcet\":[5]}],\"arcs\":[]}} \n",
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5]}],"arcs":[`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5,]}],"arcs":[]}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5]},],"arcs":[]}}`,
	``,
}

// FuzzReadWorkloadReference checks the canonical fast path against
// encoding/json, the reference it replaces on canonical input. On
// every input ReadWorkload must return what the reference returns: the
// same error text, or an equal graph and platform. Whenever the fast
// path accepts an input, the reference must accept it too and decode
// the identical WorkloadJSON, nil and empty slices included. Its seeds
// include the checked-in corpora of FuzzReadWorkload and
// FuzzReadWorkloadRelease, whose bodies carry a release block, an
// unknown key.
func FuzzReadWorkloadReference(f *testing.F) {
	for _, seeds := range [][]string{workloadSeeds, releaseSeeds, offCanonicalSeeds} {
		for _, seed := range seeds {
			f.Add([]byte(seed))
		}
	}
	for _, target := range []string{"FuzzReadWorkload", "FuzzReadWorkloadRelease"} {
		for _, seed := range corpusSeeds(f, target) {
			f.Add(seed)
		}
	}
	for _, body := range writtenWorkloads(f, []int{1, 3, 8}) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data)
	})
}

// writtenWorkloads encodes generated workloads of the given sizes with
// WriteWorkload, covering every field of the format: pinned tasks,
// resources, optional tasks with values, end-to-end deadlines, phases
// and periods, every platform kind and dedicated links.
func writtenWorkloads(tb testing.TB, sizes []int) [][]byte {
	var out [][]byte
	kinds := []arch.Kind{arch.Unrelated, arch.Uniform, arch.Identical}
	for i, n := range sizes {
		cfg := gen.Default(2 + i%3)
		cfg.Seed = int64(1000 + i)
		cfg.MinTasks, cfg.MaxTasks = n, n
		cfg.MinDepth, cfg.MaxDepth = min(cfg.MinDepth, n), min(cfg.MaxDepth, n)
		cfg.Kind = kinds[i%len(kinds)]
		cfg.PinProb, cfg.OptionalProb = 0.5, 0.4
		cfg.NumResources, cfg.ResourceProb = 3, 0.3
		w, err := gen.Generate(cfg)
		if err != nil {
			tb.Fatalf("%d tasks: %v", n, err)
		}
		w.Graph.Task(0).Period = 1000
		w.Graph.Task(n - 1).Phase = 7
		p := w.Platform
		if i%2 == 1 {
			p.Net = arch.NewNetwork(p.M()).SetLink(0, 1, 3)
		}
		var buf bytes.Buffer
		if err := WriteWorkload(&buf, w.Graph, p); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// TestWrittenWorkloadsTakeFastPath: everything WriteWorkload emits is
// in the canonical form, so pland never pays encoding/json for its own
// format.
func TestWrittenWorkloadsTakeFastPath(t *testing.T) {
	sizes := []int{1, 2, 5, 17, 40, 120, 250, 500}
	for i, body := range writtenWorkloads(t, sizes) {
		if !checkAgainstReference(t, body) {
			t.Errorf("%d-task workload fell back to encoding/json", sizes[i])
		}
	}
	// The default generator's output, without links.
	cfg := gen.Default(3)
	cfg.MinTasks, cfg.MaxTasks = 120, 120
	w := gen.MustGenerate(cfg)
	var buf bytes.Buffer
	if err := WriteWorkload(&buf, w.Graph, w.Platform); err != nil {
		t.Fatal(err)
	}
	plain := buf.Bytes()
	if !checkAgainstReference(t, plain) {
		t.Error("WriteWorkload output fell back to encoding/json")
	}

	// A release block, well-formed or not, is a key the format does not
	// have: the body leaves the canonical form, and the reference
	// ignores the key, so it decodes to the workload of the body
	// without it.
	for _, block := range []string{
		`{"mode":"sporadic","count":3,"minGap":5000,"jitter":40}`,
		`{"mode":"every-tuesday"}`,
	} {
		body := append([]byte(`{"release":`+block+`,`), plain[1:]...)
		if checkAgainstReference(t, body) {
			t.Errorf("release block %s took the fast path", block)
		}
		g, p, err := ReadWorkload(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("release block %s: %v", block, err)
		}
		if !reflect.DeepEqual(EncodeGraph(g), EncodeGraph(w.Graph)) ||
			!reflect.DeepEqual(EncodePlatform(p), EncodePlatform(w.Platform)) {
			t.Errorf("release block %s: workload differs from the body without it", block)
		}
	}
}

// TestParseWorkloadDoesNotAliasInput: decoded names must not share the
// request body's memory, or every cached plan would pin its body.
func TestParseWorkloadDoesNotAliasInput(t *testing.T) {
	body := writtenWorkloads(t, []int{12})[0]
	g, p, err := ParseWorkload(body)
	if err != nil {
		t.Fatal(err)
	}
	task, class := strings.Clone(g.Task(0).Name), strings.Clone(p.Classes[0].Name)
	for i := range body {
		body[i] = 'x'
	}
	if g.Task(0).Name != task || p.Classes[0].Name != class {
		t.Errorf("decoded names changed with the input: %q, %q", g.Task(0).Name, p.Classes[0].Name)
	}
}
