package graphio

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// workloadSeeds and releaseSeeds are the seed inputs of FuzzReadWorkload
// and FuzzReadWorkloadRelease; FuzzReadWorkloadReference starts from
// both.
var workloadSeeds = []string{
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5]},{"wcet":[3],"eteDeadline":40,"criticality":1,"value":2}],"arcs":[{"from":0,"to":1,"items":2}]}}`,
	`{"graph":{"numClasses":2,"tasks":[{"wcet":[5,-1],"pinned":0}],"arcs":[]},"platform":{"kind":"unrelated","classes":[{"name":"a","speed":1},{"name":"b","speed":2}],"classOf":[0,1],"busDelayPerItem":1,"links":[{"a":0,"b":1,"perItem":3}]}}`,
	`{"graph":{"numClasses":0,"tasks":[],"arcs":[]}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5]}],"arcs":[{"from":0,"to":7}]}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5],"criticality":9}]}}`,
	`garbage`,
	`{}`,
}

// releaseSeeds, all but the last, carry a release block, a key outside
// the format, well formed or not: they leave the canonical form and
// must decode, through the reference, as the same body without it.
var releaseSeeds = []string{
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5]},{"wcet":[3],"eteDeadline":40}],"arcs":[{"from":0,"to":1,"items":2}]},"release":{"mode":"sporadic","count":4,"minGap":30,"jitter":5}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5]}],"arcs":[]},"release":{"mode":"sporadic","count":2,"minGap":10}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5]}],"arcs":[]},"release":{"mode":"sporadic","count":2,"minGap":10,"jitter":10}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5]}],"arcs":[]},"release":{"mode":"sporadic","count":0,"minGap":10}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5]}],"arcs":[]},"release":{"mode":"every-tuesday"}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5]}],"arcs":[]},"release":{"mode":"single","count":3}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5]}],"arcs":[]},"release":{"mode":"sporadic","count":2,"minGap":-4}}`,
	`{"graph":{"numClasses":1,"tasks":[{"wcet":[5]}],"arcs":[]}}`,
}

// FuzzReadWorkload hammers the workload reader with malformed JSON. The
// contract: it never panics (malformed structure is an error, not a
// crash), and any workload it accepts survives an encode/decode
// round-trip unchanged.
func FuzzReadWorkload(f *testing.F) {
	for _, seed := range workloadSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, p, err := ReadWorkload(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !g.Frozen() {
			t.Fatal("accepted graph is not frozen")
		}
		var buf bytes.Buffer
		if err := WriteWorkload(&buf, g, p); err != nil {
			t.Fatalf("accepted workload does not re-encode: %v", err)
		}
		g2, p2, err := ReadWorkload(&buf)
		if err != nil {
			t.Fatalf("re-encoded workload does not re-decode: %v", err)
		}
		if !reflect.DeepEqual(EncodeGraph(g), EncodeGraph(g2)) {
			t.Fatal("graph round-trip changed the graph")
		}
		if (p == nil) != (p2 == nil) {
			t.Fatal("platform presence changed in round-trip")
		}
		if p != nil && !reflect.DeepEqual(EncodePlatform(p), EncodePlatform(p2)) {
			t.Fatal("platform round-trip changed the platform")
		}
	})
}

// FuzzReadWorkloadRelease holds a workload's release block, a key
// outside the format, to having no effect: on any input that opens with
// an object carrying "release" members, well formed or not, ReadWorkload
// must return what it returns on the same object without them, the same
// error text or an equal graph and platform.
func FuzzReadWorkloadRelease(f *testing.F) {
	for _, seed := range releaseSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		stripped, ok := withoutRelease(data)
		if !ok {
			return
		}
		g, p, err := ReadWorkload(bytes.NewReader(data))
		g2, p2, err2 := ReadWorkload(bytes.NewReader(stripped))
		if (err == nil) != (err2 == nil) || err != nil && err.Error() != err2.Error() {
			t.Fatalf("error %v, without the release block %v", err, err2)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(EncodeGraph(g), EncodeGraph(g2)) {
			t.Fatal("the release block changed the graph")
		}
		if (p == nil) != (p2 == nil) || p != nil && !reflect.DeepEqual(EncodePlatform(p), EncodePlatform(p2)) {
			t.Fatal("the release block changed the platform")
		}
	})
}

// withoutRelease rebuilds the JSON object data opens with, its members
// in their order, less every "release" member. It reports false when
// data does not open with a well-formed object that has one.
func withoutRelease(data []byte) ([]byte, bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, false
	}
	out, found := []byte{'{'}, false
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, false
		}
		var val json.RawMessage
		if err := dec.Decode(&val); err != nil {
			return nil, false
		}
		if tok == "release" {
			found = true
			continue
		}
		if len(out) > 1 {
			out = append(out, ',')
		}
		key, _ := json.Marshal(tok)
		out = append(append(append(out, key...), ':'), val...)
	}
	if _, err := dec.Token(); err != nil {
		return nil, false
	}
	return append(out, '}'), found
}
