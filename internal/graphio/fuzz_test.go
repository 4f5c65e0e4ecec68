package graphio

import (
	"bytes"
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

// FuzzReadWorkloadRelease hammers the release-aware reader. On top of
// FuzzReadWorkload's contract, any release policy it accepts must pass
// gen.Release.Validate (a malformed release block is an error, never a
// silent single-shot fallback) and must survive an encode/decode
// round-trip unchanged.
func FuzzReadWorkloadRelease(f *testing.F) {
	for _, seed := range releaseSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, p, rel, err := ReadWorkloadRelease(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !g.Frozen() {
			t.Fatal("accepted graph is not frozen")
		}
		if err := rel.Validate(); err != nil {
			t.Fatalf("accepted release does not validate: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteWorkloadRelease(&buf, g, p, rel); err != nil {
			t.Fatalf("accepted workload does not re-encode: %v", err)
		}
		g2, p2, rel2, err := ReadWorkloadRelease(&buf)
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
		if rel2 != rel {
			t.Fatalf("release round-trip changed the policy: %+v vs %+v", rel, rel2)
		}
	})
}
