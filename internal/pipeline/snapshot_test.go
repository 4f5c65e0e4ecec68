package pipeline

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/rtime"
)

// snapshotCorpus builds a set of distinct plans through the real
// pipeline — the same workload generator the equivalence corpus uses —
// so the round-trip tests exercise genuine assignments and schedules,
// not hand-made ones.
func snapshotCorpus(t *testing.T, n int) []*Plan {
	t.Helper()
	b := &Builder{}
	plans := make([]*Plan, 0, n)
	for i := 0; i < n; i++ {
		cfg := gen.Default(6 + i%5)
		cfg.Seed = int64(100 + i)
		w := gen.MustGenerate(cfg)
		p, err := b.Build(Spec{Graph: w.Graph, Platform: w.Platform})
		if err != nil {
			t.Fatalf("seed %d: %v", cfg.Seed, err)
		}
		plans = append(plans, p)
	}
	return plans
}

// planEqual compares the serializable content of two plans: key, every
// stage product, and the verdict. Graphs and platforms are compared via
// their fingerprint (already proven collision-relevant by the key).
func planEqual(t *testing.T, a, b *Plan) {
	t.Helper()
	if a.Key != b.Key {
		t.Fatalf("key mismatch:\n  %+v\n  %+v", a.Key, b.Key)
	}
	if Fingerprint(a.Graph, a.Platform) != Fingerprint(b.Graph, b.Platform) {
		t.Fatal("workload fingerprint changed across round-trip")
	}
	if !reflect.DeepEqual(a.Estimates, b.Estimates) {
		t.Fatal("estimates changed across round-trip")
	}
	if !reflect.DeepEqual(a.Assignment, b.Assignment) {
		t.Fatalf("assignment changed across round-trip:\n  %+v\n  %+v", a.Assignment, b.Assignment)
	}
	if !reflect.DeepEqual(a.Schedule, b.Schedule) {
		t.Fatalf("schedule changed across round-trip:\n  %+v\n  %+v", a.Schedule, b.Schedule)
	}
	if a.Verdict != b.Verdict {
		t.Fatalf("verdict changed across round-trip: %+v vs %+v", a.Verdict, b.Verdict)
	}
	if a.Quality != b.Quality {
		t.Fatalf("quality changed across round-trip: %v vs %v", a.Quality, b.Quality)
	}
}

// TestQualityRoundTrip pins the quality tag's wire behavior: full
// quality is omitted (old snapshots stay byte-identical), degraded
// survives the round-trip, and an unknown tag is refused rather than
// silently promoted to full.
func TestQualityRoundTrip(t *testing.T) {
	b := &Builder{Quality: QualityDegraded}
	cfg := gen.Default(4)
	cfg.Seed = 41
	w := gen.MustGenerate(cfg)
	p, err := b.Build(Spec{Graph: w.Graph, Platform: w.Platform})
	if err != nil {
		t.Fatal(err)
	}
	if p.Quality != QualityDegraded {
		t.Fatalf("builder quality not stamped: %v", p.Quality)
	}
	pj := EncodePlan(p)
	if pj.Quality != "degraded" {
		t.Fatalf("encoded quality = %q, want degraded", pj.Quality)
	}
	got, err := DecodePlan(pj)
	if err != nil {
		t.Fatal(err)
	}
	planEqual(t, p, got)

	full, err := (&Builder{}).Build(Spec{Graph: w.Graph, Platform: w.Platform})
	if err != nil {
		t.Fatal(err)
	}
	if enc := EncodePlan(full); enc.Quality != "" {
		t.Fatalf("full quality should encode as empty, got %q", enc.Quality)
	}

	pj.Quality = "shiny"
	if _, err := DecodePlan(pj); err == nil {
		t.Fatal("unknown quality tag should be refused")
	}
}

// TestPlanRoundTrip checks EncodePlan → JSON → DecodePlan is lossless
// and byte-stable: re-encoding the decoded plan reproduces the exact
// bytes, so a plan can transit snapshots and warm fills any number of
// times without drift.
func TestPlanRoundTrip(t *testing.T) {
	for i, p := range snapshotCorpus(t, 8) {
		raw, err := json.Marshal(EncodePlan(p))
		if err != nil {
			t.Fatal(err)
		}
		var pj PlanJSON
		if err := json.Unmarshal(raw, &pj); err != nil {
			t.Fatal(err)
		}
		got, err := DecodePlan(pj)
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		planEqual(t, p, got)
		again, err := json.Marshal(EncodePlan(got))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, again) {
			t.Fatalf("plan %d: re-encoding is not byte-identical\n  %s\n  %s", i, raw, again)
		}
		if got.Stats.Total() != p.Stats.Total() {
			t.Fatalf("plan %d: stage wall time lost: %v vs %v", i, got.Stats.Total(), p.Stats.Total())
		}
	}
}

// TestKeyParamRoundTrip checks the URL-token form of a Key.
func TestKeyParamRoundTrip(t *testing.T) {
	for _, p := range snapshotCorpus(t, 3) {
		tok := EncodeKeyParam(p.Key)
		if strings.ContainsAny(tok, "+/=&? ") {
			t.Fatalf("token %q is not URL-safe", tok)
		}
		k, err := DecodeKeyParam(tok)
		if err != nil {
			t.Fatal(err)
		}
		if k != p.Key {
			t.Fatalf("key round-trip mismatch:\n  %+v\n  %+v", p.Key, k)
		}
	}
	if _, err := DecodeKeyParam("not!base64"); err == nil {
		t.Fatal("garbage token decoded without error")
	}
}

// TestDecodePlanIntegrity checks that a tampered payload is refused:
// flipping content under an unchanged key must not produce a plan.
func TestDecodePlanIntegrity(t *testing.T) {
	p := snapshotCorpus(t, 1)[0]
	pj := EncodePlan(p)
	pj.Estimates = append([]rtime.Time(nil), pj.Estimates...)
	pj.Estimates[0]++
	if _, err := DecodePlan(pj); err == nil {
		t.Fatal("tampered estimates decoded without error")
	}

	pj = EncodePlan(p)
	pj.Workload.Graph.Tasks[0].WCET[0]++
	if _, err := DecodePlan(pj); err == nil {
		t.Fatal("tampered workload decoded without error")
	}

	pj = EncodePlan(p)
	pj.Schedule.Proc = pj.Schedule.Proc[:1]
	if _, err := DecodePlan(pj); err == nil {
		t.Fatal("ragged schedule decoded without error")
	}
}

// TestSnapshotRoundTripProperty is the torn-tail property test: for
// every truncation point of a valid snapshot file, and for a corrupted
// interior-free tail, Read recovers exactly the complete prefix of
// entries and each recovered plan is byte-identical to its original.
func TestSnapshotRoundTripProperty(t *testing.T) {
	plans := snapshotCorpus(t, 6)
	var buf bytes.Buffer
	if n, err := WriteSnapshot(&buf, plans); err != nil || n != len(plans) {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	full := buf.Bytes()
	lines := bytes.SplitAfter(full, []byte("\n"))
	// lines = header, plan 0..5, trailing empty slice.
	if len(lines) != len(plans)+2 {
		t.Fatalf("snapshot has %d lines, want %d", len(lines), len(plans)+2)
	}

	// Every complete-line prefix recovers exactly that many plans.
	for keep := 0; keep <= len(plans); keep++ {
		var pre bytes.Buffer
		for _, l := range lines[:1+keep] {
			pre.Write(l)
		}
		got, err := ReadSnapshot(&pre)
		if err != nil {
			t.Fatalf("keep=%d: %v", keep, err)
		}
		if len(got) != keep {
			t.Fatalf("keep=%d: recovered %d plans", keep, len(got))
		}
		for i := range got {
			planEqual(t, plans[i], got[i])
		}
	}

	// Every byte-level truncation recovers every plan whose line is
	// complete — never fewer, never a mangled extra. A final line cut
	// exactly before its trailing newline is complete: the record's
	// content is whole and passes integrity, so Read keeps it.
	for cut := len(full); cut > len(lines[0]); cut -= 37 {
		complete := 0
		off := len(lines[0])
		for i := 1; i <= len(plans); i++ {
			off += len(lines[i])
			if cut >= off-1 {
				complete = i
			}
		}
		got, err := ReadSnapshot(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if len(got) != complete {
			t.Fatalf("cut=%d: recovered %d plans, want %d", cut, len(got), complete)
		}
		for i := range got {
			planEqual(t, plans[i], got[i])
		}
	}

	// A corrupted interior line ends recovery there (the snapshot is a
	// cache, so a lost suffix is a performance event, not data loss).
	corrupt := bytes.Replace(full, []byte(`"key"`), []byte(`"k!y"`), 2)
	got, err := ReadSnapshot(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		// The first replacement lands in plan 0's line, so nothing
		// before it is recoverable; recovering 0 is the exact contract.
		t.Fatalf("corrupted first line still yielded %d plans", len(got))
	}

	// Wrong or missing header refuses the whole file.
	if _, err := ReadSnapshot(strings.NewReader("{\"snapshot\":\"other/v9\"}\n")); err == nil {
		t.Fatal("wrong header accepted")
	}
	if _, err := ReadSnapshot(strings.NewReader("")); err == nil {
		t.Fatal("empty file accepted as snapshot")
	}
}

// TestSnapshotReadsEstimatorField: snapshot lines written before plans
// stopped recording their estimator carry an "estimator" member. Such a
// line still loads, under the same header, into the same plan, and
// re-encodes without the member.
func TestSnapshotReadsEstimatorField(t *testing.T) {
	plan := snapshotCorpus(t, 1)[0]
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, []*Plan{plan}); err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(buf.Bytes(), []byte(`,"stageWallNS"`), []byte(`,"estimator":"WCET-AVG","stageWallNS"`), 1)
	if bytes.Equal(old, buf.Bytes()) {
		t.Fatal("snapshot line has no stageWallNS member to precede")
	}
	got, err := ReadSnapshot(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("recovered %d plans from a one-plan snapshot", len(got))
	}
	planEqual(t, plan, got[0])
	var again bytes.Buffer
	if _, err := WriteSnapshot(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatalf("re-encoded snapshot differs\n  %s\n  %s", again.Bytes(), buf.Bytes())
	}
}

// TestSaveLoadSnapshot drives the file-level API: save a populated
// cache, load into a fresh one, and check residency, recency order,
// and that a missing file is a silent cold start.
func TestSaveLoadSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plans.snap")

	c := NewCache(8)
	plans := snapshotCorpus(t, 5)
	for _, p := range plans {
		c.Install(p)
	}
	n, err := SaveSnapshot(path, c)
	if err != nil || n != 5 {
		t.Fatalf("save: n=%d err=%v", n, err)
	}

	fresh := NewCache(8)
	n, err = LoadSnapshot(path, fresh)
	if err != nil || n != 5 {
		t.Fatalf("load: n=%d err=%v", n, err)
	}
	if fresh.Len() != 5 {
		t.Fatalf("loaded cache holds %d plans", fresh.Len())
	}
	for _, p := range plans {
		got, ok := fresh.Lookup(p.Key)
		if !ok {
			t.Fatalf("plan %v missing after load", p.Key.Workload)
		}
		planEqual(t, p, got)
	}

	// Recency survives: with a single-shard cache the LRU order is
	// exact, so overflowing by one must evict the oldest install.
	small := NewCache(5)
	if _, err := LoadSnapshot(path, small); err != nil {
		t.Fatal(err)
	}
	extra := snapshotCorpus(t, 6)[5]
	small.Install(extra)
	if small.Contains(plans[0].Key) {
		t.Fatal("oldest plan survived an overflow — recency order lost")
	}
	if !small.Contains(extra.Key) || !small.Contains(plans[4].Key) {
		t.Fatal("recent plans evicted instead of the oldest")
	}

	// Missing file: cold start, not an error.
	n, err = LoadSnapshot(filepath.Join(dir, "absent.snap"), NewCache(8))
	if n != 0 || err != nil {
		t.Fatalf("missing snapshot: n=%d err=%v", n, err)
	}

	// A non-snapshot file is refused loudly.
	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("hello\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(junk, NewCache(8)); err == nil {
		t.Fatal("junk file loaded as snapshot")
	}

	// Saving over an existing snapshot is atomic-replace: the new file
	// carries the new contents and no temp litter remains.
	c2 := NewCache(8)
	c2.Install(plans[0])
	if n, err := SaveSnapshot(path, c2); err != nil || n != 1 {
		t.Fatalf("re-save: n=%d err=%v", n, err)
	}
	reload := NewCache(8)
	if n, err := LoadSnapshot(path, reload); err != nil || n != 1 {
		t.Fatalf("re-load: n=%d err=%v", n, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %q left behind", e.Name())
		}
	}
}

// TestCacheAccessors pins the export surface the fleet layer depends
// on: Keys/Plans agree, Contains does not bump recency, Lookup does.
func TestCacheAccessors(t *testing.T) {
	c := NewCache(3) // single shard → exact LRU
	plans := snapshotCorpus(t, 3)
	for _, p := range plans {
		c.Install(p)
	}
	keys := c.Keys()
	resident := c.Plans()
	if len(keys) != 3 || len(resident) != 3 {
		t.Fatalf("Keys/Plans = %d/%d entries", len(keys), len(resident))
	}
	for i := range keys {
		if resident[i].Key != keys[i] {
			t.Fatalf("Keys and Plans disagree at %d", i)
		}
	}
	if keys[0] != plans[0].Key {
		t.Fatal("Keys is not oldest-first")
	}

	// Contains must not promote: probe the oldest, overflow, and the
	// probed entry must still be the eviction victim.
	if !c.Contains(plans[0].Key) {
		t.Fatal("Contains missed a resident key")
	}
	c.Install(snapshotCorpus(t, 4)[3])
	if c.Contains(plans[0].Key) {
		t.Fatal("Contains promoted the oldest entry")
	}

	// Lookup must promote: bump the now-oldest, overflow, and the
	// bumped entry must survive.
	if _, ok := c.Lookup(plans[1].Key); !ok {
		t.Fatal("Lookup missed a resident key")
	}
	c.Install(snapshotCorpus(t, 5)[4])
	if !c.Contains(plans[1].Key) {
		t.Fatal("Lookup did not protect the bumped entry from eviction")
	}
	if c.Contains(plans[2].Key) {
		t.Fatal("eviction took the wrong entry after a Lookup bump")
	}
}

// TestSnapshotServesWithoutRebuild is the end-to-end restart story at
// package level: build, save, "restart" into a new cache, and check a
// Build through the restored cache is a hit, not a cold build.
func TestSnapshotServesWithoutRebuild(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plans.snap")

	rec := &Recorder{}
	cache := NewCache(64)
	b := &Builder{Cache: cache, Recorder: rec}
	cfg := gen.Default(7)
	cfg.Seed = 424242
	w := gen.MustGenerate(cfg)
	if _, err := b.Build(Spec{Graph: w.Graph, Platform: w.Platform}); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveSnapshot(path, cache); err != nil {
		t.Fatal(err)
	}

	rec2 := &Recorder{}
	cache2 := NewCache(64)
	if n, err := LoadSnapshot(path, cache2); err != nil || n != 1 {
		t.Fatalf("load: n=%d err=%v", n, err)
	}
	b2 := &Builder{Cache: cache2, Recorder: rec2}
	p, err := b2.Build(Spec{Graph: w.Graph, Platform: w.Platform})
	if err != nil {
		t.Fatal(err)
	}
	sum := rec2.Summary()
	if sum.Builds != 0 || sum.Hits != 1 {
		t.Fatalf("restored cache: builds=%d hits=%d, want 0 builds 1 hit", sum.Builds, sum.Hits)
	}
	if !p.Verdict.Feasible && p.Verdict.MaxLateness == 0 && p.Schedule == nil {
		t.Fatal("restored plan is empty")
	}
}
