package pipeline

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/rtime"
)

// rebuildPlanEqual compares the replanning-relevant plan content: key,
// estimates, assignment, schedule, verdict, and quality. Stats (timing)
// are excluded.
func rebuildPlanEqual(t *testing.T, context string, want, got *Plan) {
	t.Helper()
	if want.Key != got.Key {
		t.Fatalf("%s: key diverged\nwant %+v\ngot  %+v", context, want.Key, got.Key)
	}
	if !reflect.DeepEqual(want.Estimates, got.Estimates) {
		t.Fatalf("%s: estimates diverged", context)
	}
	if !reflect.DeepEqual(want.Assignment, got.Assignment) {
		t.Fatalf("%s: assignment diverged\nwant %+v\ngot  %+v", context, want.Assignment, got.Assignment)
	}
	if !reflect.DeepEqual(want.Schedule, got.Schedule) {
		t.Fatalf("%s: schedule diverged\nwant %+v\ngot  %+v", context, want.Schedule, got.Schedule)
	}
	if want.Verdict != got.Verdict {
		t.Fatalf("%s: verdict diverged\nwant %+v\ngot  %+v", context, want.Verdict, got.Verdict)
	}
	if want.Quality != got.Quality {
		t.Fatalf("%s: quality diverged", context)
	}
}

// The incremental-replanning exactness property: across arbitrary
// sequences of full-vector corrections and single-task WCET bumps
// threaded through ONE Replanner, every Rebuild must be plan-identical
// to a cold Build of the mutated workload by a fresh builder.
func TestRebuildMatchesColdBuild(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := workload(t, seed)
		n := w.Graph.NumTasks()

		b := &Builder{Verifier: FeasVerifier()}
		rp := b.NewReplanner()
		prev, err := b.Build(Spec{Graph: w.Graph, Platform: w.Platform})
		if err != nil {
			t.Fatal(err)
		}

		cur := append([]rtime.Time(nil), prev.Estimates...)
		for step := 0; step < 12; step++ {
			shape := "full-vector"
			if rng.Intn(2) == 0 { // re-slicing loop shape
				for i := range cur {
					if rng.Intn(4) == 0 {
						cur[i] += rtime.Time(1 + rng.Intn(8))
					}
				}
			} else {
				shape = "single-task"
				cur[rng.Intn(n)] += rtime.Time(1 + rng.Intn(10))
			}

			got, outcome, err := rp.RebuildContext(context.Background(), prev, EstimatesDelta(cur))
			if err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, shape, err)
			}
			if outcome != RebuildIncremental {
				t.Fatalf("seed %d step %d: outcome %v, want incremental (no cache configured)", seed, step, outcome)
			}

			// Cold comparator with a fresh builder: same config.
			want, err := (&Builder{Verifier: FeasVerifier()}).Build(Spec{Graph: w.Graph, Platform: w.Platform, Estimates: cur})
			if err != nil {
				t.Fatalf("seed %d step %d cold comparator: %v", seed, step, err)
			}
			rebuildPlanEqual(t, shape, want, got)
			prev = got
		}
	}
}

// With a cache configured, rebuilding toward estimates that were already
// planned must be answered from residency and reported as a hit; the
// recorder's rebuild counters must add up.
func TestRebuildCacheHitAndCounters(t *testing.T) {
	w := workload(t, 7)
	rec := NewRecorder(false)
	b := &Builder{Cache: NewCache(8), Recorder: rec}
	rp := b.NewReplanner()
	prev, err := b.Build(Spec{Graph: w.Graph, Platform: w.Platform})
	if err != nil {
		t.Fatal(err)
	}

	bumped := append([]rtime.Time(nil), prev.Estimates...)
	bumped[0] += 3
	p1, out1, err := rp.Rebuild(prev, EstimatesDelta(bumped))
	if err != nil || out1 != RebuildIncremental {
		t.Fatalf("first rebuild: outcome %v err %v", out1, err)
	}
	if _, out2, err := rp.Rebuild(prev, EstimatesDelta(bumped)); err != nil || out2 != RebuildHit {
		t.Fatalf("repeat rebuild: outcome %v err %v, want hit", out2, err)
	}
	// Rebuilding back to the original estimates hits the cold build's
	// cache entry.
	if _, out3, err := rp.Rebuild(p1, EstimatesDelta(prev.Estimates)); err != nil || out3 != RebuildHit {
		t.Fatalf("revert rebuild: outcome %v err %v, want hit", out3, err)
	}

	s := rec.Summary()
	if s.Rebuilds != 3 || s.RebuildHits != 2 || s.RebuildFallbacks != 0 {
		t.Fatalf("rebuild counters = %d/%d/%d, want 3/2/0", s.Rebuilds, s.RebuildHits, s.RebuildFallbacks)
	}
}

// Cached plans are immutable; pooled build scratch must never leak into
// them. Snapshot every cached plan's serialized bytes, churn concurrent
// pooled builds and rebuilds over the same builder, and verify the
// snapshots byte-for-byte. Run with -race, this also proves the pool
// hand-off is clean.
func TestPooledBuildsNeverMutateCachedPlans(t *testing.T) {
	b := &Builder{Cache: NewCache(64), Verifier: FeasVerifier()}

	// Phase 1: populate and snapshot.
	const kept = 6
	plans := make([]*Plan, kept)
	snaps := make([][]byte, kept)
	for i := 0; i < kept; i++ {
		w := workload(t, int64(100+i))
		p, err := b.Build(Spec{Graph: w.Graph, Platform: w.Platform})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(EncodePlan(p))
		if err != nil {
			t.Fatal(err)
		}
		plans[i], snaps[i] = p, raw
	}

	// Phase 2: churn. Concurrent cold builds and replanners over fresh
	// workloads and over the kept plans' own graphs, all on pooled
	// scratch.
	var wg sync.WaitGroup
	for gid := 0; gid < 4; gid++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			rp := b.NewReplanner()
			for i := 0; i < 20; i++ {
				w := workload(t, int64(200+gid*100+i))
				if _, err := b.Build(Spec{Graph: w.Graph, Platform: w.Platform}); err != nil {
					t.Error(err)
					return
				}
				prev := plans[(gid+i)%kept]
				bumped := append([]rtime.Time(nil), prev.Estimates...)
				bumped[i%len(bumped)] += rtime.Time(1 + i)
				if _, _, err := rp.Rebuild(prev, EstimatesDelta(bumped)); err != nil {
					t.Error(err)
					return
				}
			}
		}(gid)
	}
	wg.Wait()

	// Phase 3: the snapshots must be untouched.
	for i, p := range plans {
		raw, err := json.Marshal(EncodePlan(p))
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(snaps[i]) {
			t.Fatalf("cached plan %d mutated by later pooled builds", i)
		}
	}
}
