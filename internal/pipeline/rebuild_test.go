package pipeline

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/deadline"
	"repro/internal/rtime"
	"repro/internal/slicing"
)

// planEqual compares the replanning-relevant plan content: key,
// estimates, assignment, schedule, and verdict. Stats (timing) and the
// Estimator provenance string are excluded — a Rebuild legitimately
// remembers the estimator name where a cold build with supplied
// estimates cannot.
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
// sequences of estimate, single-task, and window deltas threaded through
// ONE Replanner, every Rebuild must be plan-identical to a cold Build of the mutated
// workload by a fresh builder.
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
		if prev.Estimator == "" {
			t.Fatalf("seed %d: cold build with estimator stage left Plan.Estimator empty", seed)
		}

		cur := append([]rtime.Time(nil), prev.Estimates...)
		for step := 0; step < 12; step++ {
			var delta Delta
			kind := rng.Intn(3)
			switch kind {
			case 0: // full-vector correction (re-slicing loop shape)
				for i := range cur {
					if rng.Intn(4) == 0 {
						cur[i] += rtime.Time(1 + rng.Intn(8))
					}
				}
				delta = EstimatesDelta(cur)
			case 1: // single-task WCET bump
				i := rng.Intn(n)
				cur[i] += rtime.Time(1 + rng.Intn(10))
				delta = TaskEstimateDelta(i, cur[i])
			case 2: // fault-adjusted window overrides
				arr := make([]rtime.Time, n)
				dl := make([]rtime.Time, n)
				for i := range arr {
					arr[i], dl[i] = rtime.Unset, rtime.Unset
				}
				for k := 0; k < 1+rng.Intn(3); k++ {
					i := rng.Intn(n)
					dl[i] = prev.Assignment.AbsDeadline[i] - rtime.Time(rng.Intn(5))
				}
				delta = WindowsDelta(arr, dl)
			}

			got, outcome, err := rp.RebuildContext(t.Context(), prev, delta)
			if err != nil {
				t.Fatalf("seed %d step %d (%v): %v", seed, step, delta.Kind, err)
			}
			if outcome != RebuildIncremental {
				t.Fatalf("seed %d step %d: outcome %v, want incremental (no cache configured)", seed, step, outcome)
			}

			// Cold comparator with a fresh builder: same config.
			fresh := &Builder{Verifier: FeasVerifier()}
			var want *Plan
			if delta.Kind == DeltaWindows {
				arr := append([]rtime.Time(nil), prev.Assignment.Arrival...)
				dl := append([]rtime.Time(nil), prev.Assignment.AbsDeadline...)
				for i := 0; i < n; i++ {
					if delta.AbsDeadline[i].IsSet() {
						dl[i] = delta.AbsDeadline[i]
					}
				}
				fresh.Distributor = deadline.Fixed{Arrival: arr, AbsDeadline: dl}
				want, err = fresh.Build(Spec{Graph: w.Graph, Platform: w.Platform, Estimates: prev.Estimates})
			} else {
				want, err = fresh.Build(Spec{Graph: w.Graph, Platform: w.Platform, Estimates: cur})
			}
			if err != nil {
				t.Fatalf("seed %d step %d cold comparator: %v", seed, step, err)
			}
			rebuildPlanEqual(t, delta.Kind.String(), want, got)

			// Estimate deltas advance the baseline; window deltas are
			// one-shot probes off the same baseline.
			if kind != 2 {
				prev = got
			}
		}
	}
}

// Malformed window-override sets must be rejected with a typed
// *WindowError before any deadline.Fixed replay runs: negative-length
// windows, precedence overlaps the overrides introduce, and deadlines
// pushed past the end-to-end horizon. Overlaps the previous plan
// already held stay legal (UD/ED-style windows overlap by design), so
// the test only forges overlaps across previously ordered arcs.
func TestRebuildRejectsMalformedWindows(t *testing.T) {
	w := workload(t, 11)
	n := w.Graph.NumTasks()
	b := &Builder{Verifier: FeasVerifier()}
	rp := b.NewReplanner()
	prev, err := b.Build(Spec{Graph: w.Graph, Platform: w.Platform})
	if err != nil {
		t.Fatal(err)
	}
	unset := func() ([]rtime.Time, []rtime.Time) {
		arr := make([]rtime.Time, n)
		dl := make([]rtime.Time, n)
		for i := range arr {
			arr[i], dl[i] = rtime.Unset, rtime.Unset
		}
		return arr, dl
	}
	expectWindowError := func(t *testing.T, delta Delta, reason string) *WindowError {
		t.Helper()
		_, _, err := rp.Rebuild(prev, delta)
		var we *WindowError
		if !errors.As(err, &we) {
			t.Fatalf("err = %v, want *WindowError", err)
		}
		if we.Reason != reason {
			t.Fatalf("reason = %q (%v), want %q", we.Reason, we, reason)
		}
		return we
	}

	t.Run("negative-length", func(t *testing.T) {
		arr, dl := unset()
		arr[0], dl[0] = 10, 9
		we := expectWindowError(t, WindowsDelta(arr, dl), "negative-length")
		if we.Task != 0 {
			t.Fatalf("task = %d, want 0", we.Task)
		}
	})

	t.Run("overlap", func(t *testing.T) {
		// Pick an arc whose windows the previous plan keeps ordered and
		// push the predecessor's deadline past the successor's arrival.
		pArr, pDl := prev.Assignment.Arrival, prev.Assignment.AbsDeadline
		from, to := -1, -1
		for _, a := range w.Graph.Arcs() {
			if pDl[a.From] <= pArr[a.To] {
				from, to = a.From, a.To
				break
			}
		}
		if from < 0 {
			t.Skip("workload has no ordered arc to forge an overlap on")
		}
		arr, dl := unset()
		dl[from] = pArr[to] + 1
		we := expectWindowError(t, WindowsDelta(arr, dl), "overlap")
		if we.Pred != from || we.Task != to {
			t.Fatalf("arc = %d->%d, want %d->%d", we.Pred, we.Task, from, to)
		}
	})

	t.Run("out-of-horizon", func(t *testing.T) {
		horizon := rtime.Unset
		for _, tk := range w.Graph.Tasks() {
			if tk.ETEDeadline.IsSet() && (!horizon.IsSet() || tk.ETEDeadline > horizon) {
				horizon = tk.ETEDeadline
			}
		}
		if !horizon.IsSet() {
			t.Skip("workload sets no end-to-end deadline")
		}
		arr, dl := unset()
		dl[n-1] = horizon + 100
		we := expectWindowError(t, WindowsDelta(arr, dl), "out-of-horizon")
		if we.Horizon != horizon {
			t.Fatalf("horizon = %d, want %d", we.Horizon, horizon)
		}
	})

	// Sanity: the same delta shapes with in-bounds values still rebuild.
	arr, dl := unset()
	dl[0] = prev.Assignment.AbsDeadline[0] - 1
	if _, _, err := rp.Rebuild(prev, WindowsDelta(arr, dl)); err != nil {
		t.Fatalf("well-formed override rejected: %v", err)
	}
}

// DeltaNone re-plans the same workload and estimates under the
// Replanner's own (possibly cheaper) configuration — the brownout
// substitute-build shape — and must match that configuration's cold
// build. DeltaWorkload must fall back to a plain full build.
func TestRebuildConfigSwitchAndFallback(t *testing.T) {
	w := workload(t, 42)
	full := &Builder{Verifier: FeasVerifier()}
	prev, err := full.Build(Spec{Graph: w.Graph, Platform: w.Platform})
	if err != nil {
		t.Fatal(err)
	}

	cheap := &Builder{
		Distributor: deadline.Sliced{Metric: slicing.NORM(), Params: slicing.CalibratedParams()},
		Quality:     QualityDegraded,
	}
	got, outcome, err := cheap.NewReplanner().Rebuild(prev, Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != RebuildIncremental {
		t.Fatalf("outcome %v, want incremental", outcome)
	}
	if got.Estimator != prev.Estimator {
		t.Fatalf("DeltaNone lost estimator provenance: %q vs %q", got.Estimator, prev.Estimator)
	}
	want, err := (&Builder{
		Distributor: deadline.Sliced{Metric: slicing.NORM(), Params: slicing.CalibratedParams()},
		Quality:     QualityDegraded,
	}).Build(Spec{Graph: w.Graph, Platform: w.Platform, Estimates: prev.Estimates})
	if err != nil {
		t.Fatal(err)
	}
	rebuildPlanEqual(t, "delta-none", want, got)

	// Workload delta: full rebuild of the new workload.
	w2 := workload(t, 43)
	rp := full.NewReplanner()
	got, outcome, err = rp.Rebuild(prev, WorkloadDelta(Spec{Graph: w2.Graph, Platform: w2.Platform}))
	if err != nil {
		t.Fatal(err)
	}
	if outcome != RebuildFull {
		t.Fatalf("outcome %v, want full", outcome)
	}
	want, err = (&Builder{Verifier: FeasVerifier()}).Build(Spec{Graph: w2.Graph, Platform: w2.Platform})
	if err != nil {
		t.Fatal(err)
	}
	rebuildPlanEqual(t, "workload-delta", want, got)
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
