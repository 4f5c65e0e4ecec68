package pipeline

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/sched"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
)

// slowDispatcher wraps the time-driven dispatcher so the test can hold a
// cold build open until enough concurrent builders have piled onto its
// flight. The name matches TimeDriven so the cache key is unaffected.
func slowDispatcher(enter chan<- struct{}, release <-chan struct{}) Dispatcher {
	return Dispatcher{Name: "time-driven", Run: func(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, _ *sched.Scratch) (*sched.Schedule, error) {
		enter <- struct{}{}
		<-release
		return sched.Dispatch(g, p, asg)
	}}
}

// TestBuildCoalesces pins the singleflight contract: N concurrent builds
// of one key run the stages exactly once — one leader plans while the
// followers wait on its flight and share the one plan.
func TestBuildCoalesces(t *testing.T) {
	const followers = 7
	w := workload(t, 3)
	rec := NewRecorder(false)
	enter := make(chan struct{}, 1)
	release := make(chan struct{})
	b := &Builder{
		Dispatcher: slowDispatcher(enter, release),
		Cache:      NewCache(8),
		Recorder:   rec,
	}
	spec := Spec{Graph: w.Graph, Platform: w.Platform}

	plans := make([]*Plan, 1+followers)
	errs := make([]error, 1+followers)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); plans[0], errs[0] = b.Build(spec) }()
	<-enter // the leader is inside dispatch, holding the flight open

	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); plans[i], errs[i] = b.Build(spec) }()
	}
	// Wait until every follower has joined the flight, then let the
	// leader finish.
	for rec.Summary().Coalesced < followers {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	for i := range plans {
		if errs[i] != nil {
			t.Fatalf("builder %d failed: %v", i, errs[i])
		}
		if plans[i] != plans[0] {
			t.Fatalf("builder %d got a different plan instance", i)
		}
	}
	s := rec.Summary()
	if s.Builds != 1 {
		t.Fatalf("Builds = %d, want exactly 1 cold build", s.Builds)
	}
	if s.Coalesced != followers {
		t.Fatalf("Coalesced = %d, want %d", s.Coalesced, followers)
	}
	if s.Hits != 0 || s.Errors != 0 || s.Canceled != 0 {
		t.Fatalf("unexpected counters: %+v", s)
	}
	// A later build of the same key is a plain cache hit.
	if _, err := b.Build(spec); err != nil {
		t.Fatal(err)
	}
	if s = rec.Summary(); s.Hits != 1 || s.Builds != 1 {
		t.Fatalf("post-flight build not served from cache: %+v", s)
	}
}

// TestBuildContextCanceled pins cooperative cancellation: a done context
// ends the build at the next stage boundary with ctx.Err(), counts in
// the Canceled column (not Errors), and caches nothing.
func TestBuildContextCanceled(t *testing.T) {
	w := workload(t, 4)
	rec := NewRecorder(false)
	b := &Builder{Cache: NewCache(8), Recorder: rec}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := b.BuildContext(ctx, Spec{Graph: w.Graph, Platform: w.Platform})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	s := rec.Summary()
	if s.Canceled == 0 {
		t.Fatal("cancellation not recorded")
	}
	if s.Errors != 0 {
		t.Fatalf("cancellation counted as stage error: %+v", s)
	}
	if s.Builds != 0 || b.Cache.Len() != 0 {
		t.Fatalf("canceled build produced a cached plan: %+v, len=%d", s, b.Cache.Len())
	}
}

// TestFollowerRetriesAfterLeaderCanceled pins the retry loop: when the
// leader's own request dies mid-build, a live follower does not inherit
// the cancellation — it retries, becomes the leader, and plans.
func TestFollowerRetriesAfterLeaderCanceled(t *testing.T) {
	w := workload(t, 5)
	rec := NewRecorder(false)
	var calls atomic.Int64
	release := make(chan struct{})
	d := Dispatcher{Name: "time-driven", Run: func(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, _ *sched.Scratch) (*sched.Schedule, error) {
		if calls.Add(1) == 1 {
			// First (doomed) leader: wait until the follower has joined
			// the flight, then fail as its canceled request would.
			<-release
			return nil, context.Canceled
		}
		return sched.Dispatch(g, p, asg)
	}}
	b := &Builder{Dispatcher: d, Cache: NewCache(8), Recorder: rec}
	spec := Spec{Graph: w.Graph, Platform: w.Platform}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := b.Build(spec); !errors.Is(err, context.Canceled) {
			t.Errorf("leader: got %v, want context.Canceled", err)
		}
	}()
	for calls.Load() == 0 {
		runtime.Gosched()
	}
	var followerPlan *Plan
	var followerErr error
	wg.Add(1)
	go func() { defer wg.Done(); followerPlan, followerErr = b.Build(spec) }()
	for rec.Summary().Coalesced == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if followerErr != nil {
		t.Fatalf("follower inherited the leader's cancellation: %v", followerErr)
	}
	if followerPlan == nil || !followerPlan.Verdict.Feasible && followerPlan.Schedule == nil {
		t.Fatal("follower retry produced no plan")
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("dispatcher ran %d times, want 2 (doomed leader + retried follower)", got)
	}
}

// TestBuildCancelStorm is the fleet's abandoned-hedge pattern at the
// pipeline layer: many requests for the same key where a large subset
// is canceled mid-flight (a hedge loser, a draining peer's proxied
// request) while the rest must still be served. Run under -race it
// checks that doomed leaders hand the flight to live followers, that
// no cancellation leaks into a surviving request, and that in the end
// the key was cold-built as if the storm never happened: one cached
// plan, zero stage errors, and a final build that is a pure hit.
func TestBuildCancelStorm(t *testing.T) {
	const (
		goroutines = 12
		perG       = 10
	)
	w := workload(t, 6)
	spec := Spec{Graph: w.Graph, Platform: w.Platform}
	rec := NewRecorder(false)
	slow := Dispatcher{Name: "time-driven", Run: func(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, _ *sched.Scratch) (*sched.Schedule, error) {
		time.Sleep(100 * time.Microsecond) // widen the race window
		return sched.Dispatch(g, p, asg)
	}}
	cache := NewCache(8)

	var survivors, served atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g)))
			b := &Builder{Dispatcher: slow, Cache: cache, Recorder: rec}
			for i := 0; i < perG; i++ {
				if g%2 == 0 {
					// Survivor lane: must always be served.
					survivors.Add(1)
					if plan, err := b.Build(spec); err != nil || plan.Schedule == nil {
						t.Errorf("survivor %d/%d: %v", g, i, err)
						return
					}
					served.Add(1)
					continue
				}
				// Chaos lane: canceled at a random point mid-build, exactly
				// like a hedge race loser or a drained peer's proxy.
				ctx, cancel := context.WithCancel(context.Background())
				timer := time.AfterFunc(time.Duration(rnd.Intn(300))*time.Microsecond, cancel)
				plan, err := b.BuildContext(ctx, spec)
				timer.Stop()
				cancel()
				switch {
				case err == nil:
					if plan.Schedule == nil {
						t.Errorf("chaos %d/%d: plan without schedule", g, i)
						return
					}
				case errors.Is(err, context.Canceled):
					// Its own cancellation; never someone else's error.
				default:
					t.Errorf("chaos %d/%d: unexpected error %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if survivors.Load() != served.Load() {
		t.Fatalf("served %d of %d survivor builds", served.Load(), survivors.Load())
	}
	s := rec.Summary()
	if s.Errors != 0 {
		t.Fatalf("cancel storm surfaced stage errors: %+v", s)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d plans, want 1", cache.Len())
	}
	// The storm settled: one more build is a plain hit, no rebuild.
	before := s.Builds
	b := &Builder{Dispatcher: slow, Cache: cache, Recorder: rec}
	if _, err := b.Build(spec); err != nil {
		t.Fatal(err)
	}
	if after := rec.Summary(); after.Builds != before || after.Hits != s.Hits+1 {
		t.Fatalf("post-storm build not a pure cache hit: before %+v after %+v", s, after)
	}
}

// TestBuildConcurrentStress drives many goroutines through one shared
// small cache with a mix of distinct keys, repeats, and overlapping
// builds. Run under -race it checks the sharded cache and the flight
// table; the accounting identity checks no request was double-served:
// every Build ends as exactly one cold build, cache hit, or coalesced
// wait.
func TestBuildConcurrentStress(t *testing.T) {
	const (
		goroutines = 16
		perG       = 30
		seeds      = 5
	)
	specs := make([]Spec, seeds)
	for i := range specs {
		w := workload(t, int64(10+i))
		specs[i] = Spec{Graph: w.Graph, Platform: w.Platform}
	}
	rec := NewRecorder(false)
	// Capacity below the working set would still be correct, but evicted
	// keys rebuild, breaking the Builds ≤ seeds check; keep them all.
	cache := NewCache(64)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b := &Builder{Cache: cache, Recorder: rec}
			for i := 0; i < perG; i++ {
				plan, err := b.Build(specs[(g+i)%seeds])
				if err != nil {
					t.Errorf("goroutine %d build %d: %v", g, i, err)
					return
				}
				if plan.Schedule == nil {
					t.Errorf("goroutine %d build %d: plan without schedule", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := rec.Summary()
	total := s.Builds + s.Hits + s.Coalesced
	if total != goroutines*perG {
		t.Fatalf("Builds+Hits+Coalesced = %d, want %d: %+v", total, goroutines*perG, s)
	}
	if s.Builds < seeds {
		t.Fatalf("Builds = %d, want at least one per distinct key (%d)", s.Builds, seeds)
	}
	if s.Errors != 0 || s.Canceled != 0 {
		t.Fatalf("stress run recorded incidents: %+v", s)
	}
	if got := cache.Len(); got != seeds {
		t.Fatalf("cache holds %d plans, want %d", got, seeds)
	}
}
