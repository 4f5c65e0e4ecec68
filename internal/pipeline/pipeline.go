// Package pipeline is the single, instrumented implementation of the
// planning sequence every layer of this repository used to hand-roll:
//
//	estimate (wcet) → slice (deadline distribution) → dispatch (sched)
//	→ verdict (feasibility + secondary measures)
//
// A Builder bundles one configuration of the four stages as named,
// pluggable hooks; Build executes them on a workload Spec and returns an
// immutable Plan artifact carrying every stage product (estimates,
// assignment, schedule, verdict) plus per-stage wall-time and allocation
// counters. Because a Plan is a pure function of (workload fingerprint,
// estimates, distributor, dispatcher, verifier), Builds can be memoized:
// an optional LRU Cache keyed by exactly that tuple lets re-slicing
// loops, breakdown bisection, degradation mode ladders, and multi-cell
// sweeps stop re-planning identical inputs. An optional Recorder
// aggregates stage statistics across builds (the `sweep -stats` view).
//
// Builds draw their transient working memory from a pooled
// BuildScratch, so the cold path's allocations are essentially the
// Plan itself; scratch never aliases into a Plan. The re-slice
// correction loop, which re-plans one graph under corrected estimates,
// uses a Replanner (Builder.NewReplanner) whose Rebuild applies a
// replacement estimate vector to a previous Plan. A rebuild is a build
// with the previous plan's workload fingerprint carried over and the
// estimator skipped, and its Plan is byte-identical to a cold Build.
// See DESIGN.md §11 for the memory model and the delta contract.
//
// The experiment harness, the robustness instruments (robust), the
// degradation study, the annealing search, and the cmd front-ends all
// consume this package for whole builds; none of them pair
// slicing.Distribute with sched.Dispatch directly anymore, so
// cross-cutting work — timing, counters, caching, new verdict measures
// — is wired exactly once, here.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/deadline"
	"repro/internal/feas"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
	"repro/internal/wcet"
)

// Spec is one planning request: the workload, plus optionally
// pre-computed WCET estimates that bypass the estimator stage (the
// re-slicing feedback loop feeds corrected estimates this way).
type Spec struct {
	Graph    *taskgraph.Graph
	Platform *arch.Platform
	// Estimates, when non-nil, are used verbatim and the estimator
	// stage is skipped. The slice is copied into the Plan, never
	// aliased.
	Estimates []rtime.Time
}

// Estimator is the named first-stage hook: per-task WCET estimates from
// the workload. The zero value makes Build fall back to the paper's
// WCET-AVG strategy.
type Estimator struct {
	Name string
	Run  func(g *taskgraph.Graph, p *arch.Platform) ([]rtime.Time, error)
}

// StrategyEstimator adapts a wcet.Strategy (§5.3) to the estimator hook.
func StrategyEstimator(s wcet.Strategy) Estimator {
	return Estimator{Name: s.String(), Run: func(g *taskgraph.Graph, p *arch.Platform) ([]rtime.Time, error) {
		return wcet.Estimates(g, p, s)
	}}
}

// Dispatcher is the named third-stage hook: a window assignment into a
// concrete schedule. The zero value makes Build fall back to TimeDriven.
// Run draws working memory from ws (nil allocates internally) and never
// aliases it into the schedule.
type Dispatcher struct {
	Name string
	Run  func(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, ws *sched.Scratch) (*sched.Schedule, error)
}

// TimeDriven is the paper's non-preemptive time-driven EDF dispatcher.
func TimeDriven() Dispatcher {
	return Dispatcher{
		Name: "time-driven",
		Run: func(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, ws *sched.Scratch) (*sched.Schedule, error) {
			return sched.DispatchScratch(g, p, asg, sched.EDFPolicy, ws)
		},
	}
}

// Planner is the offline greedy EDF list scheduler with per-processor
// reservation.
func Planner() Dispatcher {
	return Dispatcher{Name: "planner", Run: sched.EDFScratch}
}

// Insertion is the insertion-based (backfilling) offline EDF variant.
func Insertion() Dispatcher {
	return Dispatcher{Name: "insertion", Run: sched.InsertEDFScratch}
}

// Preemptive is the global preemptive EDF dispatcher with migration.
// The Plan records its embedded non-preemptive verdict view (feasibility,
// lateness, placements); callers needing the slice-level detail run
// sched.DispatchPreemptive directly. It takes no scratch.
func Preemptive() Dispatcher {
	return Dispatcher{Name: "preemptive", Run: func(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, _ *sched.Scratch) (*sched.Schedule, error) {
		ps, err := sched.DispatchPreemptive(g, p, asg)
		if err != nil {
			return nil, err
		}
		return &ps.Schedule, nil
	}}
}

// WithPolicy is the time-driven dispatcher under an alternative
// ready-task policy (§7.3's policy axis).
func WithPolicy(pol sched.Policy) Dispatcher {
	return Dispatcher{
		Name: "policy:" + pol.String(),
		Run: func(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, ws *sched.Scratch) (*sched.Schedule, error) {
			return sched.DispatchScratch(g, p, asg, pol, ws)
		},
	}
}

// VerifyOutcome is the verifier stage's three-valued verdict. Verifiers
// are proof procedures, not heuristics: Accepted means every deadline is
// proven met, Rejected means at least one deadline is proven missed, and
// Inconclusive means the verifier could prove neither (the assignment
// may still schedule fine — only a replay can tell).
type VerifyOutcome int

const (
	// VerifyNone: no verifier ran on this plan.
	VerifyNone VerifyOutcome = iota
	// VerifyAccepted: the verifier proved every deadline met.
	VerifyAccepted
	// VerifyRejected: the verifier proved the plan unschedulable.
	VerifyRejected
	// VerifyInconclusive: the verifier could not decide either way.
	VerifyInconclusive
)

// String implements fmt.Stringer.
func (o VerifyOutcome) String() string {
	switch o {
	case VerifyNone:
		return "none"
	case VerifyAccepted:
		return "accepted"
	case VerifyRejected:
		return "rejected"
	case VerifyInconclusive:
		return "inconclusive"
	}
	return fmt.Sprintf("VerifyOutcome(%d)", int(o))
}

// Verifier is the named optional fourth-stage hook: an independent
// schedulability verdict on the assignment. It runs after dispatch, so
// replay-style verifiers get the concrete schedule; analytic verifiers
// may ignore it. The zero value skips the stage. Run may draw working
// memory from sc and must accept nil.
type Verifier struct {
	Name string
	Run  func(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, s *sched.Schedule, sc *feas.Scratch) (VerifyOutcome, error)
}

// FeasVerifier runs the fast necessary feasibility conditions; a
// Rejected verdict proves the assignment unschedulable by every
// scheduler (the failure is the metric's fault, not the dispatcher's).
// Passing the conditions proves nothing, so the positive outcome is
// Inconclusive, never Accepted. Condition-check errors are swallowed —
// an uncheckable assignment is simply not provably infeasible.
func FeasVerifier() Verifier {
	return Verifier{
		Name: "feas",
		Run: func(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, _ *sched.Schedule, sc *feas.Scratch) (VerifyOutcome, error) {
			bad, err := feas.InfeasibleScratch(g, p, asg, sc)
			if err == nil && bad {
				return VerifyRejected, nil
			}
			return VerifyInconclusive, nil
		},
	}
}

// Shared bundles the cross-run pipeline state callers may thread through
// study configurations: the plan cache and the instrumentation recorder.
// Both are safe for concurrent use; the zero value plans uncached and
// unrecorded.
type Shared struct {
	Cache    *Cache
	Recorder *Recorder
}

// Builder bundles one configuration of the pipeline stages. The zero
// value is usable: WCET-AVG estimates, ADAPT-L slicing with calibrated
// parameters, the time-driven dispatcher, no extra verifier, no cache.
// A Builder is immutable after first use and safe for concurrent Build
// calls.
type Builder struct {
	Estimator   Estimator
	Distributor deadline.Distributor
	Dispatcher  Dispatcher
	Verifier    Verifier
	// Cache, when non-nil, memoizes Plans by Key. Plans are immutable,
	// so sharing one cache across goroutines and studies is safe; a
	// custom Distributor whose behavior is not fully captured by its
	// Name() (e.g. the annealing search's per-candidate virtual costs)
	// must not share a cache.
	Cache *Cache
	// Recorder, when non-nil, accumulates per-stage statistics and
	// cache hit/miss counts across builds.
	Recorder *Recorder
	// Quality tags every Plan this builder produces (see Quality). The
	// zero value is QualityFull. A degraded builder's cheapened
	// configuration is already part of the cache key (distributor,
	// dispatcher, verifier names), so the tag never has to be — it only
	// rides along so consumers can tell a substitute plan from the real
	// thing.
	Quality Quality
}

// Verdict is the schedulability outcome of a Plan, folding the primary
// success measure and the paper's secondary quality measures (§4.2).
type Verdict struct {
	// Feasible reports that the schedule met every assigned deadline.
	Feasible bool
	// OverConstrained reports that slicing produced an empty window —
	// a guaranteed failure.
	OverConstrained bool
	// ProvablyInfeasible reports that the verifier proved the plan
	// unschedulable (false when no verifier ran); it is Proof ==
	// VerifyRejected, kept as a field for wire and API compatibility.
	ProvablyInfeasible bool
	// Proof is the verifier's full three-valued outcome (VerifyNone when
	// no verifier ran). VerifyAccepted is a proof that every deadline is
	// met — the analytic fast path's positive certificate.
	Proof VerifyOutcome
	// MaxLateness is max(fᵢ − Dᵢ) over placed tasks.
	MaxLateness rtime.Time
	// MinLaxity is the minimum task laxity of the assignment.
	MinLaxity rtime.Time
}

// StageStats instruments one stage execution of one Build.
type StageStats struct {
	// Wall is the stage's wall-clock time.
	Wall time.Duration
	// Allocs and Bytes are the process-wide heap allocation deltas
	// across the stage, filled only when the Builder's Recorder counts
	// allocations (they include concurrent goroutines' allocations, so
	// they are exact in single-threaded profiling runs and indicative
	// under a worker pool).
	Allocs uint64
	Bytes  uint64
}

// PlanStats carries the per-stage instrumentation of one Build.
type PlanStats struct {
	Estimate StageStats
	Slice    StageStats
	Dispatch StageStats
	Verify   StageStats
}

// Total returns the summed wall time of all stages.
func (s PlanStats) Total() time.Duration {
	return s.Estimate.Wall + s.Slice.Wall + s.Dispatch.Wall + s.Verify.Wall
}

// Quality tags how a Plan was built relative to the full-fidelity
// pipeline configuration. The serving layer's brownout ladder builds
// cheap substitute plans under overload; tagging the artifact itself
// lets caches, snapshots, and fleet fills carry the distinction along
// with the plan instead of losing it at the first process boundary.
type Quality int

const (
	// QualityFull is the default: the plan was built with the
	// configuration the caller asked for.
	QualityFull Quality = iota
	// QualityDegraded marks a plan built through a deliberately cheaper
	// configuration (e.g. the brownout ladder's NORM-metric substitute
	// for an ADAPT-L request).
	QualityDegraded
)

// String implements fmt.Stringer.
func (q Quality) String() string {
	switch q {
	case QualityFull:
		return "full"
	case QualityDegraded:
		return "degraded"
	}
	return fmt.Sprintf("Quality(%d)", int(q))
}

// Plan is the immutable artifact of one pipeline execution. Cached
// plans are shared across goroutines — consumers must not mutate any
// field or pointee.
type Plan struct {
	// Key identifies the plan: workload fingerprint, estimate hash, and
	// the named stage configuration.
	Key Key
	// Graph and Platform are the planned workload.
	Graph    *taskgraph.Graph
	Platform *arch.Platform
	// Estimates are the resolved per-task WCET estimates c̄.
	Estimates []rtime.Time
	// Assignment is the window assignment the distributor produced.
	Assignment *slicing.Assignment
	// Schedule is the dispatcher's schedule.
	Schedule *sched.Schedule
	// Verdict folds the schedulability outcome.
	Verdict Verdict
	// Quality records whether the build ran the caller's full
	// configuration or a deliberately cheapened one (see Quality).
	Quality Quality
	// Stats instruments the build that produced this plan (a cache hit
	// returns the original build's stats).
	Stats PlanStats
}

func (b *Builder) estimator() Estimator {
	if b.Estimator.Run == nil {
		return StrategyEstimator(wcet.AVG)
	}
	return b.Estimator
}

func (b *Builder) distributor() deadline.Distributor {
	if b.Distributor == nil {
		return deadline.Sliced{Metric: slicing.AdaptL(), Params: slicing.CalibratedParams()}
	}
	return b.Distributor
}

func (b *Builder) dispatcher() Dispatcher {
	if b.Dispatcher.Run == nil {
		return TimeDriven()
	}
	return b.Dispatcher
}

// Build executes the pipeline on one workload and returns its Plan,
// consulting the cache first when one is configured. Stage errors
// propagate unwrapped (and uncached), exactly as the hand-rolled call
// sequences did. Build never gives up early: it is BuildContext under
// the background context.
func (b *Builder) Build(spec Spec) (*Plan, error) {
	return b.BuildContext(context.Background(), spec)
}

// BuildContext is Build under a cancellation context. The stages
// themselves are uninterruptible CPU-bound routines, so cancellation is
// cooperative: the context is checked at every stage boundary, and a
// done context ends the build with ctx.Err() before the next stage
// starts. Canceled builds are never cached and count in the Recorder's
// Canceled column, not as errors.
//
// With a configured Cache, concurrent Builds of one Key coalesce:
// exactly one executes the stages while the others wait for its plan
// (or give up when their own context is done first). A waiter whose
// leader was itself canceled retries — the next round either finds the
// plan another builder finished, or becomes the leader.
func (b *Builder) BuildContext(ctx context.Context, spec Spec) (*Plan, error) {
	if spec.Graph == nil || spec.Platform == nil {
		return nil, fmt.Errorf("pipeline: Spec needs a graph and a platform")
	}
	if err := b.stageGate(ctx); err != nil {
		return nil, err
	}
	var stats PlanStats
	countAllocs := b.Recorder.countsAllocs()

	// Stage 1: estimate. Always executed (it is O(n) and its output is
	// part of the cache key), unless the spec supplies estimates.
	var est []rtime.Time
	if spec.Estimates != nil {
		est = append([]rtime.Time(nil), spec.Estimates...)
	} else {
		probe := beginStage(countAllocs)
		var err error
		est, err = b.estimator().Run(spec.Graph, spec.Platform)
		stats.Estimate = probe.end()
		if err != nil {
			b.Recorder.recordError()
			return nil, err
		}
	}

	dist := b.distributor()
	key := b.key(Fingerprint(spec.Graph, spec.Platform), hashTimes(est), dist)
	plan, _, err := b.buildKeyed(ctx, spec, dist, key, est, stats)
	return plan, err
}

// buildKeyed is the shared back half of BuildContext and Rebuild: the
// key is already computed, the estimates resolved. It consults the
// cache (coalescing concurrent builds of one key) and otherwise runs the
// cold stages. The returned hit flag reports a plan served from cache
// residency (coalesced waiters report false: they paid the wait, not
// nothing).
func (b *Builder) buildKeyed(ctx context.Context, spec Spec, dist deadline.Distributor,
	key Key, est []rtime.Time, stats PlanStats) (*Plan, bool, error) {

	if b.Cache == nil {
		plan, err := b.buildCold(ctx, spec, dist, key, est, stats)
		return plan, false, err
	}
	for {
		plan, f, leader := b.Cache.acquire(key)
		switch {
		case plan != nil:
			b.Recorder.recordHit()
			return plan, true, nil
		case leader:
			plan, err := b.buildLeader(ctx, spec, dist, key, est, stats, f)
			return plan, false, err
		}
		// Another build of this key is in flight: wait for its plan
		// instead of duplicating the work.
		b.Recorder.recordCoalesced()
		select {
		case <-f.done:
			if f.err != nil {
				if isCancellation(f.err) {
					// The leader's *request* died, not the build; this
					// request is still live, so try again.
					continue
				}
				return nil, false, f.err
			}
			return f.plan, false, nil
		case <-ctx.Done():
			b.Recorder.recordCanceled()
			return nil, false, ctx.Err()
		}
	}
}

// Probe computes spec's cache key under this builder's configuration —
// running the estimator stage when the spec carries no estimates — and
// consults the cache without ever building. It returns the resident
// plan (nil on a miss, or when the builder has no cache) alongside the
// key, so a caller refusing cold work under overload can answer from
// residency alone. Probe is a pure lookup: it records neither hits nor
// builds in the Recorder and never joins an in-flight build.
func (b *Builder) Probe(spec Spec) (*Plan, Key, error) {
	if spec.Graph == nil || spec.Platform == nil {
		return nil, Key{}, fmt.Errorf("pipeline: Spec needs a graph and a platform")
	}
	est := spec.Estimates
	if est == nil {
		var err error
		est, err = b.estimator().Run(spec.Graph, spec.Platform)
		if err != nil {
			return nil, Key{}, err
		}
	}
	key := b.key(Fingerprint(spec.Graph, spec.Platform), hashTimes(est), b.distributor())
	if b.Cache == nil {
		return nil, key, nil
	}
	plan, ok := b.Cache.Lookup(key)
	if !ok {
		return nil, key, nil
	}
	return plan, key, nil
}

// buildLeader runs the cold build as the owner of an in-flight entry,
// guaranteeing the flight resolves even when a stage panics (the panic
// itself propagates on, preserving the worker pool's panic isolation).
func (b *Builder) buildLeader(ctx context.Context, spec Spec, dist deadline.Distributor,
	key Key, est []rtime.Time, stats PlanStats, f *flight) (plan *Plan, err error) {

	completed := false
	defer func() {
		if !completed {
			b.Cache.complete(key, f, nil, fmt.Errorf("pipeline: build of %v panicked", key.Distributor))
		}
	}()
	plan, err = b.buildCold(ctx, spec, dist, key, est, stats)
	completed = true
	b.Cache.complete(key, f, plan, err)
	return plan, err
}

// buildCold executes the slice, dispatch, and verify stages over a
// pooled BuildScratch; the estimate stage already ran (its hash is part
// of key). The plan is not inserted into the cache here — with a cache,
// buildLeader publishes it through the flight so waiters and the LRU
// table update atomically.
func (b *Builder) buildCold(ctx context.Context, spec Spec, dist deadline.Distributor,
	key Key, est []rtime.Time, stats PlanStats) (*Plan, error) {

	countAllocs := b.Recorder.countsAllocs()
	sc := getScratch()
	defer putScratch(sc)

	// Stage 2: slice.
	if err := b.stageGate(ctx); err != nil {
		return nil, err
	}
	probe := beginStage(countAllocs)
	var asg *slicing.Assignment
	var err error
	if wd, ok := dist.(deadline.WorkspaceDistributor); ok {
		asg, err = wd.DistributeWith(sc.Slicing, spec.Graph, est, spec.Platform.M())
	} else {
		asg, err = dist.Distribute(spec.Graph, est, spec.Platform.M())
	}
	stats.Slice = probe.end()
	if err != nil {
		b.Recorder.recordError()
		return nil, err
	}

	// Stage 3: dispatch.
	if err := b.stageGate(ctx); err != nil {
		return nil, err
	}
	probe = beginStage(countAllocs)
	s, err := b.dispatcher().Run(spec.Graph, spec.Platform, asg, sc.Sched)
	stats.Dispatch = probe.end()
	if err != nil {
		b.Recorder.recordError()
		return nil, err
	}

	// Stage 4: verdict (+ optional verifier).
	verdict := Verdict{
		Feasible:        s.Feasible,
		OverConstrained: asg.OverConstrained,
		MaxLateness:     s.MaxLateness,
		MinLaxity:       asg.MinLaxity(est),
	}
	if b.Verifier.Run != nil {
		if err := b.stageGate(ctx); err != nil {
			return nil, err
		}
		probe = beginStage(countAllocs)
		outcome, err := b.Verifier.Run(spec.Graph, spec.Platform, asg, s, sc.Feas)
		stats.Verify = probe.end()
		if err != nil {
			b.Recorder.recordError()
			return nil, err
		}
		verdict.Proof = outcome
		verdict.ProvablyInfeasible = outcome == VerifyRejected
	}

	plan := &Plan{
		Key:        key,
		Graph:      spec.Graph,
		Platform:   spec.Platform,
		Estimates:  est,
		Assignment: asg,
		Schedule:   s,
		Verdict:    verdict,
		Quality:    b.Quality,
		Stats:      stats,
	}
	b.Recorder.recordBuild(stats)
	return plan, nil
}

// stageGate is the cooperative cancellation check between stages.
func (b *Builder) stageGate(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		b.Recorder.recordCanceled()
		return err
	}
	return nil
}

// isCancellation reports whether err is a context cancellation rather
// than a genuine stage failure.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// key is the cache key of a build, through dist and this builder's
// dispatcher and verifier, of the workload fingerprinted as workload
// with estimates hashing to estimates. A Sliced distributor adds its
// adaptive parameters to its name: two with the same metric but
// different k factors must never share a plan.
func (b *Builder) key(workload, estimates uint64, dist deadline.Distributor) Key {
	k := Key{
		Workload:    workload,
		Estimates:   estimates,
		Distributor: dist.Name(),
		Dispatcher:  b.dispatcher().Name,
		Verifier:    b.Verifier.Name,
	}
	if s, ok := dist.(deadline.Sliced); ok {
		k.Params = s.Params
	}
	return k
}
