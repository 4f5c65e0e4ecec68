package verify_test

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/pipeline"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/verify"
)

// The conservativeness contract (DESIGN.md §12): the analytic verifier
// never accepts a plan the replay simulator rejects, and never rejects
// a plan the replay accepts. These property tests are the empirical
// arbiter of that contract over seeded random corpora; `make check`
// runs them, and any disagreement is a soundness bug in the analysis.

// replayAccepts is the ground truth: the dispatched schedule replays
// validly with every deadline met under the nominal bus model.
func replayAccepts(t *testing.T, plan *pipeline.Plan) bool {
	t.Helper()
	if !plan.Schedule.Feasible {
		return false
	}
	rep, err := sim.Replay(plan.Graph, plan.Platform, plan.Assignment, plan.Schedule, sim.Options{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return rep.Valid && len(rep.DeadlineMisses) == 0
}

func TestAnalyticConservativeSingleShot(t *testing.T) {
	const master = int64(0x5EED5EED)
	olrs := []float64{0.5, 0.8, 1.2, 2.0, 4.0}
	graphs := 80
	if testing.Short() {
		graphs = 20
	}
	accepts, rejects, inconclusive := 0, 0, 0
	b := &pipeline.Builder{} // defaults: WCET-AVG, ADAPT-L, time-driven EDF
	for idx := 0; idx < graphs; idx++ {
		cfg := gen.Default(2 + idx%7)
		cfg.Seed = gen.SubSeed(master, idx)
		cfg.OLR = olrs[idx%len(olrs)]
		if idx%3 == 1 {
			cfg.PinProb = 0.3
		}
		w := gen.MustGenerate(cfg)
		plan, err := b.Build(pipeline.Spec{Graph: w.Graph, Platform: w.Platform})
		if err != nil {
			t.Fatalf("graph %d: build: %v", idx, err)
		}
		res, err := verify.Analyze(w.Graph, w.Platform, plan.Assignment)
		if err != nil {
			t.Fatalf("graph %d: analyze: %v", idx, err)
		}
		ground := replayAccepts(t, plan)
		switch res.Verdict {
		case verify.Accept:
			accepts++
			if !ground {
				t.Fatalf("graph %d (seed %d, olr %v): analytic ACCEPT but replay rejects — unsound",
					idx, cfg.Seed, cfg.OLR)
			}
		case verify.Reject:
			rejects++
			if ground {
				t.Fatalf("graph %d (seed %d, olr %v): analytic REJECT (%s) but replay accepts — unsound",
					idx, cfg.Seed, cfg.OLR, res.Reason)
			}
		default:
			inconclusive++
		}
	}
	t.Logf("single-shot corpus: %d accept / %d reject / %d inconclusive", accepts, rejects, inconclusive)
	if accepts == 0 {
		t.Error("corpus produced no analytic accepts — the fast path never fires; retune the corpus")
	}
}

func TestAnalyticConservativeSporadic(t *testing.T) {
	const master = int64(0x0DDB411)
	graphs := 40
	if testing.Short() {
		graphs = 12
	}
	accepts, inconclusive := 0, 0
	b := &pipeline.Builder{}
	for idx := 0; idx < graphs; idx++ {
		cfg := gen.Default(2 + idx%4)
		cfg.Seed = gen.SubSeed(master, idx)
		cfg.MinTasks, cfg.MaxTasks = 8, 16
		cfg.MinDepth, cfg.MaxDepth = 3, 5
		cfg.OLR = []float64{1.0, 2.0, 4.0}[idx%3]
		w := gen.MustGenerate(cfg)
		plan, err := b.Build(pipeline.Spec{Graph: w.Graph, Platform: w.Platform})
		if err != nil {
			t.Fatalf("graph %d: build: %v", idx, err)
		}
		// Spacing from sparse (releases barely interact) to dense
		// (heavy cross-release interference) relative to the observed
		// makespan, with and without release jitter.
		span := plan.Schedule.Makespan
		if span < 4 {
			span = 4
		}
		gaps := []rtime.Time{span * 2, span, span/2 + 1, span/4 + 1}
		minGap := gaps[idx%len(gaps)]
		jitter := rtime.Time(0)
		if idx%2 == 1 {
			jitter = minGap / 5
		}
		sp := verify.Sporadic{MinGap: minGap, Jitter: jitter}
		res, err := verify.AnalyzeSporadic(w.Graph, w.Platform, plan.Assignment, sp)
		if err != nil {
			t.Fatalf("graph %d: analyze sporadic: %v", idx, err)
		}
		rel := gen.Release{Mode: gen.ReleaseSporadic, Count: 8, MinGap: minGap, Jitter: jitter}
		rep, s, _, err := sim.ReplayReleases(w.Graph, w.Platform, plan.Assignment,
			rel, cfg.Seed, sim.Options{})
		if err != nil {
			t.Fatalf("graph %d: replay releases: %v", idx, err)
		}
		ground := s.Feasible && rep.Valid && len(rep.DeadlineMisses) == 0
		switch res.Verdict {
		case verify.Accept:
			accepts++
			if !ground {
				t.Fatalf("graph %d (seed %d, gap %d, jitter %d): analytic ACCEPT but sporadic replay rejects — unsound",
					idx, cfg.Seed, minGap, jitter)
			}
		case verify.Reject:
			if ground {
				t.Fatalf("graph %d (seed %d, gap %d, jitter %d): analytic REJECT (%s) but sporadic replay accepts — unsound",
					idx, cfg.Seed, minGap, jitter, res.Reason)
			}
		default:
			inconclusive++
		}
	}
	t.Logf("sporadic corpus: %d accept / %d inconclusive of %d", accepts, inconclusive, graphs)
	if accepts == 0 {
		t.Error("sporadic corpus produced no analytic accepts — the fast path never fires; retune the corpus")
	}
}

// The analysis models the time-driven dispatcher, so its Accept says
// nothing about another dispatcher's schedule: on gen.Default(3) at OLR
// 0.7, seed 73, the insertion dispatcher misses a deadline in windows
// the analysis accepts. Both analytic verifiers declare the time-driven
// dispatcher, and every pipeline entry point refuses them under any
// other before a stage runs; the verifiers that read the schedule they
// are given build under every dispatcher.
func TestAnalyticVerifierRefusesOtherDispatchers(t *testing.T) {
	cfg := gen.Default(3)
	cfg.OLR, cfg.Seed = 0.7, 73
	w := gen.MustGenerate(cfg)
	spec := pipeline.Spec{Graph: w.Graph, Platform: w.Platform}

	plain, err := (&pipeline.Builder{Dispatcher: pipeline.Insertion()}).Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := verify.Analyze(w.Graph, w.Platform, plain.Assignment); err != nil ||
		res.Verdict != verify.Accept || plain.Schedule.Feasible {
		t.Fatalf("seed 73 no longer shows the hazard: analysis %v (%v), insertion schedule feasible %v",
			res.Verdict, err, plain.Schedule.Feasible)
	}

	others := []pipeline.Dispatcher{pipeline.Planner(), pipeline.Insertion(), pipeline.Preemptive(),
		pipeline.WithPolicy(sched.LLFPolicy)}
	for _, v := range []pipeline.Verifier{verify.AnalyticVerifier(), verify.AnalyticFirstVerifier()} {
		for _, d := range others {
			b := &pipeline.Builder{Dispatcher: d, Verifier: v}
			if p, err := b.Build(spec); err == nil {
				t.Errorf("%s under %s: built a plan with proof %v", v.Name, d.Name, p.Verdict.Proof)
			}
			if _, _, err := b.Probe(spec); err == nil {
				t.Errorf("%s under %s: Probe accepted the builder", v.Name, d.Name)
			}
			if _, _, err := b.NewReplanner().Rebuild(plain, pipeline.EstimatesDelta(plain.Estimates)); err == nil {
				t.Errorf("%s under %s: Rebuild accepted the builder", v.Name, d.Name)
			}
		}
		for _, d := range []pipeline.Dispatcher{{}, pipeline.TimeDriven()} {
			p, err := (&pipeline.Builder{Dispatcher: d, Verifier: v}).Build(spec)
			if err != nil {
				t.Fatalf("%s under the time-driven dispatcher: %v", v.Name, err)
			}
			if p.Verdict.Proof == pipeline.VerifyAccepted && !p.Schedule.Feasible {
				t.Errorf("%s: accepted an infeasible time-driven schedule", v.Name)
			}
		}
	}
	for _, v := range []pipeline.Verifier{verify.ReplayVerifier(), pipeline.FeasVerifier()} {
		for _, d := range append(others, pipeline.TimeDriven()) {
			if _, err := (&pipeline.Builder{Dispatcher: d, Verifier: v}).Build(spec); err != nil {
				t.Errorf("%s under %s: %v", v.Name, d.Name, err)
			}
		}
	}
}
