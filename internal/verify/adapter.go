package verify

import (
	"repro/internal/arch"
	"repro/internal/feas"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
)

// outcome maps an analysis verdict onto the pipeline's verifier
// outcome space.
func outcome(v Verdict) pipeline.VerifyOutcome {
	switch v {
	case Accept:
		return pipeline.VerifyAccepted
	case Reject:
		return pipeline.VerifyRejected
	}
	return pipeline.VerifyInconclusive
}

// AnalyticVerifier is the holistic response-time analysis as a pipeline
// verifier hook: O(fixed-point iterations) instead of O(timeline), and
// conservative — Accepted proves every deadline met under the
// time-driven EDF dispatcher and the nominal bus, Rejected proves a
// miss, anything it cannot prove is Inconclusive (including analysis
// input errors, which are swallowed like FeasVerifier's). It declares
// the time-driven dispatcher, so a Builder refuses to pair it with any
// other; under a serialized-bus replay its Accepted no longer applies
// either.
func AnalyticVerifier() pipeline.Verifier {
	return pipeline.Verifier{
		Name:       "analytic",
		Dispatcher: pipeline.TimeDriven().Name,
		Run: func(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, _ *sched.Schedule, _ *feas.Scratch) (pipeline.VerifyOutcome, error) {
			res, err := Analyze(g, p, asg)
			if err != nil {
				return pipeline.VerifyInconclusive, nil
			}
			return outcome(res.Verdict), nil
		},
	}
}

// ReplayVerifier re-executes the dispatched schedule in the discrete-
// event simulator under the nominal bus model — the ground truth the
// analytic verifier is measured against. It is never inconclusive: the
// schedule either replays validly with every deadline met (Accepted) or
// it does not (Rejected).
func ReplayVerifier() pipeline.Verifier {
	return pipeline.Verifier{
		Name: "replay",
		Run: func(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, s *sched.Schedule, _ *feas.Scratch) (pipeline.VerifyOutcome, error) {
			return replayOutcome(g, p, asg, s), nil
		},
	}
}

// replayOutcome is the replay ground-truth verdict on one schedule.
func replayOutcome(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, s *sched.Schedule) pipeline.VerifyOutcome {
	if s == nil || !s.Feasible {
		return pipeline.VerifyRejected
	}
	rep, err := sim.Replay(g, p, asg, s, sim.Options{})
	if err != nil || !rep.Valid || len(rep.DeadlineMisses) > 0 {
		return pipeline.VerifyRejected
	}
	return pipeline.VerifyAccepted
}

// AnalyticFirstVerifier runs the cheap analysis and falls back to the
// replay simulator only when the analysis proves nothing — the
// verify-before-dispatch fast path: workloads the analysis can decide
// cost O(iterations), the rest keep the replay's exact answer. Its
// Accept may be the analysis's, so it declares the time-driven
// dispatcher as AnalyticVerifier does.
func AnalyticFirstVerifier() pipeline.Verifier {
	return pipeline.Verifier{
		Name:       "analytic-first",
		Dispatcher: pipeline.TimeDriven().Name,
		Run: func(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, s *sched.Schedule, _ *feas.Scratch) (pipeline.VerifyOutcome, error) {
			if res, err := Analyze(g, p, asg); err == nil && res.Verdict != Inconclusive {
				return outcome(res.Verdict), nil
			}
			return replayOutcome(g, p, asg, s), nil
		},
	}
}
