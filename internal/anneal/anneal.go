// Package anneal searches the space the adaptive metrics live in.
//
// Every metric in the paper's family — PURE, ADAPT-G, ADAPT-L, ADAPT-R —
// reduces to one decision: the vector of virtual execution times ĉ fed
// to the slicing algorithm. ADAPT-L computes ĉ from a closed-form
// contention model (eq. 8); this package instead *searches* for a good ĉ
// by simulated annealing (the optimization technique the paper's related
// work [15] applies to scheduling), evaluating each candidate by running
// the actual slicing + dispatch pipeline.
//
// The annealed result is not a practical metric — it costs thousands of
// pipeline evaluations per workload, and it peeks at the scheduler — but
// it upper-bounds what any closed-form virtual-cost rule could achieve,
// which quantifies the remaining headroom above ADAPT-L.
package anneal

import (
	"math"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/deadline"
	"repro/internal/pipeline"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
)

// Options tunes the search.
type Options struct {
	// Iterations bounds the annealing steps (default 400).
	Iterations int
	// Seed drives the proposal randomness.
	Seed int64
	// InitTemp is the initial acceptance temperature in lateness units
	// (default 20).
	InitTemp float64
}

// Result reports the search outcome.
type Result struct {
	// Assignment is the best window assignment found.
	Assignment *slicing.Assignment
	// Schedule is its dispatch outcome.
	Schedule *sched.Schedule
	// Virtual is the ĉ vector that produced it.
	Virtual []rtime.Time
	// Evaluations counts pipeline runs.
	Evaluations int
	// StartCost and BestCost are the objective before and after.
	StartCost, BestCost float64
}

// cost is the annealing objective: missed tasks dominate, max lateness
// breaks ties (so progress continues once feasible).
func cost(s *sched.Schedule) float64 {
	return float64(len(s.Missed))*1000 + float64(s.MaxLateness)
}

// Search anneals the virtual-cost vector for one workload, starting
// from ADAPT-L's closed-form choice.
func Search(g *taskgraph.Graph, p *arch.Platform, est []rtime.Time, params slicing.Params, opt Options) (*Result, error) {
	if opt.Iterations <= 0 {
		opt.Iterations = 400
	}
	if opt.InitTemp <= 0 {
		opt.InitTemp = 20
	}
	rng := rand.New(rand.NewSource(opt.Seed))

	// Seed the search at ADAPT-L's virtual costs.
	env := &slicing.Env{G: g, Est: est, M: p.M(), Params: params}
	cur := slicing.AdaptL().VirtualCosts(env)

	evaluate := func(vc []rtime.Time) (*slicing.Assignment, *sched.Schedule, float64, error) {
		// A fresh uncached builder per candidate: the metric's identity
		// is the ĉ vector, which its stage name cannot capture, so cached
		// plans would alias across candidates.
		b := &pipeline.Builder{
			Distributor: deadline.Sliced{Metric: slicing.Fixed("ANNEAL", vc), Params: params},
		}
		plan, err := b.Build(pipeline.Spec{Graph: g, Platform: p, Estimates: est})
		if err != nil {
			return nil, nil, 0, err
		}
		return plan.Assignment, plan.Schedule, cost(plan.Schedule), nil
	}

	asg, s, curCost, err := evaluate(cur)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Assignment: asg, Schedule: s,
		Virtual:     append([]rtime.Time(nil), cur...),
		Evaluations: 1,
		StartCost:   curCost, BestCost: curCost,
	}
	bestCost := curCost

	n := g.NumTasks()
	for it := 0; it < opt.Iterations; it++ {
		// Proposal: scale one task's virtual cost by a random factor in
		// [0.7, 1.4], never below its estimate.
		cand := append([]rtime.Time(nil), cur...)
		i := rng.Intn(n)
		f := 0.7 + 0.7*rng.Float64()
		v := rtime.Time(math.Round(float64(cand[i]) * f))
		if v < est[i] {
			v = est[i]
		}
		if v == cand[i] {
			v++
		}
		cand[i] = v

		candAsg, candSched, candCost, err := evaluate(cand)
		if err != nil {
			return nil, err
		}
		res.Evaluations++

		temp := opt.InitTemp * (1 - float64(it)/float64(opt.Iterations))
		accept := candCost <= curCost
		if !accept && temp > 0 {
			accept = rng.Float64() < math.Exp((curCost-candCost)/temp)
		}
		if accept {
			cur, curCost = cand, candCost
			if candCost < bestCost {
				bestCost = candCost
				res.Assignment = candAsg
				res.Schedule = candSched
				res.Virtual = append([]rtime.Time(nil), cand...)
				res.BestCost = candCost
				if candSched.Feasible && candSched.MaxLateness < -30 {
					break // comfortably feasible; stop early
				}
			}
		}
	}
	return res, nil
}
