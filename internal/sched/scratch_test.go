package sched

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/arch"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/rtime"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
	"repro/internal/wcet"
)

// referenceDispatch is a frozen copy of the pre-landing-matrix
// dispatcher, which recomputed readiness by rescanning every predecessor
// on every processor probe. The rewritten DispatchScratch must reproduce
// its schedules bit-for-bit; this copy exists only as that oracle.
func referenceDispatch(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, policy Policy) (*Schedule, error) {
	n := g.NumTasks()
	if len(asg.Arrival) != n || len(asg.AbsDeadline) != n {
		return nil, fmt.Errorf("sched: assignment covers %d tasks, graph has %d", len(asg.Arrival), n)
	}
	for i := 0; i < n; i++ {
		if !asg.Arrival[i].IsSet() || !asg.AbsDeadline[i].IsSet() {
			return nil, fmt.Errorf("sched: task %d has an unassigned window", i)
		}
	}

	s := &Schedule{
		Placements:  make([]Placement, n),
		Feasible:    true,
		MaxLateness: -rtime.Infinity,
	}
	for i := range s.Placements {
		s.Placements[i] = Placement{Proc: -1}
	}

	m := p.M()
	procFree := make([]rtime.Time, m)
	resFree := ResourceTable(g)
	done := make([]bool, n)
	placed := 0

	present := p.ClassesPresent()
	minC := make([]rtime.Time, n)
	for i := 0; i < n; i++ {
		minC[i] = rtime.Infinity
		if pin := g.Task(i).Pinned; pin >= 0 {
			if pin < m {
				if c := g.Task(i).WCET[p.ClassOf(pin)]; c.IsSet() {
					minC[i] = c
				}
			}
		} else {
			for k, c := range g.Task(i).WCET {
				if c.IsSet() && k < len(present) && present[k] && c < minC[i] {
					minC[i] = c
				}
			}
		}
		if minC[i] == rtime.Infinity {
			s.Feasible = false
			s.Missed = append(s.Missed, i)
			done[i] = true
			placed++
		}
	}

	readyOn := func(i, q int) rtime.Time {
		t := asg.Arrival[i]
		for _, pr := range g.Preds(i) {
			pl := s.Placements[pr]
			if pl.Proc < 0 {
				if done[pr] {
					continue
				}
				return rtime.Unset
			}
			arrive := pl.Finish + p.CommCost(pl.Proc, q, g.MessageItems(pr, i))
			if arrive > t {
				t = arrive
			}
		}
		for _, res := range g.Task(i).Resources {
			if resFree[res] > t {
				t = resFree[res]
			}
		}
		return t
	}

	now := rtime.Time(0)
	for placed < n {
		for {
			bestTask, bestProc := -1, -1
			var bestFinish rtime.Time
			for i := 0; i < n; i++ {
				if done[i] {
					continue
				}
				task := g.Task(i)
				if bestTask >= 0 {
					ki := policy.key(asg, asg.AbsDeadline, i, now, minC[i])
					kb := policy.key(asg, asg.AbsDeadline, bestTask, now, minC[bestTask])
					if ki > kb || (ki == kb && i > bestTask) {
						continue
					}
				}
				tProc, tFinish := -1, rtime.Time(0)
				for q := 0; q < m; q++ {
					if task.Pinned >= 0 && q != task.Pinned {
						continue
					}
					if procFree[q] > now {
						continue
					}
					class := p.ClassOf(q)
					if !task.EligibleOn(class) {
						continue
					}
					r := readyOn(i, q)
					if !r.IsSet() || r > now {
						continue
					}
					finish := now + task.WCET[class]
					if tProc < 0 || finish < tFinish {
						tProc, tFinish = q, finish
					}
				}
				if tProc >= 0 {
					bestTask, bestProc, bestFinish = i, tProc, tFinish
				}
			}
			if bestTask < 0 {
				break
			}
			s.Placements[bestTask] = Placement{Proc: bestProc, Start: now, Finish: bestFinish}
			procFree[bestProc] = bestFinish
			for _, res := range g.Task(bestTask).Resources {
				resFree[res] = bestFinish
			}
			done[bestTask] = true
			placed++
			s.Order = append(s.Order, bestTask)
			if bestFinish > s.Makespan {
				s.Makespan = bestFinish
			}
			late := bestFinish - asg.AbsDeadline[bestTask]
			if late > s.MaxLateness {
				s.MaxLateness = late
			}
			if late > 0 {
				s.Feasible = false
				s.Missed = append(s.Missed, bestTask)
			}
		}
		if placed == n {
			break
		}

		next := rtime.Infinity
		for q := 0; q < m; q++ {
			if procFree[q] > now && procFree[q] < next {
				next = procFree[q]
			}
		}
		for i := 0; i < n; i++ {
			if done[i] {
				continue
			}
			for q := 0; q < m; q++ {
				if g.Task(i).Pinned >= 0 && q != g.Task(i).Pinned {
					continue
				}
				if !g.Task(i).EligibleOn(p.ClassOf(q)) {
					continue
				}
				r := readyOn(i, q)
				if r.IsSet() && r > now && r < next {
					next = r
				}
			}
		}
		if next == rtime.Infinity {
			for i := 0; i < n; i++ {
				if !done[i] {
					done[i] = true
					placed++
					s.Feasible = false
					s.Missed = append(s.Missed, i)
				}
			}
			break
		}
		now = next
	}
	sort.Ints(s.Missed)
	return s, nil
}

// scratchConfigs returns generator setups covering the dispatcher's
// structural corners: the plain paper workload, exclusive resources, and
// pinned input/output tasks with occasional ineligibility.
func scratchConfigs() []gen.Config {
	plain := gen.Default(3)
	res := gen.Default(4)
	res.NumResources = 3
	res.ResourceProb = 0.4
	pinned := gen.Default(5)
	pinned.PinProb = 0.3
	pinned.IneligibleProb = 0.2
	return []gen.Config{plain, res, pinned}
}

// The landing-matrix dispatcher — with and without a reused scratch —
// must be schedule-identical to the frozen predecessor-rescan oracle on
// every workload and policy.
func TestDispatchScratchMatchesReference(t *testing.T) {
	ws := &Scratch{}
	for ci, cfg := range scratchConfigs() {
		for seed := int64(0); seed < 8; seed++ {
			cfg.Seed = seed
			w := gen.MustGenerate(cfg)
			est, err := wcet.Estimates(w.Graph, w.Platform, wcet.AVG)
			if err != nil {
				t.Fatal(err)
			}
			asg, err := slicing.Distribute(w.Graph, est, cfg.M, slicing.AdaptR(), slicing.CalibratedParams())
			if err != nil {
				t.Fatal(err)
			}
			for _, pol := range Policies {
				want, err1 := referenceDispatch(w.Graph, w.Platform, asg, pol)
				got, err2 := DispatchScratch(w.Graph, w.Platform, asg, pol, ws)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("cfg %d seed %d %v: reference err=%v scratch err=%v", ci, seed, pol, err1, err2)
				}
				if err1 == nil && !reflect.DeepEqual(want, got) {
					t.Fatalf("cfg %d seed %d %v: dispatcher diverged from reference\nref:  %+v\ngot:  %+v",
						ci, seed, pol, want, got)
				}
			}
		}
	}
}

// A faulted, reclaiming run dirties every table it shares with the
// nominal dispatcher: it moves deadlines and arrivals, sets abort gates
// and flags, and leaves dead processors busy. Interleaved on one
// Scratch, each nominal run must still equal the frozen reference, and
// each faulted run must equal the same run on a fresh Scratch.
func TestFaultedRunsLeaveScratchReusable(t *testing.T) {
	ws := &Scratch{}
	var aborted, migrations, reclamations int
	for ci, cfg := range scratchConfigs() {
		cfg.OLR = 0.55 // the margins study's laxity, tight enough to miss
		for seed := int64(0); seed < 8; seed++ {
			cfg.Seed = seed
			w := gen.MustGenerate(cfg)
			est, err := wcet.Estimates(w.Graph, w.Platform, wcet.AVG)
			if err != nil {
				t.Fatal(err)
			}
			asg, err := slicing.Distribute(w.Graph, est, cfg.M, slicing.AdaptR(), slicing.CalibratedParams())
			if err != nil {
				t.Fatal(err)
			}
			var span rtime.Time
			for _, o := range w.Graph.Outputs() {
				span = max(span, w.Graph.Task(o).ETEDeadline)
			}
			tr, err := faults.Scaled(1, seed).Materialize(w.Graph, w.Platform, span)
			if err != nil {
				t.Fatal(err)
			}
			fresh, freshRun, err := Execute(w.Graph, w.Platform, asg, tr, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			aborted += freshRun.Aborted
			migrations += freshRun.Migrations
			reclamations += freshRun.Reclamations
			for _, pol := range Policies {
				got, gotRun, err := Execute(w.Graph, w.Platform, asg, tr, true, ws)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fresh, got) || !reflect.DeepEqual(freshRun, gotRun) {
					t.Fatalf("cfg %d seed %d: faulted run on a reused scratch diverged\nfresh: %+v %+v\nreused: %+v %+v",
						ci, seed, fresh, freshRun, got, gotRun)
				}

				want, err1 := referenceDispatch(w.Graph, w.Platform, asg, pol)
				got, err2 := DispatchScratch(w.Graph, w.Platform, asg, pol, ws)
				if err1 != nil || err2 != nil {
					t.Fatalf("cfg %d seed %d %v: nominal run: %v / %v", ci, seed, pol, err1, err2)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("cfg %d seed %d %v: nominal run after a faulted one diverged from reference\nref:  %+v\ngot:  %+v",
						ci, seed, pol, want, got)
				}
			}
		}
	}
	if aborted == 0 || migrations == 0 || reclamations == 0 {
		t.Errorf("corpus left a fault path unexercised: %d aborts, %d migrations, %d reclamations",
			aborted, migrations, reclamations)
	}

	// A task aborted on its only processor never completes, so its
	// abort flag outlives the run; completing it in the next run on the
	// same scratch is no migration.
	g := taskgraph.NewGraph(1)
	g.MustAddTask("a", []rtime.Time{10}, 0)
	g.Task(0).ETEDeadline = 40
	g.MustFreeze()
	p := arch.Homogeneous(1)
	asg, err := slicing.Distribute(g, []rtime.Time{10}, 1, slicing.PURE(), slicing.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	lost := faults.ZeroTrace(1, 1)
	lost.DownAt[0] = 5
	if s, run, err := Execute(g, p, asg, lost, false, ws); err != nil || run.Aborted != 1 || s.Placements[0].Proc >= 0 {
		t.Fatalf("lost processor: %+v %+v %v, want task 0 aborted and unplaced", s, run, err)
	}
	if _, run, err := Execute(g, p, asg, faults.ZeroTrace(1, 1), false, ws); err != nil || run.Migrations != 0 {
		t.Errorf("run after a stranded abort: %+v %v, want no migration", run, err)
	}
}

// EDF and InsertEDF over a reused scratch must match their
// fresh-allocation runs on every workload.
func TestListSchedulersScratchReuse(t *testing.T) {
	ws := &Scratch{}
	for ci, cfg := range scratchConfigs() {
		for seed := int64(20); seed < 26; seed++ {
			cfg.Seed = seed
			w := gen.MustGenerate(cfg)
			est, err := wcet.Estimates(w.Graph, w.Platform, wcet.AVG)
			if err != nil {
				t.Fatal(err)
			}
			asg, err := slicing.Distribute(w.Graph, est, cfg.M, slicing.AdaptR(), slicing.CalibratedParams())
			if err != nil {
				t.Fatal(err)
			}

			want, err1 := EDF(w.Graph, w.Platform, asg)
			got, err2 := EDFScratch(w.Graph, w.Platform, asg, ws)
			if (err1 == nil) != (err2 == nil) || (err1 == nil && !reflect.DeepEqual(want, got)) {
				t.Fatalf("cfg %d seed %d: EDFScratch diverged (err %v vs %v)", ci, seed, err1, err2)
			}

			want, err1 = InsertEDF(w.Graph, w.Platform, asg)
			got, err2 = InsertEDFScratch(w.Graph, w.Platform, asg, ws)
			if (err1 == nil) != (err2 == nil) || (err1 == nil && !reflect.DeepEqual(want, got)) {
				t.Fatalf("cfg %d seed %d: InsertEDFScratch diverged (err %v vs %v)", ci, seed, err1, err2)
			}
		}
	}
}
