// Command schedview runs the full deadline-distribution and scheduling
// pipeline on one workload and renders the outcome: the per-task window
// assignment, a text Gantt chart of the schedule, and the replay
// verdict.
//
// Usage:
//
//	schedview [-metric NAME] [-wcet avg|max|min] [-sched dispatch|planner|insert|preempt]
//	          [-serialbus] [-trace] [-dot file.dot] [file.json]
//
// Without a file argument a random workload is generated (-m, -seed,
// -olr control it).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/arch"
	"repro/internal/feas"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/pipeline"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
	"repro/internal/textplot"
	"repro/internal/trace"
	"repro/internal/wcet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	flag := flag.NewFlagSet("schedview", flag.ContinueOnError)
	flag.SetOutput(stderr)
	fatal := func(err error) {
		fmt.Fprintln(stderr, "schedview:", err)
		code = 1
		panic(errExit)
	}
	defer func() {
		if r := recover(); r != nil && r != errExit {
			panic(r)
		}
	}()
	metricName := flag.String("metric", "ADAPT-L", "critical path metric: PURE, NORM, ADAPT-G, ADAPT-L, ADAPT-R, ADAPT-N")
	wcetName := flag.String("wcet", "avg", "WCET estimation strategy: avg, max, min")
	schedName := flag.String("sched", "dispatch", "scheduler: dispatch, planner, insert, preempt")
	serialBus := flag.Bool("serialbus", false, "verify under a serialized (exclusive) bus")
	showTrace := flag.Bool("trace", false, "print the execution event log")
	showFeas := flag.Bool("feas", false, "run the necessary feasibility conditions on the assignment")
	explain := flag.Bool("explain", false, "print the round-by-round slicing narrative")
	dotFile := flag.String("dot", "", "write the annotated task graph in DOT format to this file")
	svgFile := flag.String("svg", "", "write the schedule as an SVG Gantt chart to this file")
	m := flag.Int("m", 3, "processors when generating a workload")
	seed := flag.Int64("seed", 1, "seed when generating a workload")
	olr := flag.Float64("olr", 0.55, "overall laxity ratio when generating a workload")
	if err := flag.Parse(args); err != nil {
		return 2
	}

	metric, err := slicing.ByName(*metricName)
	if err != nil {
		fatal(err)
	}
	var strat wcet.Strategy
	switch strings.ToLower(*wcetName) {
	case "avg":
		strat = wcet.AVG
	case "max":
		strat = wcet.MAX
	case "min":
		strat = wcet.MIN
	default:
		fatal(fmt.Errorf("unknown WCET strategy %q", *wcetName))
	}

	var (
		g *taskgraph.Graph
		p *arch.Platform
	)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		g, p, err = graphio.ReadWorkload(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if p == nil {
			fatal(fmt.Errorf("%s carries no platform", flag.Arg(0)))
		}
	} else {
		cfg := gen.Default(*m)
		cfg.Seed = *seed
		cfg.OLR = *olr
		w, err := gen.Generate(cfg)
		if err != nil {
			fatal(err)
		}
		g, p = w.Graph, w.Platform
	}

	est, err := wcet.Estimates(g, p, strat)
	if err != nil {
		fatal(err)
	}
	asg, err := slicing.Distribute(g, est, p.M(), metric, slicing.CalibratedParams())
	if err != nil {
		fatal(err)
	}
	var (
		s   *sched.Schedule
		pre *sched.PreemptiveSchedule
	)
	switch *schedName {
	case "dispatch":
		s, err = pipeline.TimeDriven().Run(g, p, asg, nil)
	case "planner":
		s, err = pipeline.Planner().Run(g, p, asg, nil)
	case "insert":
		s, err = pipeline.Insertion().Run(g, p, asg, nil)
	case "preempt":
		// The viewer needs the concrete preemptive schedule (slices,
		// preemption/migration counts), which the generic dispatcher
		// hook flattens away.
		pre, err = sched.DispatchPreemptive(g, p, asg)
		if pre != nil {
			s = &pre.Schedule
		}
	default:
		fatal(fmt.Errorf("unknown scheduler %q", *schedName))
	}
	if err != nil {
		fatal(err)
	}
	rep, err := sim.Replay(g, p, asg, s, sim.Options{SerializedBus: *serialBus})
	if err != nil {
		fatal(err)
	}

	fmt.Fprintf(stdout, "workload: %d tasks, %d arcs, depth %d; %s\n", g.NumTasks(), g.NumArcs(), g.Depth(), p)
	fmt.Fprintf(stdout, "metric %s, %s; %d chains\n\n", metric.Name(), strat, len(asg.Chains))

	fmt.Fprintln(stdout, "task  window           laxity  proc  start  finish  late")
	for i := 0; i < g.NumTasks(); i++ {
		pl := s.Placements[i]
		late := "-"
		if pl.Proc >= 0 {
			late = fmt.Sprintf("%d", pl.Finish-asg.AbsDeadline[i])
		}
		fmt.Fprintf(stdout, "%4d  [%6d,%6d)  %6d  %4d  %5d  %6d  %4s\n",
			i, asg.Arrival[i], asg.AbsDeadline[i], asg.Laxity(i, est), pl.Proc, pl.Start, pl.Finish, late)
	}

	fmt.Fprintf(stdout, "\n%s\n", renderGantt(p, s))
	if s.Feasible {
		fmt.Fprintf(stdout, "FEASIBLE: makespan %d, max lateness %d\n", s.Makespan, s.MaxLateness)
	} else {
		fmt.Fprintf(stdout, "INFEASIBLE: %d tasks missed (max lateness %d): %v\n", len(s.Missed), s.MaxLateness, s.Missed)
	}
	if rep.Valid {
		fmt.Fprintf(stdout, "replay: valid; bus busy %d, utilization %.1f%%\n", rep.BusBusy, 100*rep.Utilization())
	} else if pre != nil {
		fmt.Fprintf(stdout, "replay: %d notes (preemptive slices are not WCET-contiguous; see -trace)\n", len(rep.Violations))
	} else {
		fmt.Fprintf(stdout, "replay: %d violations:\n", len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Fprintln(stdout, "  -", v)
		}
	}
	if pre != nil {
		fmt.Fprintf(stdout, "preemptions: %d, migrations: %d\n", pre.Preemptions, pre.Migrations)
	}

	if *showTrace {
		var log trace.Log
		if pre != nil {
			log = trace.FromPreemptive(g, p, asg, pre)
		} else {
			log = trace.FromSchedule(g, p, asg, s)
		}
		fmt.Fprintf(stdout, "\nevent log (%d events):\n%s", len(log), log)
	}
	if *explain {
		fmt.Fprintln(stdout)
		if err := slicing.Explain(stdout, g, est, asg); err != nil {
			fatal(err)
		}
	}
	if *showFeas {
		violations, err := feas.Check(g, p, asg)
		if err != nil {
			fatal(err)
		}
		if len(violations) == 0 {
			fmt.Fprintln(stdout, "\nfeasibility: no necessary condition violated (assignment may be schedulable)")
		} else {
			fmt.Fprintf(stdout, "\nfeasibility: %d violations — the assignment is provably unschedulable:\n", len(violations))
			for _, v := range violations {
				fmt.Fprintln(stdout, "  -", v)
			}
		}
	}
	if *dotFile != "" {
		f, err := os.Create(*dotFile)
		if err != nil {
			fatal(err)
		}
		err = graphio.WriteDOT(f, g, asg)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *dotFile)
	}
	if *svgFile != "" {
		f, err := os.Create(*svgFile)
		if err != nil {
			fatal(err)
		}
		err = graphio.WriteScheduleSVG(f, g, p, asg, s)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *svgFile)
	}
	return 0
}

// renderGantt converts a schedule into textplot rows.
func renderGantt(p *arch.Platform, s *sched.Schedule) string {
	rows := make([]textplot.GanttRow, p.M())
	for q := range rows {
		rows[q].Label = fmt.Sprintf("p%d(e%d)", q, p.ClassOf(q))
	}
	for i, pl := range s.Placements {
		if pl.Proc >= 0 {
			rows[pl.Proc].Spans = append(rows[pl.Proc].Spans, textplot.GanttSpan{
				ID: i, Start: int64(pl.Start), End: int64(pl.Finish),
			})
		}
	}
	return textplot.Gantt(rows, int64(s.Makespan), 100)
}

// errExit is the sentinel the local fatal helper panics with to unwind
// run() after printing an error.
var errExit = struct{ s string }{"exit"}
