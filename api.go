package repro

import (
	"context"
	"fmt"
	"io"

	"repro/internal/anneal"
	"repro/internal/arch"
	"repro/internal/deadline"
	"repro/internal/degrade"
	"repro/internal/experiment"
	"repro/internal/faults"
	"repro/internal/feas"
	"repro/internal/gen"
	"repro/internal/optsched"
	"repro/internal/periodic"
	"repro/internal/pipeline"
	"repro/internal/robust"
	"repro/internal/rtime"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
	"repro/internal/trace"
	"repro/internal/wcet"
)

// Core model types.
type (
	// Time is a point or span of discrete system time, in time units.
	Time = rtime.Time
	// Window is a task execution window [Arrival, Deadline).
	Window = rtime.Window
	// Graph is an application task graph (build, then Freeze).
	Graph = taskgraph.Graph
	// Task is one node of a task graph.
	Task = taskgraph.Task
	// Arc is one precedence constraint with an optional message.
	Arc = taskgraph.Arc
	// Platform is the multiprocessor architecture.
	Platform = arch.Platform
	// Class is one processor class e_k ∈ E.
	Class = arch.Class
	// Bus is the shared-bus interconnect model.
	Bus = arch.Bus
	// Network refines the bus with dedicated per-pair links (§3.1's
	// arbitrary topology).
	Network = arch.Network
)

// Deadline distribution types.
type (
	// Metric is a critical-path metric for the slicing technique. The
	// set is closed: the constructors below and MetricByName return the
	// metrics there are, and no type outside the slicing package can
	// implement it, because the slicer's chain search is exact only for
	// the two R rules those metrics follow (PURE's and NORM's).
	Metric = slicing.Metric
	// Params are the adaptive-metric tunables.
	Params = slicing.Params
	// Assignment is a per-task window assignment.
	Assignment = slicing.Assignment
	// Distributor is any deadline-assignment strategy (slicing or the
	// overlapping-window baselines).
	Distributor = deadline.Distributor
	// WCETStrategy selects how per-class WCETs are collapsed into an
	// estimate before assignment is known.
	WCETStrategy = wcet.Strategy
)

// Scheduling and simulation types.
type (
	// Schedule is a non-preemptive multiprocessor schedule.
	Schedule = sched.Schedule
	// Placement is one task's (processor, start, finish).
	Placement = sched.Placement
	// PreemptiveSchedule is the outcome of the preemptive EDF dispatcher.
	PreemptiveSchedule = sched.PreemptiveSchedule
	// ExactResult is the outcome of the exact branch-and-bound search.
	ExactResult = optsched.Result
	// ExactOptions bounds the exact search.
	ExactOptions = optsched.Options
	// Report is the outcome of replaying a schedule.
	Report = sim.Report
)

// Fault-injection types (robustness evaluation).
type (
	// FaultPlan is a stochastic fault model: probabilities and
	// severities for WCET overruns, processor degradation and loss, and
	// bus jitter, materialized deterministically from its seed.
	FaultPlan = faults.Plan
	// FaultTrace is one concrete materialized fault scenario.
	FaultTrace = faults.Trace
	// InjectedReport is the outcome of executing a schedule under a
	// fault trace: the verified perturbed run plus degradation measures.
	InjectedReport = sim.InjectedReport
	// Degradation quantifies deadline misses, lateness, and fault and
	// recovery events of an injected run.
	Degradation = sim.Degradation
)

// Graceful-degradation types (mixed-criticality mode changes).
type (
	// Criticality classifies a task as Mandatory or Optional.
	Criticality = taskgraph.Criticality
	// DegradePolicy selects how optional work is degraded as the mode
	// level rises.
	DegradePolicy = degrade.Policy
	// DegradeOptions configures mode-ladder construction.
	DegradeOptions = degrade.Options
	// DegradeMode is one operating point of the degradation ladder: a
	// reduced (or budget-shrunk) task graph plus its retained-value
	// fraction and ID maps back to the full application.
	DegradeMode = degrade.Mode
	// ModeController is the online overload-triggered mode-change state
	// machine: immediate escalation, hysteretic re-admission with
	// backed-off probes, bounded lockout.
	ModeController = degrade.Controller
	// ModeControllerOptions tunes the controller's hysteresis.
	ModeControllerOptions = degrade.ControllerOptions
	// ModeObservation is what the controller sees of one executed frame.
	ModeObservation = degrade.Observation
	// ModeTransition records one controller decision.
	ModeTransition = degrade.Transition
	// DegradeConfig parameterizes one graceful-degradation study series.
	DegradeConfig = experiment.DegradeConfig
	// DegradePoint aggregates one intensity of a degradation series.
	DegradePoint = experiment.DegradePoint
	// DegradeCurve is one policy/metric series over the intensity ramp.
	DegradeCurve = experiment.DegradeCurve
)

// Task criticalities (the imprecise-computation split).
const (
	// Mandatory tasks must meet their deadlines in every operating mode.
	Mandatory = taskgraph.Mandatory
	// Optional tasks add value when they complete in time but may be
	// shed or shrunk under overload.
	Optional = taskgraph.Optional
)

// Degradation policies.
const (
	// DegradeNone disables degradation: only the full mode exists.
	DegradeNone = degrade.None
	// DegradeShedLowestValue sheds sheddable tasks cheapest-first.
	DegradeShedLowestValue = degrade.ShedLowestValue
	// DegradeShedLargestParallelSet sheds the most contended tasks first.
	DegradeShedLargestParallelSet = degrade.ShedLargestParallelSet
	// DegradeProportionalBudget shrinks optional execution budgets.
	DegradeProportionalBudget = degrade.ProportionalBudget
)

// DegradeModes builds the degradation ladder of a frozen
// mixed-criticality graph: mode 0 is the full application, each higher
// mode sheds or shrinks strictly more optional value, the mandatory
// subgraph survives at every level, and newly exposed outputs inherit
// end-to-end deadlines so every mode re-slices and re-verifies cleanly.
func DegradeModes(g *Graph, opt DegradeOptions) ([]*DegradeMode, error) {
	return degrade.Modes(g, opt)
}

// NewModeController returns the online mode-change controller, starting
// at level 0 (the full application).
func NewModeController(opt ModeControllerOptions) *ModeController {
	return degrade.NewController(opt)
}

// DegradeStudy evaluates one graceful-degradation series: achieved
// value versus fault intensity, with one controller instance carrying
// each workload up the ascending intensity ramp. With no optional tasks
// or the DegradeNone policy, each point's Fault baseline is
// byte-identical to MarginStudy's sibling FaultRun.
func DegradeStudy(cfg DegradeConfig) (DegradeCurve, error) { return experiment.DegradeRun(cfg) }

// Robustness-margin types (breakdown analysis and adaptive re-slicing).
type (
	// BreakdownOptions bounds the critical-factor bisection.
	BreakdownOptions = robust.BreakdownOptions
	// Breakdown is the critical WCET scaling factor of one assignment.
	Breakdown = robust.Breakdown
	// ResliceOptions bounds the adaptive re-slicing feedback loop.
	ResliceOptions = robust.ResliceOptions
	// ResliceResult reports the feedback iterations and their outcome.
	ResliceResult = robust.ResliceResult
	// WCETErrorModel is a parametric estimation-error scenario: true
	// execution times deviating from the estimates the assignment was
	// planned with.
	WCETErrorModel = wcet.ErrorModel
	// WCETErrorKind selects the deviation shape.
	WCETErrorKind = wcet.ErrorKind
	// MarginConfig parameterizes one robustness-margin data point.
	MarginConfig = experiment.MarginConfig
	// MarginPoint aggregates one estimation-error data point.
	MarginPoint = experiment.MarginPoint
	// BreakdownPoint aggregates one breakdown-factor data point.
	BreakdownPoint = experiment.BreakdownPoint
)

// WCET estimation-error shapes (margin studies).
const (
	// WCETErrNone is the identity model: truth equals the estimate.
	WCETErrNone = wcet.ErrNone
	// WCETErrMultiplicative draws an independent uniform factor per task.
	WCETErrMultiplicative = wcet.ErrMultiplicative
	// WCETErrClassBias draws one factor per processor class (systematic
	// mis-calibration of a class's timing model).
	WCETErrClassBias = wcet.ErrClassBias
	// WCETErrHeavyTail overruns rarely but severely (truncated Pareto).
	WCETErrHeavyTail = wcet.ErrHeavyTail
)

// BreakdownFactor bisects for the critical uniform WCET scaling factor:
// the largest φ such that the schedule built from the assignment still
// meets every window when all execution times scale by φ. It is the
// per-workload robustness margin of a deadline distribution.
func BreakdownFactor(g *Graph, p *Platform, asg *Assignment, s *Schedule,
	opt BreakdownOptions) (Breakdown, error) {
	return robust.BreakdownFactor(g, p, asg, s, opt)
}

// ResliceLoop runs the adaptive re-slicing feedback loop: execute under
// the fault trace, fold observed overruns back into the estimates
// (bounded retries, backed-off inflation), and re-distribute deadlines
// until the perturbed execution is clean or the loop provably cannot
// learn more.
func ResliceLoop(g *Graph, p *Platform, est []Time, metric Metric, params Params,
	tr *FaultTrace, opt ResliceOptions) (*ResliceResult, error) {
	return robust.ResliceLoop(g, p, est, metric, params, tr, opt)
}

// MarginStudy evaluates one estimation-error data point over the
// workload sample: assignments planned from estimates, executed under
// perturbed truth. The zero model reproduces the nominal success ratio
// exactly.
func MarginStudy(cfg MarginConfig) MarginPoint { return experiment.MarginRun(cfg) }

// BreakdownStudy measures the breakdown-factor distribution of one
// metric over the workload sample.
func BreakdownStudy(cfg MarginConfig) BreakdownPoint { return experiment.BreakdownRun(cfg) }

// Workload generation and experiment types.
type (
	// WorkloadConfig parameterizes the random workload generator (§5.2).
	WorkloadConfig = gen.Config
	// Workload is one generated (graph, platform) instance.
	Workload = gen.Workload
	// ExperimentOptions configures figure regeneration.
	ExperimentOptions = experiment.Options
	// FigureTable is the harness rendering of one paper figure.
	FigureTable = experiment.Table
	// Expansion is a periodic task set unrolled over its planning cycle.
	Expansion = periodic.Expansion
)

// Unset marks an unassigned timing attribute (e.g. an ineligible WCET
// entry).
const Unset = rtime.Unset

// WCET estimation strategies (§5.3).
const (
	WCETAvg = wcet.AVG
	WCETMax = wcet.MAX
	WCETMin = wcet.MIN
)

// NewGraph returns an empty task graph over numClasses processor
// classes.
func NewGraph(numClasses int) *Graph { return taskgraph.NewGraph(numClasses) }

// NewPlatform builds a heterogeneous platform with the given classes,
// one processor per classOf entry, and a shared bus charging
// busDelayPerItem time units per transmitted data item.
func NewPlatform(classes []Class, classOf []int, busDelayPerItem Time) (*Platform, error) {
	return arch.New(arch.Unrelated, classes, classOf, arch.Bus{DelayPerItem: busDelayPerItem})
}

// HomogeneousPlatform builds an m-processor single-class platform.
func HomogeneousPlatform(m int) *Platform { return arch.Homogeneous(m) }

// NewNetwork creates an m-processor topology whose pairs fall back to
// the shared bus until SetLink installs dedicated links.
func NewNetwork(m int) *Network { return arch.NewNetwork(m) }

// The paper's four critical-path metrics (§4.5).
func PURE() Metric   { return slicing.PURE() }
func NORM() Metric   { return slicing.NORM() }
func AdaptG() Metric { return slicing.AdaptG() }
func AdaptL() Metric { return slicing.AdaptL() }

// AdaptR is the resource-aware extension of ADAPT-L (the paper's §7.3
// future-work direction); it degenerates to ADAPT-L when no task
// declares exclusive resources.
func AdaptR() Metric { return slicing.AdaptR() }

// Metrics returns the paper's four metrics in presentation order (the
// extension metrics AdaptR and AdaptN are separate constructors).
func Metrics() []Metric { return slicing.Metrics() }

// MetricByName resolves "PURE", "NORM", "ADAPT-G", "ADAPT-L", or the
// extension metrics "ADAPT-R" and "ADAPT-N".
func MetricByName(name string) (Metric, error) { return slicing.ByName(name) }

// DefaultParams returns the paper's §6 adaptive parameters; see also
// CalibratedParams.
func DefaultParams() Params { return slicing.DefaultParams() }

// CalibratedParams returns the adaptivity factors calibrated for this
// implementation (see EXPERIMENTS.md).
func CalibratedParams() Params { return slicing.CalibratedParams() }

// Estimates computes the estimated WCET c̄ of every task under the given
// strategy.
func Estimates(g *Graph, p *Platform, s WCETStrategy) ([]Time, error) {
	return wcet.Estimates(g, p, s)
}

// Distribute runs the slicing technique (Figure 1) over the graph.
func Distribute(g *Graph, est []Time, m int, metric Metric, params Params) (*Assignment, error) {
	return slicing.Distribute(g, est, m, metric, params)
}

// Dispatch schedules the assignment with the paper's non-preemptive
// time-driven EDF dispatcher.
func Dispatch(g *Graph, p *Platform, asg *Assignment) (*Schedule, error) {
	return pipeline.TimeDriven().Run(g, p, asg, nil)
}

// PlanEDF schedules the assignment with the offline greedy EDF list
// scheduler.
func PlanEDF(g *Graph, p *Platform, asg *Assignment) (*Schedule, error) {
	return pipeline.Planner().Run(g, p, asg, nil)
}

// InsertEDF schedules with the insertion-based (backfilling) offline EDF
// variant.
func InsertEDF(g *Graph, p *Platform, asg *Assignment) (*Schedule, error) {
	return pipeline.Insertion().Run(g, p, asg, nil)
}

// DispatchPreemptive schedules with the global preemptive EDF dispatcher
// with migration (§7.3 extension).
func DispatchPreemptive(g *Graph, p *Platform, asg *Assignment) (*PreemptiveSchedule, error) {
	return sched.DispatchPreemptive(g, p, asg)
}

// DispatchPolicy selects the ready-task rule of the time-driven
// dispatcher.
type DispatchPolicy = sched.Policy

// Dispatch policies (§7.3's policy axis).
const (
	PolicyEDF  = sched.EDFPolicy
	PolicyDM   = sched.DMPolicy
	PolicyFIFO = sched.FIFOPolicy
	PolicyLLF  = sched.LLFPolicy
)

// DispatchWith runs the time-driven dispatcher under an alternative
// ready-task policy.
func DispatchWith(g *Graph, p *Platform, asg *Assignment, policy DispatchPolicy) (*Schedule, error) {
	return sched.DispatchWith(g, p, asg, policy)
}

// DispatchActual simulates execution times below the worst-case bound:
// task i runs for ceil(frac[i]·WCET) units (at least one) while the
// dispatcher keeps deciding with WCET knowledge. Early completions can
// both rescue and — via the Graham anomaly — break a schedule. The
// result is one run of the time-driven dispatcher (sched.Execute, the
// run sim.Inject executes) under a trace whose only deviation is
// ExecScale = frac; misses are judged against asg.
func DispatchActual(g *Graph, p *Platform, asg *Assignment, frac []float64) (*Schedule, error) {
	n := g.NumTasks()
	if len(frac) != n {
		return nil, fmt.Errorf("repro: %d fractions for %d tasks", len(frac), n)
	}
	for i, f := range frac {
		if f <= 0 || f > 1 {
			return nil, fmt.Errorf("repro: frac[%d] = %v outside (0, 1]", i, f)
		}
	}
	tr := faults.ZeroTrace(n, p.M())
	copy(tr.ExecScale, frac)
	s, _, err := sched.Execute(g, p, asg, tr, false, nil)
	return s, err
}

// ExactSchedule runs the exact branch-and-bound search over active
// schedules — the optimality yardstick for the heuristics; practical up
// to roughly 20 tasks.
func ExactSchedule(g *Graph, p *Platform, asg *Assignment, opt ExactOptions) (*ExactResult, error) {
	return optsched.Schedule(g, p, asg, opt)
}

// TraceLog is a time-ordered execution event log.
type TraceLog = trace.Log

// TraceSchedule derives the event log (starts, finishes, messages,
// misses) of a non-preemptive schedule.
func TraceSchedule(g *Graph, p *Platform, asg *Assignment, s *Schedule) TraceLog {
	return trace.FromSchedule(g, p, asg, s)
}

// AnnealOptions tunes the virtual-cost search.
type AnnealOptions = anneal.Options

// AnnealResult reports the searched assignment and its outcome.
type AnnealResult = anneal.Result

// AnnealVirtualCosts searches the virtual-cost space the ADAPT metrics
// live in by simulated annealing, starting from ADAPT-L's closed-form
// choice — an upper bound on what any metric of that family can achieve
// on this workload.
func AnnealVirtualCosts(g *Graph, p *Platform, est []Time, params Params, opt AnnealOptions) (*AnnealResult, error) {
	return anneal.Search(g, p, est, params, opt)
}

// Explain writes a round-by-round narrative of a deadline distribution.
func Explain(w io.Writer, g *Graph, est []Time, asg *Assignment) error {
	return slicing.Explain(w, g, est, asg)
}

// FeasViolation is one failed necessary feasibility condition.
type FeasViolation = feas.Violation

// CheckFeasibility runs fast necessary conditions (own-window capacity,
// processor demand, resource demand) against a window assignment; any
// violation proves the assignment unschedulable by every scheduler.
func CheckFeasibility(g *Graph, p *Platform, asg *Assignment) ([]FeasViolation, error) {
	return feas.Check(g, p, asg)
}

// Replay re-executes a schedule and verifies it; serializedBus switches
// the shared bus from the nominal-delay model to exclusive FCFS use.
func Replay(g *Graph, p *Platform, asg *Assignment, s *Schedule, serializedBus bool) (*Report, error) {
	return sim.Replay(g, p, asg, s, sim.Options{SerializedBus: serializedBus})
}

// ScaledFaultPlan returns the standard fault plan at the given
// intensity in [0, 1]: 0 is fault-free, 1 the harshest standard mix of
// WCET overruns, processor slowdown/loss, and bus jitter. The same
// (intensity, seed) pair always yields the same plan.
func ScaledFaultPlan(intensity float64, seed int64) FaultPlan {
	return faults.Scaled(intensity, seed)
}

// MaterializeFaults draws one concrete fault scenario from the plan for
// the given workload; span is the failure-instant horizon (normally the
// end-to-end deadline).
func MaterializeFaults(plan FaultPlan, g *Graph, p *Platform, span Time) (*FaultTrace, error) {
	return plan.Materialize(g, p, span)
}

// InjectFaults executes the planned schedule under the fault trace with
// the time-driven dispatcher and reports the degradation; reclaim
// enables the online slack-reclamation recovery policy. A zero trace
// reproduces the nominal Replay exactly.
func InjectFaults(g *Graph, p *Platform, asg *Assignment, s *Schedule,
	tr *FaultTrace, reclaim bool) (*InjectedReport, error) {
	return sim.Inject(g, p, asg, s, sim.Options{Faults: tr, Reclaim: reclaim})
}

// DefaultWorkloadConfig returns the paper's §5 workload setup for m
// processors.
func DefaultWorkloadConfig(m int) WorkloadConfig { return gen.Default(m) }

// Generate builds one random workload.
func Generate(cfg WorkloadConfig) (*Workload, error) { return gen.Generate(cfg) }

// SubSeed derives the idx-th independent per-graph seed from a master
// seed.
func SubSeed(master int64, idx int) int64 { return gen.SubSeed(master, idx) }

// ExpandPeriodic unrolls a periodic task graph over its planning cycle
// (§3.3).
func ExpandPeriodic(g *Graph) (*Expansion, error) { return periodic.Expand(g) }

// Figure regenerates one of the paper's evaluation figures (2–6).
func Figure(n int, opts ExperimentOptions) (FigureTable, error) {
	f, ok := experiment.Figures[n]
	if !ok {
		return FigureTable{}, fmt.Errorf("repro: no figure %d (have 2..6)", n)
	}
	return f(opts), nil
}

// DefaultExperimentOptions mirrors the paper's 1024 workloads per data
// point.
func DefaultExperimentOptions() ExperimentOptions { return experiment.DefaultOptions() }

// Instrumented pipeline-core types. The internal pipeline package is
// the single owner of the estimate → slice → dispatch sequence; every
// experiment, study, and command routes planning through it, and these
// aliases expose its artifacts to library users.
type (
	// Plan is the immutable artifact of one pipeline build: estimates,
	// window assignment, schedule, verdict, and per-stage timing.
	Plan = pipeline.Plan
	// PlanKey identifies a plan in the cache: workload fingerprint plus
	// every policy knob that shaped the plan.
	PlanKey = pipeline.Key
	// PlanVerdict summarizes a plan's schedulability outcome.
	PlanVerdict = pipeline.Verdict
	// PlanStats carries per-stage wall time and allocation counters.
	PlanStats = pipeline.PlanStats
	// StageStats instruments one pipeline stage.
	StageStats = pipeline.StageStats
	// PlanCache is a thread-safe LRU cache of immutable plans.
	PlanCache = pipeline.Cache
	// PlanRecorder aggregates build/hit counts and stage timings across
	// pipeline runs.
	PlanRecorder = pipeline.Recorder
	// PlanSummary is a recorder's aggregate view.
	PlanSummary = pipeline.Summary
)

// NewPlanCache returns an LRU plan cache holding up to capacity plans.
func NewPlanCache(capacity int) *PlanCache { return pipeline.NewCache(capacity) }

// NewPlanRecorder returns a pipeline instrumentation recorder;
// withAllocs additionally counts per-stage heap allocations (slower:
// it reads runtime memory stats around every stage).
func NewPlanRecorder(withAllocs bool) *PlanRecorder { return pipeline.NewRecorder(withAllocs) }

// WorkloadFingerprint hashes the planning-relevant content of a
// workload — task timing, precedence, platform shape, communication
// costs — ignoring display names. It is the workload half of a PlanKey.
func WorkloadFingerprint(g *Graph, p *Platform) uint64 { return pipeline.Fingerprint(g, p) }

// Result bundles the artifacts of one pipeline run.
type Result struct {
	// Estimates are the c̄ values used for deadline distribution.
	Estimates []Time
	// Assignment is the window assignment produced by the distributor.
	Assignment *Assignment
	// Schedule is the constructed schedule.
	Schedule *Schedule
	// Report is the replay verification of the schedule.
	Report *Report
	// Plan is the underlying pipeline artifact, carrying the cache key,
	// the verdict, and per-stage timing. Plans are immutable and may be
	// shared with the cache: do not mutate through this pointer.
	Plan *Plan
}

// Pipeline is the generate-to-verify flow with pluggable policies.
type Pipeline struct {
	// Metric is the critical-path metric (default ADAPT-L).
	Metric Metric
	// Params are the adaptive parameters (default CalibratedParams).
	Params Params
	// WCET is the estimation strategy (default WCET-AVG).
	WCET WCETStrategy
	// UsePlanner selects the offline greedy scheduler instead of the
	// time-driven dispatcher.
	UsePlanner bool
	// SerializedBus verifies the schedule under exclusive bus use.
	SerializedBus bool
	// Cache, when non-nil, memoizes plans across Run calls keyed by
	// (workload fingerprint, metric, params, scheduler).
	Cache *PlanCache
	// Recorder, when non-nil, accumulates per-stage instrumentation.
	Recorder *PlanRecorder
}

// DefaultPipeline returns the paper's default policy set with this
// implementation's calibrated parameters.
func DefaultPipeline() Pipeline {
	return Pipeline{Metric: slicing.AdaptL(), Params: slicing.CalibratedParams(), WCET: wcet.AVG}
}

// Run executes estimate → slice → schedule → replay on one workload.
// It is RunContext under the background context.
func (pl Pipeline) Run(g *Graph, p *Platform) (*Result, error) {
	return pl.RunContext(context.Background(), g, p)
}

// RunContext is Run under a cancellation context: the planning stages
// check ctx at their boundaries (cooperatively — a running stage is
// never interrupted), a done context ends the run with ctx.Err(), and
// canceled plans are never cached. With a shared Cache, concurrent runs
// of an identical workload coalesce onto a single cold build; the
// Recorder's Coalesced and Canceled columns count both effects.
func (pl Pipeline) RunContext(ctx context.Context, g *Graph, p *Platform) (*Result, error) {
	metric := pl.Metric
	if metric == nil {
		metric = slicing.AdaptL()
	}
	params := pl.Params
	if params == (Params{}) {
		params = slicing.CalibratedParams()
	}
	disp := pipeline.TimeDriven()
	if pl.UsePlanner {
		disp = pipeline.Planner()
	}
	b := &pipeline.Builder{
		Estimator:   pipeline.StrategyEstimator(pl.WCET),
		Distributor: deadline.Sliced{Metric: metric, Params: params},
		Dispatcher:  disp,
		Cache:       pl.Cache,
		Recorder:    pl.Recorder,
	}
	plan, err := b.BuildContext(ctx, pipeline.Spec{Graph: g, Platform: p})
	if err != nil {
		return nil, err
	}
	rep, err := sim.Replay(g, p, plan.Assignment, plan.Schedule, sim.Options{SerializedBus: pl.SerializedBus})
	if err != nil {
		return nil, err
	}
	return &Result{
		Estimates:  plan.Estimates,
		Assignment: plan.Assignment,
		Schedule:   plan.Schedule,
		Report:     rep,
		Plan:       plan,
	}, nil
}
