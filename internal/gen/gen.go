// Package gen implements the random workload generator of §5.1–5.2: the
// heterogeneous multiprocessor platforms and the random application task
// graphs the paper's experiments are run on.
//
// Every knob of the paper's setup is a Config field with the published
// value as its default: 40–60 tasks per graph, depth 8–12 levels, one to
// three successors/predecessors per task, uniformly distributed execution
// times with mean c_mean = 20 and deviation ±ETD, 5 % per-class
// ineligibility, communication-to-computation ratio CCR = 0.1 over a
// shared bus of one time unit per data item, end-to-end deadlines set
// from the overall laxity ratio OLR, and one to three randomly drawn
// processor classes.
//
// Generation is fully deterministic: a Config carries a seed, and
// SubSeed splits a master seed into independent per-graph seeds, so
// experiments are reproducible and order-independent.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/rtime"
	"repro/internal/taskgraph"
)

// Config collects every generator parameter. Zero values are invalid;
// start from Default.
type Config struct {
	// Seed drives all randomness of one workload.
	Seed int64

	// MinTasks and MaxTasks bound the task count n (paper: 40–60).
	MinTasks, MaxTasks int
	// MinDepth and MaxDepth bound the number of levels (paper: 8–12).
	MinDepth, MaxDepth int
	// MaxFan bounds the number of immediate successors and predecessors
	// per task (paper: 1–3).
	MaxFan int

	// CMean is the mean task execution time (paper: 20 time units).
	CMean rtime.Time
	// ETD is the execution time distribution: the maximum deviation of a
	// task's execution time from CMean, as a fraction (paper default 0.25).
	ETD float64
	// IneligibleProb is the probability that a task may not execute on a
	// particular processor class (paper: 0.05).
	IneligibleProb float64

	// CCR is the communication-to-computation cost ratio: the mean
	// message communication cost over the mean execution time (paper: 0.1).
	CCR float64
	// OLR is the overall laxity ratio: the end-to-end deadline divided by
	// the average accumulated task-graph workload (paper default 0.8).
	OLR float64

	// M is the number of processors (paper: 2–8).
	M int
	// MinClasses and MaxClasses bound the number of processor classes
	// |E| drawn per workload (paper: 1–3).
	MinClasses, MaxClasses int
	// BusDelayPerItem is the nominal shared-bus delay (paper: 1).
	BusDelayPerItem rtime.Time
	// NumResources is the number of exclusive logical resources in the
	// application (0 for the paper's core experiments; the §7.3
	// extension studies use a few).
	NumResources int
	// ResourceProb is the probability that a task requires one
	// (uniformly chosen) resource.
	ResourceProb float64
	// OptionalProb drives the mixed-criticality labelling for the
	// graceful-degradation studies: walking the graph bottom-up, a task
	// whose successors are all optional becomes Optional with this
	// probability (and draws a value weight uniform in [0.5, 1.5)), so
	// the optional set is always shed-closed — every optional task is
	// sheddable together with its descendants. 0 (the paper's setup)
	// leaves every task mandatory and the workload byte-identical to
	// pre-extension generation.
	OptionalProb float64
	// PinProb is the probability that an input or output task is under
	// a strict locality constraint (§1: sensors and actuators bound to
	// their physical processor): it is pinned to a uniformly chosen
	// processor whose class it can execute on. 0 for the paper's
	// relaxed-constraints experiments.
	PinProb float64
	// Shape selects the structural family of the generated graphs
	// (default Layered, the paper's §5.2 generator).
	Shape Shape
	// Kind selects how per-class execution times relate (paper's
	// platform is heterogeneous with independent per-class times, i.e.
	// Unrelated; Identical and Uniform are provided for the homogeneous
	// baselines of the earlier work).
	Kind arch.Kind
}

// Default returns the paper's experimental setup (§5 and §6 defaults)
// for a system of m processors.
func Default(m int) Config {
	return Config{
		MinTasks: 40, MaxTasks: 60,
		MinDepth: 8, MaxDepth: 12,
		MaxFan:         3,
		CMean:          20,
		ETD:            0.25,
		IneligibleProb: 0.05,
		CCR:            0.1,
		OLR:            0.8,
		M:              m,
		MinClasses:     1, MaxClasses: 3,
		BusDelayPerItem: 1,
		Kind:            arch.Unrelated,
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	switch {
	case c.MinTasks < 1 || c.MaxTasks < c.MinTasks:
		return fmt.Errorf("gen: bad task count range [%d, %d]", c.MinTasks, c.MaxTasks)
	case c.MinDepth < 1 || c.MaxDepth < c.MinDepth:
		return fmt.Errorf("gen: bad depth range [%d, %d]", c.MinDepth, c.MaxDepth)
	case c.MinDepth > c.MinTasks:
		return fmt.Errorf("gen: depth %d exceeds task count %d", c.MinDepth, c.MinTasks)
	case c.MaxFan < 1:
		return fmt.Errorf("gen: MaxFan %d", c.MaxFan)
	case c.CMean < 1:
		return fmt.Errorf("gen: CMean %d", c.CMean)
	case c.ETD < 0 || c.ETD > 1:
		return fmt.Errorf("gen: ETD %v outside [0, 1]", c.ETD)
	case c.IneligibleProb < 0 || c.IneligibleProb >= 1:
		return fmt.Errorf("gen: IneligibleProb %v outside [0, 1)", c.IneligibleProb)
	case c.CCR < 0:
		return fmt.Errorf("gen: CCR %v", c.CCR)
	case c.OLR <= 0:
		return fmt.Errorf("gen: OLR %v", c.OLR)
	case c.M < 1:
		return fmt.Errorf("gen: M %d", c.M)
	case c.MinClasses < 1 || c.MaxClasses < c.MinClasses:
		return fmt.Errorf("gen: bad class range [%d, %d]", c.MinClasses, c.MaxClasses)
	case c.BusDelayPerItem < 0:
		return fmt.Errorf("gen: BusDelayPerItem %d", c.BusDelayPerItem)
	case c.NumResources < 0:
		return fmt.Errorf("gen: NumResources %d", c.NumResources)
	case c.ResourceProb < 0 || c.ResourceProb > 1:
		return fmt.Errorf("gen: ResourceProb %v outside [0, 1]", c.ResourceProb)
	case c.ResourceProb > 0 && c.NumResources == 0:
		return fmt.Errorf("gen: ResourceProb %v with no resources", c.ResourceProb)
	case c.PinProb < 0 || c.PinProb > 1:
		return fmt.Errorf("gen: PinProb %v outside [0, 1]", c.PinProb)
	case math.IsNaN(c.OptionalProb) || c.OptionalProb < 0 || c.OptionalProb > 1:
		return fmt.Errorf("gen: OptionalProb %v outside [0, 1]", c.OptionalProb)
	}
	return nil
}

// Workload is one generated experiment instance: an application task
// graph plus the platform it is to be scheduled on.
type Workload struct {
	Graph    *taskgraph.Graph
	Platform *arch.Platform
	// AvgWork is the average accumulated task graph workload (the OLR
	// denominator): the sum over tasks of the mean valid execution
	// time.
	AvgWork rtime.Time
}

// SubSeed derives the idx-th independent sub-seed from a master seed
// using the SplitMix64 finalizer, so per-graph streams do not correlate.
func SubSeed(master int64, idx int) int64 {
	z := uint64(master) + uint64(idx+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Generate builds one workload from the configuration.
func Generate(cfg Config) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	platform := genPlatform(cfg, rng)
	g, err := genShaped(cfg, rng, platform)
	if err != nil {
		return nil, err
	}

	// Average accumulated workload and E-T-E deadlines from OLR.
	present := platform.ClassesPresent()
	var avgWork rtime.Time
	for _, t := range g.Tasks() {
		var sum, cnt rtime.Time
		for k, c := range t.WCET {
			if c.IsSet() && present[k] {
				sum += c
				cnt++
			}
		}
		avgWork += (sum + cnt/2) / cnt
	}
	ete := rtime.Time(math.Round(cfg.OLR * float64(avgWork)))
	if ete < 1 {
		ete = 1
	}
	for _, out := range g.Outputs() {
		g.Task(out).ETEDeadline = ete
	}

	// Strict locality constraints for boundary tasks (§1: sensors and
	// actuators). Each pinned task lands on a uniformly chosen processor
	// among those whose class it can execute on.
	if cfg.PinProb > 0 {
		boundary := append(append([]int(nil), g.Inputs()...), g.Outputs()...)
		for _, id := range boundary {
			if rng.Float64() >= cfg.PinProb {
				continue
			}
			t := g.Task(id)
			var procs []int
			for q := 0; q < platform.M(); q++ {
				if t.EligibleOn(platform.ClassOf(q)) {
					procs = append(procs, q)
				}
			}
			if len(procs) > 0 {
				t.Pinned = procs[rng.Intn(len(procs))]
			}
		}
	}
	// Mixed-criticality labelling for the graceful-degradation studies.
	// A separate generator keeps the draw stream of everything above
	// untouched, so OptionalProb = 0 workloads stay byte-identical to
	// pre-extension generation. The bottom-up walk only lets a task go
	// optional when all its successors already are, so the optional set
	// is shed-closed by construction.
	if cfg.OptionalProb > 0 {
		org := rand.New(rand.NewSource(cfg.Seed ^ optionalSeedMix))
		topo := g.TopoOrder()
		for i := len(topo) - 1; i >= 0; i-- {
			id := topo[i]
			closed := true
			for _, s := range g.Succs(id) {
				if g.Task(s).Criticality != taskgraph.Optional {
					closed = false
					break
				}
			}
			if !closed {
				continue
			}
			if org.Float64() < cfg.OptionalProb {
				t := g.Task(id)
				t.Criticality = taskgraph.Optional
				t.Value = 0.5 + org.Float64()
			}
		}
	}
	return &Workload{Graph: g, Platform: platform, AvgWork: avgWork}, nil
}

// optionalSeedMix decorrelates the criticality-labelling stream from the
// structural stream of the same workload seed.
const optionalSeedMix = 0x5DEECE66D

// MustGenerate is Generate that panics on error; configuration errors
// are programming errors in experiment setup.
func MustGenerate(cfg Config) *Workload {
	w, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

func genPlatform(cfg Config, rng *rand.Rand) *arch.Platform {
	ne := cfg.MinClasses + rng.Intn(cfg.MaxClasses-cfg.MinClasses+1)
	classes := make([]arch.Class, ne)
	for k := range classes {
		classes[k] = arch.Class{
			Name: fmt.Sprintf("e%d", k),
			// Speeds only matter for the Uniform kind: within ±ETD.
			Speed: 1 / (1 - cfg.ETD + 2*cfg.ETD*rng.Float64()),
		}
	}
	classOf := make([]int, cfg.M)
	for q := range classOf {
		classOf[q] = rng.Intn(ne)
	}
	// Every generated class should host at least one processor when
	// m >= |E|, otherwise tasks could be eligible only on phantom
	// classes; fix up by assigning the first |E| processors round-robin.
	if cfg.M >= ne {
		for k := 0; k < ne; k++ {
			classOf[k] = k
		}
	}
	return arch.MustNew(cfg.Kind, classes, classOf,
		arch.Bus{DelayPerItem: cfg.BusDelayPerItem})
}

// genGraph builds the layered random DAG of §5.2.
func genGraph(cfg Config, rng *rand.Rand, platform *arch.Platform) (*taskgraph.Graph, error) {
	n := cfg.MinTasks + rng.Intn(cfg.MaxTasks-cfg.MinTasks+1)
	depth := cfg.MinDepth + rng.Intn(cfg.MaxDepth-cfg.MinDepth+1)
	if depth > n {
		depth = n
	}

	// Spread n tasks over depth levels, at least one per level, then
	// smooth so that no level exceeds MaxFan times the previous one —
	// otherwise the mandatory level-to-level arcs could not respect the
	// out-degree bound.
	levelSize := make([]int, depth)
	for l := range levelSize {
		levelSize[l] = 1
	}
	for i := depth; i < n; i++ {
		levelSize[rng.Intn(depth)]++
	}
	for l := 1; l < depth; l++ {
		for levelSize[l] > cfg.MaxFan*levelSize[l-1] {
			levelSize[l]--
			levelSize[l-1]++
		}
	}

	ne := platform.NumClasses()
	present := platform.ClassesPresent()
	// Generated graphs carry at most about two arcs per task.
	g := taskgraph.NewGraphSized(ne, n, 2*n)
	levels := make([][]int, depth)
	ids := make([]int, n) // the level sizes sum to n
	for l := range levels {
		levels[l], ids = ids[:0:levelSize[l]], ids[levelSize[l]:]
	}
	for l := 0; l < depth; l++ {
		for j := 0; j < levelSize[l]; j++ {
			wcet := genWCET(cfg, rng, ne, present, platform)
			t, err := g.AddTask(fmt.Sprintf("t%d.%d", l, j), wcet, 0)
			if err != nil {
				return nil, err
			}
			if cfg.NumResources > 0 && rng.Float64() < cfg.ResourceProb {
				t.Resources = []int{rng.Intn(cfg.NumResources)}
			}
			levels[l] = append(levels[l], t.ID)
		}
	}

	// Precedence, in three passes that keep both in- and out-degrees
	// within MaxFan (§5.2: one to three successors/predecessors).
	//
	// Pass 1 — mandatory arcs: every task below level 0 takes exactly
	// one predecessor from the level directly above, pinning its level
	// and hence the graph depth. The level smoothing above guarantees a
	// predecessor with spare out-degree always exists.
	outdeg := make([]int, n)
	var free []int // pickPred's candidate buffer
	msg := func() rtime.Time { return msgItems(cfg, rng) }
	for l := 1; l < depth; l++ {
		for _, t := range levels[l] {
			p := pickPred(rng, levels[l-1], outdeg, cfg.MaxFan, &free)
			g.MustAddArc(p, t, msg())
			outdeg[p]++
		}
	}
	// Pass 2 — extra arcs: each task draws a target in-degree in
	// [1, MaxFan] and fills it from random earlier levels, skipping
	// predecessors without spare out-degree and duplicate arcs.
	for l := 1; l < depth; l++ {
		for _, t := range levels[l] {
			want := 1 + rng.Intn(cfg.MaxFan)
			for len(g.Preds(t)) < want {
				el := rng.Intn(l)
				p := pickPred(rng, levels[el], outdeg, cfg.MaxFan, &free)
				if outdeg[p] >= cfg.MaxFan {
					break // earlier levels saturated; accept fewer preds
				}
				if _, dup := g.ArcBetween(p, t); dup {
					break
				}
				g.MustAddArc(p, t, msg())
				outdeg[p]++
			}
		}
	}
	// Pass 3 — childless interior tasks get one successor on a later
	// level with spare in-degree, preferring the next level, so that
	// almost all outputs sit at the final level. If every later task is
	// saturated the task simply remains an interior output.
	for l := 0; l < depth-1; l++ {
		for _, t := range levels[l] {
			if outdeg[t] > 0 {
				continue
			}
		search:
			for nl := l + 1; nl < depth; nl++ {
				for _, off := range rng.Perm(len(levels[nl])) {
					s := levels[nl][off]
					if len(g.Preds(s)) >= cfg.MaxFan {
						continue
					}
					if _, dup := g.ArcBetween(t, s); dup {
						continue
					}
					g.MustAddArc(t, s, msg())
					outdeg[t]++
					break search
				}
			}
		}
	}
	if err := g.Freeze(); err != nil {
		return nil, err
	}
	return g, nil
}

// pickPred chooses a random element of candidates, preferring those with
// remaining out-degree capacity. *free is reused across calls to hold
// the preferred candidates.
func pickPred(rng *rand.Rand, candidates []int, outdeg []int, maxFan int, free *[]int) int {
	f := (*free)[:0]
	for _, c := range candidates {
		if outdeg[c] < maxFan {
			f = append(f, c)
		}
	}
	*free = f
	if len(f) > 0 {
		return f[rng.Intn(len(f))]
	}
	return candidates[rng.Intn(len(candidates))]
}

// genWCET draws one task's per-class execution time vector: uniform in
// [CMean(1−ETD), CMean(1+ETD)] with per-class ineligibility, guaranteed
// eligible on at least one class present on the platform.
func genWCET(cfg Config, rng *rand.Rand, ne int, present []bool, platform *arch.Platform) []rtime.Time {
	lo := int64(math.Ceil(float64(cfg.CMean) * (1 - cfg.ETD)))
	hi := int64(math.Floor(float64(cfg.CMean) * (1 + cfg.ETD)))
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	draw := func() rtime.Time { return rtime.Time(lo + rng.Int63n(hi-lo+1)) }

	for {
		w := make([]rtime.Time, ne)
		var base rtime.Time
		if cfg.Kind != arch.Unrelated {
			base = draw()
		}
		okOnPresent := false
		for k := 0; k < ne; k++ {
			if rng.Float64() < cfg.IneligibleProb {
				w[k] = rtime.Unset
				continue
			}
			switch cfg.Kind {
			case arch.Identical:
				w[k] = base
			case arch.Uniform:
				v := rtime.Time(math.Round(float64(base) / platform.Classes[k].Speed))
				if v < 1 {
					v = 1
				}
				w[k] = v
			default: // Unrelated: independent per-class draws
				w[k] = draw()
			}
			if present[k] {
				okOnPresent = true
			}
		}
		if okOnPresent {
			return w
		}
		// Rare (≤ 0.05³): re-roll until the task can run somewhere.
	}
}

// msgItems draws one message size so that the mean communication cost
// over the bus matches CCR·CMean: uniform over [1, 2·CCR·CMean−1], or 0
// when CCR is 0.
func msgItems(cfg Config, rng *rand.Rand) rtime.Time {
	if cfg.CCR <= 0 || cfg.BusDelayPerItem <= 0 {
		return 0
	}
	mean := cfg.CCR * float64(cfg.CMean) / float64(cfg.BusDelayPerItem)
	hi := int64(math.Round(2*mean)) - 1
	if hi < 1 {
		return 1
	}
	return rtime.Time(1 + rng.Int63n(hi))
}
