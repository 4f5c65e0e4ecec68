// Package verify proves schedulability analytically, without replaying
// the schedule: holistic response-time analysis in the style of Tindell
// & Clark's distributed analysis and Kermia's non-preemptive
// multiprocessor bounds, specialized to this repository's time-driven
// EDF dispatcher (sched.Dispatch).
//
// The analysis computes, for every task i, a worst-case ready-time
// bound rᵢ (arrival plus predecessor finish bounds plus worst-case
// message landing — the "release jitter" propagated along precedence
// edges) and a worst-case finish bound Fᵢ = rᵢ + Lᵢ + Cᵢᵐᵃˣ, where the
// busy wait Lᵢ is the least fixed point of
//
//	L = ⌊(B(i) + Σ_{j ∈ hp(i)} interferes(j, rᵢ, L)·Cⱼ) / mᵢ⌋
//
// over the mᵢ processors task i is eligible on: while i waits beyond
// rᵢ, every one of those processors is busy, and non-preemptive EDF
// only lets strictly earlier-deadline tasks start in front of i — any
// later-deadline task occupying a processor must have started before
// rᵢ (at most mᵢ of them, the blocking term B). The rᵢ and Fᵢ bounds
// are mutually dependent through message landings and the interference
// windows, so the per-task analysis iterates globally to a fixed point;
// the analysis only trusts a converged fixed point, never a truncated
// iteration.
//
// The verdict is three-valued and *conservative by contract*:
//
//   - Accept proves every deadline met: whenever Analyze accepts, the
//     replay simulator (sim.Replay over sched.Dispatch's schedule, the
//     nominal bus model) meets every deadline. The property tests in
//     this package enforce exactly that, over single-shot and sporadic
//     corpora.
//   - Reject proves at least one deadline missed (a task no present
//     processor can execute, or a feas demand-bound violation — both
//     scheduler-independent certificates).
//   - Inconclusive is everything else; callers fall back to the replay.
//
// The analysis models the time-driven EDF dispatcher family under the
// paper's nominal bus (one delay per message, no queueing); schedules
// produced by other dispatchers, alternative ready policies, or runs
// under a serialized bus are outside its contract and must be verified
// by replay. Workloads using exclusive resources are always
// Inconclusive: a resource floor can stall a ready task while
// processors idle, which breaks the busy-interval argument.
package verify

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/arch"
	"repro/internal/feas"
	"repro/internal/rtime"
	"repro/internal/slicing"
	"repro/internal/taskgraph"
)

// Verdict is the analysis outcome.
type Verdict int

const (
	// Inconclusive: schedulability was proven neither way.
	Inconclusive Verdict = iota
	// Accept: every deadline is proven met under the time-driven EDF
	// dispatcher and the nominal bus model.
	Accept
	// Reject: the assignment is proven unschedulable.
	Reject
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Inconclusive:
		return "inconclusive"
	case Accept:
		return "accept"
	case Reject:
		return "reject"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// Result carries the verdict and the analysis artifacts behind it.
type Result struct {
	Verdict Verdict
	// Reason is a one-line human explanation of a Reject or
	// Inconclusive verdict ("" on Accept).
	Reason string
	// Finish is the per-task worst-case finish bound Fᵢ at the fixed
	// point (valid only on Accept; nil otherwise).
	Finish []rtime.Time
	// Ready is the per-task worst-case ready bound rᵢ at the fixed
	// point (valid only on Accept; nil otherwise).
	Ready []rtime.Time
	// Rounds is the number of global fixed-point sweeps performed.
	Rounds int
}

// Sporadic parameterizes a recurring release of the whole task graph
// under the anchored model of gen.ReleaseTimes: release k's earliest
// time is k·MinGap, and it may be delayed by up to Jitter beyond that,
// so two releases Δ apart arrive between Δ·MinGap−Jitter and
// Δ·MinGap+Jitter from each other (consecutive ones as little as
// MinGap−Jitter apart). Every release reuses the base window assignment
// shifted by its release time (the sim.ReplayReleases contract).
type Sporadic struct {
	// MinGap is the minimum inter-arrival time T between releases.
	MinGap rtime.Time
	// Jitter is the maximum per-release delay J (0 ≤ J < T).
	Jitter rtime.Time
}

// Validate checks the sporadic parameters.
func (sp Sporadic) Validate() error {
	switch {
	case sp.MinGap < 1:
		return fmt.Errorf("verify: sporadic MinGap %d < 1", sp.MinGap)
	case sp.Jitter < 0:
		return fmt.Errorf("verify: sporadic Jitter %d < 0", sp.Jitter)
	case sp.Jitter >= sp.MinGap:
		return fmt.Errorf("verify: sporadic Jitter %d >= MinGap %d (releases could collide)", sp.Jitter, sp.MinGap)
	}
	return nil
}

const (
	// maxRounds bounds the global fixed-point sweeps before giving up.
	maxRounds = 256
	// maxBusyIters bounds one task's busy-wait iteration.
	maxBusyIters = 4096
	// maxBound is the largest busy wait the analysis follows before
	// declaring divergence (a sporadic system denser than its capacity).
	maxBound = rtime.Time(1) << 40
)

// Analyze proves or refutes schedulability of a single-shot window
// assignment under the time-driven EDF dispatcher; see the package
// comment for the exact contract. It never errors on schedulability —
// errors are reserved for malformed inputs (assignment/graph mismatch,
// unset windows).
func Analyze(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment) (*Result, error) {
	return analyze(g, p, asg, nil)
}

// AnalyzeSporadic is Analyze for a sporadically released graph: the
// whole graph recurs with minimum inter-arrival sp.MinGap and release
// jitter sp.Jitter, each release running under the base windows shifted
// by its release time. An Accept proves every deadline of every release
// met, for any number of releases and any legal release sequence.
func AnalyzeSporadic(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, sp Sporadic) (*Result, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return analyze(g, p, asg, &sp)
}

// analyzer carries the per-run immutable precomputation.
type analyzer struct {
	g   *taskgraph.Graph
	p   *arch.Platform
	asg *slicing.Assignment
	sp  *Sporadic // nil for single-shot

	n int
	m int
	// elig[i] is the bitmask of processors task i may execute on.
	elig []uint64
	// mi[i] is the population count of elig[i].
	mi []int
	// cmax[i] is task i's largest WCET over its eligible processors.
	cmax []rtime.Time
	// classMask[k] is the bitmask of processors of class k.
	classMask []uint64
	// topo is the graph's topological order.
	topo []int
	// csh memoizes, per distinct eligibility mask, the shared-WCET row:
	// csh[mask][j] is sharedC(j, i) for any i with elig[i] == mask. The
	// number of distinct masks is small (one per pinning pattern), so the
	// rows amortize the per-pair class scan out of the busy-wait loops.
	csh map[uint64][]rtime.Time
	// predComm[i][k] is the worst-case message landing delay from the
	// k-th predecessor of i (aligned with g.Preds(i)), hoisted out of
	// the fixed-point rounds.
	predComm [][]rtime.Time
	// rowOf[i] is csh[elig[i]], hoisted so busy waits index an array
	// instead of hashing the mask.
	rowOf [][]rtime.Time
	// ordTask/ordArr list the tasks sorted by window arrival (parallel
	// slices): the single-shot busy wait sweeps them with a moving
	// cutoff at r+L, so tasks arriving after the fixed point is reached
	// are never even scanned.
	ordTask []int32
	ordArr  []rtime.Time

	r, f []rtime.Time
	// lpC is the reusable blocking-candidate buffer.
	lpC []rtime.Time
}

func analyze(g *taskgraph.Graph, p *arch.Platform, asg *slicing.Assignment, sp *Sporadic) (*Result, error) {
	n := g.NumTasks()
	if len(asg.Arrival) != n || len(asg.AbsDeadline) != n {
		return nil, fmt.Errorf("verify: assignment covers %d/%d tasks, graph has %d",
			len(asg.Arrival), len(asg.AbsDeadline), n)
	}
	for i := 0; i < n; i++ {
		if !asg.Arrival[i].IsSet() || !asg.AbsDeadline[i].IsSet() {
			return nil, fmt.Errorf("verify: task %d has an unassigned window", i)
		}
	}
	if n == 0 {
		return &Result{Verdict: Accept}, nil
	}
	m := p.M()
	if m > 64 {
		return &Result{Verdict: Inconclusive,
			Reason: fmt.Sprintf("analysis limited to 64 processors, platform has %d", m)}, nil
	}
	// Exclusive resources stall ready tasks while processors idle,
	// breaking the busy-interval argument the bounds rest on.
	for i := 0; i < n; i++ {
		if len(g.Task(i).Resources) > 0 {
			return &Result{Verdict: Inconclusive,
				Reason: fmt.Sprintf("task %d uses exclusive resources", i)}, nil
		}
	}

	a := &analyzer{g: g, p: p, asg: asg, sp: sp, n: n, m: m}
	a.classMask = make([]uint64, p.NumClasses())
	for q := 0; q < m; q++ {
		a.classMask[p.ClassOf(q)] |= 1 << uint(q)
	}
	a.elig = make([]uint64, n)
	a.mi = make([]int, n)
	a.cmax = make([]rtime.Time, n)
	for i := 0; i < n; i++ {
		t := g.Task(i)
		var mask uint64
		best := rtime.Time(0)
		for q := 0; q < m; q++ {
			if t.Pinned >= 0 && q != t.Pinned {
				continue
			}
			c := t.WCET[p.ClassOf(q)]
			if !c.IsSet() {
				continue
			}
			mask |= 1 << uint(q)
			if c > best {
				best = c
			}
		}
		if mask == 0 {
			// No present processor can ever execute i: the dispatcher
			// marks it missed immediately.
			return &Result{Verdict: Reject,
				Reason: fmt.Sprintf("task %d is eligible on no present processor", i)}, nil
		}
		a.elig[i] = mask
		a.mi[i] = bits.OnesCount64(mask)
		a.cmax[i] = best
	}

	a.topo = g.TopoOrder()
	a.csh = make(map[uint64][]rtime.Time)
	a.predComm = make([][]rtime.Time, n)
	for i := 0; i < n; i++ {
		preds := g.Preds(i)
		if len(preds) == 0 {
			continue
		}
		row := make([]rtime.Time, len(preds))
		for k, j := range preds {
			row[k] = a.maxComm(j, i)
		}
		a.predComm[i] = row
	}
	a.rowOf = make([][]rtime.Time, n)
	for i := 0; i < n; i++ {
		a.rowOf[i] = a.sharedRow(a.elig[i])
	}
	if sp == nil {
		a.ordTask = make([]int32, n)
		for i := range a.ordTask {
			a.ordTask[i] = int32(i)
		}
		sort.Slice(a.ordTask, func(x, y int) bool {
			return asg.Arrival[a.ordTask[x]] < asg.Arrival[a.ordTask[y]]
		})
		a.ordArr = make([]rtime.Time, n)
		for k, j := range a.ordTask {
			a.ordArr[k] = asg.Arrival[j]
		}
	}
	a.r = make([]rtime.Time, n)
	a.f = make([]rtime.Time, n)
	a.lpC = make([]rtime.Time, 0, n)
	for i := 0; i < n; i++ {
		a.r[i] = asg.Arrival[i]
		a.f[i] = asg.Arrival[i] + a.cmax[i]
	}

	rounds := 0
	for ; rounds < maxRounds; rounds++ {
		changed := false
		for _, i := range a.topo {
			ri := asg.Arrival[i]
			for k, j := range g.Preds(i) {
				if land := a.f[j] + a.predComm[i][k]; land > ri {
					ri = land
				}
			}
			wait, ok := a.busyWait(i, ri)
			if !ok {
				return a.failed(rounds,
					fmt.Sprintf("busy-wait iteration for task %d diverged", i)), nil
			}
			fi := ri + wait + a.cmax[i]
			if ri != a.r[i] || fi != a.f[i] {
				a.r[i], a.f[i] = ri, fi
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	if rounds == maxRounds {
		return a.failed(rounds, "global response-time iteration did not converge"), nil
	}

	// A converged fixed point with every bound inside its deadline is a
	// proof; a bound past its deadline proves nothing (the bound is an
	// upper envelope), so that case stays Inconclusive.
	for i := 0; i < n; i++ {
		if a.f[i] > asg.AbsDeadline[i] {
			return a.failed(rounds+1,
				fmt.Sprintf("worst-case finish bound %d of task %d exceeds its deadline %d",
					a.f[i], i, asg.AbsDeadline[i])), nil
		}
	}
	return &Result{Verdict: Accept, Finish: a.f, Ready: a.r, Rounds: rounds + 1}, nil
}

// failed builds the verdict for an analysis that could not prove
// schedulability: before settling for Inconclusive it looks for a
// scheduler-independent infeasibility certificate (the feas demand
// bounds) and upgrades to Reject when one exists. Running the O(n²)
// interval enumeration only here keeps it off the Accept fast path —
// sound because a correct Accept can never coexist with a demand-bound
// violation, which proves a miss under every dispatcher.
func (a *analyzer) failed(rounds int, reason string) *Result {
	if bad, err := feas.InfeasibleScratch(a.g, a.p, a.asg, nil); err == nil && bad {
		return &Result{Verdict: Reject, Rounds: rounds,
			Reason: "feasibility demand bound violated (see feas.Check)"}
	}
	return &Result{Verdict: Inconclusive, Rounds: rounds, Reason: reason}
}

// maxComm is the worst-case message landing delay from task j to task
// i: the maximum bus cost over every (sender, receiver) processor pair
// the two tasks are eligible on. The analysis does not know placements,
// so it must cover them all.
func (a *analyzer) maxComm(j, i int) rtime.Time {
	items := a.g.MessageItems(j, i)
	if items == 0 {
		return 0
	}
	var worst rtime.Time
	for pj := 0; pj < a.m; pj++ {
		if a.elig[j]&(1<<uint(pj)) == 0 {
			continue
		}
		for q := 0; q < a.m; q++ {
			if a.elig[i]&(1<<uint(q)) == 0 {
				continue
			}
			if c := a.p.CommCost(pj, q, items); c > worst {
				worst = c
			}
		}
	}
	return worst
}

// sharedRow returns (building and memoizing on first use) the
// shared-WCET row for eligibility mask: row[j] is the largest execution
// time task j can occupy one of the mask's processors for — the max
// WCET of j over classes present in mask ∩ elig(j), zero when j shares
// no processor with the mask. One row serves every task with the same
// mask, so the class scan runs once per (distinct mask, task) pair
// instead of once per busy-wait probe.
func (a *analyzer) sharedRow(mask uint64) []rtime.Time {
	if row, ok := a.csh[mask]; ok {
		return row
	}
	row := make([]rtime.Time, a.n)
	for j := 0; j < a.n; j++ {
		shared := a.elig[j] & mask
		if shared == 0 {
			continue
		}
		var best rtime.Time
		wcet := a.g.Task(j).WCET
		for k, cm := range a.classMask {
			if cm&shared == 0 {
				continue
			}
			if c := wcet[k]; c.IsSet() && c > best {
				best = c
			}
		}
		row[j] = best
	}
	a.csh[mask] = row
	return row
}

// copies bounds how many release copies of one task can have offsets,
// relative to the release the analyzed task belongs to, in the
// half-open interval (lo, hi]. Under the anchored model the copy Δ
// releases apart has offset Δ·T + (u₂−u₁) ∈ [ΔT−J, ΔT+J], and the
// Δ = 0 copy — the same release — has offset exactly 0 (both tasks
// shift by the same release time). self drops the Δ = 0 copy entirely
// (it is the analyzed task itself). Single-shot callers never reach it.
func (a *analyzer) copies(lo, hi rtime.Time, self bool) rtime.Time {
	if hi <= lo {
		return 0
	}
	T, J := a.sp.MinGap, a.sp.Jitter
	// Δ ranges over bands [ΔT−J, ΔT+J] intersecting (lo, hi]:
	// ΔT+J > lo and ΔT−J ≤ hi.
	dmin := floorDiv(lo-J, T) + 1
	dmax := floorDiv(hi+J, T)
	k := dmax - dmin + 1
	if k < 0 {
		k = 0
	}
	if dmin <= 0 && 0 <= dmax {
		k-- // the banded Δ = 0 copy: its offset is exactly 0, not ±J
		if !self && lo < 0 && hi >= 0 {
			k++ // and 0 really is inside (lo, hi]
		}
	}
	return k
}

// floorDiv is x/d rounding toward −∞ (d > 0); Go's division truncates
// toward zero, which is wrong for the negative offsets above.
func floorDiv(x, d rtime.Time) rtime.Time {
	q := x / d
	if x%d != 0 && x < 0 {
		q--
	}
	return q
}

// busyWait computes task i's least-fixed-point busy wait Lᵢ for ready
// bound r: the longest interval [r, r+L) that interference and blocking
// can keep all mᵢ eligible processors busy while i is ready. Returns
// ok = false when the iteration diverges (overloaded sporadic system).
func (a *analyzer) busyWait(i int, r rtime.Time) (rtime.Time, bool) {
	if a.sp == nil {
		return a.busyWaitSingle(i, r)
	}
	return a.busyWaitSporadic(i, r)
}

// blockSum is the blocking term: at most one lower-priority carry-in
// per eligible processor, so the mi largest candidates in lpC bound it.
func (a *analyzer) blockSum(mi rtime.Time) rtime.Time {
	var block rtime.Time
	if len(a.lpC) > 0 {
		sort.Slice(a.lpC, func(x, y int) bool { return a.lpC[x] > a.lpC[y] })
		top := int(mi)
		if top > len(a.lpC) {
			top = len(a.lpC)
		}
		for _, c := range a.lpC[:top] {
			block += c
		}
	}
	return block
}

// busyWaitSingle solves the single-shot fixed point with one monotone
// sweep of the arrival order. Interference W⁺(L) counts, inclusively,
// every earlier-deadline task that can arrive by r+L and still be
// unfinished after r; blocking carry-ins arrived strictly before r.
// Both live in the arrival prefix ≤ r+L, so a cursor that only ever
// moves forward classifies each candidate exactly once and the
// iteration L = ⌊W⁺(L)/mᵢ⌋ never rescans — tasks arriving after the
// fixed point settles are never touched. Inclusive counting is what
// makes the bound sound: a competitor arriving exactly at r+L can
// extend the wait, and W⁺(L) < mᵢ·(L+1) at the fixed point rules that
// out.
func (a *analyzer) busyWaitSingle(i int, r rtime.Time) (rtime.Time, bool) {
	asg := a.asg
	di := asg.AbsDeadline[i]
	mi := rtime.Time(a.mi[i])
	csh := a.rowOf[i]
	f := a.f

	a.lpC = a.lpC[:0]
	var w rtime.Time
	pos := 0
	advance := func(bound rtime.Time) {
		for ; pos < a.n; pos++ {
			if a.ordArr[pos] > bound {
				return
			}
			j := a.ordTask[pos]
			if int(j) == i {
				continue
			}
			cj := csh[j]
			if cj == 0 || f[j] <= r {
				continue
			}
			if dj := asg.AbsDeadline[j]; dj < di || (dj == di && int(j) < i) {
				w += cj // higher priority, arrives within the window
			} else if asg.Arrival[j] < r {
				// Lower-priority carry-in: the dispatcher's instant loop
				// always starts the earliest-deadline dispatchable task
				// first, so a later-deadline task only occupies one of
				// i's processors past r when it started strictly before.
				a.lpC = append(a.lpC, cj)
			}
		}
	}
	advance(r)
	block := a.blockSum(mi)

	L := rtime.Time(0)
	for iter := 0; iter < maxBusyIters; iter++ {
		next := (block + w) / mi
		if next == L {
			return L, true
		}
		if next > maxBound {
			return 0, false
		}
		advance(r + next)
		L = next
	}
	return 0, false
}

// busyWaitSporadic solves the fixed point for a sporadically released
// graph. Release copies have no arrival cutoff (the copy count is
// alignment-free), so every probe scans all sharers; the shared-WCET
// row keeps the scan to integer arithmetic.
func (a *analyzer) busyWaitSporadic(i int, r rtime.Time) (rtime.Time, bool) {
	asg := a.asg
	di := asg.AbsDeadline[i]
	mi := rtime.Time(a.mi[i])
	csh := a.rowOf[i]

	// Blocking: copies of j at release offsets o carry in when they
	// have a later deadline (Dⱼ+o > Dᵢ), arrived before r, and may
	// still be running at r. At most one carry-in per processor.
	a.lpC = a.lpC[:0]
	for j := 0; j < a.n; j++ {
		cj := csh[j]
		if cj == 0 {
			continue
		}
		lo := r - a.f[j]
		if dlo := di - asg.AbsDeadline[j]; dlo > lo {
			lo = dlo
		}
		hi := r - asg.Arrival[j] - 1
		k := a.copies(lo, hi, j == i)
		if k > mi {
			k = mi
		}
		for ; k > 0; k-- {
			a.lpC = append(a.lpC, cj)
		}
	}
	block := a.blockSum(mi)

	// Least fixed point of L = ⌊W⁺(L)/mᵢ⌋, counting release copies:
	// copies of j at offsets o interfere as higher-priority work when
	// Dⱼ+o ≤ Dᵢ (deadline ties go against i — the copy ordering is
	// unknown), they arrive by r+L, and may be unfinished after r. The
	// o = 0 copy of i itself is excluded; every other copy of i counts.
	L := rtime.Time(0)
	for iter := 0; iter < maxBusyIters; iter++ {
		w := block
		for j := 0; j < a.n; j++ {
			cj := csh[j]
			if cj == 0 {
				continue
			}
			lo := r - a.f[j]
			hi := r + L - asg.Arrival[j]
			if dhi := di - asg.AbsDeadline[j]; dhi < hi {
				hi = dhi
			}
			w += a.copies(lo, hi, j == i) * cj
		}
		next := w / mi
		if next == L {
			return L, true
		}
		if next > maxBound {
			return 0, false
		}
		L = next
	}
	return 0, false
}
