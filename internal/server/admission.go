package server

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// Adaptive admission and the brownout ladder.
//
// The static MaxQueue bound sheds work only after the queue is already
// deep — a cliff: everything is admitted at full cost right up to the
// wall, then everything beyond it is refused. The controller here
// watches the signal that actually hurts clients, queue *delay* (the
// sojourn time a request spends waiting for a planning slot), and acts
// on it CoDel-style: a target sojourn, measured over short windows,
// with the worst observation per window driving two coupled responses:
//
//   - an AIMD admit fraction: while the worst sojourn of a window
//     exceeds the target the fraction of offered work admitted shrinks
//     multiplicatively; while it stays under, the fraction recovers
//     additively. Measuring a *fraction* of offered load (rather than
//     an absolute rate) keeps the controller calibration-free across
//     hardware and workload sizes. Criticality stays the first rung:
//     an over-target window also engages Optional-only shedding
//     (hysteretically, released at half target), so the optional tier
//     absorbs the first cut before any mandatory request is refused.
//     This rung is the server's only optional-first policy; MaxQueue
//     stays the hard bound for every tier.
//   - a brownout ladder for the work that is admitted: as the worst
//     sojourn crosses configurable rungs, cold builds step down to
//     progressively cheaper pipeline configurations — full plan →
//     cheap PURE-metric plan (tagged degraded) → cache/read-through
//     only with 503 on miss. Cached plans always serve at the quality
//     they were built at; the ladder only governs what new work costs.
//     Demotion is immediate at a window close; promotion needs
//     promoteAfter consecutive windows below the rung's release
//     threshold (half the rung), the same clean-streak hysteresis the
//     degrade mode controller uses, so a load hovering at a rung does
//     not flap the ladder.
//
// Everything is lazy — windows close on whatever request observes the
// clock past the boundary — so the controller needs no goroutine and
// costs one mutex on the request path.

// brownoutLevel is a rung of the brownout ladder.
type brownoutLevel int

const (
	// brownoutOff: cold builds run the client's full configuration.
	brownoutOff brownoutLevel = iota
	// brownoutCheap: cold builds are replaced by the cheap PURE-metric
	// configuration and tagged degraded; resident full-quality plans
	// still serve as such.
	brownoutCheap
	// brownoutCacheOnly: no cold builds at all — cache (and, in fleet
	// mode, peer read-through) or 503.
	brownoutCacheOnly
)

// String implements fmt.Stringer.
func (l brownoutLevel) String() string {
	switch l {
	case brownoutOff:
		return "off"
	case brownoutCheap:
		return "cheap"
	case brownoutCacheOnly:
		return "cache-only"
	}
	return "?"
}

// Control-law constants. Nothing tunes them per deployment; the
// thresholds that do depend on the workload (target, window, rungs) are
// Options fields.
const (
	// admitDecrease is the multiplicative admit-fraction cut per
	// overloaded window, admitIncrease the additive recovery per clean
	// one. admitMinFrac floors the fraction so the controller always
	// lets a trickle through to keep measuring.
	admitDecrease = 0.7
	admitIncrease = 0.05
	admitMinFrac  = 0.05
	// promoteAfter is how many consecutive windows below a rung's
	// release threshold (half the rung) re-promote one brownout level.
	promoteAfter = 3
)

// admitController is the queue-delay admission controller plus the
// brownout ladder state. Safe for concurrent use.
type admitController struct {
	// opt is the server's resolved Options; the controller reads
	// AdmitTarget, AdmitWindow, BrownoutCheapAt and BrownoutCacheOnlyAt.
	opt Options
	now func() time.Time

	mu sync.Mutex
	// frac is the current admitted fraction of offered load, in
	// [admitMinFrac, 1].
	frac float64
	// worst is the worst sojourn observed in the current window;
	// lastWorst is the previous window's, exported as the delay gauge.
	worst, lastWorst time.Duration
	windowEnd        time.Time
	// level is the current brownout rung; clean counts consecutive
	// closed windows that argued for a promotion.
	level brownoutLevel
	clean int
	// shedOptional is the hysteretic first rung: engage on an
	// over-target window, release on a window at or below half target.
	shedOptional bool
	rnd          *rand.Rand

	// transitions counts ladder moves (both directions), for the
	// flappiness metric; shedEngaged counts the first rung's entries.
	transitions, shedEngaged int64
}

// newAdmitController builds a controller on the real clock from
// resolved Options (see Options.withDefaults).
func newAdmitController(opt Options) *admitController {
	return &admitController{
		opt:  opt,
		now:  time.Now,
		frac: 1,
		rnd:  rand.New(rand.NewSource(randSeed)),
	}
}

// disabled reports whether the controller is a pass-through.
func (a *admitController) disabled() bool { return a.opt.AdmitTarget < 0 }

// observe feeds one queue-sojourn measurement: the time a request
// spent waiting for a planning slot, whether or not it got one (a
// request that gave up after 80ms in queue is exactly as loud a signal
// as one that got a slot after 80ms).
func (a *admitController) observe(sojourn time.Duration) {
	if a.disabled() {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.roll(a.now())
	if sojourn > a.worst {
		a.worst = sojourn
	}
}

// admit flips the AIMD coin for one offered request: true admits it
// into the (still MaxQueue-bounded) queue, false sheds it with 429.
func (a *admitController) admit() bool {
	if a.disabled() {
		return true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.roll(a.now())
	if a.frac >= 1 {
		return true
	}
	return a.rnd.Float64() < a.frac
}

// sheddingOptional reports whether the criticality first rung is
// engaged.
func (a *admitController) sheddingOptional() bool {
	if a.disabled() {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.roll(a.now())
	return a.shedOptional
}

// currentLevel returns the brownout rung governing cold builds.
func (a *admitController) currentLevel() brownoutLevel {
	if a.disabled() {
		return brownoutOff
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.roll(a.now())
	return a.level
}

// admitState is the controller's state at one instant, for /metrics.
type admitState struct {
	frac        float64       // admitted fraction of offered load
	delay       time.Duration // last closed window's worst sojourn
	level       brownoutLevel // brownout rung
	transitions int64         // brownout ladder moves, both directions
	shedding    bool          // the criticality first rung is engaged
	shedEngaged int64         // entries into the criticality first rung
}

// snapshot returns the controller's current state.
func (a *admitController) snapshot() admitState {
	if a.disabled() {
		return admitState{frac: 1}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.roll(a.now())
	return admitState{frac: a.frac, delay: a.lastWorst, level: a.level,
		transitions: a.transitions, shedding: a.shedOptional, shedEngaged: a.shedEngaged}
}

// roll closes every window boundary the clock has passed. Called with
// the mutex held. Closing applies the AIMD step, advances the
// criticality rung's hysteresis, and moves the brownout ladder; an
// idle stretch (no requests for many windows) closes them all with a
// zero worst, so pressure state decays to calm exactly as if clean
// traffic had flowed.
func (a *admitController) roll(now time.Time) {
	if a.windowEnd.IsZero() {
		a.windowEnd = now.Add(a.opt.AdmitWindow)
		return
	}
	for !now.Before(a.windowEnd) {
		a.closeWindow()
		a.windowEnd = a.windowEnd.Add(a.opt.AdmitWindow)
		// After a long idle gap, don't replay thousands of empty
		// windows one by one.
		if gap := now.Sub(a.windowEnd); gap > 0 {
			if skip := gap / a.opt.AdmitWindow; skip > 2*promoteAfter {
				for i := 0; i < 2*promoteAfter; i++ {
					a.closeWindow()
				}
				a.windowEnd = now.Add(a.opt.AdmitWindow)
				return
			}
		}
	}
}

// closeWindow applies the control laws to the window that just ended.
func (a *admitController) closeWindow() {
	w := a.worst
	a.worst = 0
	a.lastWorst = w

	// AIMD on the admit fraction.
	if w > a.opt.AdmitTarget {
		a.frac = math.Max(admitMinFrac, a.frac*admitDecrease)
	} else {
		a.frac = math.Min(1, a.frac+admitIncrease)
	}

	// Criticality first rung, with a half-target hysteresis band.
	if w > a.opt.AdmitTarget {
		if !a.shedOptional {
			a.shedEngaged++
		}
		a.shedOptional = true
	} else if w <= a.opt.AdmitTarget/2 {
		a.shedOptional = false
	}

	// Brownout ladder: demote immediately, promote on a clean streak.
	want := brownoutOff
	switch {
	case a.opt.BrownoutCacheOnlyAt > 0 && w >= a.opt.BrownoutCacheOnlyAt:
		want = brownoutCacheOnly
	case a.opt.BrownoutCheapAt > 0 && w >= a.opt.BrownoutCheapAt:
		want = brownoutCheap
	}
	switch {
	case want > a.level:
		a.level = want
		a.clean = 0
		a.transitions++
	case a.level > brownoutOff && a.releasesLevel(w):
		a.clean++
		if a.clean >= promoteAfter {
			a.level--
			a.clean = 0
			a.transitions++
		}
	default:
		a.clean = 0
	}
}

// releasesLevel reports whether the closed window's worst sojourn is
// below the current rung's release threshold (half the rung's engage
// threshold), i.e. argues for a promotion.
func (a *admitController) releasesLevel(w time.Duration) bool {
	switch a.level {
	case brownoutCacheOnly:
		return a.opt.BrownoutCacheOnlyAt > 0 && w < a.opt.BrownoutCacheOnlyAt/2
	case brownoutCheap:
		return a.opt.BrownoutCheapAt > 0 && w < a.opt.BrownoutCheapAt/2
	}
	return false
}
