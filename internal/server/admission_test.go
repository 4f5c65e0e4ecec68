package server

import (
	"testing"
	"time"
)

// testAdmit builds a controller on a manually-advanced clock.
func testAdmit(opt Options) (*admitController, *time.Time) {
	a := newAdmitController(opt.withDefaults())
	clock := time.Unix(1000, 0)
	a.now = func() time.Time { return clock }
	return a, &clock
}

// closeWith advances the clock one full window after feeding one
// observation, so the window closes with that observation as its worst.
func closeWith(a *admitController, clock *time.Time, worst time.Duration) {
	a.observe(worst)
	*clock = clock.Add(a.opt.AdmitWindow)
	// Any accessor rolls the window.
	a.currentLevel()
}

func TestAdmitFractionAIMD(t *testing.T) {
	a, clock := testAdmit(Options{AdmitTarget: 10 * time.Millisecond})
	if f := a.snapshot().frac; f != 1 {
		t.Fatalf("initial frac = %v, want 1", f)
	}

	// Three overloaded windows: multiplicative decrease compounds.
	for i := 0; i < 3; i++ {
		closeWith(a, clock, 50*time.Millisecond)
	}
	st := a.snapshot()
	f, delay := st.frac, st.delay
	want := 0.7 * 0.7 * 0.7
	if f < want-1e-9 || f > want+1e-9 {
		t.Fatalf("frac after 3 bad windows = %v, want %v", f, want)
	}
	if delay != 50*time.Millisecond {
		t.Fatalf("delay gauge = %v, want 50ms", delay)
	}

	// Clean windows recover additively back to 1, no overshoot.
	for i := 0; i < 100; i++ {
		closeWith(a, clock, 0)
	}
	if f := a.snapshot().frac; f != 1 {
		t.Fatalf("frac after recovery = %v, want 1", f)
	}
}

func TestAdmitFractionFloor(t *testing.T) {
	a, clock := testAdmit(Options{AdmitTarget: 10 * time.Millisecond})
	for i := 0; i < 100; i++ {
		closeWith(a, clock, time.Second)
	}
	if f := a.snapshot().frac; f != admitMinFrac {
		t.Fatalf("frac = %v, want floor %v", f, admitMinFrac)
	}
	// Even at the floor a trickle passes: over many coins, some admit.
	admitted := 0
	for i := 0; i < 1000; i++ {
		if a.admit() {
			admitted++
		}
	}
	if admitted == 0 || admitted == 1000 {
		t.Fatalf("admitted %d/1000 at floor frac %v, want a nonzero minority", admitted, admitMinFrac)
	}
}

func TestAdmitProbabilistic(t *testing.T) {
	a, clock := testAdmit(Options{AdmitTarget: 10 * time.Millisecond})
	// One bad window: frac = 0.7. Roughly 70% of coins admit.
	closeWith(a, clock, 50*time.Millisecond)
	admitted := 0
	for i := 0; i < 2000; i++ {
		if a.admit() {
			admitted++
		}
	}
	if admitted < 1200 || admitted > 1600 {
		t.Fatalf("admitted %d/2000 at frac 0.7, want ~1400", admitted)
	}
}

func TestOptionalSheddingHysteresis(t *testing.T) {
	a, clock := testAdmit(Options{AdmitTarget: 10 * time.Millisecond})
	if a.sheddingOptional() {
		t.Fatal("shedding engaged at rest")
	}
	closeWith(a, clock, 20*time.Millisecond)
	if !a.sheddingOptional() {
		t.Fatal("over-target window did not engage optional shedding")
	}
	// In the hysteresis band (target/2, target]: stays engaged.
	closeWith(a, clock, 8*time.Millisecond)
	if !a.sheddingOptional() {
		t.Fatal("shedding released inside hysteresis band")
	}
	// At or below half target: releases.
	closeWith(a, clock, 5*time.Millisecond)
	if a.sheddingOptional() {
		t.Fatal("shedding not released below half target")
	}
	// Each entry counts once, however many over-target windows it spans.
	closeWith(a, clock, 20*time.Millisecond)
	closeWith(a, clock, 20*time.Millisecond)
	if st := a.snapshot(); !st.shedding || st.shedEngaged != 2 {
		t.Fatalf("shedding %v, entries %d; want true, 2", st.shedding, st.shedEngaged)
	}
}

func TestBrownoutLadder(t *testing.T) {
	a, clock := testAdmit(Options{AdmitTarget: 10 * time.Millisecond})
	// Defaults: cheap at 20ms, cache-only at 80ms, promote after 3.
	if a.currentLevel() != brownoutOff {
		t.Fatal("ladder engaged at rest")
	}

	// Demotion is immediate, and can jump straight to cache-only.
	closeWith(a, clock, 100*time.Millisecond)
	if l := a.currentLevel(); l != brownoutCacheOnly {
		t.Fatalf("level after 100ms window = %v, want cache-only", l)
	}

	// Two clean windows are not enough to promote.
	closeWith(a, clock, 0)
	closeWith(a, clock, 0)
	if l := a.currentLevel(); l != brownoutCacheOnly {
		t.Fatalf("level after 2 clean windows = %v, want cache-only still", l)
	}
	// Third clean window promotes one rung only.
	closeWith(a, clock, 0)
	if l := a.currentLevel(); l != brownoutCheap {
		t.Fatalf("level after 3 clean windows = %v, want cheap", l)
	}
	// A dirty window resets the clean streak.
	closeWith(a, clock, 0)
	closeWith(a, clock, 15*time.Millisecond) // above cheap release (10ms), below cheap engage (20ms)
	closeWith(a, clock, 0)
	closeWith(a, clock, 0)
	if l := a.currentLevel(); l != brownoutCheap {
		t.Fatalf("level = %v, want cheap (streak was reset)", l)
	}
	closeWith(a, clock, 0)
	if l := a.currentLevel(); l != brownoutOff {
		t.Fatalf("level = %v, want off after full clean streak", l)
	}

	if transitions := a.snapshot().transitions; transitions != 3 { // off→cache-only, →cheap, →off
		t.Fatalf("transitions = %d, want 3", transitions)
	}
}

func TestBrownoutHoveringDoesNotFlap(t *testing.T) {
	a, clock := testAdmit(Options{AdmitTarget: 10 * time.Millisecond})
	// Hover right around the cheap rung (20ms): alternate 25ms / 15ms.
	closeWith(a, clock, 25*time.Millisecond)
	for i := 0; i < 20; i++ {
		closeWith(a, clock, 15*time.Millisecond)
		closeWith(a, clock, 25*time.Millisecond)
	}
	if l := a.currentLevel(); l != brownoutCheap {
		t.Fatalf("level = %v, want cheap throughout hover", l)
	}
	if transitions := a.snapshot().transitions; transitions != 1 {
		t.Fatalf("transitions while hovering = %d, want 1", transitions)
	}
}

func TestAdmitIdleDecaysToCalm(t *testing.T) {
	a, clock := testAdmit(Options{AdmitTarget: 10 * time.Millisecond})
	for i := 0; i < 10; i++ {
		closeWith(a, clock, time.Second)
	}
	if a.currentLevel() != brownoutCacheOnly || !a.sheddingOptional() {
		t.Fatal("not fully browned out before idle gap")
	}
	// A long idle gap (hours) closes enough empty windows to fully
	// recover without replaying them one by one.
	*clock = clock.Add(2 * time.Hour)
	if l := a.currentLevel(); l != brownoutOff {
		t.Fatalf("level after idle gap = %v, want off", l)
	}
	if a.sheddingOptional() {
		t.Fatal("optional shedding survived idle gap")
	}
	if f := a.snapshot().frac; f >= 1 {
		// frac recovers additively; after 2*promoteAfter skipped windows
		// it may not be back to 1 — but it must be rising, and another
		// idle gap finishes the job.
		*clock = clock.Add(2 * time.Hour)
	}
}

func TestAdmitDisabled(t *testing.T) {
	a, clock := testAdmit(Options{AdmitTarget: -1})
	for i := 0; i < 10; i++ {
		closeWith(a, clock, time.Hour)
	}
	if !a.admit() || a.sheddingOptional() || a.currentLevel() != brownoutOff {
		t.Fatal("disabled controller acted on observations")
	}
	if st := a.snapshot(); st != (admitState{frac: 1}) {
		t.Fatalf("disabled snapshot = %+v, want frac 1, all else zero", st)
	}
}

func TestAdmitObserveOnFailedWait(t *testing.T) {
	// The signal must count even when the request never got a slot:
	// observe() is outcome-agnostic by construction; pin that a single
	// observation over target flips the next window.
	a, clock := testAdmit(Options{AdmitTarget: 10 * time.Millisecond})
	a.observe(500 * time.Millisecond) // e.g. context died while queued
	*clock = clock.Add(a.opt.AdmitWindow)
	if !a.sheddingOptional() {
		t.Fatal("failed-wait observation did not register")
	}
}
