package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// TestFixedLaneOrdering pins how lane events interleave with the heap, the
// same-instant lane and resource grants: strictly by (at, seq), exactly as
// if every AfterLane were After. It covers a lane head tying a heap entry
// on at (the lower seq wins either way round) and a d == 0 lane tying the
// same-instant lane.
func TestFixedLaneOrdering(t *testing.T) {
	e := NewEngine()
	one := e.FixedLane(1)
	zero := e.FixedLane(0)
	if e.FixedLane(1) != one {
		t.Fatal("registering a delay twice gave two lanes")
	}
	r := NewResource(e, "r", 1)
	var got []string
	log := func(name string) func() {
		return func() { got = append(got, fmt.Sprintf("%s@%g", name, e.Now())) }
	}
	e.At(1, log("heap"))          // at 1, before the lane entry below
	e.AfterLane(one, log("lane")) // at 1, ties the heap entry on at
	e.After(1, log("after"))      // at 1, after the lane entry
	e.At(0, func() {
		e.AfterLane(zero, log("zeroA")) // at 0 through the d == 0 lane
		r.Acquire(log("grant"))         // same-instant grant
		e.After(0, log("now"))          // same-instant lane
		e.AfterLane(zero, log("zeroB"))
		e.AfterLane(one, log("lane2")) // at 1, behind every entry above
	})
	if n := e.Pending(); n != 4 {
		t.Fatalf("Pending = %d before the run, want 4", n)
	}
	if end := e.Run(); end != 1 {
		t.Fatalf("run ended at %g, want 1", end)
	}
	want := []string{"zeroA@0", "grant@0", "now@0", "zeroB@0", "heap@1", "lane@1", "after@1", "lane2@1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fire order %v, want %v", got, want)
	}
	if e.Fired() != 9 || e.Pending() != 0 {
		t.Fatalf("fired %d pending %d, want 9 and 0", e.Fired(), e.Pending())
	}
}

// TestAfterLanePanicsLikeAfter: scheduling through a lane whose delay After
// would reject panics with After's message, and only when it schedules.
func TestAfterLanePanicsLikeAfter(t *testing.T) {
	message := func(f func()) (msg any) {
		defer func() { msg = recover() }()
		f()
		return nil
	}
	for _, d := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		e := NewEngine()
		l := e.FixedLane(d) // registering never panics
		got := message(func() { e.AfterLane(l, func() {}) })
		want := message(func() { e.After(d, func() {}) })
		if got == nil || got != want {
			t.Errorf("AfterLane with d=%g panicked %v, After panics %v", d, got, want)
		}
		if e.Pending() != 0 {
			t.Errorf("d=%g: a rejected AfterLane left %d events queued", d, e.Pending())
		}
	}
	// A finite delay whose fire time overflows is rejected like After's.
	e := NewEngine()
	l := e.FixedLane(math.MaxFloat64)
	var got, want any
	e.At(math.MaxFloat64, func() {
		got = message(func() { e.AfterLane(l, func() {}) })
		want = message(func() { e.After(math.MaxFloat64, func() {}) })
	})
	e.Run()
	if got == nil || got != want {
		t.Errorf("overflowing AfterLane panicked %v, After panics %v", got, want)
	}
}
