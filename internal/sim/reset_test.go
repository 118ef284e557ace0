package sim

import "testing"

// TestResetReplaysIdentically runs the same event program twice on one
// engine with a Reset in between and requires the second run to replay the
// first exactly: same clock, same fire count, same sequence of callbacks.
// This is the contract the model layer's pooled scratch engines depend on.
func TestResetReplaysIdentically(t *testing.T) {
	program := func(e *Engine) []float64 {
		var order []float64
		res := NewResource(e, "r", 2)
		pipe := NewPipe(e, "p", 1e6)
		for i := 0; i < 8; i++ {
			i := i
			e.At(float64(i)*0.25, func() {
				res.Use(0.1*float64(i+1), func() {
					order = append(order, e.Now())
				})
				pipe.Send(float64(1000*(i+1)), func() {
					order = append(order, -e.Now())
				})
			})
		}
		order = append(order, e.Run())
		return order
	}

	e := NewEngine()
	first := program(e)
	firedFirst := e.Fired()

	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Fired() != 0 {
		t.Fatalf("reset engine not pristine: now=%g pending=%d fired=%d", e.Now(), e.Pending(), e.Fired())
	}
	second := program(e)
	if e.Fired() != firedFirst {
		t.Fatalf("fired count diverged after reset: %d vs %d", e.Fired(), firedFirst)
	}
	if len(first) != len(second) {
		t.Fatalf("callback counts diverged: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("callback %d diverged: %g vs %g", i, first[i], second[i])
		}
	}
}

// TestResetDiscardsPendingEvents stops a run mid-flight and checks Reset
// clears the abandoned queue entries.
func TestResetDiscardsPendingEvents(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 32; i++ {
		d := float64(i)
		e.After(d, func() {
			if e.Now() >= 4 {
				e.Stop()
			}
		})
	}
	e.Run()
	if e.Pending() == 0 {
		t.Fatal("expected pending events after Stop")
	}
	e.Reset()
	if e.Pending() != 0 {
		t.Fatalf("Reset left %d pending events", e.Pending())
	}
	// The engine must be fully usable again.
	ran := false
	e.After(1, func() { ran = true })
	if wall := e.Run(); wall != 1 || !ran {
		t.Fatalf("post-reset run broken: wall=%g ran=%v", wall, ran)
	}
}

// TestResetWithPendingLaneEvents stops a run with events queued in fixed
// lanes: Pending counts them, Reset discards them and the registrations
// but keeps each lane's ring capacity, and the engine schedules through
// lanes registered afresh exactly as before.
func TestResetWithPendingLaneEvents(t *testing.T) {
	e := NewEngine()
	program := func() (fires []float64, wall float64) {
		slow, fast := e.FixedLane(1), e.FixedLane(0.25)
		var tick func()
		tick = func() {
			fires = append(fires, e.Now())
			if e.Now() >= 4 {
				e.Stop()
			}
			e.AfterLane(slow, tick)
			e.AfterLane(fast, func() { fires = append(fires, -e.Now()) })
		}
		for i := 0; i < 16; i++ {
			e.AfterLane(slow, tick)
		}
		return fires, e.Run()
	}
	first, wall := program()
	if e.Pending() == 0 {
		t.Fatal("expected lane events pending after Stop")
	}
	capBefore := cap(e.lanes[0].q.buf)
	e.Reset()
	if e.Pending() != 0 || len(e.lanes) != 0 {
		t.Fatalf("Reset left %d pending events and %d lanes", e.Pending(), len(e.lanes))
	}
	if q := &e.lanes[:1][0].q; q.n != 0 || cap(q.buf) != capBefore {
		t.Fatalf("Reset left the lane ring with %d entries and cap %d, want 0 and %d", q.n, cap(q.buf), capBefore)
	}
	// No trace of the discarded lane events may steer a run without lanes.
	ran := false
	e.At(10, func() { ran = true })
	if end := e.Run(); end != 10 || !ran || e.Fired() != 1 {
		t.Fatalf("heap-only run after Reset: end=%g ran=%v fired=%d", end, ran, e.Fired())
	}
	e.Reset()
	second, wall2 := program()
	if wall != wall2 || len(first) != len(second) {
		t.Fatalf("replay after Reset diverged: wall %g vs %g, %d vs %d fires", wall, wall2, len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("fire %d diverged after Reset: %g vs %g", i, first[i], second[i])
		}
	}
}
