package sim

import (
	"testing"
)

// BenchmarkEngineRun is the kernel throughput benchmark the CI perf gate
// mirrors: one Workout pass per iteration, reporting events/sec and (via
// -benchmem or ReportAllocs) allocs per event. The committed BENCH_sim.json
// baseline is produced from the same Workout mix by `stellar-bench
// -sim-passes`.
func BenchmarkEngineRun(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events += Workout(32, 64)
	}
	b.StopTimer()
	if events == 0 {
		b.Fatal("workout fired no events")
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkEngineTimerWheel measures the pure time-ordered path: a single
// chain of After timers with no same-instant traffic, i.e. worst case for
// the heap and no help from the FIFO lane.
func BenchmarkEngineTimerWheel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		n := 0
		var tick func()
		tick = func() {
			n++
			if n < 4096 {
				e.After(1e-6, tick)
			}
		}
		e.At(0, tick)
		e.Run()
	}
}

// BenchmarkEngineFixedLane measures the fixed-delay lane against the heap
// on the pattern it exists for: 64 staggered chains of timers that all use
// one constant delay, so the heap holds 64 entries and every push sifts.
// The "after" case schedules with After, "lane" through a FixedLane; both
// fire the same events in the same order.
func BenchmarkEngineFixedLane(b *testing.B) {
	const chains, hops = 64, 64
	run := func(b *testing.B, useLane bool) {
		b.ReportAllocs()
		e := NewEngine()
		for i := 0; i < b.N; i++ {
			e.Reset()
			l := e.FixedLane(1e-6)
			n := 0
			var tick func()
			tick = func() {
				n++
				if n <= chains*(hops-1) {
					if useLane {
						e.AfterLane(l, tick)
					} else {
						e.After(1e-6, tick)
					}
				}
			}
			for c := 0; c < chains; c++ {
				e.At(float64(c)*1e-8, tick)
			}
			e.Run()
		}
		b.ReportMetric(float64(e.Fired()), "events/op")
		b.ReportMetric(float64(e.Fired())*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	}
	b.Run("after", func(b *testing.B) { run(b, false) })
	b.Run("lane", func(b *testing.B) { run(b, true) })
}

// BenchmarkEngineSameInstant measures the same-instant fast path: a
// capacity-1 resource with a deep queue, so nearly every event is a grant
// dispatched at the current instant.
func BenchmarkEngineSameInstant(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		r := NewResource(e, "r", 1)
		release := func() { r.Release() }
		for j := 0; j < 4096; j++ {
			r.Acquire(release)
		}
		e.Run()
	}
}

// BenchmarkResourceContention isolates Acquire/Release bookkeeping under a
// deep waiter queue — the path the ring-buffer queue and closure-free wait
// accounting optimize.
func BenchmarkResourceContention(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		r := NewResource(e, "r", 2)
		done := 0
		cb := func() { done++ }
		for j := 0; j < 1024; j++ {
			r.Use(1e-5, cb)
		}
		e.Run()
		if done != 1024 {
			b.Fatalf("done = %d", done)
		}
	}
}
