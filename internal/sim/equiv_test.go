package sim

// Kernel equivalence suite: drives byte-program scenarios through the
// optimized kernel and the seed reference kernel (refkernel_test.go) and
// requires identical fire order, fire times, final clock, fired count,
// pending count, and per-resource statistics. The same program interpreter
// backs both the seeded table tests and FuzzEngineOrdering, so every corpus
// entry exercises the (at, seq) ordering invariant across interleaved
// At/After/Use/SetCapacity/Stop sequences — including the dense same-instant
// patterns the FIFO lane optimizes, and scheduling through fixed-delay
// lanes, which the reference kernel maps to plain After(d).

import (
	"math/rand"
	"testing"
)

// kernelAPI adapts either kernel to the scenario interpreter.
type kernelAPI struct {
	at        func(t float64, fn func())
	after     func(d float64, fn func())
	fixedLane func(d float64) Lane
	afterLane func(l Lane, fn func())
	now       func() float64
	stop      func()
	run       func() float64
	fired     func() uint64
	pend      func() int
	res       []resAPI
}

type resAPI struct {
	acquire func(fn func())
	release func()
	use     func(s float64, done func())
	setCap  func(c int)
	stats   func() Stats
}

const progResources = 3

func newKernelAPI() kernelAPI {
	e := NewEngine()
	k := kernelAPI{
		at: e.At, after: e.After, fixedLane: e.FixedLane, afterLane: e.AfterLane,
		now: e.Now, stop: e.Stop, run: e.Run, fired: e.Fired, pend: e.Pending,
	}
	for i := 0; i < progResources; i++ {
		r := NewResource(e, "r", i+1)
		k.res = append(k.res, resAPI{
			acquire: r.Acquire, release: r.Release, use: r.Use,
			setCap: r.SetCapacity, stats: r.Stats,
		})
	}
	return k
}

func newRefKernelAPI() kernelAPI {
	e := newRefEngine()
	// The reference kernel has no lanes: a lane handle indexes the delay
	// it was registered with, and scheduling through it is After(d).
	var delays []float64
	k := kernelAPI{
		at: e.At, after: e.After,
		fixedLane: func(d float64) Lane {
			delays = append(delays, d)
			return Lane{int32(len(delays) - 1)}
		},
		afterLane: func(l Lane, fn func()) { e.After(delays[l.i], fn) },
		now:       e.Now, stop: e.Stop, run: e.Run, fired: e.Fired, pend: e.Pending,
	}
	for i := 0; i < progResources; i++ {
		r := newRefResource(e, "r", i+1)
		k.res = append(k.res, resAPI{
			acquire: r.Acquire, release: r.Release, use: r.Use,
			setCap: r.SetCapacity, stats: r.Stats,
		})
	}
	return k
}

// fireRec is one observed event firing: which recording point, at what
// simulated time.
type fireRec struct {
	id int32
	at float64
}

type progResult struct {
	trace   []fireRec
	wall    float64
	fired   uint64
	pending int
	stats   [progResources]Stats
	// After a Stop, a second Run resumes the queued events.
	resumeWall  float64
	resumeFired uint64
}

// runProgram interprets prog (4 bytes per op) against k. Times and
// durations are quantized to 0.25s so distinct ops collide on the same
// instant constantly — the regime where ordering bugs would show. Lane
// delays are quantized the same way, so lane heads tie heap entries and
// the same-instant lane (d == 0) all the time.
func runProgram(k kernelAPI, prog []byte) progResult {
	var out progResult
	nextID := int32(0)
	rec := func(id int32) { out.trace = append(out.trace, fireRec{id, k.now()}) }
	// lanes are the handles registered so far, in registration order.
	var lanes []Lane
	register := func(d float64) Lane {
		l := k.fixedLane(d)
		lanes = append(lanes, l)
		return l
	}
	// pick returns registered lane n (mod the count), registering one for
	// d when none exists yet.
	pick := func(n int, d float64) Lane {
		if len(lanes) == 0 {
			return register(d)
		}
		return lanes[n%len(lanes)]
	}
	for len(prog) >= 4 {
		t := float64(prog[0]%41) * 0.25
		kind := prog[1] % 10
		r := k.res[int(prog[2])%progResources]
		dur := float64(prog[3]%9) * 0.25
		capN := int(prog[3]%3) + 1
		sel := int(prog[2]) // lane selector for ops 8 and 9
		prog = prog[4:]
		nextID++
		id := nextID
		switch kind {
		case 0: // plain timed event
			k.at(t, func() { rec(id) })
		case 1: // resource use with completion callback
			k.at(t, func() { r.use(dur, func() { rec(id) }) })
		case 2: // explicit acquire / timed release
			k.at(t, func() {
				r.acquire(func() {
					rec(id)
					k.after(dur, r.release)
				})
			})
		case 3: // chain: event schedules a follow-up
			k.at(t, func() {
				rec(id)
				k.after(dur, func() { rec(-id) })
			})
		case 4: // same-instant burst through the fast lane
			k.at(t, func() {
				for j := int32(0); j < 3; j++ {
					j := j
					k.after(0, func() { rec(id*10 + j) })
				}
			})
		case 5: // capacity change mid-run wakes waiters
			k.at(t, func() { rec(id); r.setCap(capN) })
		case 6: // stop mid-run
			k.at(t, func() { rec(id); k.stop() })
		case 7: // zero-service use: grant and release on one instant
			k.at(t, func() { r.use(0, func() { rec(id) }) })
		case 8: // register a lane, before the run or mid-run
			if sel&1 == 0 {
				register(dur)
			} else {
				k.at(t, func() { rec(id); register(dur) })
			}
		default: // a three-hop chain through lanes, mixed with heap traffic
			n := sel
			k.at(t, func() {
				rec(id)
				k.afterLane(pick(n, dur), func() {
					rec(-id)
					k.after(dur, func() { rec(id * 100) })
					k.afterLane(pick(n+1, dur), func() {
						rec(id * 10)
						k.afterLane(pick(n+2, dur), func() { rec(-id * 10) })
					})
				})
			})
		}
	}
	out.wall = k.run()
	out.fired = k.fired()
	out.pending = k.pend()
	if out.pending > 0 {
		out.resumeWall = k.run()
		out.resumeFired = k.fired()
	}
	for i := range k.res {
		out.stats[i] = k.res[i].stats()
	}
	return out
}

func compareKernels(t *testing.T, prog []byte) {
	t.Helper()
	got := runProgram(newKernelAPI(), prog)
	want := runProgram(newRefKernelAPI(), prog)
	if got.wall != want.wall || got.fired != want.fired || got.pending != want.pending {
		t.Fatalf("kernel diverged: wall %v vs %v, fired %d vs %d, pending %d vs %d",
			got.wall, want.wall, got.fired, want.fired, got.pending, want.pending)
	}
	if got.resumeWall != want.resumeWall || got.resumeFired != want.resumeFired {
		t.Fatalf("resumed run diverged: wall %v vs %v, fired %d vs %d",
			got.resumeWall, want.resumeWall, got.resumeFired, want.resumeFired)
	}
	if len(got.trace) != len(want.trace) {
		t.Fatalf("trace length %d vs %d", len(got.trace), len(want.trace))
	}
	for i := range got.trace {
		if got.trace[i] != want.trace[i] {
			t.Fatalf("fire %d diverged: got id=%d at=%v, want id=%d at=%v",
				i, got.trace[i].id, got.trace[i].at, want.trace[i].id, want.trace[i].at)
		}
	}
	for i := range got.stats {
		if got.stats[i] != want.stats[i] {
			t.Fatalf("resource %d stats diverged: %+v vs %+v", i, got.stats[i], want.stats[i])
		}
	}
}

// TestKernelEquivalenceRandom replays 200 random interleavings through both
// kernels.
func TestKernelEquivalenceRandom(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 4*(8+rng.Intn(60)))
		rng.Read(prog)
		compareKernels(t, prog)
	}
}

// TestKernelEquivalenceSameInstant pins the dense same-instant regime: every
// op lands on t=0 with zero durations, so the whole run is fought out
// between the FIFO lane and heap entries on one instant.
func TestKernelEquivalenceSameInstant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prog := make([]byte, 4*120)
	rng.Read(prog)
	for i := 0; i < len(prog); i += 4 {
		prog[i] = 0   // t = 0
		prog[i+3] = 0 // dur = 0, capN = 1
	}
	compareKernels(t, prog)
}

// TestKernelEquivalenceContention drives deep waiter queues: all ops target
// resources immediately with tiny durations, exercising the ring-buffer
// queue against the slice-shift reference.
func TestKernelEquivalenceContention(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prog := make([]byte, 4*150)
	rng.Read(prog)
	for i := 0; i < len(prog); i += 4 {
		prog[i] %= 2                // arrivals bunched at t in {0, 0.25}
		prog[i+1] = 1 + prog[i+1]%2 // only use/acquire ops
	}
	compareKernels(t, prog)
}

// TestKernelEquivalenceLanes pins the fixed-lane regime: every op is a lane
// registration or a lane chain at t in {0, 0.25} with d in {0, 0.25}, so
// lane heads tie each other, heap entries and the same-instant lane.
func TestKernelEquivalenceLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for n := 0; n < 20; n++ {
		prog := make([]byte, 4*60)
		rng.Read(prog)
		for i := 0; i < len(prog); i += 4 {
			prog[i] %= 2
			prog[i+1] = 8 + prog[i+1]%2
			prog[i+3] %= 2
		}
		compareKernels(t, prog)
	}
}

// FuzzEngineOrdering feeds arbitrary byte programs through both kernels.
// Any reachable divergence in event order, clock, or statistics under
// random interleaved At/After/AfterLane/Use/Stop sequences is a crash.
func FuzzEngineOrdering(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		prog := make([]byte, 4*(4+rng.Intn(40)))
		rng.Read(prog)
		f.Add(prog)
	}
	f.Add([]byte{0, 4, 0, 0, 0, 4, 1, 0, 0, 6, 0, 0}) // bursts then stop, all at t=0
	f.Add([]byte{1, 2, 0, 4, 1, 1, 0, 0, 1, 7, 1, 0}) // acquire/use mix on one instant
	// Lanes with d=0 and d=0.25, two chains through them, then a stop.
	f.Add([]byte{0, 8, 0, 0, 0, 8, 0, 1, 0, 9, 0, 0, 0, 9, 1, 1, 1, 6, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4*256 {
			prog = prog[:4*256]
		}
		compareKernels(t, prog)
	})
}
