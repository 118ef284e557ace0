package main

import "time"

// The machines this benchmark runs on share their cores with other
// tenants, and their speed flips between a fast and a slow state every few
// seconds: the same deterministic work takes up to 1.6x longer in the slow
// state. A wall-clock time taken in one state cannot be compared with one
// taken in the other, so every end-to-end time is reported in
// reference-machine units: the measured time divided by the machine's
// slowness at that moment: how long a fixed probe takes then, relative to
// how long it takes on the reference machine in its fast state.
//
// The probe is Go code of the benchmark's own that no code of the system
// under test takes part in, so no change to the system can move it. It
// updates and reads a map and keeps a 4-ary heap: measured second by second
// beside the tuning loop and the key-and-build hit path, its time tracked
// theirs closest of the mixes tried (log-correlation 0.98, leaving 4-6% of
// their 15-20% second-to-second spread). It allocates nothing, so it never
// pays for the system's garbage collection, and it keeps its data in the
// core's private caches, so a busy system beside it slows it little.

// probeRef is the probe's time on the reference machine, a 2-core Xeon at
// 2.1 GHz, in its fast state.
const probeRef = 1400 * time.Microsecond

type speedProbe struct {
	heap []float64
	m    map[uint64]uint64
	sink uint64
}

func newSpeedProbe() *speedProbe {
	return &speedProbe{heap: make([]float64, 0, 4096), m: make(map[uint64]uint64, 8192)}
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// run does the probe's fixed work once and returns how long it took.
func (p *speedProbe) run() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	h := p.heap[:0]
	for i := 0; i < 6000; i++ {
		x = xorshift(x)
		h = append(h, float64(x%1e6))
		for j := len(h) - 1; j > 0; {
			up := (j - 1) / 4
			if h[up] <= h[j] {
				break
			}
			h[up], h[j] = h[j], h[up]
			j = up
		}
		if len(h) > 2048 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			for j := 0; ; {
				best := 4*j + 1
				if best >= len(h) {
					break
				}
				for k := best + 1; k < 4*j+5 && k < len(h); k++ {
					if h[k] < h[best] {
						best = k
					}
				}
				if h[j] <= h[best] {
					break
				}
				h[j], h[best] = h[best], h[j]
				j = best
			}
		}
	}
	p.heap = h
	for round := 0; round < 4; round++ {
		clear(p.m)
		for i := 0; i < 4096; i++ {
			x = xorshift(x)
			p.m[x%8192] += uint64(i)
		}
		for i := uint64(0); i < 8192; i++ {
			p.sink += p.m[i]
		}
	}
	p.sink += uint64(h[0])
	return time.Since(t0)
}

// slowness runs the probe n times and returns the median time over
// probeRef: 1 on the reference machine in its fast state, above 1 in a
// slow one.
func (p *speedProbe) slowness(n int) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(p.run())
	}
	return median(xs) / float64(probeRef)
}

// probeSample is one probe run during a served window.
type probeSample struct {
	at   time.Time
	took time.Duration
}

// sample runs the probe every interval in the background until the
// returned stop function is called, which returns the samples.
func (p *speedProbe) sample(interval time.Duration) (stop func() []probeSample) {
	var samples []probeSample
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				took := p.run()
				samples = append(samples, probeSample{time.Now(), took})
			}
		}
	}()
	return func() []probeSample {
		close(quit)
		<-done
		return samples
	}
}

// slownessAt returns the median slowness of the samples within span of t,
// or of all samples when fewer than three are that close.
func slownessAt(samples []probeSample, t time.Time, span time.Duration) float64 {
	var near, all []float64
	for _, s := range samples {
		v := float64(s.took) / float64(probeRef)
		all = append(all, v)
		if d := s.at.Sub(t); d > -span && d < span {
			near = append(near, v)
		}
	}
	switch {
	case len(near) >= 3:
		return median(near)
	case len(all) > 0:
		return median(all)
	}
	return 1
}
