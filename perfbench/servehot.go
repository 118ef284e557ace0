package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"stellar/internal/pool"
	"stellar/internal/server"
)

const (
	// hotRate keeps the server about a quarter busy on the reference
	// machine, so a request's latency follows its own cost rather than the
	// queueing a slow spell on a shared host piles up.
	hotRate = 50.0 // requests per second
	// slowEvery puts MDWorkbench_8K at a fifth of requests, so the p50
	// falls inside the small families' latency mode and the p99 inside
	// MDWorkbench's, with neither on the boundary between the two.
	slowEvery = 5

	// warmHits is how many hits set-up sends after warming the hot set.
	warmHits = 256
)

type serveHot struct {
	rng    *rand.Rand
	tr     *tracer
	n      *node
	client *http.Client
	small  []*evalSpec // IOR_16M and AMReX, four seeds each
	slow   *evalSpec   // MDWorkbench_8K, one seed
}

// setupServeHot starts one server with a memory cache and warms its hot
// set, so every request in the window is a cache hit.
func setupServeHot(ctx context.Context, seed int64, tr *tracer) (system, error) {
	rng := rand.New(rand.NewSource(seed))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n, err := startNode(ln, server.Options{}, tr)
	if err != nil {
		return nil, err
	}
	s := &serveHot{rng: rng, tr: tr, n: n, client: newClient()}
	base := (1 + rng.Int63n(1_000_000)) * seedStride
	s.slow = newEvalSpec("MDWorkbench_8K", base)
	for _, fam := range []string{"IOR_16M", "AMReX"} {
		for k := int64(0); k < 4; k++ {
			s.small = append(s.small, newEvalSpec(fam, base+k*seedStride))
		}
	}
	// The slowest spec goes first so the two warming connections finish
	// together.
	all := append([]*evalSpec{s.slow}, s.small...)
	if err := warm(ctx, s.client, []*node{n}, all); err != nil {
		s.close()
		return nil, err
	}
	// Hits in the window's mix bring the hit path to its steady state
	// before the window: whatever the process keeps of recent requests
	// (the key digests of the last 128 workloads, at this writing) already
	// holds the window's mix, and the heap has grown to fit it.
	err = pool.Map(ctx, senders, warmHits, func(ctx context.Context, i int) error {
		sp := s.small[i%len(s.small)]
		if i%slowEvery == 0 {
			sp = s.slow
		}
		body, err := post(ctx, s.client, n.url+"/v1/evaluate", sp.body, "")
		if err == nil && !bytes.Equal(body, sp.want) {
			err = fmt.Errorf("warm-up hit for %s differs from its first body", sp.body)
		}
		return err
	})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serveHot) measure(ctx context.Context, window time.Duration, probe *speedProbe) (*windowResult, error) {
	var reqs []request
	slowAt := 0
	for i, due := range arrivals(s.rng, hotRate, window) {
		// Exactly one request in each block of slowEvery is MDWorkbench, at
		// a seeded place in the block: its share, and with it how many
		// MDWorkbench workloads the server's recent allocations hold,
		// stays the same all through the window.
		if i%slowEvery == 0 {
			slowAt = i + s.rng.Intn(slowEvery)
		}
		sp, class := s.small[s.rng.Intn(len(s.small))], 0
		if i == slowAt {
			sp, class = s.slow, 1
		}
		reqs = append(reqs, request{due: due, url: s.n.url + "/v1/evaluate", body: sp.body, class: class, want: sp.want})
	}

	res := &windowResult{layer: map[string]float64{}}
	before := s.n.srv.Cache().Stats()
	stopDepth := sampleQueueDepth(s.tr, []*node{s.n}, res)
	outs, slowness := servedWindow(ctx, s.client, reqs, probe, s.tr != nil)
	stopDepth()
	delta := s.n.srv.Cache().Stats().Delta(before)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res.attempted = len(reqs)
	for i, o := range outs {
		if !o.ok() {
			res.fail("request %d: %v", i, o.err)
		}
	}
	if delta.Misses != 0 {
		res.fail("%d cache misses in the steady state, want 0", delta.Misses)
	}
	all := latencies(reqs, outs, -1, slowness)
	res.latencyP50 = median(all)
	res.slowP50 = median(latencies(reqs, outs, 1, slowness))
	res.slowness = median(slowness)
	p99 := quantile(all, 0.99)
	res.report = []reportLine{
		{"evaluate_p50_ms", res.latencyP50, "ms"},
		{"evaluate_p99_ms", p99, "ms"},
		{"evaluate_mdworkbench_p50_ms", res.slowP50, "ms"},
		{"requests", float64(len(reqs)), "count"},
	}
	loadLayers(res.layer, reqs, outs, slowness, s.tr)
	cacheLayers(res.layer, delta)
	return res, nil
}

func (s *serveHot) layers(ctx context.Context, out map[string]float64) error {
	if err := buildAndKey(out, []string{"IOR_16M", "AMReX", "MDWorkbench_8K"}, serveScale, true); err != nil {
		return err
	}
	if err := queueAdmission(ctx, out); err != nil {
		return err
	}
	workout(out)
	return nil
}

func (s *serveHot) close() { s.n.close() }
