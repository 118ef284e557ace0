package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"stellar/internal/platform"
	"stellar/internal/pool"
	"stellar/internal/runcache"
	"stellar/internal/server"
)

// The serving workloads share this file: in-process stellar-serve nodes,
// the requests they warm and check, and what a served window reports.

const (
	serveScale = 0.25
	serveReps  = 8
	// serveWorkers is the queue's worker count: stellar-serve's default on
	// the 2-core reference machine, fixed so the load means the same on
	// any runner.
	serveWorkers = 2
)

// seedStride separates the seeds of a workload's specs. A spec's
// repetitions run at seed + i*101 for i < reps, so specs whose seeds differ
// by at least this much never share a repetition's cache key.
const seedStride = 1000

// node is one in-process stellar-serve on a loopback listener.
type node struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

// startNode serves a new server on ln. A traced node has a timing
// decorator under its run cache and around its HTTP handler.
func startNode(ln net.Listener, opts server.Options, tr *tracer) (*node, error) {
	var backend platform.Platform = platform.Simulator{}
	if tr != nil {
		backend = timedPlatform{backend, tr}
	}
	opts.Backend = backend
	opts.Scale = serveScale
	opts.Reps = serveReps
	opts.Workers = serveWorkers
	srv, err := server.New(opts)
	if err != nil {
		ln.Close()
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		h = tr.handler(h)
	}
	n := &node{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- n.hs.Serve(ln) }()
	return n, nil
}

// close stops the listener, waits for in-flight requests and the serve
// goroutine, then drains the server's queue.
func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.hs.Shutdown(ctx)
	<-n.done
	n.srv.Close()
}

// queueDepth reads the server's queue depth through its own stats route.
func (n *node) queueDepth() int {
	rec := httptest.NewRecorder()
	n.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st server.StatsResponse
	if json.Unmarshal(rec.Body.Bytes(), &st) != nil {
		return 0
	}
	return st.Queue.Depth
}

// evalSpec is one distinct evaluate request and the body it must return.
type evalSpec struct {
	family string
	seed   int64
	body   []byte
	want   []byte
}

func newEvalSpec(family string, seed int64) *evalSpec {
	body, _ := json.Marshal(server.EvaluateRequest{Workload: family, Reps: serveReps, Seed: seed})
	return &evalSpec{family: family, seed: seed, body: body}
}

// warm sends every spec once, on at most senders connections, spreading
// them over the nodes in turn, and records each response as the body every
// later request for that spec must return byte for byte.
func warm(ctx context.Context, client *http.Client, nodes []*node, specs []*evalSpec) error {
	return pool.Map(ctx, senders, len(specs), func(ctx context.Context, i int) error {
		body, err := post(ctx, client, nodes[i%len(nodes)].url+"/v1/evaluate", specs[i].body, "")
		if err != nil {
			return fmt.Errorf("warming %s: %w", specs[i].body, err)
		}
		specs[i].want = body
		return nil
	})
}

// sampleQueueDepth polls the nodes' queue depths every 10 ms in a traced
// run until the returned stop function is called, and records the largest
// depth seen as pool.queue_depth_max.
func sampleQueueDepth(tr *tracer, nodes []*node, res *windowResult) (stop func()) {
	if tr == nil {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				for _, n := range nodes {
					if d := float64(n.queueDepth()); d > res.layer["pool.queue_depth_max"] {
						res.layer["pool.queue_depth_max"] = d
					}
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// loadLayers records what the open-loop window itself measured: its size,
// its tail, how late the generator ran, and, in a traced run, how much of
// each request's time the client and transport spent outside the handler.
func loadLayers(out map[string]float64, reqs []request, outs []outcome, slowness []float64, tr *tracer) {
	all := latencies(reqs, outs, -1, slowness)
	out["bench.requests"] = float64(len(reqs))
	out["bench.evaluate_p99_ms"] = quantile(all, 0.99)
	var lags, overhead []float64
	for i, o := range outs {
		lags = append(lags, ms(o.lag))
		if tr == nil || !o.ok() {
			continue
		}
		if h, ok := tr.handlerTime(strconv.Itoa(i)); ok {
			overhead = append(overhead, ms(o.client-h))
		}
	}
	out["bench.gen_lag_p99_ms"] = quantile(lags, 0.99)
	out["server.client_overhead_ms"] = median(overhead)
	failed := 0
	for _, o := range outs {
		if !o.ok() {
			failed++
		}
	}
	out["bench.fail_ratio"] = ratio(float64(failed), float64(len(outs)))
}

// cacheLayers records the run cache's counters over the window.
func cacheLayers(out map[string]float64, d runcache.Stats) {
	out["runcache.hits"] = float64(d.Hits)
	out["runcache.misses"] = float64(d.Misses)
	out["runcache.coalesced"] = float64(d.Coalesced)
	out["runcache.disk_hits"] = float64(d.DiskHits)
	out["runcache.disk_errs"] = float64(d.DiskErrs)
	out["runcache.evictions"] = float64(d.Evictions)
	out["runcache.hit_ratio"] = d.HitRate()
}
