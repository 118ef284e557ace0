package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"stellar/internal/cluster"
	"stellar/internal/cluster/peering"
	"stellar/internal/params"
	"stellar/internal/platform"
	"stellar/internal/runcache"
	"stellar/internal/server"
	"stellar/internal/workload"
)

const (
	fleetRate = 50.0 // requests per second, for the same reason as hotRate
	// fleetCacheSize is each node's memory cache, in runs, against a
	// working set of fleetSpecs specs of serveReps runs each: most reads
	// fall through to the shared disk tier.
	fleetCacheSize = 64
	fleetSpecs     = 64
	// coldShare of requests ask for a new IOR_16M seed, which simulates
	// and writes through to disk.
	coldShare = 0.05
	// coldSeedOffset puts cold seeds far from the working set's.
	coldSeedOffset = 1 << 30
)

// fleetFamilies make up the working set, half of its specs each.
var fleetFamilies = []string{"IOR_16M", "AMReX"}

type fleetChurn struct {
	rng      *rand.Rand
	tr       *tracer
	dir      string
	nodes    []*node
	client   *http.Client
	specs    []*evalSpec
	coldBase int64
	colds    int
}

// setupFleetChurn starts two nodes peered over loopback that share one
// cache directory, and writes the working set through to it.
func setupFleetChurn(ctx context.Context, seed int64, tr *tracer) (system, error) {
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(stateDir, "fleet-cache-")
	if err != nil {
		return nil, err
	}
	f := &fleetChurn{rng: rand.New(rand.NewSource(seed)), tr: tr, dir: dir, client: newClient()}
	var lns []net.Listener
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			os.RemoveAll(dir)
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	for i, ln := range lns {
		n, err := startNode(ln, server.Options{
			CacheSize: fleetCacheSize, CacheDir: dir,
			Peers: addrs, Self: addrs[i],
		}, tr)
		if err != nil {
			for _, l := range lns[i+1:] {
				l.Close()
			}
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
	}

	base := (1 + f.rng.Int63n(1_000_000)) * seedStride
	f.coldBase = base + coldSeedOffset
	for k := 0; k < fleetSpecs; k++ {
		fam := fleetFamilies[k%len(fleetFamilies)]
		f.specs = append(f.specs, newEvalSpec(fam, base+int64(k/len(fleetFamilies))*seedStride))
	}
	if err := warm(ctx, f.client, f.nodes, f.specs); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleetChurn) measure(ctx context.Context, window time.Duration, probe *speedProbe) (*windowResult, error) {
	var reqs []request
	for i, due := range arrivals(f.rng, fleetRate, window) {
		url := f.nodes[i%len(f.nodes)].url + "/v1/evaluate"
		if f.rng.Float64() < coldShare {
			sp := newEvalSpec("IOR_16M", f.coldBase+int64(f.colds)*seedStride)
			f.colds++
			reqs = append(reqs, request{due: due, url: url, body: sp.body, class: 1})
			continue
		}
		sp := f.specs[f.rng.Intn(len(f.specs))]
		reqs = append(reqs, request{due: due, url: url, body: sp.body, want: sp.want})
	}

	res := &windowResult{layer: map[string]float64{}}
	cacheBefore, fleetBefore := f.stats()
	stopDepth := sampleQueueDepth(f.tr, f.nodes, res)
	outs, slowness := servedWindow(ctx, f.client, reqs, probe, f.tr != nil)
	stopDepth()
	cacheAfter, fleetAfter := f.stats()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cache := cacheAfter.Delta(cacheBefore)
	fleet := fleetAfter.Delta(fleetBefore)

	res.attempted = len(reqs)
	cold := 0
	for i, o := range outs {
		if !o.ok() {
			res.fail("request %d: %v", i, o.err)
			continue
		}
		if reqs[i].class != 1 {
			continue
		}
		cold++
		// The other node must serve the new spec byte for byte the same.
		other := f.nodes[(i+1)%len(f.nodes)].url + "/v1/evaluate"
		body, err := post(ctx, f.client, other, reqs[i].body, "")
		if err != nil || !bytes.Equal(body, o.body) {
			res.fail("new spec %s: the other node returned a different body (err %v)", reqs[i].body, err)
		}
	}
	if want := uint64(cold * serveReps); cache.Misses != want {
		res.fail("cluster-wide cache misses %d, want %d (%d new specs x %d reps)", cache.Misses, want, cold, serveReps)
	}
	if fleet.ForwardErrs != 0 {
		res.fail("%d forwards failed", fleet.ForwardErrs)
	}
	if cache.DiskErrs != 0 {
		res.fail("%d disk tier errors", cache.DiskErrs)
	}

	all := latencies(reqs, outs, -1, slowness)
	colds := latencies(reqs, outs, 1, slowness)
	res.latencyP50 = median(all)
	res.slowP50 = median(colds)
	res.slowness = median(slowness)
	res.report = []reportLine{
		{"evaluate_p50_ms", res.latencyP50, "ms"},
		{"evaluate_p99_ms", quantile(all, 0.99), "ms"},
		{"cold_p50_ms", res.slowP50, "ms"},
		{"cold_p90_ms", quantile(colds, 0.9), "ms"},
		{"requests", float64(len(reqs)), "count"},
		{"cold_requests", float64(len(colds)), "count"},
	}
	loadLayers(res.layer, reqs, outs, slowness, f.tr)
	res.layer["bench.cold_p90_ms"] = quantile(colds, 0.9)
	cacheLayers(res.layer, cache)
	res.layer["peering.forwards"] = float64(fleet.Forwards)
	res.layer["peering.forward_errs"] = float64(fleet.ForwardErrs)
	res.layer["peering.served_forwards"] = float64(fleet.ServedForwards)
	res.layer["peering.forward_share"] = ratio(float64(fleet.Forwards), float64(fleet.Forwards+fleet.Local))
	return res, nil
}

// stats sums the nodes' cache and peering counters.
func (f *fleetChurn) stats() (runcache.Stats, peering.Stats) {
	var c runcache.Stats
	var p peering.Stats
	for _, n := range f.nodes {
		s := n.srv.Cache().Stats()
		c.Hits += s.Hits
		c.Misses += s.Misses
		c.Coalesced += s.Coalesced
		c.Evictions += s.Evictions
		c.DiskHits += s.DiskHits
		c.DiskErrs += s.DiskErrs
		fs := n.srv.Platform().(*peering.Fleet).Stats()
		p.Local += fs.Local
		p.Forwards += fs.Forwards
		p.ForwardErrs += fs.ForwardErrs
		p.ServedForwards += fs.ServedForwards
	}
	return c, p
}

func (f *fleetChurn) layers(ctx context.Context, out map[string]float64) error {
	if err := buildAndKey(out, fleetFamilies, serveScale, true); err != nil {
		return err
	}
	if err := f.diskHits(ctx, out); err != nil {
		return err
	}
	if err := lustreAllocs(ctx, out, []string{"IOR_16M"}, serveScale); err != nil {
		return err
	}
	if err := queueAdmission(ctx, out); err != nil {
		return err
	}
	workout(out)
	return nil
}

// diskHits times runcache.Cache.Run on the working set's runs through a
// fresh cache over the shared directory, so every call is a disk hit.
func (f *fleetChurn) diskHits(ctx context.Context, out map[string]float64) error {
	c := runcache.NewWithOptions(noBackend{}, runcache.Options{Capacity: 1, Dir: f.dir})
	spec := cluster.Default()
	cfg := params.DefaultConfig(params.Lustre())
	built := map[string]*workload.Workload{}
	var times []float64
	for _, sp := range f.specs {
		w := built[sp.family]
		if w == nil {
			var err error
			if w, err = workload.Catalog(sp.family, spec.TotalRanks(), serveScale); err != nil {
				return err
			}
			built[sp.family] = w
		}
		for r := 0; r < serveReps; r++ {
			rs := platform.RunSpec{Spec: spec, Workload: w, Config: cfg, Seed: sp.seed + int64(r)*101}
			rs.Key() // keep the op-stream digest out of the timed call
			t0 := time.Now()
			if _, err := c.Run(ctx, rs); err != nil {
				return fmt.Errorf("disk hit for %s rep %d: %w", sp.body, r, err)
			}
			times = append(times, us(time.Since(t0)))
		}
	}
	if st := c.Stats(); st.DiskHits != uint64(len(times)) {
		return fmt.Errorf("%d of %d direct cache calls were disk hits", st.DiskHits, len(times))
	}
	out["runcache.disk_hit_us"] = median(times)
	return nil
}

// noBackend refuses every run: a direct cache call that is not a disk hit
// fails instead of simulating.
type noBackend struct{}

func (noBackend) Name() string { return "none" }

func (noBackend) Run(context.Context, platform.RunSpec) (*platform.RunResult, error) {
	return nil, fmt.Errorf("not in the cache directory")
}

func (f *fleetChurn) close() {
	for _, n := range f.nodes {
		n.close()
	}
	os.RemoveAll(f.dir)
}
