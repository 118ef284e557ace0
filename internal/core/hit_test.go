//go:build !race

package core

import (
	"context"
	"testing"

	"stellar/internal/lustre"
	"stellar/internal/params"
	"stellar/internal/platform"
	"stellar/internal/runcache"
)

// TestEvaluateBatchHitGeneratesNothing pins the cost of a batch the run
// cache answers in full: it keys catalog workloads by recipe, so the hit
// path must not grow with the workload's op count. MDWorkbench_8K has
// many times the ops of IOR_16M; before recipe keys its 8-rep hit cost
// 1387 allocs against IOR_16M's 1025 at this scale, paid to generate and
// hash op streams. The file is excluded from -race builds, where the
// detector's instrumentation and disabled sync.Pool reuse inflate counts.
func TestEvaluateBatchHitGeneratesNothing(t *testing.T) {
	cache := runcache.New(platform.Simulator{}, 0)
	eng := testEngine(t, func(o *Options) { o.Scale = 0.1; o.Platform = cache })
	ctx := context.Background()
	cfg := params.DefaultConfig(eng.Registry())
	allocs := map[string]float64{}
	for _, fam := range []string{"IOR_16M", "MDWorkbench_8K"} {
		if _, _, err := eng.Evaluate(ctx, fam, cfg, 8, 99, lustre.FaultPlan{}); err != nil {
			t.Fatal(err)
		}
		before := cache.Stats()
		allocs[fam] = testing.AllocsPerRun(10, func() {
			if _, _, err := eng.Evaluate(ctx, fam, cfg, 8, 99, lustre.FaultPlan{}); err != nil {
				t.Fatal(err)
			}
		})
		if d := cache.Stats().Delta(before); d.Misses != 0 || d.Hits != 11*8 {
			t.Fatalf("%s: timed batches were not all hits: %+v", fam, d)
		}
	}
	ior, md := allocs["IOR_16M"], allocs["MDWorkbench_8K"]
	t.Logf("allocs per 8-rep hit: IOR_16M %.0f, MDWorkbench_8K %.0f", ior, md)
	if md > 1.1*ior || md >= 500 {
		t.Fatalf("8-rep hit allocs: MDWorkbench_8K %.0f, IOR_16M %.0f; want MDWorkbench <= 1.1x IOR and < 500", md, ior)
	}
}
