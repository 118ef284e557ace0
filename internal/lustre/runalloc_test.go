//go:build !race

package lustre

import (
	"context"
	"runtime"
	"testing"

	"stellar/internal/cluster"
	"stellar/internal/params"
	"stellar/internal/workload"
)

// TestPerRunAllocsFlat pins what one warm-pool run allocates in total, not
// per op: the per-file model state (file table, attribute and page caches,
// readahead streams, statahead waiters) lives in the pooled scratch, so a
// metadata-heavy family with thousands of files must cost about what a
// streaming family with a handful does. Dense per-file state used to cost
// MDWorkbench_8K 31,435 allocs and 7.3 MB per run and IO500 42,229 allocs
// and 19.5 MB, against IOR_16M's 653 allocs. The file is excluded from
// -race builds, whose instrumentation and disabled sync.Pool reuse inflate
// counts.
func TestPerRunAllocsFlat(t *testing.T) {
	// One P keeps every Get and Put on the same per-P pool slot: with more,
	// a run that migrates between Ps can leave the warm scratch in another
	// P's private slot and build a fresh one, which is pool behaviour, not
	// what this test measures.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spec := cluster.Default()
	cfg := params.DefaultConfig(params.Lustre())
	type cost struct{ allocs, bytes float64 }
	measure := func(fam string) cost {
		w, err := workload.Catalog(fam, spec.TotalRanks(), 0.1)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := Run(context.Background(), w, Options{Spec: spec, Config: cfg, Seed: 5}); err != nil {
				t.Fatal(err)
			}
		}
		// Warm the pool and its arenas to this family's high-water sizes.
		runtime.GC()
		run()
		run()
		const n = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return cost{
			allocs: float64(after.Mallocs-before.Mallocs) / n,
			bytes:  float64(after.TotalAlloc-before.TotalAlloc) / n,
		}
	}
	ior := measure("IOR_16M")
	t.Logf("IOR_16M: %.0f allocs, %.3f MB per run", ior.allocs, ior.bytes/(1<<20))
	for _, fam := range []string{"MDWorkbench_8K", "IO500"} {
		c := measure(fam)
		t.Logf("%s: %.0f allocs, %.3f MB per run", fam, c.allocs, c.bytes/(1<<20))
		if c.allocs > 3*ior.allocs || c.bytes >= 1<<20 {
			t.Errorf("%s allocates %.0f times (%.2f MB) per run; want <= 3x IOR_16M's %.0f and under 1 MB",
				fam, c.allocs, c.bytes/(1<<20), ior.allocs)
		}
	}
}
