package main

import (
	"context"
	"time"

	"stellar/internal/cluster"
	"stellar/internal/params"
	"stellar/internal/platform"
	"stellar/internal/pool"
	"stellar/internal/sim"
	"stellar/internal/workload"
)

// The direct layer calls below run after a traced window, one at a time,
// with the inputs the workload itself uses: its families, scale, cluster
// and the default configuration every served request measures.

// buildAndKey times workload.Catalog and, with key set, RunSpec.Key for
// each family. Every key is taken on a freshly built workload, so the
// per-workload digest memo never answers it.
func buildAndKey(out map[string]float64, fams []string, scale float64, key bool) error {
	spec := cluster.Default()
	cfg := params.DefaultConfig(params.Lustre())
	for _, fam := range fams {
		var builds, keys []float64
		for i := 0; i < 12; i++ {
			t0 := time.Now()
			w, err := workload.Catalog(fam, spec.TotalRanks(), scale)
			if err != nil {
				return err
			}
			builds = append(builds, us(time.Since(t0)))
			if key {
				t0 = time.Now()
				platform.RunSpec{Spec: spec, Workload: w, Config: cfg, Seed: 7}.Key()
				keys = append(keys, us(time.Since(t0)))
			}
		}
		out["workload.build_us."+fam] = median(builds)
		if key {
			out["platform.key_us."+fam] = median(keys)
		}
	}
	return nil
}

// lustreAllocs counts the allocations of one default-configuration
// simulation of each family, taken on the second run so the model's
// scratch pools are warm.
func lustreAllocs(ctx context.Context, out map[string]float64, fams []string, scale float64) error {
	spec := cluster.Default()
	cfg := params.DefaultConfig(params.Lustre())
	for _, fam := range fams {
		w, err := workload.Catalog(fam, spec.TotalRanks(), scale)
		if err != nil {
			return err
		}
		var before, after runtimeSnap
		for i := 0; i < 2; i++ {
			before = snapRuntime()
			if _, err := (platform.Simulator{}).Run(ctx, platform.RunSpec{Spec: spec, Workload: w, Config: cfg, Seed: 7}); err != nil {
				return err
			}
			after = snapRuntime()
		}
		out["lustre.allocs_per_run."+fam] = float64(after.allocObjs - before.allocObjs)
		out["lustre.alloc_mb_per_run."+fam] = float64(after.allocBytes-before.allocBytes) / (1 << 20)
	}
	return nil
}

// queueAdmission times pool.Queue.DoAs on a queue shaped like the server's
// (its workers and backlog, the anonymous tenant): the time from the call
// until the job starts on a worker.
func queueAdmission(ctx context.Context, out map[string]float64) error {
	q := pool.NewTenantQueue(serveWorkers, 64, 0)
	defer q.Close()
	var admit []float64
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		var started time.Duration
		if err := q.DoAs(ctx, "", func(context.Context) { started = time.Since(t0) }); err != nil {
			return err
		}
		admit = append(admit, us(started))
	}
	out["pool.admit_us"] = median(admit)
	return nil
}

// workout measures the bare event kernel on its fixed synthetic mix, the
// reference the model-level event rates can be read against.
func workout(out map[string]float64) {
	const chains, ops, rounds = 64, 256, 8
	sim.Workout(chains, ops)
	t0 := time.Now()
	var events uint64
	for i := 0; i < rounds; i++ {
		events += sim.Workout(chains, ops)
	}
	out["sim.workout_events_per_s"] = float64(events) / time.Since(t0).Seconds()
}
