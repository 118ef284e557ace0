package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"stellar/internal/cluster"
	"stellar/internal/core"
	"stellar/internal/llm"
	"stellar/internal/llm/simllm"
	"stellar/internal/platform"
)

// families are the workload families the tune loop tunes, in the order
// per-family metrics are reported.
var families = []string{"IOR_16M", "IOR_64K", "MDWorkbench_8K", "IO500", "AMReX"}

// slowFamily is the family whose tuning run dominates a pass (about half of
// it), reported on its own as tune-loop's slow_p50_ms.
const slowFamily = "MDWorkbench_8K"

const (
	tuneScale = 0.25
	// tuneEngineSeed is fixed, so every run tunes the same five problems
	// and must reach the same winners; the run's seed only orders the
	// families within each pass.
	tuneEngineSeed = 1
	minPasses      = 3
	// speedupFloor is the lowest acceptable geometric mean of the five
	// families' default/best simulated wall time: the paper's quality
	// outcome, which must never drop. It read 4.05x when the benchmark was
	// defined.
	speedupFloor = 4.0
)

// stateDir holds the benchmark's files inside the checkout: the fleet's
// cache directories while a run lasts, and what the first tune-loop run
// recorded of each family's winner, so later runs can check they reach the
// same one.
var stateDir = filepath.Join(".bench_build", "perfbench-state")

type tuneLoop struct {
	rng     *rand.Rand
	tr      *tracer
	engines map[string]*core.Engine
}

// newEngine builds an engine over the bare simulator with no run cache, as
// the tuning CLI does. A traced engine gets timing decorators under its
// platform and its LLM client.
func newEngine(tr *tracer) *core.Engine {
	var client llm.Client = simllm.New(simllm.GPT4o)
	var plat platform.Platform = platform.Simulator{}
	if tr != nil {
		client = timedClient{client, tr}
		plat = timedPlatform{plat, tr}
	}
	return core.New(client, core.Options{
		Spec:          cluster.Default(),
		TuningModel:   simllm.Claude37,
		AnalysisModel: simllm.GPT4o,
		ExtractModel:  simllm.GPT4o,
		Scale:         tuneScale,
		Seed:          tuneEngineSeed,
		Platform:      plat,
	})
}

// setupTuneLoop builds one engine per family, runs each engine's offline
// RAG extraction, and warms up with one tuning run of each family.
func setupTuneLoop(ctx context.Context, seed int64, tr *tracer) (system, error) {
	t := &tuneLoop{rng: rand.New(rand.NewSource(seed)), tr: tr, engines: map[string]*core.Engine{}}
	for _, fam := range families {
		eng := newEngine(tr)
		if _, err := eng.Tunables(ctx); err != nil {
			return nil, err
		}
		t.engines[fam] = eng
	}
	for _, fam := range families {
		if _, err := t.engines[fam].Tune(ctx, fam); err != nil {
			return nil, err
		}
		t.engines[fam].SetRules(nil)
	}
	return t, nil
}

// tuneOutcome is what a tuning run must reproduce exactly: the winning
// configuration and the speedup series of every attempt.
type tuneOutcome struct {
	Best     map[string]int64 `json:"best"`
	Speedups []float64        `json:"speedups"`
}

// measure runs passes until the window is over, and at least minPasses.
// A pass's time is the sum of its five tuning runs, each scaled by the
// machine's mean slowness just before and just after it. Before each probe
// the heap is collected, so the probe runs on an idle machine and each
// tuning run starts from the same heap, as it would in a fresh process.
func (t *tuneLoop) measure(ctx context.Context, window time.Duration, probe *speedProbe) (*windowResult, error) {
	res := &windowResult{}
	seen := map[string]string{}
	var passMS, slowness []float64
	famMS := map[string][]float64{}
	var tuneNS time.Duration
	var usage llm.Usage
	attempts := 0
	speedup := map[string]float64{}

	start := time.Now()
	for p := 0; p < minPasses || time.Since(start) < window; p++ {
		pass := 0.0
		before := idleSlowness(probe)
		for _, i := range t.rng.Perm(len(families)) {
			fam := families[i]
			eng := t.engines[fam]
			// Rules accumulate across tuning runs on one engine; clearing
			// them makes every pass tune each family from scratch.
			eng.SetRules(nil)
			r0 := time.Now()
			r, err := eng.Tune(ctx, fam)
			d := time.Since(r0)
			after := idleSlowness(probe)
			slow := (before + after) / 2
			before = after
			res.attempted++
			if err != nil {
				if ctx.Err() != nil {
					return nil, err
				}
				res.fail("tune %s: %v", fam, err)
				continue
			}
			slowness = append(slowness, slow)
			pass += ms(d) / slow
			tuneNS += d
			famMS[fam] = append(famMS[fam], ms(d)/slow)
			out, _ := json.Marshal(tuneOutcome{Best: r.Best.Config, Speedups: r.Speedups()})
			if prev, ok := seen[fam]; ok && prev != string(out) {
				res.fail("tune %s: pass %d reached %s, an earlier pass %s", fam, p, out, prev)
			}
			seen[fam] = string(out)
			speedup[fam] = r.History[0].WallTime / r.Best.WallTime
			attempts += len(r.History) - 1
			for _, u := range r.Usage {
				usage.Add(u)
			}
		}
		passMS = append(passMS, pass)
	}
	passes := float64(len(passMS))

	if err := checkGolden(seen, res); err != nil {
		return nil, err
	}
	logSum := 0.0
	for _, fam := range families {
		logSum += math.Log(speedup[fam])
	}
	geomean := math.Exp(logSum / float64(len(families)))
	if geomean < speedupFloor {
		res.fail("tuning quality dropped: speedup geomean %.3fx is below the %.1fx floor", geomean, speedupFloor)
	}

	res.latencyP50 = median(passMS)
	res.slowP50 = median(famMS[slowFamily])
	res.slowness = median(slowness)
	res.report = []reportLine{
		{"tune_pass_s", res.latencyP50 / 1000, "s"},
		{"tune_speedup_geomean", geomean, "x"},
		{"tune_" + slowFamily + "_s", res.slowP50 / 1000, "s"},
	}
	res.layer = map[string]float64{
		"core.tune_speedup_geomean": geomean,
		"agents.attempts":           float64(attempts) / passes,
		"llm.cache_hit_rate":        usage.CacheHitRate(),
	}
	if t.tr != nil {
		self := tuneNS - t.tr.runTime() - t.tr.llmTime()
		res.layer["core.tune_self_ms"] = ms(self) / passes
		res.perOp = passes
	}
	return res, nil
}

// checkGolden compares each family's outcome with the one the first run in
// this checkout recorded, and records it if there is none yet.
func checkGolden(seen map[string]string, res *windowResult) error {
	path := filepath.Join(stateDir, "tune-loop.golden.json")
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		out, err := json.MarshalIndent(seen, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(stateDir, 0o755); err != nil {
			return err
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, out, 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	}
	if err != nil {
		return err
	}
	var golden map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for fam, got := range seen {
		if want, ok := golden[fam]; ok && want != got {
			res.fail("tune %s reached %s, an earlier run %s", fam, got, want)
		}
	}
	return nil
}

func (t *tuneLoop) layers(ctx context.Context, out map[string]float64) error {
	eng := newEngine(nil)
	var extract []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := eng.Offline(ctx); err != nil {
			return err
		}
		extract = append(extract, ms(time.Since(t0)))
	}
	out["rag.extract_ms"] = median(extract)
	if err := buildAndKey(out, families, tuneScale, false); err != nil {
		return err
	}
	if err := lustreAllocs(ctx, out, families, tuneScale); err != nil {
		return err
	}
	workout(out)
	return nil
}

func (t *tuneLoop) close() {}

// idleSlowness collects the heap, then probes the machine's speed.
func idleSlowness(probe *speedProbe) float64 {
	runtime.GC()
	return probe.slowness(5)
}
