package main

import (
	"context"
	"net/http"
	"runtime/metrics"
	"sync"
	"time"

	"stellar/internal/llm"
	"stellar/internal/platform"
	"stellar/internal/sim"
)

// tracer records, from the benchmark's own code, what each layer of the
// system did during the traced window: spans around calls into a layer's
// public functions (platform runs, LLM completions, HTTP handling) and the
// counters those calls return. The decorators below are installed only in a
// traced run; an untraced run builds the same stack without them. Spans are
// kept in memory and summarised when the run ends.
type tracer struct {
	mu       sync.Mutex
	runMS    map[string][]float64 // lustre run time by workload family
	runNS    time.Duration        // total time inside lustre runs
	runs     int
	dataRPCs uint64
	metaRPCs uint64

	llmCalls  int
	llmNS     time.Duration
	llmTokens int

	handlerMS map[string][]float64     // handler time by route
	bySeq     map[string]time.Duration // evaluate handler time by client sequence number
}

// seqHeader carries the client's request number to the traced handler, so
// the client-observed latency and the handler's own time can be paired.
const seqHeader = "X-Perfbench-Seq"

func newTracer() *tracer {
	tr := &tracer{}
	tr.reset()
	return tr
}

// timedPlatform times every trial its inner platform executes. It keeps the
// inner platform's name so served bodies, which echo the platform name, stay
// byte-identical to an untraced run.
type timedPlatform struct {
	inner platform.Platform
	tr    *tracer
}

func (p timedPlatform) Name() string { return p.inner.Name() }

func (p timedPlatform) Run(ctx context.Context, spec platform.RunSpec) (*platform.RunResult, error) {
	t0 := time.Now()
	res, err := p.inner.Run(ctx, spec)
	d := time.Since(t0)
	p.tr.mu.Lock()
	defer p.tr.mu.Unlock()
	p.tr.runs++
	p.tr.runNS += d
	p.tr.runMS[spec.Workload.Name] = append(p.tr.runMS[spec.Workload.Name], ms(d))
	if err == nil && res.Result != nil {
		p.tr.dataRPCs += res.Result.DataRPCs
		p.tr.metaRPCs += res.Result.MetaRPCs
	}
	return res, err
}

// timedClient times every completion its inner LLM client serves.
type timedClient struct {
	inner llm.Client
	tr    *tracer
}

func (c timedClient) Complete(ctx context.Context, req *llm.Request) (*llm.Response, error) {
	t0 := time.Now()
	resp, err := c.inner.Complete(ctx, req)
	d := time.Since(t0)
	tokens := llm.RequestTokens(req)
	c.tr.mu.Lock()
	defer c.tr.mu.Unlock()
	c.tr.llmCalls++
	c.tr.llmNS += d
	c.tr.llmTokens += tokens
	return resp, err
}

// handler times every request h serves, by route.
func (tr *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		tr.mu.Lock()
		defer tr.mu.Unlock()
		tr.handlerMS[r.URL.Path] = append(tr.handlerMS[r.URL.Path], ms(d))
		if seq := r.Header.Get(seqHeader); seq != "" {
			tr.bySeq[seq] = d
		}
	})
}

// handlerTime returns the handler time recorded for a client sequence number.
func (tr *tracer) handlerTime(seq string) (time.Duration, bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	d, ok := tr.bySeq[seq]
	return d, ok
}

// reset drops everything recorded so far, so the traced window starts clean
// after set-up traffic.
func (tr *tracer) reset() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.runMS = map[string][]float64{}
	tr.runNS, tr.runs, tr.dataRPCs, tr.metaRPCs = 0, 0, 0, 0
	tr.llmCalls, tr.llmNS, tr.llmTokens = 0, 0, 0
	tr.handlerMS = map[string][]float64{}
	tr.bySeq = map[string]time.Duration{}
}

// runtimeSnap is a point-in-time read of the process counters the traced
// window reports as deltas.
type runtimeSnap struct {
	allocBytes, allocObjs uint64
	gcCPU, totalCPU       float64
	events                uint64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func snapRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeSnap{
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
		events:     sim.TotalFired(),
	}
}

// layerMetrics writes the tracer's window summary and the runtime deltas
// since before into out. Every name is written, with 0 for a layer the
// workload never called, so the traced record shows which layers a
// workload bypasses. Counts are divided by perOp when it is set, giving
// counts per operation.
func (tr *tracer) layerMetrics(out map[string]float64, before, after runtimeSnap, perOp float64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if perOp == 0 {
		perOp = 1
	}
	events := float64(after.events - before.events)
	for name, count := range map[string]float64{
		"lustre.runs":       float64(tr.runs),
		"lustre.data_rpcs":  float64(tr.dataRPCs),
		"lustre.meta_rpcs":  float64(tr.metaRPCs),
		"sim.events":        events,
		"llm.calls":         float64(tr.llmCalls),
		"llm.ms":            ms(tr.llmNS),
		"llm.prompt_tokens": float64(tr.llmTokens),
		"runtime.alloc_mb":  float64(after.allocBytes-before.allocBytes) / (1 << 20),
		"runtime.mallocs":   float64(after.allocObjs - before.allocObjs),
	} {
		out[name] = count / perOp
	}
	for _, fam := range families {
		out["lustre.run_ms."+fam] = median(tr.runMS[fam])
	}
	out["sim.events_per_s"] = ratio(events, tr.runNS.Seconds())
	out["server.handler_ms.evaluate"] = median(tr.handlerMS["/v1/evaluate"])
	out["server.handler_ms.internal_run"] = median(tr.handlerMS["/internal/v1/run"])
	out["runtime.gc_cpu_fraction"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
}

// llmTime and runTime are the traced window's totals, for self-time
// accounting of the layer that called them.
func (tr *tracer) llmTime() time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.llmNS
}

func (tr *tracer) runTime() time.Duration {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.runNS
}
