// Command perfbench is the STELLAR benchmark. It runs one workload for a
// fixed time and prints, as the last line of its standard output, one JSON
// object: whether every output check passed, how many operations it
// attempted and how many failed, and its metrics. With --trace 0 those are
// the end-to-end metrics BENCHMARK.json lists, measured with no tracing in
// the stack; with --trace 1 they are its per-layer metrics, taken from a
// second stack with timing decorators installed. See README.md for the
// workloads, the metrics and which layer should move which end-to-end
// number.
//
// Run it from the root of a checkout, through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload serve-hot --seed 3 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 3 --seconds 30 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// workloadDef is one benchmark workload: setup builds the system under test
// and warms it; tr is nil for an untraced stack.
type workloadDef struct {
	name  string
	setup func(ctx context.Context, seed int64, tr *tracer) (system, error)
}

var workloads = []workloadDef{
	{"tune-loop", setupTuneLoop},
	{"serve-hot", setupServeHot},
	{"fleet-churn", setupFleetChurn},
}

// system is a set-up workload, ready to measure.
type system interface {
	// measure runs the timed window and checks every output. Its times
	// are in reference-machine units, scaled by the probe (see speed.go).
	measure(ctx context.Context, window time.Duration, probe *speedProbe) (*windowResult, error)
	// layers adds the per-layer metrics of direct calls into the layers,
	// made with the workload's own inputs after the window.
	layers(ctx context.Context, out map[string]float64) error
	close()
}

// windowResult is what one timed window measured.
type windowResult struct {
	latencyP50 float64 // ms: the workload's unit of user work, at the median
	slowP50    float64 // ms: the median of the workload's slow class
	slowness   float64 // the machine's median slowness during the window
	attempted  int
	failed     int
	problems   []string           // failed output checks
	report     []reportLine       // the workload's own metrics, for people
	layer      map[string]float64 // per-layer values the window itself measured
	// perOp divides the traced window's counts into per-operation counts
	// (tune-loop: per pass); 0 reports them per window.
	perOp float64
}

// reportLine is one human-readable metric printed before the JSON result.
type reportLine struct {
	name  string
	value float64
	unit  string
}

func (r *windowResult) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setupRuns is how many times an untraced run sets its workload up; the
// median is reported as setup_s.
const setupRuns = 3

func main() {
	name := flag.String("workload", "", "workload to run: tune-loop, serve-hot, fleet-churn, or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run, 0 = end-to-end metrics")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	switch {
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	case *name == "all":
		err = runAll(ctx, *seed, *seconds, *trace)
	default:
		err = run(ctx, *name, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, name string, seed int64, seconds float64, traced bool) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == name {
			def = &workloads[i]
		}
	}
	if def == nil || !spec.hasWorkload(name) {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", seconds)
	}
	window := time.Duration(seconds * float64(time.Second))

	var res *windowResult
	values := map[string]float64{}
	probe := newSpeedProbe()
	if !traced {
		res, err = measureUntraced(ctx, def, seed, window, probe, values)
	} else {
		res, err = measureTraced(ctx, def, seed, window, probe, values)
	}
	if err != nil {
		return err
	}

	units := spec.units(traced)
	for _, line := range res.report {
		fmt.Printf("%-12s %-26s %14.4f %s\n", name, line.name, line.value, line.unit)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	out := result{
		Correct:   len(res.problems) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metric{},
	}
	for m, unit := range units {
		v, ok := values[m]
		if !ok && !traced {
			return fmt.Errorf("metric %q was not measured", m)
		}
		// A per-layer metric nobody set belongs to a layer this workload
		// never calls: it reads 0.
		out.Metrics[m] = metric{Value: finite(v), Unit: unit}
	}
	for m := range values {
		if _, ok := units[m]; !ok {
			return fmt.Errorf("metric %q is not listed in BENCHMARK.json", m)
		}
	}
	if out.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measureUntraced sets the workload up setupRuns times, timing each, and
// measures the last set-up with no tracing in the stack. Each set-up's time
// is scaled by the machine's slowness just before and after it.
func measureUntraced(ctx context.Context, def *workloadDef, seed int64, window time.Duration, probe *speedProbe, values map[string]float64) (*windowResult, error) {
	var sys system
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if sys != nil {
			sys.close()
		}
		before := probe.slowness(5)
		t0 := time.Now()
		var err error
		if sys, err = def.setup(ctx, seed, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		runtime.GC()
		took := time.Since(t0).Seconds()
		setups = append(setups, took/((before+probe.slowness(5))/2))
	}
	stopRSS := sampleRSS()
	res, err := sys.measure(ctx, window, probe)
	rss := stopRSS()
	sys.close()
	if err != nil {
		return nil, err
	}
	values["setup_s"] = median(setups)
	values["rss_mb"] = median(rss)
	values["latency_p50_ms"] = res.latencyP50
	values["slow_p50_ms"] = res.slowP50
	res.report = append(res.report,
		reportLine{"setup_s", values["setup_s"], "s"},
		reportLine{"rss_mb", values["rss_mb"], "MB"},
		reportLine{"peak_rss_mb", peakRSSMB(), "MB"},
		reportLine{"fail_ratio", ratio(float64(res.failed), float64(res.attempted)), "ratio"},
		reportLine{"slowness", res.slowness, "x"})
	return res, nil
}

// measureTraced measures an untraced stack for a quarter of the window,
// then a traced stack for the whole window, and reports the traced stack's
// per-layer metrics, the direct layer calls, and the tracing overhead: how
// much the traced window's end-to-end numbers differ from the untraced ones.
func measureTraced(ctx context.Context, def *workloadDef, seed int64, window time.Duration, probe *speedProbe, values map[string]float64) (*windowResult, error) {
	plain, err := def.setup(ctx, seed, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	base, err := plain.measure(ctx, window/4, probe)
	plain.close()
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	sys, err := def.setup(ctx, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer sys.close()
	runtime.GC()
	tr.reset()
	before := snapRuntime()
	res, err := sys.measure(ctx, window, probe)
	if err != nil {
		return nil, err
	}
	after := snapRuntime()
	values["bench.slowness"] = res.slowness
	values["runtime.peak_rss_mb"] = peakRSSMB()
	tr.layerMetrics(values, before, after, res.perOp)
	for k, v := range res.layer {
		values[k] = v
	}
	if err := sys.layers(ctx, values); err != nil {
		return nil, fmt.Errorf("layer calls: %w", err)
	}
	values["bench.trace_overhead_pct"] = 100 * (ratio(res.latencyP50, base.latencyP50) - 1)
	values["bench.trace_overhead_slow_pct"] = 100 * (ratio(res.slowP50, base.slowP50) - 1)

	res.attempted += base.attempted
	res.failed += base.failed
	res.problems = append(base.problems, res.problems...)
	return res, nil
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finite keeps the JSON encodable: a latency made infinite by a failed
// request is reported as a very large number (the run is incorrect anyway).
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 1e12
	}
	return v
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metric
// names and units it must report, so the two cannot drift apart.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the root of the checkout: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func (s *benchSpec) units(perLayer bool) map[string]string {
	list := s.EndToEnd
	if perLayer {
		list = s.PerLayer
	}
	out := make(map[string]string, len(list))
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 { return statusMB("VmHWM:") }

// statusMB reads one kB field of /proc/self/status, in MiB (0 if absent).
func statusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == field {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// sampleRSS reads the resident set size every 100 ms until the returned
// stop function is called, which returns the samples in MiB. A garbage
// collected process's peak depends on where its collections happen to
// fall, and reads 90 to 110 MiB from run to run on the same inputs; the
// median over the window repeats far closer.
func sampleRSS() (stop func() []float64) {
	var samples []float64
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				samples = append(samples, statusMB("VmRSS:"))
			}
		}
	}()
	return func() []float64 {
		close(quit)
		<-done
		return samples
	}
}

// runAll runs every workload in its own process, one after another, and
// prints each one's report; the last line sums their results, with each
// metric prefixed by its workload.
func runAll(ctx context.Context, seed int64, seconds float64, trace int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		cmd := exec.CommandContext(ctx, exe, "--workload", w.name,
			"--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return fmt.Errorf("%s: result: %w", w.name, err)
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for n, m := range r.Metrics {
			all.Metrics[w.name+"/"+n] = m
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
