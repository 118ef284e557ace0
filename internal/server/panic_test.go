package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stellar/internal/cluster"
	"stellar/internal/params"
	"stellar/internal/platform"
	"stellar/internal/workload"
)

// panickingPlatform panics on every run while armed and runs the simulator
// otherwise.
type panickingPlatform struct{ armed atomic.Bool }

func (p *panickingPlatform) Name() string { return "panicking" }

func (p *panickingPlatform) Run(ctx context.Context, spec platform.RunSpec) (*platform.RunResult, error) {
	if p.armed.Load() {
		panic("backend exploded")
	}
	return platform.Simulator{}.Run(ctx, spec)
}

// waitTerminal polls a job until it leaves queued/running.
func waitTerminal(t *testing.T, url, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, data := get(t, url+"/v1/jobs/"+id)
		var v JobView
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status != JobQueued && v.Status != JobRunning {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, v.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBackendPanicCostsOnlyItsRequest: a panic in the backend becomes an
// internal error on the request that hit it, on every queued path, and the
// server keeps serving. Each request uses its own seeds, so no two share a
// run key.
func TestBackendPanicCostsOnlyItsRequest(t *testing.T) {
	pp := &panickingPlatform{}
	pp.armed.Store(true)
	_, ts := newTestServer(t, Options{Backend: pp, Workers: 2, Backlog: 16, Reps: 1})

	resp, data := post(t, ts.URL+"/v1/evaluate", `{"workload":"IOR_16M","reps":1,"seed":11}`)
	var env errorEnvelope
	if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal(data, &env) != nil || env.Error.Code != CodeInternal {
		t.Fatalf("evaluate: HTTP %d (%s), want 500 %s", resp.StatusCode, data, CodeInternal)
	}
	if v := waitTerminal(t, ts.URL, "job-1"); v.Status != JobFailed {
		t.Fatalf("evaluate job %q, want failed", v.Status)
	}

	_, cells, footer := sweepLines(t, ts.URL, `{"workload":"IOR_16M","reps":1,"seed":12,
		"grid":{"osc.max_pages_per_rpc":[256,512]}}`)
	if len(cells) != 2 || footer.Failed != 2 || footer.Done != 0 || footer.Cancelled {
		t.Fatalf("sweep: %d cells, footer %+v; want 2 failed cells", len(cells), footer)
	}
	for _, c := range cells {
		if !strings.Contains(c.Error, "backend exploded") {
			t.Fatalf("sweep cell %d error %q does not report the panic", c.Index, c.Error)
		}
	}

	_, _, tf := tuneLines(t, ts.URL, `{"workload":"IOR_16M","candidates":2,"max_reps":1,"seed":13}`)
	if !strings.Contains(tf.Error, "backend exploded") || tf.Cancelled {
		t.Fatalf("tune footer %+v does not carry the panic", tf)
	}

	resp, data = post(t, ts.URL+"/v1/figures/fig9", `{"seed":17}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("figure: HTTP %d (%s), want 202", resp.StatusCode, data)
	}
	var fig JobView
	if err := json.Unmarshal(data, &fig); err != nil {
		t.Fatal(err)
	}
	if v := waitTerminal(t, ts.URL, fig.ID); v.Status != JobFailed || v.Error == nil || v.Error.Code != CodeInternal {
		t.Fatalf("figure job = %+v, want failed %s", v, CodeInternal)
	}

	pp.armed.Store(false)
	if resp, data := post(t, ts.URL+"/v1/evaluate", `{"workload":"MDWorkbench_2K","reps":1,"seed":19}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate after the panics: HTTP %d (%s), want 200", resp.StatusCode, data)
	}
}

// TestClusterFallbackPanicThenRecovers: in a two-node fleet, a request sent
// to the node that does not own its run key forwards it; the owner's
// backend panics, so the forward fails and the local fallback panics too.
// The request answers 500 internal. Once the backend is disarmed, the
// identical request answers 200 instead of joining a flight that never
// ends.
func TestClusterFallbackPanicThenRecovers(t *testing.T) {
	pp := &panickingPlatform{}
	pp.armed.Store(true)
	urls, servers, _ := startCluster(t, 2, Options{Backend: pp, Workers: 2, Backlog: 8, Parallel: 2})

	const body = `{"workload":"IOR_16M","reps":1,"seed":23}`
	spec := cluster.Default()
	wl, err := workload.Defer("IOR_16M", spec.TotalRanks(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	key := platform.RunSpec{Spec: spec, Workload: wl, Config: params.DefaultConfig(params.Lustre()), Seed: 23}.Key()
	node := 0
	if servers[0].fleet.Ring().Owner(key) == servers[0].fleet.Self() {
		node = 1
	}

	client := &http.Client{Timeout: 10 * time.Second}
	send := func() (int, []byte) {
		t.Helper()
		resp, err := client.Post(urls[node]+"/v1/evaluate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("evaluate on the non-owner: %v", err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data
	}

	status, data := send()
	var env errorEnvelope
	if status != http.StatusInternalServerError || json.Unmarshal(data, &env) != nil || env.Error.Code != CodeInternal {
		t.Fatalf("armed: HTTP %d (%s), want 500 %s", status, data, CodeInternal)
	}
	if st := servers[node].fleet.Stats(); st.Forwards != 1 || st.ForwardErrs != 1 {
		t.Fatalf("non-owner stats %+v, want one failed forward", st)
	}

	pp.armed.Store(false)
	if status, data := send(); status != http.StatusOK {
		t.Fatalf("disarmed: HTTP %d (%s), want 200", status, data)
	}
}
