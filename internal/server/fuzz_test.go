package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stellar/internal/platform"
)

// failingPlatform fails every run at once, so a fuzzed request never
// simulates.
type failingPlatform struct{}

func (failingPlatform) Name() string { return "failing" }

func (failingPlatform) Run(context.Context, platform.RunSpec) (*platform.RunResult, error) {
	return nil, errors.New("backend down")
}

// FuzzStreamRequests feeds arbitrary bodies to the two streamed endpoints.
// Every response is either a 4xx with the structured error envelope, or a
// 200 NDJSON stream whose first line is a header naming its job and whose
// last line is a footer, and that job has ended.
func FuzzStreamRequests(f *testing.F) {
	s, err := New(Options{Backend: failingPlatform{}, Scale: 0.05, Workers: 2, MaxSweepCells: 8})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()
	for _, seed := range []struct {
		tune bool
		body string
	}{
		{false, `{"workload":"IOR_16M","reps":2,"seed":7,"grid":{"osc.max_pages_per_rpc":[256,512],"osc.max_rpcs_in_flight":[8,16]}}`},
		{false, `{"workload":"IOR_16M","base":{"osc.max_dirty_mb":64},"grid":{"osc.max_pages_per_rpc":[256]}}`},
		{false, `{"workload":"IOR_16M","grid":{"osc.max_dirty_mb":[1,2,4,8,16,32,64,128,256]}}`},
		{false, `{"workload":"NoSuchBench","grid":{"version":[1]}}`},
		{false, `{"workload":`},
		{true, `{"workload":"IOR_16M","candidates":4,"max_reps":2,"seed":5}`},
		{true, `{"workload":"MDWorkbench_8K","space":["osc.max_dirty_mb"],"candidates":3,"eta":3,"min_reps":1,"max_reps":3}`},
		{true, `{"workload":"IOR_16M","candidates":2,"objective":{"kind":"robust"},"faults":{"seed":42,"severity":0.6},"fault_variants":2}`},
		{true, `{"workload":"IOR_16M","objective":{"kind":"composite","mean_weight":1,"tail_weight":0.5}}`},
		{true, `{"workload":"IOR_16M","faults":{"severity":-1}}`},
		{true, ``},
	} {
		f.Add(seed.tune, seed.body)
	}
	f.Fuzz(func(t *testing.T, tune bool, body string) {
		path := "/v1/sweeps"
		if tune {
			path = "/v1/tune"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			var env errorEnvelope
			if rec.Code < 400 || rec.Code > 499 || json.Unmarshal(rec.Body.Bytes(), &env) != nil ||
				env.Error.Code == "" || env.Error.Message == "" {
				t.Fatalf("%s %q: HTTP %d %s, want 200 or a 4xx envelope", path, body, rec.Code, rec.Body.Bytes())
			}
			return
		}
		lines := bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n"))
		var hdr struct {
			Job string `json:"job"`
		}
		if len(lines) < 2 || json.Unmarshal(lines[0], &hdr) != nil || hdr.Job == "" {
			t.Fatalf("%s %q: stream does not open with a job header:\n%s", path, body, rec.Body.Bytes())
		}
		var footer map[string]json.RawMessage
		if err := json.Unmarshal(lines[len(lines)-1], &footer); err != nil ||
			footer["cancelled"] == nil || footer["seconds"] == nil || footer["cache"] == nil {
			t.Fatalf("%s %q: stream does not end with a footer:\n%s", path, body, rec.Body.Bytes())
		}
		job, ok := s.jobs.get(hdr.Job)
		if !ok || !job.terminal() {
			t.Fatalf("%s %q: job %s has not ended: %+v", path, body, hdr.Job, job.view())
		}
	})
}
