package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// departingWriter is a ResponseWriter whose client leaves right after the
// stream's first line: the status and that line go out, every later Write
// fails.
type departingWriter struct {
	mu     sync.Mutex
	header http.Header
	first  bytes.Buffer
	writes int
}

func (w *departingWriter) Header() http.Header {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}

func (w *departingWriter) WriteHeader(int) {}

func (w *departingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes++
	if w.writes > 1 {
		return 0, errors.New("client went away")
	}
	return w.first.Write(p)
}

// TestNDJSONWriteFailureCancelsJob: when a streamed response can no
// longer be written, the sweep or tune job is cancelled, so the cells and
// rounds still to come never simulate.
func TestNDJSONWriteFailureCancelsJob(t *testing.T) {
	for _, tc := range []struct{ name, path, body string }{
		{"sweep", "/v1/sweeps", `{"workload":"IOR_16M","reps":1,"seed":7,
			"grid":{"osc.max_pages_per_rpc":[256,512,1024],"osc.max_rpcs_in_flight":[8,16]}}`},
		{"tune", "/v1/tune", `{"workload":"IOR_16M","candidates":4,"max_reps":2,"seed":5}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serve := func(w http.ResponseWriter) *Server {
				s, _ := newTestServer(t, Options{Workers: 1, Backlog: 16})
				s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
				return s
			}
			full := serve(httptest.NewRecorder()).Cache().Stats().Misses

			dw := &departingWriter{}
			s := serve(dw)
			if ran := s.Cache().Stats().Misses; ran >= full {
				t.Fatalf("%d simulations after the client left, want fewer than the full job's %d", ran, full)
			}
			var hdr struct {
				Job string `json:"job"`
			}
			if err := json.Unmarshal(dw.first.Bytes(), &hdr); err != nil || hdr.Job == "" {
				t.Fatalf("header line %q: %v", dw.first.String(), err)
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+hdr.Job, nil))
			var v JobView
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
				t.Fatal(err)
			}
			if v.Status != JobCancelled {
				t.Fatalf("job status %q after the client left, want %q", v.Status, JobCancelled)
			}
		})
	}
}
