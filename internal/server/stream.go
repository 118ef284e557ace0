package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"stellar/internal/lustre"
	"stellar/internal/params"
	"stellar/internal/pool"
	"stellar/internal/runcache"
	"stellar/internal/stats"
)

// stream is the one NDJSON job scaffold behind /v1/sweeps and /v1/tune: a
// retained job whose response is a header line, one line per completed
// unit (sweep cell, tune round), and a footer line that is also the job's
// result.
type stream struct {
	cache  *runcache.Cache
	job    *Job
	ctx    context.Context // the job's run context
	cancel context.CancelFunc
	enc    *json.Encoder
	flush  http.Flusher
	before runcache.Stats
	t0     time.Time
}

// openStream starts a streamed job of the given kind over total units and
// sends the 200 header. Once that header is out a closed queue can only be
// reported in-band, so a request arriving after shutdown gets its 503 here
// instead, and openStream returns nil. The job's context descends from the
// request (a client disconnect stops it) with its own cancel, so DELETE
// /v1/jobs/{id} works too.
func (s *Server) openStream(w http.ResponseWriter, r *http.Request, kind, target string, total int) *stream {
	if s.queue.Closed() {
		writeError(w, CodeShuttingDown, "%v", pool.ErrQueueClosed)
		return nil
	}
	st := &stream{cache: s.cache, job: s.jobs.create(kind, target), enc: json.NewEncoder(w)}
	st.ctx, st.cancel = context.WithCancel(r.Context())
	st.job.setCancel(st.cancel)
	st.job.setTotal(total)
	st.job.start()
	st.flush, _ = w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	st.before, st.t0 = s.cache.Stats(), time.Now()
	return st
}

// line writes one NDJSON line. A failed write means the client is gone:
// cancel, so the remaining units stop instead of running on unobserved.
func (st *stream) line(v any) {
	if err := st.enc.Encode(v); err != nil {
		st.cancel()
		return
	}
	if st.flush != nil {
		st.flush.Flush()
	}
}

// streamEnd is what every footer reports: whether the job was cut short,
// how long it ran, and the cache activity attributed to it.
type streamEnd struct {
	Cancelled bool
	Seconds   float64
	Cache     runcache.Stats
}

// end writes the footer built from the job's closing tallies as the last
// line and ends the job: failed with err, cancelled when the stream was cut
// short, otherwise done with the footer as its result.
func (st *stream) end(err error, footer func(streamEnd) any) {
	defer st.cancel()
	delta := st.cache.Stats().Delta(st.before)
	ctxErr := st.ctx.Err()
	// One marshal serves both the stream's last line and the retained job
	// result, so polling the job re-serves exactly what was streamed
	// (footers hold no unmarshalable values).
	data, _ := json.Marshal(footer(streamEnd{
		Cancelled: ctxErr != nil,
		Seconds:   time.Since(st.t0).Seconds(),
		Cache:     delta,
	}))
	st.line(json.RawMessage(data))
	if err == nil {
		err = ctxErr
	}
	if err != nil {
		st.job.fail(err, &delta)
		return
	}
	st.job.finish(data, &delta)
}

// evalQueued measures one configuration as a blocking task on the job
// queue, the unit sweep cells and tune evaluations share: the queue's
// worker bound is the stream's parallelism, and a full backlog parks the
// caller (backpressure on its one request) instead of failing the unit
// with ErrQueueFull. The error is the queue's outcome or else the
// measurement's own.
func (s *Server) evalQueued(ctx context.Context, tenant, wl string, cfg params.Config, reps int, seed int64, plan lustre.FaultPlan) ([]float64, stats.Summary, error) {
	var (
		walls  []float64
		sum    stats.Summary
		runErr error
	)
	if err := s.queue.DoWaitAs(ctx, tenant, func(ctx context.Context) {
		walls, sum, runErr = s.eng.Evaluate(ctx, wl, cfg, reps, seed, plan)
	}); err != nil {
		return nil, stats.Summary{}, err
	}
	return walls, sum, runErr
}

// lineError is an error as a stream line reports it. A queue closed
// mid-stream is a shutdown, not a failure of the unit, and the line says so
// explicitly since the 200 header is already out.
func lineError(err error) string {
	if errors.Is(err, pool.ErrQueueClosed) {
		return "service shutting down: " + err.Error()
	}
	return err.Error()
}
