package server

import (
	"errors"
	"net/http"

	"stellar/internal/cluster/peering"
	"stellar/internal/workload"
)

// handleInternalRun serves POST /internal/v1/run: a peer that does not own
// a RunSpec key forwards the compact spec here, and this node — the
// rendezvous owner — executes it on its local cache (hitting memory, disk,
// or the simulator exactly as a local request would) and returns the raw
// RunResult.
//
// Two properties keep the fleet sane:
//
//   - No re-forwarding: the run goes straight to s.cache, never back
//     through the fleet, so a membership disagreement between two nodes
//     degrades to misplaced cache entries instead of a forwarding loop.
//   - No queue admission: the originating node already holds a queue slot
//     for the user-facing request this run belongs to, so the bound
//     travelled with the forward. Routing internal runs through this
//     node's queue as well would double-count capacity and can deadlock a
//     saturated fleet whose nodes forward to each other in a cycle.
//
// The rebuilt spec must hash to the forwarder's key. Checking it costs a
// recipe hash, not a workload generation. A mismatch means the two nodes
// run different generator or model revisions, or rebuilt a divergent
// spec, and is rejected with 409 key_mismatch rather than silently
// measuring something else.
func (s *Server) handleInternalRun(w http.ResponseWriter, r *http.Request) {
	if s.fleet == nil {
		writeError(w, CodeNotFound, "peering is not configured on this node")
		return
	}
	var req peering.ForwardRequest
	if !decodeBody(w, r, &req) {
		return
	}
	spec, err := req.RunSpec()
	if err != nil {
		code := CodeBadRequest
		if errors.Is(err, workload.ErrUnknown) {
			code = CodeUnknownWorkload
		}
		writeError(w, code, "%v", err)
		return
	}
	if key := spec.Key(); key != req.Key {
		writeErrorDetails(w, CodeKeyMismatch,
			map[string]any{"forwarded": req.Key, "rebuilt": key},
			"rebuilt spec hashes to %.12s, forwarder sent %.12s: nodes run divergent model or generator revisions", key, req.Key)
		return
	}
	s.fleet.MarkServed()
	res, err := s.cache.Run(r.Context(), spec)
	if err != nil {
		// When the forwarder hung up (its caller cancelled) nobody reads
		// this, but the exchange still closes coherently as cancelled.
		writeErrorFor(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}
