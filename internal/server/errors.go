package server

import (
	"errors"
	"fmt"
	"net/http"

	"stellar/internal/pool"
	"stellar/internal/workload"
)

// Machine-readable error codes carried by every non-2xx /v1 response. The
// code is the contract — messages are for humans and may change wording;
// clients branch on Code (README documents the table).
const (
	CodeBadRequest        = "bad_request"         // malformed body or out-of-range field
	CodeUnknownWorkload   = "unknown_workload"    // workload name not in the catalog
	CodeUnknownParameter  = "unknown_parameter"   // config/grid/space names no registry entry
	CodeReadOnlyParameter = "read_only_parameter" // parameter exists but cannot be set
	CodeInvalidFaultPlan  = "invalid_fault_plan"  // fault plan fails validation
	CodeQueueFull         = "queue_full"          // backlog or tenant quota exhausted (429, Retry-After)
	CodeShuttingDown      = "shutting_down"       // queue closed; retrying this process is futile (503)
	CodeCancelled         = "cancelled"           // the caller's own context died
	CodeNotFound          = "not_found"           // no such job/experiment/endpoint
	CodeKeyMismatch       = "key_mismatch"        // fleet nodes disagree on a RunSpec key (409)
	CodeInternal          = "internal"            // unexpected failure executing the request
)

// ErrorBody is the structured error envelope: {"error": {"code", "message",
// "details"}}. Details carries optional machine-readable context (limits,
// offending names) keyed per code.
type ErrorBody struct {
	Code    string         `json:"code"`
	Message string         `json:"message"`
	Details map[string]any `json:"details,omitempty"`
}

type errorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// statusFor is the one code → HTTP status mapping (README's error table).
func statusFor(code string) int {
	switch code {
	case CodeBadRequest, CodeUnknownWorkload, CodeUnknownParameter, CodeReadOnlyParameter, CodeInvalidFaultPlan:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeKeyMismatch:
		return http.StatusConflict
	case CodeQueueFull:
		return http.StatusTooManyRequests
	case CodeShuttingDown, CodeCancelled:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// writeError writes the error envelope with its code's status.
func writeError(w http.ResponseWriter, code, format string, args ...any) {
	writeErrorBody(w, ErrorBody{Code: code, Message: fmt.Sprintf(format, args...)})
}

// writeErrorDetails is writeError with a details map attached.
func writeErrorDetails(w http.ResponseWriter, code string, details map[string]any, format string, args ...any) {
	writeErrorBody(w, ErrorBody{Code: code, Message: fmt.Sprintf(format, args...), Details: details})
}

// writeErrorFor classifies an execution or admission error (errorBodyFor) and
// writes its envelope.
func writeErrorFor(w http.ResponseWriter, err error) {
	writeErrorBody(w, *errorBodyFor(err))
}

// writeErrorBody writes body under its code's status. Every 429 carries
// Retry-After: the queue is a fast consumer, so "soon" is honest and
// clients with naive retry loops get paced instead of hammering a
// saturated node.
func writeErrorBody(w http.ResponseWriter, body ErrorBody) {
	status := statusFor(body.Code)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorEnvelope{Error: body})
}

// errorBodyFor classifies an execution error into the envelope stored on
// failed jobs, reusing the admission-time codes so a polled job reports the
// same contract as a synchronous rejection.
func errorBodyFor(err error) *ErrorBody {
	code := CodeInternal
	switch {
	case pool.IsCtxErr(err):
		code = CodeCancelled
	case errors.Is(err, pool.ErrQueueFull):
		code = CodeQueueFull
	case errors.Is(err, pool.ErrQueueClosed):
		code = CodeShuttingDown
	case errors.Is(err, workload.ErrUnknown):
		code = CodeUnknownWorkload
	}
	return &ErrorBody{Code: code, Message: err.Error()}
}

// writeUnknownWorkload rejects an unrecognized workload family with the
// nearest catalog name (when one is plausibly a typo target) in both the
// message and the machine-readable details.
func writeUnknownWorkload(w http.ResponseWriter, name string) {
	details := map[string]any{"workload": name}
	if near := workload.Nearest(name); near != "" {
		details["closest"] = near
	}
	writeErrorDetails(w, CodeUnknownWorkload, details, "%s", unknownWorkloadText(name))
}
