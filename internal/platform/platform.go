// Package platform decouples the STELLAR engine from the concrete
// measurement substrate. A Platform is a swappable oracle that executes one
// (cluster, workload, configuration, seed) trial and reports the measured
// result — exactly how the paper's evaluation protocol treats the Lustre
// deployment. The default backend wraps the discrete-event Lustre
// simulator; a record/replay backend serializes results (and trace events)
// to disk for deterministic, cluster-free regression runs; future adapters
// can drive a real cluster behind the same interface.
//
// Every RunSpec has a stable content-addressed Key derived from the model
// revision, the full cluster spec, the workload's identity (its catalog
// recipe, or else its complete op streams), the configuration, and the
// seed. Two specs with equal keys describe byte-identical trials, which is
// what makes run caching (internal/runcache) and replay sound. A change to
// the model or to a catalog generator must bump lustre.ModelRevision or
// workload.Revision; golden tests in both packages enforce it.
package platform

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"stellar/internal/cluster"
	"stellar/internal/lustre"
	"stellar/internal/params"
	"stellar/internal/workload"
)

// RunSpec fully describes one measurement trial. Trace is an optional
// observer of per-operation events; it is deliberately excluded from Key
// because it does not influence the measured result.
type RunSpec struct {
	Spec     cluster.Spec
	Workload *workload.Workload
	Config   params.Config
	Seed     int64
	Faults   lustre.FaultPlan
	Trace    lustre.TraceSink
}

// RunResult is one measured trial as reported by a Platform. Clamped lists
// parameters whose proposed values were out of range and silently pulled
// back before the run — surfacing them lets callers warn instead of
// measuring a different configuration than the one proposed.
type RunResult struct {
	WallTime float64        `json:"wall_time_s"`
	Clamped  []string       `json:"clamped,omitempty"`
	Result   *lustre.Result `json:"result"`
}

// Platform executes measurement trials. Implementations must be safe for
// concurrent use and must treat the returned RunResult as immutable once
// handed out (caches share results across callers).
type Platform interface {
	// Name identifies the backend ("sim", "record", "replay", "cache(...)").
	Name() string
	// Run executes one trial. Cancelling ctx aborts the trial promptly,
	// including mid-simulation for the simulator backend.
	Run(ctx context.Context, spec RunSpec) (*RunResult, error)
}

// Key returns the content-addressed identity of the trial: a hex SHA-256
// over the model revision, the cluster spec, the workload's identity, the
// effective configuration, and the seed. It is stable across processes, so
// it doubles as the on-disk name for recorded runs.
//
// A catalog workload is identified by its recipe (family, ranks, scale,
// generator revision), so keying one generates and hashes no op. Any other
// workload — including a struct copy of a catalog one — is identified by
// its complete content, hashed on every call.
func (s RunSpec) Key() string {
	h := sha256.New()
	fmt.Fprintf(h, "model %d\n", lustre.ModelRevision)
	// Cluster spec: all fields are scalars, and %#v renders them in
	// declaration order with their field names, so any spec change alters
	// the key.
	fmt.Fprintf(h, "%#v\n", s.Spec)
	if r, ok := s.Workload.Recipe(); ok {
		fmt.Fprintf(h, "recipe %q ranks %d scale %g rev %d\n", r.Family, r.Ranks, r.Scale, r.Revision)
	} else {
		s.Workload.WriteContent(h)
	}

	names := make([]string, 0, len(s.Config))
	for k := range s.Config {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(h, "cfg %s=%d\n", k, s.Config[k])
	}
	fmt.Fprintf(h, "seed %d\n", s.Seed)
	// The fault plan only enters the digest when non-zero, so an explicit
	// zero plan keys exactly like an omitted one. It is hashed in its JSON
	// wire form, so a plan keys the same after a forward's round trip
	// (which drops empty lists and negative zeros).
	if !s.Faults.IsZero() {
		plan, err := json.Marshal(s.Faults)
		if err != nil { // NaN or Inf: Validate rejects the plan before any run
			plan = fmt.Appendf(nil, "%#v", s.Faults)
		}
		fmt.Fprintf(h, "faults %s\n", plan)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Simulator is the default Platform: the in-process discrete-event Lustre
// model. The zero value is ready to use.
type Simulator struct{}

// Name implements Platform.
func (Simulator) Name() string { return "sim" }

// Run implements Platform by executing the trial on the simulated file
// system, generating a deferred catalog workload's ops first. Reps that
// share one workload share that generation.
func (Simulator) Run(ctx context.Context, spec RunSpec) (*RunResult, error) {
	spec.Workload.Load()
	res, err := lustre.Run(ctx, spec.Workload, lustre.Options{
		Spec: spec.Spec, Config: spec.Config, Seed: spec.Seed,
		Faults: spec.Faults, Trace: spec.Trace,
	})
	if err != nil {
		return nil, err
	}
	return &RunResult{WallTime: res.WallTime, Clamped: res.Clamped, Result: res}, nil
}
