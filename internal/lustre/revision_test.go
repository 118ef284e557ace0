package lustre_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"stellar/internal/cluster"
	"stellar/internal/lustre"
	"stellar/internal/params"
	"stellar/internal/workload"
)

// modelGolden digests one small default-configuration result per benchmark
// family, taken at model revision modelGoldenRevision. Run-cache keys
// carry lustre.ModelRevision, not the model's code, so a model change that
// leaves the revision alone would let every cache directory keep serving
// results the new model no longer produces.
const (
	modelGoldenRevision = 1
	modelGoldenDigest   = "1bceebcfee0df8c679ef9f9cab14bf9ff84517223f87f1ec185a4ab03a7d9db4"
)

func TestModelRevisionGolden(t *testing.T) {
	spec := cluster.Default()
	cfg := params.DefaultConfig(params.Lustre())
	h := sha256.New()
	for _, name := range workload.Benchmarks() {
		w, err := workload.Catalog(name, spec.TotalRanks(), 0.02)
		if err != nil {
			t.Fatal(err)
		}
		res, err := lustre.Run(context.Background(), w, lustre.Options{Spec: spec, Config: cfg, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(name + "\n"))
		h.Write(data)
	}
	got := hex.EncodeToString(h.Sum(nil))
	switch {
	case lustre.ModelRevision != modelGoldenRevision:
		t.Fatalf("ModelRevision is %d but the pin is for %d: update modelGoldenRevision and pin %s", lustre.ModelRevision, modelGoldenRevision, got)
	case got != modelGoldenDigest:
		t.Fatalf("model results changed (digest %s, pinned %s): bump lustre.ModelRevision and update the pin", got, modelGoldenDigest)
	}
}
