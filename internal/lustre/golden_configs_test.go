package lustre_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"testing"

	"stellar/internal/cluster"
	"stellar/internal/lustre"
	"stellar/internal/params"
	"stellar/internal/workload"
)

// configGoldenDigest pins every benchmark and real-application family, plus
// two small shapes that reach readahead and parked opens, under
// non-default configurations that drive the model's per-file state through
// its less common paths: attribute-cache eviction (a 16-entry lock LRU),
// ranks parked on in-flight statahead (wide statahead windows), statahead
// off, page-cache eviction (max_cached_mb 1, clamped to its 64 MB floor), a
// wide readahead window and readahead off. The digest covers each run's
// full Result JSON and every traced event, so a change to cache recency,
// eviction victims, waiter wake order or readahead bookkeeping shows up
// here even when the default-configuration goldens stay put.
const configGoldenDigest = "03f516ebd79269ab4f8c511e598c97d058e9f1a9060a5ed2f0fdab8e995cba7a"

var goldenConfigs = []struct {
	name string
	set  map[string]int64
}{
	{"lru16", map[string]int64{"ldlm.lru_size": 16}},
	{"statahead64", map[string]int64{"llite.statahead_max": 64}},
	{"statahead128", map[string]int64{"llite.statahead_max": 128}},
	{"statahead0", map[string]int64{"llite.statahead_max": 0}},
	{"cached1", map[string]int64{"llite.max_cached_mb": 1}},
	{"wideRA", map[string]int64{"llite.max_read_ahead_mb": 4096, "llite.max_read_ahead_per_file_mb": 2048}},
	{"noRA", map[string]int64{"llite.max_read_ahead_mb": 0}},
}

// eventHasher is a TraceSink folding every event into a running hash.
type eventHasher struct {
	h   hash.Hash
	buf [8 * 8]byte
}

func (e *eventHasher) Record(ev lustre.Event) {
	b := e.buf[:0]
	b = binary.LittleEndian.AppendUint64(b, uint64(ev.Rank))
	b = binary.LittleEndian.AppendUint64(b, uint64(ev.Op)<<32|uint64(uint32(ev.File)))
	b = binary.LittleEndian.AppendUint64(b, uint64(ev.Offset))
	b = binary.LittleEndian.AppendUint64(b, uint64(ev.Size))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ev.Start))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ev.End))
	var flags uint64
	if ev.CacheHit {
		flags |= 1
	}
	if ev.Sequential {
		flags |= 2
	}
	b = binary.LittleEndian.AppendUint64(b, flags)
	e.h.Write(b)
}

// scanWorkload has each node's first rank create, write, fsync and stat a
// directory's entries in order while the node's second rank opens and
// reads the same entries a few steps behind, so opens park on statahead
// fetches. Each node then reads the other node's files, which its page
// cache does not hold, and unlinks its own.
func scanWorkload() *workload.Workload {
	const perDir = 48
	const size = 256 << 10
	w := &workload.Workload{Name: "scan", Interface: "POSIX", Ranks: make([][]workload.Op, 4), DirCount: 2}
	for d := int32(0); d < 2; d++ {
		for i := 0; i < perDir; i++ {
			w.Files = append(w.Files, workload.FileMeta{Dir: d, Shared: true})
		}
	}
	file := func(d int32, i int) int32 { return d*perDir + int32(i) }
	for node := int32(0); node < 2; node++ {
		a, b := &w.Ranks[2*node], &w.Ranks[2*node+1]
		*b = append(*b, workload.Op{Type: workload.OpMkdir, Dir: node})
		for i := 0; i < perDir; i++ {
			f := file(node, i)
			*a = append(*a,
				workload.Op{Type: workload.OpCreate, File: f, Dir: node, Index: int32(i)},
				workload.Op{Type: workload.OpWrite, File: f, Size: size},
				workload.Op{Type: workload.OpFsync, File: f},
				workload.Op{Type: workload.OpClose, File: f})
		}
		for _, r := range []*[]workload.Op{a, b} {
			*r = append(*r, workload.Op{Type: workload.OpBarrier})
		}
		*b = append(*b, workload.Op{Type: workload.OpReaddir, Dir: node})
		for i := 0; i < perDir; i++ {
			f := file(node, i)
			*a = append(*a, workload.Op{Type: workload.OpStat, File: f, Dir: node, Index: int32(i)})
			if i >= 3 {
				g := file(node, i-3)
				*b = append(*b,
					workload.Op{Type: workload.OpOpen, File: g, Dir: node, Index: int32(i - 3)},
					workload.Op{Type: workload.OpClose, File: g})
			}
		}
		for _, r := range []*[]workload.Op{a, b} {
			*r = append(*r, workload.Op{Type: workload.OpBarrier})
		}
		other := 1 - node
		for i := 0; i < perDir; i++ {
			f := file(other, i)
			for off := int64(0); off < size; off += 64 << 10 {
				*b = append(*b, workload.Op{Type: workload.OpRead, File: f, Offset: off, Size: 64 << 10})
			}
			*a = append(*a, workload.Op{Type: workload.OpRead, File: f, Offset: int64(i%4) * (64 << 10), Size: 64 << 10})
		}
		for _, r := range []*[]workload.Op{a, b} {
			*r = append(*r, workload.Op{Type: workload.OpBarrier})
		}
		for i := 0; i < perDir; i++ {
			*a = append(*a, workload.Op{Type: workload.OpUnlink, File: file(node, i), Dir: node, Index: int32(i)})
		}
	}
	return w
}

func TestNonDefaultConfigGolden(t *testing.T) {
	spec := cluster.Default()
	reg := params.Lustre()
	h := sha256.New()
	run := func(name string, w *workload.Workload, spec cluster.Spec) {
		for _, gc := range goldenConfigs {
			cfg := params.DefaultConfig(reg)
			for k, v := range gc.set {
				cfg[k] = v
			}
			res, err := lustre.Run(context.Background(), w, lustre.Options{
				Spec: spec, Config: cfg, Seed: 3, Trace: &eventHasher{h: h},
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, gc.name, err)
			}
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			h.Write([]byte(name + "/" + gc.name + "\n"))
			h.Write(data)
		}
	}
	for _, fam := range append(workload.Benchmarks(), workload.RealApps()...) {
		w, err := workload.Catalog(fam, spec.TotalRanks(), 0.05)
		if err != nil {
			t.Fatal(err)
		}
		run(fam, w, spec)
	}
	// No catalog family at this scale reads through readahead or parks an
	// open on a statahead fetch, so two small shapes on a four-rank
	// cluster cover those paths.
	small := cluster.Default()
	small.ClientNodes, small.ProcsPerNode, small.OSTCount = 2, 2, 3
	for _, random := range []bool{false, true} {
		run(fmt.Sprintf("ior-readback-random=%v", random), workload.IOR(workload.IORSpec{
			Ranks: 4, TransferSize: 1 << 20, BlockSize: 16 << 20, Blocks: 1,
			Random: random, ReadBack: true, Seed: 7,
		}, 1.0), small)
	}
	run("scan", scanWorkload(), small)
	if got := hex.EncodeToString(h.Sum(nil)); got != configGoldenDigest {
		t.Fatalf("non-default-config results changed (digest %s, pinned %s)", got, configGoldenDigest)
	}
}
