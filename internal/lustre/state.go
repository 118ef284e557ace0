package lustre

import (
	"stellar/internal/cluster"
	"stellar/internal/sim"
	"stellar/internal/workload"
)

// This file holds the model's per-run state that scales with the workload:
// per-file tables, per-node caches and OSC queues, readahead streams, and
// per-rank bookkeeping. It lives in the pooled scratch, indexed by the
// workload's dense file ids and ranks, so a run over thousands of files
// reuses the previous run's arrays instead of allocating per file.

// resize returns s with length n, reusing its backing array when it is big
// enough. The contents are stale: callers reinitialise every element.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// modelState is the runner's per-run state that scales with the workload.
// The scratch keeps it and the runner embeds it.
type modelState struct {
	files     []fileState
	fileOffs  []int64     // every file's lastOff then contigTo, back to back
	osc       []oscState  // [node*OSTCount + ost]
	metaCache []metaCache // per node lock/attribute cache
	pageCache []pageCache // per node clean data cache
	ra        raTable     // readahead streams, per (file, rank) touched
	dirFiles  [][]int32   // directory -> files in entry order

	rankSt      []rankState // per rank: ranks run their ops strictly in sequence
	statStreaks []statStreak
	parkNext    []int32 // per rank: the next rank in its rankQueue, plus one
}

// reset sizes and initialises the state for a run of w, reusing the
// previous run's arrays.
func (m *modelState) reset(eng *sim.Engine, w *workload.Workload, spec cluster.Spec, cv cfgValues) {
	nfiles, nodes, osts := len(w.Files), spec.ClientNodes, spec.OSTCount
	stride := osts + nodes
	m.files = resize(m.files, nfiles)
	m.fileOffs = resize(m.fileOffs, nfiles*stride)
	for i := range m.files {
		offs := m.fileOffs[i*stride : (i+1)*stride : (i+1)*stride]
		m.files[i] = fileState{lastOff: offs[:osts], contigTo: offs[osts:]}
		for o := range offs[:osts] {
			offs[o] = -1
		}
		clear(offs[osts:])
	}
	m.osc = resize(m.osc, nodes*osts)
	for i := range m.osc {
		o := &m.osc[i]
		o.window = sim.NewGate(eng, "osc", cv.rpcWindow)
		o.dirty = 0
		o.groups.reset()
		o.dirtyWaiters.reset()
	}
	m.metaCache = resize(m.metaCache, nodes)
	m.pageCache = resize(m.pageCache, nodes)
	for n := 0; n < nodes; n++ {
		m.metaCache[n].reset(nfiles, cv.lruSize)
		m.pageCache[n].reset(nfiles, cv.cachedBytes)
	}
	m.ra.reset()
	// Each directory's list keeps its backing array across runs.
	m.dirFiles = resize(m.dirFiles, w.DirCount)
	for d := range m.dirFiles {
		m.dirFiles[d] = m.dirFiles[d][:0]
	}
	for fi, fm := range w.Files {
		m.dirFiles[fm.Dir] = append(m.dirFiles[fm.Dir], int32(fi))
	}

	nranks := w.NumRanks()
	m.rankSt = resize(m.rankSt, nranks)
	m.statStreaks = resize(m.statStreaks, nranks)
	m.parkNext = resize(m.parkNext, nranks)
	for i := 0; i < nranks; i++ {
		m.rankSt[i] = rankState{i: -1}
		m.statStreaks[i] = statStreak{dir: -1, last: -2}
	}
}

// raTable holds the readahead streams of one run, one per (file, rank)
// pair that wrote or read the file, created zeroed on first touch. The
// streams live by value in an arena; a pointer-free open-addressing table
// with linear probing finds them, so neither lookups nor the garbage
// collector walk per-file pointers.
type raTable struct {
	slots []raSlot // power-of-two length
	arena []raState
}

type raSlot struct {
	key uint64 // raKey of the stream; 0 marks an empty slot
	idx int32  // arena index
}

// raState is one rank's readahead stream over one file.
type raState struct {
	lastEnd  int64
	streak   int
	issuedTo int64
	doneTo   int64
	waiter   int32 // readReq slot plus one parked until doneTo covers it; 0 when none
}

func raKey(file int32, rank int) uint64 {
	return (uint64(uint32(file))<<32 | uint64(uint32(rank))) + 1
}

func (t *raTable) reset() {
	if len(t.slots) == 0 {
		t.slots = make([]raSlot, 64)
	}
	clear(t.slots)
	t.arena = t.arena[:0]
}

// get returns the stream of (file, rank), creating it zeroed on first
// touch. The pointer is valid until the next get, which may grow the arena.
//
//stellar:hotpath
func (t *raTable) get(file int32, rank int) *raState {
	key := raKey(file, rank)
	mask := uint64(len(t.slots) - 1)
	for i := (key * 0x9e3779b97f4a7c15 >> 32) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == key {
			return &t.arena[s.idx]
		}
		if s.key != 0 {
			continue
		}
		if 4*(len(t.arena)+1) > 3*len(t.slots) {
			t.grow()
			return t.get(file, rank)
		}
		s.key, s.idx = key, int32(len(t.arena))
		t.arena = append(t.arena, raState{})
		return &t.arena[s.idx]
	}
}

// grow doubles the table and reinserts every stream.
func (t *raTable) grow() {
	old := t.slots
	t.slots = make([]raSlot, 2*len(old))
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := (s.key * 0x9e3779b97f4a7c15 >> 32) & mask
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// rankQueue is a FIFO of parked ranks threaded through the runner's
// per-rank parkNext links; a rank waits in at most one queue at a time.
// head and tail hold a rank plus one, so the zero value is empty.
type rankQueue struct{ head, tail int32 }

func (r *runner) park(q *rankQueue, rank int) {
	r.parkNext[rank] = 0
	if q.tail == 0 {
		q.head = int32(rank) + 1
	} else {
		r.parkNext[q.tail-1] = int32(rank) + 1
	}
	q.tail = int32(rank) + 1
}

// unpark removes and returns the longest-parked rank, or -1 when q is
// empty.
func (r *runner) unpark(q *rankQueue) int {
	if q.head == 0 {
		return -1
	}
	rank := q.head - 1
	q.head = r.parkNext[rank]
	if q.head == 0 {
		q.tail = 0
	}
	return int(rank)
}
