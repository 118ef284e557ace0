package lustre

import (
	"context"
	"math/rand"

	"stellar/internal/cluster"
	"stellar/internal/sim"
	"stellar/internal/workload"
)

// memcpyBW models client-side page copies (bytes/second).
const memcpyBW = 8e9

// localHitTime is the cost of a metadata operation fully served by the
// client lock/attribute cache.
const localHitTime = 4e-6

// noiseAmp is the multiplicative jitter applied to every service time;
// different seeds produce run-to-run variance of a few percent, mirroring
// the paper's 8-repetition averaging protocol.
const noiseAmp = 0.04

type runner struct {
	eng  *sim.Engine
	sc   *scratch
	spec cluster.Spec
	cfg  cfgValues
	w    *workload.Workload
	rng  *rand.Rand
	sink TraceSink

	// faults is the compiled fault schedule, nil on clean runs so the
	// zero-fault hot path (and its rng draw order) is untouched.
	faults *faultState

	nodeNIC    []*sim.Pipe
	ostNIC     []*sim.Pipe
	ostThreads []*sim.Resource // seek/setup stage (NCQ-style overlap)
	ostBW      []*sim.Pipe     // serialized media bandwidth
	mds        *sim.Resource
	dirLock    []*sim.Resource

	// Fixed-delay event lanes for the model's three constant delays: one
	// network leg (NetworkRTT/2), the per-op think time (ComputePerOp) and
	// a client-cache hit (localHitTime). Scheduling through them orders
	// events exactly as After would, without a heap sift.
	halfRTT sim.Lane
	think   sim.Lane
	hitTime sim.Lane

	mdc      []*sim.Gate // per node, non-modifying metadata window
	mdcMod   []*sim.Gate // per node, modifying metadata window
	raBudget []int64     // per node outstanding readahead bytes

	*modelState // per-file, per-node and per-rank state, pooled in sc

	barrier      rankQueue // ranks parked at the current barrier
	barrierCount int

	chunks []chunk // stripeChunks scratch, recycled through the pool

	res Result
}

// rankState is one rank's program counter and current-op scratch.
type rankState struct {
	i     int     // index of the op in flight (-1 before the first)
	start float64 // op start time for the trace event
	hit   bool    // CacheHit flag for the trace event
	seq   bool    // Sequential flag for the trace event
	wOff  int64   // write admission cursor: next byte to admit
	wRem  int64   // write admission cursor: bytes left to admit
}

type fileState struct {
	stripeCount int
	stripeSize  int64
	startOST    int
	created     bool
	size        int64 // high-water mark of written bytes

	pendingFlush int64     // bytes queued for write-back, not yet on disk
	flushWaiters rankQueue // ranks in fsync waiting for pendingFlush == 0

	// holders is a superset bitset of the nodes whose metaCache may hold
	// this file's attributes (valid while ClientNodes <= 64). LRU eviction
	// never clears bits, so a set bit can be stale — evicting a non-holder
	// is a no-op — but a real holder is never skipped, which keeps the
	// write-invalidation broadcast behavior-identical while making the
	// common single-writer case O(1) instead of O(nodes).
	holders uint64

	// Both are carved from the scratch's one flat offsets array.
	lastOff  []int64 // per OST object: last accessed offset (seek model)
	contigTo []int64 // per node: contiguous-from-zero written bytes (page cache)
}

// oscState models one object storage client (per client node, per OST).
// Staged write-back groups live by value in a FIFO ring: the OSC window
// grants admissions in Enter order, which is staging order, so the granted
// group is always the ring head — removal is an O(1) pop instead of the
// seed's linear identity scan, and no *rpcGroup pointers escape.
type oscState struct {
	window       *sim.Gate
	dirty        int64
	groups       fifo[rpcGroup]
	dirtyWaiters fifo[int32] // ranks blocked in write admission
}

// rpcGroup is a coalesced write-back RPC being staged.
type rpcGroup struct {
	file int32
	ost  int
	off  int64
	size int64
}

func newRunner(w *workload.Workload, opts Options, cv cfgValues, sc *scratch) *runner {
	eng := sc.eng
	spec := opts.Spec
	r := &runner{
		eng:     eng,
		sc:      sc,
		spec:    spec,
		cfg:     cv,
		w:       w,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		sink:    opts.Trace,
		halfRTT: eng.FixedLane(spec.NetworkRTT / 2),
		think:   eng.FixedLane(w.ComputePerOp),
		hitTime: eng.FixedLane(localHitTime),
	}
	if !opts.Faults.IsZero() {
		r.faults = opts.Faults.compile(spec.OSTCount)
	}
	sc.r = r
	r.chunks = sc.chunks
	nodes := spec.ClientNodes
	r.nodeNIC = make([]*sim.Pipe, nodes)
	r.mdc = make([]*sim.Gate, nodes)
	r.mdcMod = make([]*sim.Gate, nodes)
	r.raBudget = make([]int64, nodes)
	for n := 0; n < nodes; n++ {
		r.nodeNIC[n] = sim.NewPipe(eng, "nic", spec.NICBandwidth)
		r.mdc[n] = sim.NewGate(eng, "mdc", cv.mdcWindow)
		r.mdcMod[n] = sim.NewGate(eng, "mdc-mod", cv.mdcModWin)
	}
	r.ostNIC = make([]*sim.Pipe, spec.OSTCount)
	r.ostThreads = make([]*sim.Resource, spec.OSTCount)
	r.ostBW = make([]*sim.Pipe, spec.OSTCount)
	for o := 0; o < spec.OSTCount; o++ {
		r.ostNIC[o] = sim.NewPipe(eng, "ost-nic", spec.NICBandwidth)
		r.ostThreads[o] = sim.NewResource(eng, "ost-threads", spec.OSTServiceThreads)
		r.ostBW[o] = sim.NewPipe(eng, "ost-bw", spec.DiskWriteBW)
	}
	r.mds = sim.NewResource(eng, "mds", spec.MDSServiceThreads)
	r.dirLock = make([]*sim.Resource, w.DirCount)
	for d := range r.dirLock {
		r.dirLock[d] = sim.NewResource(eng, "dir", 1)
	}
	sc.model.reset(eng, w, spec, cv)
	r.modelState = &sc.model
	return r
}

func (r *runner) oscOf(node, ost int) *oscState { return &r.osc[node*r.spec.OSTCount+ost] }

func (r *runner) node(rank int) int { return rank / r.spec.ProcsPerNode }

// jitter returns a small multiplicative noise factor.
func (r *runner) jitter() float64 {
	return 1 + noiseAmp*(r.rng.Float64()*2-1)
}

func (r *runner) run(ctx context.Context) (*Result, error) {
	for rank := range r.w.Ranks {
		// rankSt[rank].i starts at -1, so the next continuation advances it
		// to op 0 — the same first step the seed scheduled directly.
		r.eng.At(0, r.sc.ranks[rank].next)
	}
	wall, err := r.eng.RunContext(ctx, sim.DefaultCheckEvery)
	if err != nil {
		return nil, err
	}
	r.res.WallTime = wall
	return &r.res, nil
}

// step executes the op rankSt[rank].i currently points at.
func (r *runner) step(rank int) {
	ops := r.w.Ranks[rank]
	rs := &r.rankSt[rank]
	if rs.i >= len(ops) {
		return
	}
	op := ops[rs.i]
	rs.start = r.eng.Now()
	rs.hit, rs.seq = false, false
	switch op.Type {
	case workload.OpWrite:
		r.doWrite(rank, op)
	case workload.OpRead:
		r.doRead(rank, op)
	case workload.OpCreate:
		r.doCreate(rank, op)
	case workload.OpOpen:
		r.doOpen(rank, op)
	case workload.OpClose:
		r.doClose(rank, op)
	case workload.OpStat:
		r.doStat(rank, op)
	case workload.OpUnlink:
		r.doUnlink(rank, op)
	case workload.OpMkdir:
		r.doMkdir(rank, op)
	case workload.OpReaddir:
		r.doReaddir(rank, op)
	case workload.OpFsync:
		r.doFsync(rank, op)
	case workload.OpBarrier:
		r.doBarrier(rank)
	default:
		r.opDone(rank)
	}
}

// opDone completes the rank's in-flight op: emit its trace event and
// schedule the next op after the think time. This is the seed's per-op
// `done` closure, shared across all ops of a rank.
func (r *runner) opDone(rank int) {
	rs := &r.rankSt[rank]
	if r.sink != nil {
		op := r.w.Ranks[rank][rs.i]
		r.sink.Record(Event{
			Rank: rank, Op: op.Type, File: op.File, Offset: op.Offset,
			Size: op.Size, Start: rs.start, End: r.eng.Now(),
			CacheHit: rs.hit, Sequential: rs.seq,
		})
	}
	r.eng.AfterLane(r.think, r.sc.ranks[rank].next)
}

// nextOp advances the rank's program counter and runs the next op.
func (r *runner) nextOp(rank int) {
	r.rankSt[rank].i++
	r.step(rank)
}

// finishOp stamps the op's outcome flags and schedules its completion.
func (r *runner) finishOp(rank int, delay float64, hit, seq bool) {
	rs := &r.rankSt[rank]
	rs.hit, rs.seq = hit, seq
	r.eng.After(delay, r.sc.ranks[rank].done)
}

// statWake completes an op that was parked on a statahead fetch.
func (r *runner) statWake(rank int) {
	r.res.StatHits++
	r.opDone(rank)
}

func (r *runner) doBarrier(rank int) {
	r.barrierCount++
	r.park(&r.barrier, rank)
	if r.barrierCount == r.w.NumRanks() {
		r.res.BarrierTimes = append(r.res.BarrierTimes, r.eng.Now())
		r.barrierCount = 0
		for rk := r.unpark(&r.barrier); rk >= 0; rk = r.unpark(&r.barrier) {
			r.eng.After(0, r.sc.ranks[rk].done)
		}
	}
}
