package lustre

import "stellar/internal/workload"

// ----------------------------------------------------------------------
// Client-side caches.
// ----------------------------------------------------------------------

// lruList is an intrusive recency list over a run's dense file ids: links[f]
// holds file f's neighbours and membership, so a lookup is an index and a
// move is a few int32 stores. The arrays belong to the pooled scratch and
// are reused, cleared, by every run.
type lruList struct {
	links      []lruLink
	head, tail int32 // most and least recently used; -1 when empty
	n          int
}

type lruLink struct {
	prev, next int32 // toward head and toward tail; -1 at the ends
	in         bool
}

// reset empties the list and sizes it for file ids [0, files).
func (l *lruList) reset(files int) {
	l.links = resize(l.links, files)
	clear(l.links)
	l.head, l.tail, l.n = -1, -1, 0
}

//stellar:hotpath
func (l *lruList) has(f int32) bool { return l.links[f].in }

//stellar:hotpath
func (l *lruList) pushFront(f int32) {
	l.links[f] = lruLink{prev: -1, next: l.head, in: true}
	if l.head >= 0 {
		l.links[l.head].prev = f
	} else {
		l.tail = f
	}
	l.head = f
	l.n++
}

//stellar:hotpath
func (l *lruList) remove(f int32) {
	lk := l.links[f]
	if lk.prev >= 0 {
		l.links[lk.prev].next = lk.next
	} else {
		l.head = lk.next
	}
	if lk.next >= 0 {
		l.links[lk.next].prev = lk.prev
	} else {
		l.tail = lk.prev
	}
	l.links[f] = lruLink{}
	l.n--
}

//stellar:hotpath
func (l *lruList) moveToFront(f int32) {
	if l.head != f {
		l.remove(f)
		l.pushFront(f)
	}
}

// metaCache models the per-node DLM lock / attribute cache: files present
// here can be stat'ed and opened without a server round trip. Statahead
// prefetch populates it; unlink evicts. Capacity is ldlm.lru_size entries.
type metaCache struct {
	cap int
	lru lruList
	// fetch[f] is file f's statahead fetch, if one is in flight, with the
	// ranks parked on it; inflight counts the fetches.
	fetch    []saFetch
	inflight int
}

type saFetch struct {
	on      bool
	waiters rankQueue
}

func (m *metaCache) reset(files, capacity int) {
	m.cap = capacity
	m.lru.reset(files)
	m.fetch = resize(m.fetch, files)
	clear(m.fetch)
	m.inflight = 0
}

//stellar:hotpath
func (m *metaCache) contains(f int32) bool {
	ok := m.lru.has(f)
	if ok {
		m.lru.moveToFront(f)
	}
	return ok
}

//stellar:hotpath
func (m *metaCache) insert(f int32) {
	if m.lru.has(f) {
		m.lru.moveToFront(f)
		return
	}
	m.lru.pushFront(f)
	for m.lru.n > m.cap {
		m.lru.remove(m.lru.tail)
	}
}

//stellar:hotpath
func (m *metaCache) evict(f int32) {
	if m.lru.has(f) {
		m.lru.remove(f)
	}
}

// pageCache tracks which files a node holds clean data for, bounded by
// llite.max_cached_mb. Sizes are approximate (whole-file granularity).
type pageCache struct {
	cap   int64
	total int64
	lru   lruList
	sizes []int64 // bytes cached per file; 0 when not cached
}

func (p *pageCache) reset(files int, capacity int64) {
	p.cap, p.total = capacity, 0
	p.lru.reset(files)
	p.sizes = resize(p.sizes, files)
	clear(p.sizes)
}

//stellar:hotpath
func (p *pageCache) contains(f int32) bool { return p.lru.has(f) }

// touch records extra bytes cached for f and refreshes recency, evicting
// least-recently-used files beyond capacity.
//
//stellar:hotpath
func (p *pageCache) touch(f int32, addBytes int64) {
	if p.lru.has(f) {
		p.lru.moveToFront(f)
	} else {
		p.lru.pushFront(f)
	}
	p.sizes[f] += addBytes
	p.total += addBytes
	for p.total > p.cap && p.lru.n > 1 {
		p.drop(p.lru.tail)
	}
}

//stellar:hotpath
func (p *pageCache) drop(f int32) {
	if p.lru.has(f) {
		p.total -= p.sizes[f]
		p.sizes[f] = 0
		p.lru.remove(f)
	}
}

// ----------------------------------------------------------------------
// Metadata operations.
// ----------------------------------------------------------------------

// assignLayout stamps the file with the configured striping at create time.
// The starting OST is a hash of the file id: like Lustre's weighted
// allocator, placement is only statistically balanced, so file-per-process
// workloads see OST load imbalance unless files are striped wider.
func (r *runner) assignLayout(f *fileState, id int32) {
	f.created = true
	f.stripeCount = r.cfg.stripeCount
	f.stripeSize = r.cfg.stripeSize
	h := uint64(id) * 0x9e3779b97f4a7c15
	h ^= h >> 29
	f.startOST = int(h % uint64(r.spec.OSTCount))
}

// metaRPC issues one metadata RPC through the given window gate with the
// given MDS service time, optional directory-lock serial section, and
// completion kind. The RPC advances through metaStep's stages in an arena
// slot; kind, file, and rank tell completeMeta what to do when the reply
// arrives.
func (r *runner) metaRPC(node int, gate int, dir int32, serial, service float64, kind uint8, file int32, rank int) {
	g := r.mdc[node]
	if gate == gateMod {
		g = r.mdcMod[node]
	}
	r.res.MetaRPCs++
	i := r.sc.newMeta()
	m := &r.sc.metas[i]
	m.state, m.kind = msEnter, kind
	m.mod = gate == gateMod
	m.node, m.dir, m.file, m.rank = int32(node), dir, file, int32(rank)
	m.serial, m.service = serial, service
	g.Enter(m.cont)
}

const (
	gateStat = iota
	gateMod
)

func (r *runner) doCreate(rank int, op workload.Op) {
	node := r.node(rank)
	f := &r.files[op.File]
	r.assignLayout(f, op.File)
	f.size = 0
	for n := range f.contigTo {
		f.contigTo[n] = 0
	}
	// A create allocates fresh objects: the allocator appends, so the first
	// write to each object pays no seek.
	for o := range f.lastOff {
		f.lastOff[o] = -1
	}
	svc := r.spec.MDSCreateTime + r.spec.MDSPerStripeCost*float64(f.stripeCount-1)
	serial := svc * r.spec.DirLockSerial
	r.metaRPC(node, gateMod, op.Dir, serial, svc-serial, mcInsert, op.File, rank)
}

func (r *runner) doOpen(rank int, op workload.Op) {
	node := r.node(rank)
	mc := &r.metaCache[node]
	if mc.contains(op.File) {
		r.res.StatHits++
		r.finishOp(rank, localHitTime*r.jitter(), true, false)
		return
	}
	if fe := &mc.fetch[op.File]; fe.on {
		// Parked on the in-flight statahead fetch; the wake counts the hit.
		r.rankSt[rank].hit = true
		r.park(&fe.waiters, rank)
		return
	}
	r.metaRPC(node, gateStat, -1, 0, r.spec.MDSOpenTime, mcInsert, op.File, rank)
}

func (r *runner) doStat(rank int, op workload.Op) {
	node := r.node(rank)
	mc := &r.metaCache[node]
	r.triggerStatahead(rank, node, op)
	if mc.contains(op.File) {
		r.res.StatHits++
		r.finishOp(rank, localHitTime*r.jitter(), true, false)
		return
	}
	if fe := &mc.fetch[op.File]; fe.on {
		r.rankSt[rank].hit = true
		r.park(&fe.waiters, rank)
		return
	}
	r.metaRPC(node, gateStat, -1, 0, r.spec.MDSStatTime, mcInsert, op.File, rank)
}

// statStreak tracks consecutive in-order directory-entry stats per rank.
type statStreak struct {
	dir    int32
	last   int32
	streak int
}

// triggerStatahead detects a readdir-plus-stat pattern (in-order stats of
// entries of the same directory) and prefetches attributes and locks for
// the next llite.statahead_max entries through the non-modifying metadata
// window, populating the node's metaCache so later stats AND opens hit.
func (r *runner) triggerStatahead(rank, node int, op workload.Op) {
	if r.cfg.statahead == 0 || op.Dir < 0 {
		return
	}
	ss := &r.statStreaks[rank]
	if ss.dir == op.Dir && op.Index == ss.last+1 {
		ss.streak++
	} else if ss.dir != op.Dir || op.Index != ss.last {
		ss.streak = 1
	}
	ss.dir, ss.last = op.Dir, op.Index
	if ss.streak < 2 {
		return
	}
	entries := r.dirFiles[op.Dir]
	mc := &r.metaCache[node]
	limit := int(op.Index) + 1 + r.cfg.statahead
	if limit > len(entries) {
		limit = len(entries)
	}
	for i := int(op.Index) + 1; i < limit; i++ {
		if mc.inflight >= r.cfg.statahead {
			break
		}
		fid := entries[i]
		if mc.contains(fid) {
			continue
		}
		if mc.fetch[fid].on {
			continue
		}
		mc.fetch[fid].on = true
		mc.inflight++
		r.metaRPC(node, gateStat, -1, 0, r.spec.MDSStatTime, mcStatahead, fid, -1)
	}
}

func (r *runner) doClose(rank int, op workload.Op) {
	node := r.node(rank)
	// Lustre sends MDS_CLOSE asynchronously: the application continues
	// immediately while the close RPC occupies the modifying-RPC window.
	r.metaRPC(node, gateMod, -1, 0, r.spec.MDSCloseTime, mcClose, op.File, -1)
	r.finishOp(rank, localHitTime*r.jitter(), false, false)
}

func (r *runner) doUnlink(rank int, op workload.Op) {
	// Lustre permits unlinking files with outstanding opens or dirty data;
	// object destruction happens server-side at last close.
	node := r.node(rank)
	f := &r.files[op.File]
	svc := r.spec.MDSUnlinkTime + r.spec.MDSPerStripeCost*float64(max(f.stripeCount-1, 0))
	serial := svc * r.spec.DirLockSerial
	r.metaRPC(node, gateMod, op.Dir, serial, svc-serial, mcUnlink, op.File, rank)
}

func (r *runner) doMkdir(rank int, op workload.Op) {
	node := r.node(rank)
	r.metaRPC(node, gateMod, op.Dir, 0, r.spec.MDSCreateTime, mcDone, -1, rank)
}

func (r *runner) doReaddir(rank int, op workload.Op) {
	node := r.node(rank)
	entries := len(r.dirFiles[op.Dir])
	svc := r.spec.MDSReaddirTime * float64(entries)
	if svc <= 0 {
		svc = r.spec.MDSReaddirTime
	}
	r.metaRPC(node, gateStat, -1, 0, svc, mcDone, -1, rank)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
