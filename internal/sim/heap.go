package sim

import (
	"math"
	"math/bits"
)

// Event storage for the kernel's run queues. The design goal is an
// allocation-free, write-barrier-free steady state:
//
//   - Event payloads (the closure / resource pointers) live by value in a
//     reusable arena slab with a free list, so scheduling never allocates
//     (the old kernel paid one *event allocation plus `any` boxing per
//     container/heap Push/Pop).
//   - The time-ordered queue is a hand-rolled 4-ary min-heap of heapItem
//     {at, seq, idx} — 24 bytes, pointer-free — so sift operations copy
//     small POD values and trigger no GC write barriers.
//   - Same-instant wakeups (at == Engine.now, the Resource grant fast path)
//     bypass the heap entirely through a FIFO ring of laneItems.
//   - Fixed-delay lanes (Engine.FixedLane) are one FIFO ring of laneEvents
//     per registered delay d, for the constant delays a model schedules
//     over and over (a network half round trip, a think time). A lane
//     event is always a plain closure, so it carries fn itself and skips
//     the arena.
//
// Ordering invariant: events fire in strictly increasing (at, seq) order.
// seq values are unique and assigned in scheduling order, so the order is
// total and same-instant events fire in scheduling order (stable). Every
// queue other than the heap is (at, seq)-sorted by construction:
//
//   - the same-instant lane holds only events with at == Engine.now,
//     appended in seq order;
//   - a fixed lane for delay d receives at = now+d in seq order, and since
//     now never decreases and IEEE addition is monotone (a <= b implies
//     fl(a+d) <= fl(b+d)), its at values never decrease either.
//
// So no lane needs a sift: the run loop merges the heads of the heap, the
// fixed lanes and the same-instant lane by (at, seq), which reproduces the
// exact pop sequence of a single (at, seq) heap — proven against a
// reference container/heap kernel by the equivalence and fuzz suites in
// this package. The engine caches which fixed lane holds the earliest head
// and that head's (at, seq) (laneMin, laneAt, laneSeq), so the merge
// compares three heads per event and rescans the fixed lanes only when
// their earliest head is popped.

// eventKind selects how the run loop executes an event. Beyond plain
// closures the kernel knows Resource grants and the two halves of
// Resource.Use natively, which removes the capture closures those idioms
// used to allocate per call.
type eventKind uint8

const (
	evFire     eventKind = iota // call fn()
	evGrant                     // Acquire grant: record wait stats, call fn()
	evUseStart                  // grant instant of Resource.Use: record stats, start the service timer
	evUseEnd                    // service done: release res, then call fn
)

// event is one scheduled occurrence's payload, stored by value in the arena.
// Grant events carry their wait-time contribution precomputed at dispatch —
// the grant fires on the dispatch instant, so the value is identical — but
// the acquires/totalWait counters are only bumped when the grant actually
// fires, exactly like the seed kernel's wrapped closure: a run stopped
// between dispatch and grant leaves them uncounted.
type event struct {
	kind eventKind
	fn   func()    // evFire: the closure; evGrant: got; evUseStart/evUseEnd: done (may be nil)
	res  *Resource // evGrant, evUseStart, evUseEnd
	arg  float64   // evUseStart: service duration
	wait float64   // evGrant, evUseStart: waiting time to credit at fire
}

// heapItem is the pointer-free ordering record kept in the 4-ary heap.
type heapItem struct {
	at  float64
	seq uint64
	idx int32 // arena slot
}

// laneItem is a same-instant event in the FIFO lane; its at is Engine.now.
type laneItem struct {
	seq uint64
	idx int32
}

// laneEvent is an event in a fixed-delay lane.
type laneEvent struct {
	at  float64
	seq uint64
	fn  func()
}

// fixedLane is the FIFO of events scheduled through one registered delay.
// Its items are (at, seq)-sorted, so the ring head is the lane's minimum.
type fixedLane struct {
	d float64
	q ring[laneEvent]
}

// alloc places ev in an arena slot and returns its index.
//
//stellar:hotpath
func (e *Engine) alloc(ev event) int32 {
	if n := len(e.free); n > 0 {
		i := e.free[n-1]
		e.free = e.free[:n-1]
		e.arena[i] = ev
		return i
	}
	e.arena = append(e.arena, ev)
	return int32(len(e.arena) - 1)
}

// take reads the payload out of slot i and recycles the slot, clearing its
// pointers so a completed event doesn't pin its closure or resource.
//
//stellar:hotpath
func (e *Engine) take(i int32) event {
	ev := e.arena[i]
	e.arena[i] = event{}
	e.free = append(e.free, i)
	return ev
}

// before reports as 1 or 0 whether a orders before b on (at, seq), with
// no branch: it is the borrow out of the 128-bit subtraction a - b of the
// pairs (at bits, seq). Heap items have at > 0 — schedule sends at == now
// to the same-instant lane, and now is never below +0 — and the bit
// pattern of a positive float64 orders like its value, so comparing the
// bits compares the times.
//
//stellar:hotpath
func before(a, b *heapItem) int {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(math.Float64bits(a.at), math.Float64bits(b.at), borrow)
	return int(borrow)
}

// heapPush inserts an item into the 4-ary min-heap.
//
//stellar:hotpath
func (e *Engine) heapPush(it heapItem) {
	e.heap = append(e.heap, it)
	e.siftUp(len(e.heap)-1, it)
}

// siftUp seats it at the hole i or above it. Hole-based sifting moves
// ancestors down and writes it once, instead of swapping element-wise.
//
//stellar:hotpath
func (e *Engine) siftUp(i int, it heapItem) {
	h := e.heap
	for i > 0 {
		p := (i - 1) >> 2
		if h[p].at < it.at || (h[p].at == it.at && h[p].seq < it.seq) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
}

// heapPop removes and returns the minimum item.
//
//stellar:hotpath
func (e *Engine) heapPop() heapItem {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	e.heap = h[:n]
	if n > 0 {
		e.siftDown(last)
	}
	return top
}

// siftDown re-seats it (the displaced last element) starting from the root.
// A 4-ary layout halves the tree depth versus binary at the cost of
// comparing up to four children per level. Which child is least is
// unpredictable, so a branch-free tournament picks it. And the displaced
// element, a former leaf, almost always belongs near the bottom, so the
// hole goes all the way down first and it sifts back up from there
// (Floyd's bottom-up variant), instead of paying a compare against it on
// every level on the way down.
//
//stellar:hotpath
func (e *Engine) siftDown(it heapItem) {
	h := e.heap
	n := len(h)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		if c+4 <= n {
			k := h[c : c+4 : c+4]
			a := before(&k[1], &k[0])
			b := 2 + before(&k[3], &k[2])
			m = c + (a ^ (a^b)&-before(&k[b&3], &k[a&3]))
		} else {
			for j := c + 1; j < n; j++ {
				if before(&h[j], &h[m]) != 0 {
					m = j
				}
			}
		}
		h[i] = h[m]
		i = m
	}
	e.siftUp(i, it)
}

// lanePop removes and returns the head of fixed lane laneMin, the earliest
// fixed-lane event, then rescans the lane heads for the new earliest one.
// The engine registers a handful of lanes, so a linear scan of their heads
// beats any ordered structure.
//
//stellar:hotpath
func (e *Engine) lanePop() laneEvent {
	it := e.lanes[e.laneMin].q.pop()
	m, at, seq := int32(-1), math.Inf(1), uint64(0)
	for i := range e.lanes {
		q := &e.lanes[i].q
		if q.n == 0 {
			continue
		}
		if h := q.peek(); h.at < at || (h.at == at && h.seq < seq) {
			m, at, seq = int32(i), h.at, h.seq
		}
	}
	e.laneMin, e.laneAt, e.laneSeq = m, at, seq
	return it
}

// ring is a growable power-of-two FIFO ring buffer. It replaces both the
// head-slicing Resource queue (r.queue = r.queue[1:], which copied on
// append and pinned the backing array) and backs the engine's same-instant
// lane. Indexing is a mask, not a modulo; pop zeroes the vacated slot so
// drained entries don't pin their closures.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

// push appends v; the cold grow path (which must allocate) stays
// unannotated by design.
//
//stellar:hotpath
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

//stellar:hotpath
func (r *ring[T]) pop() T {
	if r.n == 0 {
		panic("sim: pop from empty ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// peek returns a pointer to the oldest element, which must exist.
//
//stellar:hotpath
func (r *ring[T]) peek() *T { return &r.buf[r.head] }

// reset empties the ring in place, zeroing the occupied slots so abandoned
// entries don't pin their payloads, while keeping the buffer for reuse.
func (r *ring[T]) reset() {
	var zero T
	for i := 0; i < r.n; i++ {
		r.buf[(r.head+i)&(len(r.buf)-1)] = zero
	}
	r.head, r.n = 0, 0
}

func (r *ring[T]) grow() {
	c := len(r.buf) * 2
	if c < 16 {
		c = 16
	}
	buf := make([]T, c)
	m := copy(buf, r.buf[r.head:])
	copy(buf[m:], r.buf[:r.head])
	r.buf = buf
	r.head = 0
}
