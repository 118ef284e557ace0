package lustre

import (
	"container/list"
	"slices"
	"testing"
)

// refMetaCache and refPageCache are the model's original attribute and
// page caches: a container/list recency list plus Go maps. They are the
// specification the intrusive LRUs in meta.go must match operation for
// operation — membership, recency order, byte totals and eviction victims.

type refMetaCache struct {
	cap     int
	lru     *list.List // front = most recent; values are int32 file ids
	entries map[int32]*list.Element
}

func newRefMetaCache(capacity int) *refMetaCache {
	return &refMetaCache{cap: capacity, lru: list.New(), entries: make(map[int32]*list.Element)}
}

func (m *refMetaCache) contains(f int32) bool {
	e, ok := m.entries[f]
	if ok {
		m.lru.MoveToFront(e)
	}
	return ok
}

func (m *refMetaCache) insert(f int32) {
	if e, ok := m.entries[f]; ok {
		m.lru.MoveToFront(e)
		return
	}
	m.entries[f] = m.lru.PushFront(f)
	for m.lru.Len() > m.cap {
		back := m.lru.Back()
		m.lru.Remove(back)
		delete(m.entries, back.Value.(int32))
	}
}

func (m *refMetaCache) evict(f int32) {
	if e, ok := m.entries[f]; ok {
		m.lru.Remove(e)
		delete(m.entries, f)
	}
}

type refPageCache struct {
	cap     int64
	total   int64
	sizes   map[int32]int64
	lru     *list.List
	entries map[int32]*list.Element
}

func newRefPageCache(capacity int64) *refPageCache {
	return &refPageCache{cap: capacity, sizes: make(map[int32]int64), lru: list.New(), entries: make(map[int32]*list.Element)}
}

func (p *refPageCache) contains(f int32) bool {
	_, ok := p.sizes[f]
	return ok
}

func (p *refPageCache) touch(f int32, addBytes int64) {
	if e, ok := p.entries[f]; ok {
		p.lru.MoveToFront(e)
		p.sizes[f] += addBytes
		p.total += addBytes
	} else {
		p.entries[f] = p.lru.PushFront(f)
		p.sizes[f] = addBytes
		p.total += addBytes
	}
	for p.total > p.cap && p.lru.Len() > 1 {
		back := p.lru.Back()
		id := back.Value.(int32)
		p.total -= p.sizes[id]
		delete(p.sizes, id)
		delete(p.entries, id)
		p.lru.Remove(back)
	}
}

func (p *refPageCache) drop(f int32) {
	if e, ok := p.entries[f]; ok {
		p.total -= p.sizes[f]
		delete(p.sizes, f)
		delete(p.entries, f)
		p.lru.Remove(e)
	}
}

// order lists an intrusive recency list from most to least recent,
// checking the backward links agree.
func (l *lruList) order() []int32 {
	var ids []int32
	prev := int32(-1)
	for f := l.head; f >= 0; f = l.links[f].next {
		if l.links[f].prev != prev || !l.links[f].in {
			panic("lruList: broken links")
		}
		ids = append(ids, f)
		prev = f
	}
	if l.tail != prev || len(ids) != l.n {
		panic("lruList: tail or length disagrees with the links")
	}
	return ids
}

// order lists a reference recency list front (most recent) to back.
func order(l *list.List) []int32 {
	var ids []int32
	for e := l.Front(); e != nil; e = e.Next() {
		ids = append(ids, e.Value.(int32))
	}
	return ids
}

// FuzzNodeCaches drives one byte-coded operation sequence through the
// intrusive caches and the reference caches side by side, comparing
// membership, recency order, the page cache's byte total and, through
// them, every eviction victim after each step. A reset op reuses the
// intrusive caches' arrays the way a pooled scratch does between runs.
func FuzzNodeCaches(f *testing.F) {
	f.Add(uint8(3), uint8(2), []byte{0, 1, 0, 2, 0, 3, 0, 1, 1, 2, 2, 1, 3, 4, 0, 5})
	f.Add(uint8(1), uint8(0), []byte{3, 1, 3, 2, 3, 1, 4, 1, 3, 3, 3, 2})
	f.Add(uint8(8), uint8(7), []byte{0, 9, 3, 9, 0, 8, 3, 8, 1, 9, 5, 9, 2, 9, 4, 8})
	f.Add(uint8(2), uint8(1), []byte{0, 1, 0, 2, 3, 17, 3, 34, 6, 0, 1, 1, 5, 1, 0, 3, 3, 3})
	f.Fuzz(func(t *testing.T, metaCap, pageCap uint8, ops []byte) {
		const files = 16
		mcap := int(metaCap%12) + 1
		pcap := int64(pageCap) * 4
		var m metaCache
		var p pageCache
		m.reset(files, mcap)
		p.reset(files, pcap)
		rm, rp := newRefMetaCache(mcap), newRefPageCache(pcap)
		for i := 0; i+1 < len(ops); i += 2 {
			op, id := ops[i]%7, int32(ops[i+1]%files)
			size := int64(ops[i+1] / files)
			switch op {
			case 0:
				m.insert(id)
				rm.insert(id)
			case 1:
				if got, want := m.contains(id), rm.contains(id); got != want {
					t.Fatalf("step %d: metaCache.contains(%d) = %v, reference %v", i/2, id, got, want)
				}
			case 2:
				m.evict(id)
				rm.evict(id)
			case 3:
				p.touch(id, size)
				rp.touch(id, size)
			case 4:
				p.drop(id)
				rp.drop(id)
			case 5:
				if got, want := p.contains(id), rp.contains(id); got != want {
					t.Fatalf("step %d: pageCache.contains(%d) = %v, reference %v", i/2, id, got, want)
				}
			case 6:
				m.reset(files, mcap)
				p.reset(files, pcap)
				rm, rp = newRefMetaCache(mcap), newRefPageCache(pcap)
			}
			if got, want := m.lru.order(), order(rm.lru); !slices.Equal(got, want) {
				t.Fatalf("step %d (op %d on %d): metaCache order %v, reference %v", i/2, op, id, got, want)
			}
			if got, want := p.lru.order(), order(rp.lru); !slices.Equal(got, want) {
				t.Fatalf("step %d (op %d on %d): pageCache order %v, reference %v", i/2, op, id, got, want)
			}
			if p.total != rp.total {
				t.Fatalf("step %d: pageCache total %d, reference %d", i/2, p.total, rp.total)
			}
			for f := int32(0); f < files; f++ {
				if _, ok := rm.entries[f]; m.lru.has(f) != ok {
					t.Fatalf("step %d: metaCache membership of %d = %v, reference %v", i/2, f, m.lru.has(f), ok)
				}
				if s, ok := rp.sizes[f]; p.lru.has(f) != ok || (ok && p.sizes[f] != s) {
					t.Fatalf("step %d: pageCache entry %d = (%v, %d), reference (%v, %d)", i/2, f, p.lru.has(f), p.sizes[f], ok, s)
				}
			}
		}
	})
}
