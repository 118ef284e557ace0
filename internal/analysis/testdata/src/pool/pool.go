// Package pool stubs the real worker pool's surface for lockhold fixtures.
// Its path segment also marks its own mutexes as serving-tier locks.
package pool

import "sync"

// Queue mimics the real pool.Queue.
type Queue struct {
	mu      sync.Mutex
	waiting int
}

// Do parks the caller until a worker picks up the job.
func (q *Queue) Do(f func()) { f() }

func (q *Queue) admitLocked() bool { return q.waiting < 4 }

// Submit calls a Queue method under the queue's own lock. Inside package
// pool that is the queue's implementation, not a wait on another queue.
func (q *Queue) Submit() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.admitLocked() {
		return false
	}
	q.waiting++
	return true
}

type flight struct {
	done chan struct{}
	val  int
}

// Group mimics the real pool.Group.
type Group struct {
	mu      sync.Mutex
	flights map[string]*flight
}

// joinHeld waits on a flight before it releases the group lock, so every
// caller for any key stalls behind one slow flight.
func (g *Group) joinHeld(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[key]; ok {
		<-f.done // want `channel receive while g\.mu is held`
		return f.val
	}
	return 0
}

// join releases the group lock before it waits.
func (g *Group) join(key string) int {
	g.mu.Lock()
	f := g.flights[key]
	g.mu.Unlock()
	if f == nil {
		return 0
	}
	<-f.done
	return f.val
}
