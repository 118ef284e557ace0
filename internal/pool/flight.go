package pool

import (
	"context"
	"errors"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// IsCtxErr reports whether err is, or wraps, a context cancellation or
// deadline: the caller gave up, which says nothing about the work itself.
func IsCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Group is the singleflight the run cache (one per shard) and the peered
// fleet (one per node) share: the first caller for a key runs fn, and
// callers that arrive while it runs wait for its result. A waiter whose
// own ctx is live retries as the new owner when the flight ended with a
// context error. A panic in fn still retires the flight: waiters get a
// *PanicError and the panic goes on up the owner's goroutine. The zero
// value is ready to use.
type Group[V any] struct {
	mu      sync.Mutex
	flights map[string]*flight[V]
	joins   atomic.Uint64
}

type flight[V any] struct {
	done chan struct{} // closed once val and err are final
	val  V
	err  error
}

// Do returns fn's result for key, running fn on this goroutine unless a
// flight for key is under way; then it waits for that flight or for ctx.
func (g *Group[V]) Do(ctx context.Context, key string, fn func() (V, error)) (V, error) {
	for {
		g.mu.Lock()
		f := g.flights[key]
		if f == nil {
			if g.flights == nil {
				g.flights = make(map[string]*flight[V])
			}
			f = &flight[V]{done: make(chan struct{})}
			g.flights[key] = f
			g.mu.Unlock()
			return g.own(key, f, fn)
		}
		g.mu.Unlock()
		g.joins.Add(1)
		select {
		case <-f.done:
			if f.err == nil || !IsCtxErr(f.err) || ctx.Err() != nil {
				return f.val, f.err
			}
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
}

// own runs fn as key's flight and retires it, deferred so a panic does too.
func (g *Group[V]) own(key string, f *flight[V], fn func() (V, error)) (V, error) {
	defer func() {
		v := recover()
		if v != nil {
			f.err = &PanicError{Value: v, Stack: debug.Stack()}
		}
		g.mu.Lock()
		delete(g.flights, key)
		g.mu.Unlock()
		close(f.done)
		if v != nil {
			panic(v)
		}
	}()
	f.val, f.err = fn()
	return f.val, f.err
}

// Joins counts the calls that waited on a flight under way, retries
// included; a join is counted before its wait begins.
func (g *Group[V]) Joins() uint64 { return g.joins.Load() }
