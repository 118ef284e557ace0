package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitJoins polls until g has counted n joins.
func waitJoins[V any](t *testing.T, g *Group[V], n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.Joins() < n {
		if time.Now().After(deadline) {
			t.Fatalf("joins = %d, want %d", g.Joins(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestGroupCoalescesAndCountsJoins(t *testing.T) {
	var g Group[int]
	var calls atomic.Int32
	release := make(chan struct{})
	fn := func() (int, error) {
		calls.Add(1)
		<-release
		return 42, nil
	}
	const waiters = 4
	results := make(chan int, waiters+1)
	var wg sync.WaitGroup
	call := func() {
		defer wg.Done()
		v, err := g.Do(context.Background(), "k", fn)
		if err != nil {
			t.Errorf("Do: %v", err)
		}
		results <- v
	}
	wg.Add(1)
	go call()
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go call()
	}
	// Joins are visible before the flight ends.
	waitJoins(t, &g, waiters)
	close(release)
	wg.Wait()
	close(results)
	for v := range results {
		if v != 42 {
			t.Fatalf("result %d, want 42", v)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	if n := g.Joins(); n != waiters {
		t.Fatalf("joins = %d, want %d", n, waiters)
	}

	// A retired flight is not reused, and an error is not remembered.
	boom := errors.New("boom")
	if _, err := g.Do(context.Background(), "k", func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("second flight err = %v, want boom", err)
	}
	if v, err := g.Do(context.Background(), "k", func() (int, error) { return 7, nil }); v != 7 || err != nil {
		t.Fatalf("third flight = %d, %v; want 7", v, err)
	}
}

func TestGroupWaiterRetriesAfterOwnerCancel(t *testing.T) {
	var g Group[int]
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	fn := func(ctx context.Context) func() (int, error) {
		return func() (int, error) {
			started <- struct{}{}
			select {
			case <-release:
				return 9, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}
	}

	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerErr := make(chan error, 1)
	go func() {
		_, err := g.Do(ownerCtx, "k", fn(ownerCtx))
		ownerErr <- err
	}()
	<-started

	waiter := make(chan int, 1)
	waiterErr := make(chan error, 1)
	go func() {
		ctx := context.Background()
		v, err := g.Do(ctx, "k", fn(ctx))
		waiter <- v
		waiterErr <- err
	}()
	waitJoins(t, &g, 1)
	cancelOwner()
	if err := <-ownerErr; err != context.Canceled {
		t.Fatalf("owner err = %v, want context.Canceled", err)
	}
	// The live waiter runs fn itself as the new owner.
	<-started
	close(release)
	if err := <-waiterErr; err != nil {
		t.Fatalf("live waiter inherited the owner's cancellation: %v", err)
	}
	if v := <-waiter; v != 9 {
		t.Fatalf("waiter got %d, want 9", v)
	}

	// A waiter whose own context ends stops waiting with its own error.
	block := make(chan struct{})
	go g.Do(context.Background(), "slow", func() (int, error) { <-block; return 0, nil })
	for {
		g.mu.Lock()
		_, ok := g.flights["slow"]
		g.mu.Unlock()
		if ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := g.Do(ctx, "slow", func() (int, error) { return 1, nil }); err != context.DeadlineExceeded {
		t.Fatalf("timed-out waiter err = %v, want context.DeadlineExceeded", err)
	}
	close(block)
}

func TestGroupPanicReachesOwnerAndWaiters(t *testing.T) {
	var g Group[int]
	started := make(chan struct{})
	release := make(chan struct{})
	ownerPanic := make(chan any, 1)
	go func() {
		defer func() { ownerPanic <- recover() }()
		g.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			panic("exploded")
		})
	}()
	<-started
	// A deadline keeps a flight that is never retired from hanging the test.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	waiterErr := make(chan error, 1)
	go func() {
		_, err := g.Do(ctx, "k", func() (int, error) { return 1, nil })
		waiterErr <- err
	}()
	waitJoins(t, &g, 1)
	close(release)
	if v := <-ownerPanic; v != "exploded" {
		t.Fatalf("owner saw panic %v, want fn's", v)
	}
	var pe *PanicError
	if err := <-waiterErr; !errors.As(err, &pe) || pe.Value != "exploded" || len(pe.Stack) == 0 {
		t.Fatalf("waiter err = %v, want *PanicError carrying fn's panic", err)
	}
	if v, err := g.Do(ctx, "k", func() (int, error) { return 3, nil }); v != 3 || err != nil {
		t.Fatalf("call after the panic = %d, %v; want fn to run again", v, err)
	}
}

func TestIsCtxErr(t *testing.T) {
	for _, c := range []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("x"), false},
		{context.Canceled, true},
		{context.DeadlineExceeded, true},
		{errors.Join(errors.New("wrapped"), context.Canceled), true},
	} {
		if got := IsCtxErr(c.err); got != c.want {
			t.Errorf("IsCtxErr(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
