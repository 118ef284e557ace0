package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	cases := []struct{ parallel, n, want int }{
		{0, 10, 1}, {-3, 10, 1}, {1, 10, 1}, {4, 10, 4}, {16, 4, 4},
	}
	for _, c := range cases {
		if got := Workers(c.parallel, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.parallel, c.n, got, c.want)
		}
	}
}

func TestMapVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 4, 32} {
		var mu sync.Mutex
		seen := map[int]int{}
		err := Map(context.Background(), workers, 100, func(ctx context.Context, i int) error {
			mu.Lock()
			seen[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != 100 {
			t.Fatalf("workers=%d visited %d indices", workers, len(seen))
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("workers=%d index %d visited %d times", workers, i, n)
			}
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	var active, peak int64
	err := Map(context.Background(), 3, 50, func(ctx context.Context, i int) error {
		cur := atomic.AddInt64(&active, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if cur <= p || atomic.CompareAndSwapInt64(&peak, p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt64(&active, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > 3 {
		t.Fatalf("peak concurrency %d exceeded 3 workers", peak)
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	boom7 := errors.New("boom 7")
	boom30 := errors.New("boom 30")
	err := Map(context.Background(), 8, 64, func(ctx context.Context, i int) error {
		switch i {
		case 7:
			return boom7
		case 30:
			time.Sleep(5 * time.Millisecond)
			return boom30
		}
		return nil
	})
	if !errors.Is(err, boom7) {
		t.Fatalf("err = %v, want the lowest-index failure", err)
	}
}

// TestMapRecoversWorkerPanic: with workers > 1 a task runs on one of Map's
// own goroutines, where an unrecovered panic would kill the process. It
// must come back as a *PanicError instead, like any other task error.
func TestMapRecoversWorkerPanic(t *testing.T) {
	err := Map(context.Background(), 2, 8, func(ctx context.Context, i int) error {
		if i == 3 {
			panic("backend exploded")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Value != "backend exploded" || len(pe.Stack) == 0 {
		t.Fatalf("panic error lost its value or stack: %+v", pe)
	}
}

func TestMapErrorCancelsRemainingWork(t *testing.T) {
	var ran int64
	err := Map(context.Background(), 2, 1000, func(ctx context.Context, i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 0 {
			return errors.New("early failure")
		}
		return nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if atomic.LoadInt64(&ran) == 1000 {
		t.Fatal("failure did not cancel remaining work")
	}
}

func TestMapHonoursParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int64
	done := make(chan error, 1)
	go func() {
		done <- Map(ctx, 2, 100000, func(ctx context.Context, i int) error {
			atomic.AddInt64(&ran, 1)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Millisecond):
			}
			return nil
		})
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Map did not return promptly after cancellation")
	}
}

func TestValuesPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 7} {
		out, err := Values(context.Background(), workers, 64, func(ctx context.Context, i int) (int, error) {
			time.Sleep(time.Duration(64-i) % 5 * time.Millisecond) // finish out of order
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapZeroItems(t *testing.T) {
	if err := Map(context.Background(), 4, 0, func(ctx context.Context, i int) error {
		t.Fatal("fn called for empty input")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
