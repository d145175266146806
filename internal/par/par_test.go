package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestMapPreservesInputOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		out, err := Map(workers, items, func(i, v int) (int, error) {
			return v * v, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapParallelMatchesSerial(t *testing.T) {
	items := []string{"a", "bb", "ccc", "dddd", "eeeee"}
	fn := func(i int, s string) (string, error) { return fmt.Sprintf("%d:%s", i, s), nil }
	serial, err := Map(1, items, fn)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Map(4, items, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("index %d: serial %q ≠ parallel %q", i, serial[i], parallel[i])
		}
	}
}

func TestMapReturnsLowestIndexedError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	_, err := Map(4, items, func(i, v int) (int, error) {
		switch v {
		case 5:
			return 0, errB
		case 2:
			return 0, errA
		}
		return v, nil
	})
	if err != errA {
		t.Errorf("got %v, want the lowest-indexed error %v", err, errA)
	}
}

func TestMapActuallyRunsConcurrently(t *testing.T) {
	const workers = 4
	var inFlight, peak atomic.Int32
	gate := make(chan struct{})
	_, err := Map(workers, make([]struct{}, 16), func(i int, _ struct{}) (int, error) {
		cur := inFlight.Add(1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		if cur == workers {
			select {
			case <-gate:
			default:
				close(gate)
			}
		}
		<-gate // hold until all workers have been observed in flight at once
		inFlight.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != workers {
		t.Errorf("peak concurrency %d, want %d", got, workers)
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	if out, err := Map(8, nil, func(i, v int) (int, error) { return v, nil }); err != nil || out != nil {
		t.Errorf("empty input: %v, %v", out, err)
	}
	out, err := Map(8, []int{42}, func(i, v int) (int, error) { return v + 1, nil })
	if err != nil || len(out) != 1 || out[0] != 43 {
		t.Errorf("single input: %v, %v", out, err)
	}
}

// TestMapCtxCancellation covers the cooperative-cancellation contract:
// unstarted items are skipped and ctx.Err() surfaces, in both the
// serial and the parallel code path.
func TestMapCtxCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		_, err := MapCtx(ctx, workers, make([]struct{}, 64), func(i int, _ struct{}) (int, error) {
			if ran.Add(1) == 2 {
				cancel()
			}
			return i, nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got == 64 {
			t.Errorf("workers=%d: every item ran despite cancellation", workers)
		}
	}
}

// TestMapCtxCompletesBeforeCancel: a ctx cancelled only after the last
// item finished must not fail the call.
func TestMapCtxCompletesBeforeCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	out, err := MapCtx(ctx, 4, []int{1, 2, 3}, func(i, v int) (int, error) { return v * v, nil })
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[0] != 1 || out[1] != 4 || out[2] != 9 {
		t.Errorf("out = %v", out)
	}
}

// TestMapCtxRealErrorWinsOverCancel: an fn error at a lower index beats
// the cancellation error of later unstarted items.
func TestMapCtxRealErrorWinsOverCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	_, err := MapCtx(ctx, 2, make([]struct{}, 32), func(i int, _ struct{}) (int, error) {
		if i == 0 {
			cancel()
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom (index 0 outranks later ctx errors)", err)
	}
}

// TestMapCtxYieldsBetweenItems: a goroutine that an item makes runnable
// runs after at most one more item per worker, even on one processor
// with every worker busy, because workers yield between items. Without
// the yield the readied goroutine waits for the whole fan-out, since
// these items never block. (With two workers it usually runs before
// item 2; the bound is item 3 because the scheduler may take its global
// queue first once every 61 schedules, and the race detector shuffles
// run queues, so the other worker can start one more item.)
func TestMapCtxYieldsBetweenItems(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, workers := range []int{1, 2} {
		wake, parked := make(chan struct{}), make(chan struct{})
		var woke atomic.Bool
		go func() {
			close(parked)
			<-wake
			woke.Store(true)
		}()
		<-parked
		out, err := MapCtx(context.Background(), workers, make([]struct{}, 4), func(i int, _ struct{}) (bool, error) {
			if i == 0 {
				close(wake)
			}
			return woke.Load(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !out[1+workers] {
			t.Errorf("workers=%d: the goroutine item 0 readied had not run when item %d started", workers, 1+workers)
		}
	}
}

// TestMapCtxOneItemDoesNotYield: a one-item call returns to its caller
// without yielding, so a goroutine the item readied has not yet run on
// one processor. A yield there would only requeue the caller (a served
// model prediction runs such a call in its HTTP handler) behind every
// other runnable goroutine.
func TestMapCtxOneItemDoesNotYield(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	wake, parked := make(chan struct{}), make(chan struct{})
	var woke atomic.Bool
	go func() {
		close(parked)
		<-wake
		woke.Store(true)
	}()
	<-parked
	if _, err := MapCtx(context.Background(), 2, make([]struct{}, 1), func(int, struct{}) (struct{}, error) {
		close(wake)
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if woke.Load() {
		t.Error("the readied goroutine ran before the one-item call returned: MapCtx yielded")
	}
}
