// Package par provides the deterministic fan-out primitive behind the
// experiment sweeps: a fixed-size worker pool that maps a function over
// a slice and returns the results in input order, regardless of
// completion order.
//
// Determinism is the point. Every sweep point in this repository owns
// its random streams (per-point seeds, split per station), so running
// points concurrently cannot perturb their draws; returning results in
// input order then makes a parallel sweep bit-identical to the serial
// one. Errors are deterministic too: when several points fail, Map
// reports the error of the lowest-indexed one.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is the error Map and MapCtx report when a mapped function
// panics: the recovered value plus the goroutine stack at the panic
// site. Recovering here is what keeps one pathological item from
// killing the whole process — a panicking item fails its map call (a
// PanicError is an error like any other, subject to the lowest-index
// rule) while the other items and the calling goroutine survive.
// Detect it with errors.As to distinguish crashes from ordinary
// failures.
type PanicError struct {
	// Value is the value the mapped function panicked with.
	Value any
	// Stack is the formatted goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: panic in mapped function: %v\n%s", e.Value, e.Stack)
}

// protect invokes fn(i, item), converting a panic into a *PanicError.
func protect[T, R any](fn func(i int, item T) (R, error), i int, item T) (r R, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(i, item)
}

// defaultWorkers is the process-wide fan-out width used by MapDefault;
// 1 (serial) until SetDefaultWorkers raises it.
var defaultWorkers atomic.Int32

func init() { defaultWorkers.Store(1) }

// SetDefaultWorkers sets the process-wide fan-out width used by every
// sweep that calls MapDefault (the experiments and the boost search).
// n ≤ 0 selects GOMAXPROCS.
func SetDefaultWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	defaultWorkers.Store(int32(n))
}

// DefaultWorkers returns the current process-wide fan-out width.
func DefaultWorkers() int { return int(defaultWorkers.Load()) }

// MapDefault is Map at the process-wide width.
func MapDefault[T, R any](items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	return Map(DefaultWorkers(), items, fn)
}

// Map applies fn to every item on up to workers goroutines and returns
// the results in input order. fn receives the item's index and value.
// workers ≤ 1 (or fewer than two items) degenerates to a plain serial
// loop on the calling goroutine, with fail-fast error behaviour.
//
// In parallel mode every item is attempted even when another item has
// already failed (points are independent; partial failure of a sweep
// must not depend on scheduling), and the error of the lowest-indexed
// failing item is returned.
//
// A panic inside fn does not escape: it is recovered into a
// *PanicError charged to that item, so a single pathological item
// fails the call without killing the worker goroutines or the process.
func Map[T, R any](workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	return MapCtx(context.Background(), workers, items, fn)
}

// MapCtx is Map with cooperative cancellation: once ctx is cancelled,
// no further items are started. In-flight items run to completion (fn
// is never interrupted mid-item), unstarted items are charged ctx.Err(),
// and the usual lowest-index error rule then makes MapCtx return either
// a genuine fn error from an earlier index or ctx.Err(). A ctx that is
// cancelled only after every item completed does not fail the call.
//
// A worker yields the processor (runtime.Gosched) after an item while
// items remain to be started. Items are CPU-bound replications that
// never block, so without the yield a goroutine they make runnable — a
// progress reader, a result persister, an HTTP handler — waits for the
// whole fan-out when every processor runs a worker. With it, it waits
// for at most one item per worker. A yield after the last item would
// only requeue the worker behind every other runnable goroutine; for a
// one-item call (a served model prediction) that is the caller itself.
func MapCtx[T, R any](ctx context.Context, workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	if len(items) == 0 {
		return nil, nil
	}
	if workers > len(items) {
		workers = len(items)
	}
	out := make([]R, len(items))
	if workers <= 1 || len(items) == 1 {
		for i, item := range items {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := protect(fn, i, item)
			if err != nil {
				return nil, err
			}
			out[i] = r
			if i+1 < len(items) {
				runtime.Gosched()
			}
		}
		return out, nil
	}

	errs := make([]error, len(items))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				out[i], errs[i] = protect(fn, i, items[i])
				if next.Load() < int64(len(items)) {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
