package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile: a percentile resting on fewer is an anecdote.
const minBeyond = 10

// errFewSamples reports a percentile the sample cannot support.
var errFewSamples = errors.New("too few samples beyond the percentile")

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs —
// the value at rank ceil(p·n) — and how many samples lie beyond that
// rank. It refuses (errFewSamples) when fewer than minBeyond samples
// lie beyond, so a p99 needs at least 1000 samples. xs is sorted in
// place. +Inf samples (failed operations) sort last and count as
// beyond any finite limit.
func percentile(xs []float64, p float64) (v float64, beyond int, err error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, 0, fmt.Errorf("percentile %g of %d samples: %w", p, n, errFewSamples)
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	beyond = n - rank
	if beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g of %d samples has %d beyond, want ≥ %d: %w",
			100*p, n, beyond, minBeyond, errFewSamples)
	}
	return xs[rank-1], beyond, nil
}

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for no samples. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// tally accounts one client's closed-loop operations. A failed
// operation — a transport error, a non-success status such as 503, or
// an output that fails its check — is attempted but never completed,
// and its latency is +Inf: it misses every latency limit.
type tally struct {
	attempted int
	failed    int
	ids       []int64   // operation index, parallel to lat
	lat       []float64 // ms, one per attempted operation
}

// newTally returns a tally with room for n operations kept off the Go
// heap.
func newTally(n int) tally {
	return tally{ids: offHeap[int64](n), lat: offHeap[float64](n)}
}

// offHeap returns an empty slice with capacity n in an anonymous memory
// mapping outside the Go heap. The benchmark keeps its per-operation
// bookkeeping there, so the live-heap metric measures the program and
// does not grow with the number of operations the loop completed. T
// must hold no pointers. Appending beyond n falls back to the heap.
func offHeap[T any](n int) []T {
	var zero T
	size := int(unsafe.Sizeof(zero)) * n
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]T, 0, n)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n)[:0]
}

// opsCap bounds the operations one client records in a window of dur:
// far above any rate this machine reaches, and only touched pages of
// the mapping cost memory.
func opsCap(dur time.Duration) int {
	return int(dur.Seconds()*50000) + 1024
}

// record adds the outcome of operation id.
func (t *tally) record(id int64, ms float64, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		ms = math.Inf(1)
	}
	t.ids = append(t.ids, id)
	t.lat = append(t.lat, ms)
}

// merge folds o into t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.ids = append(t.ids, o.ids...)
	t.lat = append(t.lat, o.lat...)
}

// failOps re-accounts operations that completed but whose output a
// later check rejected: each becomes a failure with latency +Inf.
func (t *tally) failOps(bad map[int64]bool) {
	for i, id := range t.ids {
		if bad[id] && !math.IsInf(t.lat[i], 1) {
			t.lat[i] = math.Inf(1)
			t.failed++
		}
	}
}

// completed is the number of operations that succeeded.
func (t *tally) completed() int { return t.attempted - t.failed }

// latencySummary is the latency part of the end-to-end report.
type latencySummary struct {
	P50, P99 float64 // ms; +Inf when failures reach the percentile
	Samples  int
	Beyond99 int
}

// summarize computes p50 and p99 under the percentile rule.
func (t *tally) summarize() (latencySummary, error) {
	xs := append([]float64(nil), t.lat...)
	p50, _, err := percentile(xs, 0.50)
	if err != nil {
		return latencySummary{}, err
	}
	p99, beyond, err := percentile(xs, 0.99)
	if err != nil {
		return latencySummary{}, err
	}
	return latencySummary{P50: p50, P99: p99, Samples: len(xs), Beyond99: beyond}, nil
}
