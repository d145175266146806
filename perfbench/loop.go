package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// workload is one benchmark traffic mix against one server.
type workload interface {
	// setup builds the server the run measures. It returns the time of
	// each timed set-up it made (several, so the run can report their
	// median).
	setup(tr *tracer) ([]time.Duration, error)
	// op performs measured operation i as client cl and returns its
	// client-side latency. tr is nil when the operation is untraced.
	op(cl int, tr *tracer, i int64) (time.Duration, error)
	// check verifies the outputs of the operations run so far, outside
	// any timed window, and returns the operations whose output was
	// wrong.
	check() (bad map[int64]bool, err error)
	// ledger runs the traced run's in-process decomposition over a
	// sample of operations [0, ran), plus probes of the layers this
	// workload does not reach, and records their spans on tr.
	ledger(tr *tracer, ran int64) (layerValues, error)
	// server is the harness the measured operations go to.
	server() *harness
	close()
}

// loopResult is what one closed-loop window measured.
type loopResult struct {
	elapsed time.Duration
	ran     int64    // operations issued: indices [0, ran)
	modes   [2]tally // [untraced, traced]
	slices  [2]int   // whole slices each mode ran (alternating windows)
	spans   []span
}

// traceSlice is the length of the alternating untraced/traced slices of
// a traced run: short enough that drift hits both modes alike, long
// enough to hold many operations.
const traceSlice = time.Second

// runLoop drives w closed-loop from maxConns clients for dur: each
// client sends its next operation only when the previous one finished.
// With alternate set, operations started in odd slices of traceSlice
// are traced, the rest are not, so one run compares the two rates.
func runLoop(w workload, epoch time.Time, dur time.Duration, alternate bool) loopResult {
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		perCl   [maxConns][2]tally
		tracers [maxConns]*tracer
	)
	start := time.Now()
	deadline := start.Add(dur)
	for cl := 0; cl < maxConns; cl++ {
		tracers[cl] = newTracer(epoch, int64(cl+1))
		perCl[cl] = [2]tally{newTally(opsCap(dur)), newTally(opsCap(dur))}
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				mode := 0
				if alternate && int(now.Sub(start)/traceSlice)%2 == 1 {
					mode = 1
				}
				var tr *tracer
				if mode == 1 {
					tr = tracers[cl]
				}
				i := next.Add(1) - 1
				lat, err := w.op(cl, tr, i)
				perCl[cl][mode].record(i, float64(lat)/1e6, err)
			}
		}(cl)
	}
	wg.Wait()
	res := loopResult{elapsed: time.Since(start), ran: next.Load()}
	for cl := range perCl {
		for m := range perCl[cl] {
			res.modes[m].merge(&perCl[cl][m])
		}
		res.spans = append(res.spans, tracers[cl].spans...)
	}
	n := int(dur / traceSlice)
	res.slices = [2]int{(n + 1) / 2, n / 2}
	return res
}
