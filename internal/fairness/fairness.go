// Package fairness implements the fairness metrics of the authors'
// prior study ("Fairness of MAC protocols: IEEE 1901 vs. 802.11",
// ISPLC 2013), which Section 3.3 of the paper derives from sniffer
// traces: Jain's fairness index over per-source transmission counts,
// its sliding-window short-term variant, and inter-transmission gap
// statistics. All metrics operate on burst-granularity source traces
// ("we can study the fairness of the PLC MAC layer by considering
// again bursts and not individual MPDUs").
package fairness

import (
	"fmt"
	"math"
)

// JainIndex returns Jain's fairness index of the given shares:
// (Σx)² / (n·Σx²). It is 1 for perfectly equal shares and 1/n when one
// party takes everything. Zero-length input returns 0; all-zero shares
// return 1 (vacuously fair).
func JainIndex(shares []float64) float64 {
	if len(shares) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range shares {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(shares)) * sq)
}

// JainIndexInts is JainIndex over integer counts.
func JainIndexInts(counts []int) float64 {
	shares := make([]float64, len(counts))
	for i, c := range counts {
		shares[i] = float64(c)
	}
	return JainIndex(shares)
}

// ShortTermResult is the sliding-window fairness summary.
type ShortTermResult struct {
	// WindowSize is the number of consecutive transmissions per window.
	WindowSize int
	// Windows is the number of (overlapping) windows evaluated.
	Windows int
	// MeanJain is the average Jain index across windows — the
	// short-term fairness estimator of the ISPLC study.
	MeanJain float64
	// MinJain is the worst window.
	MinJain float64
}

// ShortTermJain slides a window of the given size over the trace and
// averages the per-window Jain index over the station universe. Small
// windows expose the short-term unfairness of 1901 that Figure 1
// illustrates (a winner restarts at CW₀ = 8 and tends to win again);
// as the window grows the index approaches the long-term value.
func ShortTermJain[S comparable](trace []S, universe []S, window int) (ShortTermResult, error) {
	if window < 1 {
		return ShortTermResult{}, fmt.Errorf("fairness: window %d must be ≥ 1", window)
	}
	if len(universe) == 0 {
		return ShortTermResult{}, fmt.Errorf("fairness: empty station universe")
	}
	if len(trace) < window {
		return ShortTermResult{}, fmt.Errorf("fairness: trace of %d shorter than window %d", len(trace), window)
	}

	idx := make(map[S]int, len(universe))
	for i, s := range universe {
		idx[s] = i
	}
	counts := make([]int, len(universe))
	inWindow := func(s S) (int, bool) {
		i, ok := idx[s]
		return i, ok
	}

	// Prime the first window.
	for _, s := range trace[:window] {
		if i, ok := inWindow(s); ok {
			counts[i]++
		}
	}
	res := ShortTermResult{WindowSize: window, MinJain: math.Inf(1)}
	var total float64
	record := func() {
		j := JainIndexInts(counts)
		total += j
		if j < res.MinJain {
			res.MinJain = j
		}
		res.Windows++
	}
	record()
	for t := window; t < len(trace); t++ {
		if i, ok := inWindow(trace[t-window]); ok {
			counts[i]--
		}
		if i, ok := inWindow(trace[t]); ok {
			counts[i]++
		}
		record()
	}
	res.MeanJain = total / float64(res.Windows)
	return res, nil
}

// ConsecutiveWins returns the distribution of run lengths in the trace:
// how often a station won k times in a row. The heavy head at k ≥ 2 for
// 1901 with 2 stations is exactly the Figure 1 phenomenon ("a station
// that grabs the channel moves to backoff stage 0, whereas the other
// station enters a higher backoff stage").
func ConsecutiveWins[S comparable](trace []S) map[int]int {
	runs := make(map[int]int)
	if len(trace) == 0 {
		return runs
	}
	runLen := 1
	for i := 1; i < len(trace); i++ {
		if trace[i] == trace[i-1] {
			runLen++
			continue
		}
		runs[runLen]++
		runLen = 1
	}
	runs[runLen]++
	return runs
}
