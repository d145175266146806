// Package stats provides the summary statistics the experiment harness
// reports: means, standard deviations, confidence intervals across
// repeated tests (the paper averages 10 tests per point in Figure 2),
// and simple histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of repeated measurements. The JSON tags
// are part of the serving API (internal/serve caches and returns
// marshalled summaries); renaming them is a wire-format change.
type Summary struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"` // sample standard deviation (n−1)
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// CI95 is the half-width of the 95% confidence interval of the
	// mean, t(0.975, n−1)·σ/√n. The Student-t critical value — not the
	// normal 1.96 — is what makes the interval honest at the small rep
	// counts quick runs use: at n = 3 the correct multiplier is 4.303,
	// 2.2× the normal approximation.
	CI95 float64 `json:"ci95"`
}

// tTable95 holds the two-sided 95% Student-t critical values
// t(0.975, df) for df = 1…30 (Abramowitz & Stegun, Table 26.10).
var tTable95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// z975 is the 0.975 normal quantile, the df → ∞ limit of TCrit95.
const z975 = 1.959963984540054

// TCrit95 returns the two-sided 95% Student-t critical value
// t(0.975, df): a table lookup for df ≤ 30 and the Cornish–Fisher
// expansion around the normal quantile beyond it (accurate to ~1e-4
// there, converging to 1.96 as df grows). It panics on df < 1 — a
// confidence interval needs at least two samples.
func TCrit95(df int) float64 {
	if df < 1 {
		panic(fmt.Sprintf("stats: TCrit95(%d): need df ≥ 1", df))
	}
	if df <= len(tTable95) {
		return tTable95[df-1]
	}
	z, d := z975, float64(df)
	return z + (z*z*z+z)/(4*d) + (5*z*z*z*z*z+16*z*z*z+3*z)/(96*d*d)
}

// Summarize reduces a sample. It panics on an empty sample: averaging
// zero tests is a harness bug, not a data condition.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: Summarize of empty sample")
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var sq float64
		for _, x := range xs {
			d := x - s.Mean
			sq += d * d
		}
		s.StdDev = math.Sqrt(sq / float64(s.N-1))
		s.CI95 = TCrit95(s.N-1) * s.StdDev / math.Sqrt(float64(s.N))
	}
	return s
}

// String renders "mean ± ci95 [min, max] (n)".
func (s Summary) String() string {
	return fmt.Sprintf("%.6g ± %.2g [%.6g, %.6g] (n=%d)", s.Mean, s.CI95, s.Min, s.Max, s.N)
}

// Accumulator is an incremental summary of a growing sample: Welford's
// online algorithm for the mean and second central moment. It exists
// for the adaptive-replication loop, which checks a confidence-interval
// target after every replication batch — an Accumulator answers in O(1)
// per added value instead of re-summarizing the whole sample.
//
// Note the float caveat: Welford's streaming variance and Summarize's
// two-pass variance agree to within rounding, not bit for bit. The
// canonical Summary a report publishes therefore still comes from
// Summarize over the full sample; the Accumulator drives stopping
// decisions, which only need the moments, not canonical bytes.
type Accumulator struct {
	n    int
	mean float64
	m2   float64 // Σ(x − mean)², maintained incrementally
}

// Add folds one value into the accumulator.
//
//plclint:noalloc
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.mean, a.m2 = x, 0
		return
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the number of values accumulated.
func (a Accumulator) N() int { return a.n }

// Mean returns the running mean (0 when empty).
func (a Accumulator) Mean() float64 { return a.mean }

// StdDev returns the sample standard deviation (n−1 denominator; 0 for
// fewer than two values).
func (a Accumulator) StdDev() float64 {
	if a.n < 2 {
		return 0
	}
	return math.Sqrt(a.m2 / float64(a.n-1))
}

// CI95 returns the half-width of the 95% confidence interval of the
// mean under the same Student-t critical values Summarize uses (0 for
// fewer than two values).
func (a Accumulator) CI95() float64 {
	if a.n < 2 {
		return 0
	}
	return TCrit95(a.n-1) * a.StdDev() / math.Sqrt(float64(a.n))
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the sample median (0 for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q >= 1 {
		q = 1
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	pos := q * float64(len(ys)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return ys[lo]
	}
	frac := pos - float64(lo)
	return ys[lo]*(1-frac) + ys[hi]*frac
}
