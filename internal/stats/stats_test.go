package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary %+v", s)
	}
	want := math.Sqrt(2.5) // sample variance of 1..5 is 2.5
	if math.Abs(s.StdDev-want) > 1e-12 {
		t.Errorf("stddev %v, want %v", s.StdDev, want)
	}
	wantCI := 2.776 * want / math.Sqrt(5) // t(0.975, 4) = 2.776
	if math.Abs(s.CI95-wantCI) > 1e-12 {
		t.Errorf("ci95 %v, want %v", s.CI95, wantCI)
	}
}

// TestTCrit95Quantiles pins the Student-t critical values the CI uses —
// in particular the n=3 (df=2) value, which is 2.2× the normal 1.96 the
// old code hardcoded, and the n=30 (df=29) value near the normal limit.
func TestTCrit95Quantiles(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{1, 12.706},
		{2, 4.303}, // n=3, the quick-run rep count
		{4, 2.776},
		{29, 2.045}, // n=30
		{30, 2.042},
	}
	for _, tc := range cases {
		if got := TCrit95(tc.df); got != tc.want {
			t.Errorf("TCrit95(%d) = %v, want %v", tc.df, got, tc.want)
		}
	}
	// Beyond the table: monotone decreasing toward the normal quantile.
	prev := TCrit95(30)
	for _, df := range []int{31, 40, 60, 120, 1000, 100000} {
		got := TCrit95(df)
		if got > prev+1e-12 {
			t.Errorf("TCrit95 not decreasing at df=%d: %v > %v", df, got, prev)
		}
		if got < 1.9599 {
			t.Errorf("TCrit95(%d) = %v fell below the normal quantile", df, got)
		}
		prev = got
	}
	if got := TCrit95(100000); math.Abs(got-1.95996) > 1e-3 {
		t.Errorf("TCrit95(1e5) = %v, want ≈ 1.96", got)
	}
	// t(0.975, 40) = 2.0211; the tail expansion must be ~1e-4 accurate.
	if got := TCrit95(40); math.Abs(got-2.0211) > 5e-4 {
		t.Errorf("TCrit95(40) = %v, want ≈ 2.0211", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("TCrit95(0) accepted")
		}
	}()
	TCrit95(0)
}

// TestSummarizeCIUsesStudentT: the CI of a 3-sample summary must carry
// the t(0.975, 2) = 4.303 multiplier, not the normal 1.96.
func TestSummarizeCIUsesStudentT(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	want := 4.303 * s.StdDev / math.Sqrt(3)
	if math.Abs(s.CI95-want) > 1e-12 {
		t.Errorf("n=3 ci95 = %v, want %v (2.2× the normal approximation)", s.CI95, want)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.StdDev != 0 || s.CI95 != 0 {
		t.Errorf("single-sample summary %+v", s)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty sample accepted")
		}
	}()
	Summarize(nil)
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	str := s.String()
	for _, want := range []string{"2", "n=3"} {
		if !strings.Contains(str, want) {
			t.Errorf("String() = %q missing %q", str, want)
		}
	}
}

func TestMeanMedian(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Error("empty inputs should give 0")
	}
	if got := Mean([]float64{1, 2, 6}); math.Abs(got-3) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd Median = %v", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("even Median = %v", got)
	}
	// Median must not mutate its input.
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Median sorted the caller's slice")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	tests := []struct{ q, want float64 }{
		{0, 0}, {1, 10}, {0.5, 5}, {0.25, 2.5}, {-1, 0}, {2, 10},
	}
	for _, tc := range tests {
		if got := Quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile")
	}
}

// Property: the summary's bounds and ordering invariants hold.
func TestSummaryInvariantsProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		s := Summarize(xs)
		if s.Min > s.Mean || s.Mean > s.Max {
			return false
		}
		if s.StdDev < 0 || s.CI95 < 0 {
			return false
		}
		return s.N == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: quantiles are monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []int16, qa, qb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		a := float64(qa) / 255
		b := float64(qb) / 255
		if a > b {
			a, b = b, a
		}
		return Quantile(xs, a) <= Quantile(xs, b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
