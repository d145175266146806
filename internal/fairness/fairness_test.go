package fairness

import (
	"math"
	"testing"
	"testing/quick"
)

func TestJainIndexKnownValues(t *testing.T) {
	tests := []struct {
		shares []float64
		want   float64
	}{
		{nil, 0},
		{[]float64{5}, 1},
		{[]float64{1, 1, 1, 1}, 1},
		{[]float64{1, 0}, 0.5},        // one of two takes all → 1/n
		{[]float64{1, 0, 0, 0}, 0.25}, // one of four takes all
		{[]float64{2, 2, 0, 0}, 0.5},  // half take all equally
		{[]float64{0, 0, 0}, 1},       // vacuous
	}
	for _, tc := range tests {
		if got := JainIndex(tc.shares); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("JainIndex(%v) = %v, want %v", tc.shares, got, tc.want)
		}
	}
}

func TestJainIndexInts(t *testing.T) {
	if got := JainIndexInts([]int{3, 3, 3}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal counts: %v", got)
	}
	if got := JainIndexInts([]int{6, 0, 0}); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("monopoly of 3: %v", got)
	}
}

func TestShortTermJainValidation(t *testing.T) {
	if _, err := ShortTermJain([]int{1, 2}, []int{1, 2}, 0); err == nil {
		t.Error("window 0 accepted")
	}
	if _, err := ShortTermJain([]int{1, 2}, nil, 1); err == nil {
		t.Error("empty universe accepted")
	}
	if _, err := ShortTermJain([]int{1}, []int{1, 2}, 5); err == nil {
		t.Error("trace shorter than window accepted")
	}
}

func TestShortTermJainAlternating(t *testing.T) {
	// Perfect alternation: every even-size window is perfectly fair.
	trace := make([]int, 100)
	for i := range trace {
		trace[i] = i % 2
	}
	res, err := ShortTermJain(trace, []int{0, 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanJain-1) > 1e-12 || math.Abs(res.MinJain-1) > 1e-12 {
		t.Errorf("alternating trace: mean %v min %v, want 1", res.MeanJain, res.MinJain)
	}
	if res.Windows != 91 {
		t.Errorf("%d windows, want 91", res.Windows)
	}
}

func TestShortTermJainMonopoly(t *testing.T) {
	trace := make([]int, 50)
	res, err := ShortTermJain(trace, []int{0, 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeanJain-0.5) > 1e-12 {
		t.Errorf("monopoly of 2: mean %v, want 0.5", res.MeanJain)
	}
}

// TestShortTermVsLongTerm: a blocky trace (AAAA BBBB AAAA …) is fair in
// the long run but unfair at small windows — the signature metric of
// the 1901 short-term unfairness study.
func TestShortTermVsLongTerm(t *testing.T) {
	var trace []int
	for b := 0; b < 25; b++ {
		for i := 0; i < 4; i++ {
			trace = append(trace, b%2)
		}
	}
	short, err := ShortTermJain(trace, []int{0, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	long, err := ShortTermJain(trace, []int{0, 1}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if short.MeanJain >= long.MeanJain {
		t.Errorf("short-window Jain %v not below long-window %v", short.MeanJain, long.MeanJain)
	}
	if long.MeanJain < 0.9 {
		t.Errorf("long-term fairness %v, want near 1", long.MeanJain)
	}
}

func TestShortTermIgnoresOutsiders(t *testing.T) {
	// Transmissions from stations outside the universe must not panic
	// or corrupt the window accounting.
	trace := []int{0, 1, 9, 0, 1, 9, 0, 1}
	res, err := ShortTermJain(trace, []int{0, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanJain <= 0 || res.MeanJain > 1 {
		t.Errorf("mean Jain %v out of range", res.MeanJain)
	}
}

func TestConsecutiveWins(t *testing.T) {
	runs := ConsecutiveWins([]int{1, 1, 2, 1, 1, 1, 2, 2})
	// Runs: 1×2, 2×1, 1×3, 2×2 → lengths {2:2, 1:1, 3:1}.
	want := map[int]int{2: 2, 1: 1, 3: 1}
	for k, v := range want {
		if runs[k] != v {
			t.Errorf("runs[%d] = %d, want %d", k, runs[k], v)
		}
	}
	if len(ConsecutiveWins[int](nil)) != 0 {
		t.Error("empty trace produced runs")
	}
}

// Property: Jain index lies in [1/n, 1] for any non-negative shares
// with at least one positive entry.
func TestJainRangeProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		shares := make([]float64, len(raw))
		positive := false
		for i, r := range raw {
			shares[i] = float64(r)
			if r > 0 {
				positive = true
			}
		}
		j := JainIndex(shares)
		if !positive {
			return j == 1
		}
		n := float64(len(shares))
		return j >= 1/n-1e-12 && j <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: window = len(trace) gives exactly one window whose Jain
// index matches the long-term index over the universe members.
func TestShortTermDegeneratesToLongTermProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		trace := make([]int, len(raw))
		for i, r := range raw {
			trace[i] = int(r % 3)
		}
		universe := []int{0, 1, 2}
		res, err := ShortTermJain(trace, universe, len(trace))
		if err != nil {
			return false
		}
		counts := make([]int, len(universe))
		for _, s := range trace {
			counts[s]++
		}
		long := JainIndexInts(counts)
		return res.Windows == 1 && math.Abs(res.MeanJain-long) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
