package stats

import (
	"math"
	"testing"
)

// TestTCrit95Monotonic: the Student-t 95% critical value decreases
// monotonically in the degrees of freedom — across the exact table,
// the table→Cornish–Fisher seam at df 30, and deep into the
// asymptotic regime — and stays above the normal-limit 1.959964.
func TestTCrit95Monotonic(t *testing.T) {
	prev := math.Inf(1)
	for df := 1; df <= 2000; df++ {
		v := TCrit95(df)
		if math.IsNaN(v) || v <= 0 {
			t.Fatalf("TCrit95(%d) = %v", df, v)
		}
		if v > prev {
			t.Fatalf("TCrit95 not monotone: df=%d gives %v > %v at df=%d", df, v, prev, df-1)
		}
		if v < 1.9599 {
			t.Fatalf("TCrit95(%d) = %v fell below the normal limit", df, v)
		}
		prev = v
	}
	// And the asymptote is approached: far out it is within 1e-3 of z.
	if v := TCrit95(100000); v > 1.961 {
		t.Errorf("TCrit95(1e5) = %v, want ≈1.96", v)
	}
}
