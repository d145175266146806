package statcheck

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

func TestBinomialProbExact(t *testing.T) {
	// C(10, 3)·0.6³·0.4⁷ — small enough to check by hand.
	want := 120 * math.Pow(0.6, 3) * math.Pow(0.4, 7)
	if got := BinomialProb(3, 10, 0.6); math.Abs(got-want) > 1e-15 {
		t.Errorf("BinomialProb(3,10,0.6) = %v, want %v", got, want)
	}
	if BinomialProb(-1, 10, 0.5) != 0 || BinomialProb(11, 10, 0.5) != 0 {
		t.Error("out-of-range k should have probability 0")
	}
	// The big-integer path must survive a trial count where naive
	// factorials overflow float64.
	var sum float64
	for k := int64(0); k <= 500; k++ {
		sum += BinomialProb(k, 500, 0.95)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("Binomial(500, 0.95) mass sums to %v", sum)
	}
}

func TestBinomialLowerTail(t *testing.T) {
	// P(X ≤ 5 | n=10, p=0.5) = 0.623046875 exactly.
	if got := BinomialLowerTail(5, 10, 0.5); math.Abs(got-0.623046875) > 1e-12 {
		t.Errorf("lower tail = %v, want 0.623046875", got)
	}
	if got := BinomialLowerTail(10, 10, 0.5); got != 1 {
		t.Errorf("full tail = %v, want 1", got)
	}
	// Monotone in k.
	prev := 0.0
	for k := int64(0); k <= 20; k++ {
		cur := BinomialLowerTail(k, 20, 0.3)
		if cur < prev {
			t.Fatalf("tail not monotone at k=%d: %v < %v", k, cur, prev)
		}
		prev = cur
	}
}

func TestSeedDeterministicAndDecorrelated(t *testing.T) {
	if Seed(42, 0) != Seed(42, 0) {
		t.Error("Seed not deterministic")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		s := Seed(42, i)
		if seen[s] {
			t.Fatalf("seed collision at trial %d", i)
		}
		seen[s] = true
	}
	if Seed(1, 0) == Seed(2, 0) {
		t.Error("different bases share a trial seed")
	}
}

func TestCoverageTally(t *testing.T) {
	var c Coverage
	if c.Rate() != 0 {
		t.Error("empty rate")
	}
	c.Observe(true)
	c.Observe(false)
	c.Observe(true)
	if c.Trials != 3 || c.Covered != 2 {
		t.Errorf("tally %+v", c)
	}
	if math.Abs(c.Rate()-2.0/3) > 1e-12 {
		t.Errorf("rate %v", c.Rate())
	}
}

func TestRunIsDeterministic(t *testing.T) {
	trial := func(i int, seed uint64) bool { return seed%3 != 0 }
	a := Run(100, 7, trial)
	b := Run(100, 7, trial)
	if a != b {
		t.Errorf("Run not deterministic: %+v vs %+v", a, b)
	}
	if a.Trials != 100 {
		t.Errorf("ran %d trials", a.Trials)
	}
}

// gauss draws a standard normal via Box–Muller from the repo's seeded
// generator.
func gauss(src *rng.Source) float64 {
	u := src.Float64()
	for u == 0 {
		u = src.Float64()
	}
	v := src.Float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// coverageAtN runs the canonical experiment these assertions exist for:
// repeatedly draw n Gaussians, build a mean interval with the given
// critical value, and tally how often it covers the true mean.
func coverageAtN(n int, crit float64, trials int) Coverage {
	return Run(trials, 0xc0ffee, func(i int, seed uint64) bool {
		src := rng.New(seed)
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = gauss(src)
		}
		a := stats.Summarize(xs)
		half := crit * a.StdDev / math.Sqrt(float64(n))
		return math.Abs(a.Mean) <= half
	})
}

// TestStudentTCoversZDoesNot is the negative control for the whole
// package: at n=3 the Student-t interval (t(0.975,2) = 4.303) must pass
// the ≥93% coverage bound while the normal-1.96 interval — the bug the
// z→t fix removed — must fail it decisively. If statcheck cannot tell
// those two estimators apart, none of the downstream acceptance tests
// mean anything.
func TestStudentTCoversZDoesNot(t *testing.T) {
	const trials = 600
	tCov := coverageAtN(3, stats.TCrit95(2), trials)
	if tCov.Rate() < 0.93 {
		t.Errorf("Student-t coverage %s below 93%%", tCov)
	}
	zCov := coverageAtN(3, 1.96, trials)
	// True z coverage at n=3 is ≈ 81%; anywhere near the bound means
	// the harness lost its power to detect the historical bug.
	if zCov.Rate() >= 0.90 {
		t.Errorf("normal-approximation interval covered %s — statcheck can no longer distinguish z from t at n=3", zCov)
	}
	// And the p-value machinery must flag it as wildly incompatible
	// with nominal 95% coverage.
	pval := BinomialLowerTail(int64(zCov.Covered), int64(zCov.Trials), 0.95)
	if pval > 1e-6 {
		t.Errorf("z-interval p-value %v too large; tally %s", pval, zCov)
	}
}

func TestAssertAtLeastPasses(t *testing.T) {
	c := Coverage{Trials: 100, Covered: 95}
	c.AssertAtLeast(t, 0.93, 0.95) // must not fail the test
}

func TestAssertUnbiasedPasses(t *testing.T) {
	AssertUnbiased(t, "mean", 0.1, 0.05, 0.05, 4) // z = 1, fine
}

// The assertions must actually fail failing inputs; run them against a
// scratch recorder rather than this test's own t.
type recorder struct {
	testing.TB
	failed bool
}

func (r *recorder) Helper()                       {}
func (r *recorder) Errorf(string, ...interface{}) { r.failed = true }
func (r *recorder) Fatal(args ...interface{})     { r.failed = true }
func (r *recorder) Fatalf(string, ...interface{}) { r.failed = true }

func TestAssertAtLeastFlagsRegression(t *testing.T) {
	r := &recorder{}
	Coverage{Trials: 200, Covered: 160}.AssertAtLeast(r, 0.93, 0.95)
	if !r.failed {
		t.Error("80% coverage passed a 93% bound")
	}
}

func TestAssertUnbiasedFlagsBias(t *testing.T) {
	r := &recorder{}
	AssertUnbiased(r, "mean", 1.0, 0.1, 0.0, 4) // z = 10
	if !r.failed {
		t.Error("10-sigma bias passed")
	}
	r2 := &recorder{}
	AssertUnbiased(r2, "mean", 0, 0, 0, 4)
	if !r2.failed {
		t.Error("zero standard error accepted")
	}
}
