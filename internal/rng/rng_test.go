package rng

import (
	"math"
	"math/big"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams with different seeds produced %d equal draws out of 100", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(0)
	c2 := parent.Split(1)
	c1again := parent.Split(0)
	// Same label → same stream.
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c1again.Uint64() {
			t.Fatal("Split(0) called twice produced different streams")
		}
	}
	// Different labels → different streams.
	c1 = parent.Split(0)
	equal := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			equal++
		}
	}
	if equal > 0 {
		t.Errorf("sibling streams share %d of 100 draws", equal)
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a, b := New(9), New(9)
	_ = a.Split(5)
	_ = a.Split(6)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split advanced the parent stream")
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 7, 8, 16, 63, 64, 1000} {
		for i := 0; i < 2000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

// TestIntnUniform checks that Intn(8) — the stage-0 backoff draw — is
// uniform within 4 standard deviations per bucket.
func TestIntnUniform(t *testing.T) {
	s := New(11)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	mean := float64(draws) / n
	sigma := math.Sqrt(mean * (1 - 1.0/n))
	for v, c := range counts {
		if d := math.Abs(float64(c) - mean); d > 4*sigma {
			t.Errorf("bucket %d: count %d deviates %.1fσ from mean %.0f", v, c, d/sigma, mean)
		}
	}
}

func TestBackoffMatchesUnidrnd(t *testing.T) {
	// Backoff(cw) must cover {0,…,cw−1} like MATLAB's unidrnd(cw)−1.
	s := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		seen[s.Backoff(8)] = true
	}
	for v := 0; v < 8; v++ {
		if !seen[v] {
			t.Errorf("Backoff(8) never produced %d in 1000 draws", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(13)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := New(17)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if s.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !s.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	s := New(19)
	const p, draws = 0.3, 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if s.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-p) > 0.01 {
		t.Errorf("Bernoulli(%v) empirical mean %v", p, got)
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(23)
	const mean, draws = 250.0, 200000
	var sum float64
	for i := 0; i < draws; i++ {
		v := s.Exponential(mean)
		if v < 0 {
			t.Fatalf("Exponential produced negative %v", v)
		}
		sum += v
	}
	got := sum / draws
	if math.Abs(got-mean)/mean > 0.02 {
		t.Errorf("Exponential(%v) empirical mean %v", mean, got)
	}
	if s.Exponential(0) != 0 || s.Exponential(-1) != 0 {
		t.Error("Exponential with non-positive mean should return 0")
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(29)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

// Property: Intn stays in range for arbitrary seeds and bounds.
func TestIntnRangeProperty(t *testing.T) {
	f := func(seed uint64, bound uint16) bool {
		n := int(bound)%1024 + 1
		s := New(seed)
		for i := 0; i < 50; i++ {
			if v := s.Intn(n); v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Split is a pure function of (parent state, id).
func TestSplitDeterministicProperty(t *testing.T) {
	f := func(seed, id uint64) bool {
		p := New(seed)
		a, b := p.Split(id), p.Split(id)
		for i := 0; i < 16; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMul64 pins the 128-bit product Intn's bounded draw uses
// (math/bits.Mul64, one MULQ) against math/big on edge operands — 0, 1,
// 2⁶⁴−1 and every power of two, pairwise — and on random pairs.
func TestMul64(t *testing.T) {
	edges := []uint64{0, 1, math.MaxUint64}
	for k := 1; k < 64; k++ {
		edges = append(edges, 1<<k)
	}
	var pairs [][2]uint64
	for _, a := range edges {
		for _, b := range edges {
			pairs = append(pairs, [2]uint64{a, b})
		}
	}
	src := New(64)
	for i := 0; i < 10000; i++ {
		pairs = append(pairs, [2]uint64{src.Uint64(), src.Uint64()})
	}
	mask := new(big.Int).SetUint64(math.MaxUint64)
	for _, p := range pairs {
		hi, lo := bits.Mul64(p[0], p[1])
		prod := new(big.Int).Mul(new(big.Int).SetUint64(p[0]), new(big.Int).SetUint64(p[1]))
		wantLo := new(big.Int).And(prod, mask).Uint64()
		wantHi := new(big.Int).Rsh(prod, 64).Uint64()
		if hi != wantHi || lo != wantLo {
			t.Fatalf("Mul64(%d, %d) = (%d, %d), want (%d, %d)", p[0], p[1], hi, lo, wantHi, wantLo)
		}
	}
}
