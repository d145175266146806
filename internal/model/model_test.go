package model

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/config"
)

func TestBinomialTailEdges(t *testing.T) {
	tests := []struct {
		n, k int
		p    float64
		want float64
	}{
		{0, 0, 0.5, 1},     // no trials: 0 busy ≤ anything
		{5, -1, 0.5, 0},    // negative bound
		{5, 5, 0.5, 1},     // bound ≥ n
		{5, 7, 0.5, 1},     // bound > n
		{5, 2, 0, 1},       // p = 0: zero busy always
		{5, 2, 1, 0},       // p = 1: five busy > 2
		{1, 0, 0.25, 0.75}, // P(Bin(1,.25) = 0)
	}
	for _, tc := range tests {
		got := binomialTail(tc.n, tc.k, tc.p)
		if math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("binomialTail(%d,%d,%v) = %v, want %v", tc.n, tc.k, tc.p, got, tc.want)
		}
	}
}

func TestBinomialTailAgainstDirectSum(t *testing.T) {
	// Compare with a direct factorial evaluation for small n.
	choose := func(n, k int) float64 {
		v := 1.0
		for i := 0; i < k; i++ {
			v = v * float64(n-i) / float64(i+1)
		}
		return v
	}
	for _, p := range []float64{0.1, 0.37, 0.5, 0.9} {
		for n := 0; n <= 12; n++ {
			for k := 0; k <= n; k++ {
				var want float64
				for j := 0; j <= k; j++ {
					want += choose(n, j) * math.Pow(p, float64(j)) * math.Pow(1-p, float64(n-j))
				}
				got := binomialTail(n, k, p)
				if math.Abs(got-want) > 1e-10 {
					t.Fatalf("binomialTail(%d,%d,%v) = %v, want %v", n, k, p, got, want)
				}
			}
		}
	}
}

func TestNegBinomialSumsToTailComplement(t *testing.T) {
	// Σ_{k=r}^{n} P(r-th busy at k) = P(Bin(n,p) ≥ r) = 1 − P(Bin ≤ r−1).
	for _, p := range []float64{0.2, 0.5, 0.8} {
		for _, r := range []int{1, 2, 4} {
			for _, n := range []int{r, r + 3, r + 10} {
				var sum float64
				for k := r; k <= n; k++ {
					sum += negBinomialAt(r, k, p)
				}
				want := 1 - binomialTail(n, r-1, p)
				if math.Abs(sum-want) > 1e-10 {
					t.Errorf("Σ negBinomialAt(r=%d, k≤%d, p=%v) = %v, want %v", r, n, p, sum, want)
				}
			}
		}
	}
}

func TestNegBinomialEdges(t *testing.T) {
	if got := negBinomialAt(1, 0, 0.5); got != 0 {
		t.Errorf("k < r should be 0, got %v", got)
	}
	if got := negBinomialAt(0, 1, 0.5); got != 0 {
		t.Errorf("r < 1 should be 0, got %v", got)
	}
	if got := negBinomialAt(2, 2, 1); got != 1 {
		t.Errorf("p=1: r-th busy exactly at k=r, got %v", got)
	}
	if got := negBinomialAt(2, 3, 1); got != 0 {
		t.Errorf("p=1, k>r should be 0, got %v", got)
	}
	if got := negBinomialAt(1, 1, 0.3); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("geometric first-trial probability = %v, want 0.3", got)
	}
}

func TestStageZeroBusyProbability(t *testing.T) {
	// With p = 0 the station always attempts; expected slots are
	// E[b] + 1 = (w−1)/2 + 1.
	for _, w := range []int{1, 8, 16, 64} {
		sq := Stage(w, 0, 0)
		if sq.Attempt != 1 {
			t.Errorf("w=%d p=0: attempt %v, want 1", w, sq.Attempt)
		}
		want := float64(w-1)/2 + 1
		if math.Abs(sq.Slots-want) > 1e-12 {
			t.Errorf("w=%d p=0: slots %v, want %v", w, sq.Slots, want)
		}
	}
}

func TestStageCertainBusy(t *testing.T) {
	// With p = 1 and d = 0, any station drawing b ≥ 1 jumps on its first
	// observation; only b = 0 attempts. So attempt = 1/w and the slots
	// are 1 either way (one tx slot or one jump slot).
	for _, w := range []int{1, 8, 32} {
		sq := Stage(w, 0, 1)
		want := 1 / float64(w)
		if math.Abs(sq.Attempt-want) > 1e-12 {
			t.Errorf("w=%d d=0 p=1: attempt %v, want %v", w, sq.Attempt, want)
		}
		if math.Abs(sq.Slots-1) > 1e-12 {
			t.Errorf("w=%d d=0 p=1: slots %v, want 1", w, sq.Slots)
		}
	}
}

func TestStageLargeDeferralNeverJumps(t *testing.T) {
	// d ≥ w−1 means the deferral counter cannot expire before BC does:
	// attempt probability 1 regardless of p.
	sq := Stage(16, 15, 0.7)
	if math.Abs(sq.Attempt-1) > 1e-12 {
		t.Errorf("d=w−1: attempt %v, want 1", sq.Attempt)
	}
}

func TestStageMonotoneInBusyProbability(t *testing.T) {
	// More busy slots → more jumps → lower attempt probability.
	prev := 2.0
	for _, p := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1} {
		sq := Stage(16, 1, p)
		if sq.Attempt > prev+1e-12 {
			t.Errorf("attempt probability increased with p at p=%v", p)
		}
		prev = sq.Attempt
	}
}

func TestSolveSingleStation(t *testing.T) {
	pred, err := Solve(1, config.DefaultCA1(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Gamma != 0 || pred.BusyProbability != 0 {
		t.Errorf("N=1: γ=%v p=%v, want 0", pred.Gamma, pred.BusyProbability)
	}
	// With p=0, the CA1 station cycles at stage 0: τ = 1/E[T_0] =
	// 1/((8−1)/2 + 1) = 1/4.5.
	want := 1 / 4.5
	if math.Abs(pred.Tau-want) > 1e-9 {
		t.Errorf("N=1: τ=%v, want %v", pred.Tau, want)
	}
}

func TestSolveErrors(t *testing.T) {
	if _, err := Solve(0, config.DefaultCA1(), Options{}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := Solve(2, config.Params{}, Options{}); err == nil {
		t.Error("invalid params accepted")
	}
}

// TestFigure2ModelShape: the analysis curve of Figure 2 — γ increasing
// in N, ≈0.12 at N=2, ≈0.27 at N=7 (paper band widened for the
// decoupling approximation).
func TestFigure2ModelShape(t *testing.T) {
	prev := -1.0
	var g2, g7 float64
	for n := 1; n <= 7; n++ {
		pred, err := Solve(n, config.DefaultCA1(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if pred.Gamma <= prev {
			t.Errorf("N=%d: γ=%v not increasing", n, pred.Gamma)
		}
		prev = pred.Gamma
		if n == 2 {
			g2 = pred.Gamma
		}
		if n == 7 {
			g7 = pred.Gamma
		}
	}
	if g2 < 0.05 || g2 > 0.15 {
		t.Errorf("γ(N=2) = %v outside [0.05, 0.15]", g2)
	}
	if g7 < 0.22 || g7 > 0.32 {
		t.Errorf("γ(N=7) = %v outside [0.22, 0.32]", g7)
	}
}

func TestStageDistributionIsDistribution(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10} {
		pred, err := Solve(n, config.DefaultCA1(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, v := range pred.StageDistribution {
			if v < -1e-12 {
				t.Errorf("N=%d: negative stage probability %v", n, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("N=%d: stage distribution sums to %v", n, sum)
		}
	}
}

func TestMoreStationsPushToHigherStages(t *testing.T) {
	p2, _ := Solve(2, config.DefaultCA1(), Options{})
	p10, _ := Solve(10, config.DefaultCA1(), Options{})
	if p10.StageDistribution[0] >= p2.StageDistribution[0] {
		t.Errorf("stage-0 occupancy did not shrink with N: %v → %v",
			p2.StageDistribution[0], p10.StageDistribution[0])
	}
	last := len(p2.StageDistribution) - 1
	if p10.StageDistribution[last] <= p2.StageDistribution[last] {
		t.Errorf("last-stage occupancy did not grow with N: %v → %v",
			p2.StageDistribution[last], p10.StageDistribution[last])
	}
}

func TestMetricsForConsistency(t *testing.T) {
	pred, err := Solve(5, config.DefaultCA1(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := MetricsFor(pred, 5, DefaultTiming())
	if s := m.SlotIdle + m.SlotSuccess + m.SlotCollision; math.Abs(s-1) > 1e-9 {
		t.Errorf("slot probabilities sum to %v", s)
	}
	if m.NormalizedThroughput <= 0 || m.NormalizedThroughput >= 1 {
		t.Errorf("normalized throughput %v outside (0,1)", m.NormalizedThroughput)
	}
	if m.MeanSlotDuration <= 0 {
		t.Errorf("mean slot duration %v", m.MeanSlotDuration)
	}
	if m.CollisionProbability != pred.Gamma {
		t.Errorf("metrics collision probability %v ≠ γ %v", m.CollisionProbability, pred.Gamma)
	}
}

func TestPredictConvenience(t *testing.T) {
	pred, met, err := Predict(3, config.DefaultCA1())
	if err != nil {
		t.Fatal(err)
	}
	if pred.Tau <= 0 || met.NormalizedThroughput <= 0 {
		t.Error("Predict returned degenerate values")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Damping <= 0 || o.Damping > 1 || o.Tolerance <= 0 || o.MaxIterations <= 0 {
		t.Errorf("withDefaults produced %+v", o)
	}
	o2 := Options{Damping: 2, Tolerance: -1, MaxIterations: -5}.withDefaults()
	if o2.Damping > 1 || o2.Tolerance <= 0 || o2.MaxIterations <= 0 {
		t.Errorf("withDefaults did not repair invalid options: %+v", o2)
	}
}

// TestSolverAgreementDampingVsBisection: the two solution strategies
// must land on the same fixed point (solver ablation from DESIGN.md).
func TestSolverAgreementDampingVsBisection(t *testing.T) {
	params := config.DefaultCA1()
	damped, err := Solve(5, params, Options{Damping: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Force bisection by allowing almost no iterations.
	bisect, err := Solve(5, params, Options{MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(damped.Tau-bisect.Tau) > 1e-6 {
		t.Errorf("damped τ=%v vs bisection τ=%v", damped.Tau, bisect.Tau)
	}
}

// Property: the fixed point exists, lies in (0,1), and γ < 1 for any
// sane configuration and station count.
func TestFixedPointSanityProperty(t *testing.T) {
	f := func(nRaw, w0Raw, d0Raw uint8) bool {
		n := int(nRaw)%20 + 1
		w0 := int(w0Raw)%63 + 2
		d0 := int(d0Raw) % 16
		params := config.Params{
			CW: []int{w0, w0 * 2, w0 * 4, w0 * 8},
			DC: []int{d0, d0 + 1, d0 + 3, d0 + 15},
		}
		pred, err := Solve(n, params, Options{})
		if err != nil {
			return false
		}
		if pred.Tau <= 0 || pred.Tau > 1 {
			return false
		}
		if pred.Gamma < 0 || pred.Gamma >= 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSolve80211Baseline: Solve on the flattened DCF schedule is the
// Bianchi-style 802.11 model — a stage never defers, so a lone station
// attempts once per (W−1)/2 + 1 slots.
func TestSolve80211Baseline(t *testing.T) {
	params := config.Default80211().Params()
	if _, err := Solve(0, params, Options{}); err == nil {
		t.Error("N=0 accepted")
	}
	p1, err := Solve(1, params, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Lone DCF station: τ = 1/((16−1)/2 + 1) = 1/8.5.
	if want := 1 / 8.5; math.Abs(p1.Tau-want) > 1e-9 {
		t.Errorf("DCF N=1 τ=%v, want %v", p1.Tau, want)
	}
	prev := -1.0
	for _, n := range []int{2, 5, 10, 20} {
		p, err := Solve(n, params, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if p.Gamma <= prev {
			t.Errorf("DCF γ not increasing at N=%d", n)
		}
		prev = p.Gamma
	}
}

// TestAggressivenessCrossover: the design tradeoff of Section 2 in
// model terms. With little contention 1901's CWmin = 8 makes it more
// aggressive than DCF (higher τ); under contention the deferral counter
// raises CW preemptively and 1901 becomes the milder protocol. The
// crossover is the signature of the deferral mechanism.
func TestAggressivenessCrossover(t *testing.T) {
	tau := func(n int) (float64, float64) {
		p1901, err := Solve(n, config.DefaultCA1(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		pdcf, err := Solve(n, config.Default80211().Params(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p1901.Tau, pdcf.Tau
	}
	for _, n := range []int{1, 2} {
		t1901, tdcf := tau(n)
		if t1901 <= tdcf {
			t.Errorf("N=%d: 1901 τ=%v not above DCF τ=%v", n, t1901, tdcf)
		}
	}
	for _, n := range []int{5, 10, 20} {
		t1901, tdcf := tau(n)
		if t1901 >= tdcf {
			t.Errorf("N=%d: 1901 τ=%v not below DCF τ=%v (deferral should have tamed it)", n, t1901, tdcf)
		}
	}
}

// stageDirect is the O(w²·d) direct evaluation of the stage quantities,
// kept as the reference implementation for the recurrence-based Stage.
func stageDirect(w, d int, p float64) StageQuantities {
	var attempt, slots float64
	for b := 0; b < w; b++ {
		pa := binomialTail(b, d, p)
		attempt += pa
		slots += pa * float64(b+1)
		for k := d + 1; k <= b; k++ {
			slots += negBinomialAt(d+1, k, p) * float64(k)
		}
	}
	inv := 1 / float64(w)
	return StageQuantities{Attempt: attempt * inv, Slots: slots * inv}
}

// TestStageMatchesDirectEvaluation pins the O(w) recurrences to the
// direct sums across the parameter ranges the experiments use.
func TestStageMatchesDirectEvaluation(t *testing.T) {
	for _, p := range []float64{0, 0.01, 0.1, 0.37, 0.5, 0.8, 0.99, 1} {
		for _, w := range []int{1, 2, 8, 16, 32, 64, 128} {
			for _, d := range []int{0, 1, 3, 15, 40} {
				got := Stage(w, d, p)
				want := stageDirect(w, d, p)
				if math.Abs(got.Attempt-want.Attempt) > 1e-9 {
					t.Fatalf("Stage(%d,%d,%v).Attempt = %v, direct = %v", w, d, p, got.Attempt, want.Attempt)
				}
				if math.Abs(got.Slots-want.Slots) > 1e-7*(1+want.Slots) {
					t.Fatalf("Stage(%d,%d,%v).Slots = %v, direct = %v", w, d, p, got.Slots, want.Slots)
				}
			}
		}
	}
}

// Property: recurrence and direct evaluation agree on random inputs.
func TestStageRecurrenceProperty(t *testing.T) {
	f := func(wRaw, dRaw uint8, pRaw uint16) bool {
		w := int(wRaw)%200 + 1
		d := int(dRaw) % 32
		p := float64(pRaw) / 65536
		got := Stage(w, d, p)
		want := stageDirect(w, d, p)
		return math.Abs(got.Attempt-want.Attempt) < 1e-9 &&
			math.Abs(got.Slots-want.Slots) < 1e-7*(1+want.Slots)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTauGivenSuccDegenerate pins the never-escaping limit: a station
// whose last stage can never be left (per-attempt success probability
// 0, as a boost candidate sweep can propose via a busy probability that
// rounds to 1, or a channel error probability of 1) must get the
// defined limit τ = x_{m−1}/E[T_{m−1}] with the visit distribution
// concentrated on the last stage — not the NaN the old
// divide-by-SmallestNonzeroFloat64 overflow produced.
func TestTauGivenSuccDegenerate(t *testing.T) {
	params := config.DefaultCA1()
	tau, pi := tauGivenSucc(params, 1, 0)
	m := params.Stages()
	last := Stage(params.CW[m-1], params.DC[m-1], 1)
	if want := last.Attempt / last.Slots; math.Abs(tau-want) > 1e-12 || math.IsNaN(tau) {
		t.Errorf("degenerate τ = %v, want x/E[T] = %v", tau, want)
	}
	for i, v := range pi {
		want := 0.0
		if i == m-1 {
			want = 1
		}
		if v != want {
			t.Errorf("degenerate π[%d] = %v, want %v", i, v, want)
		}
	}
	// Near-degenerate: an escape probability small enough that the old
	// code overflowed v[m−1] to +Inf must also stay finite.
	tau, pi = tauGivenSucc(params, 1, 1e-320)
	if math.IsNaN(tau) || math.IsInf(tau, 0) || tau <= 0 {
		t.Errorf("near-degenerate τ = %v", tau)
	}
	for i, v := range pi {
		if math.IsNaN(v) {
			t.Errorf("near-degenerate π[%d] = NaN", i)
		}
	}
}

// TestSolveBisectionSurvivesSaturatedBusyProbability forces the
// bisection fallback at a station count large enough that the upper
// bracket's busy probability rounds to exactly 1 — the regime where the
// old degenerate handling returned NaN and poisoned the bracket.
func TestSolveBisectionSurvivesSaturatedBusyProbability(t *testing.T) {
	pred, err := Solve(40, config.DefaultCA1(), Options{MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(pred.Tau) || pred.Tau <= 0 || pred.Tau > 1 {
		t.Errorf("bisection τ = %v", pred.Tau)
	}
	damped, err := Solve(40, config.DefaultCA1(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred.Tau-damped.Tau) > 1e-6 {
		t.Errorf("bisection τ %v disagrees with damped τ %v", pred.Tau, damped.Tau)
	}
}

// TestHeterogeneousMatchesHomogeneousBitForBit: splitting N identical
// stations into k groups must reproduce the homogeneous fixed point
// exactly — the equality the model scenario engine's determinism
// guarantee leans on.
func TestHeterogeneousMatchesHomogeneousBitForBit(t *testing.T) {
	params := config.DefaultCA1()
	for _, split := range [][]int{{1}, {5}, {2, 3}, {1, 1, 3}, {1, 2, 3, 4}} {
		n := 0
		groups := make([]Group, len(split))
		for i, c := range split {
			groups[i] = Group{N: c, Params: params}
			n += c
		}
		homo, err := Solve(n, params, Options{})
		if err != nil {
			t.Fatal(err)
		}
		hetero, err := SolveHeterogeneous(groups, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range groups {
			if hetero.Tau[i] != homo.Tau {
				t.Errorf("split %v: group %d τ = %v, homogeneous τ = %v (must be bit-identical)",
					split, i, hetero.Tau[i], homo.Tau)
			}
			if hetero.Gamma[i] != homo.Gamma {
				t.Errorf("split %v: group %d γ = %v, homogeneous γ = %v (must be bit-identical)",
					split, i, hetero.Gamma[i], homo.Gamma)
			}
		}
	}
}

// TestHeteroErrorProbability covers the channel-error extension of the
// fixed point: errors lower delivered throughput but leave the busy
// medium composition intact, and the e=1 limit stays finite with zero
// delivered throughput.
func TestHeteroErrorProbability(t *testing.T) {
	params := config.DefaultCA1()
	clean, err := SolveHeterogeneous([]Group{{N: 5, Params: params}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cleanMet := HeteroMetricsFor(clean, []Group{{N: 5, Params: params}}, DefaultTiming())

	noisyGroups := []Group{{N: 5, Params: params, ErrorProb: 0.2}}
	noisy, err := SolveHeterogeneous(noisyGroups, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noisyMet := HeteroMetricsFor(noisy, noisyGroups, DefaultTiming())
	if noisyMet.TotalThroughput >= cleanMet.TotalThroughput*0.9 {
		t.Errorf("20%% frame loss left throughput at %v (clean %v)",
			noisyMet.TotalThroughput, cleanMet.TotalThroughput)
	}
	if noisyMet.ErrorRate <= 0 {
		t.Error("no error rate predicted despite error_prob = 0.2")
	}
	// Errors advance the backoff stage like collisions, so the noisy
	// population must be at least as backed off (lower attempt rate).
	if noisy.Tau[0] > clean.Tau[0] {
		t.Errorf("errors raised τ: %v > %v", noisy.Tau[0], clean.Tau[0])
	}

	dead := []Group{{N: 3, Params: params, ErrorProb: 1}}
	pred, err := SolveHeterogeneous(dead, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(pred.Tau[0]) || pred.Tau[0] <= 0 {
		t.Errorf("e=1 τ = %v", pred.Tau[0])
	}
	met := HeteroMetricsFor(pred, dead, DefaultTiming())
	if met.TotalThroughput != 0 {
		t.Errorf("e=1 delivered throughput %v, want 0", met.TotalThroughput)
	}
	if _, err := SolveHeterogeneous([]Group{{N: 2, Params: params, ErrorProb: 1.5}}, Options{}); err == nil {
		t.Error("error probability 1.5 accepted")
	}
}

// TestHeteroSingleStationFastPath: one lone station must get the exact
// p = 0 solution (Iterations 0), matching the homogeneous N=1 path.
func TestHeteroSingleStationFastPath(t *testing.T) {
	homo, err := Solve(1, config.DefaultCA1(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	hetero, err := SolveHeterogeneous([]Group{{N: 1, Params: config.DefaultCA1()}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hetero.Iterations != 0 || hetero.Tau[0] != homo.Tau || hetero.Gamma[0] != 0 {
		t.Errorf("single-station fast path: %+v vs homogeneous τ %v", hetero, homo.Tau)
	}
}

func TestSolveHeterogeneousReducesToHomogeneous(t *testing.T) {
	// One group of N must reproduce the homogeneous fixed point.
	for _, n := range []int{2, 5, 10} {
		homo, err := Solve(n, config.DefaultCA1(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		hetero, err := SolveHeterogeneous([]Group{{N: n, Params: config.DefaultCA1()}}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(homo.Tau-hetero.Tau[0]) > 1e-9 {
			t.Errorf("N=%d: hetero τ %v ≠ homo τ %v", n, hetero.Tau[0], homo.Tau)
		}
		if math.Abs(homo.Gamma-hetero.Gamma[0]) > 1e-9 {
			t.Errorf("N=%d: hetero γ %v ≠ homo γ %v", n, hetero.Gamma[0], homo.Gamma)
		}
	}
}

func TestSolveHeterogeneousSplitGroupsEqualOneGroup(t *testing.T) {
	// Two groups with identical params must behave as one big group.
	one, err := SolveHeterogeneous([]Group{{N: 6, Params: config.DefaultCA1()}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	two, err := SolveHeterogeneous([]Group{
		{N: 3, Params: config.DefaultCA1()},
		{N: 3, Params: config.DefaultCA1()},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(one.Tau[0]-two.Tau[0]) > 1e-9 || math.Abs(two.Tau[0]-two.Tau[1]) > 1e-9 {
		t.Errorf("split groups diverged: %v vs %v", one.Tau, two.Tau)
	}
}

func TestSolveHeterogeneousValidation(t *testing.T) {
	if _, err := SolveHeterogeneous(nil, Options{}); err == nil {
		t.Error("no groups accepted")
	}
	if _, err := SolveHeterogeneous([]Group{{N: 0, Params: config.DefaultCA1()}}, Options{}); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := SolveHeterogeneous([]Group{{N: 2, Params: config.Params{}}}, Options{}); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestHeterogeneousAggressiveGroupWins(t *testing.T) {
	// A small-CW group contending against a large-CW group must attempt
	// more and take a larger per-station share.
	aggressive := config.Params{Name: "small", CW: []int{4, 8, 16, 32}, DC: []int{1 << 20, 1 << 20, 1 << 20, 1 << 20}}
	polite := config.Params{Name: "large", CW: []int{64, 128, 256, 512}, DC: []int{1 << 20, 1 << 20, 1 << 20, 1 << 20}}
	groups := []Group{{N: 3, Params: polite}, {N: 3, Params: aggressive}}
	pred, err := SolveHeterogeneous(groups, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pred.Tau[1] <= pred.Tau[0] {
		t.Errorf("aggressive τ %v not above polite %v", pred.Tau[1], pred.Tau[0])
	}
	met := HeteroMetricsFor(pred, groups, DefaultTiming())
	if met.PerStationThroughput[1] <= met.PerStationThroughput[0] {
		t.Errorf("aggressive share %v not above polite %v",
			met.PerStationThroughput[1], met.PerStationThroughput[0])
	}
	if met.TotalThroughput <= 0 || met.TotalThroughput >= 1 {
		t.Errorf("total throughput %v", met.TotalThroughput)
	}
}

func TestHeteroMetricsConsistency(t *testing.T) {
	groups := []Group{{N: 2, Params: config.DefaultCA1()}, {N: 2, Params: config.Default1901(config.CA3)}}
	pred, err := SolveHeterogeneous(groups, Options{})
	if err != nil {
		t.Fatal(err)
	}
	met := HeteroMetricsFor(pred, groups, DefaultTiming())
	var sum float64
	for i, g := range groups {
		if met.PerStationThroughput[i]*float64(g.N)-met.GroupThroughput[i] > 1e-12 {
			t.Error("per-station × N ≠ group throughput")
		}
		sum += met.GroupThroughput[i]
	}
	if math.Abs(sum-met.TotalThroughput) > 1e-12 {
		t.Error("group throughputs do not sum to total")
	}
}
