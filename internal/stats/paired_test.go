package stats

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/rng"
)

// gauss draws a standard normal via Box–Muller from the repo's seeded
// generator, so every statistical test here is deterministic.
func gauss(src *rng.Source) float64 {
	u := src.Float64()
	for u == 0 {
		u = src.Float64()
	}
	v := src.Float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// --- estimator behavior ---

// Known-answer check: with a single control and correlation ρ, OLS gives
// β = ρ·sd(y)/sd(c) and the variance shrinks by ≈ 1/(1−ρ²).
func TestCVSingleControlKnownAnswer(t *testing.T) {
	src := rng.New(0xfeed)
	const n = 2000
	const rho = 0.9
	ys := make([]float64, n)
	cs := make([][]float64, n)
	for r := 0; r < n; r++ {
		c := gauss(src)
		ys[r] = 10 + rho*c + math.Sqrt(1-rho*rho)*gauss(src)
		cs[r] = []float64{c}
	}
	est := SummarizeCV(ys, cs, CVOpts{})
	if !est.Applied || est.K != 1 {
		t.Fatalf("estimator declined an obviously strong control: %+v", est)
	}
	if math.Abs(est.Beta[0]-rho) > 0.05 {
		t.Errorf("beta = %v, want ≈ %v", est.Beta[0], rho)
	}
	if math.Abs(est.Mean-10) > 0.1 {
		t.Errorf("mean = %v, want ≈ 10", est.Mean)
	}
	wantVR := 1 / (1 - rho*rho) // ≈ 5.26
	if est.VarReduction < 0.7*wantVR || est.VarReduction > 1.3*wantVR {
		t.Errorf("var reduction = %v, want ≈ %v", est.VarReduction, wantVR)
	}
	if est.CI95 >= est.RawCI95 {
		t.Errorf("reduced CI %v not below raw CI %v", est.CI95, est.RawCI95)
	}
	if math.Abs(est.R2-rho*rho) > 0.05 {
		t.Errorf("R2 = %v, want ≈ %v", est.R2, rho*rho)
	}
}

// A zero-expectation control shifts the point estimate by −β·c̄; on a
// sample where the control happens to average exactly zero, the CV mean
// must equal the raw mean while the CI still shrinks.
func TestCVZeroMeanControlKeepsMean(t *testing.T) {
	src := rng.New(0x1234)
	const n = 500
	ys := make([]float64, n)
	cs := make([][]float64, n)
	for r := 0; r < n; r += 2 {
		c := 1 + math.Abs(gauss(src))
		noise := 0.1 * gauss(src)
		ys[r] = 3 + c + noise
		cs[r] = []float64{c}
		ys[r+1] = 3 - c + noise
		cs[r+1] = []float64{-c} // antithetic pair → c̄ = 0 exactly
	}
	est := SummarizeCV(ys, cs, CVOpts{})
	if !est.Applied {
		t.Fatalf("estimator declined: %+v", est)
	}
	rawMean := Mean(ys)
	if math.Abs(est.Mean-rawMean) > 1e-9 {
		t.Errorf("CV mean %v moved off the raw mean %v despite c̄ = 0", est.Mean, rawMean)
	}
	if est.VarReduction < 2 {
		t.Errorf("var reduction %v, want substantial", est.VarReduction)
	}
}

// A constant (zero-variance) control — e.g. the frame-error channel of
// an error-free spec — must be dropped from the regression instead of
// making the normal equations singular.
func TestCVDegenerateControlExcluded(t *testing.T) {
	src := rng.New(0x777)
	const n = 200
	ys := make([]float64, n)
	cs := make([][]float64, n)
	for r := 0; r < n; r++ {
		c := gauss(src)
		ys[r] = c + 0.2*gauss(src)
		cs[r] = []float64{0, c} // control 0 never moves
	}
	est := SummarizeCV(ys, cs, CVOpts{})
	if !est.Applied {
		t.Fatalf("estimator declined with one live control: %+v", est)
	}
	if est.K != 1 || len(est.Beta) != 1 {
		t.Errorf("K = %d, beta = %v; the dead control should be excluded", est.K, est.Beta)
	}
}

// Perfectly collinear controls make S_CC singular; the estimator must
// fall back to the raw mean rather than emit a garbage β.
func TestCVCollinearControlsFallBack(t *testing.T) {
	src := rng.New(0x888)
	const n = 100
	ys := make([]float64, n)
	cs := make([][]float64, n)
	for r := 0; r < n; r++ {
		c := gauss(src)
		ys[r] = c + gauss(src)
		cs[r] = []float64{c, 2 * c}
	}
	est := SummarizeCV(ys, cs, CVOpts{})
	if est.Applied {
		t.Errorf("estimator applied a fit on a singular system: %+v", est)
	}
	if est.Mean != Mean(ys) {
		t.Errorf("fallback mean %v is not the raw mean %v", est.Mean, Mean(ys))
	}
	if est.VarReduction != 1 {
		t.Errorf("fallback var reduction = %v, want 1", est.VarReduction)
	}
}

// An uncorrelated control must be rejected by the MinCorr gate: fitting
// noise would only widen the honest interval.
func TestCVWeakCorrelationGated(t *testing.T) {
	src := rng.New(0x999)
	const n = 400
	ys := make([]float64, n)
	cs := make([][]float64, n)
	for r := 0; r < n; r++ {
		ys[r] = gauss(src)
		cs[r] = []float64{gauss(src)} // independent of y
	}
	est := SummarizeCV(ys, cs, CVOpts{MinCorr: 0.2})
	if est.Applied {
		t.Errorf("estimator applied a noise fit (R2=%v): %+v", est.R2, est)
	}
	if est.CI95 != est.RawCI95 {
		t.Errorf("gated estimate changed the CI: %v vs raw %v", est.CI95, est.RawCI95)
	}
}

// Below the pilot size the estimator must not fit at all.
func TestCVPilotGate(t *testing.T) {
	ys := []float64{1, 2, 3}
	cs := [][]float64{{1}, {2}, {3}}
	est := SummarizeCV(ys, cs, CVOpts{PilotReps: 4})
	if est.Applied {
		t.Errorf("estimator fit below the pilot size: %+v", est)
	}
	// At the pilot size with a perfect control it should engage.
	ys = append(ys, 4)
	cs = append(cs, []float64{4})
	est = SummarizeCV(ys, cs, CVOpts{PilotReps: 4, MaxBeta: 8})
	if !est.Applied {
		t.Errorf("estimator declined at the pilot size with a perfect control: %+v", est)
	}
}

// The clamp bounds each |βⱼ| by MaxBeta·sd(y)/sd(cⱼ).
func TestCVBetaClamp(t *testing.T) {
	src := rng.New(0xaaa)
	const n = 50
	ys := make([]float64, n)
	cs := make([][]float64, n)
	for r := 0; r < n; r++ {
		c := gauss(src)
		ys[r] = 100*c + gauss(src)
		cs[r] = []float64{c}
	}
	est := SummarizeCV(ys, cs, CVOpts{MaxBeta: 0.5})
	if !est.Applied {
		t.Fatalf("estimator declined: %+v", est)
	}
	// sd(y)/sd(c) ≈ 100, so the clamp sits near 50 — far below the
	// OLS β ≈ 100.
	if est.Beta[0] > 0.5*100*1.2 {
		t.Errorf("beta %v escaped the clamp", est.Beta[0])
	}
}

func TestCVEstimateNotAppliedMirrorsRaw(t *testing.T) {
	ys := []float64{1, 2, 3, 4, 5}
	cs := [][]float64{{0}, {0}, {0}, {0}, {0}}
	est := SummarizeCV(ys, cs, CVOpts{})
	want := Summarize(ys)
	if est.Applied || est.K != 0 || est.Beta != nil {
		t.Errorf("degenerate-only controls applied: %+v", est)
	}
	if est.Mean != want.Mean || est.StdDev != want.StdDev || est.CI95 != want.CI95 || est.RawCI95 != want.CI95 {
		t.Errorf("unapplied estimate does not mirror the raw summary: %+v vs %+v", est, want)
	}
}

func TestSummarizeCVPanics(t *testing.T) {
	for name, call := range map[string]func(){
		"empty":       func() { SummarizeCV(nil, nil, CVOpts{}) },
		"row-count":   func() { SummarizeCV([]float64{1}, nil, CVOpts{}) },
		"no-controls": func() { SummarizeCV([]float64{1}, [][]float64{{}}, CVOpts{}) },
		"ragged":      func() { SummarizeCV([]float64{1, 2}, [][]float64{{1}, {1, 2}}, CVOpts{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s sample accepted", name)
				}
			}()
			call()
		}()
	}
}

// The wire form must be stable: unapplied estimates omit beta, and the
// field set is what the serving API documents.
func TestCVEstimateJSON(t *testing.T) {
	est := SummarizeCV([]float64{1, 2, 3}, [][]float64{{0}, {0}, {0}}, CVOpts{})
	b, err := json.Marshal(est)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"applied", "k", "mean", "stddev", "ci95", "raw_ci95", "r2", "var_reduction"} {
		if _, ok := m[key]; !ok {
			t.Errorf("marshalled estimate missing %q: %s", key, b)
		}
	}
	if _, ok := m["beta"]; ok {
		t.Errorf("unapplied estimate carries beta: %s", b)
	}
}
