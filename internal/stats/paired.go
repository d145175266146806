package stats

import (
	"fmt"
	"math"
)

// CVOpts tunes the control-variate estimator. The zero value selects
// the defaults below; the scenario layer writes them out explicitly
// during spec normalization so fingerprints pin them.
type CVOpts struct {
	// PilotReps is the smallest sample on which a fitted β is trusted;
	// below it the estimator falls back to β = 0 (the raw mean).
	PilotReps int
	// MinCorr gates on the multiple correlation between the metric and
	// its controls: a fit weaker than this is noise, and applying its β
	// would trade a known-unbiased estimator for no variance win.
	MinCorr float64
	// MaxBeta clamps each fitted coefficient to at most MaxBeta times
	// the scale-matched ratio sd(y)/sd(cⱼ). A lone control's OLS β is
	// ρ·sd(y)/sd(c) with |ρ| ≤ 1, so honest fits sit far below the
	// clamp; only near-collinear control sets can blow past it.
	MaxBeta float64
}

// Control-variate defaults (see CVOpts).
const (
	DefaultPilotReps = 4
	DefaultMinCorr   = 0.2
	DefaultMaxBeta   = 8.0
)

// normalized fills the defaults for unset fields.
func (o CVOpts) normalized() CVOpts {
	if o.PilotReps <= 0 {
		o.PilotReps = DefaultPilotReps
	}
	if o.MinCorr <= 0 {
		o.MinCorr = DefaultMinCorr
	}
	if o.MaxBeta <= 0 {
		o.MaxBeta = DefaultMaxBeta
	}
	return o
}

// CVEstimate is a control-variate estimate of a mean: the regression-
// adjusted estimator ȳ − β̂ᵀc̄ for controls with known zero expectation,
// with an honest Student-t confidence interval from the regression
// residuals. The JSON tags are part of the serving API.
//
// When the estimator declines to apply a β (sample below the pilot
// size, correlation under the gate, degenerate or collinear controls,
// or an adjusted interval no tighter than the raw one), Applied is
// false and Mean/CI95/StdDev carry the raw sample values, so consumers
// can read them unconditionally.
type CVEstimate struct {
	// Applied tells whether a fitted β was used (false ⇒ β = 0).
	Applied bool `json:"applied"`
	// K is the number of controls in the regression (degenerate
	// zero-variance controls are excluded; 0 when not applied).
	K int `json:"k"`
	// Beta holds the fitted coefficients over the active controls, in
	// control order (omitted when not applied).
	Beta []float64 `json:"beta,omitempty"`
	// Mean is the control-variate point estimate ȳ − β̂ᵀc̄.
	Mean float64 `json:"mean"`
	// StdDev is the residual sample standard deviation after the
	// control adjustment (the raw sd when not applied).
	StdDev float64 `json:"stddev"`
	// CI95 is the 95% half-width of the estimate: Student-t over the
	// regression residuals with n−1−K degrees of freedom.
	CI95 float64 `json:"ci95"`
	// RawCI95 is the plain sample's CI95 half-width, for comparison.
	RawCI95 float64 `json:"raw_ci95"`
	// R2 is the fraction of the metric's variance the controls explain.
	R2 float64 `json:"r2"`
	// VarReduction is the estimated variance ratio raw/reduced — the
	// factor by which the control variate shrinks the replication count
	// needed for a given CI half-width (1 when not applied).
	VarReduction float64 `json:"var_reduction"`
}

// PairedAccumulator extends Accumulator to a sample paired with K
// control observations per value: alongside the metric's Welford
// moments it maintains the control means, the metric–control
// co-moments and the control co-moment matrix. It exists for the
// adaptive-replication loop, whose stopping rule needs the
// control-variate CI95 in O(1) per added replication; the canonical
// published estimate still comes from the two-pass SummarizeCV over the
// full sample, mirroring the Accumulator/Summarize split.
type PairedAccumulator struct {
	y     Accumulator
	k     int
	meanC []float64
	syc   []float64 // Σ(y−ȳ)(cⱼ−c̄ⱼ)
	scc   []float64 // Σ(cᵢ−c̄ᵢ)(cⱼ−c̄ⱼ), row-major k×k, symmetric
}

// NewPaired returns an empty accumulator over k controls (k ≥ 1).
func NewPaired(k int) *PairedAccumulator {
	if k < 1 {
		panic(fmt.Sprintf("stats: NewPaired(%d): need at least one control", k))
	}
	return &PairedAccumulator{
		k:     k,
		meanC: make([]float64, k),
		syc:   make([]float64, k),
		scc:   make([]float64, k*k),
	}
}

// Add folds one (value, controls) pair into the accumulator.
//
//plclint:noalloc
func (p *PairedAccumulator) Add(y float64, c []float64) {
	if len(c) != p.k {
		panic(fmt.Sprintf("stats: PairedAccumulator.Add: %d controls, want %d", len(c), p.k))
	}
	nOld := float64(p.y.N())
	n := nOld + 1
	f := nOld / n
	dy := y - p.y.Mean()
	for j := 0; j < p.k; j++ {
		dcj := c[j] - p.meanC[j]
		p.syc[j] += dy * dcj * f
		for i := 0; i <= j; i++ {
			dci := c[i] - p.meanC[i]
			v := dci * dcj * f
			p.scc[i*p.k+j] += v
			if i != j {
				p.scc[j*p.k+i] += v
			}
		}
	}
	for j := 0; j < p.k; j++ {
		p.meanC[j] += (c[j] - p.meanC[j]) / n
	}
	p.y.Add(y)
}

// Estimate computes the control-variate estimate from the accumulated
// moments. Like Accumulator.CI95 it answers in O(k³) independent of n,
// which is what the adaptive stopping rule consumes; the canonical
// published bytes come from SummarizeCV over the full ordered sample
// (the two agree to within float rounding).
func (p *PairedAccumulator) Estimate(opts CVOpts) CVEstimate {
	return cvFromMoments(p.y.N(), p.y.Mean(), p.y.m2, p.meanC, p.syc, p.scc, p.k, opts)
}

// SummarizeCV reduces a paired sample with a canonical two-pass moment
// computation: ys[r] is the metric at replication r, cs[r] its control
// vector (all the same length ≥ 1). This is the published form of the
// estimate — a pure function of the ordered sample, hence bit-identical
// between serial and parallel runs. It panics on an empty or ragged
// sample, mirroring Summarize's contract.
func SummarizeCV(ys []float64, cs [][]float64, opts CVOpts) CVEstimate {
	if len(ys) == 0 {
		panic("stats: SummarizeCV of empty sample")
	}
	if len(cs) != len(ys) {
		panic(fmt.Sprintf("stats: SummarizeCV: %d control rows for %d values", len(cs), len(ys)))
	}
	k := len(cs[0])
	if k < 1 {
		panic("stats: SummarizeCV: need at least one control")
	}
	n := len(ys)
	meanY := 0.0
	meanC := make([]float64, k)
	for r, y := range ys {
		if len(cs[r]) != k {
			panic(fmt.Sprintf("stats: SummarizeCV: control row %d has %d entries, want %d", r, len(cs[r]), k))
		}
		meanY += y
		for j, c := range cs[r] {
			meanC[j] += c
		}
	}
	meanY /= float64(n)
	for j := range meanC {
		meanC[j] /= float64(n)
	}
	var syy float64
	syc := make([]float64, k)
	scc := make([]float64, k*k)
	for r, y := range ys {
		dy := y - meanY
		syy += dy * dy
		for j := 0; j < k; j++ {
			dcj := cs[r][j] - meanC[j]
			syc[j] += dy * dcj
			for i := 0; i <= j; i++ {
				v := (cs[r][i] - meanC[i]) * dcj
				scc[i*k+j] += v
				if i != j {
					scc[j*k+i] += v
				}
			}
		}
	}
	return cvFromMoments(n, meanY, syy, meanC, syc, scc, k, opts)
}

// cvFromMoments is the shared estimator core: the regression-adjusted
// mean ȳ − β̂ᵀc̄ for zero-expectation controls, from centered sums.
//
// β̂ solves S_CC β = S_YC over the active controls (those with positive
// variance — a control that never moves, like the frame-error channel
// of an error-free spec, would make the system singular and carries no
// information). The confidence interval is the OLS prediction interval
// of the regression at c = 0: with s_e² = SSR/(n−1−K),
//
//	Var(μ̂) = s_e² · (1/n + c̄ᵀ S_CC⁻¹ c̄),  CI95 = t(n−1−K) · √Var
//
// which both credits the variance the controls remove and pays for the
// K estimated coefficients — at small n the t(n−1−K) quantile and the
// c̄ term keep the interval honest, which the coverage acceptance tests
// pin.
func cvFromMoments(n int, meanY, syy float64, meanC, syc, scc []float64, k int, opts CVOpts) CVEstimate {
	opts = opts.normalized()
	est := CVEstimate{Mean: meanY, VarReduction: 1}
	if n >= 2 {
		sd := math.Sqrt(syy / float64(n-1))
		est.StdDev = sd
		est.RawCI95 = TCrit95(n-1) * sd / math.Sqrt(float64(n))
		est.CI95 = est.RawCI95
	}

	// Active controls: positive, finite variance.
	active := make([]int, 0, k)
	for j := 0; j < k; j++ {
		v := scc[j*k+j]
		if v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) {
			active = append(active, j)
		}
	}
	ka := len(active)
	df := n - 1 - ka
	if ka == 0 || n < opts.PilotReps || df < 1 || !(syy > 0) {
		return est
	}

	// Solve S_CC β = S_YC on the active submatrix.
	a := make([]float64, ka*ka)
	rhs := make([]float64, ka)
	for bi, j := range active {
		rhs[bi] = syc[j]
		for bj, jj := range active {
			a[bi*ka+bj] = scc[j*k+jj]
		}
	}
	beta := solveSym(a, rhs, ka)
	if beta == nil {
		return est // singular (collinear controls): keep the raw mean
	}

	// Clamp each coefficient to the scale-matched bound.
	for bi, j := range active {
		cap := opts.MaxBeta * math.Sqrt(syy/scc[j*k+j])
		if beta[bi] > cap {
			beta[bi] = cap
		} else if beta[bi] < -cap {
			beta[bi] = -cap
		}
	}

	// Residual sum of squares via the full quadratic form — exact for
	// the OLS β and still correct after clamping.
	ssr := syy
	for bi, j := range active {
		ssr -= 2 * beta[bi] * syc[j]
		for bj, jj := range active {
			ssr += beta[bi] * beta[bj] * scc[j*k+jj]
		}
	}
	if ssr < 0 {
		ssr = 0
	}
	r2 := 1 - ssr/syy
	est.R2 = r2
	if !(r2 > 0) || math.Sqrt(r2) < opts.MinCorr {
		return est // the fit is noise; β = 0 keeps the estimator honest
	}

	// c̄ᵀ S_CC⁻¹ c̄ for the prediction-variance term.
	cbar := make([]float64, ka)
	for bi, j := range active {
		cbar[bi] = meanC[j]
	}
	x := solveSym(a, cbar, ka)
	if x == nil {
		return est
	}
	quad := 0.0
	for bi := range cbar {
		quad += cbar[bi] * x[bi]
	}
	if quad < 0 {
		quad = 0
	}
	se2 := ssr / float64(df)
	varMean := se2 * (1/float64(n) + quad)
	if math.IsNaN(varMean) || math.IsInf(varMean, 0) {
		return est
	}
	if TCrit95(df)*math.Sqrt(varMean) >= est.RawCI95 {
		// The fit passed the correlation gate but the interval did not
		// actually tighten — at small n the K spent degrees of freedom
		// (wider t quantile) and the c̄ᵀS⁻¹c̄ prediction term can cost
		// more than the removed variance buys. Applying β would then
		// report a *worse* interval and stall the adaptive stopping rule
		// behind the plain path, so decline and keep the raw estimator.
		return est
	}

	est.Applied = true
	est.K = ka
	est.Beta = beta
	mean := meanY
	for bi, j := range active {
		mean -= beta[bi] * meanC[j]
	}
	est.Mean = mean
	est.StdDev = math.Sqrt(se2)
	est.CI95 = TCrit95(df) * math.Sqrt(varMean)
	rawVar := syy / float64(n-1) / float64(n)
	if varMean > 0 {
		est.VarReduction = rawVar / varMean
	}
	return est
}

// solveSym solves the n×n system a·x = b by Gaussian elimination with
// partial pivoting (a is row-major and destroyed). It returns nil when
// the matrix is numerically singular, which the caller treats as "no
// usable fit" rather than an error.
func solveSym(a, b []float64, n int) []float64 {
	// Scale-aware singularity guard: pivots are compared against the
	// matrix's largest initial magnitude.
	scale := 0.0
	for _, v := range a {
		if m := math.Abs(v); m > scale {
			scale = m
		}
	}
	if scale == 0 {
		return nil
	}
	x := append([]float64(nil), b...)
	for c := 0; c < n; c++ {
		p := c
		for r := c + 1; r < n; r++ {
			if math.Abs(a[r*n+c]) > math.Abs(a[p*n+c]) {
				p = r
			}
		}
		if math.Abs(a[p*n+c]) <= scale*1e-12 {
			return nil
		}
		if p != c {
			for j := 0; j < n; j++ {
				a[c*n+j], a[p*n+j] = a[p*n+j], a[c*n+j]
			}
			x[c], x[p] = x[p], x[c]
		}
		for r := 0; r < n; r++ {
			if r == c {
				continue
			}
			f := a[r*n+c] / a[c*n+c]
			for j := c; j < n; j++ {
				a[r*n+j] -= f * a[c*n+j]
			}
			x[r] -= f * x[c]
		}
	}
	for i := 0; i < n; i++ {
		x[i] /= a[i*n+i]
		if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
			return nil
		}
	}
	return x
}
