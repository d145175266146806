package model

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/config"
	"repro/internal/timing"
)

// StageQuantities are the per-backoff-stage ingredients of the model for
// a given medium-busy probability p: the probability that a visit to the
// stage ends with a transmission attempt (as opposed to a deferral jump)
// and the expected number of virtual slots a visit consumes.
type StageQuantities struct {
	// Attempt is x_i = P(the station's backoff expires before its
	// deferral counter forces a jump) = E_b[P(Bin(b, p) ≤ d_i)] with b
	// uniform in {0,…,CW_i−1}.
	Attempt float64
	// Slots is E[T_i]: expected virtual slots per visit, counting the
	// transmission slot when attempting and the jump-triggering busy
	// slot when deferring.
	Slots float64
}

// Stage computes the quantities for one stage: contention window w,
// initial deferral counter d, medium-busy probability p.
//
// Derivation (matching the published simulator's semantics exactly):
// after the redraw the station holds BC = b ~ U{0,…,w−1} and DC = d.
// Every observed virtual slot is busy independently with probability p.
// A busy slot observed while DC = 0 causes a jump; otherwise a busy slot
// decrements both counters and an idle slot decrements BC only. Hence
// the station attempts iff at most d of its first b observed slots are
// busy, and otherwise jumps at the (d+1)-th busy slot.
// The implementation is O(w): it advances three recurrences in b —
// T(b) = P(Bin(b,p) ≤ d) via T(b+1) = T(b) − p·P(Bin(b,p) = d),
// the pmf f(b) = P(Bin(b,p) = d) via its ratio recurrence, and the
// partial jump-cost sum S(b) = Σ_{k=d+1}^{b} k·P(first (d+1)-th busy at
// k) via the negative-binomial ratio recurrence — instead of evaluating
// each tail from scratch (stageDirect in the tests does exactly that
// and pins this implementation down). A backoff of b ≤ d slots sees at
// most d busy ones and never jumps, so T = 1 and S = 0 there and the
// loop starts at b = d+1 from the exact integer sums; a stage that can
// never jump (d ≥ w−1, every 802.11 stage, or an idle medium p = 0)
// needs no loop.
//
//plclint:noalloc
func Stage(w, d int, p float64) StageQuantities {
	inv := 1 / float64(w)
	if d >= w-1 || p == 0 {
		return StageQuantities{Attempt: float64(w) * inv, Slots: float64(w*(w+1)/2) * inv}
	}
	q := 1 - p
	tail := 1.0                     // T(d)
	pmf := math.Pow(p, float64(d))  // f(d)
	nb := math.Pow(p, float64(d+1)) // nb(d+1): the (d+1)-th busy at slot d+1
	var jumpSum float64             // S(b)

	attempt, slots := float64(d+1), float64((d+1)*(d+2)/2)
	for b := d + 1; b < w; b++ {
		tail -= p * pmf // T(b) from T(b−1), f(b−1)
		pmf *= q * float64(b) / float64(b-d)
		if b > d+1 {
			nb *= q * float64(b-1) / float64(b-1-d)
		}
		jumpSum += nb * float64(b)
		attempt += tail
		// Attempt path: b backoff slots + 1 transmission slot; jump
		// path: the (d+1)-th busy observation, which arrived at slot
		// k ≤ b, closes the stage after k slots.
		slots += tail*float64(b+1) + jumpSum
	}
	return StageQuantities{Attempt: attempt * inv, Slots: slots * inv}
}

// Prediction is the model's output for one scenario.
type Prediction struct {
	// Tau is the per-virtual-slot transmission attempt probability τ.
	Tau float64
	// Gamma is the conditional collision probability
	// γ = 1 − (1−τ)^(N−1); with the all-frames-acked accounting of the
	// paper's measurements this is also the predicted ΣCᵢ/ΣAᵢ.
	Gamma float64
	// BusyProbability is p, equal to Gamma under the decoupling
	// assumption (any other station transmits).
	BusyProbability float64
	// StageDistribution π_i is the stationary fraction of stage visits
	// spent at each backoff stage.
	StageDistribution []float64
	// Iterations used by the fixed-point solver.
	Iterations int
}

// Options tune the fixed-point solver. The zero value asks for defaults.
type Options struct {
	// Damping in (0,1]: fraction of the new iterate mixed in per damped
	// step, and the mixing parameter of the accelerated steps.
	// Default 0.25 — the map is a contraction for all Table 1 configs,
	// but heavy damping keeps exotic boosting candidates convergent.
	Damping float64
	// Tolerance on the residual max|G(x) − x| over every group's τ and
	// availability: the solver returns the first iterate x whose map
	// value G(x) moves no coordinate by Tolerance or more. Default 1e-12.
	Tolerance float64
	// MaxIterations bounds the plain damped iteration, in map
	// evaluations, before Solve falls back to bisection (the other
	// solvers return ErrNoConvergence). The accelerated attempt before
	// it uses at most min(100, MaxIterations). Default 10000.
	MaxIterations int
}

func (o Options) withDefaults() Options {
	if o.Damping <= 0 || o.Damping > 1 {
		o.Damping = 0.25
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-12
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 10000
	}
	return o
}

// ErrNoConvergence is returned when neither damped iteration nor the
// bisection fallback reaches the tolerance (practically unreachable for
// valid inputs; kept for API honesty).
var ErrNoConvergence = errors.New("model: fixed point did not converge")

// tauGivenP evaluates the renewal-reward attempt rate τ(p) for a station
// running params against a medium busy with probability p per slot and
// an error-free channel: an attempt succeeds exactly when it does not
// collide, so the per-attempt success probability is 1−γ = 1−p.
func tauGivenP(params config.Params, p float64) (tau float64, pi []float64) {
	return tauGivenSucc(params, p, 1-p)
}

// tauGivenSucc evaluates the renewal-reward attempt rate τ for a station
// running params against a medium busy with probability p per slot, when
// each transmission attempt succeeds (returns the station to stage 0)
// with probability succ. With an error-free channel succ = 1−γ; a
// per-frame channel error probability e folds in as succ = (1−γ)(1−e),
// since an errored frame is acknowledged with the all-blocks-errored
// indication and advances the backoff stage exactly like a collision.
//
// Stage chain: a visit to stage i ends in an attempt w.p. x_i. An
// attempt succeeds w.p. succ (→ stage 0) and fails otherwise (→ next
// stage); a deferral jump also moves to the next stage; the last stage
// re-enters itself. The chain's visit distribution π solves
//
//	π_0 = Σ_i π_i·x_i·succ,  π_i = π_{i−1}·(1 − x_{i−1}·succ) (i<m−1)
//	π_{m−1} = π_{m−2}·(1−x_{m−2}·succ) / (x_{m−1}·succ)  [self-loop]
//
// and τ = Σπ_i·x_i / Σπ_i·E[T_i].
func tauGivenSucc(params config.Params, p, succ float64) (tau float64, pi []float64) {
	pi = make([]float64, params.Stages())
	return newWorkspace(params.Stages()).tau(params, p, succ, pi), pi
}

// workspace holds the per-stage scratch of τ evaluations, so a solve
// allocates it once instead of on every iteration.
type workspace struct {
	sq []StageQuantities
	v  []float64 // unnormalized stage visit rates
}

// newWorkspace sizes a workspace for configurations of up to stages
// backoff stages.
func newWorkspace(stages int) *workspace {
	return &workspace{sq: make([]StageQuantities, stages), v: make([]float64, stages)}
}

// tau is tauGivenSucc on the workspace's buffers: it returns τ and,
// unless pi is nil, writes the stage distribution into pi (len
// params.Stages()).
//
//plclint:noalloc
func (ws *workspace) tau(params config.Params, p, succ float64, pi []float64) float64 {
	m := params.Stages()
	sq, v := ws.sq[:m], ws.v[:m]
	for i := 0; i < m; i++ {
		sq[i] = Stage(params.CW[i], params.DC[i], p)
	}

	// Unnormalized visit rates, v_0 = 1.
	v[0] = 1
	for i := 1; i < m; i++ {
		leaveToNext := 1 - sq[i-1].Attempt*succ
		v[i] = v[i-1] * leaveToNext
	}
	// The last stage self-loops with probability 1 − x_{m−1}·succ: its
	// total visit rate is the inflow divided by the escape probability.
	if m > 1 {
		escape := sq[m-1].Attempt * succ
		// v[m-1] counts only first entries per cycle; the total visit
		// rate scales by expected visits per entry, 1/escape. When the
		// station can never leave the last stage (escape = 0, or so
		// small the division overflows), the visit distribution
		// concentrates there and the renewal-reward ratio has the
		// defined limit τ = x_{m−1}/E[T_{m−1}] — return it explicitly
		// instead of letting ±Inf/Inf produce NaN.
		if escape <= 0 || math.IsInf(v[m-1]/escape, 0) {
			clear(pi)
			if pi != nil {
				pi[m-1] = 1
			}
			return sq[m-1].Attempt / sq[m-1].Slots
		}
		v[m-1] /= escape
	}

	var num, den, sum float64
	for i := 0; i < m; i++ {
		num += v[i] * sq[i].Attempt
		den += v[i] * sq[i].Slots
		sum += v[i]
	}
	for i := range pi {
		pi[i] = v[i] / sum
	}
	if den == 0 {
		return 1 // every stage attempts immediately (all CW = 1)
	}
	return num / den
}

// Solve computes the model's fixed point for N stations running params:
// the shared fixed-point loop (solveFixedPoint) over one group of N,
// falling back to bisection on the 1-D equation when the loop does not
// converge.
func Solve(n int, params config.Params, opts Options) (Prediction, error) {
	if n < 1 {
		return Prediction{}, fmt.Errorf("model: N=%d must be ≥ 1", n)
	}
	if err := params.Validate(); err != nil {
		return Prediction{}, err
	}
	opts = opts.withDefaults()
	fp, err := solveFixedPoint([]LoadedGroup{{Group: Group{N: n, Params: params}, Saturated: true}}, Timing{}, opts)
	if err == nil {
		return fp.prediction(), nil
	}

	pOfTau := func(tau float64) float64 {
		return 1 - math.Pow(1-tau, float64(n-1))
	}
	// Bisection fallback on f(τ) = τ(p(τ)) − τ, which is positive at
	// τ→0⁺ and negative at τ→1⁻ for any contention-creating config.
	lo, hi := 1e-9, 1-1e-9
	f := func(t float64) float64 {
		v, _ := tauGivenP(params, pOfTau(t))
		return v - t
	}
	flo := f(lo)
	for it := 0; it < 200; it++ {
		mid := (lo + hi) / 2
		fm := f(mid)
		if math.Abs(hi-lo) < opts.Tolerance {
			_, pi := tauGivenP(params, pOfTau(mid))
			g := pOfTau(mid)
			return Prediction{Tau: mid, Gamma: g, BusyProbability: g, StageDistribution: pi, Iterations: opts.MaxIterations + it}, nil
		}
		if (fm >= 0) == (flo >= 0) {
			lo, flo = mid, fm
		} else {
			hi = mid
		}
	}
	return Prediction{}, ErrNoConvergence
}

// Metrics derived from a prediction for a concrete slot/frame timing.
type Metrics struct {
	// CollisionProbability is the paper's per-frame measure ΣC/ΣA = γ.
	CollisionProbability float64
	// NormalizedThroughput is successful payload time over total time.
	NormalizedThroughput float64
	// SlotIdle, SlotSuccess, SlotCollision are the per-virtual-slot
	// outcome probabilities.
	SlotIdle, SlotSuccess, SlotCollision float64
	// MeanSlotDuration is E[σ] in µs.
	MeanSlotDuration float64
	// MeanAccessDelay is the model's saturated head-of-line delay in
	// µs: a tagged station succeeds with per-slot probability τ(1−γ),
	// so it waits 1/(τ(1−γ)) virtual slots of mean duration E[σ]
	// between consecutive successful transmissions.
	MeanAccessDelay float64
}

// Timing groups the busy-period durations used to convert per-slot
// probabilities into time-based metrics.
type Timing struct {
	Slot        float64 // idle slot duration (µs)
	Ts          float64 // successful transmission duration (µs)
	Tc          float64 // collision duration (µs)
	FrameLength float64 // useful payload duration inside Ts (µs)
}

// DefaultTiming reproduces the paper's simulator invocation.
func DefaultTiming() Timing {
	return Timing{
		Slot:        timing.SlotTime,
		Ts:          timing.DefaultSuccessDuration,
		Tc:          timing.DefaultCollisionDuration,
		FrameLength: timing.DefaultFrameDuration,
	}
}

// MetricsFor converts a fixed-point prediction into time-based metrics
// for N stations with the given timing.
func MetricsFor(pred Prediction, n int, tm Timing) Metrics {
	tau := pred.Tau
	pIdle := math.Pow(1-tau, float64(n))
	pSucc := float64(n) * tau * math.Pow(1-tau, float64(n-1))
	pColl := 1 - pIdle - pSucc
	if pColl < 0 {
		pColl = 0
	}
	es := pIdle*tm.Slot + pSucc*tm.Ts + pColl*tm.Tc
	m := Metrics{
		CollisionProbability: pred.Gamma,
		SlotIdle:             pIdle,
		SlotSuccess:          pSucc,
		SlotCollision:        pColl,
		MeanSlotDuration:     es,
	}
	if es > 0 {
		m.NormalizedThroughput = pSucc * tm.FrameLength / es
	}
	if rate := tau * (1 - pred.Gamma); rate > 0 {
		m.MeanAccessDelay = es / rate
	}
	return m
}

// Predict is the one-call convenience used by the experiment harness:
// fixed point plus metrics for the default timing.
func Predict(n int, params config.Params) (Prediction, Metrics, error) {
	pred, err := Solve(n, params, Options{})
	if err != nil {
		return Prediction{}, Metrics{}, err
	}
	return pred, MetricsFor(pred, n, DefaultTiming()), nil
}
