// Package model implements the decoupling ("mean-field") analytical
// model of the IEEE 1901 backoff process — the "Analysis" curve of the
// paper's Figure 2. The 802.11 DCF baseline needs no model of its own:
// Solve on config.DCF.Params() is the Bianchi-style fixed point, since a
// stage whose deferral counter cannot expire always ends in an attempt.
//
// The model follows the fixed-point construction of Vlachou, Banchs,
// Herzen and Thiran ("On the MAC for Power-Line Communications:
// Modeling Assumptions and Performance Tradeoffs", ICNP 2014), which the
// paper cites as [5]: each station is modeled in isolation against a
// medium that is busy in any observed slot independently with
// probability p; transmission attempts collide with probability
// γ = 1 − (1−τ)^(N−1); and the per-station attempt rate τ follows from
// a renewal-reward argument over the backoff-stage chain. Consistency
// of (τ, p) is imposed by a fixed point solved numerically.
package model

import "math"

// binomialTail returns P(Bin(n, p) ≤ k) — the probability that at most
// k of n independent busy/idle observations are busy.
//
// Computed by the forward pmf recurrence
//
//	pmf(j+1) = pmf(j) · (n−j)/(j+1) · p/(1−p)
//
// which is numerically stable for the small n (≤ a few thousand) and
// moderate k this model needs, and avoids any math.Gamma cancellation.
func binomialTail(n, k int, p float64) float64 {
	if k < 0 {
		return 0
	}
	if k >= n || p <= 0 {
		return 1
	}
	if p >= 1 {
		return 0 // all n observations busy; n > k here
	}
	q := 1 - p
	pmf := math.Pow(q, float64(n)) // P(X = 0)
	sum := pmf
	ratio := p / q
	for j := 0; j < k; j++ {
		pmf *= float64(n-j) / float64(j+1) * ratio
		sum += pmf
	}
	if sum > 1 {
		return 1
	}
	return sum
}

// negBinomialAt returns P(the (r)-th busy observation happens exactly at
// observation k), i.e. C(k−1, r−1)·p^r·(1−p)^(k−r) for k ≥ r ≥ 1.
func negBinomialAt(r, k int, p float64) float64 {
	if k < r || r < 1 || p <= 0 {
		return 0
	}
	if p >= 1 {
		if k == r {
			return 1
		}
		return 0
	}
	// C(k-1, r-1) p^r q^(k-r), built multiplicatively in log space only
	// if needed; the direct product is fine for the magnitudes in play.
	q := 1 - p
	v := math.Pow(p, float64(r)) * math.Pow(q, float64(k-r))
	// multiply by C(k-1, r-1)
	for i := 1; i <= r-1; i++ {
		v *= float64(k-r+i) / float64(i)
	}
	return v
}
