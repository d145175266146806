package model

import (
	"fmt"

	"repro/internal/config"
)

// SolveDCF computes the Bianchi-style fixed point for N saturated
// 802.11 DCF stations: the same renewal-reward construction as the 1901
// model with the deferral mechanism removed, so the two protocols are
// modeled under identical assumptions (slotted time, busy slots count
// one decrement, infinite retry).
//
// A DCF stage visit with window W consumes on average (W−1)/2 backoff
// slots plus one transmission slot and always ends in an attempt, so
// x_i = 1 and E[T_i] = (W_i+1)/2 + ... precisely E[T_i] = (W_i−1)/2 + 1.
func SolveDCF(n int, cfg config.DCF, opts Options) (Prediction, error) {
	if n < 1 {
		return Prediction{}, fmt.Errorf("model: N=%d must be ≥ 1", n)
	}
	if err := cfg.Validate(); err != nil {
		return Prediction{}, err
	}
	m := cfg.Stages()
	slotsAt := func(i int) float64 { return float64(cfg.Window(i)-1)/2 + 1 }

	// The per-group τ function of the shared loop: a DCF station's
	// attempts fail exactly when they collide, so succ is 1−γ by
	// construction and goes unused.
	tauOf := func(_ *Group, gamma, _ float64) (float64, []float64) {
		// Visit rates: v_0 = 1; v_i = γ^i for i < m−1; the last stage
		// absorbs the tail: v_{m−1} = γ^{m−1}/(1−γ).
		v := make([]float64, m)
		v[0] = 1
		for i := 1; i < m; i++ {
			v[i] = v[i-1] * gamma
		}
		if m > 1 && gamma < 1 {
			v[m-1] /= 1 - gamma
		}
		var num, den, sum float64
		for i := 0; i < m; i++ {
			num += v[i] // one attempt per visit
			den += v[i] * slotsAt(i)
			sum += v[i]
		}
		pi := make([]float64, m)
		for i := range pi {
			pi[i] = v[i] / sum
		}
		return num / den, pi
	}

	fp, err := solveFixedPoint([]LoadedGroup{{Group: Group{N: n}, Saturated: true}}, tauOf, Timing{}, opts)
	if err != nil {
		return Prediction{}, err
	}
	return fp.prediction(), nil
}
