package model

import (
	"fmt"
	"math"

	"repro/internal/config"
)

// Group is a set of identically configured stations inside a
// heterogeneous contention domain.
type Group struct {
	// N is the number of stations in the group.
	N int
	// Params is the group's CSMA/CA configuration.
	Params config.Params
	// ErrorProb is the per-frame channel error probability in [0, 1]:
	// a transmission that wins the medium alone is still lost with this
	// probability. It folds into the fixed point's success term — an
	// attempt returns to stage 0 w.p. (1−γ)(1−ErrorProb) — because the
	// destination acknowledges the errored frame with an all-blocks-
	// errored indication and the transmitter advances its backoff stage
	// exactly like a collision. 0 keeps the paper's error-free channel.
	ErrorProb float64
}

// HeteroPrediction is the multi-group fixed point: per-group attempt
// probabilities and collision probabilities, plus derived per-group
// throughput shares.
type HeteroPrediction struct {
	// Tau[i] is group i's per-slot attempt probability.
	Tau []float64
	// Gamma[i] is group i's conditional collision probability:
	// 1 − Π_j (1−τ_j)^(n_j − [i=j]).
	Gamma []float64
	// Iterations used by the solver.
	Iterations int
}

// SolveHeterogeneous extends the decoupling fixed point to multiple
// station groups with different (cw, dc) configurations — the model
// needed to analyze coexistence between boosted and default stations.
// Each group's station solves the same renewal-reward equation as in
// the homogeneous model, but against a busy probability composed from
// every other station's attempt rate:
//
//	p_i = 1 − (1−τ_i)^(n_i−1) · Π_{j≠i} (1−τ_j)^(n_j)
//
// The joint fixed point is the shared fixed-point loop
// (solveFixedPoint) with every group saturated.
func SolveHeterogeneous(groups []Group, opts Options) (HeteroPrediction, error) {
	if len(groups) == 0 {
		return HeteroPrediction{}, fmt.Errorf("model: no groups")
	}
	saturated := make([]LoadedGroup, len(groups))
	for i, g := range groups {
		if err := g.validate(i); err != nil {
			return HeteroPrediction{}, err
		}
		saturated[i] = LoadedGroup{Group: g, Saturated: true}
	}
	fp, err := solveFixedPoint(saturated, Timing{}, opts)
	if err != nil {
		return HeteroPrediction{}, err
	}
	return HeteroPrediction{Tau: fp.tau, Gamma: fp.gamma, Iterations: fp.iterations}, nil
}

// validate checks group i of a solver input.
func (g Group) validate(i int) error {
	if g.N < 1 {
		return fmt.Errorf("model: group %d has N=%d", i, g.N)
	}
	if err := g.Params.Validate(); err != nil {
		return fmt.Errorf("model: group %d: %w", i, err)
	}
	if g.ErrorProb < 0 || g.ErrorProb > 1 || math.IsNaN(g.ErrorProb) {
		return fmt.Errorf("model: group %d: error probability %v outside [0, 1]", i, g.ErrorProb)
	}
	return nil
}

// gammaOf is group i's conditional collision probability given the
// current attempt rates: 1 − Π_j (1−τ_j)^(n_j − [i=j]). Runs of groups
// sharing the same τ are collapsed into one math.Pow call with the
// summed exponent, so that k identically configured groups — whose τ
// stay equal throughout the iteration by symmetry — reproduce the
// homogeneous solver's 1 − (1−τ)^(N−1) bit for bit.
func gammaOf(tau []float64, groups []LoadedGroup, i int) float64 {
	q := 1.0
	for j := 0; j < len(tau); {
		base := 1 - tau[j]
		exp := groups[j].N
		if j == i {
			exp--
		}
		k := j + 1
		for k < len(tau) && 1-tau[k] == base {
			exp += groups[k].N
			if k == i {
				exp--
			}
			k++
		}
		if exp > 0 {
			q *= math.Pow(base, float64(exp))
		}
		j = k
	}
	return 1 - q
}

// HeteroMetrics derives time-based metrics from a heterogeneous fixed
// point: throughput shares plus the per-virtual-slot rates the scenario
// layer converts into expected event counts.
type HeteroMetrics struct {
	// GroupThroughput[i] is group i's normalized throughput (all its
	// stations combined).
	GroupThroughput []float64
	// PerStationThroughput[i] is one group-i station's share.
	PerStationThroughput []float64
	// TotalThroughput sums the groups.
	TotalThroughput float64
	// MeanSlotDuration is E[σ] in µs.
	MeanSlotDuration float64
	// CollisionProbability is the attempt-weighted ΣC/ΣA the paper's
	// counters measure: Σ n_i·τ_i·γ_i / Σ n_i·τ_i. Errored frames sit in
	// the denominator (the destination acknowledges them), so the
	// definition matches the simulator's with channel errors enabled.
	CollisionProbability float64
	// SlotIdle, SlotSingle and SlotCollision are the per-virtual-slot
	// outcome probabilities. SlotSingle counts every single-transmitter
	// slot — successes and channel-errored frames both occupy Ts.
	SlotIdle, SlotSingle, SlotCollision float64
	// AttemptRate, SuccessRate, CollidedRate and ErrorRate are expected
	// frames per virtual slot: attempts Σ n_i·τ_i, delivered frames
	// Σ n_i·τ_i·(1−γ_i)(1−e_i), collided frames Σ n_i·τ_i·γ_i, and
	// channel-errored frames Σ n_i·τ_i·(1−γ_i)·e_i.
	AttemptRate, SuccessRate, CollidedRate, ErrorRate float64
}

// HeteroMetricsFor evaluates the time-based metrics of a heterogeneous
// prediction. The per-slot delivery probability of a group-i station is
// τ_i(1−γ_i)(1−e_i); the slot-duration composition follows the
// homogeneous construction with the aggregate idle/busy probabilities
// (an errored single-transmitter slot occupies Ts like a success).
func HeteroMetricsFor(pred HeteroPrediction, groups []Group, tm Timing) HeteroMetrics {
	pIdle := 1.0
	for j, g := range groups {
		pIdle *= math.Pow(1-pred.Tau[j], float64(g.N))
	}
	var pSingle float64
	m := HeteroMetrics{
		GroupThroughput:      make([]float64, len(groups)),
		PerStationThroughput: make([]float64, len(groups)),
	}
	groupSucc := make([]float64, len(groups))
	for i, g := range groups {
		a := float64(g.N) * pred.Tau[i]
		s := a * (1 - pred.Gamma[i])
		groupSucc[i] = s * (1 - g.ErrorProb)
		pSingle += s
		m.AttemptRate += a
		m.CollidedRate += a * pred.Gamma[i]
		m.ErrorRate += s * g.ErrorProb
		m.SuccessRate += groupSucc[i]
	}
	pColl := 1 - pIdle - pSingle
	if pColl < 0 {
		pColl = 0
	}
	es := pIdle*tm.Slot + pSingle*tm.Ts + pColl*tm.Tc
	m.SlotIdle, m.SlotSingle, m.SlotCollision = pIdle, pSingle, pColl
	m.MeanSlotDuration = es
	if m.AttemptRate > 0 {
		m.CollisionProbability = m.CollidedRate / m.AttemptRate
	}
	if es <= 0 {
		return m
	}
	for i, g := range groups {
		m.GroupThroughput[i] = groupSucc[i] * tm.FrameLength / es
		m.PerStationThroughput[i] = m.GroupThroughput[i] / float64(g.N)
		m.TotalThroughput += m.GroupThroughput[i]
	}
	return m
}
