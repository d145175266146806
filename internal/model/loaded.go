package model

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/config"
)

// LoadedGroup is one station group under the extended fixed point: the
// heterogeneous decoupling model widened with an offered load (Poisson
// arrivals or silence instead of saturation) and a channel-access
// priority class.
type LoadedGroup struct {
	Group
	// Priority is the group's 1901 channel-access class. Stations never
	// contend across classes: the priority-resolution phase elects the
	// highest class with pending traffic and only its members run the
	// backoff process.
	Priority config.Priority
	// Saturated marks an always-backlogged group (availability 1).
	Saturated bool
	// ArrivalRate is the per-station Poisson arrival rate λ in frames
	// per µs for an unsaturated group. Zero with Saturated false means
	// the group is silent (availability 0); delivered frames are
	// retried until successful, so a stable station's delivery rate is
	// exactly λ.
	ArrivalRate float64
}

// silent reports whether the group never offers traffic.
func (g LoadedGroup) silent() bool { return !g.Saturated && g.ArrivalRate == 0 }

// ClassSolution is the fixed point of one priority class, solved over
// the fraction of wall-clock time the class can access the medium.
type ClassSolution struct {
	// Priority is the class this solution describes.
	Priority config.Priority
	// Share is F_c: the fraction of wall-clock time no strictly higher
	// class has pending traffic, i.e. the fraction the priority
	// resolution phase awards to this class. The highest present class
	// has Share 1; a class below a saturated one has Share 0.
	Share float64
	// Starved is true when Share is 0 and the class offers traffic it
	// can never send: its stations stay backlogged forever and every
	// rate below is exactly zero.
	Starved bool
	// GroupIndex maps the per-group slices below back to positions in
	// the SolveLoaded input.
	GroupIndex []int
	// Tau is the per-slot attempt probability of a backlogged station,
	// per group; Availability the probability the station is backlogged
	// at a slot boundary (1 for saturated, 0 for silent groups); Gamma
	// the conditional collision probability against the effective
	// attempt rates Availability·Tau.
	Tau, Availability, Gamma []float64
	// Met holds the class's per-virtual-slot rates and timing, measured
	// in the class's own medium time (multiply rates/E[σ] by Share to
	// get wall-clock rates). Zero-valued when Starved.
	Met HeteroMetrics
	// Iterations used by the class solver.
	Iterations int
}

// LoadedSolution is the joint fixed point over every priority class.
type LoadedSolution struct {
	// Classes holds one solution per present class, highest priority
	// first (the order they were solved in).
	Classes []ClassSolution
}

// ClassFor returns the solution for a class, or nil when the input had
// no group of that class.
func (s *LoadedSolution) ClassFor(p config.Priority) *ClassSolution {
	for i := range s.Classes {
		if s.Classes[i].Priority == p {
			return &s.Classes[i]
		}
	}
	return nil
}

// SolveLoaded extends the heterogeneous decoupling fixed point with an
// offered-load (unsaturated) regime and strict 1901 priority classes.
//
// Within one class, each group carries an attempt-availability
// probability a: the chance a station has a frame pending at a slot
// boundary. The effective per-slot attempt probability is a·τ, which
// replaces τ in the busy probability and the slot-state composition,
// and a itself is pinned by flow conservation — a backlogged station
// delivers τ(1−γ)(1−e) frames per virtual slot of mean duration E[σ],
// so a = min(1, λ·E[σ]/(τ(1−γ)(1−e))) — giving a joint damped fixed
// point in (τ, a). Saturated groups hold a = 1 (an all-saturated class
// is exactly SolveHeterogeneous: both run solveFixedPoint) and silent
// groups a = 0.
//
// Across classes, the priority-resolution phase is strict: a lower
// class transmits only while no higher-class station is backlogged.
// Under the decoupling assumption that fraction is
// F_c = Π over higher-class groups (1−a)^N, so each class solves its
// own fixed point over its share of the timeline with arrival rates
// scaled by 1/F_c; a saturated (or overloaded) higher class starves
// everything below it to exactly zero, matching the event-driven MAC's
// frozen-backoff semantics.
func SolveLoaded(groups []LoadedGroup, tm Timing, opts Options) (*LoadedSolution, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("model: no groups")
	}
	for i, g := range groups {
		if err := g.validate(i); err != nil {
			return nil, err
		}
		if !g.Priority.Valid() {
			return nil, fmt.Errorf("model: group %d: invalid priority %v", i, g.Priority)
		}
		if g.ArrivalRate < 0 || math.IsNaN(g.ArrivalRate) || math.IsInf(g.ArrivalRate, 0) {
			return nil, fmt.Errorf("model: group %d: arrival rate %v must be ≥ 0 and finite", i, g.ArrivalRate)
		}
		if g.Saturated && g.ArrivalRate > 0 {
			return nil, fmt.Errorf("model: group %d: saturated groups carry no arrival rate", i)
		}
	}

	// Partition by class, highest priority first: higher classes are
	// oblivious to lower ones, so they solve first and hand their
	// occupancies down.
	byClass := map[config.Priority][]int{}
	for i, g := range groups {
		byClass[g.Priority] = append(byClass[g.Priority], i)
	}
	classes := make([]config.Priority, 0, len(byClass))
	for p := range byClass {
		classes = append(classes, p)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] > classes[j] })

	out := &LoadedSolution{}
	share := 1.0
	for _, pri := range classes {
		idx := byClass[pri]
		cs, err := solveClass(pri, idx, groups, share, tm, opts)
		if err != nil {
			return nil, err
		}
		out.Classes = append(out.Classes, cs)
		// This class's occupancy shrinks the share of every class below.
		for k, gi := range idx {
			if occ := cs.Availability[k]; occ > 0 {
				share *= math.Pow(1-occ, float64(groups[gi].N))
			}
		}
	}
	return out, nil
}

// solveClass computes one class's fixed point over its wall-clock share.
func solveClass(pri config.Priority, idx []int, groups []LoadedGroup, share float64, tm Timing, opts Options) (ClassSolution, error) {
	k := len(idx)
	cs := ClassSolution{Priority: pri, Share: share, GroupIndex: append([]int(nil), idx...)}

	if share <= 0 {
		// Starved by a saturated class above: the class never reaches
		// the medium. Loaded stations stay backlogged forever
		// (occupancy 1, so everything below starves too); every rate is
		// exactly zero.
		cs.Starved = true
		cs.Tau, cs.Availability, cs.Gamma = make([]float64, k), make([]float64, k), make([]float64, k)
		for i, gi := range idx {
			if !groups[gi].silent() {
				cs.Availability[i] = 1
			}
		}
		cs.Met = HeteroMetrics{
			GroupThroughput:      make([]float64, k),
			PerStationThroughput: make([]float64, k),
		}
		return cs, nil
	}

	// The class sees only its share of the timeline, so its arrival
	// rates are per µs of class medium time: λ/F_c.
	class := make([]LoadedGroup, k)
	plain := make([]Group, k)
	for i, gi := range idx {
		class[i] = groups[gi]
		class[i].ArrivalRate /= share
		plain[i] = groups[gi].Group
	}
	fp, err := solveFixedPoint(class, tm, opts)
	if err != nil {
		return ClassSolution{}, fmt.Errorf("model: class %s: %w", pri, err)
	}
	cs.Tau, cs.Availability, cs.Gamma, cs.Iterations = fp.tau, fp.avail, fp.gamma, fp.iterations
	eff := make([]float64, k)
	for i := range eff {
		eff[i] = fp.avail[i] * fp.tau[i]
	}
	cs.Met = HeteroMetricsFor(HeteroPrediction{Tau: eff, Gamma: cs.Gamma}, plain, tm)
	return cs, nil
}

// fixedPoint is the converged state of solveFixedPoint, per group.
type fixedPoint struct {
	tau, avail, gamma []float64
	// pi is each group's stage distribution from the final iteration.
	pi         [][]float64
	iterations int
}

// prediction is the single-group fixed point as a Prediction.
func (fp fixedPoint) prediction() Prediction {
	g := fp.gamma[0]
	return Prediction{Tau: fp.tau[0], Gamma: g, BusyProbability: g, StageDistribution: fp.pi[0], Iterations: fp.iterations}
}

// solveFixedPoint is the one damped decoupling iteration behind every
// solver: simultaneous damped updates of each group's attempt rate τ
// (tauGivenSucc, against the busy probability γ composed from every
// other station's effective rate a·τ) and, for Poisson-loaded groups,
// of the availability a (flow conservation against the mean slot
// duration E[σ], with ArrivalRate per µs of the class's medium time).
// Saturated groups hold a = 1 and silent groups a = 0. A lone saturated
// station sees an idle medium: p = 0 exactly, answered without
// iterating (the iteration would only approach it geometrically).
func solveFixedPoint(groups []LoadedGroup, tm Timing, opts Options) (fixedPoint, error) {
	opts = opts.withDefaults()
	k := len(groups)
	fp := fixedPoint{tau: make([]float64, k), avail: make([]float64, k), gamma: make([]float64, k), pi: make([][]float64, k)}
	total, loaded := 0, false
	for i, g := range groups {
		total += g.N
		fp.tau[i] = 0.1
		switch {
		case g.Saturated:
			fp.avail[i] = 1
		case g.silent():
			fp.avail[i] = 0
		default:
			fp.avail[i] = 1 // start backlogged and relax downward
			loaded = true
		}
	}
	if total == 1 && groups[0].Saturated {
		fp.tau[0], fp.pi[0] = tauGivenSucc(groups[0].Params, 0, 1-groups[0].ErrorProb)
		return fp, nil
	}

	eff := make([]float64, k) // a·τ, the effective per-slot attempt rates
	nextTau := make([]float64, k)
	nextAvail := make([]float64, k)
	for it := 1; it <= opts.MaxIterations; it++ {
		for i := range groups {
			eff[i] = fp.avail[i] * fp.tau[i]
		}
		for i := range groups {
			fp.gamma[i] = gammaOf(eff, groups, i)
		}
		es := 0.0
		if loaded {
			// Slot-state composition under the effective attempt rates.
			pIdle := 1.0
			var pSingle float64
			for i, g := range groups {
				pIdle *= math.Pow(1-eff[i], float64(g.N))
				pSingle += float64(g.N) * eff[i] * (1 - fp.gamma[i])
			}
			pColl := 1 - pIdle - pSingle
			if pColl < 0 {
				pColl = 0
			}
			es = pIdle*tm.Slot + pSingle*tm.Ts + pColl*tm.Tc
		}

		var maxDelta float64
		for i := range groups {
			g := &groups[i]
			gam, tau, avail := fp.gamma[i], fp.tau[i], fp.avail[i]
			var v float64
			v, fp.pi[i] = tauGivenSucc(g.Params, gam, (1-gam)*(1-g.ErrorProb))
			nextTau[i] = tau + opts.Damping*(v-tau)
			if d := math.Abs(nextTau[i] - tau); d > maxDelta {
				maxDelta = d
			}

			nextAvail[i] = avail
			if !g.Saturated && !g.silent() {
				// Flow conservation: while backlogged the station
				// completes τ(1−γ)(1−e) frames per slot of E[σ] µs, so
				// its queue is busy the fraction λ·E[σ]/service,
				// clamped at 1 (overload: the station saturates).
				serv := tau * (1 - gam) * (1 - g.ErrorProb)
				target := 1.0
				if serv > 0 {
					target = g.ArrivalRate * es / serv
					if target > 1 {
						target = 1
					}
				}
				nextAvail[i] = avail + opts.Damping*(target-avail)
				if d := math.Abs(nextAvail[i] - avail); d > maxDelta {
					maxDelta = d
				}
			}
		}
		copy(fp.tau, nextTau)
		copy(fp.avail, nextAvail)
		if maxDelta < opts.Tolerance {
			for i := range groups {
				eff[i] = fp.avail[i] * fp.tau[i]
			}
			for i := range groups {
				fp.gamma[i] = gammaOf(eff, groups, i)
			}
			fp.iterations = it
			return fp, nil
		}
	}
	return fixedPoint{}, ErrNoConvergence
}
