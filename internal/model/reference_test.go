package model

import (
	"errors"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/config"
)

// solveDampedReference is the plain damped decoupling iteration, kept
// verbatim as the test oracle for solveFixedPoint (the way stageDirect
// is kept for Stage): simultaneous damped updates of each group's
// attempt rate τ and availability a, stopping once a damped step moves
// no coordinate by Tolerance or more.
func solveDampedReference(groups []LoadedGroup, tm Timing, opts Options) (fixedPoint, error) {
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

// Widened solver inputs: the contention-window ladders and deferral
// counters a group may run (DC = 1<<20 never expires, the 802.11
// reduction), next to the 1901 class defaults.
var (
	refCW = [][]int{{4, 8, 16, 32}, {8, 16, 32, 64}, {8, 16, 16, 32}, {16, 32, 64, 128}, {32, 64, 128, 256}, {16, 32, 64, 128, 256, 512, 1024}}
	refDC = [][]int{{0, 1, 3, 15}, {0, 0, 1, 3}, {1, 2, 4, 8}, {1 << 20, 1 << 20, 1 << 20, 1 << 20}}
)

// checkLoaded solves groups with SolveLoaded and asserts the output
// properties, then replays the class ladder with solveFixedPoint next
// to solveDampedReference: whenever the reference converges on a
// class, the solver must converge too, to within 1e-9 of it.
func checkLoaded(t *testing.T, groups []LoadedGroup) {
	t.Helper()
	tm := DefaultTiming()
	sol, err := SolveLoaded(groups, tm, Options{})
	if err != nil && !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("%+v: %v", groups, err)
	}
	if err == nil {
		checkLoadedOutput(t, groups, sol)
	}

	byClass := map[config.Priority][]int{}
	for i, g := range groups {
		byClass[g.Priority] = append(byClass[g.Priority], i)
	}
	classes := make([]config.Priority, 0, len(byClass))
	for p := range byClass {
		classes = append(classes, p)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i] > classes[j] })
	share := 1.0
	for _, pri := range classes {
		if share <= 0 {
			return
		}
		var class []LoadedGroup
		for _, gi := range byClass[pri] {
			g := groups[gi]
			g.ArrivalRate /= share
			class = append(class, g)
		}
		fp, err := solveFixedPoint(class, tm, Options{})
		ref, rerr := solveDampedReference(class, tm, Options{})
		if err != nil {
			if rerr == nil {
				t.Fatalf("class %s of %+v: %v, but the damped reference converges", pri, groups, err)
			}
			return
		}
		if rerr == nil {
			for i := range class {
				for _, c := range []struct {
					name     string
					got, ref float64
				}{{"τ", fp.tau[i], ref.tau[i]}, {"γ", fp.gamma[i], ref.gamma[i]}, {"availability", fp.avail[i], ref.avail[i]}} {
					if math.Abs(c.got-c.ref) > 1e-9 {
						t.Fatalf("class %s group %d of %+v: %s = %v, damped reference %v", pri, i, groups, c.name, c.got, c.ref)
					}
				}
			}
		}
		for i, gi := range byClass[pri] {
			share *= math.Pow(1-fp.avail[i], float64(groups[gi].N))
		}
	}
}

// checkLoadedOutput asserts what every SolveLoaded answer must satisfy:
// finite numbers, probabilities in [0,1], starvation exactly below a
// class that holds the medium, and, for stable Poisson groups, flow
// conservation (delivered frames = offered frames).
func checkLoadedOutput(t *testing.T, groups []LoadedGroup, sol *LoadedSolution) {
	t.Helper()
	unit := func(what string, v float64) {
		if !(v >= 0 && v <= 1) {
			t.Fatalf("%+v: %s = %v outside [0,1]", groups, what, v)
		}
	}
	share := 1.0
	for _, cs := range sol.Classes {
		if cs.Share != share {
			t.Fatalf("%+v: class %s share %v, higher classes leave %v", groups, cs.Priority, cs.Share, share)
		}
		unit("share", cs.Share)
		if cs.Starved != (cs.Share == 0) {
			t.Fatalf("%+v: class %s starved=%v with share %v", groups, cs.Priority, cs.Starved, cs.Share)
		}
		m := cs.Met
		for _, v := range []float64{m.TotalThroughput, m.MeanSlotDuration, m.AttemptRate, m.SuccessRate, m.CollidedRate, m.ErrorRate} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("%+v: class %s metrics %+v not finite and ≥ 0", groups, cs.Priority, m)
			}
		}
		unit("collision probability", m.CollisionProbability)
		unit("idle slot probability", m.SlotIdle)
		unit("single slot probability", m.SlotSingle)
		unit("collision slot probability", m.SlotCollision)
		for i, gi := range cs.GroupIndex {
			g := groups[gi]
			unit("τ", cs.Tau[i])
			unit("γ", cs.Gamma[i])
			unit("availability", cs.Availability[i])
			if cs.Starved {
				if cs.Tau[i] != 0 || cs.Gamma[i] != 0 || m.GroupThroughput[i] != 0 || m.TotalThroughput != 0 || m.SuccessRate != 0 {
					t.Fatalf("%+v: starved class %s has nonzero rates: %+v", groups, cs.Priority, cs)
				}
				continue
			}
			if !g.Saturated && cs.Availability[i] < 1 && m.MeanSlotDuration > 0 {
				delivered := float64(g.N) * cs.Availability[i] * cs.Tau[i] * (1 - cs.Gamma[i]) * (1 - g.ErrorProb) / m.MeanSlotDuration * cs.Share
				if want := float64(g.N) * g.ArrivalRate; math.Abs(delivered-want) > 1e-6*want {
					t.Fatalf("%+v: class %s group %d delivers %v frames/µs, offered %v", groups, cs.Priority, i, delivered, want)
				}
			}
		}
		for i, gi := range cs.GroupIndex {
			if a := cs.Availability[i]; a > 0 {
				share *= math.Pow(1-a, float64(groups[gi].N))
			}
		}
	}
}

// FuzzSolveLoaded drives the loaded solver over valid widened inputs:
// 1–4 groups on CW/DC ladders (DC = 1<<20 included), channel error
// probabilities, classes CA0–CA3, Poisson-loaded or saturated.
func FuzzSolveLoaded(f *testing.F) {
	f.Add([]byte{0, 2, 1, 0, 1, 0, 0, 80, 0})
	f.Add([]byte{2, 1, 1, 1, 2, 0, 1, 40, 0, 4, 0, 0, 1, 0, 0, 0, 0, 2, 5, 2, 3, 0, 30, 1, 2, 0})
	f.Add([]byte{3, 2, 2, 0, 3, 0, 1, 10, 50, 1, 0, 0, 1, 20, 1, 90, 255, 3, 1, 3, 2, 0, 1, 0, 0, 2, 4, 1, 0, 255, 0, 200, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		groups := decodeGroups(data)
		if groups == nil {
			return
		}
		checkLoaded(t, groups)
	})
}

// decodeGroups maps fuzz bytes onto a valid solver input, 8 bytes per
// group after a group-count byte: N, CW ladder, DC ladder, class,
// error probability, kind (even: Poisson, odd: saturated) and a 16-bit
// mean interarrival between 1 ms and 300 ms. Nil when data is too short.
func decodeGroups(data []byte) []LoadedGroup {
	if len(data) < 9 {
		return nil
	}
	k := 1 + int(data[0])%4
	data = data[1:]
	var groups []LoadedGroup
	for ; k > 0 && len(data) >= 8; k-- {
		b := data[:8]
		data = data[8:]
		g := LoadedGroup{
			Group: Group{
				N:         1 + int(b[0])%8,
				Params:    config.Params{CW: refCW[int(b[1])%len(refCW)], DC: refDC[int(b[2])%len(refDC)]},
				ErrorProb: float64(b[4]) / 255,
			},
			Priority: config.Priority(b[3] % 4),
		}
		if len(g.Params.DC) != len(g.Params.CW) {
			g.Params.DC = make([]int, len(g.Params.CW))
			for i := range g.Params.DC {
				g.Params.DC[i] = refDC[int(b[2])%len(refDC)][min(i, 3)]
			}
		}
		if b[5]%2 == 1 {
			g.Saturated = true
		} else {
			g.ArrivalRate = 1 / (1e3 + 3e5*float64(uint16(b[6])<<8|uint16(b[7]))/65535)
		}
		groups = append(groups, g)
	}
	return groups
}

// predictMixDraw draws one solver input of predict-mix model shape
// shape: 0 saturated homogeneous, 1 saturated CW/DC groups, 2
// Poisson-loaded mixed classes — with the parameter ranges of the
// benchmark's generator.
func predictMixDraw(r *rand.Rand, shape int) []LoadedGroup {
	round := func(x float64, d int) float64 {
		p := math.Pow(10, float64(d))
		return math.Round(x*p) / p
	}
	ca1 := config.Default1901(config.CA1)
	var groups []LoadedGroup
	switch shape {
	case 0:
		groups = append(groups, LoadedGroup{Group: Group{N: 2 + r.IntN(40), Params: ca1, ErrorProb: round(0.3*r.Float64(), 6)}, Priority: config.CA1, Saturated: true})
	case 1:
		for g := 2 + r.IntN(2); g > 0; g-- {
			groups = append(groups, LoadedGroup{Group: Group{
				N:         1 + r.IntN(5),
				Params:    config.Params{CW: refCW[[]int{0, 1, 3, 4}[r.IntN(4)]], DC: refDC[r.IntN(len(refDC))]},
				ErrorProb: round(0.2*r.Float64(), 6),
			}, Priority: config.CA1, Saturated: true})
		}
	default:
		for g := 2 + r.IntN(3); g > 0; g-- {
			pri := config.Priority(r.IntN(4))
			groups = append(groups, LoadedGroup{
				Group:       Group{N: 1 + r.IntN(4), Params: config.Default1901(pri)},
				Priority:    pri,
				ArrivalRate: 1 / round(5e3+2e5*r.Float64(), 3),
			})
		}
	}
	return groups
}

// TestSolveLoadedPredictMixSweep runs the fuzz properties over seeded
// draws of the three predict-mix shapes.
func TestSolveLoadedPredictMixSweep(t *testing.T) {
	draws := 21000
	if testing.Short() {
		draws = 3000
	}
	r := rand.New(rand.NewPCG(16, 0x9e3779b97f4a7c15))
	for i := 0; i < draws; i++ {
		checkLoaded(t, predictMixDraw(r, i%3))
	}
}
