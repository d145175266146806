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

// poisson reports whether the group offers Poisson traffic, so its
// availability iterates.
func (g LoadedGroup) poisson() bool { return !g.Saturated && g.ArrivalRate > 0 }

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

// Anderson mixing constants of solveFixedPoint.
const (
	// andersonDepth is how many past steps an extrapolation combines.
	andersonDepth = 3
	// andersonResets is how many rejected extrapolations the
	// accelerated attempt tolerates, and andersonBudget how many map
	// evaluations it may use, before the solve falls back to the plain
	// damped iteration.
	andersonResets = 8
	andersonBudget = 100
	// andersonDrop drops a stored residual difference from the least
	// squares when all but this fraction of its norm lies in the span
	// of the newer ones: a near-dependent column only amplifies noise.
	andersonDrop = 1e-8
)

// MaxEvaluations bounds the map evaluations SolveLoaded spends on each
// priority class of at most k groups at the default Options: the
// accelerated attempt, its stability check (one evaluation per free
// coordinate, at most 2k) and the plain damped iteration. Each
// evaluation runs Stage once per backoff stage of every group in the
// class, an O(cw) loop, which is what makes a static cost bound of a
// solve possible.
func MaxEvaluations(k int) int {
	return andersonBudget + 2*k + Options{}.withDefaults().MaxIterations
}

// solveFixedPoint is the one decoupling iteration behind every solver.
// Its map G(τ, a) sends each group's attempt rate τ to the renewal-
// reward τ (tauGivenSucc) against the busy probability γ composed from
// every other station's effective rate a·τ, and, for Poisson-loaded
// groups, the availability a to its flow-conservation target
// min(1, λ·E[σ]/(τ(1−γ)(1−e))), with ArrivalRate per µs of the class's
// medium time. Saturated groups hold a = 1 and silent groups a = 0.
//
// Equal groups (same CW/DC vectors, error probability, saturation and
// arrival rate) are merged into one group of their summed N first, so k
// identical groups are the homogeneous problem by construction. A lone
// saturated station sees an idle medium: p = 0 exactly, answered
// without iterating.
//
// The iteration is the damped step x + β·(G(x) − x), β = Damping, from
// τ = 0.1 and every loaded group backlogged (a = 1), accelerated by
// Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 2011): each step
// combines the last andersonDepth steps so that their residuals cancel
// in least squares. An extrapolation that leaves [0,1] is replaced by
// the damped step. One that raises the residual, or leaps a Poisson
// group's availability into another basin (see leapsBasin), is
// replaced by the damped step too, clears the history and counts a
// reset: a load can have a stable fixed point below saturation and a
// saturated one, and only the damped path decides between them. The
// plain damped iteration from the start takes over after
// andersonResets resets or andersonBudget evaluations, and when the
// damped map does not contract around the converged point (see
// stable), so the solver converges wherever the damped iteration does.
// It starts over rather than going on from where the acceleration left
// off: from another starting point the damped iteration can cycle
// instead.
//
// A solve stops once the residual max|G(x)−x| falls below Tolerance;
// every map evaluation counts as an iteration. An overloaded group
// (availability target clamped to 1) ends with availability exactly 1,
// so the classes below it starve exactly.
func solveFixedPoint(groups []LoadedGroup, tm Timing, opts Options) (fixedPoint, error) {
	uniq, of := mergeEqual(groups)
	fp, err := solveDistinct(uniq, tm, opts.withDefaults())
	if err != nil || of == nil {
		return fp, err
	}
	out := newFixedPoint(len(groups))
	out.iterations = fp.iterations
	for i, u := range of {
		out.tau[i], out.avail[i], out.gamma[i], out.pi[i] = fp.tau[u], fp.avail[u], fp.gamma[u], fp.pi[u]
	}
	return out, nil
}

// newFixedPoint allocates the per-group result slices for k groups.
func newFixedPoint(k int) fixedPoint {
	buf := make([]float64, 3*k)
	return fixedPoint{tau: buf[:k:k], avail: buf[k : 2*k : 2*k], gamma: buf[2*k:], pi: make([][]float64, k)}
}

// mergeEqual merges equal groups into one group of their summed N.
// of[i] is input group i's index in the merged slice; of is nil, and
// groups comes back as is, when every group is already distinct.
func mergeEqual(groups []LoadedGroup) (uniq []LoadedGroup, of []int) {
	same := func(a, b LoadedGroup) bool {
		return a.Params.Equal(b.Params) && a.ErrorProb == b.ErrorProb &&
			a.Saturated == b.Saturated && a.ArrivalRate == b.ArrivalRate
	}
	dup := false
	for i := range groups {
		for j := 0; j < i && !dup; j++ {
			dup = same(groups[i], groups[j])
		}
	}
	if !dup {
		return groups, nil
	}
	of = make([]int, len(groups))
	for i, g := range groups {
		u := 0
		for u < len(uniq) && !same(uniq[u], g) {
			u++
		}
		if u == len(uniq) {
			uniq = append(uniq, g)
		} else {
			uniq[u].N += g.N
		}
		of[i] = u
	}
	return uniq, of
}

// solveDistinct is solveFixedPoint on already merged groups.
func solveDistinct(groups []LoadedGroup, tm Timing, opts Options) (fixedPoint, error) {
	k := len(groups)
	fp := newFixedPoint(k)
	s := solver{groups: groups, tm: tm, gamma: fp.gamma, pi: fp.pi}
	total, stages, maxStages := 0, 0, 0
	for _, g := range groups {
		total += g.N
		stages += g.Params.Stages()
		maxStages = max(maxStages, g.Params.Stages())
		s.loaded = s.loaded || g.poisson()
	}
	piBuf := make([]float64, stages)
	for i, g := range groups {
		m := g.Params.Stages()
		fp.pi[i], piBuf = piBuf[:m:m], piBuf[m:]
	}
	s.ws = newWorkspace(maxStages)
	if total == 1 && groups[0].Saturated {
		fp.avail[0] = 1
		fp.tau[0] = s.ws.tau(groups[0].Params, 0, 1-groups[0].ErrorProb, fp.pi[0])
		return fp, nil
	}

	// The iterate is x = (τ_0…τ_{k−1}, a_0…a_{k−1}); saturated and silent
	// groups' a are fixed points of every step below.
	n := 2 * k
	buf := make([]float64, k+5*n)
	s.eff, buf = buf[:k], buf[k:]
	x0 := buf[:n]
	s.x, s.g, s.xn, s.gn = buf[n:2*n], buf[2*n:3*n], buf[3*n:4*n], buf[4*n:]
	for i, g := range groups {
		x0[i] = 0.1
		if !g.silent() {
			x0[k+i] = 1 // saturated, or loaded: start backlogged and relax downward
		}
	}
	it, ok := s.iterate(x0, newAnderson(n), opts, min(andersonBudget, opts.MaxIterations))
	if ok {
		// A fixed point the damped iteration cannot reach is not its
		// answer: only its own path tells which one is.
		evals, stable := s.stable(opts.Damping)
		it, ok = it+evals, stable
	}
	if !ok {
		var more int
		more, ok = s.iterate(x0, nil, opts, opts.MaxIterations)
		it += more
	}
	if !ok {
		return fixedPoint{}, ErrNoConvergence
	}

	copy(fp.tau, s.x[:k])
	copy(fp.avail, s.x[k:])
	for i, g := range groups {
		if g.poisson() && s.g[k+i] == 1 {
			fp.avail[i] = 1 // overloaded: saturated exactly, not within Tolerance of it
		}
		s.eff[i] = fp.avail[i] * fp.tau[i]
	}
	for i := range groups {
		fp.gamma[i] = gammaOf(s.eff, groups, i)
	}
	fp.iterations = it
	return fp, nil
}

// iterate runs the loop from x0 for at most budget map evaluations —
// Anderson-accelerated with acc, plain damped steps with acc nil — and
// reports the evaluations used and whether the residual fell below
// Tolerance, leaving the last iterate in s.x and its map value in s.g.
// The accelerated loop also gives up after andersonResets resets.
func (s *solver) iterate(x0 []float64, acc *anderson, opts Options, budget int) (int, bool) {
	copy(s.x, x0)
	res := s.evaluate(s.x, s.g, s.pi)
	it, resets := 1, 0
	for !(res < opts.Tolerance) {
		if it >= budget || resets >= andersonResets {
			return it, false
		}
		x, g, xn, gn := s.x, s.g, s.xn, s.gn
		accel := acc != nil && acc.count > 0 && acc.extrapolate(x, g, xn, opts.Damping)
		if !accel {
			damp(x, g, xn, opts.Damping)
		}
		resN := s.evaluate(xn, gn, s.pi)
		it++
		if accel && (!(sumSquares(xn, gn) <= sumSquares(x, g)) || s.leapsBasin(x, g, xn, gn)) {
			// The extrapolation raised the residual (in the norm its
			// least squares minimizes) or left the damped path's
			// basin: take the damped step instead.
			resets++
			acc.count = 0
			if it >= budget {
				return it, false
			}
			damp(x, g, xn, opts.Damping)
			resN = s.evaluate(xn, gn, s.pi)
			it++
		}
		if acc != nil {
			acc.push(x, g, xn, gn)
		}
		s.x, s.g, s.xn, s.gn = xn, gn, x, g
		res = resN
	}
	return it, true
}

// leapsBasin reports whether the step from x (map value g) to xn (map
// value gn) moved some Poisson group's availability against its
// residual g − x and landed where that residual has the opposite sign:
// along that coordinate it leapt over a root at which the residual
// rises with the availability — an unstable fixed point between a
// stable one below saturation and the saturated one — into the other
// one's basin.
func (s *solver) leapsBasin(x, g, xn, gn []float64) bool {
	k := len(s.groups)
	for i, grp := range s.groups {
		if !grp.poisson() {
			continue
		}
		j := k + i
		f, fn, step := g[j]-x[j], gn[j]-xn[j], xn[j]-x[j]
		if step*f < 0 && f*fn < 0 {
			return true
		}
	}
	return false
}

// stable reports whether the damped map contracts around the converged
// s.x, that is, whether M = (1−β)·I + β·J has spectral radius below 1,
// with J the forward-difference Jacobian of G over the free coordinates
// (every τ, and the availability of each Poisson group below the
// clamp). The radius is read off M^4096, formed by twelve squarings. A
// class can have several fixed points — a Poisson load a stable one
// below saturation, an unstable one above it and the saturated one;
// two near-twin groups an unstable even split between two lopsided
// ones — and an extrapolation can converge to an unstable one, which
// the damped iteration never settles on. With one free coordinate the
// fixed point is unique and nothing is checked. It returns the map
// evaluations used, one per free coordinate.
func (s *solver) stable(beta float64) (int, bool) {
	k := len(s.groups)
	n := 2 * k
	m := k
	for i, g := range s.groups {
		if g.poisson() && s.g[k+i] < 1 {
			m++
		}
	}
	if m < 2 {
		return 0, true
	}
	free := make([]int, 0, m)
	for i := range s.groups {
		free = append(free, i)
	}
	for i, g := range s.groups {
		if g.poisson() && s.g[k+i] < 1 {
			free = append(free, k+i)
		}
	}
	buf := make([]float64, 2*m*m+2*n)
	mat, sq, xp, gp := buf[:m*m], buf[m*m:2*m*m], buf[2*m*m:2*m*m+n], buf[2*m*m+n:]
	for c, j := range free {
		copy(xp, s.x)
		h := 1e-7 // well above the map's rounding, well below its curvature
		if xp[j]+h > 1 {
			h = -h
		}
		xp[j] += h
		s.evaluate(xp, gp, nil)
		for r, i := range free {
			mat[r*m+c] = beta * (gp[i] - s.g[i]) / h
			if r == c {
				mat[r*m+c] += 1 - beta
			}
		}
	}
	// After each squaring mat is rescaled to max-entry 1; logScale
	// accumulates log max|M^(2^t)|, whose 2^-t-th power tends to the
	// spectral radius (from above, so doubt falls on the safe side).
	logScale := 0.0
	for t := 0; t < 12; t++ {
		scale := 0.0
		for r := 0; r < m; r++ {
			for c := 0; c < m; c++ {
				var v float64
				for q := 0; q < m; q++ {
					v += mat[r*m+q] * mat[q*m+c]
				}
				sq[r*m+c] = v
				scale = math.Max(scale, math.Abs(v))
			}
		}
		if scale == 0 {
			return m, true // nilpotent
		}
		if math.IsInf(scale, 0) || math.IsNaN(scale) {
			return m, false
		}
		for q, v := range sq {
			mat[q] = v / scale
		}
		logScale = 2*logScale + math.Log(scale)
	}
	return m, logScale < 0
}

// damp writes the damped step x + β·(g − x) into xn.
func damp(x, g, xn []float64, beta float64) {
	for j := range x {
		xn[j] = x[j] + beta*(g[j]-x[j])
	}
}

// solver holds one solve's groups and the buffers every evaluation of
// the map reuses.
type solver struct {
	groups []LoadedGroup
	tm     Timing
	loaded bool // some group is Poisson-loaded: E[σ] enters the map
	ws     *workspace
	// eff is a·τ, the effective per-slot attempt rates; gamma and pi
	// hold γ and the stage distributions of the last evaluation.
	eff, gamma []float64
	pi         [][]float64
	// x and g are the current iterate and its map value, xn and gn the
	// next ones.
	x, g, xn, gn []float64
}

// evaluate writes G(x) into g — g[i] the renewal-reward τ of group i,
// g[k+i] its availability target — and returns the residual
// max|G(x)−x| (NaN when the map is undefined at x). It leaves γ(x) in
// s.gamma and, unless pi is nil, the stage distributions in pi.
func (s *solver) evaluate(x, g []float64, pi [][]float64) float64 {
	k := len(s.groups)
	tau, avail := x[:k], x[k:]
	for i := range s.groups {
		s.eff[i] = avail[i] * tau[i]
	}
	for i := range s.groups {
		s.gamma[i] = gammaOf(s.eff, s.groups, i)
	}
	es := 0.0
	if s.loaded {
		// Slot-state composition under the effective attempt rates.
		pIdle := 1.0
		var pSingle float64
		for i, grp := range s.groups {
			pIdle *= math.Pow(1-s.eff[i], float64(grp.N))
			pSingle += float64(grp.N) * s.eff[i] * (1 - s.gamma[i])
		}
		pColl := 1 - pIdle - pSingle
		if pColl < 0 {
			pColl = 0
		}
		es = pIdle*s.tm.Slot + pSingle*s.tm.Ts + pColl*s.tm.Tc
	}
	for i := range s.groups {
		grp := &s.groups[i]
		gam := s.gamma[i]
		var dist []float64
		if pi != nil {
			dist = pi[i]
		}
		g[i] = s.ws.tau(grp.Params, gam, (1-gam)*(1-grp.ErrorProb), dist)
		g[k+i] = avail[i]
		if grp.poisson() {
			// Flow conservation: while backlogged the station
			// completes τ(1−γ)(1−e) frames per slot of E[σ] µs, so
			// its queue is busy the fraction λ·E[σ]/service,
			// clamped at 1 (overload: the station saturates).
			serv := tau[i] * (1 - gam) * (1 - grp.ErrorProb)
			target := 1.0
			if serv > 0 {
				target = grp.ArrivalRate * es / serv
				if target > 1 {
					target = 1
				}
			}
			g[k+i] = target
		}
	}
	var res float64
	for j := range x {
		res = math.Max(res, math.Abs(g[j]-x[j]))
	}
	return res
}

// anderson is the step history of Anderson mixing: the last
// andersonDepth differences of the iterate (dx) and of its residual
// f = G(x) − x (df), in a ring, plus the scratch of the least squares.
type anderson struct {
	dx, df [andersonDepth][]float64
	q      [andersonDepth][]float64 // orthonormalized df columns
	f      []float64
	count  int // stored steps
	head   int // ring slot of the next push
}

func newAnderson(n int) *anderson {
	a := &anderson{}
	buf := make([]float64, (3*andersonDepth+1)*n)
	for j := 0; j < andersonDepth; j++ {
		a.dx[j], buf = buf[:n], buf[n:]
		a.df[j], buf = buf[:n], buf[n:]
		a.q[j], buf = buf[:n], buf[n:]
	}
	a.f = buf
	return a
}

// push records the step from x (with map value g) to xn (value gn).
func (a *anderson) push(x, g, xn, gn []float64) {
	dx, df := a.dx[a.head], a.df[a.head]
	for j := range x {
		dx[j] = xn[j] - x[j]
		df[j] = (gn[j] - xn[j]) - (g[j] - x[j])
	}
	a.head = (a.head + 1) % andersonDepth
	a.count = min(a.count+1, andersonDepth)
}

// extrapolate writes the Anderson candidate into xn and reports whether
// it lies in the domain [0,1]ⁿ. With f = g − x, the coefficients c
// minimize ‖f − Σ_j c_j·df_j‖₂ (modified Gram–Schmidt, newest column
// first, near-dependent columns dropped), and the candidate is
// x + β·f − Σ_j c_j·(dx_j + β·df_j).
func (a *anderson) extrapolate(x, g, xn []float64, beta float64) bool {
	f := a.f
	for j := range x {
		f[j] = g[j] - x[j]
	}
	var r [andersonDepth][andersonDepth]float64
	var slot [andersonDepth]int
	kept := 0
	for c := 1; c <= a.count; c++ {
		h := (a.head - c + andersonDepth) % andersonDepth
		q := a.q[kept]
		copy(q, a.df[h])
		norm0 := math.Sqrt(dot(q, q))
		for i := 0; i < kept; i++ {
			r[i][kept] = dot(a.q[i], q)
			for j := range q {
				q[j] -= r[i][kept] * a.q[i][j]
			}
		}
		norm := math.Sqrt(dot(q, q))
		if !(norm > andersonDrop*norm0) {
			continue
		}
		for j := range q {
			q[j] /= norm
		}
		r[kept][kept], slot[kept] = norm, h
		kept++
	}
	var coef [andersonDepth]float64
	for i := kept - 1; i >= 0; i-- {
		v := dot(a.q[i], f)
		for j := i + 1; j < kept; j++ {
			v -= r[i][j] * coef[j]
		}
		coef[i] = v / r[i][i]
	}
	for j := range xn {
		v := x[j] + beta*f[j]
		for i := 0; i < kept; i++ {
			h := slot[i]
			v -= coef[i] * (a.dx[h][j] + beta*a.df[h][j])
		}
		if !(v >= 0 && v <= 1) {
			return false
		}
		xn[j] = v
	}
	return true
}

// sumSquares is ‖g − x‖₂².
func sumSquares(x, g []float64) float64 {
	var s float64
	for j := range x {
		s += (g[j] - x[j]) * (g[j] - x[j])
	}
	return s
}

func dot(a, b []float64) float64 {
	var s float64
	for j := range a {
		s += a[j] * b[j]
	}
	return s
}
