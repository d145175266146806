// Package boost implements the performance-boosting side of the paper:
// a search over the (cw, dc) parameter vectors of the 1901 CSMA/CA
// process for configurations that improve on the Table 1 defaults.
//
// The search follows the structure the analytical work enables: the
// decoupling model (internal/model) evaluates thousands of candidate
// configurations in microseconds each, pruning the space; the survivors
// are validated with the discrete-event simulator, which also provides
// the short-term fairness metric the model cannot express. Candidates
// are scored across a set of station counts, not a single N, because
// the number of contenders in a home network is unknown to the devices
// — the same robustness argument the paper's tuning makes.
//
// Model scoring runs through the compiled scenario path: a single
// candidate lowers to a model-engine scenario.Spec (ScoreModel), and
// the whole space lowers to a campaign (searchCampaign) — a
// model-engine base scenario swept over cw/dc/n axes — so the search
// grid is the same object the serving daemon's /v1/campaigns endpoint
// runs, and "run many related scenarios" is one code path everywhere.
package boost

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/backoff"
	"repro/internal/campaign"
	"repro/internal/config"
	"repro/internal/fairness"
	"repro/internal/par"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Space describes the candidate configuration grid.
type Space struct {
	// CW0s are the stage-0 contention windows to try.
	CW0s []int
	// Growths are the per-stage window multipliers (1 = flat, 2 =
	// doubling, …).
	Growths []int
	// DCSchedules are the deferral-counter vectors to try; each must
	// have Stages entries.
	DCSchedules [][]int
	// Stages is the number of backoff stages of every candidate.
	Stages int
	// MaxCW caps the per-stage windows (the standard's field width
	// bounds CW; 1024 is a safe ceiling).
	MaxCW int
}

// DefaultSpace is a compact grid around the standard's configuration:
// 3 × 3 × 4 = 36 candidates spanning less and more aggressive CW0s,
// flat to doubling growth, and deferral schedules from "defer
// immediately" to "never defer".
func DefaultSpace() Space {
	return Space{
		CW0s:    []int{4, 8, 16, 32},
		Growths: []int{1, 2, 4},
		DCSchedules: [][]int{
			{0, 0, 0, 0},
			{0, 1, 3, 15},
			{1, 3, 7, 15},
			{1 << 20, 1 << 20, 1 << 20, 1 << 20}, // deferral disabled
		},
		Stages: 4,
		MaxCW:  1024,
	}
}

// Validate checks the space's shape.
func (s Space) Validate() error {
	if s.Stages < 1 {
		return fmt.Errorf("boost: %d stages", s.Stages)
	}
	if len(s.CW0s) == 0 || len(s.Growths) == 0 || len(s.DCSchedules) == 0 {
		return fmt.Errorf("boost: empty search dimensions")
	}
	if s.MaxCW < 1 {
		return fmt.Errorf("boost: MaxCW %d", s.MaxCW)
	}
	for _, w := range s.CW0s {
		if w < 1 {
			return fmt.Errorf("boost: CW0 %d", w)
		}
	}
	for _, g := range s.Growths {
		if g < 1 {
			return fmt.Errorf("boost: growth %d", g)
		}
	}
	for i, dc := range s.DCSchedules {
		if len(dc) != s.Stages {
			return fmt.Errorf("boost: dc schedule %d has %d entries, want %d", i, len(dc), s.Stages)
		}
		for _, d := range dc {
			if d < 0 {
				return fmt.Errorf("boost: negative deferral in schedule %d", i)
			}
		}
	}
	return nil
}

// Enumerate materializes every candidate configuration in the space.
func (s Space) Enumerate() ([]config.Params, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var out []config.Params
	for _, w0 := range s.CW0s {
		for _, g := range s.Growths {
			cw := make([]int, s.Stages)
			w := w0
			for i := range cw {
				if w > s.MaxCW {
					w = s.MaxCW
				}
				cw[i] = w
				w *= g
			}
			for di, dc := range s.DCSchedules {
				p := config.Params{
					Name: fmt.Sprintf("cw%d-g%d-dc%d", w0, g, di),
					CW:   append([]int(nil), cw...),
					DC:   append([]int(nil), dc...),
				}
				out = append(out, p)
			}
		}
	}
	return out, nil
}

// Candidate is a model-scored configuration.
type Candidate struct {
	Params config.Params
	// Throughput maps N → model normalized throughput.
	Throughput map[int]float64
	// Collision maps N → model collision probability γ.
	Collision map[int]float64
	// Score is the ranking key: the minimum throughput across the
	// evaluated Ns (max-min robustness; a config must not fall apart at
	// any contention level).
	Score float64
}

// candidateSpec lowers one (cw, dc) candidate onto the declarative
// scenario layer: a model-engine spec sweeping the evaluation station
// counts. This is the exact compiled path the serving daemon runs, so a
// search candidate and a `POST /v1/predict` of the same spec are
// answered by the same code (and the same content-addressed cache key).
func candidateSpec(p config.Params, ns []int) scenario.Spec {
	name := p.Name
	if name == "" {
		name = "candidate"
	}
	return scenario.Spec{
		Name:          "boost-" + name,
		Engine:        scenario.EngineModel,
		SimTimeMicros: 1e6, // rates and probabilities are horizon-free
		SweepN:        ns,
		Stations:      []scenario.Group{{Count: 1, CW: p.CW, DC: p.DC}},
	}
}

// ScoreModel evaluates one configuration across the given station
// counts with the analytical model, through the compiled scenario path
// (scenario.Compile + RunOnce on a model-engine spec).
func ScoreModel(p config.Params, ns []int) (Candidate, error) {
	c := Candidate{
		Params:     p,
		Throughput: make(map[int]float64, len(ns)),
		Collision:  make(map[int]float64, len(ns)),
		Score:      math.Inf(1),
	}
	compiled, err := scenario.Compile(candidateSpec(p, ns))
	if err != nil {
		return Candidate{}, fmt.Errorf("boost: compile %s: %w", p.Name, err)
	}
	for i, point := range compiled.Points {
		metrics, err := scenario.RunOnce(point, 0)
		if err != nil {
			return Candidate{}, fmt.Errorf("boost: model for %s at N=%d: %w", p.Name, ns[i], err)
		}
		var thr, coll float64
		for _, m := range metrics {
			switch m.Name {
			case "norm_throughput":
				thr = m.Value
			case "collision_pr":
				coll = m.Value
			}
		}
		c.Throughput[ns[i]] = thr
		c.Collision[ns[i]] = coll
		if thr < c.Score {
			c.Score = thr
		}
	}
	return c, nil
}

// searchCampaign lowers the enumerated candidate list onto the
// campaign layer: a model-engine base scenario swept over three axes —
// stations[0].cw (one vector per CW0×growth pair), stations[0].dc (the
// deferral schedules) and n (the evaluation station counts) — in the
// exact row-major order Enumerate materializes candidates (the
// point-index math in Search depends on it). Running many related
// scenarios is one code path: the grid a Search evaluates is the same
// campaign a `POST /v1/campaigns` submission of this spec runs, point
// for point and fingerprint for fingerprint.
func searchCampaign(space Space, params []config.Params, ns []int) (campaign.Spec, error) {
	rawInts := func(vs []int) json.RawMessage {
		data, err := json.Marshal(vs)
		if err != nil {
			panic(fmt.Sprintf("boost: marshal int vector: %v", err)) // unreachable
		}
		return data
	}
	// Enumerate orders candidates (cw0, growth)-major, dc-minor: the cw
	// vector of candidate k*len(DCSchedules) is the k-th distinct
	// window schedule.
	var cwVals []json.RawMessage
	for k := 0; k < len(params); k += len(space.DCSchedules) {
		cwVals = append(cwVals, rawInts(params[k].CW))
	}
	var dcVals []json.RawMessage
	for _, dc := range space.DCSchedules {
		dcVals = append(dcVals, rawInts(dc))
	}
	var nVals []json.RawMessage
	for _, n := range ns {
		data, err := json.Marshal(n)
		if err != nil {
			return campaign.Spec{}, err // unreachable: ints always marshal
		}
		nVals = append(nVals, data)
	}
	return campaign.Spec{
		Name:        "boost-search",
		Description: "Model-guided (cw, dc) search grid: every candidate configuration scored across the evaluation station counts.",
		Base: scenario.Spec{
			Name:          "boost-search",
			Engine:        scenario.EngineModel,
			SimTimeMicros: 1e6, // rates and probabilities are horizon-free
			Stations:      []scenario.Group{{Count: 1, CW: params[0].CW, DC: params[0].DC}},
		},
		Axes: []campaign.Axis{
			{Path: "stations[0].cw", Values: cwVals},
			{Path: "stations[0].dc", Values: dcVals},
			{Path: "n", Values: nVals},
		},
		Reps: 1, // model points are deterministic
	}, nil
}

// Search scores the whole space with the model and returns candidates
// sorted by descending score. ns must be non-empty.
//
// The sweep runs as a campaign (searchCampaign) over the process-wide
// par width: one grid point per (candidate, N) pair, answered through
// the same compiled scenario path the serving daemon uses.
func Search(space Space, ns []int) ([]Candidate, error) {
	if len(ns) == 0 {
		return nil, fmt.Errorf("boost: no station counts to evaluate")
	}
	params, err := space.Enumerate()
	if err != nil {
		return nil, err
	}
	spec, err := searchCampaign(space, params, ns)
	if err != nil {
		return nil, err
	}
	compiled, err := campaign.Compile(spec)
	if err != nil {
		return nil, fmt.Errorf("boost: compile search campaign: %w", err)
	}
	report, err := campaign.Run(compiled, campaign.Opts{Workers: par.DefaultWorkers()})
	if err != nil {
		return nil, fmt.Errorf("boost: run search campaign: %w", err)
	}
	if len(report.Points) != len(params)*len(ns) {
		return nil, fmt.Errorf("boost: campaign expanded %d points, want %d candidates × %d counts",
			len(report.Points), len(params), len(ns))
	}

	out := make([]Candidate, len(params))
	for ci, p := range params {
		out[ci] = Candidate{
			Params:     p,
			Throughput: make(map[int]float64, len(ns)),
			Collision:  make(map[int]float64, len(ns)),
			Score:      math.Inf(1),
		}
	}
	// Row-major grid, n innermost: point index = candidate·len(ns) + ni.
	for i, pt := range report.Points {
		ci, ni := i/len(ns), i%len(ns)
		c := &out[ci]
		for _, m := range pt.Report.Points[0].Metrics {
			switch m.Name {
			case "norm_throughput":
				c.Throughput[ns[ni]] = m.Summary.Mean
			case "collision_pr":
				c.Collision[ns[ni]] = m.Summary.Mean
			}
		}
		if thr := c.Throughput[ns[ni]]; thr < c.Score {
			c.Score = thr
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out, nil
}

// Validation is a simulator-verified candidate.
type Validation struct {
	Candidate Candidate
	// SimThroughput and SimCollision map N → simulator results.
	SimThroughput map[int]float64
	SimCollision  map[int]float64
	// ShortTermJain maps N → mean sliding-window Jain index (window =
	// 10 transmissions), the short-term fairness measure.
	ShortTermJain map[int]float64
	// SimScore is min-over-N simulator throughput.
	SimScore float64
}

// Validate runs the simulator on a candidate across the given Ns.
func Validate(c Candidate, ns []int, simTime float64, seed uint64) (Validation, error) {
	v := Validation{
		Candidate:     c,
		SimThroughput: make(map[int]float64, len(ns)),
		SimCollision:  make(map[int]float64, len(ns)),
		ShortTermJain: make(map[int]float64, len(ns)),
		SimScore:      math.Inf(1),
	}
	for _, n := range ns {
		in := sim.DefaultInputs(n)
		in.SimTime = simTime
		in.Params = c.Params
		in.Seed = seed
		e, err := sim.NewEngine(in)
		if err != nil {
			return Validation{}, err
		}
		rec := &winnerRecorder{}
		e.SetObserver(rec)
		r := e.Run()
		v.SimThroughput[n] = r.NormalizedThroughput
		v.SimCollision[n] = r.CollisionProbability
		if r.NormalizedThroughput < v.SimScore {
			v.SimScore = r.NormalizedThroughput
		}

		universe := make([]int, n)
		for i := range universe {
			universe[i] = i
		}
		if n >= 2 && len(rec.winners) >= 10 {
			st, err := fairness.ShortTermJain(rec.winners, universe, 10)
			if err != nil {
				return Validation{}, err
			}
			v.ShortTermJain[n] = st.MeanJain
		} else {
			v.ShortTermJain[n] = 1
		}
	}
	return v, nil
}

// winnerRecorder implements sim.Observer, retaining success winners.
type winnerRecorder struct{ winners []int }

// OnSlot records the winner of each successful slot.
func (o *winnerRecorder) OnSlot(_ float64, kind sim.SlotKind, txs []int, _ []backoff.Snapshot) {
	if kind == sim.Success {
		o.winners = append(o.winners, txs[0])
	}
}

// ValidateTop validates the best k candidates and re-ranks by simulator
// score.
func ValidateTop(cands []Candidate, k int, ns []int, simTime float64, seed uint64) ([]Validation, error) {
	if k > len(cands) {
		k = len(cands)
	}
	out, err := par.MapDefault(cands[:k], func(_ int, c Candidate) (Validation, error) {
		return Validate(c, ns, simTime, seed)
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].SimScore > out[j].SimScore })
	return out, nil
}

// ParetoFront filters validations to the throughput/fairness Pareto
// frontier at station count n: a validation survives if no other
// validation is at least as good on both axes and strictly better on
// one.
func ParetoFront(vs []Validation, n int) []Validation {
	var front []Validation
	for i, a := range vs {
		dominated := false
		for j, b := range vs {
			if i == j {
				continue
			}
			if b.SimThroughput[n] >= a.SimThroughput[n] && b.ShortTermJain[n] >= a.ShortTermJain[n] &&
				(b.SimThroughput[n] > a.SimThroughput[n] || b.ShortTermJain[n] > a.ShortTermJain[n]) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, a)
		}
	}
	return front
}
