package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// Every input is a pure function of (workload seed, stream, index), so
// the same seed gives the same inputs whatever order the clients take
// them in.
const (
	streamOps      = 1 // measured operations, by operation index
	streamHot      = 2 // the predict hot set, by hot index
	streamFill     = 3 // disk-cache fill of the durable set-up
	streamBacklog  = 4 // journal backlog of the durable set-up
	streamProbe    = 5 // cross-workload probes of the traced run
	streamDecision = 6 // sample choices (which operations to decompose)
)

func rng(seed uint64, stream, i int64) *rand.Rand {
	return rand.New(rand.NewPCG(seed^uint64(stream)*0x9e3779b97f4a7c15, uint64(i)))
}

// round keeps d decimals, so a drawn parameter survives the JSON round
// trip unchanged.
func round(x float64, d int) float64 {
	p := math.Pow(10, float64(d))
	return math.Round(x*p) / p
}

// Model shapes of predict-mix: each exercises one of the three analytic
// paths.
const (
	shapeSaturated = iota // homogeneous saturated N (model.Solve)
	shapeHetero           // saturated CW/DC groups (model.SolveHeterogeneous)
	shapeLoaded           // Poisson-loaded mixed CA0–CA3 (model.SolveLoaded)
	numShapes
)

var shapeNames = [numShapes]string{"saturated", "hetero", "loaded"}

// cwSchedules are the contention-window ladders hetero groups draw
// from; dcSchedules the deferral counters (1<<20 disables deferral).
var (
	cwSchedules = [][]int{{4, 8, 16, 32}, {8, 16, 32, 64}, {16, 32, 64, 128}, {32, 64, 128, 256}}
	dcSchedules = [][]int{{0, 1, 3, 15}, {0, 0, 1, 3}, {1, 2, 4, 8}, {1 << 20, 1 << 20, 1 << 20, 1 << 20}}
	priorities  = []string{"CA0", "CA1", "CA2", "CA3"}
)

// modelSpec draws one operating point of the given shape. Parameters
// are continuous (6 decimals), so two draws practically never coincide:
// a fresh point is new content, not a re-ask under another seed.
func modelSpec(r *rand.Rand, shape int) scenario.Spec {
	s := scenario.Spec{Name: "pm-" + shapeNames[shape], Engine: scenario.EngineModel, SimTimeMicros: 5e7, Seed: 1}
	switch shape {
	case shapeSaturated:
		s.Stations = []scenario.Group{{Count: 2 + r.IntN(40), ErrorProb: round(0.3*r.Float64(), 6)}}
	case shapeHetero:
		for g := 2 + r.IntN(2); g > 0; g-- {
			s.Stations = append(s.Stations, scenario.Group{
				Count:     1 + r.IntN(5),
				CW:        cwSchedules[r.IntN(len(cwSchedules))],
				DC:        dcSchedules[r.IntN(len(dcSchedules))],
				ErrorProb: round(0.2*r.Float64(), 6),
			})
		}
	case shapeLoaded:
		for g := 2 + r.IntN(3); g > 0; g-- {
			s.Stations = append(s.Stations, scenario.Group{
				Count:    1 + r.IntN(4),
				Priority: priorities[r.IntN(len(priorities))],
				Traffic: &scenario.Traffic{Kind: scenario.TrafficPoisson,
					MeanInterarrivalMicros: round(5e3+2e5*r.Float64(), 3)},
			})
		}
	}
	return s
}

// predictOp is one /v1/predict request.
type predictOp struct {
	shape int
	hot   int    // index into the hot set; -1 for a fresh point
	body  []byte // the POST body
}

// hotFraction is the share of predict requests that re-ask the hot set.
const hotFraction = 0.75

// predictGen generates predict-mix: a fixed hot set (warmed during
// set-up) plus fresh points.
type predictGen struct {
	seed uint64
	hot  []predictOp
}

func newPredictGen(seed uint64, hotSize int) *predictGen {
	g := &predictGen{seed: seed}
	for k := 0; k < hotSize; k++ {
		g.hot = append(g.hot, newPredictOp(rng(seed, streamHot, int64(k)), k))
	}
	return g
}

func newPredictOp(r *rand.Rand, hot int) predictOp {
	shape := r.IntN(numShapes)
	return predictOp{shape: shape, hot: hot, body: requestBody("spec", modelSpec(r, shape), 0)}
}

// op returns operation i of the measured stream.
func (g *predictGen) op(stream, i int64) predictOp {
	r := rng(g.seed, stream, i)
	if r.Float64() < hotFraction {
		return g.hot[r.IntN(len(g.hot))]
	}
	return newPredictOp(r, -1)
}

// requestBody wraps a spec as {"<field>": spec[, "reps": n]}.
func requestBody(field string, spec any, reps int) []byte {
	m := map[string]any{field: spec}
	if reps > 0 {
		m["reps"] = reps
	}
	data, err := json.Marshal(m)
	if err != nil {
		panic(fmt.Sprintf("marshal request: %v", err)) // specs built here always marshal
	}
	return data
}

// jobReps is the replication count of every jobs-durable submission.
const jobReps = 4

// Job kinds of jobs-durable.
const (
	jobSimSweep   = iota // sim engine, sweep_n
	jobMacPoisson        // mac engine, Poisson + saturated stations
	jobMacBeacon         // mac engine, beacons + priority classes
	numJobKinds
)

var jobKindNames = [numJobKinds]string{"sim-sweep", "mac-poisson", "mac-beacon"}

// jobBody draws the body of /v1/jobs submission i of a stream: a fresh
// seed every time, so the result cache never answers it. The set-up
// streams cycle through the kinds in order, so a restart replays the
// same mix whatever the seed; the measured stream draws the kind.
func jobBody(seed uint64, stream, i int64) []byte {
	r := rng(seed, stream, i)
	kind := r.IntN(numJobKinds)
	if stream != streamOps {
		kind = int(i % numJobKinds)
	}
	s := scenario.Spec{Name: "jd-" + jobKindNames[kind], Seed: r.Uint64()>>1 | 1}
	switch kind {
	case jobSimSweep:
		s.Engine = scenario.EngineSim
		s.SimTimeMicros = round(1.2e7+6e6*r.Float64(), 0)
		lo := 2 + r.IntN(3)
		s.SweepN = []int{lo, lo + 2, lo + 4}
		s.Stations = []scenario.Group{{Count: 1, ErrorProb: round(0.1*r.Float64(), 6)}}
	case jobMacPoisson:
		s.Engine = scenario.EngineMac
		s.SimTimeMicros = round(2.4e6+1.2e6*r.Float64(), 0)
		s.Stations = []scenario.Group{
			{Count: 2 + r.IntN(2), Traffic: &scenario.Traffic{Kind: scenario.TrafficPoisson,
				MeanInterarrivalMicros: round(1e4+4e4*r.Float64(), 3)}},
			{Count: 1},
		}
	case jobMacBeacon:
		s.Engine = scenario.EngineMac
		s.SimTimeMicros = round(2.4e6+1.2e6*r.Float64(), 0)
		s.BeaconPeriodMicros = 33330
		s.Stations = []scenario.Group{
			{Count: 2 + r.IntN(2), BurstMPDUs: 2},
			{Count: 1, Priority: "CA3", FrameMicros: 150, Traffic: &scenario.Traffic{Kind: scenario.TrafficPoisson,
				MeanInterarrivalMicros: round(5e4+1e5*r.Float64(), 3)}},
		}
	}
	return requestBody("spec", s, jobReps)
}

// nPairs are the station-count axes campaign probes draw from.
var nPairs = [][]string{{"2", "3"}, {"2", "4"}, {"3", "5"}}

// campaignBody draws the body of /v1/campaigns submission i of a
// stream: an adaptive control-variate sim campaign with a fresh base
// seed, two grid points, each grown in batches of two until the
// collision-probability interval is narrow enough.
func campaignBody(seed uint64, stream, i int64) []byte {
	r := rng(seed, stream, i)
	pair := nPairs[r.IntN(len(nPairs))]
	s := campaign.Spec{
		Name: "cc",
		Base: scenario.Spec{
			Name: "cc-base", Engine: scenario.EngineSim,
			SimTimeMicros:     round(1e6+1e6*r.Float64(), 0),
			Seed:              r.Uint64()>>1 | 1,
			VarianceReduction: &scenario.VarianceReduction{Kind: scenario.VRControlVariate},
			Stations:          []scenario.Group{{Count: 1, ErrorProb: round(0.05+0.15*r.Float64(), 6)}},
		},
		Axes:      []campaign.Axis{{Path: "n", Values: []json.RawMessage{json.RawMessage(pair[0]), json.RawMessage(pair[1])}}},
		Targets:   []campaign.Target{{Metric: "collision_pr", CI: 0.02}},
		MinReps:   4,
		MaxReps:   1000,
		BatchReps: 2,
	}
	return requestBody("campaign", s, 0)
}
