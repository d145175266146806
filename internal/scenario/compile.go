package scenario

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/hpav"
	"repro/internal/mac"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/timing"
	"repro/internal/traffic"
)

// Compiled is a scenario ready to run: the normalized spec plus one
// engine-ready Point per sweep value (or a single point when the spec
// does not sweep). Compilation is deterministic and side-effect free;
// the per-replication seed is injected at run time.
type Compiled struct {
	// Spec is the normalized spec (every default explicit).
	Spec Spec
	// Points holds one entry per sweep value, in sweep order, or exactly
	// one entry for a non-sweeping spec.
	Points []Point
}

// Point is one operating point of a compiled scenario.
type Point struct {
	// N is the total station count at this point.
	N int
	// SimInputs is the compiled form for the slot-synchronous engine
	// (nil when the scenario targets the mac engine). Its Seed field is
	// zero; Run fills it per replication.
	SimInputs *sim.Inputs
	// MacPlan is the compiled form for the event-driven MAC (nil when
	// the scenario targets another engine).
	MacPlan *MacPlan
	// ModelPlan is the compiled form for the analytic model engine (nil
	// when the scenario targets a simulator).
	ModelPlan *ModelPlan
}

// ModelPlan is the compiled form of a model-engine scenario: the
// station groups of the loaded (offered-load, priority-aware)
// decoupling fixed point plus the timing that converts per-slot
// probabilities into time-based metrics. Evaluation is deterministic —
// no seed enters anywhere.
type ModelPlan struct {
	// Groups feed model.SolveLoaded, in spec order: each carries its
	// CSMA/CA parameters plus the group's priority class and offered
	// load (saturated, Poisson rate, or silent).
	Groups []model.LoadedGroup
	// SimTimeMicros scales the per-slot rates into the expected event
	// counts the simulated engines report.
	SimTimeMicros float64
	// Timing holds the slot/Ts/Tc/frame durations.
	Timing model.Timing
}

// MacPlan is the compiled form of a mac-engine scenario: everything
// Build needs except the seed.
type MacPlan struct {
	// Cfg is handed to mac.NewNetworkCfg.
	Cfg mac.Config
	// SimTimeMicros is the run duration.
	SimTimeMicros float64
	// Stations holds one entry per station, groups expanded in order.
	Stations []MacStation
}

// MacStation is one station of a MacPlan.
type MacStation struct {
	// Priority is the station's data class.
	Priority config.Priority
	// Params are the CSMA/CA parameters of that class.
	Params config.Params
	// Traffic is the normalized arrival process.
	Traffic Traffic
	// ErrorProb is the per-burst channel error probability.
	ErrorProb float64
	// BurstMPDUs, PBsPerMPDU and FrameMicros shape the bursts.
	BurstMPDUs  int
	PBsPerMPDU  int
	FrameMicros float64
}

// Compile validates and normalizes the spec and lowers it onto the
// engine it targets. A model-engine spec whose worst-case solve exceeds
// modelStepCap is rejected here, before any solve starts.
func Compile(s Spec) (*Compiled, error) {
	norm, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	c := &Compiled{Spec: norm}
	if len(norm.SweepN) == 0 {
		p, err := compilePoint(norm, norm.Stations)
		if err != nil {
			return nil, err
		}
		c.Points = []Point{p}
	}
	for _, n := range norm.SweepN {
		g := norm.Stations[0] // Validate pinned sweeps to one group
		g.Count = n
		p, err := compilePoint(norm, []Group{g})
		if err != nil {
			return nil, err
		}
		c.Points = append(c.Points, p)
	}
	if norm.Engine == EngineModel {
		if err := checkModelCost(c); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// modelStepCap bounds the worst-case work of a model-engine spec, in
// iterations of model.Stage's backoff loop: the contention windows
// summed over every point, group and backoff stage (each map
// evaluation walks each window once), times the solver's evaluation
// cap (about 10⁴). A converging solve needs far fewer evaluations: a
// spec at the cap solved in about 0.1 s (2-vCPU Xeon, go1.24). The
// simulators need no such bound: their work scales with sim_time_us and
// the station count, which a spec states in plain terms, and served
// jobs run under deadlines.
const modelStepCap = 1e9

// checkModelCost rejects a model spec whose windows make its
// worst-case solve exceed modelStepCap.
func checkModelCost(c *Compiled) error {
	var windows, steps float64
	for _, p := range c.Points {
		var w float64
		for _, g := range p.ModelPlan.Groups {
			for _, cw := range g.Params.CW {
				w += float64(cw)
			}
		}
		windows += w
		steps += w * float64(model.MaxEvaluations(len(p.ModelPlan.Groups)))
	}
	if steps > modelStepCap {
		return fmt.Errorf("scenario %s: \"cw\" windows too wide for the model engine: they sum to %.6g over points, groups and stages, a worst-case solve of %.3g backoff steps, above the %.0e cap",
			c.Spec.Name, windows, steps, float64(modelStepCap))
	}
	return nil
}

// compilePoint lowers one operating point (an expanded group list).
func compilePoint(s Spec, groups []Group) (Point, error) {
	n := 0
	for _, g := range groups {
		n += g.Count
	}
	if s.Engine == EngineModel {
		plan := &ModelPlan{
			SimTimeMicros: s.SimTimeMicros,
			Timing: model.Timing{
				Slot:        timing.SlotTime,
				Ts:          s.TsMicros,
				Tc:          s.TcMicros,
				FrameLength: s.FrameMicros,
			},
		}
		for gi, g := range groups {
			pri, _ := config.ParsePriority(g.Priority) // Validate parsed it already
			lg := model.LoadedGroup{
				Group: model.Group{
					N: g.Count,
					Params: config.Params{
						Name: fmt.Sprintf("%s-g%d", s.Name, gi),
						CW:   g.CW, DC: g.DC,
					},
					ErrorProb: g.ErrorProb,
				},
				Priority: pri,
			}
			switch g.Traffic.Kind {
			case TrafficPoisson:
				lg.ArrivalRate = 1 / g.Traffic.MeanInterarrivalMicros
			case TrafficNone:
				// Silent: zero availability, the group never contends.
			default:
				lg.Saturated = true
			}
			plan.Groups = append(plan.Groups, lg)
		}
		return Point{N: n, ModelPlan: plan}, nil
	}

	if s.Engine == EngineMac {
		plan := &MacPlan{
			Cfg:           mac.Config{BeaconPeriodMicros: s.BeaconPeriodMicros},
			SimTimeMicros: s.SimTimeMicros,
		}
		for gi, g := range groups {
			pri, _ := config.ParsePriority(g.Priority)
			for k := 0; k < g.Count; k++ {
				plan.Stations = append(plan.Stations, MacStation{
					Priority: pri,
					Params: config.Params{
						Name: fmt.Sprintf("%s-g%d", s.Name, gi),
						CW:   g.CW, DC: g.DC,
					},
					Traffic:     *g.Traffic,
					ErrorProb:   g.ErrorProb,
					BurstMPDUs:  g.BurstMPDUs,
					PBsPerMPDU:  g.PBsPerMPDU,
					FrameMicros: g.FrameMicros,
				})
			}
		}
		return Point{N: n, MacPlan: plan}, nil
	}

	in := &sim.Inputs{
		N:           n,
		SimTime:     s.SimTimeMicros,
		Tc:          s.TcMicros,
		Ts:          s.TsMicros,
		FrameLength: s.FrameMicros,
		PerStation:  make([]config.Params, 0, n),
	}
	anyErr := false
	errProb := make([]float64, 0, n)
	for gi, g := range groups {
		p := config.Params{
			Name: fmt.Sprintf("%s-g%d", s.Name, gi),
			CW:   g.CW, DC: g.DC,
		}
		for k := 0; k < g.Count; k++ {
			in.PerStation = append(in.PerStation, p)
			errProb = append(errProb, g.ErrorProb)
			if g.ErrorProb > 0 {
				anyErr = true
			}
		}
	}
	if anyErr {
		in.ErrorProb = errProb
	}
	if err := in.Validate(); err != nil {
		return Point{}, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return Point{N: n, SimInputs: in}, nil
}

// Station addressing for mac-engine scenarios. The TEI layout mirrors
// the testbed's (destination D at TEI 1, transmitters from TEI 2), but
// the MAC block (…:EE:…) is deliberately distinct from the testbed's
// (…:00:…/…:01:…), so counters keyed by peer address can never confuse
// a scenario run with a testbed run.
const dstTEI = hpav.TEI(1)

var dstAddr = hpav.MAC{0x00, 0xB0, 0x52, 0xEE, 0x00, 0x01}

func stationAddr(i int) hpav.MAC {
	return hpav.MAC{0x00, 0xB0, 0x52, 0xEE, 0x01, byte(i + 1)}
}

// errStreamBase labels the dedicated per-station channel-error streams,
// mirroring the sim engine's convention so error draws never collide
// with backoff or traffic streams.
const errStreamBase = uint64(1) << 32

// buildMac assembles a runnable network from a plan and a seed. The rng
// root splits exactly like the testbed: destination at 0, station i's
// backoff streams at i+1, its traffic stream at 1000+i, and its channel
// error stream far above at errStreamBase+i.
func buildMac(plan *MacPlan, seed uint64) *mac.Network {
	root := rng.New(seed)
	nw := mac.NewNetworkCfg(plan.Cfg)

	dst := mac.NewStation("D", dstTEI, dstAddr, root.Split(0))
	nw.Attach(dst)

	for i, sp := range plan.Stations {
		st := mac.NewStation(fmt.Sprintf("sta%d", i+1), hpav.TEI(i+2), stationAddr(i), root.Split(uint64(i+1)))
		st.SetParams(sp.Priority, sp.Params)

		var src traffic.Source
		switch sp.Traffic.Kind {
		case TrafficPoisson:
			src = traffic.NewPoisson(sp.Traffic.MeanInterarrivalMicros, root.Split(uint64(1000+i)))
		case TrafficNone:
			src = traffic.None{}
		default:
			src = traffic.Saturated{}
		}
		st.AddFlow(&mac.Flow{
			Source: src,
			Spec: mac.BurstSpec{
				Dst: dstTEI, DstAddr: dstAddr, Priority: sp.Priority,
				MPDUs: sp.BurstMPDUs, PBsPerMPDU: sp.PBsPerMPDU,
				FrameMicros: sp.FrameMicros,
			},
		})
		if sp.ErrorProb > 0 {
			st.SetFrameError(sp.ErrorProb, root.Split(errStreamBase+uint64(i)))
		}
		nw.Attach(st)
	}
	return nw
}

// Metric is one named measurement of a replication. Metrics come in a
// fixed, engine-determined order so that aggregation across
// replications — and rendering — is deterministic.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// MetricNames returns the canonical metric names RunOnce reports for
// the given engine, in report order. Callers that reference metrics by
// name before running anything (the campaign engine validating its
// convergence targets) check against this list; a test pins it to what
// RunOnce actually emits, so the two cannot drift.
func MetricNames(engine string) []string {
	switch engine {
	case EngineMac:
		return []string{"collision_pr", "norm_throughput", "successes", "collisions",
			"frame_errors", "idle_slots", "quiet_fraction", "beacons", "elapsed_us"}
	case EngineSim:
		return []string{"collision_pr", "norm_throughput", "successes", "collided_frames",
			"frame_errors", "idle_slots", "elapsed_us"}
	case EngineModel:
		// The sim engine's canonical metrics plus the per-class split
		// the priority-aware fixed point resolves. All four classes are
		// always present (zero when the spec has no such group) so the
		// list stays static whatever the spec.
		return []string{"collision_pr", "norm_throughput", "successes", "collided_frames",
			"frame_errors", "idle_slots",
			"throughput_ca0", "collision_pr_ca0", "throughput_ca1", "collision_pr_ca1",
			"throughput_ca2", "collision_pr_ca2", "throughput_ca3", "collision_pr_ca3",
			"elapsed_us"}
	default:
		return nil
	}
}

// RunOnce executes one replication of a compiled point with the given
// seed and returns its metrics in the engine's canonical order. A
// model-engine point is answered analytically: the seed is ignored
// (the fixed point is deterministic) and the count-style metrics carry
// the model's expected values over SimTimeMicros, under the sim
// engine's canonical names plus a per-priority-class split — so
// aggregation, rendering, golden files and the serving cache treat all
// engines alike.
func RunOnce(p Point, seed uint64) ([]Metric, error) {
	switch {
	case p.ModelPlan != nil:
		return modelMetrics(p.ModelPlan)

	case p.SimInputs != nil:
		in := *p.SimInputs
		in.Seed = seed
		e, err := sim.NewEngine(in)
		if err != nil {
			return nil, err
		}
		return simMetrics(e.Run()), nil

	case p.MacPlan != nil:
		nw := buildMac(p.MacPlan, seed)
		nw.Run(p.MacPlan.SimTimeMicros)
		st := nw.Stats()
		attempts := st.CollidedMPDUs + st.SuccessMPDUs + st.FrameErrorMPDUs
		collisionPr := 0.0
		if attempts > 0 {
			collisionPr = float64(st.CollidedMPDUs) / float64(attempts)
		}
		return []Metric{
			{"collision_pr", collisionPr},
			{"norm_throughput", st.PayloadMicros / st.Elapsed},
			{"successes", float64(st.Successes)},
			{"collisions", float64(st.Collisions)},
			{"frame_errors", float64(st.FrameErrors)},
			{"idle_slots", float64(st.IdleSlots)},
			{"quiet_fraction", st.QuietTime / st.Elapsed},
			{"beacons", float64(st.Beacons)},
			{"elapsed_us", st.Elapsed},
		}, nil

	default:
		return nil, fmt.Errorf("scenario: point compiled to no engine")
	}
}

// modelMetrics evaluates a model plan through the loaded fixed point
// and converts per-slot rates into the counters the simulators report.
// Expected virtual slots over each class's share of the horizon do the
// conversion; for a single-class plan the arithmetic reduces to the
// classic saturated path exactly (Share is 1), so widening the model
// moved no previously answerable number.
func modelMetrics(pl *ModelPlan) ([]Metric, error) {
	sol, err := model.SolveLoaded(pl.Groups, pl.Timing, model.Options{})
	if err != nil {
		return nil, fmt.Errorf("scenario: model point: %w", err)
	}
	var collisionPr, throughput, successes, collided, frameErrs, idle float64
	if len(sol.Classes) == 1 {
		c := &sol.Classes[0]
		if c.Met.MeanSlotDuration > 0 {
			slots := pl.SimTimeMicros / c.Met.MeanSlotDuration
			collisionPr = c.Met.CollisionProbability
			throughput = c.Met.TotalThroughput
			successes = c.Met.SuccessRate * slots
			collided = c.Met.CollidedRate * slots
			frameErrs = c.Met.ErrorRate * slots
			idle = c.Met.SlotIdle * slots
		}
	} else {
		// Strict priority: each class occupies its share of the
		// horizon; counters add, and the aggregate collision
		// probability stays attempt-weighted across classes. Idle time
		// is what no class spends transmitting — the shares nest
		// (a lower class's timeline contains the higher classes'
		// idle), so summing per-class idle slots would double-count;
		// subtracting busy time from the horizon instead reduces to
		// slots·pIdle exactly in the single-class case.
		var attempts, busy float64
		for i := range sol.Classes {
			c := &sol.Classes[i]
			if c.Starved || c.Met.MeanSlotDuration <= 0 {
				continue
			}
			slots := c.Share * pl.SimTimeMicros / c.Met.MeanSlotDuration
			successes += c.Met.SuccessRate * slots
			collided += c.Met.CollidedRate * slots
			frameErrs += c.Met.ErrorRate * slots
			busy += slots * (c.Met.MeanSlotDuration - c.Met.SlotIdle*pl.Timing.Slot)
			throughput += c.Share * c.Met.TotalThroughput
			attempts += c.Met.AttemptRate * slots
		}
		if attempts > 0 {
			collisionPr = collided / attempts
		}
		if pl.Timing.Slot > 0 {
			idle = (pl.SimTimeMicros - busy) / pl.Timing.Slot
			if idle < 0 {
				idle = 0
			}
		}
	}
	var perClass [4]struct{ thr, coll float64 }
	for i := range sol.Classes {
		c := &sol.Classes[i]
		if c.Starved {
			continue
		}
		perClass[c.Priority].thr = c.Share * c.Met.TotalThroughput
		perClass[c.Priority].coll = c.Met.CollisionProbability
	}
	return []Metric{
		{"collision_pr", collisionPr},
		{"norm_throughput", throughput},
		{"successes", successes},
		{"collided_frames", collided},
		{"frame_errors", frameErrs},
		{"idle_slots", idle},
		{"throughput_ca0", perClass[0].thr},
		{"collision_pr_ca0", perClass[0].coll},
		{"throughput_ca1", perClass[1].thr},
		{"collision_pr_ca1", perClass[1].coll},
		{"throughput_ca2", perClass[2].thr},
		{"collision_pr_ca2", perClass[2].coll},
		{"throughput_ca3", perClass[3].thr},
		{"collision_pr_ca3", perClass[3].coll},
		{"elapsed_us", pl.SimTimeMicros},
	}, nil
}

// simMetrics converts a sim result into the canonical metric vector.
func simMetrics(r sim.Result) []Metric {
	return []Metric{
		{"collision_pr", r.CollisionProbability},
		{"norm_throughput", r.NormalizedThroughput},
		{"successes", float64(r.Successes)},
		{"collided_frames", float64(r.CollidedFrames)},
		{"frame_errors", float64(r.FrameErrors)},
		{"idle_slots", float64(r.IdleSlots)},
		{"elapsed_us", r.Elapsed},
	}
}

// RunOnceCV executes one replication of a sim-engine point with the
// engine's martingale control variates enabled, returning the canonical
// metrics plus the run's control vector (sim.ControlNames order). The
// controls consume no randomness, so the metrics are bit-identical to
// RunOnce on the same point and seed — that is the common-random-numbers
// property the control-variate estimator depends on, and a test pins
// it. Points compiled for the model or mac engines are rejected;
// Spec.Validate keeps such specs from requesting variance reduction in
// the first place.
func RunOnceCV(p Point, seed uint64) ([]Metric, []float64, error) {
	if p.SimInputs == nil {
		return nil, nil, fmt.Errorf("scenario: control variates require a sim-engine point")
	}
	in := *p.SimInputs
	in.Seed = seed
	e, err := sim.NewEngine(in)
	if err != nil {
		return nil, nil, err
	}
	e.EnableControls()
	r := e.Run()
	return simMetrics(r), r.Controls, nil
}

// CVControlColumns maps a sim metric name to the control channels
// (indices into a replication's control vector) its control-variate
// regression uses. Each metric gets only the channels that plausibly
// explain it: a ratio like collision_pr gets its numerator and
// denominator channels, a raw counter gets its own channel. Keeping the
// per-metric regressions small preserves residual degrees of freedom at
// the pilot-size samples adaptive campaigns start from. Unknown (mac-
// or model-only) metric names return nil: no controls, raw estimate.
func CVControlColumns(name string) []int {
	switch name {
	case "collision_pr":
		return []int{sim.CtrlCollidedFrames, sim.CtrlSuccesses, sim.CtrlFrameErrors}
	case "norm_throughput":
		return []int{sim.CtrlSuccesses, sim.CtrlElapsed}
	case "successes":
		return []int{sim.CtrlSuccesses}
	case "collided_frames":
		return []int{sim.CtrlCollidedFrames}
	case "frame_errors":
		return []int{sim.CtrlFrameErrors}
	case "idle_slots":
		return []int{sim.CtrlIdleSlots}
	case "elapsed_us":
		return []int{sim.CtrlElapsed}
	default:
		return nil
	}
}
