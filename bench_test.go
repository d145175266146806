// Package repro_test is the benchmark harness: one benchmark per table
// and figure of the paper (each delegating to the same experiment code
// cmd/plcbench renders), the ablation benches DESIGN.md calls out, and
// microbenchmarks of the performance-critical building blocks.
//
// Benchmarks use deliberately short virtual horizons per iteration so
// that -bench=. completes quickly; the paper-scale runs are the domain
// of cmd/plcbench (without -quick) and EXPERIMENTS.md records their
// output.
package repro_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/backoff"
	"repro/internal/boost"
	"repro/internal/campaign"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/hpav"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// BenchmarkTable1Defaults regenerates the Table 1 constants table.
func BenchmarkTable1Defaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table1()
		if len(t.Rows) != 4 {
			b.Fatal("wrong table")
		}
	}
}

// BenchmarkFigure1BackoffTrace regenerates the two-station backoff
// evolution trace of Figure 1.
func BenchmarkFigure1BackoffTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure1(3, 20)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkTable2CollisionCounters regenerates the ΣC/ΣA counter table
// of Table 2 through the emulated testbed's MME counters.
func BenchmarkTable2CollisionCounters(b *testing.B) {
	cfg := experiments.Table2Config{Ns: []int{1, 4, 7}, DurationMicros: 4e6, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2CollisionProbability regenerates the three-way
// validation figure: simulation, analysis and emulated measurements.
func BenchmarkFigure2CollisionProbability(b *testing.B) {
	cfg := experiments.Figure2Config{
		Ns: []int{2, 5, 7}, Tests: 2,
		TestDurationMicros: 3e6, SimTimeMicros: 6e6, Seed: 1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points, _, err := experiments.Figure2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 3 {
			b.Fatal("wrong point count")
		}
	}
}

// BenchmarkThroughputVsN regenerates the E1 protocol comparison.
func BenchmarkThroughputVsN(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ThroughputVsN([]int{1, 5, 10}, 4e6, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBoostConfigSearch regenerates the E2 configuration search
// (model scoring of the full grid plus simulator validation of the
// leaders).
func BenchmarkBoostConfigSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Boost([]int{2, 5}, 2e6, 2, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnifferOverhead regenerates the E3 sniffer capture analysis.
func BenchmarkSnifferOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Sniffer(3, 4e6, 100_000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShortTermFairness regenerates the E4 sliding-window
// comparison of 1901 and 802.11.
func BenchmarkShortTermFairness(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ShortTermFairness(2, []int{10, 100}, 8e6, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDeferral regenerates the deferral-counter ablation.
func BenchmarkAblationDeferral(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationDeferral([]int{7}, 4e6, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBurstSize regenerates the burst-size ablation.
func BenchmarkAblationBurstSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationBurstSize(3, 3e6, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorAgreement regenerates the cross-implementation
// agreement check.
func BenchmarkSimulatorAgreement(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SimulatorAgreement([]int{3}, 4e6, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelSolvers compares the fixed-point strategies (the solver
// ablation) and reports map evaluations per solve (iters/op): the
// accelerated fixed-point loop on a saturated (10×CA1), a hetero
// (5×CA1 e=0.1 + 3×CA3) and a loaded (3 Poisson CA1 e=0.05 + 5
// saturated CA1) input — the solve/CA1/N=10, hetero and
// loaded/poisson+saturated cases of the model's bit pins — and forced
// bisection on the saturated one.
func BenchmarkModelSolvers(b *testing.B) {
	ca1, ca3 := config.DefaultCA1(), config.Default1901(config.CA3)
	run := func(b *testing.B, solve func() (int, error)) {
		iters := 0
		for i := 0; i < b.N; i++ {
			n, err := solve()
			if err != nil {
				b.Fatal(err)
			}
			iters += n
		}
		b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
	}
	saturated := func(opts model.Options) func() (int, error) {
		return func() (int, error) {
			p, err := model.Solve(10, ca1, opts)
			return p.Iterations, err
		}
	}
	b.Run("damped", func(b *testing.B) { run(b, saturated(model.Options{Damping: 0.25})) })
	b.Run("hetero", func(b *testing.B) {
		groups := []model.Group{{N: 5, Params: ca1, ErrorProb: 0.1}, {N: 3, Params: ca3}}
		run(b, func() (int, error) {
			p, err := model.SolveHeterogeneous(groups, model.Options{})
			return p.Iterations, err
		})
	})
	b.Run("loaded", func(b *testing.B) {
		groups := []model.LoadedGroup{
			{Group: model.Group{N: 3, Params: ca1, ErrorProb: 0.05}, Priority: config.CA1, ArrivalRate: 2e-5},
			{Group: model.Group{N: 5, Params: ca1}, Priority: config.CA1, Saturated: true},
		}
		run(b, func() (int, error) {
			sol, err := model.SolveLoaded(groups, model.DefaultTiming(), model.Options{})
			if err != nil {
				return 0, err
			}
			n := 0
			for _, cs := range sol.Classes {
				n += cs.Iterations
			}
			return n, nil
		})
	})
	b.Run("bisection", func(b *testing.B) { run(b, saturated(model.Options{MaxIterations: 1})) })
}

// BenchmarkBackoffStep measures the pure per-slot cost of the 1901
// backoff engine — the inner loop of every simulation.
func BenchmarkBackoffStep(b *testing.B) {
	s := backoff.NewStation(config.DefaultCA1(), rng.New(1))
	a := s.Start()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a == backoff.Transmit {
			a = s.AfterBusy(true, i&1 == 0)
		} else {
			a = s.AfterIdle()
		}
	}
}

// BenchmarkSimEngine measures the slot-synchronous simulator's event
// rate on three shapes and reports simulated µs per wall-clock ns and
// busy periods per op:
//   - N=5: the paper's CA1 defaults, 1 s simulated;
//   - jobs: one replication each at N = 2, 5, 8 of CA1 over 15 s
//     simulated, station 0 losing frames with probability 0.05 — the
//     shape of a served sim job;
//   - N=20: a crowded medium, where a busy period touching every
//     station costs the most.
func BenchmarkSimEngine(b *testing.B) {
	shape := func(n int, simTime float64) sim.Inputs {
		in := sim.DefaultInputs(n)
		in.SimTime = simTime
		return in
	}
	jobs := make([]sim.Inputs, 0, 3)
	for _, n := range []int{2, 5, 8} {
		in := shape(n, 15e6)
		in.ErrorProb = make([]float64, n)
		in.ErrorProb[0] = 0.05
		jobs = append(jobs, in)
	}
	for _, bc := range []struct {
		name   string
		inputs []sim.Inputs
	}{
		{"N=5", []sim.Inputs{shape(5, 1e6)}},
		{"jobs", jobs},
		{"N=20", []sim.Inputs{shape(20, 1e6)}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var simulated float64
			var busy int64
			for i := 0; i < b.N; i++ {
				for _, in := range bc.inputs {
					in.Seed = uint64(i + 1)
					e, err := sim.NewEngine(in)
					if err != nil {
						b.Fatal(err)
					}
					r := e.Run()
					simulated += r.Elapsed
					busy += r.Successes + r.CollisionEvents + r.FrameErrors
				}
			}
			b.ReportMetric(simulated/float64(b.Elapsed().Nanoseconds()), "simulated-µs/ns")
			b.ReportMetric(float64(busy)/float64(b.N), "busy-periods/op")
		})
	}
}

// BenchmarkMACNetwork measures the event-driven MAC's rate on the
// paper's 7-station saturated scenario.
func BenchmarkMACNetwork(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb, err := testbed.New(testbed.Options{N: 7, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		tb.Run(1e6)
	}
}

// BenchmarkMACNetworkSteadyState measures the medium loop alone: the
// testbed is built once and only Run is timed, so allocs/op exposes the
// per-event allocation count of the hot loop (0 after the scratch-buffer
// rework).
func BenchmarkMACNetworkSteadyState(b *testing.B) {
	tb, err := testbed.New(testbed.Options{N: 7, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tb.Run(1e6) // warm the scratch buffers and counter buckets
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Run(1e6)
	}
}

// noopSlotObserver forces sim.Engine onto its slot-by-slot path (any
// observer disables the idle fast-forward) without doing any work, so
// the two arms of BenchmarkEngineIdleFastForward compare the batched
// loop against the traced per-slot loop on identical inputs.
type noopSlotObserver struct{}

func (noopSlotObserver) OnSlot(float64, sim.SlotKind, []int, []backoff.Snapshot) {}

// BenchmarkEngineIdleFastForward measures the idle-slot fast-forward in
// its target regime — idle-dominated contention (small N, large CW,
// where most medium events are empty 35.84 µs slots) — and reports
// simulated µs per wall-clock ns. The slot-by-slot arms run the same
// inputs through the per-slot fallback for comparison; both arms are
// bit-identical in output (see internal/sim's equivalence tests). The
// CA0 arms use the paper's Table 1 schedule at N=2; the wide-CW arms
// model the large windows the boosting search explores, where idle runs
// span hundreds of slots and the batch pays off the most.
func BenchmarkEngineIdleFastForward(b *testing.B) {
	wide := config.Params{Name: "wide", CW: []int{512, 512, 512, 512}, DC: []int{0, 1, 3, 15}}
	run := func(b *testing.B, params config.Params, obs sim.Observer) {
		b.ReportAllocs()
		var simulated float64
		for i := 0; i < b.N; i++ {
			in := sim.DefaultInputs(2)
			in.Params = params
			in.SimTime = 1e6
			in.Seed = uint64(i + 1)
			e, err := sim.NewEngine(in)
			if err != nil {
				b.Fatal(err)
			}
			if obs != nil {
				e.SetObserver(obs)
			}
			r := e.Run()
			simulated += r.Elapsed
		}
		b.ReportMetric(simulated/float64(b.Elapsed().Nanoseconds()), "simulated-µs/ns")
	}
	ca0 := config.Default1901(config.CA0)
	b.Run("ca0/batched", func(b *testing.B) { run(b, ca0, nil) })
	b.Run("ca0/slot-by-slot", func(b *testing.B) { run(b, ca0, noopSlotObserver{}) })
	b.Run("wide-cw/batched", func(b *testing.B) { run(b, wide, nil) })
	b.Run("wide-cw/slot-by-slot", func(b *testing.B) { run(b, wide, noopSlotObserver{}) })
}

// BenchmarkMMECodec measures the stats-confirm marshal/unmarshal round
// trip, the hot path of the UDP management plane.
func BenchmarkMMECodec(b *testing.B) {
	frame := &hpav.Frame{
		ODA: hpav.MAC{0, 0xB0, 0x52, 0, 0, 1}, OSA: hpav.MAC{0, 0xB0, 0x52, 0, 0, 2},
		Type: hpav.MMTypeStatsCnf, OUI: hpav.IntellonOUI,
		Payload: (&hpav.StatsCnf{Acked: 162220, Collided: 25}).Marshal(),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		raw := frame.Marshal()
		f, err := hpav.Unmarshal(raw)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := hpav.UnmarshalStatsCnf(f.Payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRNG measures the backoff-draw rate of the PRNG.
func BenchmarkRNG(b *testing.B) {
	src := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = src.Backoff(64)
	}
}

// predictSpec is the shared operating point of the model-vs-simulation
// speedup pair: 10 saturated CA1 stations over the paper's example
// horizon of 5·10⁸ µs (the published sim_1901 invocation's duration).
// BenchmarkModelPredict answers it analytically — the fixed point is
// horizon-independent, so its cost does not grow with sim_time_us —
// while BenchmarkSimPointReplication runs one simulated replication of
// the identical spec; the speedup (≥ 100×) reads directly off these
// two benchmarks' ns/op.
func predictSpec() scenario.Spec {
	return scenario.Spec{
		Name:          "predict-bench",
		SimTimeMicros: 5e8,
		Stations:      []scenario.Group{{Count: 10}},
	}
}

// BenchmarkModelPredict measures one analytic scenario point: the
// heterogeneous fixed point plus metric derivation, the unit of work
// behind `sim1901 -engine model` and the serving daemon's /v1/predict.
func BenchmarkModelPredict(b *testing.B) {
	s := predictSpec()
	s.Engine = scenario.EngineModel
	c, err := scenario.Compile(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.RunOnce(c.Points[0], 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelPredictLoaded measures the widened analytic regime:
// the loaded (unsaturated) fixed point with mixed CA1/CA3 priority
// classes — the joint damped iteration over attempt availability plus
// the strict-priority class ladder, the unit of work behind
// /v1/predict on a Poisson-load spec.
func BenchmarkModelPredictLoaded(b *testing.B) {
	s := scenario.Spec{
		Name:          "predict-bench-loaded",
		Engine:        scenario.EngineModel,
		SimTimeMicros: 5e8,
		Stations: []scenario.Group{
			{Count: 5, Priority: "CA1", Traffic: &scenario.Traffic{Kind: "poisson", MeanInterarrivalMicros: 1e5}},
			{Count: 2, Priority: "CA3", Traffic: &scenario.Traffic{Kind: "poisson", MeanInterarrivalMicros: 2e5}},
		},
	}
	c, err := scenario.Compile(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.RunOnce(c.Points[0], 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimPointReplication measures one simulated replication of
// the same spec BenchmarkModelPredict answers analytically.
func BenchmarkSimPointReplication(b *testing.B) {
	s := predictSpec()
	s.Engine = scenario.EngineSim
	c, err := scenario.Compile(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.RunOnce(c.Points[0], uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServePredict measures POST /v1/predict end to end through
// the HTTP handler: the cold arm defeats the cache with a fresh seed
// per iteration (every request solves), the hot arm repeats one spec
// (every request after the first is a fingerprint cache hit — the
// sub-millisecond serving path).
func BenchmarkServePredict(b *testing.B) {
	run := func(b *testing.B, body func(i int) string) {
		s, err := serve.New(serve.Config{})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body(i)))
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("predict status %d", resp.StatusCode)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	const spec = `{"name":"serve-predict-bench","engine":"model","sim_time_us":5e7,"seed":%d,"stations":[{"count":10}]}`
	b.Run("cold", func(b *testing.B) {
		run(b, func(i int) string {
			// A fresh seed changes the fingerprint (never the analytic
			// answer), forcing a solve per request.
			return `{"spec":` + fmt.Sprintf(spec, i+1) + `}`
		})
	})
	b.Run("cached", func(b *testing.B) {
		body := `{"spec":` + fmt.Sprintf(spec, 1) + `}`
		run(b, func(int) string { return body })
	})
}

// cvCampaignSpec is the operating point of the control-variate pair:
// the adaptive saturation sweep from the acceptance test, targeting the
// paper's headline collision probability at a ±0.002 half-width. The
// plain and cv arms share every seed (common random numbers), so the
// "simreps/op" metric reads the variance-reduction speedup directly off
// the benchmark output: plain needs ~5× the simulated replications the
// regression-adjusted estimator needs for the same interval.
func cvCampaignSpec(withCV bool) campaign.Spec {
	base := scenario.Spec{
		Name:          "cv-bench-base",
		SimTimeMicros: 1e6,
		Seed:          7,
		Stations:      []scenario.Group{{Count: 1}},
	}
	if withCV {
		base.VarianceReduction = &scenario.VarianceReduction{Kind: scenario.VRControlVariate}
	}
	return campaign.Spec{
		Name:      "cv-bench",
		Base:      base,
		Axes:      []campaign.Axis{{Path: "n", Values: []json.RawMessage{[]byte("2"), []byte("3"), []byte("5")}}},
		Targets:   []campaign.Target{{Metric: "collision_pr", CI: 0.002}},
		MinReps:   4,
		MaxReps:   2000,
		BatchReps: 2,
	}
}

// BenchmarkControlVariateCampaign measures the adaptive campaign under
// both estimators. Each iteration runs the whole grid to convergence;
// simreps/op is the total number of simulated replications the stopping
// rule consumed, the quantity the control variate exists to shrink.
func BenchmarkControlVariateCampaign(b *testing.B) {
	run := func(b *testing.B, withCV bool) {
		c, err := campaign.Compile(cvCampaignSpec(withCV))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		var simreps int
		for i := 0; i < b.N; i++ {
			rep, err := campaign.Run(c, campaign.Opts{Workers: 4})
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range rep.Points {
				if !p.Converged {
					b.Fatalf("point %v failed to converge", p.Labels)
				}
			}
			simreps += rep.SimulatedReps
		}
		b.ReportMetric(float64(simreps)/float64(b.N), "simreps/op")
	}
	b.Run("plain", func(b *testing.B) { run(b, false) })
	b.Run("cv", func(b *testing.B) { run(b, true) })
}

// BenchmarkBoostModelScore measures the model-side scoring cost of one
// candidate across four contention levels — the unit the search pays
// per grid point.
func BenchmarkBoostModelScore(b *testing.B) {
	p := config.DefaultCA1()
	for i := 0; i < b.N; i++ {
		if _, err := boost.ScoreModel(p, []int{2, 5, 10, 15}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessDelay regenerates the E5 delay-vs-N experiment.
func BenchmarkAccessDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AccessDelay([]int{1, 5}, 4e6, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelayVsLoad regenerates the E6 hockey-stick experiment.
func BenchmarkDelayVsLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DelayVsLoad(3, []float64{0.1, 0.5}, 4e6, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelAccuracy regenerates the E7 decoupling-error table.
func BenchmarkModelAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ModelAccuracy([]int{2, 5}, 4e6, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoexistence regenerates the E8 heterogeneous-configuration
// experiment.
func BenchmarkCoexistence(b *testing.B) {
	inf := 1 << 20
	aggr := config.Params{Name: "aggr", CW: []int{4, 8, 16, 32}, DC: []int{inf, inf, inf, inf}}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Coexistence(aggr, 3, 4e6, 1); err != nil {
			b.Fatal(err)
		}
	}
}
