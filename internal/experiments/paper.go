package experiments

import (
	"fmt"

	"repro/internal/backoff"
	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// Table1 renders the IEEE 1901 parameter table (Table 1 of the paper):
// CWᵢ and dᵢ per backoff stage for the two priority groups. It is a
// constants table; regenerating it pins the configuration package to
// the standard.
func Table1() *Table {
	t := &Table{
		ID:     "table1",
		Title:  "IEEE 1901 contention windows CW_i and initial deferral counters d_i per backoff stage",
		Header: []string{"backoff stage i", "BPC", "CA0/CA1 CW_i", "CA0/CA1 d_i", "CA2/CA3 CW_i", "CA2/CA3 d_i"},
	}
	low := config.Default1901(config.CA1)
	high := config.Default1901(config.CA3)
	bpc := []string{"0", "1", "2", "≥ 3"}
	for i := 0; i < low.Stages(); i++ {
		t.AddRow(
			fmt.Sprint(i), bpc[i],
			fmt.Sprint(low.CW[i]), fmt.Sprint(low.DC[i]),
			fmt.Sprint(high.CW[i]), fmt.Sprint(high.DC[i]),
		)
	}
	return t
}

// Figure1 reproduces the paper's example trace: the time evolution of
// the backoff process of two saturated stations, one row per medium
// event, with each station's CWᵢ, DC and BC — exposing the short-term
// unfairness (the winner restarts at stage 0 and tends to win again).
func Figure1(seed uint64, transmissions int) (*Table, error) {
	if transmissions < 1 {
		return nil, fmt.Errorf("experiments: Figure1 needs ≥ 1 transmissions")
	}
	t := &Table{
		ID:     "fig1",
		Title:  "Time evolution of the 1901 backoff process with 2 saturated stations",
		Note:   "Each row is one medium event. Observe the CW change when a station senses the medium busy with DC = 0, and the winner restarting at stage 0.",
		Header: []string{"event", "t (µs)", "A: CW", "A: DC", "A: BC", "B: CW", "B: DC", "B: BC", "outcome"},
	}

	count := 0
	event := 0
	obs := obsFunc(func(ts float64, kind sim.SlotKind, txs []int, snaps []backoff.Snapshot) {
		if count >= transmissions {
			return
		}
		outcome := "idle"
		switch kind {
		case sim.Success:
			who := "A"
			if txs[0] == 1 {
				who = "B"
			}
			outcome = "transmission by " + who
			count++
		case sim.Collision:
			outcome = "collision"
			count++
		}
		event++
		t.AddRow(
			fmt.Sprint(event), fmt.Sprintf("%.2f", ts),
			fmt.Sprint(snaps[0].CW), fmt.Sprint(snaps[0].DC), fmt.Sprint(snaps[0].BC),
			fmt.Sprint(snaps[1].CW), fmt.Sprint(snaps[1].DC), fmt.Sprint(snaps[1].BC),
			outcome,
		)
	})
	// A 2-station run produces a transmission roughly every 3 ms; give
	// the engine 5 ms of simulated time per requested transmission so
	// the observer (which stops recording at the target) always fills
	// its quota, without running a needlessly long simulation.
	if _, err := simRun(2, config.DefaultCA1(), float64(transmissions)*5000, seed, obs); err != nil {
		return nil, err
	}
	if count < transmissions {
		return nil, fmt.Errorf("experiments: Figure1 recorded %d of %d transmissions", count, transmissions)
	}
	return t, nil
}

// obsFunc adapts a function to sim.Observer.
type obsFunc func(t float64, kind sim.SlotKind, txs []int, snaps []backoff.Snapshot)

// OnSlot calls the function.
func (f obsFunc) OnSlot(t float64, kind sim.SlotKind, txs []int, snaps []backoff.Snapshot) {
	f(t, kind, txs, snaps)
}

// simRun runs the minimal simulator once: n saturated stations on
// params for simTime µs from seed, with obs (when non-nil) watching
// every medium event.
func simRun(n int, params config.Params, simTime float64, seed uint64, obs sim.Observer) (sim.Result, error) {
	in := sim.DefaultInputs(n)
	in.SimTime = simTime
	in.Seed = seed
	in.Params = params
	e, err := sim.NewEngine(in)
	if err != nil {
		return sim.Result{}, err
	}
	if obs != nil {
		e.SetObserver(obs)
	}
	return e.Run(), nil
}

// Table2Config parameterizes the Table 2 reproduction.
type Table2Config struct {
	// Ns are the station counts (the paper: 1…7).
	Ns []int
	// DurationMicros is the per-test virtual duration (paper: 240 s).
	DurationMicros float64
	// Seed drives the testbed.
	Seed uint64
}

// DefaultTable2Config reproduces the paper's setup at full length.
func DefaultTable2Config() Table2Config {
	return Table2Config{Ns: []int{1, 2, 3, 4, 5, 6, 7}, DurationMicros: 240e6, Seed: 1}
}

// Table2 reproduces Table 2: the statistics ΣCᵢ and ΣAᵢ of one test per
// N, measured through the emulated testbed's MME counters exactly as
// Section 3.2 prescribes (reset, run, fetch, sum).
func Table2(cfg Table2Config) (*Table, error) {
	t := &Table{
		ID:     "table2",
		Title:  "Statistics ΣC_i, ΣA_i measured in one test per N (duration " + fmt.Sprintf("%.0f s", cfg.DurationMicros/1e6) + ")",
		Note:   "ΣA_i includes collided frames (the destination acknowledges them with an all-blocks-errored indication); the collision probability is ΣC_i/ΣA_i. Emulated testbed, bursts of 2 MPDUs.",
		Header: []string{"N", "ΣC_i", "ΣA_i", "ΣC_i/ΣA_i"},
	}
	type point struct{ sumC, sumA uint64 }
	points, err := sweep(cfg.Ns, func(_ int, n int) (point, error) {
		tb, err := testbed.New(testbed.Options{N: n, Seed: cfg.Seed + uint64(n)})
		if err != nil {
			return point{}, err
		}
		tb.ResetAll()
		tb.Run(cfg.DurationMicros)
		_, sumC, sumA := tb.Fetch()
		return point{sumC, sumA}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range cfg.Ns {
		ratio := 0.0
		if points[i].sumA > 0 {
			ratio = float64(points[i].sumC) / float64(points[i].sumA)
		}
		t.AddRow(fmt.Sprint(n), e(points[i].sumC), e(points[i].sumA), f(ratio))
	}
	return t, nil
}

// Figure2Config parameterizes the Figure 2 reproduction.
type Figure2Config struct {
	// Ns are the station counts (paper: 1…7).
	Ns []int
	// Tests is the number of repeated measurements (paper: 10).
	Tests int
	// TestDurationMicros is each measurement's virtual duration
	// (paper: 240 s).
	TestDurationMicros float64
	// SimTimeMicros is the simulator's duration (paper: 5·10⁸ µs).
	SimTimeMicros float64
	// Seed drives all random streams.
	Seed uint64
}

// DefaultFigure2Config reproduces the paper's setup at full length.
func DefaultFigure2Config() Figure2Config {
	return Figure2Config{
		Ns: []int{1, 2, 3, 4, 5, 6, 7}, Tests: 10,
		TestDurationMicros: 240e6, SimTimeMicros: 5e8, Seed: 1,
	}
}

// Figure2Point is one x-position of the figure.
type Figure2Point struct {
	N          int
	Simulation float64
	Analysis   float64
	Measured   stats.Summary
}

// Figure2 reproduces the paper's validation figure: collision
// probability versus the number of stations, from (a) the
// finite-state-machine simulator, (b) the analytical model, and (c)
// the emulated HomePlug AV measurements averaged over repeated tests.
func Figure2(cfg Figure2Config) ([]Figure2Point, *Table, error) {
	if cfg.Tests < 1 {
		return nil, nil, fmt.Errorf("experiments: Figure2 needs ≥ 1 tests")
	}
	t := &Table{
		ID:     "fig2",
		Title:  "Collision probability vs number of stations: simulation, analysis, measurements",
		Note:   "Measurements are the mean of repeated emulated tests (± 95% CI). The paper reports an excellent fit between the three curves for the CA1 defaults.",
		Header: []string{"N", "MAC simulation", "Analysis", "HomePlug AV measurements", "± 95% CI"},
	}
	points, err := sweep(cfg.Ns, func(_ int, n int) (Figure2Point, error) {
		r, err := simRun(n, config.DefaultCA1(), cfg.SimTimeMicros, cfg.Seed, nil)
		if err != nil {
			return Figure2Point{}, err
		}
		simP := r.CollisionProbability

		pred, err := model.Solve(n, config.DefaultCA1(), model.Options{})
		if err != nil {
			return Figure2Point{}, err
		}

		measured := make([]float64, 0, cfg.Tests)
		for k := 0; k < cfg.Tests; k++ {
			tb, err := testbed.New(testbed.Options{N: n, Seed: cfg.Seed + uint64(1000*n+k)})
			if err != nil {
				return Figure2Point{}, err
			}
			measured = append(measured, tb.CollisionProbability(cfg.TestDurationMicros))
		}
		sum := stats.Summarize(measured)
		return Figure2Point{N: n, Simulation: simP, Analysis: pred.Gamma, Measured: sum}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, p := range points {
		t.AddRow(fmt.Sprint(p.N), f(p.Simulation), f(p.Analysis), f(p.Measured.Mean), f(p.Measured.CI95))
	}
	return points, t, nil
}
