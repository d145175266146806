package experiments

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// AccessDelay (experiment E5) measures the saturated head-of-line
// access delay versus the number of stations, from the event-driven MAC
// (mean, median, p95) against the analytical model's renewal estimate.
// Delay is the third axis of the paper's performance analysis (after
// throughput and fairness): the heavy p95/median tail at large N is the
// short-term unfairness expressed in time units.
func AccessDelay(ns []int, durationMicros float64, seed uint64) (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "Saturated access delay vs N (per burst, µs): event-driven MAC vs model",
		Note:   "Delay = time from a burst reaching the head of its queue to the end of its successful transmission. Model: E[σ]/(τ(1−γ)). The p95/median ratio grows with N — short-term unfairness in time units.",
		Header: []string{"N", "mean (MAC)", "median", "p95", "mean (model)"},
	}
	type point struct {
		mean, median, p95, model float64
	}
	points, err := sweep(ns, func(_ int, n int) (point, error) {
		tb, err := testbed.New(testbed.Options{
			N: n, BurstMPDUs: 1, Seed: seed, RecordDelays: true,
			FrameMicros: 2050,
		})
		if err != nil {
			return point{}, err
		}
		tb.Run(durationMicros)
		ds := tb.Network.Stats().AccessDelays
		if len(ds) == 0 {
			return point{}, fmt.Errorf("experiments: no delay samples at N=%d", n)
		}
		sum := stats.Summarize(ds)

		pred, err := model.Solve(n, config.DefaultCA1(), model.Options{})
		if err != nil {
			return point{}, err
		}
		met := model.MetricsFor(pred, n, model.DefaultTiming())
		return point{
			mean: sum.Mean, median: stats.Median(ds),
			p95: stats.Quantile(ds, 0.95), model: met.MeanAccessDelay,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range ns {
		p := points[i]
		t.AddRow(fmt.Sprint(n), f(p.mean), f(p.median), f(p.p95), f(p.model))
	}
	return t, nil
}

// DelayVsLoad (experiment E6) sweeps the offered load of an unsaturated
// network and reports the mean access delay — the classic hockey-stick
// curve whose knee marks the MAC's usable capacity.
func DelayVsLoad(n int, loads []float64, durationMicros float64, seed uint64) (*Table, error) {
	if n < 1 {
		return nil, fmt.Errorf("experiments: DelayVsLoad needs ≥ 1 stations")
	}
	t := &Table{
		ID:     "E6",
		Title:  fmt.Sprintf("Access delay vs offered load, N=%d (bursts of 2 MPDUs)", n),
		Note:   "Offered load is the fraction of the single-station saturation burst rate each station generates; delays explode as aggregate load approaches the MAC's capacity.",
		Header: []string{"offered load", "bursts served", "mean delay (µs)", "p95 delay (µs)", "quiet fraction"},
	}

	// Calibrate the saturation burst rate at N=1 once.
	satTb, err := testbed.New(testbed.Options{N: 1, Seed: seed})
	if err != nil {
		return nil, err
	}
	satTb.Run(durationMicros)
	satStats := satTb.Network.Stats()
	satRate := float64(satStats.Successes) / satStats.Elapsed // bursts/µs

	type point struct {
		served           int64
		mean, p95, quiet float64
	}
	points, err := sweep(loads, func(_ int, load float64) (point, error) {
		if load <= 0 || load > 1 {
			return point{}, fmt.Errorf("experiments: offered load %v outside (0, 1]", load)
		}
		meanInter := 1 / (satRate * load)
		tb, err := testbed.New(testbed.Options{
			N: n, Seed: seed, RecordDelays: true,
			TrafficMeanMicros: meanInter,
		})
		if err != nil {
			return point{}, err
		}
		tb.Run(durationMicros)
		st := tb.Network.Stats()
		if len(st.AccessDelays) == 0 {
			return point{}, fmt.Errorf("experiments: no traffic served at load %v", load)
		}
		return point{
			served: st.Successes,
			mean:   stats.Mean(st.AccessDelays),
			p95:    stats.Quantile(st.AccessDelays, 0.95),
			quiet:  st.QuietTime / st.Elapsed,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, load := range loads {
		p := points[i]
		t.AddRow(fmt.Sprintf("%.2f", load), fmt.Sprint(p.served), f(p.mean), f(p.p95), f(p.quiet))
	}
	return t, nil
}

// ModelAccuracy (experiment E7) quantifies the decoupling
// approximation's error against the simulator across N — the
// known-deviation table of EXPERIMENTS.md, generated rather than
// asserted.
func ModelAccuracy(ns []int, simTime float64, seed uint64) (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  "Decoupling model accuracy: γ (model) − p (simulator) across N",
		Note:   "The model ignores the negative correlation between freshly synchronized backoff draws, overestimating collisions most at N=2; the error shrinks monotonically with N.",
		Header: []string{"N", "simulator p", "model γ", "error", "model thr − sim thr"},
	}
	type point struct {
		sim  sim.Result
		pred float64
		thr  float64
	}
	points, err := sweep(ns, func(_ int, n int) (point, error) {
		ev, err := simRun(n, config.DefaultCA1(), simTime, seed, nil)
		if err != nil {
			return point{}, err
		}
		pred, err := model.Solve(n, config.DefaultCA1(), model.Options{})
		if err != nil {
			return point{}, err
		}
		met := model.MetricsFor(pred, n, model.DefaultTiming())
		return point{sim: ev, pred: pred.Gamma, thr: met.NormalizedThroughput}, nil
	})
	if err != nil {
		return nil, err
	}
	// The monotonicity check compares consecutive points, so it runs
	// serially over the in-order results.
	prevErr := 1.0
	for i, n := range ns {
		p := points[i]
		e := p.pred - p.sim.CollisionProbability
		t.AddRow(fmt.Sprint(n), f(p.sim.CollisionProbability), f(p.pred), f(e), f(p.thr-p.sim.NormalizedThroughput))
		if n > 1 && e > prevErr+0.005 {
			return nil, fmt.Errorf("experiments: model error grew with N (%v → %v at N=%d)", prevErr, e, n)
		}
		if n > 1 {
			prevErr = e
		}
	}
	return t, nil
}
