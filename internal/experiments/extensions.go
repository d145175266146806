package experiments

import (
	"fmt"

	"repro/internal/backoff"
	"repro/internal/boost"
	"repro/internal/config"
	"repro/internal/fairness"
	"repro/internal/hpav"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// ThroughputVsN (experiment E1, the CoNEXT "analyzing" axis) compares
// normalized throughput of 1901 against the 802.11 DCF baseline across
// station counts, from both the simulators and the analytical models.
func ThroughputVsN(ns []int, simTime float64, seed uint64) (*Table, error) {
	t := &Table{
		ID:     "E1",
		Title:  "Normalized throughput vs N: IEEE 1901 (CA1) vs 802.11 DCF, simulation and analysis",
		Note:   "1901's small CWmin wins at low contention; the deferral counter keeps it competitive as N grows. Crossovers are the design tradeoff of Section 2.",
		Header: []string{"N", "1901 sim", "1901 model", "802.11 sim", "802.11 model"},
	}
	// 802.11 runs on the same engine and model as 1901: the DCF windows
	// with deferral counters that never expire.
	protocols := []config.Params{config.DefaultCA1(), config.Default80211().Params()}
	// Per protocol, in column order: simulated then modeled throughput.
	points, err := sweep(ns, func(_ int, n int) ([4]float64, error) {
		var thr [4]float64
		for k, params := range protocols {
			in := sim.DefaultInputs(n)
			in.SimTime = simTime
			in.Seed = seed
			in.Params = params
			e, err := sim.NewEngine(in)
			if err != nil {
				return thr, err
			}
			_, met, err := model.Predict(n, params)
			if err != nil {
				return thr, err
			}
			thr[2*k], thr[2*k+1] = e.Run().NormalizedThroughput, met.NormalizedThroughput
		}
		return thr, nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range ns {
		p := points[i]
		t.AddRow(fmt.Sprint(n), f(p[0]), f(p[1]), f(p[2]), f(p[3]))
	}
	return t, nil
}

// BoostResult carries the boosting experiment's structured output next
// to its rendered table.
type BoostResult struct {
	Default boost.Validation
	Best    boost.Validation
	Front   []boost.Validation
}

// Boost (experiment E2, the CoNEXT "boosting" axis) runs the
// model-guided configuration search, validates the leaders in the
// simulator and reports them against the Table 1 defaults.
func Boost(ns []int, simTime float64, topK int, seed uint64) (*BoostResult, *Table, error) {
	cands, err := boost.Search(boost.DefaultSpace(), ns)
	if err != nil {
		return nil, nil, err
	}
	vals, err := boost.ValidateTop(cands, topK, ns, simTime, seed)
	if err != nil {
		return nil, nil, err
	}
	defCand, err := boost.ScoreModel(config.DefaultCA1(), ns)
	if err != nil {
		return nil, nil, err
	}
	defVal, err := boost.Validate(defCand, ns, simTime, seed)
	if err != nil {
		return nil, nil, err
	}

	nRef := ns[len(ns)-1]
	t := &Table{
		ID:    "E2",
		Title: fmt.Sprintf("Configuration search: top %d candidates vs Table 1 defaults (min-throughput over N=%v)", topK, ns),
		Note:  "Score = worst-case normalized throughput across the station counts; Jain = mean sliding-window (10 tx) fairness at the largest N. Model-guided search, simulator-validated.",
		Header: []string{"config", "cw", "dc", "model score", "sim score",
			fmt.Sprintf("sim thr (N=%d)", nRef), fmt.Sprintf("Jain-10 (N=%d)", nRef)},
	}
	addRow := func(v boost.Validation, name string) {
		p := v.Candidate.Params
		t.AddRow(name,
			fmt.Sprint(p.CW), fmt.Sprint(p.DC),
			f(v.Candidate.Score), f(v.SimScore),
			f(v.SimThroughput[nRef]), f(v.ShortTermJain[nRef]))
	}
	addRow(defVal, "default CA1")
	for _, v := range vals {
		addRow(v, v.Candidate.Params.Name)
	}
	res := &BoostResult{Default: defVal, Best: vals[0], Front: boost.ParetoFront(append(vals, defVal), nRef)}
	return res, t, nil
}

// Sniffer (experiment E3) reproduces the Section 3.1/3.3 sniffer
// methodology: burst-size frequencies and the MME overhead, measured by
// capturing SoF delimiters at the destination.
func Sniffer(n int, durationMicros, mgmtMeanMicros float64, seed uint64) (*testbed.CaptureAnalysis, *Table, error) {
	tb, err := testbed.New(testbed.Options{N: n, Seed: seed, MgmtMeanMicros: mgmtMeanMicros})
	if err != nil {
		return nil, nil, err
	}
	tb.EnableSniffer()
	tb.Run(durationMicros)
	a, err := testbed.AnalyzeCaptures(tb.Captures(), config.CA1)
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		ID:     "E3",
		Title:  fmt.Sprintf("Sniffer capture analysis: N=%d, %.0f s, management traffic mean %.0f ms", n, durationMicros/1e6, mgmtMeanMicros/1e3),
		Note:   "Bursts are delimited by MPDUCnt = 0; MMEs are distinguished from data by the LinkID priority (data at CA1, MMEs at CA2/CA3). Overhead = MME bursts / data bursts.",
		Header: []string{"metric", "value"},
	}
	t.AddRow("captured MPDUs", fmt.Sprint(a.MPDUs))
	t.AddRow("data bursts", fmt.Sprint(a.DataBursts))
	t.AddRow("MME bursts", fmt.Sprint(a.MgmtBursts))
	for size := 1; size <= hpav.MaxBurstMPDUs; size++ {
		t.AddRow(fmt.Sprintf("bursts of %d MPDUs", size), fmt.Sprint(a.BurstSizes[size]))
	}
	t.AddRow("dominant burst size", fmt.Sprint(a.DominantBurstSize()))
	t.AddRow("MME overhead", f(a.MMEOverhead()))
	return a, t, nil
}

// ShortTermFairness (experiment E4, the prior-work [4] replication)
// compares the sliding-window Jain index of 1901 and 802.11 across
// window sizes: 1901 is short-term unfair (winners keep winning from
// stage 0) but converges to fairness at large windows.
func ShortTermFairness(n int, windows []int, simTime float64, seed uint64) (*Table, error) {
	if n < 2 {
		return nil, fmt.Errorf("experiments: fairness needs ≥ 2 stations")
	}
	// The two protocol traces are independent simulations: fan them out.
	traces, err := sweep([]config.Params{config.DefaultCA1(), config.Default80211().Params()}, func(_ int, params config.Params) ([]int, error) {
		in := sim.DefaultInputs(n)
		in.SimTime = simTime
		in.Seed = seed
		in.Params = params
		e, err := sim.NewEngine(in)
		if err != nil {
			return nil, err
		}
		rec := &winnerTrace{}
		e.SetObserver(rec)
		e.Run()
		return rec.winners, nil
	})
	if err != nil {
		return nil, err
	}
	rec1901 := &winnerTrace{winners: traces[0]}
	recDCF := &winnerTrace{winners: traces[1]}

	universe := make([]int, n)
	for i := range universe {
		universe[i] = i
	}

	t := &Table{
		ID:     "E4",
		Title:  fmt.Sprintf("Short-term fairness (mean sliding-window Jain index), N=%d", n),
		Note:   "1901's winner restarts at CW₀ = 8 while losers climb stages (Figure 1), depressing small-window fairness below 802.11's; both converge to 1 at large windows.",
		Header: []string{"window (tx)", "1901 Jain", "802.11 Jain"},
	}
	for _, w := range windows {
		a, err := fairness.ShortTermJain(rec1901.winners, universe, w)
		if err != nil {
			return nil, err
		}
		b, err := fairness.ShortTermJain(recDCF.winners, universe, w)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(w), f(a.MeanJain), f(b.MeanJain))
	}
	return t, nil
}

// winnerTrace records success winners from a simulation.
type winnerTrace struct{ winners []int }

// OnSlot implements sim.Observer.
func (o *winnerTrace) OnSlot(_ float64, kind sim.SlotKind, txs []int, _ []backoff.Snapshot) {
	if kind == sim.Success {
		o.winners = append(o.winners, txs[0])
	}
}

// AblationDeferral isolates the deferral counter's contribution:
// identical CW schedules with the standard dᵢ versus deferral disabled,
// across N.
func AblationDeferral(ns []int, simTime float64, seed uint64) (*Table, error) {
	noDC := config.Params{Name: "no-deferral", CW: []int{8, 16, 32, 64}, DC: []int{1 << 20, 1 << 20, 1 << 20, 1 << 20}}
	t := &Table{
		ID:     "ablation-deferral",
		Title:  "Deferral counter ablation: collision probability and throughput with and without DC",
		Note:   "Same CW schedule; dᵢ = ∞ disables the 1901-specific jumps. The deferral counter is what absorbs CWmin = 8 under contention.",
		Header: []string{"N", "p (with DC)", "p (no DC)", "thr (with DC)", "thr (no DC)"},
	}
	type point struct{ pw, tw, pn, tn float64 }
	points, err := sweep(ns, func(_ int, n int) (point, error) {
		run := func(p config.Params) (float64, float64, error) {
			in := sim.DefaultInputs(n)
			in.SimTime = simTime
			in.Seed = seed
			in.Params = p
			e, err := sim.NewEngine(in)
			if err != nil {
				return 0, 0, err
			}
			r := e.Run()
			return r.CollisionProbability, r.NormalizedThroughput, nil
		}
		pw, tw, err := run(config.DefaultCA1())
		if err != nil {
			return point{}, err
		}
		pn, tn, err := run(noDC)
		if err != nil {
			return point{}, err
		}
		return point{pw, tw, pn, tn}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range ns {
		p := points[i]
		t.AddRow(fmt.Sprint(n), f(p.pw), f(p.pn), f(p.tw), f(p.tn))
	}
	return t, nil
}

// AblationBurstSize sweeps the MPDU burst size in the emulated testbed:
// the collision ratio is burst-size invariant while throughput grows,
// the property that lets MPDU counters estimate burst-level collision
// probability (Section 3.1).
func AblationBurstSize(n int, durationMicros float64, seed uint64) (*Table, error) {
	t := &Table{
		ID:     "ablation-burst",
		Title:  fmt.Sprintf("Burst-size ablation at N=%d: MPDU counters vs burst size", n),
		Note:   "ΣC/ΣA is invariant to the burst size k (both counters scale by k); payload per unit time grows with k.",
		Header: []string{"burst MPDUs", "ΣC/ΣA", "payload fraction"},
	}
	bursts := make([]int, hpav.MaxBurstMPDUs)
	for i := range bursts {
		bursts[i] = i + 1
	}
	type point struct{ p, payload float64 }
	points, err := sweep(bursts, func(_ int, k int) (point, error) {
		tb, err := testbed.New(testbed.Options{N: n, BurstMPDUs: k, Seed: seed})
		if err != nil {
			return point{}, err
		}
		p := tb.CollisionProbability(durationMicros)
		st := tb.Network.Stats()
		return point{p: p, payload: st.PayloadMicros / st.Elapsed}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, k := range bursts {
		t.AddRow(fmt.Sprint(k), f(points[i].p), f(points[i].payload))
	}
	return t, nil
}

// SimulatorAgreement cross-checks the two independent implementations —
// the slot-synchronous port of the paper's simulator and the
// event-driven MAC — on identical single-priority saturated scenarios.
func SimulatorAgreement(ns []int, simTime float64, seed uint64) (*Table, error) {
	t := &Table{
		ID:     "ablation-agreement",
		Title:  "Minimal simulator vs event-driven MAC: collision probability on identical scenarios",
		Note:   "Burst size 1, CA1 only, saturated. The implementations share the backoff engine but nothing else.",
		Header: []string{"N", "minimal sim", "event-driven MAC", "|Δ|"},
	}
	type point struct{ simP, macP float64 }
	points, err := sweep(ns, func(_ int, n int) (point, error) {
		in := sim.DefaultInputs(n)
		in.SimTime = simTime
		in.Seed = seed
		e, err := sim.NewEngine(in)
		if err != nil {
			return point{}, err
		}
		simP := e.Run().CollisionProbability

		tb, err := testbed.New(testbed.Options{N: n, BurstMPDUs: 1, Seed: seed})
		if err != nil {
			return point{}, err
		}
		return point{simP: simP, macP: tb.CollisionProbability(simTime)}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range ns {
		d := points[i].simP - points[i].macP
		if d < 0 {
			d = -d
		}
		t.AddRow(fmt.Sprint(n), f(points[i].simP), f(points[i].macP), f(d))
	}
	return t, nil
}
