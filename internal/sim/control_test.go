package sim

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/stats"
	"repro/internal/stats/statcheck"
)

func runWith(t *testing.T, in Inputs, controls bool, obs Observer) Result {
	t.Helper()
	e, err := NewEngine(in)
	if err != nil {
		t.Fatal(err)
	}
	if controls {
		e.EnableControls()
	}
	if obs != nil {
		e.SetObserver(obs)
	}
	return e.Run()
}

func controlTestInputs(n int, simTime float64, errProb float64, seed uint64) Inputs {
	in := DefaultInputs(n)
	in.SimTime = simTime
	in.Seed = seed
	if errProb > 0 {
		in.ErrorProb = make([]float64, n)
		for i := range in.ErrorProb {
			in.ErrorProb[i] = errProb
		}
	}
	return in
}

// Enabling controls must not change anything else about the run: the
// predictor consumes no randomness, so every counter and output stays
// bit-identical. This is the common-random-numbers guarantee the whole
// control-variate estimator rests on.
func TestControlsDoNotPerturbResult(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		errProb float64
	}{
		{"n2", 2, 0},
		{"n5", 5, 0},
		{"n3-err", 3, 0.2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := controlTestInputs(tc.n, 3e5, tc.errProb, 42)
			plain := runWith(t, in, false, nil)
			cv := runWith(t, in, true, nil)
			if cv.Controls == nil {
				t.Fatal("controls enabled but Result.Controls is nil")
			}
			cv.Controls = nil
			if !reflect.DeepEqual(plain, cv) {
				t.Errorf("enabling controls changed the result:\nplain %+v\ncv    %+v", plain, cv)
			}
		})
	}
}

// Observer mode steps idle slots one by one instead of fast-forwarding;
// the controls must come out bit-identical either way.
func TestControlsObserverEquivalence(t *testing.T) {
	in := controlTestInputs(3, 2e5, 0, 7)
	fast := runWith(t, in, true, nil)
	slow := runWith(t, in, true, noopObserver{})
	if !reflect.DeepEqual(fast.Controls, slow.Controls) {
		t.Errorf("controls diverge between fast-forward and observer mode:\n%v\n%v", fast.Controls, slow.Controls)
	}
}

// The defining property: every control channel has exactly zero
// expectation, so over many independent seeds its sample mean must sit
// within a few standard errors of zero. A sign error in the
// conditional-expectation bookkeeping, a horizon-truncation mismatch,
// or a wrong window in the backoff-state mapping all show up here as a
// many-sigma bias.
func TestControlMeansZero(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		simTime float64
		errProb float64
		reps    int
	}{
		{"n2", 2, 2e5, 0, 300},
		{"n5", 5, 2e5, 0, 300},
		{"n3-err", 3, 2e5, 0.3, 300},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			samples := make([][]float64, NumControls)
			for r := 0; r < tc.reps; r++ {
				in := controlTestInputs(tc.n, tc.simTime, tc.errProb, statcheck.Seed(0x1901, r))
				res := runWith(t, in, true, nil)
				for j, c := range res.Controls {
					samples[j] = append(samples[j], c)
				}
			}
			for j, xs := range samples {
				a := stats.Summarize(xs)
				if a.StdDev == 0 {
					// Degenerate channel (frame errors on an error-free
					// spec): every control must be exactly zero.
					if a.Mean != 0 {
						t.Errorf("control %q constant but nonzero: %v", ControlNames[j], a.Mean)
					}
					continue
				}
				se := a.StdDev / math.Sqrt(float64(a.N))
				statcheck.AssertUnbiased(t, "control "+ControlNames[j], a.Mean, se, 0, 4.5)
			}
		})
	}
}

// Heterogeneous per-station configs exercise the per-station window
// lookup in the predictor.
func TestControlMeansZeroHeterogeneous(t *testing.T) {
	base := DefaultInputs(3)
	per := []config.Params{config.DefaultCA1(), config.DefaultCA1(), config.Default1901(config.CA3)}
	samples := make([][]float64, NumControls)
	const reps = 300
	for r := 0; r < reps; r++ {
		in := base
		in.SimTime = 2e5
		in.PerStation = per
		in.Seed = statcheck.Seed(0x4e7, r)
		res := runWith(t, in, true, nil)
		for j, c := range res.Controls {
			samples[j] = append(samples[j], c)
		}
	}
	for j, xs := range samples {
		a := stats.Summarize(xs)
		if a.StdDev == 0 {
			continue
		}
		se := a.StdDev / math.Sqrt(float64(a.N))
		statcheck.AssertUnbiased(t, "control "+ControlNames[j], a.Mean, se, 0, 4.5)
	}
}

// The controls must genuinely track the counters — that correlation is
// the entire variance-reduction mechanism. This is a loose structural
// check (the precise ≥3× acceptance bound lives in internal/campaign);
// it guards against a refactor that leaves the controls mean-zero but
// decorrelated, e.g. by predicting from stale state.
func TestControlsCorrelateWithCounters(t *testing.T) {
	const reps = 200
	ys := make([]float64, 0, reps)
	cs := make([][]float64, 0, reps)
	for r := 0; r < reps; r++ {
		in := controlTestInputs(3, 2e5, 0, statcheck.Seed(0xc0de, r))
		res := runWith(t, in, true, nil)
		ys = append(ys, float64(res.Successes))
		cs = append(cs, []float64{res.Controls[CtrlSuccesses]})
	}
	est := stats.SummarizeCV(ys, cs, stats.CVOpts{})
	if !est.Applied {
		t.Fatalf("successes control not applied: %+v", est)
	}
	if est.R2 < 0.5 {
		t.Errorf("successes control R² = %v; the control has decorrelated from the counter", est.R2)
	}
}
