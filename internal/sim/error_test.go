package sim

import (
	"reflect"
	"testing"

	"repro/internal/backoff"
)

// errInputs builds a 3-station scenario with per-station channel error
// probabilities.
func errInputs(seed uint64, probs []float64) Inputs {
	in := DefaultInputs(len(probs))
	in.SimTime = 3e6
	in.Seed = seed
	in.ErrorProb = probs
	return in
}

// TestChannelErrorAccounting checks the errored-frame bookkeeping: the
// counters balance, errors appear only at stations with positive
// probability, and the acked counter includes errored frames (the
// Section 3.2 acknowledgment semantics).
func TestChannelErrorAccounting(t *testing.T) {
	e, err := NewEngine(errInputs(1, []float64{0.3, 0, 0.1}))
	if err != nil {
		t.Fatal(err)
	}
	r := e.Run()
	if r.FrameErrors == 0 {
		t.Fatal("no frame errors recorded at p=0.3")
	}
	var sum int64
	for i, s := range r.PerStation {
		sum += s.Errored
		if i == 1 && s.Errored != 0 {
			t.Fatalf("station 1 has p=0 but %d errored frames", s.Errored)
		}
		if got, want := s.Acked(), s.Successes+s.Collided+s.Errored; got != want {
			t.Fatalf("station %d Acked()=%d, want %d", i, got, want)
		}
		if got, want := s.Attempts, s.Successes+s.Collided+s.Errored; got != want {
			t.Fatalf("station %d Attempts=%d, want %d", i, got, want)
		}
	}
	if sum != r.FrameErrors {
		t.Fatalf("per-station errored sum %d != FrameErrors %d", sum, r.FrameErrors)
	}
	wantP := float64(r.CollidedFrames) / float64(r.CollidedFrames+r.Successes+r.FrameErrors)
	if r.CollisionProbability != wantP {
		t.Fatalf("collision probability %v, want %v (errored frames in the denominator)", r.CollisionProbability, wantP)
	}
}

// TestChannelErrorObserverEquivalence extends the fast-forward
// equivalence property to errored channels: with an observer installed
// the engine steps slot by slot, without one it batches idle runs —
// and the results must stay bit-identical, error draws included. The
// observer must also see every errored slot as FrameError, never
// Success (traces of noisy runs classify correctly).
func TestChannelErrorObserverEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		probs := []float64{0.25, 0, 0.5, 0.05}
		fast, err := NewEngine(errInputs(seed, probs))
		if err != nil {
			t.Fatal(err)
		}
		rFast := fast.Run()

		slow, err := NewEngine(errInputs(seed, probs))
		if err != nil {
			t.Fatal(err)
		}
		counts := map[SlotKind]int64{}
		slow.SetObserver(obsFunc(func(_ float64, kind SlotKind, txs []int, _ []backoff.Snapshot) {
			counts[kind]++
			if kind == FrameError && len(txs) != 1 {
				t.Fatalf("FrameError slot with %d transmitters", len(txs))
			}
		}))
		rSlow := slow.Run()

		if !reflect.DeepEqual(rFast, rSlow) {
			t.Fatalf("seed %d: fast-forward and slot-by-slot runs differ with channel errors:\n%+v\n%+v", seed, rFast, rSlow)
		}
		if counts[FrameError] != rSlow.FrameErrors {
			t.Fatalf("seed %d: observer saw %d FrameError slots, result says %d", seed, counts[FrameError], rSlow.FrameErrors)
		}
		if counts[Success] != rSlow.Successes {
			t.Fatalf("seed %d: observer saw %d Success slots, result says %d", seed, counts[Success], rSlow.Successes)
		}
	}
	// The wide station counts, homogeneous and mixed, every station
	// error-prone, with and without control variates.
	for _, n := range wideNs {
		for seed := uint64(1); seed <= 2; seed++ {
			probs := make([]float64, n)
			for i := range probs {
				probs[i] = float64(i%4) * 0.1
			}
			in := errInputs(seed, probs)
			if seed == 2 {
				in.PerStation = mixedStations(n)
			}
			assertLazyMatchesObserved(t, in, n%2 == 1)
		}
	}
}

// TestChannelErrorBackoffDrawsUnperturbed checks the dedicated-stream
// design: an errored run and its error-free twin share every backoff
// draw up to the first errored frame, so the idle-slot trajectory of a
// single station (which never collides and, with p=0, never errs) is
// identical until the first divergence — and with p=0 everywhere, the
// run equals a plain error-free run exactly.
func TestChannelErrorBackoffDrawsUnperturbed(t *testing.T) {
	in := DefaultInputs(3)
	in.SimTime = 3e6
	e1, err := NewEngine(in)
	if err != nil {
		t.Fatal(err)
	}
	r1 := e1.Run()

	withZero := errInputs(1, []float64{0, 0, 0})
	e2, err := NewEngine(withZero)
	if err != nil {
		t.Fatal(err)
	}
	r2 := e2.Run()
	// Normalize the Inputs field (ErrorProb differs by construction).
	r2.Inputs.ErrorProb = nil
	r1.Inputs.Params = r2.Inputs.Params
	r1.Inputs.PerStation = r2.Inputs.PerStation
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("all-zero ErrorProb perturbed the run:\n%+v\n%+v", r1, r2)
	}
}

// TestErrorProbValidation covers the new Inputs checks.
func TestErrorProbValidation(t *testing.T) {
	in := DefaultInputs(2)
	in.ErrorProb = []float64{0.5}
	if err := in.Validate(); err == nil {
		t.Fatal("length mismatch accepted")
	}
	in.ErrorProb = []float64{0.5, 1.5}
	if err := in.Validate(); err == nil {
		t.Fatal("probability 1.5 accepted")
	}
	in.ErrorProb = []float64{0.5, 1}
	if err := in.Validate(); err != nil {
		t.Fatalf("valid probabilities rejected: %v", err)
	}
}

// obsFunc adapts a function to the Observer interface.
type obsFunc func(t float64, kind SlotKind, txs []int, snaps []backoff.Snapshot)

func (f obsFunc) OnSlot(t float64, kind SlotKind, txs []int, snaps []backoff.Snapshot) {
	f(t, kind, txs, snaps)
}
