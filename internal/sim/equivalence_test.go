package sim

import (
	"reflect"
	"testing"

	"repro/internal/backoff"
	"repro/internal/config"
	"repro/internal/rng"
)

// noopObserver forces the engine onto its slot-by-slot path without
// recording anything: installing any observer disables the idle
// fast-forward, so a run with noopObserver reproduces the seed
// repository's original slot-at-a-time medium loop exactly.
type noopObserver struct{}

func (noopObserver) OnSlot(float64, SlotKind, []int, []backoff.Snapshot) {}

// runBoth executes the same inputs through the batched (no observer)
// and slot-by-slot (observer installed) engines and returns both
// results.
func runBoth(t *testing.T, in Inputs) (batched, slotwise Result) {
	t.Helper()
	fast, err := NewEngine(in)
	if err != nil {
		t.Fatalf("NewEngine(batched): %v", err)
	}
	slow, err := NewEngine(in)
	if err != nil {
		t.Fatalf("NewEngine(slotwise): %v", err)
	}
	slow.SetObserver(noopObserver{})
	return fast.Run(), slow.Run()
}

// TestFastForwardBitIdentical is the equivalence property of the idle
// fast-forward: for every seed, station count, priority class and
// heterogeneous configuration tried, the batched engine's Result —
// including the floating-point Elapsed trajectory and every per-station
// counter — must equal the slot-by-slot engine's bit for bit. Idle slots
// consume no randomness, so batching them cannot change a draw.
func TestFastForwardBitIdentical(t *testing.T) {
	var configs []config.Params
	for _, pri := range []config.Priority{config.CA0, config.CA1, config.CA2, config.CA3} {
		configs = append(configs, config.Default1901(pri))
	}
	assertFastForwardBitIdentical(t, configs)
}

// TestDCFFastForwardBitIdentical is the same property for the 802.11
// baseline, run on the engine through its flattened DCF schedule: the
// default CWmin 16 / CWmax 1024 and a short 3/10 schedule.
func TestDCFFastForwardBitIdentical(t *testing.T) {
	var configs []config.Params
	for _, dcf := range []config.DCF{config.Default80211(), {Name: "dcf3-10", CWmin: 3, CWmax: 10}} {
		configs = append(configs, dcf.Params())
	}
	assertFastForwardBitIdentical(t, configs)
}

// assertFastForwardBitIdentical runs every configuration for N = 1..10
// and five seeds through both engine paths and fails on any difference.
func assertFastForwardBitIdentical(t *testing.T, configs []config.Params) {
	t.Helper()
	for n := 1; n <= 10; n++ {
		for _, params := range configs {
			for seed := uint64(1); seed <= 5; seed++ {
				in := DefaultInputs(n)
				in.SimTime = 3e6
				in.Seed = seed
				in.Params = params
				fast, slow := runBoth(t, in)
				if !reflect.DeepEqual(fast, slow) {
					t.Fatalf("N=%d %s seed=%d: batched %+v ≠ slot-by-slot %+v",
						n, params.Name, seed, fast, slow)
				}
			}
		}
	}
}

// TestFastForwardBitIdenticalHeterogeneous covers PerStation configs:
// mixed aggressive/polite windows and deferral-disabled stations, where
// idle runs are longest and the batch bound must still be exact.
func TestFastForwardBitIdenticalHeterogeneous(t *testing.T) {
	inf := 1 << 20
	aggressive := config.Params{Name: "aggr", CW: []int{4, 8, 16, 32}, DC: []int{0, 1, 3, 15}}
	polite := config.Params{Name: "polite", CW: []int{64, 128, 128, 128}, DC: []int{inf, inf, inf, inf}}
	for n := 2; n <= 10; n++ {
		for seed := uint64(1); seed <= 5; seed++ {
			in := DefaultInputs(n)
			in.SimTime = 3e6
			in.Seed = seed
			in.PerStation = make([]config.Params, n)
			for i := range in.PerStation {
				if i%2 == 0 {
					in.PerStation[i] = aggressive
				} else {
					in.PerStation[i] = polite
				}
			}
			fast, slow := runBoth(t, in)
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("N=%d seed=%d heterogeneous: batched ≠ slot-by-slot\nbatched:  %+v\nslotwise: %+v",
					n, seed, fast, slow)
			}
		}
	}
	// The wide station counts: mixed ladders, channel errors on every
	// third station, with and without control variates.
	for _, n := range wideNs {
		for seed := uint64(1); seed <= 3; seed++ {
			in := DefaultInputs(n)
			in.SimTime = 2e6
			in.Seed = seed
			in.PerStation = mixedStations(n)
			in.ErrorProb = make([]float64, n)
			for i := 0; i < n; i += 3 {
				in.ErrorProb[i] = 0.1
			}
			assertLazyMatchesObserved(t, in, seed == 2)
		}
	}
}

// TestLazyLoopRandomized compares the lazy loop with the observer loop
// on randomized inputs: N 1–40, per-station ladders of 1–5 stages with
// windows 1–64 and deferral counters 0–20 (or never expiring), random
// error probabilities, random horizons, and controls on a third of the
// cases.
func TestLazyLoopRandomized(t *testing.T) {
	cases := 600
	if testing.Short() {
		cases = 150
	}
	src := rng.New(2024)
	for c := 0; c < cases; c++ {
		n := 1 + src.Intn(40)
		in := DefaultInputs(n)
		in.SimTime = 1e4 + float64(src.Intn(1e6))
		in.Seed = uint64(c + 1)
		in.PerStation = make([]config.Params, n)
		for i := range in.PerStation {
			m := 1 + src.Intn(5)
			p := config.Params{Name: "rand", CW: make([]int, m), DC: make([]int, m)}
			for k := 0; k < m; k++ {
				p.CW[k] = 1 + src.Intn(64)
				p.DC[k] = src.Intn(21)
				if src.Intn(8) == 0 {
					p.DC[k] = 1 << 40
				}
			}
			in.PerStation[i] = p
		}
		if src.Intn(2) == 0 {
			in.ErrorProb = make([]float64, n)
			for i := range in.ErrorProb {
				in.ErrorProb[i] = float64(src.Intn(5)) / 8
			}
		}
		assertLazyMatchesObserved(t, in, c%3 == 0)
	}
}

// wideNs are the station counts that straddle 32- and 64-bit word
// boundaries; equivalence tests run the lazy loop there too.
var wideNs = []int{20, 33, 64, 65}

// mixedStations returns n per-station configurations cycling through
// the 1901 classes, the 802.11 baseline, a 2-stage ladder and
// deferral-disabled polite stations.
func mixedStations(n int) []config.Params {
	ladders := []config.Params{
		config.Default1901(config.CA1),
		config.Default1901(config.CA3),
		config.Default80211().Params(),
		{Name: "two-stage", CW: []int{4, 12}, DC: []int{1, 2}},
		{Name: "polite", CW: []int{64, 128, 128, 128}, DC: []int{1 << 20, 1 << 20, 1 << 20, 1 << 20}},
	}
	ps := make([]config.Params, n)
	for i := range ps {
		ps[i] = ladders[i%len(ladders)]
	}
	return ps
}

// assertLazyMatchesObserved runs in through the lazy loop and the
// slot-by-slot observer loop, with or without controls, and fails on
// any difference in the Result or in the stations' final state.
func assertLazyMatchesObserved(t *testing.T, in Inputs, controls bool) {
	t.Helper()
	lazy, err := NewEngine(in)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewEngine(in)
	if err != nil {
		t.Fatal(err)
	}
	if controls {
		lazy.EnableControls()
		slow.EnableControls()
	}
	slow.SetObserver(noopObserver{})
	rl, rs := lazy.Run(), slow.Run()
	if !reflect.DeepEqual(rl, rs) {
		t.Fatalf("N=%d seed=%d controls=%v: lazy ≠ slot-by-slot\nlazy:     %+v\nslotwise: %+v",
			in.N, in.Seed, controls, rl, rs)
	}
	for i := 0; i < in.N; i++ {
		fs, ss := lazy.Station(i), slow.Station(i)
		if fs.Snapshot() != ss.Snapshot() || fs.Redraws() != ss.Redraws() || fs.Deferrals() != ss.Deferrals() {
			t.Fatalf("N=%d seed=%d station %d: lazy state %+v (%d redraws, %d deferrals) ≠ slot-by-slot %+v (%d, %d)",
				in.N, in.Seed, i, fs.Snapshot(), fs.Redraws(), fs.Deferrals(), ss.Snapshot(), ss.Redraws(), ss.Deferrals())
		}
	}
}

// TestFastForwardStationStateMatches goes beyond the Result: the
// internal backoff state left behind (BC, DC, BPC, stage) must also be
// identical, so that any future extension reading engine state after a
// run cannot observe the fast-forward.
func TestFastForwardStationStateMatches(t *testing.T) {
	in := DefaultInputs(4)
	in.SimTime = 2e6
	in.Seed = 7
	fast, err := NewEngine(in)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewEngine(in)
	if err != nil {
		t.Fatal(err)
	}
	slow.SetObserver(noopObserver{})
	fast.Run()
	slow.Run()
	for i := 0; i < in.N; i++ {
		if fs, ss := fast.Station(i).Snapshot(), slow.Station(i).Snapshot(); fs != ss {
			t.Errorf("station %d: batched state %+v ≠ slot-by-slot %+v", i, fs, ss)
		}
	}
}

// TestMediumLoopAllocationFree pins the zero-allocation property of the
// engine's medium loop: a 100× longer simulation must allocate exactly
// as much as a short one (engine construction and the Result only) —
// i.e. the loop itself allocates nothing.
func TestMediumLoopAllocationFree(t *testing.T) {
	allocs := func(simTime float64) float64 {
		in := DefaultInputs(3)
		in.SimTime = simTime
		return testing.AllocsPerRun(3, func() {
			e, err := NewEngine(in)
			if err != nil {
				t.Fatal(err)
			}
			e.Run()
		})
	}
	short, long := allocs(2e5), allocs(2e7)
	if long > short {
		t.Errorf("run 100× longer allocated more (%v vs %v): medium loop is not allocation-free", long, short)
	}
}
