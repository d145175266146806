package sim

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/timing"
)

// shortDCF returns the 802.11 baseline: the engine on the flattened DCF
// schedule, with the paper's timing and 20 s of simulated time.
func shortDCF(n int) Inputs {
	in := shortInputs(n)
	in.Params = config.Default80211().Params()
	return in
}

func TestDCFSingleStation(t *testing.T) {
	r := runWith(t, shortDCF(1), false, nil)
	if r.CollidedFrames != 0 {
		t.Errorf("N=1 DCF collided %d times", r.CollidedFrames)
	}
	if r.Successes == 0 {
		t.Error("N=1 DCF made no progress")
	}
}

func TestDCFDeterminism(t *testing.T) {
	a, b := runWith(t, shortDCF(3), false, nil), runWith(t, shortDCF(3), false, nil)
	if a.Successes != b.Successes || a.CollidedFrames != b.CollidedFrames {
		t.Error("DCF runs with equal seeds diverged")
	}
}

func TestDCFTimeAccounting(t *testing.T) {
	in := shortDCF(4)
	r := runWith(t, in, false, nil)
	want := float64(r.IdleSlots)*timing.SlotTime + float64(r.Successes)*in.Ts + float64(r.CollisionEvents)*in.Tc
	if math.Abs(want-r.Elapsed) > 1e-6*want {
		t.Errorf("elapsed %v ≠ accounted %v", r.Elapsed, want)
	}
}

// Test1901BeatsDCFAtFewStations: with N small, 1901's tiny CWmin wastes
// fewer idle slots than DCF's CWmin 16 → higher throughput. This is the
// backoff-inefficiency motivation of Section 2.
func Test1901BeatsDCFAtFewStations(t *testing.T) {
	r1901, rdcf := runWith(t, shortInputs(1), false, nil), runWith(t, shortDCF(1), false, nil)
	if r1901.NormalizedThroughput <= rdcf.NormalizedThroughput {
		t.Errorf("N=1: 1901 throughput %v not above DCF %v", r1901.NormalizedThroughput, rdcf.NormalizedThroughput)
	}
}

// TestDeferralBeatsDCFUnderContention: under contention, 1901's
// deferral counter raises CW preemptively (before collisions happen),
// so its collision probability stays below plain DCF's even though its
// CWmin is half of DCF's — the mechanism the paper's Section 2
// describes as counterbalancing the small CWmin.
func TestDeferralBeatsDCFUnderContention(t *testing.T) {
	r1901, rdcf := runWith(t, shortInputs(10), false, nil), runWith(t, shortDCF(10), false, nil)
	if r1901.CollisionProbability >= rdcf.CollisionProbability {
		t.Errorf("N=10: 1901 collision probability %v not below DCF's %v",
			r1901.CollisionProbability, rdcf.CollisionProbability)
	}
}

func TestDCFCollisionIncreasesWithN(t *testing.T) {
	prev := -1.0
	for _, n := range []int{1, 2, 5, 10} {
		r := runWith(t, shortDCF(n), false, nil)
		if r.CollisionProbability <= prev && n > 1 {
			t.Errorf("N=%d: DCF collision probability %v not increasing", n, r.CollisionProbability)
		}
		prev = r.CollisionProbability
	}
}

// TestDCFResultParamsCarrySentinelDC: the flattened schedule's deferral
// counters are out of reach within each stage's window, so no station
// of a contended 802.11 run ever takes the deferral branch.
func TestDCFResultParamsCarrySentinelDC(t *testing.T) {
	r := runWith(t, shortDCF(5), false, nil)
	p := r.Inputs.Params
	for i := range p.CW {
		if p.DC[i] < p.CW[i]-1 {
			t.Errorf("stage %d: sentinel DC %d reachable within CW %d", i, p.DC[i], p.CW[i])
		}
	}
	for i, s := range r.PerStation {
		if s.Deferrals != 0 {
			t.Errorf("station %d: %d deferral redraws under 802.11", i, s.Deferrals)
		}
	}
}
