package backoff

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/rng"
)

// newTestDCF returns the 802.11 baseline station: the 1901 machine on
// the flattened DCF schedule, whose deferral counters never expire.
func newTestDCF(seed uint64) *Station {
	return NewStation(config.Default80211().Params(), rng.New(seed))
}

func TestDCFRejectsNilRNG(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewStation accepted nil rng")
		}
	}()
	NewStation(config.Default80211().Params(), nil)
}

func TestDCFStartStageZero(t *testing.T) {
	s := newTestDCF(1)
	s.Start()
	if s.Stage() != 0 || s.CW() != 16 {
		t.Errorf("after Start: stage=%d CW=%d, want 0/16", s.Stage(), s.CW())
	}
	if bc := s.BC(); bc < 0 || bc > 15 {
		t.Errorf("BC = %d outside {0,…,15}", bc)
	}
}

func TestDCFStartTwicePanics(t *testing.T) {
	s := newTestDCF(1)
	s.Start()
	defer func() {
		if recover() == nil {
			t.Error("second Start did not panic")
		}
	}()
	s.Start()
}

func TestDCFCollisionDoublesWindow(t *testing.T) {
	s := newTestDCF(1)
	s.Start()
	wants := []int{32, 64, 128, 256, 512, 1024, 1024, 1024}
	for i, want := range wants {
		driveToTransmit(s)
		s.AfterBusy(true, false)
		if s.CW() != want {
			t.Fatalf("after collision %d: CW=%d, want %d", i+1, s.CW(), want)
		}
	}
}

func TestDCFSuccessResetsWindow(t *testing.T) {
	s := newTestDCF(1)
	s.Start()
	for i := 0; i < 3; i++ {
		driveToTransmit(s)
		s.AfterBusy(true, false)
	}
	driveToTransmit(s)
	s.AfterBusy(true, true)
	if s.Stage() != 0 || s.CW() != 16 {
		t.Errorf("after success: stage=%d CW=%d, want 0/16", s.Stage(), s.CW())
	}
}

// TestDCFNoDeferralMechanism is the property that lets 802.11 run on the
// 1901 machine: for any DCF schedule and any event sequence, a station
// on DCF.Params() never takes the deferral branch, and after k
// consecutive collisions its window is DCF.Window(k).
func TestDCFNoDeferralMechanism(t *testing.T) {
	f := func(seed uint64, cwmin uint8, span uint16, events []byte) bool {
		cfg := config.DCF{CWmin: 1 + int(cwmin%64)}
		cfg.CWmax = cfg.CWmin + int(span%1024)
		s := NewStation(cfg.Params(), rng.New(seed))
		a := s.Start()
		collisions := 0
		for _, e := range events {
			switch {
			case a == Transmit && e%2 == 0:
				a = s.AfterBusy(true, true)
				collisions = 0
			case a == Transmit:
				a = s.AfterBusy(true, false)
				collisions++
			case e%3 == 0:
				a = s.AfterBusy(false, e%2 == 0)
			default:
				a = s.AfterIdle()
			}
			if s.Deferrals() != 0 || s.CW() != cfg.Window(collisions) || s.BC() >= s.CW() {
				t.Logf("%+v after %d collisions: deferrals=%d CW=%d BC=%d, want CW %d",
					cfg, collisions, s.Deferrals(), s.CW(), s.BC(), cfg.Window(collisions))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestDCFSlottedBusyConvention: an overheard busy period costs the
// 802.11 station exactly one backoff slot, like an idle slot.
func TestDCFSlottedBusyConvention(t *testing.T) {
	for seed := uint64(1); seed < 100; seed++ {
		s := newTestDCF(seed)
		if s.Start() == Transmit || s.BC() < 2 {
			continue
		}
		bc := s.BC()
		s.AfterBusy(false, true)
		if s.BC() != bc-1 {
			t.Fatalf("slotted convention: BC %d → %d, want %d", bc, s.BC(), bc-1)
		}
		return
	}
	t.Fatal("no suitable seed")
}

func TestDCFAfterIdlePanics(t *testing.T) {
	s := newTestDCF(1)
	defer func() {
		if recover() == nil {
			t.Error("AfterIdle before Start did not panic")
		}
	}()
	s.AfterIdle()
}

func TestDCFReset(t *testing.T) {
	s := newTestDCF(1)
	s.Start()
	driveToTransmit(s)
	s.AfterBusy(true, false)
	s.Reset()
	if s.Stage() != 0 || s.Redraws() != 0 {
		t.Errorf("Reset left stage=%d redraws=%d", s.Stage(), s.Redraws())
	}
	s.Start()
	if s.CW() != 16 {
		t.Errorf("CW after Reset+Start = %d", s.CW())
	}
}

// Property: DCF counters stay within bounds over arbitrary event
// sequences.
func TestDCFCounterBoundsProperty(t *testing.T) {
	f := func(seed uint64, events []bool) bool {
		s := newTestDCF(seed)
		a := s.Start()
		for _, busy := range events {
			if a == Transmit {
				a = s.AfterBusy(true, busy)
			} else if busy {
				a = s.AfterBusy(false, false)
			} else {
				a = s.AfterIdle()
			}
			if s.BC() < 0 || s.BC() >= s.CW() {
				return false
			}
			if s.CW() > 1024 || s.CW() < 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
