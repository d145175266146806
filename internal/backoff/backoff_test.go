package backoff

import (
	"testing"
	"testing/quick"

	"repro/internal/config"
	"repro/internal/rng"
)

func newTestStation(seed uint64) *Station {
	return NewStation(config.DefaultCA1(), rng.New(seed))
}

func TestNewStationRejectsInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewStation accepted invalid params")
		}
	}()
	NewStation(config.Params{}, rng.New(1))
}

func TestNewStationRejectsNilRNG(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewStation accepted nil rng")
		}
	}()
	NewStation(config.DefaultCA1(), nil)
}

func TestStartDrawsStageZero(t *testing.T) {
	s := newTestStation(1)
	s.Start()
	if s.CW() != 8 {
		t.Errorf("CW after Start = %d, want 8 (stage 0)", s.CW())
	}
	if s.DC() != 0 {
		t.Errorf("DC after Start = %d, want 0 (d_0 for CA1)", s.DC())
	}
	if bc := s.BC(); bc < 0 || bc > 7 {
		t.Errorf("BC after Start = %d, want in {0,…,7}", bc)
	}
	if s.BPC() != 1 {
		t.Errorf("BPC after Start = %d, want 1 (one redraw)", s.BPC())
	}
	if s.Stage() != 0 {
		t.Errorf("Stage after Start = %d, want 0", s.Stage())
	}
}

func TestStartTwicePanics(t *testing.T) {
	s := newTestStation(1)
	s.Start()
	defer func() {
		if recover() == nil {
			t.Error("second Start did not panic")
		}
	}()
	s.Start()
}

func TestIdleCountdownReachesTransmit(t *testing.T) {
	// Find a seed whose first draw is > 0, then count down.
	for seed := uint64(1); seed < 50; seed++ {
		s := newTestStation(seed)
		if s.Start() == Transmit {
			continue
		}
		b := s.BC()
		for i := 0; i < b-1; i++ {
			if a := s.AfterIdle(); a != Defer {
				t.Fatalf("seed %d: transmit after %d of %d idle slots", seed, i+1, b)
			}
		}
		if a := s.AfterIdle(); a != Transmit {
			t.Fatalf("seed %d: no transmit after %d idle slots", seed, b)
		}
		if s.DC() != 0 {
			t.Errorf("idle slots moved DC to %d; deferral counter must ignore idle slots", s.DC())
		}
		return
	}
	t.Fatal("no seed with BC > 0 found")
}

func TestAfterIdleOnExpiredPanics(t *testing.T) {
	for seed := uint64(1); seed < 50; seed++ {
		s := newTestStation(seed)
		if s.Start() != Transmit {
			continue
		}
		defer func() {
			if recover() == nil {
				t.Error("AfterIdle on expired backoff did not panic")
			}
		}()
		s.AfterIdle()
		return
	}
	t.Fatal("no seed with BC == 0 found")
}

func TestAfterIdleBeforeStartPanics(t *testing.T) {
	s := newTestStation(1)
	defer func() {
		if recover() == nil {
			t.Error("AfterIdle before Start did not panic")
		}
	}()
	s.AfterIdle()
}

// TestSuccessResetsToStageZero verifies the success path of Figure 1:
// the winner restarts at backoff stage 0.
func TestSuccessResetsToStageZero(t *testing.T) {
	s := newTestStation(1)
	s.Start()
	driveToTransmit(s)
	s.AfterBusy(true, true)
	if s.Stage() != 0 || s.CW() != 8 || s.BPC() != 1 {
		t.Errorf("after success: stage=%d CW=%d BPC=%d, want 0/8/1", s.Stage(), s.CW(), s.BPC())
	}
}

// TestCollisionAdvancesStage verifies the collision path: next stage,
// larger window, Table 1 deferral value.
func TestCollisionAdvancesStage(t *testing.T) {
	s := newTestStation(1)
	s.Start()
	driveToTransmit(s)
	s.AfterBusy(true, false)
	if s.Stage() != 1 || s.CW() != 16 || s.DC() != 1 {
		t.Errorf("after collision: stage=%d CW=%d DC=%d, want 1/16/1", s.Stage(), s.CW(), s.DC())
	}
	// A second collision moves to stage 2.
	driveToTransmit(s)
	s.AfterBusy(true, false)
	if s.Stage() != 2 || s.CW() != 32 || s.DC() != 3 {
		t.Errorf("after 2nd collision: stage=%d CW=%d DC=%d, want 2/32/3", s.Stage(), s.CW(), s.DC())
	}
}

// TestStageSaturatesAtLast verifies that collisions beyond the last
// stage re-enter the last stage (Table 1: BPC ≥ 3 → stage 3).
func TestStageSaturatesAtLast(t *testing.T) {
	s := newTestStation(1)
	s.Start()
	for k := 0; k < 10; k++ {
		driveToTransmit(s)
		s.AfterBusy(true, false)
	}
	if s.Stage() != 3 || s.CW() != 64 {
		t.Errorf("after 10 collisions: stage=%d CW=%d, want 3/64", s.Stage(), s.CW())
	}
}

// TestDeferralJump exercises the 1901-specific mechanism: with d_0 = 0,
// the very first overheard busy period at stage 0 must move the station
// to stage 1 without a transmission attempt.
func TestDeferralJump(t *testing.T) {
	for seed := uint64(1); seed < 100; seed++ {
		s := newTestStation(seed)
		if s.Start() == Transmit {
			continue // need BC > 0 so the station is listening
		}
		s.AfterBusy(false, true) // overhear a success with DC = 0
		if s.Stage() != 1 || s.CW() != 16 || s.DC() != 1 {
			t.Fatalf("seed %d: overheard busy at stage 0 (d0=0): stage=%d CW=%d DC=%d, want 1/16/1",
				seed, s.Stage(), s.CW(), s.DC())
		}
		if s.Deferrals() != 1 {
			t.Fatalf("Deferrals() = %d, want 1", s.Deferrals())
		}
		return
	}
	t.Fatal("no suitable seed found")
}

// TestDeferralCountdown verifies that at stage 1 (d1 = 1) the first busy
// period decrements DC and BC, and the second triggers the jump.
func TestDeferralCountdown(t *testing.T) {
	for seed := uint64(1); seed < 200; seed++ {
		s := newTestStation(seed)
		if s.Start() == Transmit {
			continue
		}
		s.AfterBusy(false, true) // jump to stage 1 (d0 = 0)
		if s.BC() < 2 {
			continue // need room for two busy periods without expiry
		}
		bc := s.BC()
		s.AfterBusy(false, false) // first busy: decrement both
		if s.Stage() != 1 || s.BC() != bc-1 || s.DC() != 0 {
			t.Fatalf("seed %d: first busy at stage 1: stage=%d BC=%d DC=%d, want 1/%d/0",
				seed, s.Stage(), s.BC(), s.DC(), bc-1)
		}
		s.AfterBusy(false, true) // second busy with DC = 0: jump
		if s.Stage() != 2 || s.CW() != 32 || s.DC() != 3 {
			t.Fatalf("seed %d: second busy: stage=%d CW=%d DC=%d, want 2/32/3",
				seed, s.Stage(), s.CW(), s.DC())
		}
		return
	}
	t.Fatal("no suitable seed found")
}

// TestOverheardSuccessDoesNotResetStage: only the transmitting winner
// returns to stage 0; bystanders keep their stage (or advance via DC).
func TestOverheardSuccessKeepsStage(t *testing.T) {
	for seed := uint64(1); seed < 200; seed++ {
		s := newTestStation(seed)
		if s.Start() == Transmit {
			continue
		}
		s.AfterBusy(false, true) // → stage 1
		if s.BC() < 2 {
			continue
		}
		s.AfterBusy(false, true) // overheard success, DC 1→0, stays stage 1
		if s.Stage() != 1 {
			t.Fatalf("seed %d: overheard success reset stage to %d", seed, s.Stage())
		}
		return
	}
	t.Fatal("no suitable seed found")
}

func TestAfterBusyTransmittedWithPendingBackoffPanics(t *testing.T) {
	for seed := uint64(1); seed < 100; seed++ {
		s := newTestStation(seed)
		if s.Start() == Transmit {
			continue
		}
		defer func() {
			if recover() == nil {
				t.Error("AfterBusy(transmitted) with BC > 0 did not panic")
			}
		}()
		s.AfterBusy(true, true)
		return
	}
	t.Fatal("no suitable seed found")
}

func TestResetRestoresFreshState(t *testing.T) {
	s := newTestStation(1)
	s.Start()
	driveToTransmit(s)
	s.AfterBusy(true, false)
	s.Reset()
	if s.BPC() != 0 || s.Redraws() != 0 || s.Deferrals() != 0 {
		t.Errorf("Reset left BPC=%d redraws=%d deferrals=%d", s.BPC(), s.Redraws(), s.Deferrals())
	}
	// Start must work again after Reset.
	s.Start()
	if s.Stage() != 0 {
		t.Errorf("stage after Reset+Start = %d", s.Stage())
	}
}

func TestSnapshotMatchesAccessors(t *testing.T) {
	s := newTestStation(42)
	s.Start()
	snap := s.Snapshot()
	if snap.BC != s.BC() || snap.DC != s.DC() || snap.CW != s.CW() ||
		snap.BPC != s.BPC() || snap.Stage != s.Stage() {
		t.Errorf("Snapshot %+v disagrees with accessors", snap)
	}
}

func TestParamsAccessor(t *testing.T) {
	p := config.DefaultCA1()
	s := NewStation(p, rng.New(1))
	if !s.Params().Equal(p) {
		t.Error("Params() does not round-trip")
	}
}

// driveToTransmit advances a station through idle slots until its
// backoff expires. With CA1 windows this takes at most 63 slots.
func driveToTransmit(s *Station) {
	for s.BC() > 0 {
		s.AfterIdle()
	}
}

// Property: the backoff counter never goes negative and never exceeds
// the current window, across arbitrary busy/idle event sequences.
func TestCounterBoundsProperty(t *testing.T) {
	f := func(seed uint64, events []bool) bool {
		s := NewStation(config.DefaultCA1(), rng.New(seed))
		a := s.Start()
		for _, busy := range events {
			if a == Transmit {
				// Model a transmission outcome: treat "busy" as success.
				a = s.AfterBusy(true, busy)
			} else if busy {
				a = s.AfterBusy(false, false)
			} else {
				a = s.AfterIdle()
			}
			if s.BC() < 0 || s.BC() >= s.CW() {
				return false
			}
			if s.DC() < 0 {
				return false
			}
			if st := s.Stage(); st < 0 || st > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a station that only ever wins returns to stage 0 forever.
func TestAlwaysWinningStaysAtStageZeroProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s := NewStation(config.DefaultCA1(), rng.New(seed))
		s.Start()
		for k := 0; k < 200; k++ {
			driveToTransmit(s)
			s.AfterBusy(true, true)
			if s.Stage() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: intent is Transmit exactly when BC == 0.
func TestIntentConsistencyProperty(t *testing.T) {
	f := func(seed uint64, events []bool) bool {
		s := NewStation(config.DefaultCA1(), rng.New(seed))
		a := s.Start()
		for _, busy := range events {
			if (a == Transmit) != (s.BC() == 0) {
				return false
			}
			if a == Transmit {
				a = s.AfterBusy(true, !busy)
			} else if busy {
				a = s.AfterBusy(false, true)
			} else {
				a = s.AfterIdle()
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFigure1Scenario replays the exact two-station example of Figure 1
// of the paper and checks the documented behaviours: the winner restarts
// at stage 0 with CW 8, the loser climbs to CW 16 with DC 1, and a
// deferral with DC = 0 changes CW without a transmission.
func TestFigure1Scenario(t *testing.T) {
	// Station B of Figure 1: starts at stage 0 (CW 8, DC 0), overhears
	// station A's transmission → jumps to stage 1 (CW 16, DC 1); after
	// overhearing a second transmission with DC 1 → DC 0 and stays;
	// a third overheard busy with DC 0 → would jump again, but in the
	// figure B's counter expires first and B transmits, returning to
	// stage 0 on success.
	b := newTestStation(3)
	if b.Start() == Transmit {
		t.Skip("seed draws BC=0; scenario needs a listening station")
	}
	b.AfterBusy(false, true)
	if b.CW() != 16 || b.DC() != 1 {
		t.Fatalf("B after overhearing A: CW=%d DC=%d, want 16/1", b.CW(), b.DC())
	}
	if b.BC() == 0 {
		t.Skip("redraw hit 0; pick of figure needs countdown room")
	}
	b.AfterBusy(false, true)
	if b.CW() != 16 || b.DC() != 0 {
		t.Fatalf("B after 2nd overhear: CW=%d DC=%d, want 16/0", b.CW(), b.DC())
	}
	// B's backoff expires; B transmits successfully → back to stage 0.
	driveToTransmit(b)
	b.AfterBusy(true, true)
	if b.CW() != 8 || b.Stage() != 0 {
		t.Fatalf("B after winning: CW=%d stage=%d, want 8/0", b.CW(), b.Stage())
	}
}

// TestResumeContinuesTheMachine: a station resumed at another
// station's counters, on a copy of its stream, reports the same state
// and then behaves identically under the same medium events.
func TestResumeContinuesTheMachine(t *testing.T) {
	src := rng.New(11)
	a := NewStation(config.DefaultCA1(), src)
	act := a.Start()
	events := rng.New(12)
	step := func(s *Station, act Action, i int) Action {
		if act == Transmit || events.Intn(3) == 0 {
			return s.AfterBusy(act == Transmit, i%2 == 0)
		}
		return s.AfterIdle()
	}
	for i := 0; i < 200; i++ {
		act = step(a, act, i)
	}
	srcCopy := *src
	b := NewStation(config.DefaultCA1(), &srcCopy)
	b.Resume(a.BPC(), a.BC(), a.DC(), a.Redraws(), a.Deferrals())
	if a.Snapshot() != b.Snapshot() || a.Redraws() != b.Redraws() || a.Deferrals() != b.Deferrals() {
		t.Fatalf("resumed state %+v ≠ driven state %+v", b.Snapshot(), a.Snapshot())
	}
	actB := act
	for i := 0; i < 200; i++ {
		events2 := *events
		act = step(a, act, i)
		*events = events2
		actB = step(b, actB, i)
		if act != actB || a.Snapshot() != b.Snapshot() {
			t.Fatalf("step %d: resumed station diverged: %+v vs %+v", i, b.Snapshot(), a.Snapshot())
		}
	}
}

// TestResumeRejectsUnstartedState: bpc 0 (no redraw yet) and negative
// counters are not states a started station can be in.
func TestResumeRejectsUnstartedState(t *testing.T) {
	for _, c := range [][3]int{{0, 1, 1}, {1, -1, 0}, {1, 0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Resume(%v) did not panic", c)
				}
			}()
			NewStation(config.DefaultCA1(), rng.New(1)).Resume(c[0], c[1], c[2], 1, 0)
		}()
	}
}
