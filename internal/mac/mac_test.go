package mac

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/hpav"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/timing"
	"repro/internal/traffic"
)

func addr(i int) hpav.MAC {
	return hpav.MAC{0x00, 0xB0, 0x52, 0x00, 0x00, byte(i)}
}

// buildSaturated wires the paper's canonical scenario: n saturated CA1
// stations all transmitting to destination D (TEI 100), bursts of k
// MPDUs with the default 2050 µs frames.
func buildSaturated(n, k int, seed uint64) (*Network, []*Station, *Station) {
	return buildSaturatedCfg(Config{}, n, k, seed)
}

// buildSaturatedCfg is buildSaturated on a network configured by cfg.
func buildSaturatedCfg(cfg Config, n, k int, seed uint64) (*Network, []*Station, *Station) {
	root := rng.New(seed)
	nw := NewNetworkCfg(cfg)
	dst := NewStation("D", 100, addr(100), root.Split(1000))
	nw.Attach(dst)
	stations := make([]*Station, n)
	for i := 0; i < n; i++ {
		s := NewStation("sta", hpav.TEI(i+1), addr(i+1), root.Split(uint64(i)))
		s.AddFlow(&Flow{
			Source: traffic.Saturated{},
			Spec: BurstSpec{
				Dst: 100, DstAddr: addr(100), Priority: config.CA1,
				MPDUs: k, PBsPerMPDU: 4, FrameMicros: timing.DefaultFrameDuration,
			},
		})
		stations[i] = s
		nw.Attach(s)
	}
	return nw, stations, dst
}

func TestAttachRejectsDuplicates(t *testing.T) {
	nw := NewNetworkCfg(Config{})
	s := NewStation("a", 1, addr(1), rng.New(1))
	nw.Attach(s)
	for _, dup := range []*Station{
		NewStation("b", 1, addr(2), rng.New(2)),
		NewStation("c", 2, addr(1), rng.New(3)),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("duplicate station %s accepted", dup.Name)
				}
			}()
			nw.Attach(dup)
		}()
	}
}

func TestRunRejectsBadDuration(t *testing.T) {
	nw, _, _ := buildSaturated(1, 1, 1)
	for _, d := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Run(%v) accepted", d)
				}
			}()
			nw.Run(d)
		}()
	}
}

func TestSingleStationNoCollisions(t *testing.T) {
	nw, stations, _ := buildSaturated(1, 2, 1)
	nw.Run(1e7)
	st := nw.Stats()
	if st.Collisions != 0 {
		t.Errorf("lone station collided %d times", st.Collisions)
	}
	if st.Successes == 0 {
		t.Error("no successes")
	}
	key := LinkKey{Peer: addr(100), Priority: config.CA1, Direction: hpav.DirectionTx}
	c := stations[0].Counters().Fetch(key)
	if c.Collided != 0 {
		t.Errorf("counter shows %d collided", c.Collided)
	}
	if int64(c.Acked) != st.SuccessMPDUs {
		t.Errorf("acked %d ≠ success MPDUs %d", c.Acked, st.SuccessMPDUs)
	}
}

// TestAckedIncludesCollided is the heart of Section 3.2's accounting:
// every collided MPDU must ALSO advance the Acked counter (the
// destination acknowledges it with an all-errored indication), so that
// ΣCᵢ/ΣAᵢ equals the collision probability directly.
func TestAckedIncludesCollided(t *testing.T) {
	nw, stations, _ := buildSaturated(5, 2, 2)
	nw.Run(2e7)
	st := nw.Stats()
	if st.Collisions == 0 {
		t.Fatal("no collisions with 5 saturated stations")
	}
	var acked, collided uint64
	key := LinkKey{Peer: addr(100), Priority: config.CA1, Direction: hpav.DirectionTx}
	for _, s := range stations {
		c := s.Counters().Fetch(key)
		acked += c.Acked
		collided += c.Collided
	}
	if int64(collided) != st.CollidedMPDUs {
		t.Errorf("Σ collided counters %d ≠ network %d", collided, st.CollidedMPDUs)
	}
	if int64(acked) != st.SuccessMPDUs+st.CollidedMPDUs {
		t.Errorf("Σ acked %d ≠ successes %d + collided %d", acked, st.SuccessMPDUs, st.CollidedMPDUs)
	}
}

// TestCollisionProbabilityMatchesMinimalSimulator cross-validates the
// full MAC against the paper's minimal simulator on the same scenario
// (single priority, saturated): the two implementations share the
// backoff engine but nothing else, so agreement here is the Figure 2
// "measurements ≈ simulation" result in miniature.
func TestCollisionProbabilityMatchesMinimalSimulator(t *testing.T) {
	for _, n := range []int{2, 5, 7} {
		nw, stations, _ := buildSaturated(n, 1, 3)
		nw.Run(4e7)
		var acked, collided uint64
		key := LinkKey{Peer: addr(100), Priority: config.CA1, Direction: hpav.DirectionTx}
		for _, s := range stations {
			c := s.Counters().Fetch(key)
			acked += c.Acked
			collided += c.Collided
		}
		macP := float64(collided) / float64(acked)

		in := sim.DefaultInputs(n)
		in.SimTime = 4e7
		e, err := sim.NewEngine(in)
		if err != nil {
			t.Fatal(err)
		}
		simP := e.Run().CollisionProbability

		if math.Abs(macP-simP) > 0.025 {
			t.Errorf("N=%d: MAC collision probability %.4f vs minimal simulator %.4f (> 0.025 apart)", n, macP, simP)
		}
	}
}

func TestBurstsCarryCountdown(t *testing.T) {
	nw, _, dst := buildSaturated(2, 2, 4)
	var caps []hpav.SnifferInd
	dst.SnifferEnabled = true
	dst.Sniffer = func(ind hpav.SnifferInd) { caps = append(caps, ind) }
	nw.Run(5e6)
	if len(caps) < 4 {
		t.Fatalf("only %d captures", len(caps))
	}
	// Captures come in burst pairs: MPDUCnt 1 then 0 with equal BurstID.
	for i := 0; i+1 < len(caps); i += 2 {
		a, b := caps[i].SoF, caps[i+1].SoF
		if a.MPDUCnt != 1 || b.MPDUCnt != 0 {
			t.Fatalf("capture pair %d: MPDUCnt %d,%d want 1,0", i/2, a.MPDUCnt, b.MPDUCnt)
		}
		if a.BurstID != b.BurstID || a.STEI != b.STEI {
			t.Fatalf("capture pair %d: mixed bursts", i/2)
		}
	}
}

func TestSnifferDisabledReceivesNothing(t *testing.T) {
	nw, _, dst := buildSaturated(2, 2, 5)
	called := 0
	dst.SnifferEnabled = false
	dst.Sniffer = func(hpav.SnifferInd) { called++ }
	nw.Run(2e6)
	if called != 0 {
		t.Errorf("sniffer callback fired %d times while disabled", called)
	}
}

// TestPriorityResolution: a CA2 flow must always win the channel over
// saturated CA1 flows — "only the stations belonging to the highest
// contending priority class run the backoff process".
func TestPriorityResolution(t *testing.T) {
	root := rng.New(7)
	nw := NewNetworkCfg(Config{})
	dst := NewStation("D", 100, addr(100), root.Split(1000))
	nw.Attach(dst)

	ca1 := NewStation("bulk", 1, addr(1), root.Split(1))
	ca1.AddFlow(&Flow{Source: traffic.Saturated{}, Spec: BurstSpec{
		Dst: 100, DstAddr: addr(100), Priority: config.CA1,
		MPDUs: 2, PBsPerMPDU: 4, FrameMicros: timing.DefaultFrameDuration,
	}})
	nw.Attach(ca1)

	mgmt := NewStation("mgmt", 2, addr(2), root.Split(2))
	mgmtSrc := traffic.NewPoisson(50_000, root.Split(3)) // one MME every 50 ms
	mgmt.AddFlow(&Flow{Source: mgmtSrc, Spec: BurstSpec{
		Dst: 100, DstAddr: addr(100), Priority: config.CA2,
		MPDUs: 1, PBsPerMPDU: 1, FrameMicros: 150,
	}})
	nw.Attach(mgmt)

	var ca2Events, ca2Collisions int
	nw.Observe(ObserverFunc(func(ev Event) {
		if ev.Class == config.CA2 {
			switch ev.Kind {
			case EventSuccess:
				ca2Events++
			case EventCollision:
				ca2Collisions++
			}
		}
	}))
	nw.Run(3e7) // 30 s → ≈600 MMEs
	if ca2Events < 100 {
		t.Errorf("only %d CA2 successes; priority resolution is starving the high class", ca2Events)
	}
	if ca2Collisions != 0 {
		t.Errorf("%d CA2 collisions with a single CA2 station; classes are contending against each other", ca2Collisions)
	}
	st := nw.Stats()
	if st.PerClass[config.CA1] == nil || st.PerClass[config.CA1].Successes == 0 {
		t.Error("CA1 starved completely")
	}
}

func TestUnsaturatedQuietPeriods(t *testing.T) {
	root := rng.New(9)
	nw := NewNetworkCfg(Config{})
	dst := NewStation("D", 100, addr(100), root.Split(1000))
	nw.Attach(dst)
	s := NewStation("slow", 1, addr(1), root.Split(1))
	s.AddFlow(&Flow{
		Source: traffic.NewPoisson(100_000, root.Split(2)), // 10 frames/s
		Spec: BurstSpec{Dst: 100, DstAddr: addr(100), Priority: config.CA1,
			MPDUs: 1, PBsPerMPDU: 4, FrameMicros: timing.DefaultFrameDuration},
	})
	nw.Attach(s)
	nw.Run(1e7)
	st := nw.Stats()
	if st.QuietTime == 0 {
		t.Error("no quiet time in a 10-frames/s scenario")
	}
	if st.QuietTime >= 1e7 {
		t.Error("all time quiet; traffic never served")
	}
	if st.Successes == 0 {
		t.Error("no successes")
	}
	if st.Collisions != 0 {
		t.Errorf("%d collisions with one station", st.Collisions)
	}
}

func TestTimeAccountingAcrossEvents(t *testing.T) {
	nw, _, _ := buildSaturated(3, 2, 11)
	var accounted float64
	nw.Observe(ObserverFunc(func(ev Event) { accounted += ev.Duration }))
	nw.Run(1e7)
	if got := nw.Now(); math.Abs(got-accounted) > 1e-6*got {
		t.Errorf("clock %v ≠ sum of event durations %v", got, accounted)
	}
	if nw.Now() < 1e7 {
		t.Errorf("run stopped early at %v", nw.Now())
	}
}

func TestRunResumes(t *testing.T) {
	nw, _, _ := buildSaturated(2, 2, 13)
	nw.Run(1e6)
	t1 := nw.Now()
	nw.Run(1e6)
	if nw.Now() <= t1 {
		t.Error("second Run did not advance the clock")
	}
	if nw.Now() < 2e6 {
		t.Errorf("clock %v after two 1e6 runs", nw.Now())
	}
}

func TestRxCountersMirrorTx(t *testing.T) {
	nw, stations, dst := buildSaturated(3, 2, 23)
	nw.Run(1e7)
	var txAcked uint64
	for _, s := range stations {
		c := s.Counters().Fetch(LinkKey{Peer: addr(100), Priority: config.CA1, Direction: hpav.DirectionTx})
		txAcked += c.Acked
	}
	var rxAcked uint64
	for i := range stations {
		c := dst.Counters().Fetch(LinkKey{Peer: addr(i + 1), Priority: config.CA1, Direction: hpav.DirectionRx})
		rxAcked += c.Acked
	}
	st := nw.Stats()
	// RX counts only successful deliveries; TX acked includes collided.
	if int64(rxAcked) != st.SuccessMPDUs {
		t.Errorf("rx acked %d ≠ delivered MPDUs %d", rxAcked, st.SuccessMPDUs)
	}
	if int64(txAcked) != st.SuccessMPDUs+st.CollidedMPDUs {
		t.Errorf("tx acked %d ≠ delivered + collided %d", txAcked, st.SuccessMPDUs+st.CollidedMPDUs)
	}
}

func TestCountersResetSemantics(t *testing.T) {
	nw, stations, _ := buildSaturated(2, 2, 29)
	key := LinkKey{Peer: addr(100), Priority: config.CA1, Direction: hpav.DirectionTx}
	nw.Run(1e6)
	if stations[0].Counters().Fetch(key).Acked == 0 {
		t.Fatal("no traffic counted")
	}
	stations[0].Counters().Reset(key)
	if c := stations[0].Counters().Fetch(key); c.Acked != 0 || c.Collided != 0 {
		t.Error("reset did not clear the link")
	}
	// The other station's counters must be untouched.
	if stations[1].Counters().Fetch(key).Acked == 0 {
		t.Error("reset leaked to another station")
	}
	nw.Run(1e6)
	if stations[0].Counters().Fetch(key).Acked == 0 {
		t.Error("counters did not resume after reset")
	}
}

func TestCountersKeysDeterministic(t *testing.T) {
	c := NewCounters()
	k1 := LinkKey{Peer: addr(2), Priority: config.CA1, Direction: hpav.DirectionTx}
	k2 := LinkKey{Peer: addr(1), Priority: config.CA2, Direction: hpav.DirectionRx}
	k3 := LinkKey{Peer: addr(1), Priority: config.CA1, Direction: hpav.DirectionTx}
	c.link(k1).Acked++
	c.link(k2).Acked++
	c.link(k3).Acked++
	c.link(LinkKey{Peer: addr(3)}) // made but never counted: not listed
	keys := c.Keys()
	if len(keys) != 3 {
		t.Fatalf("%d keys", len(keys))
	}
	if keys[0] != k3 || keys[1] != k2 || keys[2] != k1 {
		t.Errorf("keys not sorted: %v", keys)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, _, _ := buildSaturated(4, 2, 31)
	b, _, _ := buildSaturated(4, 2, 31)
	a.Run(5e6)
	b.Run(5e6)
	sa, sb := a.Stats(), b.Stats()
	if sa.Successes != sb.Successes || sa.Collisions != sb.Collisions || sa.IdleSlots != sb.IdleSlots {
		t.Errorf("equal seeds diverged: %+v vs %+v", sa, sb)
	}
}

func TestBurstSpecValidate(t *testing.T) {
	good := BurstSpec{Dst: 1, Priority: config.CA1, MPDUs: 2, PBsPerMPDU: 4, FrameMicros: 2050}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []BurstSpec{
		{Dst: 1, Priority: config.CA1, MPDUs: 0, PBsPerMPDU: 4, FrameMicros: 2050},
		{Dst: 1, Priority: config.CA1, MPDUs: 5, PBsPerMPDU: 4, FrameMicros: 2050},
		{Dst: 1, Priority: config.CA1, MPDUs: 2, PBsPerMPDU: 0, FrameMicros: 2050},
		{Dst: 1, Priority: config.CA1, MPDUs: 2, PBsPerMPDU: 4, FrameMicros: 0},
		{Dst: 1, Priority: config.Priority(8), MPDUs: 2, PBsPerMPDU: 4, FrameMicros: 2050},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestSetParamsBeforeStartOnly(t *testing.T) {
	nw, stations, _ := buildSaturated(1, 1, 37)
	nw.Run(1e5)
	defer func() {
		if recover() == nil {
			t.Error("SetParams after start accepted")
		}
	}()
	stations[0].SetParams(config.CA1, config.DefaultCA1())
}

func TestStationLookups(t *testing.T) {
	nw, stations, dst := buildSaturated(2, 1, 41)
	if nw.Station(1) != stations[0] || nw.Station(100) != dst {
		t.Error("TEI lookup broken")
	}
	if nw.StationByAddr(addr(2)) != stations[1] {
		t.Error("MAC lookup broken")
	}
	if nw.Station(250) != nil {
		t.Error("unknown TEI returned a station")
	}
	if len(nw.Stations()) != 3 {
		t.Errorf("Stations() returned %d", len(nw.Stations()))
	}
}

// TestBurstSizeDoesNotChangeCollisionRatio: bursts contend as units, so
// ΣC/ΣA is invariant to the burst size (both counters scale by k) while
// throughput improves. This is why the paper can compare MPDU-level
// counters against a frame-level simulator.
func TestBurstSizeDoesNotChangeCollisionRatio(t *testing.T) {
	ratio := func(k int) float64 {
		nw, stations, _ := buildSaturated(4, k, 43)
		nw.Run(3e7)
		var acked, collided uint64
		key := LinkKey{Peer: addr(100), Priority: config.CA1, Direction: hpav.DirectionTx}
		for _, s := range stations {
			c := s.Counters().Fetch(key)
			acked += c.Acked
			collided += c.Collided
		}
		return float64(collided) / float64(acked)
	}
	r1, r2 := ratio(1), ratio(2)
	if math.Abs(r1-r2) > 0.03 {
		t.Errorf("collision ratio changed with burst size: k=1 %.4f vs k=2 %.4f", r1, r2)
	}
}

// TestBurstingImprovesThroughput: two MPDUs per contention deliver more
// payload per unit time than one — the rationale for bursting.
func TestBurstingImprovesThroughput(t *testing.T) {
	thr := func(k int) float64 {
		nw, _, _ := buildSaturated(3, k, 47)
		nw.Run(3e7)
		st := nw.Stats()
		return st.PayloadMicros / st.Elapsed
	}
	t1, t2 := thr(1), thr(2)
	if t2 <= t1 {
		t.Errorf("burst of 2 throughput %v not above burst of 1 %v", t2, t1)
	}
}
