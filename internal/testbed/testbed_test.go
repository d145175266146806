package testbed

import (
	"math"
	"testing"

	"repro/internal/config"
	"repro/internal/hpav"
	"repro/internal/rng"
	"repro/internal/sim"
)

func TestOptionsDefaults(t *testing.T) {
	o := Options{N: 3}.withDefaults()
	if o.BurstMPDUs != 2 {
		t.Errorf("default burst %d, want 2 (the paper's measured size)", o.BurstMPDUs)
	}
	if o.FrameMicros != CalibratedFrameMicros {
		t.Errorf("default frame %v, want 2050", o.FrameMicros)
	}
	if o.Priority != config.CA1 {
		t.Errorf("default priority %v, want CA1", o.Priority)
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{N: 0},
		{N: 1, BurstMPDUs: 5},
		{N: 1, PBsPerMPDU: -1},
		{N: 1, FrameMicros: -3},
		{N: 1, Params: &config.Params{CW: []int{0}, DC: []int{0}}},
	}
	for i, o := range bad {
		if _, err := New(o); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

func TestResetRunFetchCycle(t *testing.T) {
	tb, err := New(Options{N: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := tb.CollisionProbability(1e7)
	if p <= 0 || p > 0.3 {
		t.Errorf("N=3 collision probability %v outside plausible band", p)
	}
	per, sumC, sumA := tb.Fetch()
	if len(per) != 3 {
		t.Fatalf("%d per-station rows", len(per))
	}
	var c, a uint64
	for _, x := range per {
		c += x.Collided
		a += x.Acked
	}
	if c != sumC || a != sumA {
		t.Error("sums disagree with per-station rows")
	}
}

// TestFigure2MeasurementMatchesSimulation is the testbed half of
// Figure 2: the emulated HomePlug AV measurement (MME counters, bursts
// of 2, ΣC/ΣA estimator) must land on the minimal simulator's collision
// probability for every N. The paper reports exactly this agreement
// between its measurements and its simulator.
func TestFigure2MeasurementMatchesSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-N comparison")
	}
	for _, n := range []int{1, 2, 4, 7} {
		tb, err := New(Options{N: n, Seed: uint64(n)})
		if err != nil {
			t.Fatal(err)
		}
		measured := tb.CollisionProbability(3e7)

		in := sim.DefaultInputs(n)
		in.SimTime = 3e7
		e, err := sim.NewEngine(in)
		if err != nil {
			t.Fatal(err)
		}
		simulated := e.Run().CollisionProbability

		if math.Abs(measured-simulated) > 0.03 {
			t.Errorf("N=%d: measured %.4f vs simulated %.4f (> 0.03 apart)", n, measured, simulated)
		}
	}
}

// TestTable2Shape reproduces the qualitative content of Table 2: ΣA is
// large and grows with N; ΣC grows steeply with N; at N=1 collisions
// are (near) zero.
func TestTable2Shape(t *testing.T) {
	var prevC, prevA uint64
	for _, n := range []int{1, 3, 5} {
		tb, err := New(Options{N: n, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		tb.ResetAll()
		tb.Run(1e7)
		_, c, a := tb.Fetch()
		if n == 1 && c != 0 {
			t.Errorf("N=1: %d collided MPDUs", c)
		}
		if n > 1 {
			if c <= prevC {
				t.Errorf("N=%d: ΣC=%d did not grow (prev %d)", n, c, prevC)
			}
			if a <= prevA {
				t.Errorf("N=%d: ΣA=%d did not grow (prev %d) — collided frames must be acked", n, a, prevA)
			}
		}
		prevC, prevA = c, a
	}
}

func TestSnifferBurstAnalysis(t *testing.T) {
	tb, err := New(Options{N: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tb.EnableSniffer()
	tb.Run(5e6)
	caps := tb.Captures()
	if len(caps) == 0 {
		t.Fatal("no captures")
	}
	a, err := AnalyzeCaptures(caps, config.CA1)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's observation: bursts of 2 MPDUs dominate.
	if got := a.DominantBurstSize(); got != 2 {
		t.Errorf("dominant burst size %d, want 2", got)
	}
	if a.MgmtBursts != 0 {
		t.Errorf("%d management bursts in an isolated run", a.MgmtBursts)
	}
	if a.MMEOverhead() != 0 {
		t.Errorf("MME overhead %v in an isolated run", a.MMEOverhead())
	}
	if len(a.SourceSequence) != a.DataBursts {
		t.Errorf("source sequence %d entries, %d data bursts", len(a.SourceSequence), a.DataBursts)
	}
	// Both stations must appear in the trace.
	if len(a.SourceBursts) != 2 {
		t.Errorf("sources seen: %v, want 2", a.SourceBursts)
	}
}

// TestMMEOverheadMeasured reproduces the Section 3.3 methodology end to
// end: with background management traffic enabled, the sniffer-based
// overhead estimate must be positive and match the configured rates to
// first order.
func TestMMEOverheadMeasured(t *testing.T) {
	tb, err := New(Options{
		N:              2,
		Seed:           4,
		MgmtMeanMicros: 100_000, // one MME per station per 100 ms
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.EnableSniffer()
	tb.Run(3e7)
	caps := tb.Captures()
	a, err := AnalyzeCaptures(caps, config.CA1)
	if err != nil {
		t.Fatal(err)
	}
	if a.MgmtBursts == 0 {
		t.Fatal("no management bursts captured")
	}
	ov := a.MMEOverhead()
	if ov <= 0 || ov > 0.2 {
		t.Errorf("MME overhead %v implausible for sparse management traffic", ov)
	}
	// Management bursts are single MPDUs: burst-size histogram must
	// have entries at size 1 (MMEs) and size 2 (data).
	if a.BurstSizes[1] == 0 || a.BurstSizes[2] == 0 {
		t.Errorf("burst size histogram %v missing expected sizes", a.BurstSizes)
	}
}

func TestCustomParamsApplied(t *testing.T) {
	// A testbed with enormous CW must collide less than the default.
	wide := config.Params{Name: "wide", CW: []int{256, 256, 256, 256}, DC: []int{0, 1, 3, 15}}
	tbWide, err := New(Options{N: 5, Seed: 5, Params: &wide})
	if err != nil {
		t.Fatal(err)
	}
	tbDef, err := New(Options{N: 5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pWide := tbWide.CollisionProbability(1e7)
	pDef := tbDef.CollisionProbability(1e7)
	if pWide >= pDef {
		t.Errorf("CW=256 collision probability %v not below default %v", pWide, pDef)
	}
}

func TestUnsaturatedTestbed(t *testing.T) {
	tb, err := New(Options{N: 2, Seed: 6, TrafficMeanMicros: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(1e7)
	st := tb.Network.Stats()
	if st.QuietTime == 0 {
		t.Error("no quiet time with 5 bursts/s offered load")
	}
	if st.Successes == 0 {
		t.Error("no traffic served")
	}
}

// TestErrorModelPlumbs: per-burst channel errors set on the testbed's
// transmitters reach the network's PB accounting — delivered and
// errored blocks are the MPDU counters scaled by PBsPerMPDU.
func TestErrorModelPlumbs(t *testing.T) {
	tb, err := New(Options{N: 2, Seed: 7, PBsPerMPDU: 3})
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(9)
	for i, d := range tb.Transmitters {
		d.Station().SetFrameError(0.2, root.Split(uint64(i)))
	}
	tb.Run(5e6)
	st := tb.Network.Stats()
	if st.FrameErrors == 0 {
		t.Fatal("frame errors not wired through")
	}
	if st.DeliveredPBs != st.SuccessMPDUs*3 {
		t.Errorf("DeliveredPBs %d, want SuccessMPDUs·3 = %d", st.DeliveredPBs, st.SuccessMPDUs*3)
	}
	if st.ErroredPBs != st.FrameErrorMPDUs*3 {
		t.Errorf("ErroredPBs %d, want FrameErrorMPDUs·3 = %d", st.ErroredPBs, st.FrameErrorMPDUs*3)
	}
}

func TestStationAddressing(t *testing.T) {
	if StationAddr(0) == StationAddr(1) {
		t.Error("station addresses collide")
	}
	if StationTEI(0) == DstTEI {
		t.Error("station TEI collides with destination")
	}
	tb, err := New(Options{N: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if tb.Network.StationByAddr(DstAddr) != tb.Destination.Station() {
		t.Error("destination not reachable by address")
	}
	for i, d := range tb.Transmitters {
		if tb.Network.Station(StationTEI(i)) != d.Station() {
			t.Errorf("transmitter %d not reachable by TEI", i)
		}
	}
}

func TestAnalyzeCapturesRejectsOversizedBurst(t *testing.T) {
	// Hand-craft a trace with 5 MPDUs never closing (MPDUCnt always
	// > 0 is impossible to encode beyond 3, so build 5 with countdown
	// restarted — the analyzer must flag >4 open MPDUs per source).
	var caps []hpav.SnifferInd
	for i := 0; i < 5; i++ {
		caps = append(caps, hpav.SnifferInd{SoF: hpav.SoF{
			STEI: 9, DTEI: 1, LinkID: config.CA1, MPDUCnt: 1, PBCount: 1,
		}})
	}
	caps = append(caps, hpav.SnifferInd{SoF: hpav.SoF{
		STEI: 9, DTEI: 1, LinkID: config.CA1, MPDUCnt: 0, PBCount: 1,
	}})
	if _, err := AnalyzeCaptures(caps, config.CA1); err == nil {
		t.Error("oversized burst accepted")
	}
}
