package mac

import (
	"math"
	"sort"
	"testing"

	"repro/internal/config"
	"repro/internal/hpav"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/timing"
	"repro/internal/traffic"
)

func TestBeaconsConsumeAirtime(t *testing.T) {
	beacons60Hz := Config{BeaconPeriodMicros: 33_330} // 60 Hz AC: beacon every 33.33 ms
	nw, _, _ := buildSaturatedCfg(beacons60Hz, 2, 2, 51)
	nw.Run(1e7) // 10 s → ≈300 beacons
	st := nw.Stats()
	if st.Beacons < 250 || st.Beacons > 310 {
		t.Errorf("%d beacons in 10 s at 33.33 ms period", st.Beacons)
	}
	// Beacons must appear in the observer stream too.
	nw2, _, _ := buildSaturatedCfg(beacons60Hz, 2, 2, 51)
	beacons := 0
	nw2.Observe(ObserverFunc(func(ev Event) {
		if ev.Kind == EventBeacon {
			beacons++
			if ev.Duration <= 0 {
				t.Error("beacon with no duration")
			}
		}
	}))
	nw2.Run(1e6)
	if beacons == 0 {
		t.Error("no beacon events observed")
	}
}

func TestBeaconsReduceThroughputSlightly(t *testing.T) {
	thr := func(beacons bool) float64 {
		var cfg Config
		if beacons {
			cfg.BeaconPeriodMicros = 33_330
		}
		nw, _, _ := buildSaturatedCfg(cfg, 2, 2, 53)
		nw.Run(2e7)
		st := nw.Stats()
		return st.PayloadMicros / st.Elapsed
	}
	with, without := thr(true), thr(false)
	if with >= without {
		t.Errorf("beacons did not cost airtime: %v with vs %v without", with, without)
	}
	// But the cost must be small (a beacon is delimiter-only).
	if (without-with)/without > 0.05 {
		t.Errorf("beacon overhead %.1f%% implausibly high", (without-with)/without*100)
	}
}

func TestBeaconsDisable(t *testing.T) {
	nw, _, _ := buildSaturatedCfg(Config{BeaconPeriodMicros: -10_000}, 1, 1, 57)
	nw.Run(1e6)
	if nw.Stats().Beacons != 0 {
		t.Error("disabled beacons still fired")
	}
}

func TestAccessDelayRecording(t *testing.T) {
	nw, _, _ := buildSaturatedCfg(Config{RecordDelays: true}, 3, 2, 59)
	nw.Run(1e7)
	st := nw.Stats()
	if int64(len(st.AccessDelays)) != st.Successes {
		t.Fatalf("%d delay samples, %d successes", len(st.AccessDelays), st.Successes)
	}
	// Every delay must be at least the burst's busy duration and
	// bounded by the run length.
	minBusy := 2 * timing.DefaultFrameDuration // 2 MPDUs of payload
	for _, d := range st.AccessDelays {
		if d < minBusy {
			t.Fatalf("delay %v below the burst airtime %v", d, minBusy)
		}
		if d > 1e7 {
			t.Fatalf("delay %v exceeds the run length", d)
		}
	}
	sum := stats.Summarize(st.AccessDelays)
	if sum.Mean <= 0 {
		t.Error("degenerate delay mean")
	}
}

func TestAccessDelayGrowsWithN(t *testing.T) {
	mean := func(n int) float64 {
		nw, _, _ := buildSaturatedCfg(Config{RecordDelays: true}, n, 2, 61)
		nw.Run(1e7)
		return stats.Mean(nw.Stats().AccessDelays)
	}
	d2, d7 := mean(2), mean(7)
	if d7 <= d2*2 {
		t.Errorf("mean access delay at N=7 (%v) not well above N=2 (%v)", d7, d2)
	}
}

func TestDelaysOffByDefault(t *testing.T) {
	nw, _, _ := buildSaturated(2, 2, 63)
	nw.Run(1e6)
	if len(nw.Stats().AccessDelays) != 0 {
		t.Error("delay samples recorded without RecordDelays")
	}
}

// TestDeliveredPBAccounting: every MPDU carries PBsPerMPDU blocks, so
// the PB counters are the MPDU counters scaled — delivered bursts count
// toward DeliveredPBs, bursts lost to channel errors toward ErroredPBs.
func TestDeliveredPBAccounting(t *testing.T) {
	nw, stations, _ := buildSaturated(2, 2, 67)
	root := rng.New(5)
	for i, s := range stations {
		s.SetFrameError(0.25, root.Split(uint64(i)))
	}
	nw.Run(1e7)
	st := nw.Stats()
	if st.FrameErrors == 0 || st.Successes == 0 {
		t.Fatalf("degenerate run: %d frame errors, %d successes", st.FrameErrors, st.Successes)
	}
	if st.DeliveredPBs != st.SuccessMPDUs*4 {
		t.Errorf("DeliveredPBs %d, want SuccessMPDUs·4 = %d", st.DeliveredPBs, st.SuccessMPDUs*4)
	}
	if st.ErroredPBs != st.FrameErrorMPDUs*4 {
		t.Errorf("ErroredPBs %d, want FrameErrorMPDUs·4 = %d", st.ErroredPBs, st.FrameErrorMPDUs*4)
	}
	rate := float64(st.FrameErrors) / float64(st.FrameErrors+st.Successes)
	if math.Abs(rate-0.25) > 0.03 {
		t.Errorf("burst error rate %v among lone transmissions, want ≈0.25", rate)
	}
}

// TestUnsaturatedDelayBelowSaturatedDelay: a lightly loaded station
// mostly finds the medium free, so its access delay must be far below
// the saturated head-of-line delay at the same N.
func TestUnsaturatedDelayBelowSaturated(t *testing.T) {
	root := rng.New(71)
	build := func(mean float64) *Network {
		nw := NewNetworkCfg(Config{RecordDelays: true})
		dst := NewStation("D", 100, addr(100), root.Split(999))
		nw.Attach(dst)
		for i := 0; i < 3; i++ {
			s := NewStation("sta", hpav.TEI(i+1), addr(i+1), root.Split(uint64(200+i)))
			var src traffic.Source = traffic.Saturated{}
			if mean > 0 {
				src = traffic.NewPoisson(mean, root.Split(uint64(300+i)))
			}
			s.AddFlow(&Flow{Source: src, Spec: BurstSpec{
				Dst: 100, DstAddr: addr(100), Priority: config.CA1,
				MPDUs: 2, PBsPerMPDU: 4, FrameMicros: timing.DefaultFrameDuration,
			}})
			nw.Attach(s)
		}
		return nw
	}
	sat := build(0)
	sat.Run(1e7)
	light := build(100_000) // 10 bursts/s each — far below capacity
	light.Run(1e7)
	ds := stats.Mean(sat.Stats().AccessDelays)
	dl := stats.Mean(light.Stats().AccessDelays)
	if dl >= ds {
		t.Errorf("light-load delay %v not below saturated %v", dl, ds)
	}
}

// TestDelayDistributionTail: saturated delays must be right-skewed
// (p95 well above the median) — the short-term unfairness shows up as a
// delay tail.
func TestDelayDistributionTail(t *testing.T) {
	nw, _, _ := buildSaturatedCfg(Config{RecordDelays: true}, 5, 2, 73)
	nw.Run(2e7)
	ds := nw.Stats().AccessDelays
	sort.Float64s(ds)
	median := stats.Median(ds)
	p95 := stats.Quantile(ds, 0.95)
	if p95 < 2*median {
		t.Errorf("p95 %v < 2×median %v: expected a heavy delay tail under saturation", p95, median)
	}
}
