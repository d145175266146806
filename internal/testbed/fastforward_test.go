package testbed

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/mac"
	"repro/internal/rng"
	"repro/internal/traffic"
)

// buildPairedTestbeds returns two identically seeded testbeds, the
// second forced onto the slot-by-slot medium loop by a no-op observer
// (any observer disables the network's idle fast-forward).
func buildPairedTestbeds(t *testing.T, opts Options) (fast, slow *Testbed) {
	t.Helper()
	fast, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	slow, err = New(opts)
	if err != nil {
		t.Fatal(err)
	}
	slow.Network.Observe(mac.ObserverFunc(func(mac.Event) {}))
	return fast, slow
}

// compareRuns drives both testbeds across the same schedule of Run
// calls (repeated runs exercise the end-of-run batch bound) and demands
// bit-identical statistics and firmware counters.
func compareRuns(t *testing.T, opts Options, durations []float64) {
	t.Helper()
	fast, slow := buildPairedTestbeds(t, opts)
	for _, d := range durations {
		fast.Run(d)
		slow.Run(d)
	}
	fs, ss := fast.Network.Stats(), slow.Network.Stats()
	if !reflect.DeepEqual(fs, ss) {
		t.Fatalf("%+v: batched stats ≠ slot-by-slot stats\nbatched:  %+v\nslotwise: %+v", opts, fs, ss)
	}
	fPer, fC, fA := fast.Fetch()
	sPer, sC, sA := slow.Fetch()
	if fC != sC || fA != sA || !reflect.DeepEqual(fPer, sPer) {
		t.Fatalf("%+v: batched counters (%d/%d %v) ≠ slot-by-slot (%d/%d %v)",
			opts, fC, fA, fPer, sC, sA, sPer)
	}
}

// TestMACFastForwardBitIdentical is the event-driven network's
// equivalence property: batching provably idle slots must not move a
// single counter, clock increment or random draw relative to the
// slot-by-slot loop, across saturated, unsaturated, managed and
// beaconed scenarios.
func TestMACFastForwardBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"saturated-N2", Options{N: 2, Seed: 3}},
		{"saturated-N7", Options{N: 7, Seed: 9}},
		{"burst1-N3", Options{N: 3, BurstMPDUs: 1, Seed: 4}},
		{"poisson-traffic", Options{N: 3, TrafficMeanMicros: 30_000, Seed: 5}},
		{"management-CA2", Options{N: 2, MgmtMeanMicros: 50_000, Seed: 6}},
		{"beacons", Options{N: 3, BeaconPeriodMicros: 33_330, Seed: 7}},
		{"delays-recorded", Options{N: 2, RecordDelays: true, Seed: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			compareRuns(t, tc.opts, []float64{1e6, 5e5, 2e6})
		})
	}
}

// TestMACFastForwardAcrossSeeds widens the seed coverage on the
// saturated scenario the paper's tables use.
func TestMACFastForwardAcrossSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for _, n := range []int{1, 2, 5} {
			compareRuns(t, Options{N: n, Seed: seed}, []float64{2e6})
		}
	}
}

// classShapes are the mixed-class networks the durable-serving
// benchmark's mac jobs run: the testbed's stations plus one extra
// station whose traffic or class differs from theirs — a saturated
// station among Poisson ones, or a sparse CA3 management station under
// beacons.
var classShapes = []struct {
	name  string
	opts  Options
	extra mac.BurstSpec
	mean  float64 // the extra station's Poisson mean; 0 = saturated
}{
	{"poisson-mixed", Options{N: 2, TrafficMeanMicros: 30_000},
		mac.BurstSpec{Priority: config.CA1, MPDUs: 2, PBsPerMPDU: 4, FrameMicros: CalibratedFrameMicros}, 0},
	{"beacons-ca3", Options{N: 3, BeaconPeriodMicros: 33_330},
		mac.BurstSpec{Priority: config.CA3, MPDUs: 1, PBsPerMPDU: 1, FrameMicros: 150}, 100_000},
}

// buildClassShape assembles classShapes[i] under seed. The extra
// station draws from root streams the testbed leaves unused.
func buildClassShape(t testing.TB, i int, seed uint64) *Testbed {
	t.Helper()
	shape := classShapes[i]
	opts := shape.opts
	opts.Seed = seed
	tb, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(seed)
	var src traffic.Source = traffic.Saturated{}
	if shape.mean > 0 {
		src = traffic.NewPoisson(shape.mean, root.Split(3000))
	}
	spec := shape.extra
	spec.Dst, spec.DstAddr = DstTEI, DstAddr
	st := mac.NewStation("extra", StationTEI(opts.N), StationAddr(opts.N), root.Split(uint64(opts.N+1)))
	st.AddFlow(&mac.Flow{Source: src, Spec: spec})
	tb.Network.Attach(st)
	return tb
}

// TestMediumLoopAllocationFree pins the zero-allocation property of the
// unobserved medium loop: once the scratch buffers and counter buckets
// are warm, advancing the network must not allocate at all — on the
// paper's saturated strip and on both mixed-class shapes.
func TestMediumLoopAllocationFree(t *testing.T) {
	tb, err := New(Options{N: 7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	testbeds := map[string]*Testbed{"saturated-N7": tb}
	for i, shape := range classShapes {
		testbeds[shape.name] = buildClassShape(t, i, 1)
	}
	for name, tb := range testbeds {
		tb.Run(1e6) // warm scratch buffers and counter buckets
		if allocs := testing.AllocsPerRun(5, func() { tb.Run(5e5) }); allocs > 0 {
			t.Errorf("%s: steady-state Run allocated %.0f objects per call, want 0", name, allocs)
		}
	}
}

// BenchmarkMACNetworkClasses measures the medium loop on the
// mixed-class shapes, built once per sub-benchmark like
// BenchmarkMACNetworkSteadyState, so allocs/op is the loop's own.
func BenchmarkMACNetworkClasses(b *testing.B) {
	for i, shape := range classShapes {
		b.Run(shape.name, func(b *testing.B) {
			tb := buildClassShape(b, i, 1)
			tb.Run(1e6)
			b.ReportAllocs()
			b.ResetTimer()
			for j := 0; j < b.N; j++ {
				tb.Run(1e6)
			}
		})
	}
}
