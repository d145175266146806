package scenario

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sampleSpecs covers both engines, heterogeneity, sweeps, traffic mixes
// and channel errors — the matrix the round-trip and replication
// properties quantify over.
func sampleSpecs() []Spec {
	return []Spec{
		{
			Name: "sat", SimTimeMicros: 2e6,
			Stations: []Group{{Count: 3}},
		},
		{
			Name: "hetero", SimTimeMicros: 2e6, Seed: 7,
			Stations: []Group{
				{Count: 2},
				{Count: 2, CW: []int{4, 8, 16, 32}, DC: []int{0, 0, 1, 3}},
			},
		},
		{
			Name: "sweep", SimTimeMicros: 2e6, SweepN: []int{1, 2, 4},
			Stations: []Group{{Count: 1}},
		},
		{
			Name: "errors", SimTimeMicros: 2e6,
			Stations: []Group{{Count: 2, ErrorProb: 0.3}, {Count: 1}},
		},
		{
			Name: "mac-mix", SimTimeMicros: 2e6,
			Stations: []Group{
				{Count: 2, Traffic: &Traffic{Kind: TrafficPoisson, MeanInterarrivalMicros: 30000}},
				{Count: 1, Priority: "CA3", BurstMPDUs: 2},
			},
		},
		{
			Name: "beacons", SimTimeMicros: 2e6, BeaconPeriodMicros: 33330,
			SeedPolicy: SeedIncrement,
			Stations:   []Group{{Count: 2, ErrorProb: 0.1}},
		},
	}
}

// TestRoundTripLossless pins the tentpole contract: encode→decode→
// compile is lossless. Normalization is idempotent, the JSON round trip
// preserves the normalized spec exactly, and both sides compile to
// deep-equal engine forms.
func TestRoundTripLossless(t *testing.T) {
	for _, spec := range sampleSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			norm, err := spec.Normalized()
			if err != nil {
				t.Fatalf("Normalized: %v", err)
			}
			norm2, err := norm.Normalized()
			if err != nil {
				t.Fatalf("re-Normalized: %v", err)
			}
			if !reflect.DeepEqual(norm, norm2) {
				t.Fatalf("normalization not idempotent:\n%+v\n%+v", norm, norm2)
			}

			data, err := norm.Marshal()
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			back, err := Parse(data)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			backNorm, err := back.Normalized()
			if err != nil {
				t.Fatalf("Normalized after round trip: %v", err)
			}
			if !reflect.DeepEqual(norm, backNorm) {
				t.Fatalf("JSON round trip changed the spec:\nbefore %+v\nafter  %+v", norm, backNorm)
			}

			c1, err := Compile(spec)
			if err != nil {
				t.Fatalf("Compile original: %v", err)
			}
			c2, err := Compile(back)
			if err != nil {
				t.Fatalf("Compile round-tripped: %v", err)
			}
			if !reflect.DeepEqual(c1, c2) {
				t.Fatalf("round trip changed the compiled form:\n%+v\n%+v", c1, c2)
			}
		})
	}
}

// TestInvalidSpecs asserts every malformed spec fails with a message
// naming the offending field — the error text is part of the format's
// usability contract.
func TestInvalidSpecs(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"missing name", `{"sim_time_us": 1e6, "stations": [{"count": 1}]}`, `missing "name"`},
		{"bad engine", `{"name": "x", "engine": "matlab", "sim_time_us": 1e6, "stations": [{"count": 1}]}`, `unknown engine "matlab"`},
		{"missing sim time", `{"name": "x", "stations": [{"count": 1}]}`, `"sim_time_us" = 0`},
		{"negative sim time", `{"name": "x", "sim_time_us": -5, "stations": [{"count": 1}]}`, `"sim_time_us" = -5`},
		{"no stations", `{"name": "x", "sim_time_us": 1e6}`, `at least one group`},
		{"zero count", `{"name": "x", "sim_time_us": 1e6, "stations": [{"count": 0}]}`, `"count" = 0`},
		{"cw without dc", `{"name": "x", "sim_time_us": 1e6, "stations": [{"count": 1, "cw": [8, 16]}]}`, `"cw" and "dc" must be given together`},
		{"cw/dc length mismatch", `{"name": "x", "sim_time_us": 1e6, "stations": [{"count": 1, "cw": [8, 16], "dc": [0]}]}`, `same length`},
		{"bad priority", `{"name": "x", "sim_time_us": 1e6, "stations": [{"count": 1, "priority": "CA9"}]}`, `unknown priority class`},
		{"poisson without mean", `{"name": "x", "sim_time_us": 1e6, "stations": [{"count": 1, "traffic": {"kind": "poisson"}}]}`, `"mean_interarrival_us" > 0`},
		{"poisson mean below the clock", `{"name": "x", "engine": "mac", "sim_time_us": 1e6, "stations": [{"count": 1, "traffic": {"kind": "poisson", "mean_interarrival_us": 1e-308}}]}`, `"mean_interarrival_us" = 1e-308 is below the 1 µs floor`},
		{"mean on saturated", `{"name": "x", "sim_time_us": 1e6, "stations": [{"count": 1, "traffic": {"mean_interarrival_us": 10}}]}`, `only meaningful for poisson`},
		{"bad traffic kind", `{"name": "x", "sim_time_us": 1e6, "stations": [{"count": 1, "traffic": {"kind": "bursty"}}]}`, `unknown traffic kind "bursty"`},
		{"error prob out of range", `{"name": "x", "sim_time_us": 1e6, "stations": [{"count": 1, "error_prob": 1.5}]}`, `"error_prob" = 1.5 outside [0, 1]`},
		{"burst too large", `{"name": "x", "sim_time_us": 1e6, "stations": [{"count": 1, "burst_mpdus": 9}]}`, `"burst_mpdus" = 9`},
		{"sweep with two groups", `{"name": "x", "sim_time_us": 1e6, "sweep_n": [1, 2], "stations": [{"count": 1}, {"count": 1}]}`, `exactly one station group`},
		{"sweep zero", `{"name": "x", "sim_time_us": 1e6, "sweep_n": [0], "stations": [{"count": 1}]}`, `sweep_n[0] = 0`},
		{"sweep over the station cap", `{"name": "x", "sim_time_us": 1e6, "sweep_n": [1, 254], "stations": [{"count": 1}]}`, `sweep_n[1] = 254 outside 1–253 stations`},
		{"mac group over the station cap", `{"name": "x", "engine": "mac", "sim_time_us": 100000, "stations": [{"count": 256}]}`, `stations[0]: "count" = 256 puts the point over the 253-station cap`},
		{"groups summed over the station cap", `{"name": "x", "sim_time_us": 1e6, "stations": [{"count": 200}, {"count": 54}]}`, `stations[1]: "count" = 54 puts the point over the 253-station cap`},
		{"count that would overflow the sum", `{"name": "x", "sim_time_us": 1e6, "stations": [{"count": 2}, {"count": 9223372036854775807}]}`, `stations[1]: "count" = 9223372036854775807`},
		{"bad seed policy", `{"name": "x", "sim_time_us": 1e6, "seed_policy": "lucky", "stations": [{"count": 1}]}`, `unknown seed_policy "lucky"`},
		{"sim cannot poisson", `{"name": "x", "engine": "sim", "sim_time_us": 1e6, "stations": [{"count": 1, "traffic": {"kind": "poisson", "mean_interarrival_us": 10}}]}`, `engine "sim" cannot express`},
		{"sim cannot beacon", `{"name": "x", "engine": "sim", "sim_time_us": 1e6, "beacon_period_us": 1000, "stations": [{"count": 1}]}`, `cannot express beacons`},
		{"unknown field", `{"name": "x", "sim_time_us": 1e6, "stations": [{"count": 1, "cww": [8]}]}`, `unknown field`},
		{"second document", `{"name": "x", "sim_time_us": 1e6, "stations": [{"count": 1}]} {"name": "y"}`, `trailing data`},
		{"trailing garbage", `{"name": "x", "sim_time_us": 1e6, "stations": [{"count": 1}]} garbage`, `trailing data`},
		{"frame over default ts", `{"name": "x", "sim_time_us": 1e6, "frame_us": 5000, "stations": [{"count": 2}]}`, `"frame_us" = 5000 exceeds "ts_us" = 2542.64`},
		{"frame near the float range", `{"name": "x", "sim_time_us": 1e6, "frame_us": 1e308, "stations": [{"count": 2}]}`, `"frame_us" = 1e+308 exceeds "ts_us"`},
		{"default frame over ts", `{"name": "x", "sim_time_us": 1e6, "ts_us": 1000, "stations": [{"count": 2}]}`, `"frame_us" = 2050 exceeds "ts_us" = 1000`},
		{"group frame over ts", `{"name": "x", "engine": "mac", "sim_time_us": 1e6, "stations": [{"count": 1}, {"count": 1, "frame_us": 3000}]}`, `stations[1]: "frame_us" = 3000 exceeds "ts_us" = 2542.64`},
		{"model window over the cost cap", `{"name": "x", "engine": "model", "sim_time_us": 1e6, "stations": [{"count": 2, "cw": [8, 1000000], "dc": [0, 1]}]}`, `"cw" windows too wide for the model engine`},
		{"model sweep over the cost cap", `{"name": "x", "engine": "model", "sim_time_us": 1e6, "sweep_n": [` + strings.Repeat("2, ", 999) + `2], "stations": [{"count": 1, "cw": [8, 100], "dc": [0, 1]}]}`, `"cw" windows too wide`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := Parse([]byte(tc.json))
			if err == nil {
				_, err = Compile(spec)
			}
			if err == nil {
				t.Fatalf("spec accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestAutoEngine pins the engine-selection rules: saturated
// single-class specs stay on the minimal simulator; traffic, bursts,
// beacons and mixed classes promote to the event-driven MAC.
func TestAutoEngine(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"saturated", Spec{Name: "a", SimTimeMicros: 1e6, Stations: []Group{{Count: 2}}}, EngineSim},
		{"hetero cw", Spec{Name: "b", SimTimeMicros: 1e6, Stations: []Group{
			{Count: 1}, {Count: 1, CW: []int{4}, DC: []int{0}},
		}}, EngineSim},
		{"errors", Spec{Name: "c", SimTimeMicros: 1e6, Stations: []Group{{Count: 2, ErrorProb: 0.5}}}, EngineSim},
		{"poisson", Spec{Name: "d", SimTimeMicros: 1e6, Stations: []Group{
			{Count: 2, Traffic: &Traffic{Kind: TrafficPoisson, MeanInterarrivalMicros: 100}},
		}}, EngineMac},
		{"beacons", Spec{Name: "e", SimTimeMicros: 1e6, BeaconPeriodMicros: 100, Stations: []Group{{Count: 2}}}, EngineMac},
		{"burst", Spec{Name: "f", SimTimeMicros: 1e6, Stations: []Group{{Count: 2, BurstMPDUs: 2}}}, EngineMac},
		{"mixed classes", Spec{Name: "g", SimTimeMicros: 1e6, Stations: []Group{
			{Count: 1}, {Count: 1, Priority: "CA3"},
		}}, EngineMac},
		{"single non-default class", Spec{Name: "h", SimTimeMicros: 1e6, Stations: []Group{
			{Count: 2, Priority: "CA3"},
		}}, EngineSim},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			norm, err := tc.spec.Normalized()
			if err != nil {
				t.Fatal(err)
			}
			if norm.Engine != tc.want {
				t.Fatalf("engine %q, want %q", norm.Engine, tc.want)
			}
		})
	}
}

// TestCompileExpandsGroups checks group expansion and per-station
// compilation onto the sim engine, including the error-probability
// vector appearing exactly when a group sets it.
func TestCompileExpandsGroups(t *testing.T) {
	c, err := Compile(Spec{
		Name: "mix", SimTimeMicros: 1e6,
		Stations: []Group{
			{Count: 2, ErrorProb: 0.25},
			{Count: 1, CW: []int{4}, DC: []int{0}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	in := c.Points[0].SimInputs
	if in == nil || c.Points[0].MacPlan != nil {
		t.Fatalf("expected sim compilation, got %+v", c.Points[0])
	}
	if in.N != 3 || len(in.PerStation) != 3 {
		t.Fatalf("N=%d PerStation=%d, want 3", in.N, len(in.PerStation))
	}
	if got := in.PerStation[2].CW[0]; got != 4 {
		t.Fatalf("station 2 CW[0]=%d, want 4", got)
	}
	want := []float64{0.25, 0.25, 0}
	if !reflect.DeepEqual(in.ErrorProb, want) {
		t.Fatalf("ErrorProb %v, want %v", in.ErrorProb, want)
	}

	free, err := Compile(Spec{Name: "clean", SimTimeMicros: 1e6, Stations: []Group{{Count: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if free.Points[0].SimInputs.ErrorProb != nil {
		t.Fatalf("error-free spec compiled with ErrorProb %v", free.Points[0].SimInputs.ErrorProb)
	}
}

// TestExampleScenarios compiles every shipped scenario file, so a
// drifting spec format can never strand the examples.
func TestExampleScenarios(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 5 {
		t.Fatalf("found %d example scenarios, want ≥ 5 regimes", len(paths))
	}
	names := map[string]string{}
	for _, p := range paths {
		spec, err := Load(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if prev, dup := names[spec.Name]; dup {
			t.Errorf("%s: duplicate scenario name %q (also %s)", p, spec.Name, prev)
		}
		names[spec.Name] = p
		if _, err := Compile(spec); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

// TestFrameFitsSuccessDuration pins the accepting side of the rule
// frame_us ≤ ts_us: a frame as long as the success duration, a longer
// success duration carrying a longer frame, and short per-group mac
// framing all compile.
func TestFrameFitsSuccessDuration(t *testing.T) {
	for _, spec := range []Spec{
		{Name: "equal", SimTimeMicros: 1e6, FrameMicros: defaultTsMicros, Stations: []Group{{Count: 2}}},
		{Name: "long-ts", SimTimeMicros: 1e6, TsMicros: 6000, FrameMicros: 5000, Stations: []Group{{Count: 2}}},
		{Name: "mac-group", Engine: EngineMac, SimTimeMicros: 1e6, TsMicros: 4000, Stations: []Group{{Count: 1, FrameMicros: 3000}, {Count: 1, FrameMicros: 150}}},
	} {
		if _, err := Compile(spec); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
}

// TestStationCapFillsTheTEISpace: a mac point at the station cap
// compiles and runs, and its transmitters take distinct unicast TEIs
// (never 0 or the broadcast 255) — one station more is a Validate error
// (TestInvalidSpecs), not a reused TEI or a panic in the engine.
func TestStationCapFillsTheTEISpace(t *testing.T) {
	spec := Spec{Name: "cap", Engine: EngineMac, SimTimeMicros: 1e4, Stations: []Group{{Count: maxStations - 3}, {Count: 3}}}
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	nw := buildMac(c.Points[0].MacPlan, 1)
	for _, st := range nw.Stations() {
		if st.TEI == 0 || st.TEI == 255 {
			t.Errorf("station %s got reserved TEI %d", st.Name, st.TEI)
		}
	}
	if got := len(nw.Stations()); got != maxStations+1 {
		t.Errorf("%d stations attached, want %d transmitters and the destination", got, maxStations)
	}
	if _, err := RunOnce(c.Points[0], 1); err != nil {
		t.Fatal(err)
	}
}

// TestModelCostBound: the bound rejects only model specs. The widest
// shapes the benchmarks draw (three hetero groups of 256-slot windows)
// stay far below it, and a simulator spec with the same huge window as
// a rejected model spec still compiles: its cost is sim_time_us.
func TestModelCostBound(t *testing.T) {
	wide := []int{32, 64, 128, 256}
	deferral := []int{1, 2, 4, 8}
	hetero := Spec{Name: "hetero", Engine: EngineModel, SimTimeMicros: 5e7, Stations: []Group{
		{Count: 5, CW: wide, DC: deferral}, {Count: 5, CW: wide, DC: deferral}, {Count: 5, CW: wide, DC: deferral},
	}}
	if _, err := Compile(hetero); err != nil {
		t.Fatal(err)
	}
	huge := Spec{Name: "huge", SimTimeMicros: 1e5, Stations: []Group{{Count: 2, CW: []int{8, 1000000}, DC: []int{0, 1}}}}
	if _, err := Compile(huge); err != nil {
		t.Errorf("sim spec: %v", err)
	}
	huge.Engine = EngineModel
	if _, err := Compile(huge); err == nil || !strings.Contains(err.Error(), `"cw"`) {
		t.Errorf("model spec: %v, want the cost bound naming \"cw\"", err)
	}
}
