package campaign

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// baseSpec is a fast sim-engine scenario used throughout the tests.
func baseSpec() scenario.Spec {
	return scenario.Spec{
		Name:          "camp-base",
		SimTimeMicros: 1e6,
		Seed:          7,
		Stations:      []scenario.Group{{Count: 2}},
	}
}

func rawVals(t *testing.T, vs ...any) []json.RawMessage {
	t.Helper()
	out := make([]json.RawMessage, len(vs))
	for i, v := range vs {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	return out
}

func TestValidateAndNormalize(t *testing.T) {
	s := Spec{
		Name: "grid",
		Base: baseSpec(),
		Axes: []Axis{
			{Path: "n", Values: rawVals(t, 1, 2)},
			{Path: "stations[0].error_prob", Values: rawVals(t, 0, 0.2)},
		},
	}
	norm, err := s.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Reps != defaultReps {
		t.Errorf("fixed reps not defaulted: %d", norm.Reps)
	}
	if norm.Base.Engine != scenario.EngineSim {
		t.Errorf("base engine not resolved: %q", norm.Base.Engine)
	}
	again, err := norm.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(norm, again) {
		t.Errorf("Normalized not idempotent:\nonce:  %+v\ntwice: %+v", norm, again)
	}

	f1, err := Fingerprint(s)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Fingerprint(norm)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Errorf("fingerprint unstable across normalization: %s vs %s", f1, f2)
	}
}

func TestValidateErrors(t *testing.T) {
	ax := func(a ...Axis) []Axis { return a }
	nAxis := Axis{Path: "n", Values: rawVals(t, 1, 2)}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"missing name", func(s *Spec) { s.Name = "" }, `missing "name"`},
		{"no axes", func(s *Spec) { s.Axes = nil }, "at least one sweep dimension"},
		{"sweep_n base", func(s *Spec) { s.Base.SweepN = []int{1, 2} }, `must not use "sweep_n"`},
		{"reserved seed", func(s *Spec) { s.Axes = ax(Axis{Path: "seed", Values: rawVals(t, 1)}) }, "cannot be swept"},
		{"empty axis", func(s *Spec) { s.Axes = ax(Axis{Path: "n"}) }, `missing "values"`},
		{"values and range", func(s *Spec) {
			f := 1.0
			s.Axes = ax(Axis{Path: "n", Values: rawVals(t, 1), From: &f, To: &f, Step: &f})
		}, "not both"},
		{"bad range", func(s *Spec) {
			from, to, step := 5.0, 1.0, 1.0
			s.Axes = ax(Axis{Path: "sim_time_us", From: &from, To: &to, Step: &step})
		}, `"to" = 1 < "from" = 5`},
		{"zero step", func(s *Spec) {
			from, to, step := 1.0, 5.0, 0.0
			s.Axes = ax(Axis{Path: "sim_time_us", From: &from, To: &to, Step: &step})
		}, `"step"`},
		{"n needs one group", func(s *Spec) {
			s.Base.Stations = []scenario.Group{{Count: 1}, {Count: 1}}
			s.Axes = ax(nAxis)
		}, `exactly one base station group`},
		{"min>max", func(s *Spec) {
			s.Targets = []Target{{Metric: "norm_throughput", CI: 0.1}}
			s.MinReps, s.MaxReps = 9, 3
		}, `"min_reps" = 9 > "max_reps" = 3`},
		{"reps with targets", func(s *Spec) {
			s.Targets = []Target{{Metric: "norm_throughput", CI: 0.1}}
			s.Reps = 5
		}, "mutually exclusive"},
		{"adaptive fields without targets", func(s *Spec) { s.MinReps = 3 }, `need "targets"`},
		{"target both goals", func(s *Spec) {
			s.Targets = []Target{{Metric: "x", CI: 0.1, RelCI: 0.1}}
		}, `exactly one of "ci" and "rel_ci"`},
		{"target no metric", func(s *Spec) {
			s.Targets = []Target{{CI: 0.1}}
		}, `missing "metric"`},
		{"grid too big", func(s *Spec) {
			vals := make([]json.RawMessage, 100)
			for i := range vals {
				vals[i] = json.RawMessage("1")
			}
			s.Axes = ax(Axis{Path: "seed_bits", Values: vals}, Axis{Path: "x", Values: vals}, Axis{Path: "y", Values: vals})
		}, "exceeds 4096 points"},
	}
	for _, tc := range cases {
		s := Spec{Name: "bad", Base: baseSpec(), Axes: []Axis{nAxis}}
		s.Base.Stations = []scenario.Group{{Count: 1}}
		tc.mut(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: invalid campaign accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestRangeAxis(t *testing.T) {
	from, to, step := 0.0, 0.3, 0.1
	s := Spec{
		Name: "range",
		Base: baseSpec(),
		Axes: []Axis{{Path: "stations[0].error_prob", From: &from, To: &to, Step: &step}},
		Reps: 2,
	}
	norm, err := s.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if len(norm.Axes[0].Values) != 4 {
		t.Fatalf("range 0..0.3 step 0.1 expanded to %d values (%v), want 4 (endpoint included)",
			len(norm.Axes[0].Values), norm.Axes[0].Values)
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points) != 4 {
		t.Fatalf("%d points, want 4", len(c.Points))
	}
	// Float accumulation must not push the endpoint past "to": the last
	// value is exactly 0.3, so its fingerprint matches a hand-written
	// spec with the same literal (the cross-surface dedupe property).
	if got := c.Points[3].Spec.Stations[0].ErrorProb; got != 0.3 {
		t.Errorf("range endpoint = %v, want exactly 0.3 (clamped)", got)
	}
	if s.GridSize() != 4 {
		t.Errorf("GridSize = %d, want 4", s.GridSize())
	}
}

func TestGridSizeMatchesCompile(t *testing.T) {
	from, to, step := 1.0, 5.0, 2.0
	s := Spec{
		Name: "gridsize",
		Base: baseSpec(),
		Axes: []Axis{
			{Path: "n", Values: rawVals(t, 1, 2)},
			{Path: "sim_time_us", From: &from, To: &to, Step: &step},
		},
		Reps: 1,
	}
	s.Base.Stations = []scenario.Group{{Count: 1}}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if s.GridSize() != len(c.Points) {
		t.Errorf("GridSize = %d, Compile expanded %d points", s.GridSize(), len(c.Points))
	}
	norm, err := s.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.GridSize() != len(c.Points) {
		t.Errorf("normalized GridSize = %d, want %d", norm.GridSize(), len(c.Points))
	}
}

func TestCompileExpandsCrossProduct(t *testing.T) {
	s := Spec{
		Name: "grid",
		Base: baseSpec(),
		Axes: []Axis{
			{Path: "n", Values: rawVals(t, 1, 3)},
			{Path: "stations[0].error_prob", Values: rawVals(t, 0, 0.25, 0.5)},
		},
		Reps: 2,
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points) != 6 {
		t.Fatalf("%d points, want 6", len(c.Points))
	}
	// Row-major: the last axis (error_prob) varies fastest.
	wantN := []int{1, 1, 1, 3, 3, 3}
	wantE := []float64{0, 0.25, 0.5, 0, 0.25, 0.5}
	for i, p := range c.Points {
		if p.Spec.Stations[0].Count != wantN[i] {
			t.Errorf("point %d: n = %d, want %d", i, p.Spec.Stations[0].Count, wantN[i])
		}
		if p.Spec.Stations[0].ErrorProb != wantE[i] {
			t.Errorf("point %d: error_prob = %v, want %v", i, p.Spec.Stations[0].ErrorProb, wantE[i])
		}
		if p.Index != i {
			t.Errorf("point %d: index %d", i, p.Index)
		}
		if got := len(p.Labels); got != 2 {
			t.Errorf("point %d: %d labels", i, got)
		}
	}
	// Split policy: point i's seed is base + golden·i.
	for i, p := range c.Points {
		if want := uint64(7) + golden*uint64(i); p.Spec.Seed != want {
			t.Errorf("point %d: seed %d, want %d", i, p.Spec.Seed, want)
		}
	}
}

func TestCompileVectorAxis(t *testing.T) {
	s := Spec{
		Name: "vectors",
		Base: baseSpec(),
		Axes: []Axis{
			{Path: "stations[0].cw", Values: []json.RawMessage{json.RawMessage(`[8,16,32,64]`), json.RawMessage(`[4,8,16,32]`)}},
			{Path: "stations[0].dc", Values: []json.RawMessage{json.RawMessage(`[0,1,3,15]`)}},
		},
		Reps: 1,
	}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points) != 2 {
		t.Fatalf("%d points, want 2", len(c.Points))
	}
	if got := c.Points[1].Spec.Stations[0].CW; !reflect.DeepEqual(got, []int{4, 8, 16, 32}) {
		t.Errorf("point 1 cw = %v", got)
	}
}

func TestCompileRejectsBadPath(t *testing.T) {
	cases := []struct {
		path string
		want string
	}{
		{"stations[0].cww", "unknown field"},
		{"stations[5].cw", "out of range"},
		{"stations[0]..cw", "empty segment"},
		{"stations[x].cw", "bad index"},
	}
	for _, tc := range cases {
		s := Spec{
			Name: "bad-path",
			Base: baseSpec(),
			Axes: []Axis{{Path: tc.path, Values: []json.RawMessage{json.RawMessage(`[8,16,32,64]`)}}},
		}
		_, err := Compile(s)
		if err == nil {
			t.Errorf("path %q accepted", tc.path)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("path %q: error %q does not mention %q", tc.path, err, tc.want)
		}
	}
}

func TestCompileRejectsUnknownTargetMetric(t *testing.T) {
	s := Spec{
		Name:    "bad-target",
		Base:    baseSpec(),
		Axes:    []Axis{{Path: "n", Values: rawVals(t, 1, 2)}},
		Targets: []Target{{Metric: "no_such_metric", CI: 0.1}},
	}
	s.Base.Stations = []scenario.Group{{Count: 1}}
	_, err := Compile(s)
	if err == nil || !strings.Contains(err.Error(), `"no_such_metric"`) {
		t.Errorf("unknown target metric not rejected by name: %v", err)
	}
}

// TestCompileRejectsNOverStationCap: an "n" value past the scenario
// station cap fails the point's own Validate, naming the field.
func TestCompileRejectsNOverStationCap(t *testing.T) {
	s := Spec{
		Name: "crowded",
		Base: baseSpec(),
		Axes: []Axis{{Path: "n", Values: rawVals(t, 2, 254)}},
	}
	s.Base.Stations = []scenario.Group{{Count: 1}}
	_, err := Compile(s)
	if err == nil || !strings.Contains(err.Error(), `"count" = 254 puts the point over the 253-station cap`) {
		t.Errorf("n over the station cap not rejected by name: %v", err)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"name":"x","axess":[]}`))
	if err == nil {
		t.Error("unknown field accepted")
	}
}

func TestPointSeedPolicies(t *testing.T) {
	if got := PointSeed(scenario.SeedIncrement, 42, 3); got != 42 {
		t.Errorf("increment point seed = %d, want 42", got)
	}
	// Split: standalone replication seeds of point i must equal the
	// legacy sweep's seeds at point i (the identity Compile relies on).
	base := uint64(9)
	for point := 0; point < 4; point++ {
		for rep := 0; rep < 3; rep++ {
			sweep := scenario.RepSeed(scenario.SeedSplit, base, point, rep)
			standalone := scenario.RepSeed(scenario.SeedSplit, PointSeed(scenario.SeedSplit, base, point), 0, rep)
			if sweep != standalone {
				t.Fatalf("point %d rep %d: sweep seed %d != standalone seed %d", point, rep, sweep, standalone)
			}
		}
	}
}
