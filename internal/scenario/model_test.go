package scenario

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// modelSpec is a small heterogeneous model-engine scenario.
func modelSpec() Spec {
	return Spec{
		Name:          "model-test",
		Engine:        EngineModel,
		SimTimeMicros: 1e7,
		Stations: []Group{
			{Count: 2},
			{Count: 2, CW: []int{4, 8, 16, 32}, DC: []int{0, 1, 3, 15}, ErrorProb: 0.1},
		},
	}
}

// TestModelEngineCompilesAndEvaluates: the model engine produces the
// sim engine's canonical metric names, deterministically — the seed
// must not enter the evaluation anywhere.
func TestModelEngineCompilesAndEvaluates(t *testing.T) {
	c, err := Compile(modelSpec())
	if err != nil {
		t.Fatal(err)
	}
	if c.Spec.Engine != EngineModel {
		t.Fatalf("normalized engine %q", c.Spec.Engine)
	}
	p := c.Points[0]
	if p.ModelPlan == nil || p.SimInputs != nil || p.MacPlan != nil {
		t.Fatalf("model spec compiled to the wrong plan: %+v", p)
	}
	if len(p.ModelPlan.Groups) != 2 || p.ModelPlan.Groups[1].ErrorProb != 0.1 {
		t.Fatalf("model plan groups: %+v", p.ModelPlan.Groups)
	}

	m1, err := RunOnce(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := RunOnce(p, 99999)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := MetricNames(EngineModel)
	if len(m1) != len(wantNames) {
		t.Fatalf("%d metrics, want %d", len(m1), len(wantNames))
	}
	byName := map[string]float64{}
	for i, name := range wantNames {
		if m1[i].Name != name {
			t.Errorf("metric %d = %q, want %q (canonical model order)", i, m1[i].Name, name)
		}
		if m1[i].Value != m2[i].Value {
			t.Errorf("metric %s differs across seeds: %v vs %v (model points must be deterministic)",
				name, m1[i].Value, m2[i].Value)
		}
		if math.IsNaN(m1[i].Value) || m1[i].Value < 0 {
			t.Errorf("metric %s = %v", name, m1[i].Value)
		}
		byName[m1[i].Name] = m1[i].Value
	}
	if byName["frame_errors"] <= 0 {
		t.Error("error_prob group predicted no frame errors")
	}
	if byName["elapsed_us"] != 1e7 {
		t.Errorf("elapsed_us = %v, want the spec horizon", byName["elapsed_us"])
	}
	// Both groups default to CA1, so the per-class split must place the
	// whole throughput in CA1 and leave the other classes at zero.
	if byName["throughput_ca1"] != byName["norm_throughput"] {
		t.Errorf("throughput_ca1 = %v, want the single class to carry norm_throughput %v",
			byName["throughput_ca1"], byName["norm_throughput"])
	}
	for _, n := range []string{"throughput_ca0", "collision_pr_ca0", "throughput_ca2",
		"collision_pr_ca2", "throughput_ca3", "collision_pr_ca3"} {
		if byName[n] != 0 {
			t.Errorf("%s = %v, want 0 for an absent class", n, byName[n])
		}
	}
}

// TestModelEngineRepsCollapse: deterministic points collapse any
// requested replication count to a single evaluation per point.
func TestModelEngineRepsCollapse(t *testing.T) {
	s := modelSpec()
	s.Stations = s.Stations[:1]
	s.SweepN = []int{1, 2, 5}
	c, err := Compile(s)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replications(c, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reps != 1 {
		t.Fatalf("model report reps = %d, want 1 (collapsed)", rep.Reps)
	}
	if len(rep.Points) != 3 {
		t.Fatalf("%d points", len(rep.Points))
	}
	for _, p := range rep.Points {
		if len(p.PerRep) != 1 {
			t.Errorf("N=%d: %d replications recorded", p.N, len(p.PerRep))
		}
		for _, m := range p.Metrics {
			if m.Summary.N != 1 || m.Summary.CI95 != 0 {
				t.Errorf("N=%d %s: n=%d ci=%v, want a single zero-width sample",
					p.N, m.Name, m.Summary.N, m.Summary.CI95)
			}
		}
	}
	// Any reps value must produce the identical report.
	rep2, err := Replications(c, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := rep.Write(&b1); err != nil {
		t.Fatal(err)
	}
	if err := rep2.Write(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Error("model reports differ across requested rep counts")
	}
}

// TestModelEngineAcceptsWidenedRegimes: the loaded fixed point covers
// Poisson traffic, silent groups and mixed CA0–CA3 priorities, so
// engine "model" must validate, compile and evaluate them to finite
// NaN-free metrics.
func TestModelEngineAcceptsWidenedRegimes(t *testing.T) {
	base := func() Spec {
		return Spec{
			Name:          "model-wide",
			Engine:        EngineModel,
			SimTimeMicros: 1e7,
			Stations:      []Group{{Count: 2}},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"poisson", func(s *Spec) {
			s.Stations[0].Traffic = &Traffic{Kind: TrafficPoisson, MeanInterarrivalMicros: 1e5}
		}},
		{"silent-group", func(s *Spec) {
			s.Stations = append(s.Stations, Group{Count: 3, Traffic: &Traffic{Kind: TrafficNone}})
		}},
		{"mixed-priorities", func(s *Spec) {
			s.Stations = append(s.Stations, Group{Count: 1, Priority: "CA3",
				Traffic: &Traffic{Kind: TrafficPoisson, MeanInterarrivalMicros: 2e5}})
		}},
		{"all-four-classes", func(s *Spec) {
			s.Stations = []Group{
				{Count: 1, Priority: "CA0", Traffic: &Traffic{Kind: TrafficPoisson, MeanInterarrivalMicros: 1e5}},
				{Count: 1, Priority: "CA1", Traffic: &Traffic{Kind: TrafficPoisson, MeanInterarrivalMicros: 1e5}},
				{Count: 1, Priority: "CA2", Traffic: &Traffic{Kind: TrafficPoisson, MeanInterarrivalMicros: 1e5}},
				{Count: 1, Priority: "CA3", Traffic: &Traffic{Kind: TrafficPoisson, MeanInterarrivalMicros: 1e5}},
			}
		}},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(&s)
		if err := s.Validate(); err != nil {
			t.Errorf("%s: engine model rejected a now-expressible spec: %v", tc.name, err)
			continue
		}
		c, err := Compile(s)
		if err != nil {
			t.Errorf("%s: compile: %v", tc.name, err)
			continue
		}
		m, err := RunOnce(c.Points[0], 1)
		if err != nil {
			t.Errorf("%s: RunOnce: %v", tc.name, err)
			continue
		}
		for _, mm := range m {
			if math.IsNaN(mm.Value) || math.IsInf(mm.Value, 0) || mm.Value < 0 {
				t.Errorf("%s: metric %s = %v", tc.name, mm.Name, mm.Value)
			}
		}
	}
}

// TestModelEngineRejectsEventDrivenFeatures: only genuinely
// event-driven features — beacons, multi-MPDU bursts, per-group PHY
// framing — still force the event-driven MAC, and the validation error
// must name every offending feature without ever claiming a supported
// regime (Poisson load, silence, priorities) is unsupported.
func TestModelEngineRejectsEventDrivenFeatures(t *testing.T) {
	base := func() Spec {
		return Spec{
			Name:          "model-bad",
			Engine:        EngineModel,
			SimTimeMicros: 1e6,
			Stations:      []Group{{Count: 2}},
		}
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string // substring the error must carry for this feature
	}{
		{"beacons", func(s *Spec) { s.BeaconPeriodMicros = 33330 }, "beacons"},
		{"bursts", func(s *Spec) { s.Stations[0].BurstMPDUs = 2 }, "burst of 2 MPDUs"},
		{"framing", func(s *Spec) { s.Stations[0].PBsPerMPDU = 3 }, "PHY framing"},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: engine model accepted an inexpressible spec", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), `engine "model" cannot express`) {
			t.Errorf("%s: error %q does not name the unsupported feature contract", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name the offending feature (%q)", tc.name, err, tc.want)
		}
	}

	// A spec mixing supported regimes with several unsupported features
	// must list every unsupported feature at once — and none of the
	// supported ones.
	s := base()
	s.BeaconPeriodMicros = 33330
	s.Stations = []Group{
		{Count: 2, Traffic: &Traffic{Kind: TrafficPoisson, MeanInterarrivalMicros: 1e5}},
		{Count: 1, Priority: "CA3", BurstMPDUs: 4},
		{Count: 1, Priority: "CA0", Traffic: &Traffic{Kind: TrafficNone}},
	}
	err := s.Validate()
	if err == nil {
		t.Fatal("engine model accepted beacons+bursts")
	}
	msg := err.Error()
	for _, want := range []string{"beacons", "burst of 4 MPDUs"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q omits unsupported feature %q", msg, want)
		}
	}
	for _, never := range []string{"poisson", "Poisson", "none", "silent", "priorit", "traffic"} {
		if strings.Contains(msg, never) {
			t.Errorf("error %q claims supported regime %q is unsupported", msg, never)
		}
	}
}

// checkEnvelope asserts one comparison stays inside the repository's
// model-accuracy envelope: throughput within 5% relative, collision
// probability within 0.04 absolute of the simulated mean.
func checkEnvelope(t *testing.T, label string, cmp *CompareReport) {
	t.Helper()
	for _, p := range cmp.Points {
		for _, m := range p.Metrics {
			switch m.Name {
			case "norm_throughput":
				if m.RelDiff > 0.05 {
					t.Errorf("%s N=%d: model throughput %v vs sim %v — %.1f%% off, outside the 5%% envelope",
						label, p.N, m.Model, m.Sim.Mean, 100*m.RelDiff)
				}
			case "collision_pr":
				// The decoupling approximation is weakest at N=2
				// (≈0.03 high, the band TestFigure2ModelShape also
				// widens); 0.04 bounds every shipped point.
				if m.AbsDiff > 0.04 {
					t.Errorf("%s N=%d: model collision %v vs sim %v — |Δ| %.4f outside 0.04",
						label, p.N, m.Model, m.Sim.Mean, m.AbsDiff)
				}
			}
		}
	}
}

// TestModelTracksSimulationEnvelope is the accuracy pin of the model
// engine in its classic regime: on the shipped saturation sweep (the
// paper's Figure 2 regime) the analytic throughput and collision
// probability must track the slot-synchronous simulator within the
// paper's reported accuracy envelope.
func TestModelTracksSimulationEnvelope(t *testing.T) {
	spec, err := Load("../../examples/scenarios/saturation-sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	spec.SimTimeMicros = 2e7 // shorter horizon: sampling noise ≪ model error
	cmp, err := Compare(spec, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Points) != len(spec.SweepN) {
		t.Fatalf("%d comparison points, want %d", len(cmp.Points), len(spec.SweepN))
	}
	checkEnvelope(t, "saturation", cmp)
}

// TestModelTracksLoadedEnvelope pins the widened regimes the loaded
// fixed point added — unsaturated Poisson load, silent groups, mixed
// priority classes — against the event-driven MAC (the only simulator
// that expresses them), inside the same accuracy envelope. These are
// spot checks; the full shipped grids run through the campaign-level
// envelope suite in internal/campaign.
func TestModelTracksLoadedEnvelope(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"poisson-load", Spec{
			Name: "poisson-load", SimTimeMicros: 5e7, Seed: 7,
			Stations: []Group{
				{Count: 5, Traffic: &Traffic{Kind: TrafficPoisson, MeanInterarrivalMicros: 1e5}},
			},
		}},
		{"silent-bystanders", Spec{
			Name: "silent-bystanders", SimTimeMicros: 5e7, Seed: 7,
			Stations: []Group{
				{Count: 2, Traffic: &Traffic{Kind: TrafficPoisson, MeanInterarrivalMicros: 4e4}},
				{Count: 2, Traffic: &Traffic{Kind: TrafficNone}},
			},
		}},
		{"priority-mix", Spec{
			Name: "priority-mix", SimTimeMicros: 5e7, Seed: 7,
			Stations: []Group{
				{Count: 2, Priority: "CA1"},
				{Count: 1, Priority: "CA3", Traffic: &Traffic{Kind: TrafficPoisson, MeanInterarrivalMicros: 1e5}},
			},
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cmp, err := Compare(tc.spec, 3, 2)
			if err != nil {
				t.Fatal(err)
			}
			checkEnvelope(t, tc.name, cmp)
		})
	}
}

// TestModelFlowConservationVsMac: in a stable unsaturated regime the
// model's delivered-frame count is pinned by flow conservation
// (deliveries ≈ offered load), and the event-driven MAC must agree —
// a regime-specific property sharper than the generic envelope.
func TestModelFlowConservationVsMac(t *testing.T) {
	spec := Spec{
		Name: "flow", SimTimeMicros: 5e7, Seed: 11,
		Stations: []Group{
			{Count: 4, Traffic: &Traffic{Kind: TrafficPoisson, MeanInterarrivalMicros: 1e5}},
		},
	}
	cmp, err := Compare(spec, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	offered := 4 * spec.SimTimeMicros / 1e5 // stations × horizon × λ
	for _, m := range cmp.Points[0].Metrics {
		if m.Name != "successes" {
			continue
		}
		if rel := math.Abs(m.Model-offered) / offered; rel > 0.02 {
			t.Errorf("model deliveries %v vs offered %v: %.2f%% off (flow conservation)",
				m.Model, offered, 100*rel)
		}
		// The simulated mean fluctuates with Poisson arrivals; 5%
		// bounds it comfortably at this horizon.
		if rel := math.Abs(m.Sim.Mean-offered) / offered; rel > 0.05 {
			t.Errorf("mac deliveries %v vs offered %v: %.2f%% off", m.Sim.Mean, offered, 100*rel)
		}
	}
}

// TestLoadedFlowConservationExact: on the shipped Poisson-load
// examples every class is stable, so the model's delivered frames must
// equal the offered load Σ N·T/interarrival to solver precision — a
// converged fixed point leaves no visible flow residual.
func TestLoadedFlowConservationExact(t *testing.T) {
	for _, path := range []string{
		"../../examples/scenarios/model-poisson-load.json",
		"../../examples/scenarios/model-priority-mix.json",
	} {
		spec, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		var offered float64
		for _, g := range spec.Stations {
			offered += float64(g.Count) * spec.SimTimeMicros / g.Traffic.MeanInterarrivalMicros
		}
		c, err := Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := RunOnce(c.Points[0], 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			if m.Name != "successes" {
				continue
			}
			if rel := math.Abs(m.Value-offered) / offered; rel > 1e-11 {
				t.Errorf("%s: successes %.10f, offered %.10f (rel err %.2g > 1e-11)", spec.Name, m.Value, offered, rel)
			}
		}
	}
}

// TestModelStarvationVsMac: a saturated CA3 class starves CA1 to
// exactly zero in the model; the event-driven MAC's frozen-backoff
// semantics must agree that the low class delivers (essentially)
// nothing.
func TestModelStarvationVsMac(t *testing.T) {
	spec := Spec{
		Name: "starve", SimTimeMicros: 2e7, Seed: 13,
		Stations: []Group{
			{Count: 1, Priority: "CA3"},
			{Count: 2, Priority: "CA1"},
		},
	}
	// The per-class split is model-only (the MAC reports aggregates), so
	// check it on the model evaluation directly.
	ms := spec
	ms.Engine = EngineModel
	mc, err := Compile(ms)
	if err != nil {
		t.Fatal(err)
	}
	mm, err := RunOnce(mc.Points[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mm {
		if m.Name == "throughput_ca1" && m.Value != 0 {
			t.Errorf("model CA1 throughput %v under a saturated CA3, want exactly 0", m.Value)
		}
	}
	cmp, err := Compare(spec, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range cmp.Points[0].Metrics {
		if m.Name == "norm_throughput" && m.RelDiff > 0.05 {
			t.Errorf("starved-mix throughput: model %v vs mac %v (%.1f%% off)",
				m.Model, m.Sim.Mean, 100*m.RelDiff)
		}
	}
}

// TestCompareReportShape covers the comparison plumbing itself.
func TestCompareReportShape(t *testing.T) {
	s := modelSpec()
	s.Engine = "" // Compare must work from an engine-agnostic spec
	cmp, err := Compare(s, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Reps != 3 || len(cmp.Points) != 1 {
		t.Fatalf("comparison shape: reps=%d points=%d", cmp.Reps, len(cmp.Points))
	}
	names := map[string]bool{}
	for _, m := range cmp.Points[0].Metrics {
		names[m.Name] = true
		if m.Sim.N != 3 {
			t.Errorf("%s: sim side aggregated n=%d, want 3", m.Name, m.Sim.N)
		}
		if m.AbsDiff != math.Abs(m.Model-m.Sim.Mean) {
			t.Errorf("%s: abs diff %v inconsistent", m.Name, m.AbsDiff)
		}
	}
	for _, want := range []string{"collision_pr", "norm_throughput", "successes"} {
		if !names[want] {
			t.Errorf("comparison missing metric %s", want)
		}
	}
	var buf bytes.Buffer
	if err := cmp.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("analytic model vs engine sim")) {
		t.Errorf("comparison rendering:\n%s", buf.String())
	}

	// A spec the slot-synchronous engine cannot express falls back to
	// the event-driven MAC on the simulation side.
	wide := modelSpec()
	wide.Engine = ""
	wide.Stations[0].Traffic = &Traffic{Kind: TrafficPoisson, MeanInterarrivalMicros: 1e5}
	wcmp, err := Compare(wide, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wcmp.Spec.Engine != EngineMac {
		t.Errorf("widened-regime comparison simulated with %q, want mac", wcmp.Spec.Engine)
	}
	buf.Reset()
	if err := wcmp.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("analytic model vs engine mac")) {
		t.Errorf("mac-fallback rendering:\n%s", buf.String())
	}

	// A mac-only spec cannot be compared.
	bad := modelSpec()
	bad.Engine = ""
	bad.BeaconPeriodMicros = 33330
	if _, err := Compare(bad, 2, 1); err == nil {
		t.Error("Compare accepted a mac-only spec")
	}
}
