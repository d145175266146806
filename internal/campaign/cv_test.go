package campaign

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// cvSweepSpec builds the acceptance campaign: an adaptive saturation
// sweep over the station count, targeting the paper's headline
// collision probability at a ±0.002 half-width — tight enough that the
// plain estimator needs hundreds of replications per point, so the
// control variate has real work to do. withCV toggles the single
// spec-level switch under test; everything else (seeds, horizon, grid)
// is shared, which is what makes the plain and CV runs a common-random-
// numbers pair.
func cvSweepSpec(t *testing.T, withCV bool) Spec {
	t.Helper()
	base := baseSpec()
	base.SimTimeMicros = 1e6
	base.Stations = []scenario.Group{{Count: 1}}
	if withCV {
		base.VarianceReduction = &scenario.VarianceReduction{Kind: scenario.VRControlVariate}
	}
	return Spec{
		Name:      "cv-acceptance",
		Base:      base,
		Axes:      []Axis{{Path: "n", Values: rawVals(t, 2, 3, 5)}},
		Targets:   []Target{{Metric: "collision_pr", CI: 0.002}},
		MinReps:   4,
		MaxReps:   2000,
		BatchReps: 2,
	}
}

// collisionEstimate extracts a point's operative collision_pr estimate:
// the CV-adjusted mean and half-width when a fit applied, the raw
// summary otherwise — exactly what the adaptive stopping rule consumed.
func collisionEstimate(t *testing.T, p PointResult) (mean, hw float64) {
	t.Helper()
	for _, m := range p.Report.Points[0].Metrics {
		if m.Name != "collision_pr" {
			continue
		}
		if m.CV != nil && m.CV.Applied {
			return m.CV.Mean, m.CV.CI95
		}
		return m.Summary.Mean, m.Summary.CI95
	}
	t.Fatal("collision_pr missing from point report")
	return 0, 0
}

// TestControlVariateAcceptance is the PR's headline acceptance test:
// on the adaptive saturation sweep, the control-variate estimator must
// reach the same CI half-width target in at least 3× fewer simulated
// replications than the plain estimator on the same seed stream, while
// the two estimates agree within their combined intervals. The run is
// deterministic (fixed seeds, serial ≡ parallel below), so a regression
// in the estimator, the controls, or the stopping rule fails this
// reproducibly rather than flakily.
func TestControlVariateAcceptance(t *testing.T) {
	plainC, err := Compile(cvSweepSpec(t, false))
	if err != nil {
		t.Fatal(err)
	}
	cvC, err := Compile(cvSweepSpec(t, true))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(plainC, Opts{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cv, err := Run(cvC, Opts{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	for i, p := range plain.Points {
		if !p.Converged {
			t.Fatalf("plain point %d failed to converge within the cap; loosen the target", i)
		}
		if !cv.Points[i].Converged {
			t.Fatalf("cv point %d failed to converge within the cap", i)
		}
	}
	t.Logf("simulated reps: plain %d, cv %d (%.1f×)",
		plain.SimulatedReps, cv.SimulatedReps, float64(plain.SimulatedReps)/float64(cv.SimulatedReps))
	if cv.SimulatedReps*3 > plain.SimulatedReps {
		t.Errorf("control variate simulated %d reps vs plain %d — less than the 3× acceptance bound",
			cv.SimulatedReps, plain.SimulatedReps)
	}

	for i := range plain.Points {
		pm, phw := collisionEstimate(t, plain.Points[i])
		cm, chw := collisionEstimate(t, cv.Points[i])
		if diff := math.Abs(pm - cm); diff > phw+chw {
			t.Errorf("point %d: plain %v±%v and cv %v±%v disagree beyond the combined interval",
				i, pm, phw, cm, chw)
		}
		if cv.Points[i].Reps > plain.Points[i].Reps {
			t.Errorf("point %d: cv used more reps (%d) than plain (%d)", i, cv.Points[i].Reps, plain.Points[i].Reps)
		}
		if s := cv.Points[i].Speedup; !(s >= 1) {
			t.Errorf("point %d: speedup %v, want ≥ 1 (the no-benefit gate declines worse fits)", i, s)
		}
		if plain.Points[i].Speedup != 0 {
			t.Errorf("point %d: plain campaign reports speedup %v, want 0/omitted", i, plain.Points[i].Speedup)
		}
	}
}

// TestCVCampaignSerialParallelIdentical pins CRN determinism at the
// campaign level: the whole CV report — estimates, betas, speedups,
// per-rep controls — is byte-identical whatever the worker count, and
// stable across reruns.
func TestCVCampaignSerialParallelIdentical(t *testing.T) {
	spec := cvSweepSpec(t, true)
	spec.Targets = []Target{{Metric: "collision_pr", CI: 0.005}}
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Run(c, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(c, Opts{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(c, Opts{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	if runJSON(t, serial) != runJSON(t, parallel) {
		t.Error("serial and parallel CV campaigns diverge")
	}
	if runJSON(t, parallel) != runJSON(t, again) {
		t.Error("CV campaign not stable across reruns")
	}
}

// TestCVCampaignPointMatchesStandalone asserts every CV campaign
// point's embedded report is byte-identical to running the expanded
// spec through scenario.Replications at the same count — the campaign's
// incremental paired accumulation must not produce different bytes than
// the scenario layer's one-shot reduction.
func TestCVCampaignPointMatchesStandalone(t *testing.T) {
	spec := cvSweepSpec(t, true)
	spec.Targets = nil
	spec.MinReps, spec.MaxReps, spec.BatchReps = 0, 0, 0
	spec.Reps = 12
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(c, Opts{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range rep.Points {
		sc, err := scenario.Compile(c.Points[i].Spec)
		if err != nil {
			t.Fatal(err)
		}
		standalone, err := scenario.Replications(sc, 12, 1)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(p.Report)
		wantJSON, _ := json.Marshal(standalone)
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("point %d: campaign CV report differs from standalone run\ncampaign:   %s\nstandalone: %s",
				i, gotJSON, wantJSON)
		}
	}
}

// TestCVCacheRerunZeroWork extends the "nearly free rerun" property to
// CV campaigns: cached point reports carry the control vectors, so a
// rerun adopts them, reaches the same stopping decisions and simulates
// nothing.
func TestCVCacheRerunZeroWork(t *testing.T) {
	spec := cvSweepSpec(t, true)
	spec.Targets = []Target{{Metric: "collision_pr", CI: 0.005}}
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	cache := newMapCache()
	first, err := Run(c, Opts{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if first.SimulatedReps == 0 {
		t.Fatal("first run simulated nothing")
	}
	second, err := Run(c, Opts{Cache: cache, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if second.SimulatedReps != 0 {
		t.Errorf("rerun simulated %d replications, want 0 (all batches cached with controls)", second.SimulatedReps)
	}
	if runJSON(t, first) != runJSON(t, second) {
		t.Error("cached CV rerun differs from computed run")
	}

	// A cached report stripped of its control vectors (e.g. written by a
	// pre-CV binary under a colliding key — impossible via fingerprints,
	// but cheap to defend) must be rejected, not adopted into a point
	// whose later batches could not carry the CV reduction.
	for k, v := range cache.m {
		clone := *v
		clone.Points = append([]scenario.PointReport(nil), v.Points...)
		clone.Points[0].Controls = nil
		cache.m[k] = &clone
	}
	third, err := Run(c, Opts{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if third.SimulatedReps != first.SimulatedReps {
		t.Errorf("run against control-less cache simulated %d reps, want %d (entries unusable)",
			third.SimulatedReps, first.SimulatedReps)
	}
	if runJSON(t, first) != runJSON(t, third) {
		t.Error("recomputed run differs after rejecting control-less cache entries")
	}
}

// TestCVGridRendersSpeedupColumn checks the consolidated table: CV
// campaigns grow a speedup column and print the reduced intervals;
// plain campaigns keep the historical header, so the goldens that
// predate the estimator cannot shift.
func TestCVGridRendersSpeedupColumn(t *testing.T) {
	spec := cvSweepSpec(t, true)
	spec.Targets = []Target{{Metric: "collision_pr", CI: 0.005}}
	c, err := Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(c, Opts{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "speedup") {
		t.Errorf("CV campaign table lacks the speedup column:\n%s", out)
	}

	plainC, err := Compile(cvSweepSpec(t, false))
	if err != nil {
		t.Fatal(err)
	}
	plainRep, err := Run(plainC, Opts{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := plainRep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "speedup") {
		t.Errorf("plain campaign table grew a speedup column:\n%s", buf.String())
	}
}
