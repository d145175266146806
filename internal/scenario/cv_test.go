package scenario

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/stats/statcheck"
)

// cvSpec is a small saturated sim spec with the given variance-
// reduction block (nil for plain).
func cvSpec(vr *VarianceReduction) Spec {
	return Spec{
		Name:              "cv-spec",
		SimTimeMicros:     3e5,
		Seed:              11,
		Stations:          []Group{{Count: 3}},
		VarianceReduction: vr,
	}
}

// TestCVDisabledBlockIsCanonicallyAbsent pins the fingerprint contract
// for the "present but disabled" spellings: kind "" or "none" must
// normalize to no block at all, so the canonical bytes — and hence the
// cache keys — coincide with a spec that never mentioned variance
// reduction. A served job submitted either way dedupes onto the same
// entry.
func TestCVDisabledBlockIsCanonicallyAbsent(t *testing.T) {
	plain := cvSpec(nil)
	for _, kind := range []string{"", VRNone} {
		disabled := cvSpec(&VarianceReduction{Kind: kind})
		pc, err := plain.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		dc, err := disabled.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pc, dc) {
			t.Errorf("kind %q: canonical bytes differ from the absent block:\n%s\n%s", kind, pc, dc)
		}
		pf, err := Fingerprint(plain, 5)
		if err != nil {
			t.Fatal(err)
		}
		df, err := Fingerprint(disabled, 5)
		if err != nil {
			t.Fatal(err)
		}
		if pf != df {
			t.Errorf("kind %q: fingerprint %s differs from the absent block's %s", kind, df, pf)
		}
	}
}

// TestCVEnabledChangesFingerprint pins the other half of the cache
// contract: an enabled estimator is a different computation, so its
// fingerprint must not collide with the plain spec's — a CV report must
// never be served from a plain cache entry or vice versa.
func TestCVEnabledChangesFingerprint(t *testing.T) {
	pf, err := Fingerprint(cvSpec(nil), 5)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := Fingerprint(cvSpec(&VarianceReduction{Kind: VRControlVariate}), 5)
	if err != nil {
		t.Fatal(err)
	}
	if pf == cf {
		t.Error("CV-enabled spec fingerprints equal to the plain spec; cache entries would collide")
	}
	// Estimator knobs are part of the computation too.
	tf, err := Fingerprint(cvSpec(&VarianceReduction{Kind: VRControlVariate, MinCorr: 0.5}), 5)
	if err != nil {
		t.Fatal(err)
	}
	if tf == cf {
		t.Error("min_corr change does not move the fingerprint")
	}
}

// TestRunOnceCVMatchesRunOnce is the per-replication CRN guarantee: the
// controls ride the very same random stream, so the metrics of a CV
// replication are bit-identical to a plain replication at the same
// seed. Everything downstream (cache adoption across plain/CV, the
// plain-vs-CV acceptance comparison) leans on this.
func TestRunOnceCVMatchesRunOnce(t *testing.T) {
	c, err := Compile(cvSpec(&VarianceReduction{Kind: VRControlVariate}))
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 5; rep++ {
		seed := RepSeed(SeedSplit, 11, 0, rep)
		plain, err := RunOnce(c.Points[0], seed)
		if err != nil {
			t.Fatal(err)
		}
		metrics, controls, err := RunOnceCV(c.Points[0], seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, metrics) {
			t.Fatalf("rep %d: CV run perturbed the metrics\nplain: %+v\ncv:    %+v", rep, plain, metrics)
		}
		if len(controls) == 0 {
			t.Fatalf("rep %d: no control vector", rep)
		}
	}
}

// TestCVReportSerialParallelIdentical extends the serial≡parallel byte
// guarantee to CV reports: estimates, betas and control vectors are
// reduced from the ordered sample, so the worker count cannot leak in.
func TestCVReportSerialParallelIdentical(t *testing.T) {
	c, err := Compile(cvSpec(&VarianceReduction{Kind: VRControlVariate}))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Replications(c, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Replications(c, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Error("serial and parallel CV reports diverge")
	}
	var sb, pb bytes.Buffer
	if err := serial.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Write(&pb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != pb.String() {
		t.Error("rendered CV reports diverge between worker counts")
	}
	// The CV lines must actually be there: at 8 reps the collision_pr
	// fit applies on this spec (guarded so a silent fallback to the
	// plain path cannot pass the equivalence checks vacuously).
	var found bool
	for _, m := range serial.Points[0].Metrics {
		if m.Name == "collision_pr" && m.CV != nil {
			found = true
		}
	}
	if !found {
		t.Error("collision_pr carries no CV estimate in the report")
	}
	if serial.Points[0].Controls == nil {
		t.Error("report lacks per-replication control vectors")
	}
}

// TestCVValidation covers the spec-level guard rails.
func TestCVValidation(t *testing.T) {
	bad := []Spec{
		func() Spec {
			s := cvSpec(&VarianceReduction{Kind: "bogus"})
			return s
		}(),
		func() Spec {
			s := cvSpec(&VarianceReduction{Kind: VRControlVariate})
			s.Engine = EngineModel
			return s
		}(),
		func() Spec {
			s := cvSpec(&VarianceReduction{Kind: VRControlVariate, MinCorr: 1.5})
			return s
		}(),
		func() Spec {
			s := cvSpec(&VarianceReduction{Kind: VRControlVariate, PilotReps: -1})
			return s
		}(),
		func() Spec {
			// Beacons force the mac engine, which has no control predictor.
			s := cvSpec(&VarianceReduction{Kind: VRControlVariate})
			s.BeaconPeriodMicros = 1000
			return s
		}(),
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d validated; want an error", i)
		}
	}
	ok := cvSpec(&VarianceReduction{Kind: VRControlVariate})
	if err := ok.Validate(); err != nil {
		t.Errorf("valid CV spec rejected: %v", err)
	}
	norm, err := ok.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	vr := norm.VarianceReduction
	if vr == nil || vr.PilotReps != stats.DefaultPilotReps || vr.MinCorr != stats.DefaultMinCorr || vr.MaxBeta != stats.DefaultMaxBeta {
		t.Errorf("normalization did not pin the estimator defaults: %+v", vr)
	}
}

// TestCICoverage is the z→t regression guard at the scenario level: on
// a tiny 8-replication study, the Student-t 95% interval — plain and
// control-variate alike — must cover the long-run mean in at least 93%
// of 200 independent trials. A z-quantile interval at n=8 covers
// roughly 87–90% and fails this bound; so would a CV interval that
// forgot to pay for its fitted coefficients (t at n−1−K, the c̄ᵀS⁻¹c̄
// term). Everything is seeded, so the observed coverage is a constant
// of the repository, not a flake.
func TestCICoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage study is ~4600 short replications")
	}
	c, err := Compile(cvSpec(&VarianceReduction{Kind: VRControlVariate}))
	if err != nil {
		t.Fatal(err)
	}
	cols := CVControlColumns("collision_pr")
	collide := func(seed uint64) (float64, []float64) {
		metrics, controls, err := RunOnceCV(c.Points[0], seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range metrics {
			if m.Name == "collision_pr" {
				row := make([]float64, len(cols))
				for ci, col := range cols {
					row[ci] = controls[col]
				}
				return m.Value, row
			}
		}
		t.Fatal("collision_pr missing")
		return 0, nil
	}

	// Long-run reference mean over 1400 replications on a seed stream
	// disjoint from every trial's.
	ref := make([]float64, 1400)
	for r := range ref {
		ref[r], _ = collide(statcheck.Seed(0xeef, r))
	}
	truth := stats.Summarize(ref).Mean

	const perTrial = 8
	var plainCov, cvCov statcheck.Coverage
	cvApplied := 0
	for trial := 0; trial < 400; trial++ {
		base := statcheck.Seed(0xc0ffee, trial)
		ys := make([]float64, perTrial)
		cs := make([][]float64, perTrial)
		for r := 0; r < perTrial; r++ {
			ys[r], cs[r] = collide(statcheck.Seed(base, r))
		}
		sum := stats.Summarize(ys)
		plainCov.Observe(math.Abs(sum.Mean-truth) <= sum.CI95)
		est := stats.SummarizeCV(ys, cs, stats.CVOpts{})
		cvCov.Observe(math.Abs(est.Mean-truth) <= est.CI95)
		if est.Applied {
			cvApplied++
		}
	}
	t.Logf("coverage over 400 trials: plain %v, cv %v (cv applied in %d trials)", plainCov, cvCov, cvApplied)
	plainCov.AssertAtLeast(t, 0.93, 0.95)
	cvCov.AssertAtLeast(t, 0.93, 0.95)
}
