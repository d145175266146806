package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/scenario"
)

// runJSON marshals a report for byte-level comparison.
func runJSON(t *testing.T, r *Report) string {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCampaignMatchesSweepN pins the legacy-equivalence property: a
// single-axis campaign over "n" produces, point for point, the very
// bytes of the sweep_n path — for both seed policies, serial and
// parallel.
func TestCampaignMatchesSweepN(t *testing.T) {
	for _, policy := range []string{scenario.SeedSplit, scenario.SeedIncrement} {
		base := baseSpec()
		base.SeedPolicy = policy
		base.Stations = []scenario.Group{{Count: 1}}
		camp := Spec{
			Name: "sweep-equiv",
			Base: base,
			Axes: []Axis{{Path: "n", Values: rawVals(t, 1, 2, 3)}},
			Reps: 4,
		}
		c, err := Compile(camp)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			rep, err := Run(c, Opts{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}

			sweep := base
			sweep.SweepN = []int{1, 2, 3}
			sc, err := scenario.Compile(sweep)
			if err != nil {
				t.Fatal(err)
			}
			legacy, err := scenario.Replications(sc, 4, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Points) != len(legacy.Points) {
				t.Fatalf("policy %s: %d campaign points vs %d sweep points", policy, len(rep.Points), len(legacy.Points))
			}
			for i := range rep.Points {
				got, want := rep.Points[i].Report.Points[0], legacy.Points[i]
				if !reflect.DeepEqual(got, want) {
					t.Errorf("policy %s workers %d point %d: campaign and sweep_n diverge\ncampaign: %+v\nsweep:    %+v",
						policy, workers, i, got, want)
				}
			}
		}
	}
}

// TestCampaignPointMatchesStandalone pins the acceptance property: on a
// ≥2-axis grid, every point's embedded report is byte-identical to
// running the expanded spec individually through the scenario layer —
// for both the sim and the model engine.
func TestCampaignPointMatchesStandalone(t *testing.T) {
	for _, engine := range []string{scenario.EngineSim, scenario.EngineModel} {
		base := baseSpec()
		base.Engine = engine
		base.Stations = []scenario.Group{{Count: 1}}
		camp := Spec{
			Name: "standalone-equiv-" + engine,
			Base: base,
			Axes: []Axis{
				{Path: "n", Values: rawVals(t, 2, 4)},
				{Path: "stations[0].error_prob", Values: rawVals(t, 0, 0.3)},
			},
			Reps: 3,
		}
		c, err := Compile(camp)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(c, Opts{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Points) != 4 {
			t.Fatalf("engine %s: %d points, want 4", engine, len(rep.Points))
		}
		for i, p := range rep.Points {
			sc, err := scenario.Compile(c.Points[i].Spec)
			if err != nil {
				t.Fatal(err)
			}
			standalone, err := scenario.Replications(sc, 3, 1)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, _ := json.Marshal(p.Report)
			wantJSON, _ := json.Marshal(standalone)
			if string(gotJSON) != string(wantJSON) {
				t.Errorf("engine %s point %d (%s): campaign differs from standalone run\ncampaign:   %s\nstandalone: %s",
					engine, i, c.Points[i].describeCoord(), gotJSON, wantJSON)
			}
			key, err := scenario.Fingerprint(c.Points[i].Spec, p.Reps)
			if err != nil {
				t.Fatal(err)
			}
			if p.Key != key {
				t.Errorf("engine %s point %d: key %s, want %s", engine, i, p.Key, key)
			}
		}
		if engine == scenario.EngineModel {
			for i, p := range rep.Points {
				if p.Reps != 1 {
					t.Errorf("model point %d: reps = %d, want 1 (deterministic collapse)", i, p.Reps)
				}
			}
		}
	}
}

// TestRunSerialParallelIdentical asserts the whole campaign report —
// not just the points — is byte-identical across worker counts.
func TestRunSerialParallelIdentical(t *testing.T) {
	from, to, step := 0.0, 0.4, 0.2
	camp := Spec{
		Name: "par-equiv",
		Base: baseSpec(),
		Axes: []Axis{
			{Path: "n", Values: rawVals(t, 1, 2)},
			{Path: "stations[0].error_prob", From: &from, To: &to, Step: &step},
		},
		Targets:   []Target{{Metric: "norm_throughput", CI: 0.05}},
		MinReps:   3,
		MaxReps:   9,
		BatchReps: 3,
	}
	camp.Base.Stations = []scenario.Group{{Count: 1}}
	c, err := Compile(camp)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Run(c, Opts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(c, Opts{Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if runJSON(t, serial) != runJSON(t, parallel) {
		t.Error("serial and parallel adaptive campaigns diverge")
	}
}

// TestAdaptiveStopping covers both adaptive outcomes: a loose target
// converges at min_reps; an impossible target runs to max_reps and
// reports non-convergence. Stopping is deterministic for a fixed seed
// policy: two runs agree exactly.
func TestAdaptiveStopping(t *testing.T) {
	mk := func(ci float64) Spec {
		s := Spec{
			Name:      "adaptive",
			Base:      baseSpec(),
			Axes:      []Axis{{Path: "n", Values: rawVals(t, 2, 3)}},
			Targets:   []Target{{Metric: "norm_throughput", CI: ci}},
			MinReps:   3,
			MaxReps:   7,
			BatchReps: 2,
		}
		s.Base.Stations = []scenario.Group{{Count: 1}}
		return s
	}

	loose, err := Compile(mk(10)) // any sample converges instantly
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(loose, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range rep.Points {
		if !p.Converged || p.Reps != 3 {
			t.Errorf("loose target point %d: reps=%d converged=%v, want 3/true", i, p.Reps, p.Converged)
		}
		if got := p.Report.Points[0].Metrics[1].Summary.CI95; got > 10 {
			t.Errorf("point %d: CI %v above target", i, got)
		}
	}

	tight, err := Compile(mk(1e-12)) // unreachable half-width
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Run(tight, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range rep2.Points {
		if p.Converged || p.Reps != 7 {
			t.Errorf("tight target point %d: reps=%d converged=%v, want 7/false (max cap)", i, p.Reps, p.Converged)
		}
		// Batch continuation: the 7 seeds are the same stream a fixed
		// -reps 7 run would draw.
		for r, seed := range p.Report.Points[0].Seeds {
			want := scenario.RepSeed(p.Report.Spec.SeedPolicy, p.Report.Spec.Seed, 0, r)
			if seed != want {
				t.Fatalf("point %d rep %d: seed %d, want %d (batches must continue the stream)", i, r, seed, want)
			}
		}
	}
	rep3, err := Run(tight, Opts{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if runJSON(t, rep2) != runJSON(t, rep3) {
		t.Error("adaptive stopping not deterministic across runs/workers")
	}
}

// mapCache is an in-memory campaign.Cache for tests.
type mapCache struct {
	m    map[string]*scenario.Report
	gets int
	hits int
	puts int
}

func newMapCache() *mapCache { return &mapCache{m: map[string]*scenario.Report{}} }

func (c *mapCache) Get(key string) (*scenario.Report, bool) {
	c.gets++
	r, ok := c.m[key]
	if ok {
		c.hits++
	}
	return r, ok
}

func (c *mapCache) Put(key string, rep *scenario.Report) {
	c.puts++
	c.m[key] = rep
}

// TestCacheRerunZeroWork pins the "nearly free rerun" property: a
// second run of the same campaign against the cache the first one
// filled simulates nothing and returns identical bytes.
func TestCacheRerunZeroWork(t *testing.T) {
	camp := Spec{
		Name: "cached",
		Base: baseSpec(),
		Axes: []Axis{
			{Path: "n", Values: rawVals(t, 1, 2)},
			{Path: "stations[0].error_prob", Values: rawVals(t, 0, 0.3)},
		},
		Targets:   []Target{{Metric: "norm_throughput", CI: 0.02}},
		MinReps:   2,
		MaxReps:   6,
		BatchReps: 2,
	}
	camp.Base.Stations = []scenario.Group{{Count: 1}}
	c, err := Compile(camp)
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
	putsAfterFirst := cache.puts
	second, err := Run(c, Opts{Cache: cache, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if second.SimulatedReps != 0 {
		t.Errorf("rerun simulated %d replications, want 0 (all batches cached)", second.SimulatedReps)
	}
	if cache.puts != putsAfterFirst {
		t.Errorf("rerun re-published %d cache entries; adopted batches must not be re-Put", cache.puts-putsAfterFirst)
	}
	if runJSON(t, first) != runJSON(t, second) {
		t.Error("cached rerun differs from computed run")
	}

	// A fresh cache holding only some points reuses those and computes
	// the rest.
	partial := newMapCache()
	for k, v := range cache.m {
		partial.m[k] = v
		break
	}
	third, err := Run(c, Opts{Cache: partial})
	if err != nil {
		t.Fatal(err)
	}
	if third.SimulatedReps == 0 || third.SimulatedReps >= first.SimulatedReps {
		t.Errorf("partial-cache run simulated %d, want strictly between 0 and %d", third.SimulatedReps, first.SimulatedReps)
	}
	if runJSON(t, first) != runJSON(t, third) {
		t.Error("partial-cache run differs from computed run")
	}
}

// TestRunCancelledWithWarmCache pins the cancellation edge: a run
// whose every batch would be adopted from cache must still honor a
// cancelled context instead of completing as done.
func TestRunCancelledWithWarmCache(t *testing.T) {
	camp := Spec{
		Name: "cancel-warm",
		Base: baseSpec(),
		Axes: []Axis{{Path: "n", Values: rawVals(t, 1, 2)}},
		Reps: 2,
	}
	camp.Base.Stations = []scenario.Group{{Count: 1}}
	c, err := Compile(camp)
	if err != nil {
		t.Fatal(err)
	}
	cache := newMapCache()
	if _, err := Run(c, Opts{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(c, Opts{Cache: cache, Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled warm-cache run returned %v, want context.Canceled", err)
	}
}

// TestProgressAndPointDone checks the callback plumbing the serving
// layer relies on: done is monotonic, reaches the total, and every
// point reports exactly once.
func TestProgressAndPointDone(t *testing.T) {
	camp := Spec{
		Name: "progress",
		Base: baseSpec(),
		Axes: []Axis{{Path: "n", Values: rawVals(t, 1, 2)}},
		Reps: 3,
	}
	camp.Base.Stations = []scenario.Group{{Count: 1}}
	c, err := Compile(camp)
	if err != nil {
		t.Fatal(err)
	}
	lastDone, points := 0, 0
	rep, err := Run(c, Opts{
		Progress: func(done, total int) {
			if done < lastDone {
				t.Errorf("progress went backwards: %d after %d", done, lastDone)
			}
			lastDone = done
			if total != 6 {
				t.Errorf("total = %d, want 6", total)
			}
		},
		PointDone: func(done, total int) {
			points++
			if total != 2 {
				t.Errorf("point total = %d, want 2", total)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if lastDone != 6 || points != 2 {
		t.Errorf("final progress %d (want 6), points %d (want 2)", lastDone, points)
	}
	if rep.SimulatedReps != 6 {
		t.Errorf("SimulatedReps = %d, want 6", rep.SimulatedReps)
	}
}

// targetsMet reports whether every target's published interval — the
// CV-adjusted one where a fit applied, the plain summary otherwise —
// meets its half-width goal in pr.
func targetsMet(t *testing.T, pr scenario.PointReport, targets []Target) bool {
	t.Helper()
	met := true
	for _, tg := range targets {
		var ms *scenario.MetricSummary
		for i := range pr.Metrics {
			if pr.Metrics[i].Name == tg.Metric {
				ms = &pr.Metrics[i]
			}
		}
		if ms == nil {
			t.Fatalf("target metric %s missing from point report", tg.Metric)
		}
		mean, hw := ms.Summary.Mean, ms.Summary.CI95
		if ms.CV != nil && ms.CV.Applied {
			mean, hw = ms.CV.Mean, ms.CV.CI95
		}
		goal := tg.CI
		if tg.RelCI > 0 {
			goal = tg.RelCI * math.Abs(mean)
		}
		if ms.Summary.N < 2 || hw > goal {
			met = false
		}
	}
	return met
}

// checkStopsAtPublishedInterval pins the stopping rule to the bytes a
// point publishes: Converged holds exactly when every target's
// published interval meets its goal, a converged point stops at the
// first schedule step where that holds (the report at each earlier step
// is the prefix of the final sample), and an unconverged one runs to
// the cap. It returns how many points converged.
func checkStopsAtPublishedInterval(t *testing.T, s Spec, rep *Report) int {
	t.Helper()
	sched := []int{s.MinReps}
	for r := s.MinReps; r < s.MaxReps; {
		r = min(r+s.BatchReps, s.MaxReps)
		sched = append(sched, r)
	}
	converged := 0
	for _, p := range rep.Points {
		pr := p.Report.Points[0]
		if got := targetsMet(t, pr, s.Targets); got != p.Converged {
			t.Errorf("point %d: converged=%v at %d reps, but its published intervals meet the targets: %v",
				p.Index, p.Converged, p.Reps, got)
		}
		if !p.Converged {
			if p.Reps != s.MaxReps {
				t.Errorf("point %d: stopped unconverged at %d reps, want the cap %d", p.Index, p.Reps, s.MaxReps)
			}
			continue
		}
		converged++
		for _, r := range sched {
			if r >= p.Reps {
				break
			}
			var controls [][]float64
			if pr.Controls != nil {
				controls = pr.Controls[:r]
			}
			early := scenario.SummarizePoint(pr.N, pr.Seeds[:r], pr.PerRep[:r], controls, p.Report.Spec.VarianceReduction)
			if targetsMet(t, early, s.Targets) {
				t.Errorf("point %d: targets already met at %d reps, but it ran to %d", p.Index, r, p.Reps)
			}
		}
	}
	return converged
}

// TestConvergedMatchesPublishedInterval checks the stopping invariant
// over plain, control-variate and relative-CI targets, and over cached
// reruns that adopt every batch or only some.
func TestConvergedMatchesPublishedInterval(t *testing.T) {
	mk := func(cv bool, targets ...Target) Spec {
		base := baseSpec()
		base.Stations = []scenario.Group{{Count: 1}}
		if cv {
			base.VarianceReduction = &scenario.VarianceReduction{Kind: scenario.VRControlVariate}
		}
		return Spec{
			Name:      "stop-rule",
			Base:      base,
			Axes:      []Axis{{Path: "n", Values: rawVals(t, 2, 3, 5, 8)}},
			Targets:   targets,
			MinReps:   3,
			MaxReps:   40,
			BatchReps: 3,
		}
	}
	cases := []struct {
		name string
		spec Spec
	}{
		{"plain", mk(false, Target{Metric: "collision_pr", CI: 0.007})},
		{"cv", mk(true, Target{Metric: "norm_throughput", CI: 0.004})},
		{"rel-ci", mk(false, Target{Metric: "norm_throughput", RelCI: 0.007})},
		{"cv-two-targets", mk(true, Target{Metric: "collision_pr", CI: 0.008}, Target{Metric: "norm_throughput", RelCI: 0.006})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Compile(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			cache := newMapCache()
			first, err := Run(c, Opts{Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			// The targets are set so that both outcomes occur, at
			// several schedule steps.
			if conv := checkStopsAtPublishedInterval(t, c.Spec, first); conv == 0 || conv == len(first.Points) {
				t.Errorf("%d of %d points converged; the case must exercise both outcomes", conv, len(first.Points))
			}

			// A rerun adopts every batch from the cache; a run against
			// half the entries adopts some and simulates the rest.
			rerun, err := Run(c, Opts{Cache: cache, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if rerun.SimulatedReps != 0 {
				t.Errorf("rerun simulated %d replications, want 0", rerun.SimulatedReps)
			}
			checkStopsAtPublishedInterval(t, c.Spec, rerun)
			partial := newMapCache()
			for i, k := range slices.Sorted(maps.Keys(cache.m)) {
				if i%2 == 0 {
					partial.m[k] = cache.m[k]
				}
			}
			third, err := Run(c, Opts{Cache: partial})
			if err != nil {
				t.Fatal(err)
			}
			checkStopsAtPublishedInterval(t, c.Spec, third)
			if runJSON(t, first) != runJSON(t, rerun) || runJSON(t, first) != runJSON(t, third) {
				t.Error("cached reruns differ from the computed run")
			}
		})
	}
}
