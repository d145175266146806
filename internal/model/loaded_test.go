package model

import (
	"math"
	"testing"

	"repro/internal/config"
)

func loadedTiming() Timing { return DefaultTiming() }

// classOf fails the test unless the solution has the class.
func classOf(t *testing.T, sol *LoadedSolution, p config.Priority) *ClassSolution {
	t.Helper()
	cs := sol.ClassFor(p)
	if cs == nil {
		t.Fatalf("solution has no class %s: %+v", p, sol)
	}
	return cs
}

// wallSuccessRate is a class's delivered frames per wall-clock µs.
func wallSuccessRate(cs *ClassSolution) float64 {
	if cs.Starved || cs.Met.MeanSlotDuration <= 0 {
		return 0
	}
	return cs.Share * cs.Met.SuccessRate / cs.Met.MeanSlotDuration
}

// TestLoadedAllSaturatedMatchesHeterogeneousBitForBit pins the
// delegation: an all-saturated single-class input must reproduce the
// plain heterogeneous solver exactly, so widening the model cannot move
// a single bit of any previously answerable scenario.
func TestLoadedAllSaturatedMatchesHeterogeneousBitForBit(t *testing.T) {
	groups := []Group{
		{N: 5, Params: config.Default1901(config.CA1), ErrorProb: 0.1},
		{N: 3, Params: config.Default1901(config.CA3)},
	}
	loaded := make([]LoadedGroup, len(groups))
	for i, g := range groups {
		loaded[i] = LoadedGroup{Group: g, Priority: config.CA1, Saturated: true}
	}
	sol, err := SolveLoaded(loaded, loadedTiming(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := SolveHeterogeneous(groups, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := HeteroMetricsFor(pred, groups, loadedTiming())
	cs := classOf(t, sol, config.CA1)
	if cs.Share != 1 || cs.Starved {
		t.Fatalf("single class must own the timeline: %+v", cs)
	}
	for i := range groups {
		if cs.Tau[i] != pred.Tau[i] || cs.Gamma[i] != pred.Gamma[i] {
			t.Fatalf("group %d fixed point moved: tau %v vs %v, gamma %v vs %v",
				i, cs.Tau[i], pred.Tau[i], cs.Gamma[i], pred.Gamma[i])
		}
		if cs.Availability[i] != 1 {
			t.Fatalf("saturated group %d availability = %v, want 1", i, cs.Availability[i])
		}
		if cs.Met.GroupThroughput[i] != want.GroupThroughput[i] {
			t.Fatalf("group %d throughput moved: %v vs %v", i, cs.Met.GroupThroughput[i], want.GroupThroughput[i])
		}
	}
	if cs.Met.TotalThroughput != want.TotalThroughput ||
		cs.Met.CollisionProbability != want.CollisionProbability ||
		cs.Met.MeanSlotDuration != want.MeanSlotDuration {
		t.Fatalf("aggregate metrics moved:\n got %+v\nwant %+v", cs.Met, want)
	}
}

// TestLoadedFlowConservation: a stable unsaturated station delivers
// exactly its arrival rate — collisions and channel errors only stretch
// the queue, every frame is retried until acknowledged. The fixed point
// encodes this by construction; the test checks the solver actually
// reaches it, across loads and error probabilities.
func TestLoadedFlowConservation(t *testing.T) {
	tm := loadedTiming()
	for _, tc := range []struct {
		name string
		lam  float64 // per-station frames/µs
		err  float64
		n    int
	}{
		{"light", 1.0 / 80000, 0, 4},
		{"light-errors", 1.0 / 80000, 0.3, 4},
		{"medium", 1.0 / 25000, 0, 6},
		{"medium-errors", 1.0 / 25000, 0.15, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := LoadedGroup{
				Group:       Group{N: tc.n, Params: config.Default1901(config.CA1), ErrorProb: tc.err},
				Priority:    config.CA1,
				ArrivalRate: tc.lam,
			}
			sol, err := SolveLoaded([]LoadedGroup{g}, tm, Options{})
			if err != nil {
				t.Fatal(err)
			}
			cs := classOf(t, sol, config.CA1)
			if cs.Availability[0] >= 1 {
				t.Fatalf("load %v should be stable, got availability %v", tc.lam, cs.Availability[0])
			}
			got := wallSuccessRate(cs)
			want := float64(tc.n) * tc.lam
			if rel := math.Abs(got-want) / want; rel > 1e-6 {
				t.Fatalf("delivered %v frames/µs, offered %v (rel err %v)", got, want, rel)
			}
		})
	}
}

// TestLoadedOverloadSaturates: an arrival rate beyond the saturation
// capacity clamps availability at 1 and reproduces the saturated fixed
// point exactly.
func TestLoadedOverloadSaturates(t *testing.T) {
	tm := loadedTiming()
	params := config.Default1901(config.CA1)
	over := []LoadedGroup{{
		Group:       Group{N: 8, Params: params},
		Priority:    config.CA1,
		ArrivalRate: 1.0, // one frame per µs per station: far beyond capacity
	}}
	sat := []LoadedGroup{{
		Group:     Group{N: 8, Params: params},
		Priority:  config.CA1,
		Saturated: true,
	}}
	so, err := SolveLoaded(over, tm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := SolveLoaded(sat, tm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	co, cs := classOf(t, so, config.CA1), classOf(t, ss, config.CA1)
	if co.Availability[0] != 1 {
		t.Fatalf("overloaded availability = %v, want exactly 1", co.Availability[0])
	}
	if d := math.Abs(co.Tau[0] - cs.Tau[0]); d > 1e-9 {
		t.Fatalf("overloaded tau %v != saturated tau %v (|Δ| %v)", co.Tau[0], cs.Tau[0], d)
	}
	if d := math.Abs(co.Met.TotalThroughput - cs.Met.TotalThroughput); d > 1e-9 {
		t.Fatalf("overloaded throughput %v != saturated %v", co.Met.TotalThroughput, cs.Met.TotalThroughput)
	}
}

// TestLoadedThroughputMonotoneInLoad: delivered rate is non-decreasing
// in the offered load and never exceeds the saturated ceiling.
func TestLoadedThroughputMonotoneInLoad(t *testing.T) {
	tm := loadedTiming()
	params := config.Default1901(config.CA1)
	sat, err := SolveLoaded([]LoadedGroup{{
		Group: Group{N: 10, Params: params}, Priority: config.CA1, Saturated: true,
	}}, tm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ceiling := wallSuccessRate(classOf(t, sat, config.CA1))
	prev := 0.0
	for _, lam := range []float64{1e-6, 4e-6, 1.6e-5, 6.4e-5, 2.56e-4, 1e-3, 4e-3} {
		sol, err := SolveLoaded([]LoadedGroup{{
			Group: Group{N: 10, Params: params}, Priority: config.CA1, ArrivalRate: lam,
		}}, tm, Options{})
		if err != nil {
			t.Fatalf("λ=%v: %v", lam, err)
		}
		got := wallSuccessRate(classOf(t, sol, config.CA1))
		if got+1e-9 < prev {
			t.Fatalf("delivered rate decreased with load: λ=%v gives %v after %v", lam, got, prev)
		}
		if got > ceiling*(1+1e-9) {
			t.Fatalf("λ=%v delivers %v above the saturated ceiling %v", lam, got, ceiling)
		}
		prev = got
	}
}

// TestLoadedSilentGroupIsInert: a silent group changes nothing for its
// contenders — it never attempts, so the saturated group's fixed point
// matches the solo solution.
func TestLoadedSilentGroupIsInert(t *testing.T) {
	tm := loadedTiming()
	params := config.Default1901(config.CA1)
	mixed, err := SolveLoaded([]LoadedGroup{
		{Group: Group{N: 6, Params: params}, Priority: config.CA1, Saturated: true},
		{Group: Group{N: 4, Params: params}, Priority: config.CA1}, // silent
	}, tm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := SolveLoaded([]LoadedGroup{
		{Group: Group{N: 6, Params: params}, Priority: config.CA1, Saturated: true},
	}, tm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cm, cs := classOf(t, mixed, config.CA1), classOf(t, solo, config.CA1)
	if cm.Availability[1] != 0 {
		t.Fatalf("silent availability = %v, want 0", cm.Availability[1])
	}
	if d := math.Abs(cm.Tau[0] - cs.Tau[0]); d > 1e-9 {
		t.Fatalf("silent group moved the saturated tau: %v vs %v", cm.Tau[0], cs.Tau[0])
	}
	if d := math.Abs(cm.Met.TotalThroughput - cs.Met.TotalThroughput); d > 1e-9 {
		t.Fatalf("silent group moved throughput: %v vs %v", cm.Met.TotalThroughput, cs.Met.TotalThroughput)
	}
}

// TestLoadedPriorityStarvation: a saturated higher class owns every
// contention opportunity; everything below is exactly starved — zero
// share, zero rates — matching the event-driven MAC, where lower-class
// backoff freezes whenever a higher class has pending traffic.
func TestLoadedPriorityStarvation(t *testing.T) {
	tm := loadedTiming()
	sol, err := SolveLoaded([]LoadedGroup{
		{Group: Group{N: 3, Params: config.Default1901(config.CA3)}, Priority: config.CA3, Saturated: true},
		{Group: Group{N: 5, Params: config.Default1901(config.CA1)}, Priority: config.CA1, Saturated: true},
		{Group: Group{N: 2, Params: config.Default1901(config.CA1)}, Priority: config.CA0, ArrivalRate: 1e-4},
	}, tm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	top := classOf(t, sol, config.CA3)
	if top.Share != 1 || top.Starved {
		t.Fatalf("highest class must own the timeline: %+v", top)
	}
	solo, err := SolveHeterogeneous([]Group{{N: 3, Params: config.Default1901(config.CA3)}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if top.Tau[0] != solo.Tau[0] {
		t.Fatalf("saturated top class must match its solo fixed point: %v vs %v", top.Tau[0], solo.Tau[0])
	}
	for _, pri := range []config.Priority{config.CA1, config.CA0} {
		cs := classOf(t, sol, pri)
		if !cs.Starved || cs.Share != 0 {
			t.Fatalf("%s below a saturated class must starve: %+v", pri, cs)
		}
		if r := wallSuccessRate(cs); r != 0 {
			t.Fatalf("%s starved class delivers %v, want exactly 0", pri, r)
		}
		if cs.Met.TotalThroughput != 0 {
			t.Fatalf("%s starved throughput = %v, want 0", pri, cs.Met.TotalThroughput)
		}
	}
}

// TestLoadedOverloadStarvesExactly: Poisson-loaded stations beyond
// their class's capacity hold availability exactly 1 — not within the
// tolerance of it — so the class below sees a share of exactly 0 and
// starves to exactly zero rates.
func TestLoadedOverloadStarvesExactly(t *testing.T) {
	ca0, ca3 := config.Default1901(config.CA0), config.Default1901(config.CA3)
	sol, err := SolveLoaded([]LoadedGroup{
		{Group: Group{N: 3, Params: ca3}, Priority: config.CA3, ArrivalRate: 1 / 51443.361},
		{Group: Group{N: 2, Params: ca0}, Priority: config.CA0, ArrivalRate: 1 / 163635.273},
		{Group: Group{N: 3, Params: ca3}, Priority: config.CA3, ArrivalRate: 1 / 11174.454},
	}, loadedTiming(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	top := classOf(t, sol, config.CA3)
	if top.Availability[1] != 1 {
		t.Fatalf("overloaded CA3 group availability = %v, want exactly 1", top.Availability[1])
	}
	cs := classOf(t, sol, config.CA0)
	if !cs.Starved || cs.Share != 0 {
		t.Fatalf("CA0 below an overloaded class must starve: %+v", cs)
	}
	for i := range cs.Tau {
		if cs.Tau[i] != 0 || cs.Gamma[i] != 0 || cs.Met.GroupThroughput[i] != 0 || cs.Met.PerStationThroughput[i] != 0 {
			t.Fatalf("starved CA0 group %d has nonzero rates: %+v", i, cs)
		}
	}
	if m := cs.Met; m.TotalThroughput != 0 || m.AttemptRate != 0 || m.SuccessRate != 0 ||
		m.CollidedRate != 0 || m.CollisionProbability != 0 {
		t.Fatalf("starved CA0 metrics = %+v, want exactly 0", m)
	}
}

// TestLoadedPrioritySharing: a lightly loaded high class takes only its
// occupancy; the saturated class below gets the complementary share,
// shrinking monotonically as the high-class load grows, while the high
// class still delivers its full arrival rate.
func TestLoadedPrioritySharing(t *testing.T) {
	tm := loadedTiming()
	prevShare := 1.0
	for _, lam := range []float64{1e-5, 4e-5, 1.2e-4} {
		hi := LoadedGroup{
			Group: Group{N: 2, Params: config.Default1901(config.CA3)}, Priority: config.CA3, ArrivalRate: lam,
		}
		lo := LoadedGroup{
			Group: Group{N: 5, Params: config.Default1901(config.CA1)}, Priority: config.CA1, Saturated: true,
		}
		sol, err := SolveLoaded([]LoadedGroup{hi, lo}, tm, Options{})
		if err != nil {
			t.Fatalf("λ=%v: %v", lam, err)
		}
		top, bot := classOf(t, sol, config.CA3), classOf(t, sol, config.CA1)
		want := 2 * lam
		if got := wallSuccessRate(top); math.Abs(got-want)/want > 1e-6 {
			t.Fatalf("λ=%v: high class delivers %v, offered %v", lam, got, want)
		}
		if bot.Share <= 0 || bot.Share >= 1 {
			t.Fatalf("λ=%v: low-class share %v outside (0,1)", lam, bot.Share)
		}
		wantShare := math.Pow(1-top.Availability[0], float64(2))
		if math.Abs(bot.Share-wantShare) > 1e-12 {
			t.Fatalf("λ=%v: share %v != (1−a)^n = %v", lam, bot.Share, wantShare)
		}
		if bot.Share >= prevShare {
			t.Fatalf("λ=%v: low-class share %v did not shrink from %v", lam, bot.Share, prevShare)
		}
		prevShare = bot.Share
	}
}
