package boost

import (
	"testing"

	"repro/internal/config"
)

func TestSpaceValidation(t *testing.T) {
	if err := DefaultSpace().Validate(); err != nil {
		t.Fatalf("default space invalid: %v", err)
	}
	bad := []Space{
		{},
		{CW0s: []int{8}, Growths: []int{2}, DCSchedules: [][]int{{0}}, Stages: 0, MaxCW: 64},
		{CW0s: []int{0}, Growths: []int{2}, DCSchedules: [][]int{{0}}, Stages: 1, MaxCW: 64},
		{CW0s: []int{8}, Growths: []int{0}, DCSchedules: [][]int{{0}}, Stages: 1, MaxCW: 64},
		{CW0s: []int{8}, Growths: []int{2}, DCSchedules: [][]int{{0, 1}}, Stages: 1, MaxCW: 64},
		{CW0s: []int{8}, Growths: []int{2}, DCSchedules: [][]int{{-1}}, Stages: 1, MaxCW: 64},
		{CW0s: []int{8}, Growths: []int{2}, DCSchedules: [][]int{{0}}, Stages: 1, MaxCW: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad space %d accepted", i)
		}
	}
}

func TestEnumerateCountAndValidity(t *testing.T) {
	space := DefaultSpace()
	params, err := space.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	want := len(space.CW0s) * len(space.Growths) * len(space.DCSchedules)
	if len(params) != want {
		t.Fatalf("%d candidates, want %d", len(params), want)
	}
	seen := map[string]bool{}
	for _, p := range params {
		if err := p.Validate(); err != nil {
			t.Errorf("candidate %s invalid: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate candidate name %s", p.Name)
		}
		seen[p.Name] = true
		for _, w := range p.CW {
			if w > space.MaxCW {
				t.Errorf("candidate %s exceeds MaxCW: %v", p.Name, p.CW)
			}
		}
	}
}

func TestEnumerateCapsWindows(t *testing.T) {
	s := Space{CW0s: []int{512}, Growths: []int{4}, DCSchedules: [][]int{{0, 0, 0, 0}}, Stages: 4, MaxCW: 1024}
	params, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	p := params[0]
	for i, w := range p.CW {
		if w > 1024 {
			t.Errorf("stage %d window %d above cap", i, w)
		}
	}
}

func TestScoreModelDefaults(t *testing.T) {
	ns := []int{2, 5, 10}
	c, err := ScoreModel(config.DefaultCA1(), ns)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ns {
		if c.Throughput[n] <= 0 || c.Throughput[n] >= 1 {
			t.Errorf("N=%d throughput %v", n, c.Throughput[n])
		}
		if c.Collision[n] <= 0 || c.Collision[n] >= 1 {
			t.Errorf("N=%d collision %v", n, c.Collision[n])
		}
		if c.Score > c.Throughput[n] {
			t.Errorf("score %v above throughput at N=%d", c.Score, n)
		}
	}
}

func TestSearchRanksDescending(t *testing.T) {
	cands, err := Search(DefaultSpace(), []int{2, 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Score > cands[i-1].Score {
			t.Fatalf("candidates not sorted at %d: %v > %v", i, cands[i].Score, cands[i-1].Score)
		}
	}
}

func TestSearchErrors(t *testing.T) {
	if _, err := Search(DefaultSpace(), nil); err == nil {
		t.Error("empty N set accepted")
	}
	if _, err := Search(Space{}, []int{2}); err == nil {
		t.Error("invalid space accepted")
	}
}

// TestBoostBeatsDefaults is the headline boosting claim in miniature:
// the best configuration found by the model-guided search must beat the
// CA1 defaults on min-throughput across the contention range, and the
// improvement must survive simulator validation.
func TestBoostBeatsDefaults(t *testing.T) {
	ns := []int{2, 5, 10}
	cands, err := Search(DefaultSpace(), ns)
	if err != nil {
		t.Fatal(err)
	}
	def, err := ScoreModel(config.DefaultCA1(), ns)
	if err != nil {
		t.Fatal(err)
	}
	if cands[0].Score <= def.Score {
		t.Fatalf("best candidate %s (%.4f) does not beat defaults (%.4f) in the model",
			cands[0].Params.Name, cands[0].Score, def.Score)
	}

	vals, err := ValidateTop(cands, 3, ns, 5e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	defVal, err := Validate(def, ns, 5e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].SimScore <= defVal.SimScore {
		t.Errorf("validated best %s sim score %.4f does not beat defaults %.4f",
			vals[0].Candidate.Params.Name, vals[0].SimScore, defVal.SimScore)
	}
}

func TestValidatePopulatesFairness(t *testing.T) {
	c, err := ScoreModel(config.DefaultCA1(), []int{2})
	if err != nil {
		t.Fatal(err)
	}
	v, err := Validate(c, []int{2}, 5e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	j := v.ShortTermJain[2]
	if j <= 0.5 || j > 1 {
		t.Errorf("short-term Jain %v out of (0.5, 1]", j)
	}
	if v.SimThroughput[2] <= 0 {
		t.Error("no sim throughput")
	}
}

func TestValidateTopClampsK(t *testing.T) {
	cands, err := Search(Space{
		CW0s: []int{8}, Growths: []int{2},
		DCSchedules: [][]int{{0, 1, 3, 15}}, Stages: 4, MaxCW: 64,
	}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := ValidateTop(cands, 10, []int{2}, 2e6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 {
		t.Errorf("%d validations, want 1", len(vals))
	}
}

func TestParetoFront(t *testing.T) {
	mk := func(thr, jain float64) Validation {
		return Validation{
			SimThroughput: map[int]float64{5: thr},
			ShortTermJain: map[int]float64{5: jain},
		}
	}
	vs := []Validation{
		mk(0.8, 0.6),  // frontier (best throughput)
		mk(0.7, 0.9),  // frontier (best fairness)
		mk(0.7, 0.6),  // dominated by both
		mk(0.75, 0.8), // frontier
	}
	front := ParetoFront(vs, 5)
	if len(front) != 3 {
		t.Fatalf("frontier size %d, want 3", len(front))
	}
	for _, v := range front {
		if v.SimThroughput[5] == 0.7 && v.ShortTermJain[5] == 0.6 {
			t.Error("dominated point survived")
		}
	}
}

// TestDeferralDisabledLosesUnderContention: the ablation DESIGN.md
// calls out — the no-deferral candidate must score worse than the
// standard schedule at high N in the model.
func TestDeferralDisabledLosesUnderContention(t *testing.T) {
	std := config.DefaultCA1()
	noDC := config.Params{Name: "no-dc", CW: []int{8, 16, 32, 64}, DC: []int{1 << 20, 1 << 20, 1 << 20, 1 << 20}}
	cs, err := ScoreModel(std, []int{15})
	if err != nil {
		t.Fatal(err)
	}
	cn, err := ScoreModel(noDC, []int{15})
	if err != nil {
		t.Fatal(err)
	}
	if cn.Collision[15] <= cs.Collision[15] {
		t.Errorf("no-deferral collision %v not above standard %v at N=15",
			cn.Collision[15], cs.Collision[15])
	}
}

// TestSearchMatchesScoreModel pins the campaign refactor: the grid a
// Search runs through the campaign layer must reproduce per-candidate
// ScoreModel results exactly — same throughput/collision maps, same
// scores, same Table-ready ordering.
func TestSearchMatchesScoreModel(t *testing.T) {
	ns := []int{2, 5, 10}
	space := DefaultSpace()
	cands, err := Search(space, ns)
	if err != nil {
		t.Fatal(err)
	}
	params, err := space.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != len(params) {
		t.Fatalf("search returned %d candidates for %d params", len(cands), len(params))
	}
	byName := map[string]Candidate{}
	for _, c := range cands {
		byName[c.Params.Name] = c
	}
	for _, p := range params {
		want, err := ScoreModel(p, ns)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := byName[p.Name]
		if !ok {
			t.Fatalf("candidate %s missing from search results", p.Name)
		}
		if got.Score != want.Score {
			t.Errorf("%s: search score %v != ScoreModel %v", p.Name, got.Score, want.Score)
		}
		for _, n := range ns {
			if got.Throughput[n] != want.Throughput[n] {
				t.Errorf("%s N=%d: throughput %v != %v", p.Name, n, got.Throughput[n], want.Throughput[n])
			}
			if got.Collision[n] != want.Collision[n] {
				t.Errorf("%s N=%d: collision %v != %v", p.Name, n, got.Collision[n], want.Collision[n])
			}
		}
	}
}

// TestSearchCampaignShape sanity-checks the emitted campaign spec: the
// axes cover the full candidate grid in Enumerate order, and the spec
// itself validates (a client could POST it to /v1/campaigns verbatim).
func TestSearchCampaignShape(t *testing.T) {
	space := DefaultSpace()
	ns := []int{2, 10}
	params, err := space.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := searchCampaign(space, params, ns)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("emitted campaign does not validate: %v", err)
	}
	wantCW := len(params) / len(space.DCSchedules)
	if len(spec.Axes) != 3 ||
		len(spec.Axes[0].Values) != wantCW ||
		len(spec.Axes[1].Values) != len(space.DCSchedules) ||
		len(spec.Axes[2].Values) != len(ns) {
		t.Fatalf("campaign axes %d/%d/%d, want %d/%d/%d",
			len(spec.Axes[0].Values), len(spec.Axes[1].Values), len(spec.Axes[2].Values),
			wantCW, len(space.DCSchedules), len(ns))
	}
}
