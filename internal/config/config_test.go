package config

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

// TestTable1Defaults pins the CA0–CA3 parameters to Table 1 of the
// paper. Any drift here invalidates every experiment.
func TestTable1Defaults(t *testing.T) {
	tests := []struct {
		pri    Priority
		wantCW []int
		wantDC []int
	}{
		{CA0, []int{8, 16, 32, 64}, []int{0, 1, 3, 15}},
		{CA1, []int{8, 16, 32, 64}, []int{0, 1, 3, 15}},
		{CA2, []int{8, 16, 16, 32}, []int{0, 1, 3, 15}},
		{CA3, []int{8, 16, 16, 32}, []int{0, 1, 3, 15}},
	}
	for _, tc := range tests {
		p := Default1901(tc.pri)
		if err := p.Validate(); err != nil {
			t.Errorf("%v: Validate: %v", tc.pri, err)
		}
		if len(p.CW) != 4 {
			t.Fatalf("%v: %d stages, want 4", tc.pri, len(p.CW))
		}
		for i := range tc.wantCW {
			if p.CW[i] != tc.wantCW[i] {
				t.Errorf("%v: CW[%d] = %d, want %d", tc.pri, i, p.CW[i], tc.wantCW[i])
			}
			if p.DC[i] != tc.wantDC[i] {
				t.Errorf("%v: DC[%d] = %d, want %d", tc.pri, i, p.DC[i], tc.wantDC[i])
			}
		}
	}
}

func TestDefault1901PanicsOnInvalidPriority(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Default1901(7) did not panic")
		}
	}()
	Default1901(Priority(7))
}

func TestPriorityString(t *testing.T) {
	for p, want := range map[Priority]string{CA0: "CA0", CA1: "CA1", CA2: "CA2", CA3: "CA3"} {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", p, got, want)
		}
	}
	if got := Priority(9).String(); !strings.Contains(got, "9") {
		t.Errorf("invalid priority String() = %q, want it to contain the raw value", got)
	}
}

func TestPriorityValid(t *testing.T) {
	for _, p := range []Priority{CA0, CA1, CA2, CA3} {
		if !p.Valid() {
			t.Errorf("%v.Valid() = false", p)
		}
	}
	if Priority(4).Valid() {
		t.Error("Priority(4).Valid() = true")
	}
}

func TestParsePriority(t *testing.T) {
	ok := map[string]Priority{
		"CA0": CA0, "ca1": CA1, " CA2 ": CA2, "Ca3": CA3,
		"0": CA0, "1": CA1, "2": CA2, "3": CA3,
	}
	for s, want := range ok {
		got, err := ParsePriority(s)
		if err != nil || got != want {
			t.Errorf("ParsePriority(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"", "CA4", "best-effort", "-1"} {
		if _, err := ParsePriority(s); err == nil {
			t.Errorf("ParsePriority(%q) succeeded, want error", s)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name string
		p    Params
		want error
	}{
		{"empty", Params{}, ErrNoStages},
		{"length mismatch", Params{CW: []int{8, 16}, DC: []int{0}}, ErrLengthMixup},
		{"zero window", Params{CW: []int{0}, DC: []int{0}}, ErrWindowRange},
		{"negative deferral", Params{CW: []int{8}, DC: []int{-1}}, ErrDeferralsNeg},
		{"ok single stage", Params{CW: []int{8}, DC: []int{0}}, nil},
		{"ok non-monotone", Params{CW: []int{64, 8}, DC: []int{3, 0}}, nil},
	}
	for _, tc := range tests {
		err := tc.p.Validate()
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate() = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestParamsStageClamping(t *testing.T) {
	p := DefaultCA1()
	tests := []struct{ bpc, want int }{
		{-3, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 3}, {100, 3},
	}
	for _, tc := range tests {
		if got := p.Stage(tc.bpc); got != tc.want {
			t.Errorf("Stage(%d) = %d, want %d", tc.bpc, got, tc.want)
		}
	}
	// Table 1: BPC ≥ 3 keeps CW = 64, d = 15 for CA1.
	if got := p.CW[p.Stage(10)]; got != 64 {
		t.Errorf("CW at BPC 10 = %d, want 64", got)
	}
	if got := p.DC[p.Stage(10)]; got != 15 {
		t.Errorf("d at BPC 10 = %d, want 15", got)
	}
}

func TestParamsEqual(t *testing.T) {
	a := DefaultCA1()
	b := DefaultCA1()
	b.Name = "renamed"
	if !a.Equal(b) {
		t.Error("Equal must ignore names")
	}
	c := DefaultCA1()
	c.CW[3] = 128
	if a.Equal(c) {
		t.Error("Equal missed a CW difference")
	}
	d := DefaultCA1()
	d.DC[2] = 4
	if a.Equal(d) {
		t.Error("Equal missed a DC difference")
	}
	if a.Equal(Params{CW: []int{8}, DC: []int{0}}) {
		t.Error("Equal missed a length difference")
	}
}

func TestParamsString(t *testing.T) {
	s := DefaultCA1().String()
	for _, want := range []string{"CA1", "cw=[8 16 32 64]", "dc=[0 1 3 15]"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, want substring %q", s, want)
		}
	}
}

func TestDCFWindowDoubling(t *testing.T) {
	d := Default80211()
	wants := []int{16, 32, 64, 128, 256, 512, 1024, 1024, 1024}
	for i, want := range wants {
		if got := d.Window(i); got != want {
			t.Errorf("Window(%d) = %d, want %d", i, got, want)
		}
	}
	if got := d.Stages(); got != 7 {
		t.Errorf("Stages() = %d, want 7 (16·2^6 = 1024)", got)
	}
}

func TestDCFParamsFlattening(t *testing.T) {
	d := Default80211()
	p := d.Params()
	if err := p.Validate(); err != nil {
		t.Fatalf("flattened params invalid: %v", err)
	}
	if len(p.CW) != d.Stages() {
		t.Fatalf("flattened stages = %d, want %d", len(p.CW), d.Stages())
	}
	for i := range p.CW {
		if p.CW[i] != d.Window(i) {
			t.Errorf("CW[%d] = %d, want %d", i, p.CW[i], d.Window(i))
		}
		// The sentinel deferral counter must exceed any possible number
		// of busy decrements at the stage (CW−1), so DC can never hit 0
		// before BC does.
		if p.DC[i] < p.CW[i]-1 {
			t.Errorf("DC[%d] = %d is reachable within CW %d; 802.11 emulation would defer", i, p.DC[i], p.CW[i])
		}
	}
}

// Property: Stage never exceeds bounds for any BPC.
func TestStageBoundsProperty(t *testing.T) {
	p := DefaultCA1()
	f := func(bpc int) bool {
		s := p.Stage(bpc)
		return s >= 0 && s < p.Stages()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: DCF windows are monotone non-decreasing and capped.
func TestDCFWindowMonotoneProperty(t *testing.T) {
	d := Default80211()
	f := func(stage uint8) bool {
		i := int(stage % 32)
		w, next := d.Window(i), d.Window(i+1)
		return w <= next && next <= d.CWmax && w >= d.CWmin
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
