package noalloc_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/noalloc"
)

func moduleDir(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	return strings.TrimSpace(string(out))
}

// TestFixtureGate pins the gate's three behavior classes on the
// fixture package: clean and panic-only functions pass, genuine
// escapes (escaping make, moved-to-heap local) fail, unannotated
// allocation is ignored.
func TestFixtureGate(t *testing.T) {
	dir := filepath.Join("testdata", "src", "noallocfix")
	pkgs, err := analysis.Load(dir, ".")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	violations, annotated, err := noalloc.Check(moduleDir(t), pkgs)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if len(annotated) != 4 {
		t.Errorf("found %d annotated functions, want 4", len(annotated))
	}
	got := map[string]int{}
	for _, v := range violations {
		got[v.Func.Name]++
		t.Logf("violation: %s", v)
	}
	if got["leaksMake"] == 0 {
		t.Error("leaksMake's escaping make was not reported")
	}
	if got["leaksAddr"] == 0 {
		t.Error("leaksAddr's moved-to-heap local was not reported")
	}
	if got["clean"] != 0 {
		t.Error("clean was reported despite being allocation-free")
	}
	if got["guarded"] != 0 {
		t.Error("guarded's panic-path allocation should be excluded")
	}
	if got["unannotated"] != 0 {
		t.Error("unannotated functions are out of the gate's scope")
	}
}

// TestRealTreeGate is the acceptance criterion on the real tree: every
// //plclint:noalloc-annotated hot function — the steady-state MAC loop
// and idle fast-forward, the backoff machine's AfterIdleN, the
// simulator's lazy-epoch medium loop, and the Welford / paired
// accumulators' Add — passes the escape gate as shipped.
func TestRealTreeGate(t *testing.T) {
	mod := moduleDir(t)
	pkgs, err := analysis.Load(mod,
		"repro/internal/mac", "repro/internal/backoff", "repro/internal/sim", "repro/internal/stats")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	violations, annotated, err := noalloc.Check(mod, pkgs)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	want := map[string]bool{
		"(*Network).step":          true,
		"(*Network).idleRun":       true,
		"(*Station).AfterIdleN":    true,
		"(*Engine).runLazy":        true,
		"(*Accumulator).Add":       true,
		"(*PairedAccumulator).Add": true,
	}
	got := map[string]bool{}
	for _, fn := range annotated {
		got[fn.Name] = true
	}
	for name := range want {
		if !got[name] {
			t.Errorf("hot function %s lost its //plclint:noalloc annotation", name)
		}
	}
	for _, v := range violations {
		t.Errorf("escape in annotated hot function: %s", v)
	}
}
