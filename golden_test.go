package repro_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata/golden files from current output")

// buildTool compiles one cmd/ binary into dir and returns its path.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", path, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return path
}

// TestGoldenCLIOutput pins the exact bytes of the scenario-mode CLI
// renderings — sim1901's plain-text report and plcbench's markdown and
// CSV tables — against files under testdata/golden/. Formatting
// regressions (column widths, float formats, header wording, metric
// order) fail `go test ./...`; intentional changes regenerate with
// `go test -run TestGolden -update`.
func TestGoldenCLIOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := t.TempDir()
	sim1901 := buildTool(t, bin, "sim1901")
	plcbench := buildTool(t, bin, "plcbench")
	const spec = "testdata/scenarios/tiny-sweep.json"
	const camp = "testdata/campaigns/tiny-grid.json"
	const cvCamp = "testdata/campaigns/tiny-cv-grid.json"
	const loadCamp = "testdata/campaigns/tiny-load-grid.json"
	const modelPoisson = "examples/scenarios/model-poisson-load.json"
	const modelPriority = "examples/scenarios/model-priority-mix.json"

	cases := []struct {
		golden string
		cmd    []string
	}{
		{"sim1901-scenario.txt", []string{sim1901, "-scenario", spec, "-reps", "3"}},
		// -parallel must not change a single byte; it shares sim1901's
		// golden file deliberately.
		{"sim1901-scenario.txt", []string{sim1901, "-scenario", spec, "-reps", "3", "-parallel"}},
		{"plcbench-scenario.md", []string{plcbench, "-scenario", spec, "-reps", "3", "-format", "md"}},
		{"plcbench-scenario.csv", []string{plcbench, "-scenario", spec, "-reps", "3", "-format", "csv"}},
		{"plcbench-scenario.json", []string{plcbench, "-scenario", spec, "-reps", "3", "-format", "json"}},
		// Campaign mode: the consolidated grid table, serial ≡ -parallel.
		{"sim1901-campaign.txt", []string{sim1901, "-campaign", camp}},
		{"sim1901-campaign.txt", []string{sim1901, "-campaign", camp, "-parallel"}},
		{"plcbench-campaign.md", []string{plcbench, "-campaign", camp, "-format", "md"}},
		{"plcbench-campaign.json", []string{plcbench, "-campaign", camp, "-format", "json"}},
		// Control-variate mode: the scenario report's adjusted-estimate
		// lines (-vr cv) and the adaptive campaign's converged-reps and
		// speedup columns, each serial ≡ -parallel.
		{"sim1901-scenario-cv.txt", []string{sim1901, "-scenario", spec, "-reps", "6", "-vr", "cv"}},
		{"sim1901-scenario-cv.txt", []string{sim1901, "-scenario", spec, "-reps", "6", "-vr", "cv", "-parallel"}},
		{"sim1901-campaign-cv.txt", []string{sim1901, "-campaign", cvCamp}},
		{"sim1901-campaign-cv.txt", []string{sim1901, "-campaign", cvCamp, "-parallel"}},
		{"plcbench-campaign-cv.md", []string{plcbench, "-campaign", cvCamp, "-format", "md"}},
		// Model engine over the widened regimes: Poisson offered load
		// and mixed priority classes answer analytically, with the
		// per-class metric split. Deterministic, so -engine model output
		// is a natural golden.
		{"sim1901-model-poisson.txt", []string{sim1901, "-scenario", modelPoisson, "-engine", "model"}},
		{"sim1901-model-priority.txt", []string{sim1901, "-scenario", modelPriority, "-engine", "model"}},
		// Campaign compare mode: the per-metric divergence table plus
		// per-point breakdown, serial ≡ -parallel; tiny-grid compares
		// against the sim engine, tiny-load-grid against the mac
		// fallback.
		{"sim1901-campaign-compare.txt", []string{sim1901, "-campaign", camp, "-compare"}},
		{"sim1901-campaign-compare.txt", []string{sim1901, "-campaign", camp, "-compare", "-parallel"}},
		{"plcbench-campaign-compare.md", []string{plcbench, "-campaign", loadCamp, "-compare", "-format", "md"}},
		// The 802.11 comparison experiments: E1 throughput vs N (both
		// simulators, both models) and E4 short-term fairness (observer
		// winner traces).
		{"plcbench-throughput-fairness.md", []string{plcbench, "-exp", "throughput,fairness", "-quick", "-format", "md"}},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s_%s", filepath.Base(tc.cmd[0]), filepath.Base(tc.golden))
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(tc.cmd[0], tc.cmd[1:]...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("%v: %v\n%s", tc.cmd, err, stderr.String())
			}
			path := filepath.Join("testdata", "golden", tc.golden)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (re-generate with `go test -run TestGolden -update`)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s (re-generate with `go test -run TestGolden -update` if intentional)\n--- got ---\n%s--- want ---\n%s", path, got, want)
			}
		})
	}
}
