package repro_test

import (
	"bufio"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestCLIPipeline builds the actual binaries and replays the paper's
// Section 3 measurement session against them: plcd hosts the emulated
// power strip; ampstat resets, runs and fetches; faifa sniffs. This is
// the repository's outermost integration test — it exercises flag
// parsing, UDP framing, the MME codecs, the device firmware and the MAC
// in one pass.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := t.TempDir()
	for _, tool := range []string{"plcd", "ampstat", "faifa", "sim1901", "plcbench"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool)
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}

	// Start the daemon on an ephemeral port and scrape it from stdout.
	plcd := exec.Command(filepath.Join(bin, "plcd"), "-n", "3", "-listen", "127.0.0.1:0", "-seed", "5")
	stdout, err := plcd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	plcd.Stderr = os.Stderr
	if err := plcd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		plcd.Process.Kill()
		plcd.Wait()
	}()

	var addr string
	scanner := bufio.NewScanner(stdout)
	deadline := time.After(30 * time.Second)
	addrRe := regexp.MustCompile(`listening on (\S+)`)
	done := make(chan struct{})
	go func() {
		for scanner.Scan() {
			if m := addrRe.FindStringSubmatch(scanner.Text()); m != nil {
				addr = m[1]
				close(done)
				// keep draining so plcd never blocks on stdout
				for scanner.Scan() {
				}
				return
			}
		}
	}()
	select {
	case <-done:
	case <-deadline:
		t.Fatal("plcd never printed its address")
	}

	run := func(tool string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, tool), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
		}
		return string(out)
	}

	// The Section 3.2 session.
	run("ampstat", "-host", addr, "-op", "reset", "-all", "-n", "3")
	run("ampstat", "-host", addr, "-op", "run", "-duration", "20")
	out := run("ampstat", "-host", addr, "-op", "collision", "-all", "-n", "3")

	p := extractFloat(t, out, `collision_pr = ([0-9.]+)`)
	if p <= 0.05 || p > 0.25 {
		t.Errorf("CLI collision probability %v outside the N=3 band (output:\n%s)", p, out)
	}
	acked := extractFloat(t, out, `sum_acked\s+= ([0-9]+)`)
	if acked <= 0 {
		t.Errorf("no acked frames reported:\n%s", out)
	}

	// The Section 3.3 session: sniff 5 virtual seconds at D.
	fout := run("faifa", "-host", addr, "-duration", "5")
	if !strings.Contains(fout, "dominant burst size = 2") {
		t.Errorf("faifa did not find the paper's burst size:\n%s", fout)
	}
	mpdus := extractFloat(t, fout, `captured MPDUs\s+= ([0-9]+)`)
	if mpdus <= 0 {
		t.Errorf("faifa captured nothing:\n%s", fout)
	}

	// The published simulator invocation through its CLI.
	sout := run("sim1901", "-n", "3", "-sim-time", "2e7")
	sp := extractFloat(t, sout, `collision_pr\s+= ([0-9.]+)`)
	if d := sp - p; d > 0.04 || d < -0.04 {
		t.Errorf("CLI simulator %v vs CLI measurement %v disagree", sp, p)
	}

	// plcbench smoke: one quick experiment, markdown on stdout.
	bout := run("plcbench", "-quick", "-exp", "table1")
	if !strings.Contains(bout, "| 0 | 0 | 8 | 0 | 8 | 0 |") {
		t.Errorf("plcbench table1 wrong:\n%s", bout)
	}
}

func extractFloat(t *testing.T, s, pattern string) float64 {
	t.Helper()
	m := regexp.MustCompile(pattern).FindStringSubmatch(s)
	if m == nil {
		t.Fatalf("output does not match %q:\n%s", pattern, s)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("bad number %q: %v", m[1], err)
	}
	return v
}

// TestSim1901CLIRejectsBadVectors covers the CLI's input validation.
func TestSim1901CLIRejectsBadVectors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := t.TempDir()
	path := filepath.Join(bin, "sim1901")
	if out, err := exec.Command("go", "build", "-o", path, "./cmd/sim1901").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	cases := [][]string{
		{"-cw", "8,16", "-dc", "0"}, // length mismatch
		{"-cw", "abc", "-dc", "0"},  // not a number
		{"-n", "0"},                 // no stations
		{"-cw", "0,16,32,64"},       // zero window
	}
	for _, args := range cases {
		cmd := exec.Command(path, args...)
		if out, err := cmd.CombinedOutput(); err == nil {
			t.Errorf("sim1901 %v accepted bad input:\n%s", args, out)
		}
	}
}

// TestScenarioCLI exercises the declarative mode end to end through
// the real binary: validation output, replication statistics with
// serial output byte-identical to -parallel, and the channel-error
// twin pair producing measurably less throughput than its error-free
// twin under the same seeds.
func TestScenarioCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := t.TempDir()
	path := filepath.Join(bin, "sim1901")
	if out, err := exec.Command("go", "build", "-o", path, "./cmd/sim1901").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(path, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("sim1901 %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	vout := run("-scenario", "examples/scenarios/heterogeneous.json", "-validate")
	if !strings.Contains(vout, "ok: scenario heterogeneous: engine sim, N=4") {
		t.Fatalf("-validate output unexpected:\n%s", vout)
	}

	serial := run("-scenario", "examples/scenarios/heterogeneous.json", "-reps", "4")
	parallel := run("-scenario", "examples/scenarios/heterogeneous.json", "-reps", "4", "-parallel")
	if serial != parallel {
		t.Fatalf("serial and -parallel scenario output differ:\n%s\n---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "95% CI, n=4") {
		t.Fatalf("no confidence interval in output:\n%s", serial)
	}

	noisy := run("-scenario", "examples/scenarios/channel-errors.json", "-reps", "3")
	clean := run("-scenario", "examples/scenarios/channel-errors-free.json", "-reps", "3")
	nt := extractFloat(t, noisy, `norm_throughput\s+= ([0-9.]+)`)
	ct := extractFloat(t, clean, `norm_throughput\s+= ([0-9.]+)`)
	if nt >= ct*0.9 {
		t.Errorf("channel-error throughput %v not measurably below error-free %v", nt, ct)
	}
	ne := extractFloat(t, noisy, `frame_errors\s+= ([0-9.]+)`)
	if ne == 0 {
		t.Errorf("channel-error scenario reported no frame errors:\n%s", noisy)
	}

	// A bad scenario must fail with a field-level message.
	cmd := exec.Command(path, "-scenario", filepath.Join(bin, "missing.json"))
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Errorf("missing scenario file accepted:\n%s", out)
	}

	// More stations than the mac engine has TEIs is a spec error that
	// names the field (exit 2), not a panic out of the engine.
	crowded := filepath.Join(bin, "crowded.json")
	if err := os.WriteFile(crowded, []byte(`{"name":"crowded","engine":"mac","sim_time_us":100000,"stations":[{"count":256}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(path, "-scenario", crowded).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), `"count" = 256`) || strings.Contains(string(out), "panic") {
		t.Errorf("256-station mac spec: %v\n%s\nwant exit 2 naming \"count\"", err, out)
	}
}

// TestCampaignCLI exercises campaign mode end to end through the real
// binary: validation output, the consolidated grid table with serial
// output byte-identical to -parallel, and fail-fast -reps / campaign
// replication-bound validation that names the offending flag or field.
func TestCampaignCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := t.TempDir()
	path := filepath.Join(bin, "sim1901")
	if out, err := exec.Command("go", "build", "-o", path, "./cmd/sim1901").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(path, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("sim1901 %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	vout := run("-campaign", "examples/campaigns/saturation-error-grid.json", "-validate")
	if !strings.Contains(vout, "ok: campaign saturation-error-grid: 2 axes, 9 points") {
		t.Fatalf("-validate output unexpected:\n%s", vout)
	}

	serial := run("-campaign", "testdata/campaigns/tiny-grid.json")
	parallel := run("-campaign", "testdata/campaigns/tiny-grid.json", "-parallel")
	if serial != parallel {
		t.Fatalf("serial and -parallel campaign output differ:\n%s\n---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "4 points") {
		t.Fatalf("campaign header does not describe the grid:\n%s", serial)
	}

	// The adaptive example must converge within its replication cap and
	// meet the requested half-width on every point.
	aout := run("-campaign", "examples/campaigns/adaptive-throughput.json")
	for _, line := range strings.Split(aout, "\n") {
		if strings.Contains(line, "NO") {
			t.Errorf("adaptive example did not converge: %s", line)
		}
	}
	ciRe := regexp.MustCompile(`([0-9.]+) ± ([0-9.]+)\s*$`)
	points := 0
	for _, line := range strings.Split(aout, "\n") {
		m := ciRe.FindStringSubmatch(line)
		if m == nil || strings.HasPrefix(line, "#") {
			continue
		}
		points++
		if hw, _ := strconv.ParseFloat(m[2], 64); hw > 0.005 {
			t.Errorf("norm_throughput CI half-width %v above the 0.005 target: %s", hw, line)
		}
	}
	if points != 5 {
		t.Errorf("adaptive example rendered %d grid rows, want 5:\n%s", points, aout)
	}

	// Fail-fast validation, naming the flag or field. A spec file must
	// hold one JSON value: a second one after it is an error.
	trailing := filepath.Join(bin, "trailing.json")
	if err := os.WriteFile(trailing, []byte(`{"name":"t","sim_time_us":1e6,"stations":[{"count":2}]} {"name":"u"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fails := []struct {
		args []string
		want string
	}{
		{[]string{"-scenario", "testdata/scenarios/tiny-sweep.json", "-reps", "0"}, "-reps = 0"},
		{[]string{"-scenario", "x.json", "-campaign", "y.json"}, "mutually exclusive"},
		{[]string{"-campaign", "examples/campaigns/model-cw-grid.json", "-engine", "sim"}, "do not apply"},
		// -reps explicitly set alongside -campaign must error, not be
		// silently ignored (the campaign file owns its policy).
		{[]string{"-campaign", "examples/campaigns/model-cw-grid.json", "-reps", "5"}, "do not apply"},
		{[]string{"-scenario", trailing}, "trailing data"},
	}
	for _, tc := range fails {
		out, err := exec.Command(path, tc.args...).CombinedOutput()
		if err == nil {
			t.Errorf("sim1901 %v accepted bad input:\n%s", tc.args, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("sim1901 %v error does not mention %q:\n%s", tc.args, tc.want, out)
		}
	}

	// plcbench mirrors the flag validation: mutually exclusive modes
	// and a rejected -reps alongside -campaign.
	pb := filepath.Join(bin, "plcbench")
	if out, err := exec.Command("go", "build", "-o", pb, "./cmd/plcbench").CombinedOutput(); err != nil {
		t.Fatalf("build plcbench: %v\n%s", err, out)
	}
	pbFails := []struct {
		args []string
		want string
	}{
		{[]string{"-scenario", "a.json", "-campaign", "b.json"}, "mutually exclusive"},
		{[]string{"-campaign", "examples/campaigns/model-cw-grid.json", "-reps", "5"}, "does not apply"},
		{[]string{"-scenario", "testdata/scenarios/tiny-sweep.json", "-reps", "0"}, "-reps = 0"},
	}
	for _, tc := range pbFails {
		out, err := exec.Command(pb, tc.args...).CombinedOutput()
		if err == nil {
			t.Errorf("plcbench %v accepted bad input:\n%s", tc.args, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("plcbench %v error does not mention %q:\n%s", tc.args, tc.want, out)
		}
	}

	// A campaign whose min_reps exceeds max_reps must fail naming both.
	bad := filepath.Join(bin, "bad.json")
	spec := `{"name":"bad","base":{"name":"b","sim_time_us":1e6,"stations":[{"count":1}]},` +
		`"axes":[{"path":"n","values":[1,2]}],"min_reps":9,"max_reps":3,` +
		`"targets":[{"metric":"norm_throughput","ci":0.01}]}`
	if err := os.WriteFile(bad, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(path, "-campaign", bad, "-validate").CombinedOutput()
	if err == nil {
		t.Fatalf("min_reps > max_reps accepted:\n%s", out)
	}
	if !strings.Contains(string(out), `"min_reps" = 9 > "max_reps" = 3`) {
		t.Errorf("error does not name min_reps/max_reps:\n%s", out)
	}
}
