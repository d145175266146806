// Command plcbench regenerates every table and figure of the paper
// (and the extension experiments of DESIGN.md) and renders them as
// markdown or CSV. It is the one-command reproduction harness:
//
//	plcbench                 # everything, paper-scale durations
//	plcbench -quick          # everything, short durations (~seconds)
//	plcbench -exp fig2       # one experiment
//	plcbench -format csv -out results/
//	plcbench -parallel       # fan sweep points across GOMAXPROCS workers
//
// Scenario mode renders a declarative scenario's replication statistics
// as a table instead of a canned experiment:
//
//	plcbench -scenario examples/scenarios/poisson-load.json -reps 10
//
// Campaign mode renders a whole parameter grid as one consolidated
// table, one row per grid point with its converged replication count:
//
//	plcbench -campaign examples/campaigns/saturation-error-grid.json -format json
//
// -compare runs every campaign grid point through both the analytic
// model and a simulator and renders the campaign-wide per-metric
// divergence table — the model-accuracy envelope as one table:
//
//	plcbench -campaign examples/campaigns/model-envelope-load.json -compare
//
// -parallel distributes each experiment's independent sweep points
// (station counts, loads, candidate configurations, …) across
// GOMAXPROCS goroutines. Every point owns its random streams and
// results are collected in input order, so the output is bit-identical
// to a serial run — only the wall-clock time changes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/campaign"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/scenario"
)

type runner func(quick bool) (*experiments.Table, error)

var all = []struct {
	id  string
	run runner
}{
	{"table1", func(bool) (*experiments.Table, error) { return experiments.Table1(), nil }},
	{"fig1", func(bool) (*experiments.Table, error) { return experiments.Figure1(3, 12) }},
	{"table2", func(quick bool) (*experiments.Table, error) {
		cfg := experiments.DefaultTable2Config()
		if quick {
			cfg.DurationMicros = 1e7
		}
		return experiments.Table2(cfg)
	}},
	{"fig2", func(quick bool) (*experiments.Table, error) {
		cfg := experiments.DefaultFigure2Config()
		if quick {
			cfg.Tests = 3
			cfg.TestDurationMicros = 1e7
			cfg.SimTimeMicros = 2e7
		}
		_, t, err := experiments.Figure2(cfg)
		return t, err
	}},
	{"throughput", func(quick bool) (*experiments.Table, error) {
		simTime, ns := 1e8, []int{1, 2, 3, 5, 7, 10, 15, 20, 30}
		if quick {
			simTime, ns = 1e7, []int{1, 2, 5, 10}
		}
		return experiments.ThroughputVsN(ns, simTime, 1)
	}},
	{"boost", func(quick bool) (*experiments.Table, error) {
		ns, simTime, topK := []int{2, 5, 10, 15}, 3e7, 5
		if quick {
			ns, simTime, topK = []int{2, 5}, 5e6, 3
		}
		_, t, err := experiments.Boost(ns, simTime, topK, 1)
		return t, err
	}},
	{"sniffer", func(quick bool) (*experiments.Table, error) {
		duration := 240e6
		if quick {
			duration = 1e7
		}
		_, t, err := experiments.Sniffer(3, duration, 100_000, 1)
		return t, err
	}},
	{"fairness", func(quick bool) (*experiments.Table, error) {
		simTime, windows := 2e8, []int{10, 30, 100, 300, 1000}
		if quick {
			simTime, windows = 2e7, []int{10, 100, 1000}
		}
		return experiments.ShortTermFairness(2, windows, simTime, 1)
	}},
	{"delay", func(quick bool) (*experiments.Table, error) {
		duration, ns := 1e8, []int{1, 2, 3, 5, 7, 10}
		if quick {
			duration, ns = 1e7, []int{1, 3, 7}
		}
		return experiments.AccessDelay(ns, duration, 1)
	}},
	{"delay-load", func(quick bool) (*experiments.Table, error) {
		duration, loads := 1e8, []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9}
		if quick {
			duration, loads = 2e7, []float64{0.1, 0.5, 0.9}
		}
		return experiments.DelayVsLoad(3, loads, duration, 1)
	}},
	{"coexistence", func(quick bool) (*experiments.Table, error) {
		simTime, per := 1e8, 5
		if quick {
			simTime, per = 1e7, 3
		}
		// The aggressive capture case; the polite-boost case is covered
		// by the test suite and EXPERIMENTS.md.
		inf := 1 << 20
		aggressive := config.Params{Name: "aggressive", CW: []int{4, 8, 16, 32}, DC: []int{inf, inf, inf, inf}}
		return experiments.Coexistence(aggressive, per, simTime, 1)
	}},
	{"model-accuracy", func(quick bool) (*experiments.Table, error) {
		simTime, ns := 2e8, []int{2, 3, 4, 5, 7, 10, 15}
		if quick {
			simTime, ns = 2e7, []int{2, 5, 10}
		}
		return experiments.ModelAccuracy(ns, simTime, 1)
	}},
	{"ablation-deferral", func(quick bool) (*experiments.Table, error) {
		simTime, ns := 1e8, []int{2, 5, 10, 15}
		if quick {
			simTime, ns = 1e7, []int{2, 7}
		}
		return experiments.AblationDeferral(ns, simTime, 1)
	}},
	{"ablation-burst", func(quick bool) (*experiments.Table, error) {
		duration := 1e8
		if quick {
			duration = 1e7
		}
		return experiments.AblationBurstSize(3, duration, 1)
	}},
	{"ablation-agreement", func(quick bool) (*experiments.Table, error) {
		simTime, ns := 1e8, []int{1, 2, 4, 7}
		if quick {
			simTime, ns = 1e7, []int{2, 5}
		}
		return experiments.SimulatorAgreement(ns, simTime, 1)
	}},
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id or 'all': "+ids())
		quick    = flag.Bool("quick", false, "short durations for smoke runs")
		format   = flag.String("format", "md", "md | csv | json")
		out      = flag.String("out", "", "output directory (default stdout)")
		parallel = flag.Bool("parallel", false, "fan independent sweep points across GOMAXPROCS goroutines (bit-identical output)")
		scenF    = flag.String("scenario", "", "render a declarative scenario's replication statistics instead of a canned experiment")
		campF    = flag.String("campaign", "", "render a declarative campaign's grid results instead of a canned experiment")
		compare  = flag.Bool("compare", false, "run every -campaign grid point through both the analytic model and a simulator and render the divergence table")
		reps     = flag.Int("reps", 10, "independent-seed replications per scenario point (with -scenario)")
	)
	flag.Parse()
	switch *format {
	case "md", "csv", "json":
	default:
		fmt.Fprintf(os.Stderr, "plcbench: -format %s: want md, csv or json\n", *format)
		os.Exit(2)
	}
	if *parallel {
		experiments.SetWorkers(0) // 0 = GOMAXPROCS
	}
	if *campF != "" && *scenF != "" {
		fmt.Fprintln(os.Stderr, "plcbench: -scenario and -campaign are mutually exclusive")
		os.Exit(2)
	}

	if *campF != "" {
		// A campaign file owns its replication policy; a -reps that
		// silently did nothing would be worse than an error.
		repsSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "reps" {
				repsSet = true
			}
		})
		if repsSet {
			fmt.Fprintln(os.Stderr, "plcbench: -reps does not apply to -campaign (set \"reps\" or min_reps/max_reps in the campaign file)")
			os.Exit(2)
		}
		table := campaignTable
		if *compare {
			table = campaignCompareTable
		}
		t, err := table(*campF, *parallel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "plcbench:", err)
			os.Exit(1)
		}
		if err := render(t, *format, *out); err != nil {
			fmt.Fprintln(os.Stderr, "plcbench:", err)
			os.Exit(1)
		}
		return
	}
	if *compare {
		fmt.Fprintln(os.Stderr, "plcbench: -compare requires -campaign")
		os.Exit(2)
	}

	if *scenF != "" {
		if *reps < 1 {
			// Fail fast, naming the flag: asking for zero or negative
			// replications is always a harness mistake.
			fmt.Fprintf(os.Stderr, "plcbench: -reps = %d: replications must be ≥ 1\n", *reps)
			os.Exit(2)
		}
		t, err := scenarioTable(*scenF, *reps, *parallel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "plcbench:", err)
			os.Exit(1)
		}
		if err := render(t, *format, *out); err != nil {
			fmt.Fprintln(os.Stderr, "plcbench:", err)
			os.Exit(1)
		}
		return
	}

	selected := map[string]bool{}
	if *exp != "all" {
		for _, id := range strings.Split(*exp, ",") {
			selected[strings.TrimSpace(id)] = true
		}
	}

	ran := 0
	for _, entry := range all {
		if len(selected) > 0 && !selected[entry.id] {
			continue
		}
		t, err := entry.run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plcbench: %s: %v\n", entry.id, err)
			os.Exit(1)
		}
		if err := render(t, *format, *out); err != nil {
			fmt.Fprintf(os.Stderr, "plcbench: %s: %v\n", entry.id, err)
			os.Exit(1)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "plcbench: no experiment matches -exp %s (known: %s)\n", *exp, ids())
		os.Exit(2)
	}
}

// scenarioTable runs a declarative scenario's replications and renders
// the per-metric summaries as one table (rows ordered point-major, so
// output is bit-identical between serial and -parallel runs).
func scenarioTable(path string, reps int, parallel bool) (*experiments.Table, error) {
	spec, err := scenario.Load(path)
	if err != nil {
		return nil, err
	}
	c, err := scenario.Compile(spec)
	if err != nil {
		return nil, err
	}
	workers := 1
	if parallel {
		workers = runtime.GOMAXPROCS(0)
	}
	report, err := scenario.Replications(c, reps, workers)
	if err != nil {
		return nil, err
	}
	t := &experiments.Table{
		ID: "scenario-" + report.Spec.Name,
		// report.Reps, not the requested reps: the model engine
		// collapses deterministic studies to one evaluation per point.
		Title:  fmt.Sprintf("Scenario %s: %d replications per point (engine %s)", report.Spec.Name, report.Reps, report.Spec.Engine),
		Note:   report.Spec.Description,
		Header: []string{"N", "metric", "mean", "± 95% CI", "stddev", "min", "max"},
	}
	for _, p := range report.Points {
		for _, m := range p.Metrics {
			t.AddRow(fmt.Sprint(p.N), m.Name,
				fmt.Sprintf("%.6f", m.Summary.Mean),
				fmt.Sprintf("%.6f", m.Summary.CI95),
				fmt.Sprintf("%.6g", m.Summary.StdDev),
				fmt.Sprintf("%.6f", m.Summary.Min),
				fmt.Sprintf("%.6f", m.Summary.Max))
		}
	}
	return t, nil
}

// campaignTable runs a declarative campaign and renders the grid as one
// consolidated table: one row per grid point, with the point's axis
// coordinate, its (possibly adaptive) replication count, convergence
// status and the headline metrics as mean ± 95% CI.
func campaignTable(path string, parallel bool) (*experiments.Table, error) {
	spec, err := campaign.Load(path)
	if err != nil {
		return nil, err
	}
	c, err := campaign.Compile(spec)
	if err != nil {
		return nil, err
	}
	workers := 1
	if parallel {
		workers = runtime.GOMAXPROCS(0)
	}
	report, err := campaign.Run(c, campaign.Opts{Workers: workers})
	if err != nil {
		return nil, err
	}
	s := report.Spec
	repsDesc := fmt.Sprintf("%d replications per point", s.Reps)
	if s.Adaptive() {
		repsDesc = fmt.Sprintf("adaptive %d–%d replications", s.MinReps, s.MaxReps)
	}
	metrics := s.HeadlineMetrics()
	t := &experiments.Table{
		ID:     "campaign-" + s.Name,
		Title:  fmt.Sprintf("Campaign %s: %d points, %s (engine %s)", s.Name, len(report.Points), repsDesc, s.Base.Engine),
		Note:   s.Description,
		Header: []string{},
	}
	for _, a := range s.Axes {
		t.Header = append(t.Header, a.Path)
	}
	t.Header = append(t.Header, "reps", "converged")
	cv := s.Base.CVEnabled()
	if cv {
		// Control-variate campaigns grow a speedup column; plain tables
		// keep the historical header byte for byte.
		t.Header = append(t.Header, "speedup")
	}
	for _, m := range metrics {
		t.Header = append(t.Header, m+" mean", m+" ±95% CI")
	}
	// One shared reduction (campaign.Report.Grid) feeds every campaign
	// table surface, so flags and metric selection cannot drift from
	// the sim1901 text rendering.
	for _, g := range report.Grid() {
		row := append([]string(nil), g.Labels...)
		row = append(row, fmt.Sprint(g.Reps), g.Conv)
		if cv {
			row = append(row, campaign.FormatSpeedup(g.Speedup))
		}
		for _, ms := range g.Metrics {
			if ms == nil {
				row = append(row, "-", "-")
				continue
			}
			mean, hw := ms.Interval()
			row = append(row, fmt.Sprintf("%.6f", mean), fmt.Sprintf("%.6f", hw))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// campaignCompareTable runs a declarative campaign through compare
// mode — every grid point through both the analytic model and a
// simulator — and renders the campaign-wide per-metric divergence
// table: mean/max relative error, mean/max absolute error, and the
// worst grid point by name.
func campaignCompareTable(path string, parallel bool) (*experiments.Table, error) {
	spec, err := campaign.Load(path)
	if err != nil {
		return nil, err
	}
	c, err := campaign.Compile(spec)
	if err != nil {
		return nil, err
	}
	workers := 1
	if parallel {
		workers = runtime.GOMAXPROCS(0)
	}
	report, err := campaign.CompareRun(c, campaign.Opts{Workers: workers})
	if err != nil {
		return nil, err
	}
	s := report.Spec
	t := &experiments.Table{
		ID:     "campaign-compare-" + s.Name,
		Title:  fmt.Sprintf("Campaign %s: analytic model vs simulation over %d points, %d sim reps", s.Name, len(report.Points), report.Reps),
		Note:   s.Description,
		Header: []string{"metric", "mean rel", "max rel", "mean abs", "max abs", "worst point"},
	}
	for _, d := range report.Divergence() {
		worst := d.WorstRel
		if worst == "" {
			worst = d.WorstAbs
		}
		t.AddRow(d.Name,
			fmt.Sprintf("%.2f%%", 100*d.MeanRel),
			fmt.Sprintf("%.2f%%", 100*d.MaxRel),
			fmt.Sprintf("%.6f", d.MeanAbs),
			fmt.Sprintf("%.6f", d.MaxAbs),
			worst)
	}
	return t, nil
}

func ids() string {
	out := make([]string, len(all))
	for i, e := range all {
		out[i] = e.id
	}
	return strings.Join(out, ", ")
}

func render(t *experiments.Table, format, outDir string) error {
	var w io.Writer = os.Stdout
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		ext := ".md"
		switch format {
		case "csv":
			ext = ".csv"
		case "json":
			ext = ".json"
		}
		f, err := os.Create(filepath.Join(outDir, t.ID+ext))
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch format {
	case "csv":
		return t.WriteCSV(w)
	case "json":
		return t.WriteJSON(w)
	}
	return t.WriteMarkdown(w)
}
