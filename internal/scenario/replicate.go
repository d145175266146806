package scenario

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"repro/internal/par"
	"repro/internal/stats"
)

// mix is the SplitMix64 output finalizer: a bijective avalanche over 64
// bits, used to derive well-separated replication seeds from the base
// seed without touching the rng package's stream state.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// golden is the SplitMix64 increment (2⁶⁴/φ).
const golden = 0x9e3779b97f4a7c15

// RepSeed derives the seed of replication rep at sweep point (both
// 0-based) under the given policy. "increment" reproduces the classic
// sweep convention (base+rep at every point); "split" decorrelates
// points and replications through two SplitMix64 rounds.
func RepSeed(policy string, base uint64, point, rep int) uint64 {
	if policy == SeedIncrement {
		return base + uint64(rep)
	}
	z := mix(base + golden*uint64(point+1))
	return mix(z + golden*uint64(rep+1))
}

// MetricSummary aggregates one metric across replications. The JSON
// tags are part of the serving API (internal/serve marshals reports).
type MetricSummary struct {
	Name    string        `json:"name"`
	Summary stats.Summary `json:"summary"`
	// CV carries the control-variate estimate when the spec enables
	// variance reduction and the metric has control channels; nil
	// otherwise, so plain reports marshal to the same bytes as before
	// the estimator existed.
	CV *stats.CVEstimate `json:"cv,omitempty"`
}

// PointReport is one sweep point's aggregated result.
type PointReport struct {
	// N is the total station count at this point.
	N int `json:"n"`
	// Seeds lists each replication's derived seed, in replication order.
	Seeds []uint64 `json:"seeds"`
	// Metrics aggregates each metric across the replications, in the
	// engine's canonical metric order.
	Metrics []MetricSummary `json:"metrics"`
	// PerRep holds the raw per-replication metrics (replication-major),
	// so callers can post-process beyond mean/CI.
	PerRep [][]Metric `json:"per_rep"`
	// Controls holds each replication's control-variate vector
	// (replication-major, sim.ControlNames order) when the spec enables
	// variance reduction; nil otherwise.
	Controls [][]float64 `json:"controls,omitempty"`
}

// Report is the aggregated outcome of Replications.
type Report struct {
	// Spec is the normalized spec the run used.
	Spec Spec `json:"spec"`
	// Reps is the replication count per point.
	Reps int `json:"reps"`
	// Points holds one report per sweep point, in sweep order.
	Points []PointReport `json:"points"`
}

// Options tunes a replication run beyond the required counts. The zero
// value reproduces Replications exactly.
type Options struct {
	// Context, when non-nil, cancels the run cooperatively: replications
	// already started finish, unstarted ones are skipped, and the run
	// returns the context's error. A nil Context never cancels.
	Context context.Context
	// Progress, when non-nil, is called after every completed
	// replication with the number finished so far and the total
	// (points × reps). Calls are serialized, but — under a parallel
	// pool — not necessarily in replication order; done is monotonic.
	Progress func(done, total int)
}

// Replications runs reps independent-seed replications of every point
// of the compiled scenario, fanned across up to workers goroutines
// through the deterministic internal/par pool, and aggregates mean,
// standard deviation and 95% confidence interval per metric.
//
// Every replication owns its random streams (the seed derives from the
// spec's seed policy, then splits per station), and results are
// collected in input order — so the report is bit-identical whatever
// the worker count. workers ≤ 1 runs serially.
func Replications(c *Compiled, reps, workers int) (*Report, error) {
	return ReplicationsOpts(c, reps, workers, Options{})
}

// ReplicationsOpts is Replications with cancellation and per-replication
// progress reporting — the form the serving layer drives. The report of
// an uncancelled run is bit-identical to Replications on the same
// inputs, whatever the worker count.
func ReplicationsOpts(c *Compiled, reps, workers int, opts Options) (*Report, error) {
	if reps < 1 {
		return nil, fmt.Errorf("scenario %s: replications = %d must be ≥ 1", c.Spec.Name, reps)
	}
	if c.Spec.Engine == EngineModel {
		// Analytic points are deterministic — every replication would
		// return identical metrics, so the study collapses to a single
		// evaluation per point (n=1, zero-width CI) whatever reps was
		// requested. Report.Reps records the collapsed count.
		reps = 1
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	type job struct {
		point, rep int
		seed       uint64
	}
	jobs := make([]job, 0, len(c.Points)*reps)
	for pi := range c.Points {
		for r := 0; r < reps; r++ {
			jobs = append(jobs, job{pi, r, RepSeed(c.Spec.SeedPolicy, c.Spec.Seed, pi, r)})
		}
	}
	cv := c.Spec.CVEnabled()
	type repOut struct {
		metrics  []Metric
		controls []float64
	}
	var progressMu sync.Mutex
	done := 0
	results, err := par.MapCtx(ctx, workers, jobs, func(_ int, j job) (repOut, error) {
		var out repOut
		var err error
		if cv {
			out.metrics, out.controls, err = RunOnceCV(c.Points[j.point], j.seed)
		} else {
			out.metrics, err = RunOnce(c.Points[j.point], j.seed)
		}
		if err == nil && opts.Progress != nil {
			// Deferred unlock: a Progress callback that panics must not
			// leave the mutex held (par recovers the panic into an error,
			// and the surviving workers still report progress).
			func() {
				progressMu.Lock()
				defer progressMu.Unlock()
				done++
				opts.Progress(done, len(jobs))
			}()
		}
		return out, err
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{Spec: c.Spec, Reps: reps}
	for pi, p := range c.Points {
		seeds := make([]uint64, reps)
		perRep := make([][]Metric, reps)
		var controls [][]float64
		if cv {
			controls = make([][]float64, reps)
		}
		for r := 0; r < reps; r++ {
			j := pi*reps + r
			seeds[r] = jobs[j].seed
			perRep[r] = results[j].metrics
			if cv {
				controls[r] = results[j].controls
			}
		}
		rep.Points = append(rep.Points, SummarizePoint(p.N, seeds, perRep, controls, c.Spec.VarianceReduction))
	}
	return rep, nil
}

// SummarizePoint aggregates one point's replications into a
// PointReport: the raw per-replication metrics, their seeds, and one
// Summarizer.Metric reduction per metric in the engine's canonical
// order. This is the exact reduction Replications applies, exported so
// that other runners (the campaign engine's adaptive batches) produce
// byte-identical point reports from the same per-replication values.
// Plain callers pass (nil, nil) for controls and vr.
func SummarizePoint(n int, seeds []uint64, perRep [][]Metric, controls [][]float64, vr *VarianceReduction) PointReport {
	pr := PointReport{N: n, Seeds: seeds, PerRep: perRep}
	if cvApplies(perRep, controls, vr) {
		pr.Controls = controls
	}
	var sz Summarizer
	for mi := range perRep[0] {
		pr.Metrics = append(pr.Metrics, sz.Metric(perRep, controls, mi, vr))
	}
	return pr
}

// cvApplies reports whether vr requests control_variate and controls
// carries one vector per replication.
func cvApplies(perRep [][]Metric, controls [][]float64, vr *VarianceReduction) bool {
	return vr != nil && vr.Kind == VRControlVariate && len(controls) == len(perRep)
}

// A Summarizer reduces one metric of a point's replications at a time.
// It owns the sample and control buffers the reduction fills, so a
// caller that reduces the same point round after round (the adaptive
// campaign's stopping rule) reuses them. The zero value is ready.
type Summarizer struct {
	sample []float64
	rows   [][]float64
	flat   []float64
}

// Metric reduces metric mi (an index into each replication's canonical
// metric order) to its published MetricSummary: the mean/stddev/95%-CI
// Summary and — when vr requests control_variate, controls carries one
// vector per replication and the metric has control channels — the
// CVEstimate of the canonical two-pass stats.SummarizeCV. Both are pure
// functions of the ordered sample, hence bit-identical between serial
// and parallel runs.
func (sz *Summarizer) Metric(perRep [][]Metric, controls [][]float64, mi int, vr *VarianceReduction) MetricSummary {
	sz.sample = slices.Grow(sz.sample[:0], len(perRep))
	for _, rep := range perRep {
		sz.sample = append(sz.sample, rep[mi].Value)
	}
	name := perRep[0][mi].Name
	ms := MetricSummary{Name: name, Summary: stats.Summarize(sz.sample)}
	if !cvApplies(perRep, controls, vr) {
		return ms
	}
	cols := CVControlColumns(name)
	if len(cols) == 0 {
		return ms
	}
	sz.rows = slices.Grow(sz.rows[:0], len(controls))
	sz.flat = slices.Grow(sz.flat[:0], len(controls)*len(cols))
	for _, c := range controls {
		for _, col := range cols {
			sz.flat = append(sz.flat, c[col])
		}
	}
	for r := range controls {
		sz.rows = append(sz.rows, sz.flat[r*len(cols):(r+1)*len(cols)])
	}
	est := stats.SummarizeCV(sz.sample, sz.rows, stats.CVOpts{PilotReps: vr.PilotReps, MinCorr: vr.MinCorr, MaxBeta: vr.MaxBeta})
	ms.CV = &est
	return ms
}

// Interval returns the (mean, 95% CI half-width) pair the metric
// publishes: the control-variate estimate when a fit applied, the plain
// sample summary otherwise. Every table cell and the adaptive stopping
// rule read this one pair.
func (m *MetricSummary) Interval() (mean, ci95 float64) {
	if m.CV != nil && m.CV.Applied {
		return m.CV.Mean, m.CV.CI95
	}
	return m.Summary.Mean, m.Summary.CI95
}

// Write renders the report as aligned plain text: a header describing
// the scenario, then one "metric = mean ± ci95" line per metric (and a
// "# N = …" block per sweep point). The output is a pure function of
// the report, hence bit-identical between serial and parallel runs.
func (r *Report) Write(w io.Writer) error {
	s := r.Spec
	if _, err := fmt.Fprintf(w, "# scenario %s (engine %s, %d stations", s.Name, s.Engine, s.N()); err != nil {
		return err
	}
	if len(s.SweepN) > 0 {
		if _, err := fmt.Fprintf(w, " max, sweep over N=%v", s.SweepN); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, ", %d reps, seed %d/%s)\n", r.Reps, s.Seed, s.SeedPolicy); err != nil {
		return err
	}
	if s.Description != "" {
		if _, err := fmt.Fprintf(w, "# %s\n", s.Description); err != nil {
			return err
		}
	}
	width := 0
	for _, p := range r.Points {
		for _, m := range p.Metrics {
			if len(m.Name) > width {
				width = len(m.Name)
			}
		}
	}
	for _, p := range r.Points {
		if len(s.SweepN) > 0 {
			if _, err := fmt.Fprintf(w, "\n# N = %d\n", p.N); err != nil {
				return err
			}
		}
		for _, m := range p.Metrics {
			pad := strings.Repeat(" ", width-len(m.Name))
			if m.Summary.N == 1 {
				// A single sample has no confidence interval; do not
				// print a zero-width one.
				if _, err := fmt.Fprintf(w, "%s%s = %.6f   (n=1, no CI)\n",
					m.Name, pad, m.Summary.Mean); err != nil {
					return err
				}
				continue
			}
			if m.CV != nil {
				// Control-variate runs print the adjusted estimate; the
				// raw half-width rides along so the reduction is visible
				// at a glance. A declined fit (weak correlation, pilot
				// sample) falls back to the raw estimate, marked "cv off".
				if m.CV.Applied {
					if _, err := fmt.Fprintf(w, "%s%s = %.6f ± %.6f   (95%% CI, n=%d, cv ×%.1f, raw ± %.6f)\n",
						m.Name, pad, m.CV.Mean, m.CV.CI95, m.Summary.N, m.CV.VarReduction, m.CV.RawCI95); err != nil {
						return err
					}
					continue
				}
				if _, err := fmt.Fprintf(w, "%s%s = %.6f ± %.6f   (95%% CI, n=%d, sd %.6g, cv off)\n",
					m.Name, pad, m.Summary.Mean, m.Summary.CI95, m.Summary.N, m.Summary.StdDev); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s = %.6f ± %.6f   (95%% CI, n=%d, sd %.6g)\n",
				m.Name, pad, m.Summary.Mean, m.Summary.CI95, m.Summary.N, m.Summary.StdDev); err != nil {
				return err
			}
		}
	}
	return nil
}

// Describe summarizes a compiled scenario in one line — the -validate
// output of cmd/sim1901 and the CI scenario check.
func (c *Compiled) Describe() string {
	s := c.Spec
	if len(s.SweepN) > 0 {
		return fmt.Sprintf("scenario %s: engine %s, sweep over N=%v, %d group(s)",
			s.Name, s.Engine, s.SweepN, len(s.Stations))
	}
	return fmt.Sprintf("scenario %s: engine %s, N=%d, %d group(s)",
		s.Name, s.Engine, c.Points[0].N, len(s.Stations))
}
