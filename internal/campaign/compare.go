package campaign

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/par"
	"repro/internal/scenario"
)

// PointComparison is one grid point run through both the analytic
// model and a simulator.
type PointComparison struct {
	// Index is the point's row-major grid position.
	Index int `json:"index"`
	// Labels give the point's coordinate on every axis.
	Labels []AxisValue `json:"labels"`
	// Coord is the coordinate rendered for humans
	// ("stations[0].count=5, …").
	Coord string `json:"coord"`
	// Report is the point's model-vs-simulation comparison.
	Report *scenario.CompareReport `json:"report"`
}

// MetricDivergence reduces one metric's model-vs-simulation error over
// every grid point of a compare campaign: the summary row of the accuracy-envelope table.
type MetricDivergence struct {
	// Name is the canonical metric name.
	Name string `json:"name"`
	// MeanRel and MaxRel aggregate the per-point relative errors
	// |model − sim| / |sim| (points with a zero simulated mean are
	// excluded from the relative statistics).
	MeanRel float64 `json:"mean_rel,omitempty"`
	MaxRel  float64 `json:"max_rel,omitempty"`
	// MeanAbs and MaxAbs aggregate the absolute errors |model − sim|.
	MeanAbs float64 `json:"mean_abs"`
	MaxAbs  float64 `json:"max_abs"`
	// Points counts the comparisons aggregated.
	Points int `json:"points"`
	// WorstRel and WorstAbs name the grid point with the largest
	// relative and absolute error ("n=5, …").
	WorstRel string `json:"worst_rel,omitempty"`
	WorstAbs string `json:"worst_abs,omitempty"`
}

// CompareReport is a completed compare campaign: every grid point's
// paired model/simulation metrics plus the campaign-wide divergence
// reduction.
type CompareReport struct {
	// Spec is the normalized campaign spec.
	Spec Spec `json:"spec"`
	// Reps is the simulated replication count per point (the model side
	// is deterministic and evaluated once).
	Reps int `json:"reps"`
	// Points holds one comparison per grid point, in row-major order.
	Points []PointComparison `json:"points"`
}

// compareReps is the simulation-side replication count a campaign's
// compare mode uses: the fixed count, or the adaptive floor (the
// comparison pins the model against the simulated mean; it does not
// adapt).
func compareReps(s Spec) int {
	if s.Adaptive() {
		return s.MinReps
	}
	return s.Reps
}

// CompareRun evaluates every grid point of a compiled campaign through
// both the analytic model and a simulator (scenario.Compare picks the
// slot-synchronous engine where expressible, the event-driven MAC for
// the widened regimes) and pairs their metrics point by point. The
// simulation side runs compareReps(spec) replications; points fan
// across opts.Workers, and the report is bit-identical whatever the
// worker count. Only Workers and Context are honoured — comparisons
// are not cached and report no replication progress.
func CompareRun(c *Compiled, opts Opts) (*CompareReport, error) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	reps := compareReps(c.Spec)
	out := &CompareReport{Spec: c.Spec, Reps: reps}
	comparisons, err := par.MapCtx(ctx, opts.Workers, c.Points, func(_ int, p Point) (PointComparison, error) {
		spec := p.Spec
		// Compare derives both engine lowerings itself from an
		// engine-agnostic spec; a campaign whose base pins an engine
		// still compares the same physics.
		spec.Engine = ""
		spec.VarianceReduction = nil
		rep, err := scenario.Compare(spec, reps, 1)
		if err != nil {
			return PointComparison{}, fmt.Errorf("campaign %s: point %s: %w", c.Spec.Name, p.describeCoord(), err)
		}
		return PointComparison{Index: p.Index, Labels: p.Labels, Coord: p.describeCoord(), Report: rep}, nil
	})
	if err != nil {
		return nil, err
	}
	out.Points = comparisons
	return out, nil
}

// Divergence reduces the report to one row per metric, in the order
// the metrics first appear. Aggregation spans every grid point (a
// campaign base has no sweep_n, so each comparison is one point).
func (r *CompareReport) Divergence() []MetricDivergence {
	var order []string
	rows := map[string]*MetricDivergence{}
	relN := map[string]int{}
	for _, pc := range r.Points {
		for _, sp := range pc.Report.Points {
			for _, m := range sp.Metrics {
				d := rows[m.Name]
				if d == nil {
					d = &MetricDivergence{Name: m.Name}
					rows[m.Name] = d
					order = append(order, m.Name)
				}
				d.Points++
				d.MeanAbs += m.AbsDiff
				if m.AbsDiff > d.MaxAbs || d.WorstAbs == "" {
					d.MaxAbs, d.WorstAbs = m.AbsDiff, pc.Coord
				}
				if m.Sim.Mean != 0 {
					relN[m.Name]++
					d.MeanRel += m.RelDiff
					if m.RelDiff > d.MaxRel || d.WorstRel == "" {
						d.MaxRel, d.WorstRel = m.RelDiff, pc.Coord
					}
				}
			}
		}
	}
	out := make([]MetricDivergence, 0, len(order))
	for _, name := range order {
		d := rows[name]
		if d.Points > 0 {
			d.MeanAbs /= float64(d.Points)
		}
		if n := relN[name]; n > 0 {
			d.MeanRel /= float64(n)
		}
		out = append(out, *d)
	}
	return out
}

// MaxDivergence returns the named metric's campaign-wide divergence
// row, or nil when no comparison carried it — what the envelope
// acceptance suite asserts against.
func (r *CompareReport) MaxDivergence(metric string) *MetricDivergence {
	for _, d := range r.Divergence() {
		if d.Name == metric {
			return &d
		}
	}
	return nil
}

// Write renders the compare campaign as aligned plain text: a header,
// the per-metric divergence table over the whole grid, then each grid
// point's model/sim/delta lines. Pure function of the report.
func (r *CompareReport) Write(w io.Writer) error {
	s := r.Spec
	if _, err := fmt.Fprintf(w, "# compare campaign %s: analytic model vs simulation, %d points, %d sim reps (base %s, seed %d/%s)\n",
		s.Name, len(r.Points), r.Reps, s.Base.Name, s.Base.Seed, s.Base.SeedPolicy); err != nil {
		return err
	}
	div := r.Divergence()
	width := len("metric")
	for _, d := range div {
		if len(d.Name) > width {
			width = len(d.Name)
		}
	}
	if _, err := fmt.Fprintf(w, "\n%-*s  %9s  %9s  %12s  %12s  worst point\n",
		width, "metric", "mean rel", "max rel", "mean abs", "max abs"); err != nil {
		return err
	}
	for _, d := range div {
		worst := d.WorstRel
		if worst == "" {
			worst = d.WorstAbs
		}
		if _, err := fmt.Fprintf(w, "%-*s  %8.2f%%  %8.2f%%  %12.6f  %12.6f  %s\n",
			width, d.Name, 100*d.MeanRel, 100*d.MaxRel, d.MeanAbs, d.MaxAbs, worst); err != nil {
			return err
		}
	}
	for _, pc := range r.Points {
		if _, err := fmt.Fprintf(w, "\n## point %d: %s\n", pc.Index, pc.Coord); err != nil {
			return err
		}
		if err := pc.Report.WriteMetrics(w); err != nil {
			return err
		}
	}
	return nil
}

// Sane normalizes NaNs in a divergence row to +Inf: a NaN would slip
// past any ≤ threshold, so the envelope acceptance suite asserts on
// the sanitized row and fails loudly instead.
func (d MetricDivergence) Sane() MetricDivergence {
	fix := func(v float64) float64 {
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}
	d.MeanRel, d.MaxRel = fix(d.MeanRel), fix(d.MaxRel)
	d.MeanAbs, d.MaxAbs = fix(d.MeanAbs), fix(d.MaxAbs)
	return d
}
