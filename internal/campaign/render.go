package campaign

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"

	"repro/internal/scenario"
)

// HeadlineMetrics returns the metric columns a consolidated campaign
// table shows: the paper's two outputs (collision probability and
// normalized throughput) plus every adaptively targeted metric, without
// duplicates, in canonical report order where possible.
func (s Spec) HeadlineMetrics() []string {
	out := []string{"collision_pr", "norm_throughput"}
	for _, tg := range s.Targets {
		dup := false
		for _, m := range out {
			if m == tg.Metric {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, tg.Metric)
		}
	}
	return out
}

// metricSummary finds a metric by name in a point's report (nil when
// the point's engine does not report it).
func metricSummary(rep *scenario.Report, name string) *scenario.MetricSummary {
	for i := range rep.Points[0].Metrics {
		if rep.Points[0].Metrics[i].Name == name {
			return &rep.Points[0].Metrics[i]
		}
	}
	return nil
}

// GridRow is one grid point reduced to table form. Every renderer of a
// consolidated campaign table (the plain-text Write, plcbench's
// markdown/CSV/JSON tables) consumes this one reduction, so the
// convergence flag and metric selection cannot drift between surfaces.
type GridRow struct {
	// Labels are the point's axis values in axis order, rendered as
	// compact JSON.
	Labels []string
	// Reps is the point's final replication count.
	Reps int
	// Conv is the convergence flag: "yes"/"NO" for adaptive campaigns,
	// "-" for fixed replication counts.
	Conv string
	// Speedup is the point's control-variate variance-reduction factor
	// (PointResult.Speedup); zero for plain campaigns, where renderers
	// omit the column entirely.
	Speedup float64
	// Metrics holds one summary per Spec.HeadlineMetrics() entry, in
	// order; nil where the point's engine does not report the metric.
	Metrics []*scenario.MetricSummary
}

// Grid reduces the report to one GridRow per grid point, aligned with
// Spec.HeadlineMetrics().
func (r *Report) Grid() []GridRow {
	metrics := r.Spec.HeadlineMetrics()
	rows := make([]GridRow, len(r.Points))
	for i, p := range r.Points {
		row := GridRow{Reps: p.Reps, Conv: "-", Speedup: p.Speedup}
		if r.Spec.Adaptive() {
			row.Conv = "yes"
			if !p.Converged {
				row.Conv = "NO"
			}
		}
		for _, l := range p.Labels {
			row.Labels = append(row.Labels, valueString(l.Value))
		}
		for _, m := range metrics {
			row.Metrics = append(row.Metrics, metricSummary(p.Report, m))
		}
		rows[i] = row
	}
	return rows
}

// formatCell renders one metric summary as a table cell: the interval
// the point publishes (MetricSummary.Interval — the reduced one where a
// CV fit applied; the raw one is in the point's full report). A nil
// summary means the engine does not report the metric at this point.
func formatCell(ms *scenario.MetricSummary) string {
	switch {
	case ms == nil:
		return "-"
	case ms.Summary.N == 1:
		return fmt.Sprintf("%.6f", ms.Summary.Mean)
	default:
		mean, hw := ms.Interval()
		return fmt.Sprintf("%.6f ± %.6f", mean, hw)
	}
}

// FormatSpeedup renders a variance-reduction factor for tables: "×12.3"
// with one decimal, "-" when no estimate applied. Shared by the plain
// writer and plcbench's markdown/CSV tables so the surfaces agree.
func FormatSpeedup(s float64) string {
	if s <= 0 {
		return "-"
	}
	return fmt.Sprintf("×%.1f", s)
}

// Write renders the campaign as aligned plain text: a header describing
// the grid and replication policy, one line per axis, then one row per
// grid point with its coordinate, replication count, convergence flag
// and the headline metrics as mean ± 95% CI. Pure function of the
// report, hence bit-identical between serial, parallel and served runs.
func (r *Report) Write(w io.Writer) error {
	s := r.Spec
	reps := plural(s.Reps, "rep", "reps") + " per point"
	if s.Adaptive() {
		reps = fmt.Sprintf("adaptive %d–%d reps (batch %d)", s.MinReps, s.MaxReps, s.BatchReps)
	}
	if _, err := fmt.Fprintf(w, "# campaign %s (base %s, engine %s, %s, %s, %s, seed %d/%s)\n",
		s.Name, s.Base.Name, s.Base.Engine, plural(len(s.Axes), "axis", "axes"),
		plural(len(r.Points), "point", "points"), reps, s.Base.Seed, s.Base.SeedPolicy); err != nil {
		return err
	}
	if s.Description != "" {
		if _, err := fmt.Fprintf(w, "# %s\n", s.Description); err != nil {
			return err
		}
	}
	for _, a := range s.Axes {
		vals := make([]string, len(a.Values))
		for i, v := range a.Values {
			vals[i] = valueString(v)
		}
		if _, err := fmt.Fprintf(w, "# axis %s: [%s]\n", a.Path, strings.Join(vals, " ")); err != nil {
			return err
		}
	}
	for _, tg := range s.Targets {
		goal := fmt.Sprintf("±%g", tg.CI)
		if tg.RelCI > 0 {
			goal = fmt.Sprintf("±%g×|mean|", tg.RelCI)
		}
		if _, err := fmt.Fprintf(w, "# target %s: 95%% CI half-width %s\n", tg.Metric, goal); err != nil {
			return err
		}
	}

	metrics := s.HeadlineMetrics()
	cv := s.Base.CVEnabled()
	header := make([]string, 0, len(s.Axes)+3+len(metrics))
	for _, a := range s.Axes {
		header = append(header, a.Path)
	}
	header = append(header, "reps", "conv")
	if cv {
		// The speedup column exists only for control-variate campaigns,
		// so plain campaign tables stay byte-identical to the goldens
		// that predate the estimator.
		header = append(header, "speedup")
	}
	header = append(header, metrics...)
	rows := [][]string{header}
	for _, g := range r.Grid() {
		row := append([]string(nil), g.Labels...)
		row = append(row, fmt.Sprint(g.Reps), g.Conv)
		if cv {
			row = append(row, FormatSpeedup(g.Speedup))
		}
		for _, ms := range g.Metrics {
			row = append(row, formatCell(ms))
		}
		rows = append(rows, row)
	}

	widths := make([]int, len(header))
	for _, row := range rows {
		for i, cell := range row {
			// Rune count, not byte length: the speedup column's "×"
			// is multi-byte, and byte-padding would skew every column
			// to its right.
			if n := utf8.RuneCountInString(cell); n > widths[i] {
				widths[i] = n
			}
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for _, row := range rows {
		cells := make([]string, len(row))
		for i, cell := range row {
			cells[i] = cell + strings.Repeat(" ", widths[i]-utf8.RuneCountInString(cell))
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(cells, "  "), " ")); err != nil {
			return err
		}
	}
	return nil
}
