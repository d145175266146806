package scenario

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/stats"
)

// MetricComparison is one metric's model-vs-simulation divergence at
// one operating point.
type MetricComparison struct {
	// Name is the canonical metric name (shared by both engines).
	Name string `json:"name"`
	// Model is the analytic prediction (a single deterministic value).
	Model float64 `json:"model"`
	// Sim aggregates the simulated replications of the same metric.
	Sim stats.Summary `json:"sim"`
	// AbsDiff is |model − sim mean|; RelDiff is AbsDiff normalized by
	// |sim mean| (0 when the simulated mean is 0).
	AbsDiff float64 `json:"abs_diff"`
	RelDiff float64 `json:"rel_diff"`
}

// ComparePoint is one sweep point of a comparison.
type ComparePoint struct {
	N       int                `json:"n"`
	Metrics []MetricComparison `json:"metrics"`
}

// CompareReport is the model-vs-simulation study Compare produces: the
// decoupling approximation's predictions next to replicated simulation
// statistics, metric by metric — the repository form of the paper's
// model-accuracy validation.
type CompareReport struct {
	// Spec is the normalized simulation spec the comparison ran.
	Spec Spec `json:"spec"`
	// Reps is the simulated replication count per point (the model side
	// is deterministic and evaluated once).
	Reps int `json:"reps"`
	// Points pairs the two engines per sweep point, in sweep order.
	Points []ComparePoint `json:"points"`
}

// Compare evaluates a spec through both the analytic model engine and
// a simulator — the slot-synchronous engine when the spec is
// expressible there, the event-driven MAC otherwise (Poisson or silent
// traffic, mixed priorities) — and pairs their canonical metrics by
// name. The spec must be model-expressible; reps and workers shape
// only the simulation side. The report is bit-identical whatever the
// worker count, like everything else in this package.
func Compare(spec Spec, reps, workers int) (*CompareReport, error) {
	ms := spec
	ms.Engine = EngineModel
	// The model side is deterministic: variance reduction is meaningless
	// there (and rejected by Validate), so a CV-enabled sim spec still
	// compares cleanly.
	ms.VarianceReduction = nil
	mc, err := Compile(ms)
	if err != nil {
		return nil, err
	}
	mrep, err := Replications(mc, 1, 1)
	if err != nil {
		return nil, err
	}

	ss := spec
	ss.Engine = EngineSim
	if why := ss.needsMac(); why != "" {
		// The regimes only the widened model covers analytically are
		// simulated by the event-driven MAC; its shared metric names
		// (collision_pr, norm_throughput, …) pair with the model's.
		ss.Engine = EngineMac
		ss.VarianceReduction = nil
	}
	sc, err := Compile(ss)
	if err != nil {
		return nil, err
	}
	srep, err := Replications(sc, reps, workers)
	if err != nil {
		return nil, err
	}

	out := &CompareReport{Spec: srep.Spec, Reps: reps}
	for pi, sp := range srep.Points {
		cp := ComparePoint{N: sp.N}
		modelByName := map[string]float64{}
		for _, m := range mrep.Points[pi].Metrics {
			modelByName[m.Name] = m.Summary.Mean
		}
		for _, m := range sp.Metrics {
			if ss.Engine == EngineMac && m.Name == "idle_slots" {
				// The event-driven MAC's idle counter includes
				// priority-resolution slots and the quiet periods it
				// fast-forwards, so it measures a different quantity
				// than the model's (and sim engine's) virtual-slot
				// idle; pairing the two would only add noise.
				continue
			}
			mv, ok := modelByName[m.Name]
			if !ok {
				continue
			}
			mc := MetricComparison{Name: m.Name, Model: mv, Sim: m.Summary}
			mc.AbsDiff = math.Abs(mv - m.Summary.Mean)
			if m.Summary.Mean != 0 {
				mc.RelDiff = mc.AbsDiff / math.Abs(m.Summary.Mean)
			}
			cp.Metrics = append(cp.Metrics, mc)
		}
		out.Points = append(out.Points, cp)
	}
	return out, nil
}

// Write renders the comparison as aligned plain text: a header naming
// the scenario, then the WriteMetrics lines. Pure function of the
// report.
func (r *CompareReport) Write(w io.Writer) error {
	s := r.Spec
	if _, err := fmt.Fprintf(w, "# compare scenario %s: analytic model vs engine %s (%d stations%s, %d sim reps, seed %d/%s)\n",
		s.Name, s.Engine, s.N(), s.sweepClause(), r.Reps, s.Seed, s.SeedPolicy); err != nil {
		return err
	}
	return r.WriteMetrics(w)
}

// WriteMetrics renders the comparison's metric lines, one per metric
// with the model value, the simulated mean ± CI and the absolute and
// relative divergence (under a "# N = …" line per sweep point) — the
// body of Write without its header, which a compare campaign replaces
// with its own.
func (r *CompareReport) WriteMetrics(w io.Writer) error {
	width := 0
	for _, p := range r.Points {
		for _, m := range p.Metrics {
			if len(m.Name) > width {
				width = len(m.Name)
			}
		}
	}
	for _, p := range r.Points {
		if len(r.Spec.SweepN) > 0 {
			if _, err := fmt.Fprintf(w, "\n# N = %d\n", p.N); err != nil {
				return err
			}
		}
		for _, m := range p.Metrics {
			pad := strings.Repeat(" ", width-len(m.Name))
			if _, err := fmt.Fprintf(w, "%s%s  model %14.6f   sim %14.6f ± %.6f   |Δ| %.6f (%.2f%%)\n",
				m.Name, pad, m.Model, m.Sim.Mean, m.Sim.CI95, m.AbsDiff, 100*m.RelDiff); err != nil {
				return err
			}
		}
	}
	return nil
}
