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
	// scheduled (points × reps for Replications; it grows as RunStudy
	// schedules later rounds). Calls are serialized, but — under a
	// parallel pool — not necessarily in replication order; done is
	// monotonic.
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
// progress reporting — the form the serving layer drives. It is the
// fixed-schedule RunStudy: every sweep point runs reps replications,
// uncached. The report of an uncancelled run is bit-identical to
// Replications on the same inputs, whatever the worker count.
func ReplicationsOpts(c *Compiled, reps, workers int, opts Options) (*Report, error) {
	if reps < 1 {
		return nil, fmt.Errorf("scenario %s: replications = %d must be ≥ 1", c.Spec.Name, reps)
	}
	rep := &Report{Spec: c.Spec, Points: make([]PointReport, len(c.Points))}
	points := make([]StudyPoint, len(c.Points))
	schedule := []int{reps}
	for pi := range points {
		points[pi] = StudyPoint{C: c, Index: pi, Schedule: schedule}
	}
	_, err := RunStudy(points, workers, opts, nil, func(pi int, s *Sample, _, _ bool) (bool, error) {
		rep.Reps, rep.Points[pi] = s.Reps(), *s.Report()
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// A StudyPoint is one point of a replication study, and its progress
// through RunStudy: point Index of the compiled scenario C, replicated
// up to the cumulative counts of Schedule, whose last count is the
// point's cap.
type StudyPoint struct {
	C        *Compiled
	Index    int
	Schedule []int

	step     int // index into Schedule of the count being built
	cachedAt int // the count last adopted whole from cache
	done     bool
	sample   Sample
}

// collapsed is the schedule of a model-engine point: analytic points
// are deterministic — every replication would return identical
// metrics — so the study collapses to a single evaluation (n=1,
// zero-width CI) whatever count was requested.
var collapsed = []int{1}

// progressCount is a study's one serialized progress count.
type progressCount struct {
	mu              sync.Mutex
	done, scheduled int
	report          func(done, total int)
}

// add counts n more replications landed and reports the count. The
// unlock is deferred: a report that panics (fault injection, a broken
// observer) must not leave the mutex held — par recovers the panic,
// and the surviving workers still pass through here.
func (pc *progressCount) add(n int) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.done += n
	if pc.report != nil {
		pc.report(pc.done, pc.scheduled)
	}
}

// RunStudy runs a replication study round by round; it is the one
// place replications fan across the par pool. Each round, every
// unfinished point takes its next scheduled count from cached (when
// non-nil, and when it returns a report) or schedules the replications
// it lacks, seeded RepSeed(policy, seed, Index, r); one MapCtx runs
// them all. Then reached is called, in point order, for every
// unfinished point: cached tells whether its count came whole from
// cache, last whether the count ends its schedule. The point stops
// when reached says so or its schedule ends.
//
// opts.Progress sees every simulated or adopted replication, serialized,
// against the total scheduled so far. Samples, and every report built
// from them, are bit-identical whatever the worker count. RunStudy
// returns the number of replications simulated (adoptions excluded).
func RunStudy(points []StudyPoint, workers int, opts Options,
	cached func(pt, reps int) (*PointReport, error),
	reached func(pt int, s *Sample, cached, last bool) (stop bool, err error)) (int, error) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	for i := range points {
		p := &points[i]
		p.sample = Sample{n: p.C.Points[p.Index].N, cv: p.C.Spec.CVEnabled(), vr: p.C.Spec.VarianceReduction}
		if p.C.Spec.Engine == EngineModel {
			p.Schedule = collapsed
		}
	}
	pc := &progressCount{report: opts.Progress}
	simulated := 0
	type job struct {
		p    *StudyPoint
		seed uint64
	}
	type repOut struct {
		metrics  []Metric
		controls []float64
	}
	for {
		// A round answered wholly from cache never enters MapCtx, so
		// cancellation is observed here too: a cancelled study must not
		// complete off cached counts.
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		var jobs []job
		for i := range points {
			p := &points[i]
			if p.done {
				continue
			}
			target, have := p.Schedule[p.step], p.sample.Reps()
			if cached != nil {
				pr, err := cached(i, target)
				if err != nil {
					return 0, err
				}
				if pr != nil {
					p.sample.adopt(pr, target)
					p.cachedAt = target
					pc.scheduled += target - have
					pc.add(target - have)
					continue
				}
			}
			if have == 0 {
				p.sample.grow(target)
			}
			for r := have; r < target; r++ {
				jobs = append(jobs, job{p, RepSeed(p.C.Spec.SeedPolicy, p.C.Spec.Seed, p.Index, r)})
			}
		}
		pc.scheduled += len(jobs)
		results, err := par.MapCtx(ctx, workers, jobs, func(_ int, j job) (repOut, error) {
			var out repOut
			var err error
			if pt := j.p.C.Points[j.p.Index]; j.p.sample.cv {
				out.metrics, out.controls, err = RunOnceCV(pt, j.seed)
			} else {
				out.metrics, err = RunOnce(pt, j.seed)
			}
			if err == nil {
				pc.add(1)
			}
			return out, err
		})
		if err != nil {
			return 0, err
		}
		simulated += len(jobs)
		for ji, j := range jobs {
			j.p.sample.add(j.seed, results[ji].metrics, results[ji].controls)
		}

		active := false
		for i := range points {
			p := &points[i]
			if p.done {
				continue
			}
			last := p.step == len(p.Schedule)-1
			stop, err := reached(i, &p.sample, p.cachedAt == p.Schedule[p.step], last)
			if err != nil {
				return 0, err
			}
			if stop || last {
				p.done = true
				continue
			}
			p.step++
			active = true
		}
		if !active {
			return simulated, nil
		}
	}
}

// A Sample is one study point's replications so far, in replication
// order, and the report built from them at the current count.
type Sample struct {
	n        int // the point's station count
	cv       bool
	vr       *VarianceReduction
	seeds    []uint64
	perRep   [][]Metric
	controls [][]float64 // control-variate points only
	sum      summarizer
	built    bool // report holds the current count
	report   PointReport
}

// Reps returns the number of replications the sample holds.
func (s *Sample) Reps() int { return len(s.seeds) }

// Report returns the point's report at the current count —
// SummarizePoint over the sample, built once per count. It is the
// report Replications produces for the same point and count.
func (s *Sample) Report() *PointReport {
	if !s.built {
		s.report = SummarizePoint(s.n, slices.Clip(s.seeds), slices.Clip(s.perRep), slices.Clip(s.controls), s.vr)
		s.built = true
	}
	return &s.report
}

// Metric returns the named metric's published summary at the current
// count (false when the engine reports no such metric): read from the
// report when one was built at this count, otherwise reduced alone.
func (s *Sample) Metric(name string) (MetricSummary, bool) {
	for mi, m := range s.perRep[0] {
		switch {
		case m.Name != name:
		case s.built:
			return s.report.Metrics[mi], true
		default:
			return s.sum.metric(s.perRep, s.controls, mi, s.vr), true
		}
	}
	return MetricSummary{}, false
}

// grow reserves room for n replications before the first land, so a
// fixed-count point fills its sample without regrowing it.
func (s *Sample) grow(n int) {
	s.seeds = slices.Grow(s.seeds, n)
	s.perRep = slices.Grow(s.perRep, n)
	if s.cv {
		s.controls = slices.Grow(s.controls, n)
	}
}

// add appends one freshly simulated replication.
func (s *Sample) add(seed uint64, metrics []Metric, controls []float64) {
	s.seeds = append(s.seeds, seed)
	s.perRep = append(s.perRep, metrics)
	if s.cv {
		s.controls = append(s.controls, controls)
	}
	s.built = false
}

// adopt replaces the sample with the first n replications of a cached
// report. The overlap is bit-identical by construction: same seeds,
// deterministic engines. The slices are copied, so later appends never
// write into the cached report.
func (s *Sample) adopt(pr *PointReport, n int) {
	s.seeds = append([]uint64(nil), pr.Seeds[:n]...)
	s.perRep = append([][]Metric(nil), pr.PerRep[:n]...)
	if s.cv {
		s.controls = append([][]float64(nil), pr.Controls[:n]...)
	}
	s.built = false
}

// SummarizePoint aggregates one point's replications into a
// PointReport: the raw per-replication metrics, their seeds, and one
// summarizer.metric reduction per metric in the engine's canonical
// order. This is the exact reduction every Sample's report applies,
// exported so that code holding per-replication values elsewhere
// rebuilds byte-identical point reports from them. Plain callers pass
// (nil, nil) for controls and vr.
func SummarizePoint(n int, seeds []uint64, perRep [][]Metric, controls [][]float64, vr *VarianceReduction) PointReport {
	pr := PointReport{N: n, Seeds: seeds, PerRep: perRep, Metrics: make([]MetricSummary, 0, len(perRep[0]))}
	if cvApplies(perRep, controls, vr) {
		pr.Controls = controls
	}
	var sz summarizer
	for mi := range perRep[0] {
		pr.Metrics = append(pr.Metrics, sz.metric(perRep, controls, mi, vr))
	}
	return pr
}

// cvApplies reports whether vr requests control_variate and controls
// carries one vector per replication.
func cvApplies(perRep [][]Metric, controls [][]float64, vr *VarianceReduction) bool {
	return vr != nil && vr.Kind == VRControlVariate && len(controls) == len(perRep)
}

// A summarizer reduces one metric of a point's replications at a time.
// It owns the sample and control buffers the reduction fills, so a
// Sample reduced round after round (the adaptive campaign's stopping
// rule) reuses them. The zero value is ready.
type summarizer struct {
	sample []float64
	rows   [][]float64
	flat   []float64
}

// metric reduces metric mi (an index into each replication's canonical
// metric order) to its published MetricSummary: the mean/stddev/95%-CI
// Summary and — when vr requests control_variate, controls carries one
// vector per replication and the metric has control channels — the
// CVEstimate of the canonical two-pass stats.SummarizeCV. Both are pure
// functions of the ordered sample, hence bit-identical between serial
// and parallel runs.
func (sz *summarizer) metric(perRep [][]Metric, controls [][]float64, mi int, vr *VarianceReduction) MetricSummary {
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
	if _, err := fmt.Fprintf(w, "# scenario %s (engine %s, %d stations%s, %d reps, seed %d/%s)\n",
		s.Name, s.Engine, s.N(), s.sweepClause(), r.Reps, s.Seed, s.SeedPolicy); err != nil {
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

// sweepClause completes a report header's station count: empty, or
// the sweep the count is the largest point of.
func (s Spec) sweepClause() string {
	if len(s.SweepN) == 0 {
		return ""
	}
	return fmt.Sprintf(" max, sweep over N=%v", s.SweepN)
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
