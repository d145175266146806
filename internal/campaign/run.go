package campaign

import (
	"context"
	"math"

	"repro/internal/scenario"
)

// Cache lets a runner consult a content-addressed result store before
// simulating a grid point and publish what it computes. Keys are
// scenario.Fingerprint(point spec, reps) — the same keys the serving
// layer uses for individual submissions, which is what makes campaign
// points, direct jobs and reruns dedupe onto one another. A nil Cache
// disables lookups (the plain CLI path).
type Cache interface {
	// Get returns the cached replication report for key, if known.
	Get(key string) (*scenario.Report, bool)
	// Put stores a computed replication report under key.
	Put(key string, rep *scenario.Report)
}

// Opts tunes a campaign run. The zero value runs serially, uncached,
// without progress callbacks.
type Opts struct {
	// Workers is the par pool width replication batches fan across;
	// ≤ 1 runs serially. Results are bit-identical either way.
	Workers int
	// Context, when non-nil, cancels the run cooperatively between
	// replications.
	Context context.Context
	// Cache, when non-nil, is consulted per point and replication count
	// before simulating, and filled with every computed batch.
	Cache Cache
	// Progress, when non-nil, is called after every completed or
	// cache-adopted replication with the totals scheduled so far.
	// Calls are serialized; done is monotonic, total may grow as
	// adaptive batches are scheduled.
	Progress func(done, total int)
	// PointDone, when non-nil, is called each time a grid point
	// reaches its final replication count.
	PointDone func(done, total int)
}

// PointResult is one grid point's outcome.
type PointResult struct {
	// Index is the point's row-major grid position.
	Index int `json:"index"`
	// Labels give the point's coordinate on every axis.
	Labels []AxisValue `json:"labels"`
	// Key is the point's content address,
	// scenario.Fingerprint(spec, reps).
	Key string `json:"key"`
	// Reps is the final replication count: the fixed count, or where
	// adaptive replication stopped.
	Reps int `json:"reps"`
	// Converged reports whether every target met its half-width goal
	// (always true for fixed-rep campaigns and model-engine points).
	Converged bool `json:"converged"`
	// Report is the point's aggregated replication report —
	// byte-identical to running Spec standalone with -reps Reps.
	Report *scenario.Report `json:"report"`
	// Speedup is the control-variate variance-reduction factor at the
	// final count: the minimum VarReduction across the targeted metrics
	// (across all control-carrying metrics for fixed-rep campaigns).
	// Zero — and omitted from JSON — for plain campaigns, so their
	// reports marshal to the same bytes as before the estimator existed.
	Speedup float64 `json:"speedup,omitempty"`
}

// Report is a completed campaign.
type Report struct {
	// Spec is the normalized campaign spec.
	Spec Spec `json:"spec"`
	// Points holds one result per grid point, in row-major order.
	Points []PointResult `json:"points"`
	// SimulatedReps counts the replications actually simulated (cache
	// adoptions excluded). Not part of the canonical result — a rerun
	// answered from cache reports 0 here with identical JSON.
	SimulatedReps int `json:"-"`
}

// repSchedule builds a point's cumulative replication schedule.
// (RunStudy collapses a model-engine point to one evaluation, whatever
// its schedule.)
func repSchedule(s Spec) []int {
	if !s.Adaptive() {
		return []int{s.Reps}
	}
	sched := []int{s.MinReps}
	for r := s.MinReps; r < s.MaxReps; {
		r += s.BatchReps
		if r > s.MaxReps {
			r = s.MaxReps
		}
		sched = append(sched, r)
	}
	return sched
}

// converged evaluates the campaign's targets against the intervals a
// point's sample publishes at its current count
// (MetricSummary.Interval): the CV-adjusted interval where a fit
// applied, which is where the simulated-rep savings come from, the
// plain one otherwise. A single-sample point never converges (its CI is
// vacuously zero), except for the deterministic model engine, whose
// schedule is pinned to one evaluation anyway.
func converged(s Spec, engine string, smp *scenario.Sample) bool {
	if !s.Adaptive() || engine == scenario.EngineModel {
		return true
	}
	for _, tg := range s.Targets {
		ms, ok := smp.Metric(tg.Metric)
		if !ok || ms.Summary.N < 2 {
			return false // a missing metric is unreachable: Compile checked target names
		}
		mean, hw := ms.Interval()
		switch {
		case tg.CI > 0:
			if hw > tg.CI {
				return false
			}
		default:
			if hw > tg.RelCI*math.Abs(mean) {
				return false
			}
		}
	}
	return true
}

// Run executes a compiled campaign on scenario.RunStudy: every grid
// point runs its replication schedule, points converge (or cap out)
// independently, and each round's fresh replications fan across the
// par pool. The campaign supplies the schedule, the stopping rule and
// the cache. The report is bit-identical whatever the worker count, and
// each point's embedded scenario.Report is bit-identical to
// scenario.Replications on the point's expanded spec at the same
// replication count.
func Run(c *Compiled, opts Opts) (*Report, error) {
	out := &Report{Spec: c.Spec, Points: make([]PointResult, len(c.Points))}
	points := make([]scenario.StudyPoint, len(c.Points))
	schedule := repSchedule(c.Spec)
	for i, p := range c.Points {
		points[i] = scenario.StudyPoint{C: p.Compiled, Schedule: schedule}
	}
	var cached func(pt, reps int) (*scenario.PointReport, error)
	if opts.Cache != nil {
		// A cached identical study — an earlier campaign run, or a
		// direct submission of the expanded spec at this count —
		// supplies all reps up to the count without simulating.
		cached = func(pt, reps int) (*scenario.PointReport, error) {
			spec := c.Points[pt].Spec
			key, err := scenario.Fingerprint(spec, reps)
			if err != nil {
				return nil, err // unreachable: the spec compiled already
			}
			if rep, ok := opts.Cache.Get(key); ok && cacheUsable(rep, reps, spec.CVEnabled()) {
				return &rep.Points[0], nil
			}
			return nil, nil
		}
	}
	report := func(p *Point, s *scenario.Sample) *scenario.Report {
		return &scenario.Report{Spec: p.Spec, Reps: s.Reps(), Points: []scenario.PointReport{*s.Report()}}
	}
	pointsDone := 0
	reached := func(pt int, s *scenario.Sample, cached, last bool) (bool, error) {
		p := &c.Points[pt]
		// Publish the cumulative study at this count — it is exactly
		// what a direct -reps run would compute, and it is what makes a
		// rerun of this campaign find every batch in cache. A count
		// adopted whole from cache is already there under this very
		// key; re-encoding it would be pure waste.
		var rep *scenario.Report
		if opts.Cache != nil && !cached {
			key, err := scenario.Fingerprint(p.Spec, s.Reps())
			if err != nil {
				return false, err
			}
			rep = report(p, s)
			opts.Cache.Put(key, rep)
		}
		conv := converged(c.Spec, p.Spec.Engine, s)
		if !conv && !last {
			return false, nil
		}
		key, err := scenario.Fingerprint(p.Spec, s.Reps())
		if err != nil {
			return false, err
		}
		if rep == nil {
			rep = report(p, s)
		}
		out.Points[pt] = PointResult{
			Index:     p.Index,
			Labels:    p.Labels,
			Key:       key,
			Reps:      s.Reps(),
			Converged: conv,
			Report:    rep,
		}
		if p.Spec.CVEnabled() {
			out.Points[pt].Speedup = reportSpeedup(rep, c.Spec.Targets)
		}
		pointsDone++
		if opts.PointDone != nil {
			opts.PointDone(pointsDone, len(c.Points))
		}
		return true, nil
	}
	simulated, err := scenario.RunStudy(points, opts.Workers,
		scenario.Options{Context: opts.Context, Progress: opts.Progress}, cached, reached)
	if err != nil {
		return nil, err
	}
	out.SimulatedReps = simulated
	return out, nil
}

// cacheUsable sanity-checks a cached report before adoption: one point,
// the right replication count, per-rep metrics present — and, for
// control-variate points, the control vectors, without which the CV
// reduction could not continue into later batches.
func cacheUsable(rep *scenario.Report, reps int, cv bool) bool {
	if rep == nil || rep.Reps != reps || len(rep.Points) != 1 ||
		len(rep.Points[0].PerRep) != reps || len(rep.Points[0].Seeds) != reps {
		return false
	}
	return !cv || len(rep.Points[0].Controls) == reps
}

// reportSpeedup reduces a point's CV estimates to the single speedup
// figure the grid table shows: the minimum variance-reduction factor
// across the targeted metrics (across every control-carrying metric for
// fixed-rep campaigns) — i.e. the factor the slowest-improving targeted
// estimate gained. A declined fit counts as ×1; zero means no metric
// carried an estimate at all.
func reportSpeedup(rep *scenario.Report, targets []Target) float64 {
	targeted := map[string]bool{}
	for _, tg := range targets {
		targeted[tg.Metric] = true
	}
	speedup := 0.0
	for _, m := range rep.Points[0].Metrics {
		if len(targets) > 0 && !targeted[m.Name] {
			continue
		}
		if m.CV == nil {
			continue
		}
		vr := 1.0
		if m.CV.Applied {
			vr = m.CV.VarReduction
		}
		if speedup == 0 || vr < speedup {
			speedup = vr
		}
	}
	return speedup
}
