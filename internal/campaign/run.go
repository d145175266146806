package campaign

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/par"
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

// pointState tracks one grid point through the replication rounds.
type pointState struct {
	point    Point
	schedule []int // cumulative replication counts, ending at the cap
	step     int   // index into schedule of the count being built
	seeds    []uint64
	perRep   [][]scenario.Metric
	controls [][]float64 // per-rep control vectors (CV campaigns only)
	// sum holds the buffers the stopping rule reduces target metrics in.
	sum       scenario.Summarizer
	adoptedTo int // reps covered by cache adoption (no re-Put needed)
	finished  bool
	result    PointResult
}

// cv reports whether this point runs under control-variate estimation.
func (ps *pointState) cv() bool { return ps.point.Spec.CVEnabled() }

// repSchedule builds a point's cumulative replication schedule.
func repSchedule(s Spec, engine string) []int {
	if engine == scenario.EngineModel {
		// Analytic points are deterministic; every replication returns
		// identical metrics, so the study collapses to one evaluation —
		// mirroring scenario.Replications.
		return []int{1}
	}
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

// converged evaluates the campaign's targets against the intervals the
// point publishes at its current count (MetricSummary.Interval): the
// CV-adjusted interval where a fit applied, which is where the
// simulated-rep savings come from, the plain one otherwise. rep, when
// non-nil, is that count's report, already built; otherwise only the
// target metrics are reduced. A single-sample point never converges
// (its CI is vacuously zero), except for the deterministic model
// engine, whose schedule is pinned to one evaluation anyway.
func (ps *pointState) converged(s Spec, rep *scenario.Report) bool {
	if !s.Adaptive() || ps.point.Spec.Engine == scenario.EngineModel {
		return true
	}
	for _, tg := range s.Targets {
		var ms *scenario.MetricSummary
		if rep != nil {
			ms = metricSummary(rep, tg.Metric)
		} else if mi := metricIndex(ps.perRep[0], tg.Metric); mi >= 0 {
			m := ps.sum.Metric(ps.perRep, ps.controls, mi, ps.point.Spec.VarianceReduction)
			ms = &m
		}
		if ms == nil || ms.Summary.N < 2 {
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

// metricIndex returns the position of the named metric in a
// replication's canonical metric order (-1 when absent).
func metricIndex(metrics []scenario.Metric, name string) int {
	for i, m := range metrics {
		if m.Name == name {
			return i
		}
	}
	return -1
}

// Run executes a compiled campaign: every grid point runs its
// replication schedule, points converge (or cap out) independently, and
// each round's fresh replications fan across the par pool. The report
// is bit-identical whatever the worker count, and each point's embedded
// scenario.Report is bit-identical to scenario.Replications on the
// point's expanded spec at the same replication count.
func Run(c *Compiled, opts Opts) (*Report, error) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	states := make([]*pointState, len(c.Points))
	for i, p := range c.Points {
		states[i] = &pointState{point: p, schedule: repSchedule(c.Spec, p.Spec.Engine)}
	}

	out := &Report{Spec: c.Spec}
	var progressMu sync.Mutex
	scheduled, done := 0, 0
	progress := func(d int) {
		// Deferred unlock: a Progress callback that panics (fault
		// injection, a broken observer) must not leave the mutex held —
		// par recovers the panic, and the surviving workers still pass
		// through here.
		progressMu.Lock()
		defer progressMu.Unlock()
		done += d
		if opts.Progress != nil {
			opts.Progress(done, scheduled)
		}
	}
	pointsDone := 0
	// finish closes a point at reps; rep is the report at that count
	// when the round already built one for the cache.
	finish := func(ps *pointState, reps int, conv bool, rep *scenario.Report) error {
		key, err := scenario.Fingerprint(ps.point.Spec, reps)
		if err != nil {
			return err // unreachable: the spec compiled already
		}
		ps.finished = true
		if rep == nil {
			rep = ps.buildReport(reps)
		}
		ps.result = PointResult{
			Index:     ps.point.Index,
			Labels:    ps.point.Labels,
			Key:       key,
			Reps:      reps,
			Converged: conv,
			Report:    rep,
		}
		if ps.cv() {
			ps.result.Speedup = reportSpeedup(rep, c.Spec.Targets)
		}
		pointsDone++
		if opts.PointDone != nil {
			opts.PointDone(pointsDone, len(c.Points))
		}
		return nil
	}

	for round := 0; ; round++ {
		// Rounds that adopt everything from cache never enter MapCtx,
		// so cancellation must be observed here too — a DELETEd
		// campaign may not complete as done off cached batches.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		type job struct {
			ps   *pointState
			rep  int
			seed uint64
		}
		var jobs []job
		for _, ps := range states {
			if ps.finished {
				continue
			}
			target := ps.schedule[ps.step]
			need := target - len(ps.perRep)
			if need <= 0 {
				continue
			}
			// A cached identical study — an earlier campaign run, or a
			// direct submission of the expanded spec at this count —
			// supplies all reps up to target without simulating.
			if opts.Cache != nil {
				key, err := scenario.Fingerprint(ps.point.Spec, target)
				if err != nil {
					return nil, err
				}
				if rep, ok := opts.Cache.Get(key); ok && cacheUsable(rep, target, ps.cv()) {
					fresh := rep.Points[0].PerRep[len(ps.perRep):target]
					var ctrls [][]float64
					if ps.cv() {
						ctrls = rep.Points[0].Controls[:target]
					}
					ps.adopt(rep.Points[0].Seeds[:target], rep.Points[0].PerRep[:target], ctrls)
					ps.adoptedTo = target
					scheduled += len(fresh)
					progress(len(fresh))
					continue
				}
			}
			for r := len(ps.perRep); r < target; r++ {
				jobs = append(jobs, job{ps, r, scenario.RepSeed(ps.point.Spec.SeedPolicy, ps.point.Spec.Seed, 0, r)})
			}
		}
		scheduled += len(jobs)
		if len(jobs) > 0 {
			type repOut struct {
				metrics  []scenario.Metric
				controls []float64
			}
			results, err := par.MapCtx(ctx, opts.Workers, jobs, func(_ int, j job) (repOut, error) {
				var out repOut
				var err error
				if j.ps.cv() {
					out.metrics, out.controls, err = scenario.RunOnceCV(j.ps.point.Compiled.Points[0], j.seed)
				} else {
					out.metrics, err = scenario.RunOnce(j.ps.point.Compiled.Points[0], j.seed)
				}
				if err == nil {
					progress(1)
				}
				return out, err
			})
			if err != nil {
				return nil, err
			}
			out.SimulatedReps += len(jobs)
			for ji, j := range jobs {
				j.ps.addRep(j.seed, results[ji].metrics, results[ji].controls)
			}
		}

		// Evaluate every point that reached its current scheduled count.
		active := false
		for _, ps := range states {
			if ps.finished {
				continue
			}
			target := ps.schedule[ps.step]
			if len(ps.perRep) < target {
				return nil, fmt.Errorf("campaign %s: point %d short of schedule (%d < %d)", c.Spec.Name, ps.point.Index, len(ps.perRep), target)
			}
			// Publish the cumulative study at this count — it is exactly
			// what a direct -reps run would compute, and it is what makes
			// a rerun of this campaign find every batch in cache. A batch
			// fully adopted from cache is already there under this very
			// key; re-encoding it would be pure waste.
			var rep *scenario.Report
			if opts.Cache != nil && ps.adoptedTo < target {
				key, err := scenario.Fingerprint(ps.point.Spec, target)
				if err != nil {
					return nil, err
				}
				rep = ps.buildReport(target)
				opts.Cache.Put(key, rep)
			}
			conv := ps.converged(c.Spec, rep)
			if conv || ps.step == len(ps.schedule)-1 {
				if err := finish(ps, target, conv, rep); err != nil {
					return nil, err
				}
				continue
			}
			ps.step++
			active = true
		}
		if !active {
			break
		}
	}

	for _, ps := range states {
		out.Points = append(out.Points, ps.result)
	}
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

// addRep appends one freshly simulated replication to the state.
func (ps *pointState) addRep(seed uint64, metrics []scenario.Metric, controls []float64) {
	ps.seeds = append(ps.seeds, seed)
	ps.perRep = append(ps.perRep, metrics)
	if ps.cv() {
		ps.controls = append(ps.controls, controls)
	}
}

// adopt replaces the state's sample with a cached one (controls is nil
// for plain points). The overlap is bit-identical by construction: same
// seeds, deterministic engines.
func (ps *pointState) adopt(seeds []uint64, perRep [][]scenario.Metric, controls [][]float64) {
	ps.seeds = append([]uint64(nil), seeds...)
	ps.perRep = append([][]scenario.Metric(nil), perRep...)
	ps.controls = append([][]float64(nil), controls...)
}

// buildReport renders the first reps replications as the
// scenario.Report Replications would produce for the same spec and
// count — same seeds, same per-rep metrics, same Summarize reduction —
// so the bytes downstream (cache entries, served results) coincide.
func (ps *pointState) buildReport(reps int) *scenario.Report {
	seeds := append([]uint64(nil), ps.seeds[:reps]...)
	perRep := append([][]scenario.Metric(nil), ps.perRep[:reps]...)
	var controls [][]float64
	if ps.cv() {
		controls = append([][]float64(nil), ps.controls[:reps]...)
	}
	return &scenario.Report{
		Spec:   ps.point.Spec,
		Reps:   reps,
		Points: []scenario.PointReport{scenario.SummarizePoint(ps.point.Compiled.Points[0].N, seeds, perRep, controls, ps.point.Spec.VarianceReduction)},
	}
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
