package serve

import (
	"repro/internal/obs"
)

// metrics holds the server's resolved metric handles. Event counters
// and latency histograms are the primary store — the legacy Counters
// snapshot (/v1/stats) is derived from them in Stats(), so the two
// surfaces cannot drift — while occupancy gauges and failure totals
// are render-time views over state other subsystems already own
// (queue, cache, journal), never a second copy.
//
// Every counter here is monotone: admission outcomes are counted after
// the admission decision, so a queue-full rejection increments only
// rejected_total and nothing is ever decremented.
type metrics struct {
	reg *obs.Registry

	kinds             map[string]*kindMetrics // by job kind label
	rejected          *obs.Counter
	cacheHits         *obs.Counter
	diskCacheHits     *obs.Counter
	coalesced         *obs.Counter
	campaignCacheHits *obs.Counter
	campaignPointHits *obs.Counter
	predictions       *obs.Counter
	predictCacheHits  *obs.Counter
	predictBodyHits   *obs.Counter
	predictCoalesced  *obs.Counter
	finished          *obs.CounterVec // jobs_finished_total{kind,state}
	panics            *obs.Counter
	replayed          *obs.Counter
	registryOverflow  *obs.Counter

	queueWait      *obs.Histogram
	predictSolve   *obs.Histogram
	diskCacheWrite *obs.Histogram
}

// kindMetrics are one job kind's resolved series.
type kindMetrics struct {
	submissions *obs.Counter   // submissions_total{kind}
	service     *obs.Histogram // job_service_seconds{kind}
	e2e         *obs.Histogram // job_e2e_seconds{kind}
	// cacheHits counts whole-study cache hits in the kind's own family
	// (campaign_cache_hits_total); nil for scenario jobs, which have
	// only the shared cache_hits_total.
	cacheHits *obs.Counter
}

// Job kinds as metric label values.
const (
	kindScenario = "scenario"
	kindCampaign = "campaign"
)

// newMetrics registers the server's metric families. The gauge and
// failure-total funcs close over s and read live state at scrape time;
// they take only leaf locks (channel len, cache mutex, journal mutex,
// s.mu), none of which are ever held while rendering, so a scrape can
// never deadlock against serving.
func newMetrics(s *Server) *metrics {
	r := obs.NewRegistry()
	m := &metrics{reg: r}

	subs := r.NewCounterVec("plcsrv_submissions_total",
		"Accepted submissions by kind (queued, cached and coalesced alike; rejections are not counted).", "kind")
	m.rejected = r.NewCounter("plcsrv_rejected_total",
		"Submissions refused because the job queue was full.")
	m.cacheHits = r.NewCounter("plcsrv_cache_hits_total",
		"Submissions answered from the result cache without running.")
	m.diskCacheHits = r.NewCounter("plcsrv_disk_cache_hits_total",
		"Cache hits faulted in from the disk tier.")
	m.coalesced = r.NewCounter("plcsrv_coalesced_total",
		"Submissions attached to an identical queued or running job.")
	m.campaignCacheHits = r.NewCounter("plcsrv_campaign_cache_hits_total",
		"Campaign submissions answered whole from the result cache.")
	m.campaignPointHits = r.NewCounter("plcsrv_campaign_point_hits_total",
		"Campaign grid points adopted from the result cache instead of simulated.")
	m.predictions = r.NewCounter("plcsrv_predictions_total",
		"Synchronous /v1/predict calls answered.")
	m.predictCacheHits = r.NewCounter("plcsrv_predict_cache_hits_total",
		"Predictions served from the result cache without solving.")
	m.predictBodyHits = r.NewCounter("plcsrv_predict_body_hits_total",
		"Predictions answered by their request body's hash, before any decoding (a subset of predict cache hits).")
	m.predictCoalesced = r.NewCounter("plcsrv_predict_coalesced_total",
		"Prediction cache misses that attached to an identical in-flight solve.")
	m.finished = r.NewCounterVec("plcsrv_jobs_finished_total",
		"Terminal job outcomes by kind and state.", "kind", "state")
	// Pre-resolve every combination so /metrics exposes each series
	// from the first scrape (zero-valued, then monotone).
	for _, kind := range []string{kindScenario, kindCampaign} {
		for _, st := range []State{StateDone, StateFailed, StateCancelled, StateTimedOut} {
			m.finished.With(kind, string(st))
		}
	}
	m.panics = r.NewCounter("plcsrv_panics_total",
		"Jobs failed by a recovered panic (isolated to the job).")
	m.replayed = r.NewCounter("plcsrv_journal_replayed_total",
		"Jobs re-admitted from the journal after a restart.")
	m.registryOverflow = r.NewCounter("plcsrv_registry_overflow_total",
		"Registrations that left the job registry above max-jobs because nothing terminal could be evicted.")

	bounds := obs.LatencyBuckets()
	m.queueWait = r.NewHistogram("plcsrv_queue_wait_seconds",
		"Time jobs spent queued before a worker picked them up.", bounds)
	svc := r.NewHistogramVec("plcsrv_job_service_seconds",
		"Wall-clock execution time of jobs that ran, by kind.", bounds, "kind")
	e2e := r.NewHistogramVec("plcsrv_job_e2e_seconds",
		"Acceptance-to-terminal latency by kind (cache hits included).", bounds, "kind")
	m.kinds = make(map[string]*kindMetrics, 2)
	for _, kind := range []string{kindScenario, kindCampaign} {
		m.kinds[kind] = &kindMetrics{submissions: subs.With(kind), service: svc.With(kind), e2e: e2e.With(kind)}
	}
	m.kinds[kindCampaign].cacheHits = m.campaignCacheHits
	m.predictSolve = r.NewHistogram("plcsrv_predict_solve_seconds",
		"Analytic solve time of prediction cache misses (leaders only).", bounds)
	// A disk-tier append takes microseconds, far below the first
	// latency bucket.
	m.diskCacheWrite = r.NewHistogram("plcsrv_disk_cache_write_seconds",
		"Time to append one result to the disk cache tier, failed appends included.",
		[]float64{1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 0.001, 0.0025, 0.01, 0.1, 1})

	// Failure totals: views over the counters the journal and disk
	// cache already keep (accounted where the failure happens).
	r.NewCounterFunc("plcsrv_journal_write_failures_total",
		"Dropped journal writes (durability degraded).", func() float64 {
			_, total := s.journalLog().failures()
			return float64(total)
		})
	r.NewCounterFunc("plcsrv_disk_cache_write_failures_total",
		"Dropped disk-cache writes (persistence degraded).", func() float64 {
			_, total := s.cache.own.failures()
			return float64(total)
		})

	// Occupancy gauges.
	r.NewGaugeFunc("plcsrv_queue_depth",
		"Jobs waiting in the queue.", func() float64 { return float64(len(s.queue)) })
	r.NewGaugeFunc("plcsrv_queue_capacity",
		"Configured queue depth.", func() float64 { return float64(s.cfg.QueueDepth) })
	r.NewGaugeFunc("plcsrv_cache_entries",
		"Entries resident in the in-memory result cache.", func() float64 { return float64(s.cache.len()) })
	r.NewGaugeFunc("plcsrv_cache_bytes",
		"Bytes resident in the in-memory result cache.", func() float64 { return float64(s.cache.bytesUsed()) })
	r.NewGaugeFunc("plcsrv_disk_cache_bytes",
		"Bytes occupied by the disk cache tier (0 without -cache-dir).", func() float64 { return float64(s.cache.diskOccupancy.Load()) })
	r.NewGaugeFunc("plcsrv_journal_live_records",
		"Accepted jobs the journal still owes a terminal record for.", func() float64 {
			return float64(s.journal.liveCount())
		})
	r.NewGaugeFunc("plcsrv_journal_replaying",
		"1 while startup journal replay is still re-admitting jobs.", func() float64 {
			if s.replaying.Load() {
				return 1
			}
			return 0
		})
	r.NewGaugeFunc("plcsrv_registry_jobs",
		"Jobs resident in the registry (all states).", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.order))
		})
	return m
}

// finishedCount sums a terminal state's count across kinds (the
// Counters compatibility view).
func (m *metrics) finishedCount(st State) int64 {
	return int64(m.finished.With(kindScenario, string(st)).Value() +
		m.finished.With(kindCampaign, string(st)).Value())
}
