// Package serve turns the one-shot scenario runner into a long-lived
// service: an HTTP/JSON front end that accepts scenario.Spec
// submissions, runs them on a bounded asynchronous job queue backed by
// the deterministic internal/par worker pool, and exposes job status,
// streamed per-replication progress, and final aggregated results.
//
// Three properties make it safe to put in front of heavy traffic:
//
//   - Content addressing. A submission is keyed by
//     scenario.Fingerprint — a SHA-256 over the canonical (normalized)
//     spec plus the replication count. Equal keys mean bit-identical
//     results, so a repeated submission is answered from an in-memory
//     LRU cache (optionally persisted to disk) without re-simulation,
//     byte-for-byte identical to the first computed response.
//
//   - Coalescing. Concurrent submissions of the same key share one
//     queued job instead of queueing duplicates; every submitter polls
//     or streams the same job ID.
//
//   - Determinism. Jobs fan their replications across the par pool,
//     which returns results in input order whatever the worker count,
//     so a served result is bit-identical to the sim1901/plcbench CLI
//     on the same spec. Cached, coalesced and freshly computed
//     responses are indistinguishable.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/scenario"
)

// Config tunes a Server. The zero value is usable: every field has a
// default chosen for a small deployment.
type Config struct {
	// QueueDepth bounds the number of jobs waiting to run; submissions
	// beyond it are rejected with ErrQueueFull (backpressure, not
	// unbounded memory). Default 64.
	QueueDepth int
	// Workers is the number of jobs run concurrently. Default 1: one
	// job at a time, each fanning its replications across RepWorkers.
	Workers int
	// RepWorkers is the par pool width each job fans its replications
	// across. Default GOMAXPROCS.
	RepWorkers int
	// CacheEntries bounds the in-memory result cache's entry count.
	// Default 128.
	CacheEntries int
	// CacheBytes bounds the in-memory result cache's total resident
	// bytes (results embed raw per-replication metrics, so entries vary
	// widely in size). Default 256 MiB.
	CacheBytes int
	// CacheDir, when non-empty, appends every computed result to this
	// server's own segment file under CacheDir and consults every
	// segment on memory misses, so a restarted server still answers
	// known studies without re-simulation.
	CacheDir string
	// MaxReps bounds the replication count a single submission may
	// request. Default 10000.
	MaxReps int
	// MaxJobs bounds the job registry: once exceeded, the oldest
	// *terminal* jobs are evicted (queued and running jobs are never
	// touched), so a long-lived server's memory does not grow with its
	// submission count. Evicted IDs answer 404; their results live on
	// in the cache. Default 1024.
	MaxJobs int
	// JournalDir, when non-empty, enables the job journal: an
	// append-only write-ahead log of CRC-framed records under
	// <JournalDir>/journal.rec recording every accepted submission
	// (fsynced before the accept is acknowledged) and every terminal
	// transition. On startup the
	// server replays accepts without a terminal record back onto the
	// queue, so a crashed or killed daemon picks its unfinished work
	// back up — and because every study is content-addressed, replayed
	// work the disk cache already knows completes without simulation.
	JournalDir string
	// JobTimeout, when positive, bounds each job's running time: a job
	// still unfinished after it is cancelled into StateTimedOut. It is
	// also the cap on per-request "timeout_s" values. Zero means no
	// deadline.
	JobTimeout time.Duration

	// faults, when non-nil, injects failures for the robustness tests
	// (see Faults). Unexported on purpose: only this package's tests
	// can set it, production builds always run with nil.
	faults *Faults
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.RepWorkers <= 0 {
		c.RepWorkers = runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.MaxReps <= 0 {
		c.MaxReps = 10000
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	return c
}

// ErrQueueFull rejects a submission when the pending queue is at
// QueueDepth. Clients should back off and retry.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrClosed rejects submissions after Close.
var ErrClosed = errors.New("serve: server closed")

// Counters are the server's monotonic event counts, exposed at
// /v1/stats. They are a compatibility view derived in Stats() from the
// obs metric registry (the /metrics truth source), so the two surfaces
// report the same events by construction.
type Counters struct {
	// Submissions counts every accepted POST (including cached and
	// coalesced answers).
	Submissions int64 `json:"submissions"`
	// CacheHits counts submissions answered from the in-memory cache;
	// DiskCacheHits the subset that was faulted in from CacheDir.
	CacheHits     int64 `json:"cache_hits"`
	DiskCacheHits int64 `json:"disk_cache_hits"`
	// Coalesced counts submissions that attached to an already queued
	// or running identical job.
	Coalesced int64 `json:"coalesced"`
	// Predictions counts POST /v1/predict calls answered (synchronous
	// model evaluations); PredictCacheHits the subset served from the
	// result cache without solving.
	Predictions      int64 `json:"predictions"`
	PredictCacheHits int64 `json:"predict_cache_hits"`
	// Campaigns counts accepted POST /v1/campaigns submissions;
	// CampaignCacheHits the subset answered whole from the cache, and
	// CampaignPointHits the individual grid points (replication
	// batches) a running campaign adopted from the cache instead of
	// simulating.
	Campaigns         int64 `json:"campaigns"`
	CampaignCacheHits int64 `json:"campaign_cache_hits"`
	CampaignPointHits int64 `json:"campaign_point_hits"`
	// PredictCoalesced counts /v1/predict cache misses that attached to
	// an identical in-flight solve instead of solving again.
	PredictCoalesced int64 `json:"predict_coalesced"`
	// Rejected counts submissions refused with ErrQueueFull.
	Rejected int64 `json:"rejected"`
	// Completed, Failed, Cancelled and TimedOut count terminal job
	// outcomes (TimedOut: jobs cancelled by their deadline).
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	TimedOut  int64 `json:"timed_out"`
	// Panics counts jobs that failed because a replication (or the job
	// itself) panicked. The panic is isolated: it fails only its job,
	// with the stack in the job error.
	Panics int64 `json:"panics"`
	// Replayed counts jobs recovered from the journal at startup
	// (re-queued, or completed instantly from the result cache).
	Replayed int64 `json:"journal_replayed"`
	// RegistryOverflow counts registrations that left the job registry
	// above MaxJobs because every resident job was still queued or
	// running — the bound only evicts terminal jobs, so a saturated
	// registry grows; this counter is how operators see it happening.
	RegistryOverflow int64 `json:"registry_overflow"`
	// JournalWriteFailures and DiskCacheWriteFailures count dropped
	// journal and disk-cache writes (degraded durability; /readyz turns
	// unready after repeated consecutive failures).
	JournalWriteFailures   int64 `json:"journal_write_failures"`
	DiskCacheWriteFailures int64 `json:"disk_cache_write_failures"`
}

// Server owns the job queue, the result cache, the job registry and —
// when configured — the crash-recovery journal. Create with New, mount
// Handler on an http.Server, Drain and/or Close to stop.
type Server struct {
	cfg     Config
	cache   *cache
	journal *journal // nil without JournalDir
	metrics *metrics // event counters, latency histograms, gauges

	ctx       context.Context
	cancelAll context.CancelFunc

	replaying atomic.Bool // journal replay still in progress
	replayWG  sync.WaitGroup

	mu         sync.Mutex
	closed     bool
	abandoning bool // Drain gave up: suppress terminal journal records
	abandoned  int  // jobs cancelled during abandonment
	seq        int
	jobs       map[string]*Job // by ID; oldest terminal jobs pruned past MaxJobs
	order      []string        // IDs in submission order (listing)
	inflight   map[string]*Job // fingerprint → queued/running job
	predict    map[string]*predictFlight
	svcRuns    int64         // jobs that actually executed (service-time sample size)
	svcTotal   time.Duration // summed service time of those jobs

	queue chan *Job
	wg    sync.WaitGroup

	// persistQ feeds the persister goroutine, FIFO. A worker that
	// computed a result puts it in the memory tier and hands it here;
	// the persister writes the disk tier and only then finishes the job,
	// so a terminal state still means the result is on disk, with the
	// end record journaled after it. waitWorkers closes the queue once
	// the workers have stopped; persistDone closes when it is empty.
	persistQ    chan persisted
	persistDone chan struct{}
	persistOnce sync.Once

	// testHoldRun, when set (tests only), is called by a worker after
	// dequeuing a job and before running it — a hook to hold the worker
	// so queue and coalescing states become deterministic.
	testHoldRun func(*Job)
}

// persisted is a job whose result is in the memory tier, on its way
// to the disk tier and its terminal state.
type persisted struct {
	job *Job
	ent entry
	svc time.Duration // the job's service time, for finishJob
}

// predictFlight is one in-flight /v1/predict solve; concurrent misses
// of the same key wait on done instead of solving again.
type predictFlight struct {
	done chan struct{}
	ent  entry
	err  error
}

// New starts a Server's workers and returns it ready to serve. It
// fails fast when CacheDir or JournalDir is configured but unusable
// (missing and uncreatable, or not writable) — a daemon asked to
// persist results or journal jobs must not silently run without. With
// JournalDir set, unfinished jobs from the previous run replay onto
// the queue in the background; /readyz reports 503 until the replay
// has re-admitted them all.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	cache, err := newCache(cfg.CacheEntries, cfg.CacheBytes, cfg.CacheDir, cfg.faults)
	if err != nil {
		return nil, err
	}
	var (
		jl      *journal
		pending []journalRecord
	)
	if cfg.JournalDir != "" {
		jl, pending, err = openJournal(cfg.JournalDir, cfg.faults)
		if err != nil {
			return nil, errors.Join(err, cache.close())
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		cache:     cache,
		journal:   jl,
		ctx:       ctx,
		cancelAll: cancel,
		jobs:      make(map[string]*Job),
		inflight:  make(map[string]*Job),
		predict:   make(map[string]*predictFlight),
		queue:     make(chan *Job, cfg.QueueDepth),
		// Room for every job that can be queued or running, so a worker
		// blocks on the hand-off only when the disk falls that far behind.
		persistQ:    make(chan persisted, cfg.QueueDepth+cfg.Workers),
		persistDone: make(chan struct{}),
	}
	s.metrics = newMetrics(s)
	cache.writeSeconds = s.metrics.diskCacheWrite
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	go s.persister()
	if len(pending) > 0 {
		s.replaying.Store(true)
		s.replayWG.Add(1)
		go s.replay(pending)
	}
	return s, nil
}

// Close stops accepting submissions, cancels queued and running jobs,
// waits for the workers and the persister to drain, and closes the
// journal and the disk cache's files. Safe to call more than once.
// Jobs cancelled here reach a terminal state and are journaled as
// such; to instead leave unfinished jobs recoverable, Drain first.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
	} else {
		s.closed = true
		close(s.queue)
		s.mu.Unlock()
		s.cancelAll()
	}
	s.waitWorkers()
	s.replayWG.Wait()
	var err error
	if s.journal != nil {
		err = s.journal.close()
	}
	if err = errors.Join(err, s.cache.close()); err != nil {
		log.Printf("serve: close: %v", err)
	}
}

// Drain stops admissions and lets queued and running jobs finish for
// up to timeout. Jobs still unfinished then are cancelled with their
// journal records deliberately left non-terminal, so a restart replays
// them — the graceful half of crash recovery. It returns how many of
// the jobs pending at the call finished (drained) versus were given up
// on (abandoned). timeout ≤ 0 abandons immediately. Either way Drain
// returns only once the persister has written every finished result
// and its end record. Call Close afterwards to release the remaining
// resources.
func (s *Server) Drain(timeout time.Duration) (drained, abandoned int) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.waitWorkers()
		return 0, 0
	}
	s.closed = true
	close(s.queue)
	pending := 0
	for _, id := range s.order {
		if !s.jobs[id].Status().State.Terminal() {
			pending++
		}
	}
	s.mu.Unlock()
	s.replayWG.Wait() // replay observes closed and stops re-admitting

	workersDone := make(chan struct{})
	go func() {
		s.waitWorkers()
		close(workersDone)
	}()
	if timeout > 0 {
		select {
		case <-workersDone:
		case <-time.After(timeout):
		}
	}
	select {
	case <-workersDone:
	default:
		s.mu.Lock()
		s.abandoning = true
		s.mu.Unlock()
		s.cancelAll()
		<-workersDone
	}
	s.mu.Lock()
	abandoned = s.abandoned
	s.mu.Unlock()
	return pending - abandoned, abandoned
}

// Submit validates, fingerprints and admits one study. The returned
// job is freshly queued, an already in-flight identical job
// (coalesced=true), or an immediately-done job answered from the cache
// (cached=true). Errors: validation errors (bad spec or reps),
// ErrQueueFull, ErrClosed.
//
// Model-engine specs ride the same queue, but their replication count
// collapses to 1 before fingerprinting — analytic points are
// deterministic, so every reps value names the same study and hits the
// same cache entry (the one /v1/predict also reads and writes).
func (s *Server) Submit(spec scenario.Spec, reps int) (job *Job, cached, coalesced bool, err error) {
	return s.SubmitTimeout(spec, reps, 0)
}

// effectiveTimeout resolves a per-request deadline against the server
// limit: requests without one inherit JobTimeout, requests above it
// are capped to it. Zero on both sides means no deadline.
func (c Config) effectiveTimeout(req time.Duration) time.Duration {
	if req <= 0 || (c.JobTimeout > 0 && req > c.JobTimeout) {
		return c.JobTimeout
	}
	return req
}

// SubmitTimeout is Submit with a per-request deadline: the job is
// cancelled into StateTimedOut if it runs longer than timeout
// (capped at Config.JobTimeout; ≤ 0 inherits it).
func (s *Server) SubmitTimeout(spec scenario.Spec, reps int, timeout time.Duration) (job *Job, cached, coalesced bool, err error) {
	sub, err := s.scenarioStudy(spec, reps)
	if err != nil {
		return nil, false, false, err
	}
	return s.admit(sub, timeout)
}

// submission is a study on its way through admission, with what only
// admission needs: the job ID prefix, the journal accept record, and
// the deferred compile of the study's runner.
type submission struct {
	study
	idPrefix string // "j" for scenario jobs, "c" for campaigns
	// accept is the journal accept record minus Seq, Op and TimeoutS;
	// its canonical spec bytes are marshaled only with a journal.
	accept journalRecord
	// compile builds the study's runner. admit calls it only on a cache
	// miss, still outside the server lock, so a cache-hit resubmission
	// of a large campaign never pays for grid expansion.
	compile func() (runner, error)
}

// scenarioStudy validates, compiles and fingerprints a scenario
// submission; its runner fans the replications across the par pool.
func (s *Server) scenarioStudy(spec scenario.Spec, reps int) (submission, error) {
	if reps < 1 || reps > s.cfg.MaxReps {
		return submission{}, fmt.Errorf("serve: \"reps\" = %d outside 1–%d", reps, s.cfg.MaxReps)
	}
	compiled, err := scenario.Compile(spec)
	if err != nil {
		return submission{}, err
	}
	if compiled.Spec.Engine == scenario.EngineModel {
		reps = 1
	}
	key, err := scenario.Fingerprint(spec, reps)
	if err != nil {
		return submission{}, err
	}
	sub := submission{
		study: study{
			kind: kindScenario, name: compiled.Spec.Name, key: key,
			reps: reps, totalReps: len(compiled.Points) * reps,
		},
		idPrefix: "j",
		accept:   journalRecord{Kind: kindScenario, Key: key, Reps: reps},
	}
	if s.journal != nil {
		if sub.accept.Spec, err = json.Marshal(compiled.Spec); err != nil {
			return submission{}, fmt.Errorf("serve: canonicalize spec: %w", err)
		}
	}
	run := func(ctx context.Context, j *Job) (entry, error) {
		rep, err := scenario.ReplicationsOpts(compiled, reps, s.cfg.RepWorkers, scenario.Options{
			Context:  ctx,
			Progress: s.progressFn(j),
		})
		if err != nil {
			return entry{}, err
		}
		return encodeResult(key, rep)
	}
	sub.compile = func() (runner, error) { return run, nil }
	return sub, nil
}

// admit is the one admission path of both study kinds. The cache
// lookup — which may fault a result in from disk — runs before the
// server lock, so slow I/O never stalls unrelated handlers; the
// miss-then-computed race this opens (another identical job completing
// in between) at worst recomputes a bit-identical result. Under the
// lock the submission is answered from the cache, coalesced onto an
// identical in-flight job, queued, or rejected; the accept is
// journaled (fsynced) after the lock is released.
func (s *Server) admit(sub submission, timeout time.Duration) (job *Job, cached, coalesced bool, err error) {
	ent, disk, hit := s.cache.get(sub.key)
	if !hit {
		if sub.run, err = sub.compile(); err != nil {
			return nil, false, false, err
		}
	}
	km := s.metrics.kinds[sub.kind]

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, false, ErrClosed
	}
	if hit {
		km.submissions.Inc()
		s.metrics.cacheHits.Inc()
		if km.cacheHits != nil {
			km.cacheHits.Inc()
		}
		if disk {
			s.metrics.diskCacheHits.Inc()
		}
		j := s.registerLocked(newJob(s.nextIDLocked(sub.idPrefix), sub.study))
		j.completeFromCache(ent)
		s.mu.Unlock()
		s.observeE2E(j)
		return j, true, false, nil
	}
	// Coalesce onto an identical in-flight job — unless that job was
	// cancelled while queued (terminal but still occupying the slot
	// until a worker dequeues it); attaching there would answer a
	// valid submission with 410 Gone.
	if j, ok := s.inflight[sub.key]; ok && !j.Status().State.Terminal() {
		km.submissions.Inc()
		s.metrics.coalesced.Inc()
		s.mu.Unlock()
		return j, false, true, nil
	}

	j := s.registerLocked(newJob(s.nextIDLocked(sub.idPrefix), sub.study))
	j.timeout = s.cfg.effectiveTimeout(timeout)
	// Mark before the send: a worker may dequeue and start the job at
	// once. A job the full queue bounces is dropped, trace and all.
	j.trace.Mark(traceQueued)
	select {
	case s.queue <- j:
		km.submissions.Inc()
	default:
		// Undo the registration: the job was never admitted (nothing
		// was counted as a submission, only as a rejection).
		delete(s.jobs, j.id)
		s.order = s.order[:len(s.order)-1]
		s.metrics.rejected.Inc()
		s.mu.Unlock()
		return nil, false, false, ErrQueueFull
	}
	s.inflight[sub.key] = j
	if s.journal != nil {
		j.seq = s.journal.next()
	}
	s.mu.Unlock()
	// Journal the accept outside the server lock (it fsyncs). The job
	// may already be running; if it finishes before this lands, the
	// journal collapses the accept/end pair to nothing.
	if s.journal != nil {
		rec := sub.accept
		rec.Seq, rec.Op, rec.TimeoutS = j.seq, "accept", j.timeout.Seconds()
		s.journal.accept(rec)
	}
	return j, false, false, nil
}

// Predict answers a spec analytically, synchronously: the spec is
// forced onto the model engine, fingerprinted at reps=1, and served
// from the result cache when known — otherwise solved inline (tens of
// microseconds) and cached. No job is minted and the queue is never
// touched; the returned bytes are the same entry a model-engine Submit
// of the identical spec would produce, so the two paths share cache
// entries and the bit-identical guarantee. Concurrent misses of the
// same key coalesce onto one solve: the first becomes the leader, the
// rest wait on its flight and return its bytes (counted as
// predict_coalesced). The text is derived from the bytes. Errors:
// validation errors (specs the analytic model cannot express),
// ErrClosed.
func (s *Server) Predict(spec scenario.Spec) (resultJSON []byte, text string, cached bool, err error) {
	ent, cached, err := s.predictEntry(spec)
	if err != nil {
		return nil, "", false, err
	}
	return ent.json, resultText(ent.json), cached, nil
}

// predictEntry is Predict returning the cache entry, key included.
func (s *Server) predictEntry(spec scenario.Spec) (ent entry, cached bool, err error) {
	spec.Engine = scenario.EngineModel
	compiled, err := scenario.Compile(spec)
	if err != nil {
		return entry{}, false, err
	}
	key, err := scenario.Fingerprint(spec, 1)
	if err != nil {
		return entry{}, false, err
	}
	if ent, disk, hit := s.cache.get(key); hit {
		return ent, true, s.predictHit(disk)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return entry{}, false, ErrClosed
	}
	s.metrics.predictions.Inc()
	if fl, ok := s.predict[key]; ok {
		// An identical solve is in flight; wait for its result instead
		// of solving again. The leader's outcome (entry or error) is
		// published before done closes.
		s.metrics.predictCoalesced.Inc()
		s.mu.Unlock()
		<-fl.done
		return fl.ent, false, fl.err
	}
	fl := &predictFlight{done: make(chan struct{})}
	s.predict[key] = fl
	s.mu.Unlock()

	defer func() {
		s.mu.Lock()
		delete(s.predict, key)
		s.mu.Unlock()
		close(fl.done)
	}()
	if f := s.cfg.faults; f != nil && f.PredictSolve != nil {
		f.PredictSolve()
	}
	solveStart := obs.Now()
	rep, err := scenario.Replications(compiled, 1, 1)
	if err == nil {
		ent, err = encodeResult(key, rep)
	}
	if err != nil {
		fl.err = err
		return entry{}, false, err
	}
	s.metrics.predictSolve.Observe(obs.Since(solveStart).Seconds())
	s.cache.put(ent)
	fl.ent = ent
	return ent, false, nil
}

// predictHit counts a prediction answered from the result cache, or
// reports ErrClosed once the server is closed.
func (s *Server) predictHit(disk bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.metrics.predictions.Inc()
	s.metrics.predictCacheHits.Inc()
	if disk {
		s.metrics.diskCacheHits.Inc()
	}
	return nil
}

// SubmitCampaign validates, expands, fingerprints and admits one
// campaign onto the same queue scenario jobs ride. The returned job is
// freshly queued, an already in-flight identical campaign
// (coalesced=true), or an immediately-done job answered from the
// campaign-level cache (cached=true). While running, the campaign
// additionally consults the cache per grid point and replication
// batch — the same scenario.Fingerprint keys individual submissions
// use — so partially overlapping campaigns, direct jobs and reruns all
// dedupe onto one another. Errors: validation errors (bad campaign
// spec, replication bound above MaxReps), ErrQueueFull, ErrClosed.
func (s *Server) SubmitCampaign(spec campaign.Spec) (job *Job, cached, coalesced bool, err error) {
	return s.SubmitCampaignTimeout(spec, 0)
}

// SubmitCampaignTimeout is SubmitCampaign with a per-request deadline
// (capped at Config.JobTimeout; ≤ 0 inherits it).
func (s *Server) SubmitCampaignTimeout(spec campaign.Spec, timeout time.Duration) (job *Job, cached, coalesced bool, err error) {
	sub, err := s.campaignStudy(spec)
	if err != nil {
		return nil, false, false, err
	}
	return s.admit(sub, timeout)
}

// campaignStudy validates and fingerprints a campaign submission; its
// runner drives campaign.Run against the server's content-addressed
// cache, so every grid point and replication batch the cache already
// knows is adopted instead of simulated, and everything computed is
// published for future campaigns and direct submissions alike.
func (s *Server) campaignStudy(spec campaign.Spec) (submission, error) {
	norm, err := spec.Normalized()
	if err != nil {
		return submission{}, err
	}
	if cap := campaignRepCap(norm); cap > s.cfg.MaxReps {
		return submission{}, fmt.Errorf("serve: campaign %s requests up to %d reps per point, outside 1–%d",
			norm.Name, cap, s.cfg.MaxReps)
	}
	key, err := campaign.Fingerprint(norm)
	if err != nil {
		return submission{}, err
	}
	sub := submission{
		study:    study{kind: kindCampaign, name: norm.Name, key: key, totalPoints: norm.GridSize()},
		idPrefix: "c",
		accept:   journalRecord{Kind: kindCampaign, Key: key},
	}
	if s.journal != nil {
		if sub.accept.Campaign, err = json.Marshal(norm); err != nil {
			return submission{}, fmt.Errorf("serve: canonicalize campaign: %w", err)
		}
	}
	sub.compile = func() (runner, error) {
		compiled, err := campaign.Compile(norm)
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context, j *Job) (entry, error) {
			rep, err := campaign.Run(compiled, campaign.Opts{
				Workers:   s.cfg.RepWorkers,
				Context:   ctx,
				Cache:     (*pointCache)(s),
				Progress:  s.progressFn(j),
				PointDone: j.setPoints,
			})
			if err != nil {
				return entry{}, err
			}
			return encodeResult(key, rep)
		}, nil
	}
	return sub, nil
}

// campaignRepCap is the largest per-point replication count a campaign
// may reach (the fixed count, or the adaptive cap).
func campaignRepCap(s campaign.Spec) int {
	if s.Adaptive() {
		return s.MaxReps
	}
	return s.Reps
}

// nextIDLocked mints the next job ID with the given kind prefix
// ("j" for scenario jobs, "c" for campaigns); s.mu must be held.
func (s *Server) nextIDLocked(prefix string) string {
	s.seq++
	return fmt.Sprintf("%s%d", prefix, s.seq)
}

// registerLocked adds a job to the registry and prunes it down to
// MaxJobs by evicting the oldest terminal jobs; s.mu must be held.
// When every resident job is still queued or running nothing can be
// evicted and the registry stays above the bound — counted as
// registry_overflow so operators can see the pressure.
func (s *Server) registerLocked(j *Job) *Job {
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if len(s.order) > s.cfg.MaxJobs {
		kept := s.order[:0]
		excess := len(s.order) - s.cfg.MaxJobs
		for _, id := range s.order {
			if excess > 0 && s.jobs[id].Status().State.Terminal() {
				delete(s.jobs, id)
				excess--
				continue
			}
			kept = append(kept, id)
		}
		s.order = kept
		if excess > 0 {
			s.metrics.registryOverflow.Inc()
		}
	}
	return j
}

// Job returns a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	for i, id := range s.order {
		out[i] = s.jobs[id]
	}
	return out
}

// Stats snapshots the counters plus current cache occupancy. The
// Counters struct is derived from the obs metric registry — the same
// atomics GET /metrics renders — so /v1/stats and /metrics cannot
// disagree about an event count. Journal and disk-cache write-failure
// totals are read from their owners directly, exactly as the registry's
// CounterFunc views do.
func (s *Server) Stats() (Counters, int) {
	m := s.metrics
	c := Counters{
		Submissions:       int64(m.kinds[kindScenario].submissions.Value() + m.kinds[kindCampaign].submissions.Value()),
		CacheHits:         int64(m.cacheHits.Value()),
		DiskCacheHits:     int64(m.diskCacheHits.Value()),
		Coalesced:         int64(m.coalesced.Value()),
		Predictions:       int64(m.predictions.Value()),
		PredictCacheHits:  int64(m.predictCacheHits.Value()),
		Campaigns:         int64(m.kinds[kindCampaign].submissions.Value()),
		CampaignCacheHits: int64(m.campaignCacheHits.Value()),
		CampaignPointHits: int64(m.campaignPointHits.Value()),
		PredictCoalesced:  int64(m.predictCoalesced.Value()),
		Rejected:          int64(m.rejected.Value()),
		Completed:         m.finishedCount(StateDone),
		Failed:            m.finishedCount(StateFailed),
		Cancelled:         m.finishedCount(StateCancelled),
		TimedOut:          m.finishedCount(StateTimedOut),
		Panics:            int64(m.panics.Value()),
		Replayed:          int64(m.replayed.Value()),
		RegistryOverflow:  int64(m.registryOverflow.Value()),
	}
	_, c.JournalWriteFailures = s.journalLog().failures()
	_, c.DiskCacheWriteFailures = s.cache.own.failures()
	return c, s.cache.len()
}

// Ready reports whether the server should receive traffic, and why not
// when it should not. It is the /readyz truth source: unready while
// the journal replay is still re-admitting recovered jobs, while the
// queue is saturated (a submission now would be rejected), and after
// degradedAfter consecutive journal or disk-cache write failures
// (durability is gone even though serving still works). Liveness is a
// separate, always-200 question — /healthz.
func (s *Server) Ready() (ok bool, reason string) {
	if s.replaying.Load() {
		return false, "journal replay in progress"
	}
	s.mu.Lock()
	closed := s.closed
	queued := len(s.queue)
	s.mu.Unlock()
	if closed {
		return false, "server closed"
	}
	if queued >= s.cfg.QueueDepth {
		return false, "job queue saturated"
	}
	if consec, _ := s.journalLog().failures(); consec >= degradedAfter {
		return false, fmt.Sprintf("journal degraded: %d consecutive write failures", consec)
	}
	if consec, _ := s.cache.own.failures(); consec >= degradedAfter {
		return false, fmt.Sprintf("disk cache degraded: %d consecutive write failures", consec)
	}
	return true, ""
}

// journalLog returns the journal's record log, nil without a journal.
func (s *Server) journalLog() *recordLog {
	if s.journal == nil {
		return nil
	}
	return s.journal.file
}

// degradedAfter is the consecutive write-failure count at which a
// journal or disk cache flips /readyz to 503. A single failure may be
// transient; three in a row is a full disk.
const degradedAfter = 3

// RetryAfter estimates how long a rejected submitter should wait before
// retrying, from the observed mean job service time and the current
// queue depth spread across the workers. Clamped to [1s, 10min]; with
// no service-time sample yet the floor applies.
func (s *Server) RetryAfter() time.Duration {
	s.mu.Lock()
	runs, total := s.svcRuns, s.svcTotal
	queued := len(s.queue)
	s.mu.Unlock()
	est := time.Second
	if runs > 0 && queued > 0 {
		mean := total / time.Duration(runs)
		est = time.Duration(math.Ceil(float64(mean)*float64(queued)/float64(s.cfg.Workers)/float64(time.Second))) * time.Second
	}
	if est < time.Second {
		est = time.Second
	}
	if est > 10*time.Minute {
		est = 10 * time.Minute
	}
	return est
}

// worker consumes the queue until Close.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		if s.testHoldRun != nil {
			s.testHoldRun(j)
		}
		s.runJob(j)
	}
}

// waitWorkers waits for the workers to stop, then for the persister to
// write out everything they handed it. Safe to call more than once and
// from several goroutines.
func (s *Server) waitWorkers() {
	s.wg.Wait()
	s.persistOnce.Do(func() { close(s.persistQ) })
	<-s.persistDone
}

// runJob executes one dequeued job until its result is computed, or to
// a terminal state when it fails. A computed result goes into the
// memory tier and on to the persister, and the worker takes the next
// job. A panic anywhere in the job's execution — a replication, a
// progress callback, result encoding — is recovered here (or inside
// the par pool, which converts worker panics to *par.PanicError) and
// fails only this job; the worker goroutine and every other job
// survive.
func (s *Server) runJob(j *Job) {
	started := obs.Now() // operational timing only; never feeds results
	// The registry keeps finished jobs around; dropping the runner here
	// lets their compiled plans go. Only this worker reads j.run.
	run := j.run
	j.run = nil
	defer func() {
		if v := recover(); v != nil {
			err := &par.PanicError{Value: v, Stack: debug.Stack()}
			s.finishJob(j, StateFailed, nil, err.Error(), obs.Since(started), true)
		}
	}()
	ctx, ok := j.start(s.ctx)
	if !ok {
		// Cancelled while queued; nothing ran.
		s.finishJob(j, StateCancelled, nil, "", 0, false)
		return
	}
	if wait, ok := j.trace.Between(traceQueued, traceRunning); ok {
		s.metrics.queueWait.Observe(wait.Seconds())
	}
	ent, err := run(ctx, j)
	svc := obs.Since(started)
	state, panicked := classify(ctx, err)
	if err != nil {
		s.finishJob(j, state, nil, err.Error(), svc, panicked)
		return
	}
	s.cache.insert(ent)
	j.trace.Mark(traceComputed)
	s.persistQ <- persisted{job: j, ent: ent, svc: svc}
}

// persister writes the results the workers hand it to the disk tier,
// in hand-off order, and finishes each job after its write: terminal
// Done implies the result is on disk, and the end record follows it.
// It runs until waitWorkers closes persistQ.
func (s *Server) persister() {
	defer close(s.persistDone)
	for p := range s.persistQ {
		s.persistOne(p)
	}
}

// persistOne writes one result and finishes its job. A panic here
// fails only that job; the persister goes on with the next one.
func (s *Server) persistOne(p persisted) {
	defer func() {
		if v := recover(); v != nil {
			err := &par.PanicError{Value: v, Stack: debug.Stack()}
			s.finishJob(p.job, StateFailed, nil, err.Error(), p.svc, true)
		}
	}()
	s.cache.persist(p.ent)
	s.finishJob(p.job, StateDone, &p.ent, "", p.svc, false)
}

// classify maps a job execution error to its terminal state. The
// deadline check consults the job context — errors.Is on the error
// alone cannot tell "cancelled because the deadline fired" from
// "cancelled by DELETE", since both surface context.Canceled from
// replications already in flight.
func classify(ctx context.Context, err error) (state State, panicked bool) {
	switch {
	case err == nil:
		return StateDone, false
	case errors.As(err, new(*par.PanicError)):
		return StateFailed, true
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		return StateTimedOut, false
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return StateCancelled, false
	default:
		// A genuine replication error that merely coincides with
		// cancellation lands here: MapCtx preserves the lowest-index
		// real error.
		return StateFailed, false
	}
}

// progressFn wraps a job's progress recorder with the per-replication
// fault hook (nil faults: the job's own method, no wrapper).
func (s *Server) progressFn(j *Job) func(done, total int) {
	if s.cfg.faults == nil || s.cfg.faults.RepHook == nil {
		return j.setProgress
	}
	hook := s.cfg.faults.RepHook
	return func(done, total int) {
		hook()
		j.setProgress(done, total)
	}
}

// pointCache adapts the server's result cache to campaign.Cache: grid
// points are read and written as the very entries scenario jobs use
// (same fingerprints, same Result envelope), so a campaign point, a
// direct submission of the expanded spec and a rerun all share bytes.
type pointCache Server

func (c *pointCache) Get(key string) (*scenario.Report, bool) {
	s := (*Server)(c)
	ent, disk, ok := s.cache.get(key)
	if !ok {
		return nil, false
	}
	var res Result
	if err := json.Unmarshal(ent.json, &res); err != nil || res.Report == nil {
		return nil, false
	}
	s.metrics.campaignPointHits.Inc()
	if disk {
		s.metrics.diskCacheHits.Inc()
	}
	return res.Report, true
}

func (c *pointCache) Put(key string, rep *scenario.Report) {
	s := (*Server)(c)
	ent, err := encodeResult(key, rep)
	if err != nil {
		return // unreachable: reports the runner builds always marshal
	}
	s.cache.put(ent)
}

// finishJob moves a job to its terminal state (j.finish) and records
// the transition: clears the in-flight slot, bumps the outcome
// counter, folds the service time into the retry-after estimate, and
// journals the end — unless Drain is abandoning, in which case a
// cancelled job's record is deliberately left non-terminal so a
// restart replays it. The slot and the counters move before j.finish
// wakes the job's waiters, so a caller that reads the counters right
// after Wait sees its job counted; the e2e histogram, which reads the
// terminal trace mark, and the journal follow. A job cancelled while
// queued is already terminal; its outcome is counted when a worker
// dequeues it.
func (s *Server) finishJob(j *Job, state State, ent *entry, errMsg string, svc time.Duration, panicked bool) {
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	if svc > 0 {
		s.svcRuns++
		s.svcTotal += svc
	}
	suppress := s.abandoning && state == StateCancelled
	if suppress {
		s.abandoned++
	}
	s.mu.Unlock()
	s.metrics.finished.With(j.kind, string(state)).Inc()
	if panicked {
		s.metrics.panics.Inc()
	}
	if svc > 0 {
		s.metrics.kinds[j.kind].service.Observe(svc.Seconds())
	}
	j.finish(state, ent, errMsg)
	s.observeE2E(j)
	// Journal outside s.mu: the end record write is disk I/O.
	if s.journal != nil && j.seq != 0 && !suppress {
		s.journal.end(j.seq, state)
	}
}

// observeE2E folds a terminal job's acceptance-to-terminal latency into
// the per-kind e2e histogram, read off its trace timeline (cache-hit
// answers included — their near-zero latencies are the point of the
// cache, and hiding them would skew the distribution optimistic the
// other way).
func (s *Server) observeE2E(j *Job) {
	stages := j.trace.Stages()
	if len(stages) < 2 {
		return
	}
	last := stages[len(stages)-1]
	if !State(last.Name).Terminal() {
		return
	}
	s.metrics.kinds[j.kind].e2e.Observe(last.At.Sub(stages[0].At).Seconds())
}

// replay re-admits the journal's unfinished jobs after a restart. It
// runs in the background so New returns promptly; /readyz reports 503
// until it finishes. Each record resubmits through the normal
// admission path — same validation, same fingerprints — so a replayed
// study whose result the disk cache already holds completes instantly,
// and one that was mid-flight at the crash re-simulates to the
// bit-identical result. The replayed job gets a fresh journal seq; the
// old record is retired whatever the outcome, including records that
// no longer validate (a spec from a newer, incompatible build).
func (s *Server) replay(pending []journalRecord) {
	defer s.replayWG.Done()
	defer s.replaying.Store(false)
	for _, rec := range pending {
		s.replayOne(rec)
	}
}

// replayOne re-admits one journaled accept, blocking (politely) while
// the queue is full — recovery must not drop jobs to ErrQueueFull.
func (s *Server) replayOne(rec journalRecord) {
	sub, err := s.recordStudy(rec)
	var j *Job
	for err == nil {
		if j, _, _, err = s.admit(sub, time.Duration(rec.TimeoutS*float64(time.Second))); !errors.Is(err, ErrQueueFull) {
			break
		}
		// Someone beat the replay to the queue; wait for room.
		time.Sleep(10 * time.Millisecond)
	}
	switch {
	case errors.Is(err, ErrClosed):
		// Shut down before the replay finished; the record stays live
		// in the journal and the next start replays it.
	case err != nil:
		// The record no longer admits (an incompatible spec from an
		// older build, say). Log and retire it — replaying it forever
		// would wedge every future start.
		log.Printf("serve: journal: dropping unreplayable record seq %d: %v", rec.Seq, err)
		s.journal.end(rec.Seq, StateFailed)
	default:
		j.markReplayed()
		s.metrics.replayed.Inc()
		s.journal.end(rec.Seq, StateCancelled) // retire the old seq; the resubmission owns a new one
	}
}

// recordStudy rebuilds a journaled accept's submission through the
// same constructor a live request uses — same validation, same
// fingerprint.
func (s *Server) recordStudy(rec journalRecord) (submission, error) {
	if rec.Kind == kindCampaign {
		var spec campaign.Spec
		if err := json.Unmarshal(rec.Campaign, &spec); err != nil {
			return submission{}, err
		}
		return s.campaignStudy(spec)
	}
	var spec scenario.Spec
	if err := json.Unmarshal(rec.Spec, &spec); err != nil {
		return submission{}, err
	}
	return s.scenarioStudy(spec, rec.Reps)
}
