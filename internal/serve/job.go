package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// State is a job's lifecycle stage.
type State string

// Job states. Queued and Running are transient; Done, Failed,
// Cancelled and TimedOut are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	// StateTimedOut marks a job cancelled by its deadline (the server's
	// JobTimeout, or the request's timeout_s capped by it) rather than
	// by a client.
	StateTimedOut State = "timed_out"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled || s == StateTimedOut
}

// Trace stage names. The lifecycle stages a job's timeline records:
// accepted (admission), queued (landed on the queue; absent for
// cache-hit answers), running (a worker picked it up), first_batch
// (first progress callback — time-to-first-result), computed (the
// result is built and handed to the persister; absent when the run
// fails), then the terminal state name verbatim. computed → done is the
// disk write.
const (
	traceAccepted   = "accepted"
	traceQueued     = "queued"
	traceRunning    = "running"
	traceFirstBatch = "first_batch"
	traceComputed   = "computed"
)

// TraceStage is one step of a job's trace timeline as served on
// /v1/jobs/{id}, /v1/campaigns/{id} and terminal NDJSON event lines.
// Purely operational metadata: never part of a result payload or a
// fingerprint.
type TraceStage struct {
	// Stage is the lifecycle stage name ("accepted", "queued",
	// "running", "first_batch", or a terminal state).
	Stage string `json:"stage"`
	// At is the wall-clock time the stage was reached.
	At time.Time `json:"at"`
	// DeltaMS is the time since the previous stage, in milliseconds.
	DeltaMS float64 `json:"delta_ms"`
	// ElapsedMS is the time since acceptance, in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// traceStages converts timeline marks to the wire form.
func traceStages(stages []obs.Stage) []TraceStage {
	if len(stages) == 0 {
		return nil
	}
	out := make([]TraceStage, len(stages))
	for i, st := range stages {
		out[i] = TraceStage{
			Stage:     st.Name,
			At:        st.At,
			ElapsedMS: st.At.Sub(stages[0].At).Seconds() * 1e3,
		}
		if i > 0 {
			out[i].DeltaMS = st.At.Sub(stages[i-1].At).Seconds() * 1e3
		}
	}
	return out
}

// Result is the JSON a finished scenario job serves: the aggregated
// replication report (normalized spec, replication count, per-point
// seeds, metric summaries and raw per-rep metrics) plus the exact
// plain-text rendering the sim1901 CLI would print for the same spec.
// The text is part of the payload so the bit-identical guarantee is
// checkable end to end: cached, coalesced, freshly computed and CLI
// output all compare byte-for-byte.
type Result = envelope[*scenario.Report]

// CampaignResult is the JSON a finished campaign job serves: the
// campaign report (normalized spec, every grid point's replication
// report and content address) plus the exact text rendering the
// `sim1901 -campaign` CLI prints for the same file. It shares the
// key/text envelope with Result, so both kinds live in one cache.
type CampaignResult = envelope[*campaign.Report]

// envelope is the result JSON of either study kind.
type envelope[R any] struct {
	// Key is the study's content address (scenario.Fingerprint or
	// campaign.Fingerprint).
	Key string `json:"key"`
	// Report is the study's outcome.
	Report R `json:"report"`
	// Text is the report's Write rendering — the CLI's output.
	Text string `json:"text"`
}

// encodeResult renders a report into a cache entry: the verbatim
// envelope JSON served for the result, CLI-identical text included.
func encodeResult[R interface{ Write(io.Writer) error }](key string, rep R) (entry, error) {
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		return entry{}, fmt.Errorf("serve: render report: %w", err)
	}
	data, err := json.Marshal(envelope[R]{Key: key, Report: rep, Text: buf.String()})
	if err != nil {
		return entry{}, fmt.Errorf("serve: marshal result: %w", err)
	}
	return entry{key: key, json: append(data, '\n')}, nil
}

// resultText returns the CLI text rendering a result envelope carries.
// Text is the envelope's last field, so only that string literal is
// decoded, not the report before it (a fifth of the cost). A quote
// inside a JSON string is always escaped, so the last `,"text":` of
// the document is the envelope's own key. Every cached envelope was
// marshaled by encodeResult, or read back CRC-checked by loadDisk.
func resultText(data []byte) string {
	const field = `,"text":`
	var text string
	if i := bytes.LastIndex(data, []byte(field)); i >= 0 {
		_ = json.Unmarshal(bytes.TrimRight(data[i+len(field):], "}\n"), &text) // always a valid string literal, see above
	}
	return text
}

// Status is a point-in-time job snapshot (the /v1/jobs and
// /v1/campaigns responses).
type Status struct {
	ID       string `json:"id"`
	Key      string `json:"key"`
	Scenario string `json:"scenario"`
	// Kind is "campaign" for campaign jobs; empty for scenario jobs
	// (the original wire format, unchanged).
	Kind  string `json:"kind,omitempty"`
	State State  `json:"state"`
	Reps  int    `json:"reps"`
	// Done and Total count completed vs. scheduled replications
	// (points × reps); Total is 0 until the job starts. For adaptive
	// campaigns Total grows as replication batches are scheduled.
	Done  int `json:"done"`
	Total int `json:"total"`
	// PointsDone and PointsTotal track grid points through a campaign
	// job (0 for scenario jobs).
	PointsDone  int `json:"points_done,omitempty"`
	PointsTotal int `json:"points_total,omitempty"`
	// Cached marks a job answered from the result cache without
	// running.
	Cached bool `json:"cached,omitempty"`
	// Replayed marks a job re-admitted from the journal after a
	// restart rather than submitted by a client this run.
	Replayed bool `json:"replayed,omitempty"`
	// Error carries the failure or cancellation cause in terminal
	// states.
	Error string `json:"error,omitempty"`
	// Trace is the job's lifecycle timeline (accepted → queued →
	// running → first_batch → terminal), with per-stage and cumulative
	// durations. Operational metadata only — results and their
	// fingerprints never include it.
	Trace []TraceStage `json:"trace,omitempty"`
}

// study is what a job runs, of either kind: built by scenarioStudy or
// campaignStudy, from a request or from a journal record.
type study struct {
	kind string // kindScenario or kindCampaign
	name string // display name (Status.Scenario)
	key  string // content address
	reps int    // admitted replications per point (0 for campaigns)
	// totalReps and totalPoints are the study's size, published when it
	// starts or is answered from the cache: reps × points for a
	// scenario, grid points for a campaign (whose replication total
	// arrives through progress as adaptive batches are scheduled).
	totalReps, totalPoints int
	// run executes the study on a worker (nil for cache-hit answers).
	run runner
}

// runner executes a study under ctx, reporting progress to j.
type runner func(ctx context.Context, j *Job) (entry, error)

// Job is one admitted study. The study is fixed at admission, except
// run, which only the worker that dequeues the job reads and clears.
// All other mutable fields are guarded by mu; cond broadcasts on every
// mutation so streamers can follow along.
type Job struct {
	study
	id string
	// seq is the job's journal sequence number (0 without a journal, or
	// for cached/coalesced answers that never queued). Written once
	// during admission under Server.mu, read by the finishing worker —
	// the queue send orders the two.
	seq int64
	// timeout is the job's effective deadline, armed when it starts
	// running (queue wait does not count). Zero means none.
	timeout time.Duration
	// trace records the job's lifecycle timeline. It has its own leaf
	// mutex, so stages can be marked with or without mu held.
	trace obs.Timeline

	mu          sync.Mutex
	cond        *sync.Cond
	state       State
	done        int
	total       int
	pointsDone  int
	pointsTotal int
	cached      bool
	replayed    bool
	batched     bool   // first progress batch already trace-marked
	result      []byte // verbatim response bytes of /result (terminal Done)
	errMsg      string
	cancel      context.CancelFunc
}

func newJob(id string, st study) *Job {
	j := &Job{study: st, id: id, state: StateQueued}
	j.cond = sync.NewCond(&j.mu)
	j.trace.Mark(traceAccepted)
	return j
}

// IsCampaign reports whether the job runs a campaign.
func (j *Job) IsCampaign() bool { return j.kind == kindCampaign }

// ID returns the job's server-unique identifier.
func (j *Job) ID() string { return j.id }

// Key returns the study's content address.
func (j *Job) Key() string { return j.key }

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() Status {
	st := Status{
		ID:          j.id,
		Key:         j.key,
		Scenario:    j.name,
		State:       j.state,
		Reps:        j.reps,
		Done:        j.done,
		Total:       j.total,
		PointsDone:  j.pointsDone,
		PointsTotal: j.pointsTotal,
		Cached:      j.cached,
		Replayed:    j.replayed,
		Error:       j.errMsg,
		Trace:       traceStages(j.trace.Stages()),
	}
	if j.kind != kindScenario {
		st.Kind = j.kind
	}
	return st
}

// Result returns the verbatim response bytes and text rendering of a
// Done job (ok=false otherwise). The text is derived from the bytes.
func (j *Job) Result() (jsonBytes []byte, text string, ok bool) {
	data, ok := j.resultBytes()
	if !ok {
		return nil, "", false
	}
	return data, resultText(data), true
}

// resultBytes returns the verbatim response bytes of a Done job.
func (j *Job) resultBytes() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state == StateDone
}

// Cancel requests cancellation: a queued job will be skipped by the
// worker, a running job's context is cancelled (in-flight replications
// finish, the rest are skipped). Terminal jobs are unaffected. It
// returns the state observed at the time of the call.
func (j *Job) Cancel() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.errMsg = "cancelled while queued"
		j.trace.Mark(string(StateCancelled))
		j.cond.Broadcast()
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	return j.state
}

// Wait blocks until the job reaches a terminal state or ctx is done,
// and returns the job's state at that moment.
func (j *Job) Wait(ctx context.Context) State {
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()
	j.mu.Lock()
	defer j.mu.Unlock()
	for !j.state.Terminal() && ctx.Err() == nil {
		j.cond.Wait()
	}
	return j.state
}

// start transitions Queued → Running and arms the job's cancel
// context — with the job's deadline when it has one; queue wait does
// not consume deadline budget. ok=false means the job was cancelled
// while queued and must not run.
func (j *Job) start(parent context.Context) (ctx context.Context, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return nil, false
	}
	if j.timeout > 0 {
		ctx, j.cancel = context.WithTimeout(parent, j.timeout)
	} else {
		ctx, j.cancel = context.WithCancel(parent)
	}
	j.state = StateRunning
	j.trace.Mark(traceRunning)
	j.total, j.pointsTotal = j.totalReps, j.totalPoints
	j.cond.Broadcast()
	return ctx, true
}

// setPoints records grid-point completion (the campaign.Opts.PointDone
// callback).
func (j *Job) setPoints(done, total int) {
	j.mu.Lock()
	j.markBatchLocked()
	j.pointsDone, j.pointsTotal = done, total
	j.cond.Broadcast()
	j.mu.Unlock()
}

// setProgress records one more completed replication (the
// scenario.Options.Progress callback).
func (j *Job) setProgress(done, total int) {
	j.mu.Lock()
	j.markBatchLocked()
	j.done, j.total = done, total
	j.cond.Broadcast()
	j.mu.Unlock()
}

// markBatchLocked trace-marks the first completed batch of work (a
// replication or a grid point) exactly once — the job's
// time-to-first-result. j.mu must be held.
func (j *Job) markBatchLocked() {
	if !j.batched {
		j.batched = true
		j.trace.Mark(traceFirstBatch)
	}
}

// finish moves the job to a terminal state.
func (j *Job) finish(state State, ent *entry, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.errMsg = errMsg
	j.trace.Mark(string(state))
	if ent != nil {
		j.result = ent.json
		j.done = j.total
	}
	if j.cancel != nil {
		j.cancel()
		j.cancel = nil
	}
	j.cond.Broadcast()
}

// markReplayed flags the job as recovered from the journal.
func (j *Job) markReplayed() {
	j.mu.Lock()
	j.replayed = true
	j.cond.Broadcast()
	j.mu.Unlock()
}

// completeFromCache marks a fresh job Done with a cached result.
func (j *Job) completeFromCache(ent entry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateDone
	j.cached = true
	j.trace.Mark(string(StateDone))
	j.result = ent.json
	j.total, j.pointsTotal = j.totalReps, j.totalPoints
	j.done, j.pointsDone = j.total, j.pointsTotal
	j.cond.Broadcast()
}
