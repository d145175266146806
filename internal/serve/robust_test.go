package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
)

// seqField finds a journal payload's seq, even in a payload that is
// not valid JSON.
var seqField = regexp.MustCompile(`"seq":(\d+)`)

// journalBytes frames raw journal payloads the way the journal writes
// them, each keyed by the seq it names ("0" when it names none).
func journalBytes(payloads ...string) []byte {
	var data []byte
	for _, p := range payloads {
		key := "0"
		if m := seqField.FindStringSubmatch(p); m != nil {
			key = m[1]
		}
		data = append(data, encodeRecord(key, []byte(p))...)
	}
	return data
}

// writeJournal handcrafts a journal file under dir — the deterministic
// way to stage "a previous run crashed here" states without actually
// crashing a process.
func writeJournal(t *testing.T, dir string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, journalFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// journalRecords decodes every record of the journal under dir, up to
// the first bad one.
func journalRecords(t *testing.T, dir string) []journalRecord {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	var recs []journalRecord
	walkRecords(bytes.NewReader(data), int64(len(data)), true, func(_ int64, _, payload []byte) bool {
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatalf("journal record %q: %v", payload, err)
		}
		recs = append(recs, rec)
		return true
	})
	return recs
}

// acceptLine renders a well-formed scenario accept record for spec.
func acceptLine(t *testing.T, seq int64, spec scenario.Spec, reps int) string {
	t.Helper()
	compiled, err := scenario.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	key, err := scenario.Fingerprint(spec, reps)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := json.Marshal(compiled.Spec)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"seq":%d,"op":"accept","kind":"scenario","key":%q,"spec":%s,"reps":%d}`,
		seq, key, canon, reps)
}

// waitReplayed polls until the server has replayed (at least) n journal
// records and every replayed job reached a terminal state.
func waitReplayed(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		c, _ := s.Stats()
		if c.Replayed >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal replay never reached %d records (got %d)", n, c.Replayed)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, j := range s.Jobs() {
		waitDone(t, j)
	}
}

// TestJournalReplayRecoversJob is the crash-recovery core: an accept
// record without a terminal end — exactly what a SIGKILLed daemon
// leaves behind — is replayed on startup, runs to completion, and
// serves a result byte-identical to a direct submission of the same
// study. Afterwards the journal carries no live records: a second
// restart replays nothing.
func TestJournalReplayRecoversJob(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("journal-replay")
	writeJournal(t, dir, journalBytes(acceptLine(t, 1, spec, 3)))

	s := mustNew(t, Config{JournalDir: dir})
	waitReplayed(t, s, 1)
	jobs := s.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("replay admitted %d jobs, want 1", len(jobs))
	}
	st := jobs[0].Status()
	if st.State != StateDone || !st.Replayed {
		t.Fatalf("replayed job status = %+v, want done and replayed", st)
	}
	got, _, ok := jobs[0].Result()
	if !ok {
		t.Fatal("replayed job has no result")
	}
	s.Close()

	// Reference: the same study submitted directly to a fresh server.
	ref := mustNew(t, Config{})
	defer ref.Close()
	j, _, _, err := ref.Submit(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	want, _, _ := j.Result()
	if !bytes.Equal(got, want) {
		t.Error("replayed result differs from a direct submission")
	}

	// The record was retired: nothing left to replay.
	jl, pending, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	jl.close()
	if len(pending) != 0 {
		t.Fatalf("journal still has %d live record(s) after recovery", len(pending))
	}
}

// TestJournalCorruptTailTruncated pins the crash-mid-append contract:
// everything up to the last well-formed record is trusted and replayed,
// the corrupt tail is dropped (not fatal), and the recovered file is
// rewritten clean.
func TestJournalCorruptTailTruncated(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("corrupt-tail")
	data := journalBytes(acceptLine(t, 1, spec, 2), acceptLine(t, 2, tinySpec("torn"), 2))
	writeJournal(t, dir, data[:len(data)-40]) // torn mid-append

	s := mustNew(t, Config{JournalDir: dir})
	waitReplayed(t, s, 1)
	if jobs := s.Jobs(); len(jobs) != 1 || jobs[0].Status().State != StateDone {
		t.Fatalf("want exactly the 1 intact record replayed to done, got %d job(s)", len(jobs))
	}
	s.Close()

	// A record that parses as JSON but is not usable must also stop the
	// scan — nothing at or after it is trusted.
	dir2 := t.TempDir()
	writeJournal(t, dir2, journalBytes(
		acceptLine(t, 1, spec, 2),
		`{"seq":3,"op":"accept","kind":"scenario","key":"sha256:feed"}`, // no spec: malformed
		acceptLine(t, 4, tinySpec("after-corruption"), 2),
	))
	s2 := mustNew(t, Config{JournalDir: dir2})
	waitReplayed(t, s2, 1)
	if jobs := s2.Jobs(); len(jobs) != 1 {
		t.Fatalf("records after a corrupt one must not replay; got %d job(s)", len(jobs))
	}
	s2.Close()

	// So must a sound record keyed by another seq than its payload's.
	dir3 := t.TempDir()
	writeJournal(t, dir3, append(append(journalBytes(acceptLine(t, 1, spec, 2)),
		encodeRecord("7", []byte(acceptLine(t, 3, tinySpec("misfiled"), 2)))...),
		journalBytes(acceptLine(t, 4, tinySpec("after-misfiled"), 2))...))
	jl, pending, err := openJournal(dir3, nil)
	if err != nil {
		t.Fatal(err)
	}
	jl.close()
	if len(pending) != 1 || pending[0].Seq != 1 {
		t.Fatalf("a record keyed by another seq, or one after it, replayed: %+v", pending)
	}
}

// TestJournalCollapseAndCompaction exercises the journal's two
// size-control mechanisms directly: an end that outruns its accept
// collapses the pair to zero records, and accumulating terminal records
// triggers a rewrite that keeps only live accepts.
func TestJournalCollapseAndCompaction(t *testing.T) {
	dir := t.TempDir()
	l, pending, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("fresh journal has %d pending records", len(pending))
	}

	// End before accept: both vanish.
	seq := l.next()
	l.end(seq, StateDone)
	l.accept(journalRecord{Seq: seq, Op: "accept", Kind: "scenario", Key: "sha256:1", Spec: []byte(`{}`), Reps: 1})
	if data, _ := os.ReadFile(filepath.Join(dir, journalFile)); len(data) != 0 {
		t.Fatalf("collapsed accept/end pair left %d bytes in the journal", len(data))
	}

	// Compaction: with compactEvery=2, the second end rewrites the file
	// down to the single still-live accept.
	l.compactEvery = 2
	var seqs []int64
	for i := 0; i < 3; i++ {
		sq := l.next()
		seqs = append(seqs, sq)
		l.accept(journalRecord{Seq: sq, Op: "accept", Kind: "scenario",
			Key: fmt.Sprintf("sha256:%d", i), Spec: []byte(`{}`), Reps: 1})
	}
	l.end(seqs[0], StateDone)
	l.end(seqs[1], StateDone)
	if recs := journalRecords(t, dir); len(recs) != 1 {
		t.Fatalf("compacted journal has %d record(s), want 1 live accept: %+v", len(recs), recs)
	}
	l.close()

	// Reopen: exactly the live record survives.
	l2, pending, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	l2.close()
	if len(pending) != 1 || pending[0].Seq != seqs[2] {
		t.Fatalf("reopened journal pending = %+v, want the one live seq %d", pending, seqs[2])
	}
}

// TestPanicIsolatedToJob pins panic isolation: a replication that
// panics fails exactly its own job — with the panic value and stack in
// the job error and the panics counter bumped — while the worker
// goroutine survives to run the next job.
func TestPanicIsolatedToJob(t *testing.T) {
	var boom atomic.Bool
	boom.Store(true)
	s := mustNew(t, Config{RepWorkers: 2, faults: &Faults{
		RepHook: func() {
			if boom.Load() {
				panic("injected replication panic")
			}
		},
	}})
	defer s.Close()

	j1, _, _, err := s.Submit(tinySpec("panic-victim"), 3)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	st := j1.Status()
	if st.State != StateFailed {
		t.Fatalf("panicking job state = %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "injected replication panic") || !strings.Contains(st.Error, "goroutine") {
		t.Fatalf("job error lacks panic value or stack:\n%s", st.Error)
	}
	c, _ := s.Stats()
	if c.Panics != 1 || c.Failed != 1 {
		t.Fatalf("counters after panic = %+v, want panics=1 failed=1", c)
	}

	// The same workers must still serve.
	boom.Store(false)
	j2, _, _, err := s.Submit(tinySpec("panic-survivor"), 3)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if st := j2.Status(); st.State != StateDone {
		t.Fatalf("job after the panic = %+v, want done", st)
	}
}

// TestOutcomeCountedBeforeWaitReturns pins the ordering the serving
// tests rely on: a job's outcome counters move before its terminal
// state wakes Wait, so a caller reading them right after Wait — with no
// polling — always sees its own job counted. Jobs are waited on in
// submission order, done ones first and then panicking ones, across two
// workers so completions race the reads.
func TestOutcomeCountedBeforeWaitReturns(t *testing.T) {
	const perPhase = 16
	var boom atomic.Bool
	s := mustNew(t, Config{Workers: 2, RepWorkers: 1, faults: &Faults{
		RepHook: func() {
			if boom.Load() {
				panic("injected replication panic")
			}
		},
	}})
	defer s.Close()

	for phase, want := range []State{StateDone, StateFailed} {
		boom.Store(want == StateFailed)
		jobs := make([]*Job, perPhase)
		for i := range jobs {
			spec := tinySpec(fmt.Sprintf("counted-%d-%d", phase, i))
			spec.Seed = uint64(1 + i)
			j, cached, coalesced, err := s.Submit(spec, 1)
			if err != nil || cached || coalesced {
				t.Fatalf("submit %d/%d: cached=%v coalesced=%v err=%v", phase, i, cached, coalesced, err)
			}
			jobs[i] = j
		}
		for i, j := range jobs {
			waitDone(t, j)
			if st := j.Status().State; st != want {
				t.Fatalf("job %d/%d ended %s, want %s", phase, i, st, want)
			}
			c, _ := s.Stats()
			counted := c.Completed
			if want == StateFailed {
				counted = min(c.Failed, c.Panics)
				if c.Completed != perPhase {
					t.Fatalf("completed = %d after the done phase, want %d", c.Completed, perPhase)
				}
			}
			if counted < int64(i+1) {
				t.Fatalf("after waiting on %d %s jobs the counters read %+v", i+1, want, c)
			}
		}
	}
}

// TestJobTimeout pins the per-job deadline: a job overrunning
// Config.JobTimeout lands in timed_out (not cancelled, not failed), the
// counter records it, and /result answers 504.
func TestJobTimeout(t *testing.T) {
	s := mustNew(t, Config{JobTimeout: 50 * time.Millisecond, RepWorkers: 1, faults: &Faults{
		RepHook: func() { time.Sleep(20 * time.Millisecond) },
	}})
	defer s.Close()

	j, _, _, err := s.Submit(tinySpec("deadline-overrun"), 50)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.Status(); st.State != StateTimedOut {
		t.Fatalf("overrunning job = %+v, want timed_out", st)
	}
	c, _ := s.Stats()
	if c.TimedOut != 1 || c.Cancelled != 0 {
		t.Fatalf("counters = %+v, want timed_out=1 cancelled=0", c)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID() + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("/result for a timed-out job = %d, want 504", resp.StatusCode)
	}

	// The request-level deadline is capped by the server limit, and
	// requests without one inherit it.
	cfg := Config{JobTimeout: 50 * time.Millisecond}
	if got := cfg.effectiveTimeout(time.Hour); got != 50*time.Millisecond {
		t.Errorf("effectiveTimeout(1h) under a 50ms cap = %s", got)
	}
	if got := cfg.effectiveTimeout(0); got != 50*time.Millisecond {
		t.Errorf("effectiveTimeout(0) = %s, want the server limit", got)
	}
	if got := cfg.effectiveTimeout(10 * time.Millisecond); got != 10*time.Millisecond {
		t.Errorf("effectiveTimeout(10ms) = %s, want the request value", got)
	}
	if got := (Config{}).effectiveTimeout(time.Minute); got != time.Minute {
		t.Errorf("effectiveTimeout without a server limit = %s, want the request value", got)
	}
}

// TestRequestTimeoutOverride: a per-request deadline on a server with
// no global limit times the job out on its own.
func TestRequestTimeoutOverride(t *testing.T) {
	s := mustNew(t, Config{RepWorkers: 1, faults: &Faults{
		RepHook: func() { time.Sleep(20 * time.Millisecond) },
	}})
	defer s.Close()
	j, _, _, err := s.SubmitTimeout(tinySpec("request-deadline"), 50, 40*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if st := j.Status(); st.State != StateTimedOut {
		t.Fatalf("job = %+v, want timed_out", st)
	}
}

// TestReadyzDegradedJournal pins the degraded-readiness contract:
// repeated consecutive journal write failures flip /readyz to 503
// (reason included) while /healthz stays 200, the failures surface in
// /v1/stats, and a successful write restores readiness.
func TestReadyzDegradedJournal(t *testing.T) {
	var fail atomic.Bool
	s := mustNew(t, Config{JournalDir: t.TempDir(), faults: &Faults{
		Disk: func(st DiskStep) error {
			if st.Log == "journal" && st.Op == "write" && fail.Load() {
				return errors.New("injected: no space left on device")
			}
			return nil
		},
	}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, buf.String()
	}

	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("healthy /readyz = %d, want 200", code)
	}

	// Hold the worker so no job can end (and collapse its accept away)
	// before the failed accept writes are counted.
	proceed := make(chan struct{})
	s.testHoldRun = func(*Job) { <-proceed }
	fail.Store(true)
	var jobs []*Job
	for i := 0; i < degradedAfter; i++ {
		j, _, _, err := s.Submit(tinySpec(fmt.Sprintf("degraded-%d", i)), 2)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	code, body := get("/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "journal degraded") {
		t.Fatalf("/readyz under journal failure = %d %q, want 503 with reason", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz under journal failure = %d, want 200 (liveness is not readiness)", code)
	}
	c, _ := s.Stats()
	if c.JournalWriteFailures < degradedAfter {
		t.Fatalf("journal_write_failures = %d, want ≥ %d", c.JournalWriteFailures, degradedAfter)
	}
	close(proceed)
	for _, j := range jobs {
		waitDone(t, j)
	}

	// Recovery: one successful accept write resets the streak. Hold the
	// worker until Submit has written the accept: a job that ends first
	// collapses its accept away, and then no write resets the streak.
	hold := make(chan struct{})
	s.testHoldRun = func(*Job) { <-hold }
	fail.Store(false)
	j, _, _, err := s.Submit(tinySpec("recovered"), 2)
	close(hold)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if code, body := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after recovery = %d %q, want 200", code, body)
	}
}

// TestReadyzQueueSaturated: a full queue means the next submission
// would bounce, so /readyz reports 503 — and the 503 a bounced
// submission gets carries a computed Retry-After.
func TestReadyzQueueSaturated(t *testing.T) {
	s := mustNew(t, Config{QueueDepth: 1, Workers: 1})
	held := make(chan *Job, 1)
	release := make(chan struct{})
	s.testHoldRun = func(j *Job) { held <- j; <-release }

	jA, _, _, err := s.Submit(tinySpec("saturate-a"), 2)
	if err != nil {
		t.Fatal(err)
	}
	<-held // worker holds job A; the queue slot is free again
	if _, _, _, err := s.Submit(tinySpec("saturate-b"), 2); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with a saturated queue = %d, want 503", resp.StatusCode)
	}

	// A third submission bounces with 503 + Retry-After.
	body := `{"spec":{"name":"saturate-c","sim_time_us":1e6,"stations":[{"count":2}]},"reps":2}`
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable || resp2.Header.Get("Retry-After") == "" {
		t.Fatalf("saturated submission = %d Retry-After %q, want 503 with a hint",
			resp2.StatusCode, resp2.Header.Get("Retry-After"))
	}

	close(release)
	waitDone(t, jA)
	s.Close()
}

// TestRetryAfterEstimate pins the backpressure hint arithmetic: mean
// observed service time × queue depth ÷ workers, floored at 1s.
func TestRetryAfterEstimate(t *testing.T) {
	cfg := Config{Workers: 2, QueueDepth: 4}.withDefaults()
	s := &Server{cfg: cfg, queue: make(chan *Job, cfg.QueueDepth)}
	s.svcRuns, s.svcTotal = 2, 4*time.Second // mean 2s
	for i := 0; i < 3; i++ {
		s.queue <- &Job{}
	}
	if got := s.RetryAfter(); got != 3*time.Second { // ceil(2s × 3 / 2)
		t.Errorf("RetryAfter = %s, want 3s", got)
	}

	// No sample or an empty queue: the 1s floor.
	empty := &Server{cfg: cfg, queue: make(chan *Job, cfg.QueueDepth)}
	if got := empty.RetryAfter(); got != time.Second {
		t.Errorf("RetryAfter with no history = %s, want 1s", got)
	}
}

// TestPredictCoalesce pins /v1/predict single-flight: concurrent cache
// misses of one key produce exactly one solve; the followers wait and
// return the leader's bytes, counted as predict_coalesced.
func TestPredictCoalesce(t *testing.T) {
	const followers = 3
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s := mustNew(t, Config{faults: &Faults{
		PredictSolve: func() {
			once.Do(func() { close(entered) })
			<-release
		},
	}})
	defer s.Close()
	spec := tinySpec("predict-coalesce")

	type outcome struct {
		json []byte
		err  error
	}
	results := make(chan outcome, followers+1)
	go func() {
		data, _, _, err := s.Predict(spec)
		results <- outcome{data, err}
	}()
	<-entered // the leader owns the flight; followers must now coalesce
	for i := 0; i < followers; i++ {
		go func() {
			data, _, _, err := s.Predict(spec)
			results <- outcome{data, err}
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		c, _ := s.Stats()
		if c.PredictCoalesced == followers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers never attached: predict_coalesced = %d", c.PredictCoalesced)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	var first []byte
	for i := 0; i < followers+1; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if first == nil {
			first = r.json
		} else if !bytes.Equal(first, r.json) {
			t.Fatal("coalesced predict returned different bytes than the leader")
		}
	}
	c, _ := s.Stats()
	if c.Predictions != followers+1 || c.PredictCoalesced != followers || c.PredictCacheHits != 0 {
		t.Fatalf("counters = %+v, want %d predictions, %d coalesced, 0 cache hits",
			c, followers+1, followers)
	}
	// The flight is gone; the next call is a plain cache hit.
	if _, _, cached, err := s.Predict(spec); err != nil || !cached {
		t.Fatalf("post-flight predict cached=%v err=%v, want cache hit", cached, err)
	}
}

// TestRegistryOverflowCounter: when every resident job is still live,
// the MaxJobs bound cannot evict anything and the overflow counter
// records the excursion.
func TestRegistryOverflowCounter(t *testing.T) {
	s := mustNew(t, Config{MaxJobs: 1, Workers: 1})
	held := make(chan *Job, 1)
	release := make(chan struct{})
	s.testHoldRun = func(j *Job) { held <- j; <-release }

	jA, _, _, err := s.Submit(tinySpec("overflow-a"), 2)
	if err != nil {
		t.Fatal(err)
	}
	<-held
	jB, _, _, err := s.Submit(tinySpec("overflow-b"), 2)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := s.Stats()
	if c.RegistryOverflow != 1 {
		t.Fatalf("registry_overflow = %d, want 1 (two live jobs, bound 1)", c.RegistryOverflow)
	}
	close(release)
	waitDone(t, jA)
	waitDone(t, jB)
	s.Close()
}

// TestDrainAbandonsAndReplays pins graceful shutdown's journal
// contract: a job Drain gives up on keeps its journal record
// non-terminal, so the next start replays it to the same result — while
// a job that finishes within the drain window is retired normally.
func TestDrainAbandonsAndReplays(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("drain-abandon")
	s := mustNew(t, Config{JournalDir: dir, RepWorkers: 1, faults: &Faults{
		RepHook: func() { time.Sleep(20 * time.Millisecond) },
	}})
	j, _, _, err := s.Submit(spec, 50) // ≥ 1s of injected sleep: cannot finish in time
	if err != nil {
		t.Fatal(err)
	}
	drained, abandoned := s.Drain(0)
	if drained != 0 || abandoned != 1 {
		t.Fatalf("Drain = (%d drained, %d abandoned), want (0, 1)", drained, abandoned)
	}
	if st := j.Status(); st.State != StateCancelled {
		t.Fatalf("abandoned job state = %s, want cancelled", st.State)
	}
	s.Close()

	// Restart: the abandoned job replays and completes.
	s2 := mustNew(t, Config{JournalDir: dir})
	waitReplayed(t, s2, 1)
	jobs := s2.Jobs()
	if len(jobs) != 1 || jobs[0].Status().State != StateDone || !jobs[0].Status().Replayed {
		t.Fatalf("restart did not replay the abandoned job to done: %d job(s)", len(jobs))
	}
	s2.Close()

	// The graceful half: a job that finishes within the window drains
	// and its record is retired — nothing replays on the next start.
	// (The injected per-rep sleep keeps the job provably non-terminal
	// at the Drain call without making it slow enough to abandon.)
	dir2 := t.TempDir()
	s3 := mustNew(t, Config{JournalDir: dir2, RepWorkers: 1, faults: &Faults{
		RepHook: func() { time.Sleep(10 * time.Millisecond) },
	}})
	if _, _, _, err := s3.Submit(tinySpec("drain-finish"), 2); err != nil {
		t.Fatal(err)
	}
	drained, abandoned = s3.Drain(30 * time.Second)
	if drained != 1 || abandoned != 0 {
		t.Fatalf("graceful Drain = (%d drained, %d abandoned), want (1, 0)", drained, abandoned)
	}
	s3.Close()
	jl, pending, err := openJournal(dir2, nil)
	if err != nil {
		t.Fatal(err)
	}
	jl.close()
	if len(pending) != 0 {
		t.Fatalf("drained journal still has %d live record(s)", len(pending))
	}
}

// TestDiskCacheFaultDegradesReadiness: injected disk-cache write
// failures count in stats and flip /readyz after the threshold, without
// affecting the served results (memory tier unaffected).
func TestDiskCacheFaultDegradesReadiness(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	s := mustNew(t, Config{CacheDir: t.TempDir(), faults: &Faults{
		Disk: func(st DiskStep) error {
			if st.Log == "cache" && fail.Load() {
				return errors.New("injected disk-cache failure")
			}
			return nil
		},
	}})
	defer s.Close()

	for i := 0; i < degradedAfter; i++ {
		j, _, _, err := s.Submit(tinySpec(fmt.Sprintf("cache-fault-%d", i)), 2)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		if st := j.Status(); st.State != StateDone {
			t.Fatalf("job under disk-cache failure = %+v, want done (drop is best-effort)", st)
		}
	}
	if ok, reason := s.Ready(); ok || !strings.Contains(reason, "disk cache degraded") {
		t.Fatalf("Ready() = %v %q, want unready with disk-cache reason", ok, reason)
	}
	c, _ := s.Stats()
	if c.DiskCacheWriteFailures < degradedAfter {
		t.Fatalf("disk_cache_write_failures = %d, want ≥ %d", c.DiskCacheWriteFailures, degradedAfter)
	}

	fail.Store(false)
	j, _, _, err := s.Submit(tinySpec("cache-fault-recovered"), 2)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if ok, reason := s.Ready(); !ok {
		t.Fatalf("Ready() after recovery = false (%s), want true", reason)
	}
}
