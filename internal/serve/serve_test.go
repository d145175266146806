package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// tinySpec is a fast sim-engine scenario (fractions of a millisecond
// per replication thanks to idle fast-forward).
func tinySpec(name string) scenario.Spec {
	return scenario.Spec{
		Name:          name,
		SimTimeMicros: 1e6,
		Stations:      []scenario.Group{{Count: 2}},
	}
}

// sweepSpec exercises multi-point jobs.
func sweepSpec(name string) scenario.Spec {
	s := tinySpec(name)
	s.SweepN = []int{1, 2}
	return s
}

// mustNew builds a server from cfg, failing the test on a startup
// error (only possible with an unusable cache dir).
func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if st := j.Wait(ctx); !st.Terminal() {
		t.Fatalf("job %s did not reach a terminal state: %s", j.ID(), st)
	}
}

// TestSubmitComputeThenCache pins the core serving contract: a first
// submission computes, a second identical one is answered from the
// cache with byte-identical result JSON and text, and the text equals
// what the CLI path (Replications + Report.Write) produces.
func TestSubmitComputeThenCache(t *testing.T) {
	s := mustNew(t, Config{})
	defer s.Close()

	spec := tinySpec("cache-roundtrip")
	j1, cached, coalesced, err := s.Submit(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cached || coalesced {
		t.Fatalf("first submission: cached=%v coalesced=%v, want false/false", cached, coalesced)
	}
	waitDone(t, j1)
	if st := j1.Status(); st.State != StateDone || st.Done != st.Total || st.Total != 3 {
		t.Fatalf("job 1 status = %+v", st)
	}
	res1, text1, ok := j1.Result()
	if !ok {
		t.Fatal("job 1 has no result")
	}

	j2, cached, coalesced, err := s.Submit(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || coalesced {
		t.Fatalf("second submission: cached=%v coalesced=%v, want true/false", cached, coalesced)
	}
	if j2.ID() == j1.ID() {
		t.Fatal("cached submission must mint a new job ID")
	}
	res2, text2, ok := j2.Result()
	if !ok {
		t.Fatal("cached job has no result")
	}
	if !bytes.Equal(res1, res2) {
		t.Error("cached result JSON differs from computed result")
	}
	if text1 != text2 {
		t.Error("cached text differs from computed text")
	}

	// The text rendering must match the direct CLI path bit for bit.
	c, err := scenario.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.Replications(c, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if text1 != buf.String() {
		t.Errorf("served text differs from CLI rendering:\nserved:\n%s\ncli:\n%s", text1, buf.String())
	}

	// A different reps count is a different study.
	key3, _ := scenario.Fingerprint(spec, 4)
	if key3 == j1.Key() {
		t.Error("fingerprint ignores reps")
	}

	counters, entries := s.Stats()
	if counters.CacheHits != 1 || counters.Completed != 1 || counters.Submissions != 2 {
		t.Errorf("counters = %+v", counters)
	}
	if entries != 1 {
		t.Errorf("cache entries = %d, want 1", entries)
	}
}

// TestResultJSONCarriesSummaries unmarshals a served result and checks
// the aggregated report inside it.
func TestResultJSONCarriesSummaries(t *testing.T) {
	s := mustNew(t, Config{})
	defer s.Close()

	j, _, _, err := s.Submit(sweepSpec("json-shape"), 4)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	data, _, ok := j.Result()
	if !ok {
		t.Fatalf("no result: %+v", j.Status())
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("result does not parse: %v", err)
	}
	if res.Key != j.Key() {
		t.Errorf("result key %q != job key %q", res.Key, j.Key())
	}
	if res.Report == nil || len(res.Report.Points) != 2 {
		t.Fatalf("want 2 sweep points, got %+v", res.Report)
	}
	for _, p := range res.Report.Points {
		if len(p.Seeds) != 4 || len(p.PerRep) != 4 || len(p.Metrics) == 0 {
			t.Errorf("point N=%d: seeds=%d perrep=%d metrics=%d", p.N, len(p.Seeds), len(p.PerRep), len(p.Metrics))
		}
		for _, m := range p.Metrics {
			if m.Summary.N != 4 {
				t.Errorf("metric %s aggregated over n=%d, want 4", m.Name, m.Summary.N)
			}
		}
	}
	if !strings.Contains(res.Text, "# scenario json-shape") {
		t.Errorf("text rendering missing header:\n%s", res.Text)
	}
}

// TestCoalescing holds the single worker on an unrelated job so that
// two identical submissions deterministically meet in the queue: the
// second must attach to the first's job, not enqueue a duplicate.
func TestCoalescing(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	release := make(chan struct{})
	running := make(chan struct{}, 8)
	s.testHoldRun = func(*Job) {
		running <- struct{}{}
		<-release
	}
	defer s.Close()
	defer close(release)

	// Occupy the worker.
	if _, _, _, err := s.Submit(tinySpec("blocker"), 2); err != nil {
		t.Fatal(err)
	}
	<-running // worker is now held inside testHoldRun

	spec := tinySpec("coalesce-me")
	j1, cached, coalesced, err := s.Submit(spec, 2)
	if err != nil || cached || coalesced {
		t.Fatalf("first: j=%v cached=%v coalesced=%v err=%v", j1, cached, coalesced, err)
	}
	j2, cached, coalesced, err := s.Submit(spec, 2)
	if err != nil || cached || !coalesced {
		t.Fatalf("second: cached=%v coalesced=%v err=%v, want coalesced", cached, coalesced, err)
	}
	if j1 != j2 {
		t.Fatal("coalesced submission returned a different job")
	}
	// Different reps: a different study, must NOT coalesce.
	j3, _, coalesced, err := s.Submit(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if coalesced || j3 == j1 {
		t.Fatal("submission with different reps coalesced with a different study")
	}

	counters, _ := s.Stats()
	if counters.Coalesced != 1 {
		t.Errorf("coalesced counter = %d, want 1", counters.Coalesced)
	}
}

// TestQueueFullBackpressure fills the bounded queue behind a held
// worker and checks the overflow submission is rejected, then admitted
// again after capacity frees up.
func TestQueueFullBackpressure(t *testing.T) {
	s := mustNew(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	running := make(chan struct{}, 8)
	s.testHoldRun = func(*Job) {
		running <- struct{}{}
		<-release
	}
	defer s.Close()

	held, _, _, err := s.Submit(tinySpec("held"), 2)
	if err != nil {
		t.Fatal(err)
	}
	<-running
	queued, _, _, err := s.Submit(tinySpec("queued"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Submit(tinySpec("overflow"), 2); err != ErrQueueFull {
		t.Fatalf("overflow submission: err = %v, want ErrQueueFull", err)
	}
	counters, _ := s.Stats()
	if counters.Rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", counters.Rejected)
	}
	// A rejected submission must leave no ghost job behind.
	for _, j := range s.Jobs() {
		if j.Status().Scenario == "overflow" {
			t.Error("rejected job still registered")
		}
	}

	close(release)
	waitDone(t, held)
	waitDone(t, queued)
	j, _, _, err := s.Submit(tinySpec("after-drain"), 2)
	if err != nil {
		t.Fatalf("submission after drain: %v", err)
	}
	waitDone(t, j)
}

// TestCancelQueuedAndRunning covers both cancellation paths.
func TestCancelQueuedAndRunning(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	gate := make(chan struct{})
	running := make(chan struct{}, 16)
	s.testHoldRun = func(*Job) {
		running <- struct{}{}
		<-gate
	}
	defer s.Close()

	blocker, _, _, err := s.Submit(tinySpec("blocker"), 2)
	if err != nil {
		t.Fatal(err)
	}
	<-running // worker held on blocker

	// Cancel while queued: the worker must skip it entirely.
	queued, _, _, err := s.Submit(tinySpec("cancel-queued"), 2)
	if err != nil {
		t.Fatal(err)
	}
	queued.Cancel()
	if st := queued.Status(); st.State != StateCancelled {
		t.Fatalf("queued job after cancel: %s", st.State)
	}

	// A long job (many reps) to cancel mid-run once the gate opens.
	long := tinySpec("cancel-running")
	j, _, _, err := s.Submit(long, 500)
	if err != nil {
		t.Fatal(err)
	}
	close(gate) // everything proceeds from here on
	waitDone(t, blocker)
	if st := queued.Status(); st.State != StateCancelled {
		t.Fatalf("cancelled-in-queue job ran anyway: %s", st.State)
	}
	deadline := time.Now().Add(30 * time.Second)
	for j.Status().State == StateQueued && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	j.Cancel()
	waitDone(t, j)
	st := j.Status()
	// The cancel races with natural completion; both terminal outcomes
	// are legal, failure is not.
	if st.State != StateCancelled && st.State != StateDone {
		t.Fatalf("cancelled running job: state %s err %q", st.State, st.Error)
	}
	// Whatever the race outcome, the server must still serve new work.
	after, _, _, err := s.Submit(tinySpec("after-cancel"), 2)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, after)
	if after.Status().State != StateDone {
		t.Fatalf("post-cancel job: %+v", after.Status())
	}
}

// TestInvalidSubmissions exercises admission control.
func TestInvalidSubmissions(t *testing.T) {
	s := mustNew(t, Config{MaxReps: 10})
	defer s.Close()

	if _, _, _, err := s.Submit(scenario.Spec{}, 2); err == nil {
		t.Error("empty spec admitted")
	}
	if _, _, _, err := s.Submit(tinySpec("reps0"), 0); err == nil {
		t.Error("reps=0 admitted")
	}
	if _, _, _, err := s.Submit(tinySpec("too-many"), 11); err == nil {
		t.Error("reps over MaxReps admitted")
	}
}

// TestJobsRejectFrameOverTs: a frame longer than the success duration
// is a 400 at admission that names both fields, not a job that runs
// every replication and then fails to marshal an infinite throughput.
func TestJobsRejectFrameOverTs(t *testing.T) {
	s := parkedServer(t, 4)
	rec := post(s.Handler(), "/v1/jobs",
		[]byte(`{"spec":{"name":"inf","sim_time_us":1e6,"frame_us":1e308,"stations":[{"count":2}]},"reps":3}`))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `frame_us\" = 1e+308 exceeds \"ts_us`) {
		t.Fatalf("POST /v1/jobs: %d %s, want a 400 naming frame_us and ts_us", rec.Code, rec.Body)
	}
	if len(s.Jobs()) != 0 {
		t.Error("the rejected spec minted a job")
	}
}

// TestJobsRejectStationsOverCap: a spec with more stations than the
// mac engine has TEIs is a 400 at admission that names the field, not
// a job whose replications panic.
func TestJobsRejectStationsOverCap(t *testing.T) {
	s := parkedServer(t, 4)
	rec := post(s.Handler(), "/v1/jobs",
		[]byte(`{"spec":{"name":"crowded","engine":"mac","sim_time_us":100000,"stations":[{"count":256}]},"reps":1}`))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `\"count\" = 256 puts the point over the 253-station cap`) {
		t.Fatalf("POST /v1/jobs: %d %s, want a 400 naming count", rec.Code, rec.Body)
	}
	if len(s.Jobs()) != 0 {
		t.Error("the rejected spec minted a job")
	}
}

// TestDiskPersistence restarts the server on the same cache directory
// and expects a disk hit with byte-identical result.
func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	spec := tinySpec("persist")

	s1 := mustNew(t, Config{CacheDir: dir})
	j1, _, _, err := s1.Submit(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	res1, _, ok := j1.Result()
	if !ok {
		t.Fatal("no result")
	}
	s1.Close()

	s2 := mustNew(t, Config{CacheDir: dir})
	defer s2.Close()
	j2, cached, _, err := s2.Submit(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("restarted server missed the disk cache")
	}
	res2, _, _ := j2.Result()
	if !bytes.Equal(res1, res2) {
		t.Error("disk-cached result differs from originally computed bytes")
	}
	counters, _ := s2.Stats()
	if counters.DiskCacheHits != 1 {
		t.Errorf("disk hits = %d, want 1", counters.DiskCacheHits)
	}

	// A corrupted record must be ignored, not served: flip the case of
	// a letter in the text rendering of the record s1 wrote, which
	// leaves the payload valid JSON under the right key.
	s2.Close()
	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("cache dir holds segments %v (%v), want exactly s1's", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.LastIndex(data, []byte(`"text":"`))
	for i >= 0 && i < len(data) && !('a' <= data[i] && data[i] <= 'z') {
		i++
	}
	if i < 0 || i == len(data) {
		t.Fatal("no text rendering in the segment")
	}
	data[i] ^= 0x20
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := mustNew(t, Config{CacheDir: dir})
	defer s3.Close()
	_, cached, _, err = s3.Submit(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("corrupted cache record was served as a hit")
	}
}

// TestLRUEviction bounds the memory tier.
func TestLRUEviction(t *testing.T) {
	s := mustNew(t, Config{CacheEntries: 2})
	defer s.Close()
	for i := 0; i < 3; i++ {
		j, _, _, err := s.Submit(tinySpec(fmt.Sprintf("evict-%d", i)), 2)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
	}
	if n := s.cache.len(); n != 2 {
		t.Fatalf("cache holds %d entries, want 2", n)
	}
	// Oldest evicted: resubmission recomputes rather than hits.
	_, cached, _, err := s.Submit(tinySpec("evict-0"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("evicted entry still served from cache")
	}
}

// TestHTTPAPI drives the full handler surface over httptest: submit,
// status, events stream, result (JSON and text), repeat-submit cache
// hit, cancel, stats, health.
func TestHTTPAPI(t *testing.T) {
	s := mustNew(t, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	specJSON := `{"name":"http-roundtrip","sim_time_us":1e6,"stations":[{"count":2}]}`
	body := fmt.Sprintf(`{"spec":%s,"reps":3}`, specJSON)

	// Submit.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.ID == "" || !strings.HasPrefix(sub.Key, "sha256:") {
		t.Fatalf("submit: code=%d resp=%+v", resp.StatusCode, sub)
	}

	// Events: stream to terminal state.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content-type %q", ct)
	}
	var events []Event
	dec := json.NewDecoder(resp.Body)
	for {
		var e Event
		if err := dec.Decode(&e); err != nil {
			break
		}
		events = append(events, e)
	}
	resp.Body.Close()
	if len(events) == 0 {
		t.Fatal("no events streamed")
	}
	// The stream may join at any point of the run, so intermediate
	// progress lines are best-effort; the terminal line is not.
	last := events[len(events)-1]
	if last.State != StateDone || last.Done != 3 || last.Total != 3 {
		t.Fatalf("terminal event = %+v", last)
	}

	// Status.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.State != StateDone || st.Scenario != "http-roundtrip" {
		t.Fatalf("status = %+v", st)
	}

	// Result, JSON and text forms.
	getBody := func(url string) (int, []byte, string) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes(), resp.Header.Get("Content-Type")
	}
	code, resJSON, ct := getBody(ts.URL + "/v1/jobs/" + sub.ID + "/result")
	if code != http.StatusOK || ct != "application/json" {
		t.Fatalf("result: code=%d ct=%q", code, ct)
	}
	var res Result
	if err := json.Unmarshal(resJSON, &res); err != nil {
		t.Fatal(err)
	}
	code, text, _ := getBody(ts.URL + "/v1/jobs/" + sub.ID + "/result?format=text")
	if code != http.StatusOK || string(text) != res.Text {
		t.Fatalf("text result: code=%d, text/JSON mismatch", code)
	}

	// Re-submit: cached, same bytes.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub2 SubmitResponse
	json.NewDecoder(resp.Body).Decode(&sub2)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !sub2.Cached {
		t.Fatalf("resubmit: code=%d resp=%+v, want 200 cached", resp.StatusCode, sub2)
	}
	_, resJSON2, _ := getBody(ts.URL + "/v1/jobs/" + sub2.ID + "/result")
	if !bytes.Equal(resJSON, resJSON2) {
		t.Error("cached HTTP result differs byte-wise from computed one")
	}

	// List: both jobs, in order.
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []Status
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 2 || list[0].ID != sub.ID || list[1].ID != sub2.ID {
		t.Fatalf("list = %+v", list)
	}

	// Stats + health.
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if stats.Submissions != 2 || stats.CacheHits != 1 || stats.CacheEntries != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	code, health, _ := getBody(ts.URL + "/healthz")
	if code != http.StatusOK || strings.TrimSpace(string(health)) != "ok" {
		t.Fatalf("healthz: %d %q", code, health)
	}

	// Error paths.
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"GET", "/v1/jobs/nope", "", http.StatusNotFound},
		{"GET", "/v1/jobs/nope/result", "", http.StatusNotFound},
		{"POST", "/v1/jobs", `{"spec":{"name":"x"}}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `not json`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"reps":3}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"spec":` + specJSON + `,"reps":-1}`, http.StatusBadRequest},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: code %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestHTTPCancel cancels a queued job over the API.
func TestHTTPCancel(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	release := make(chan struct{})
	running := make(chan struct{}, 8)
	s.testHoldRun = func(*Job) {
		running <- struct{}{}
		<-release
	}
	defer s.Close()
	defer close(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, _, _, err := s.Submit(tinySpec("blocker"), 2); err != nil {
		t.Fatal(err)
	}
	<-running
	j, _, _, err := s.Submit(tinySpec("to-cancel"), 2)
	if err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID(), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.State != StateCancelled {
		t.Fatalf("after DELETE: %+v", st)
	}
	// Its result endpoint reports Gone.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + j.ID() + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("result of cancelled job: code %d, want 410", resp.StatusCode)
	}
}

// TestParallelRepWorkersBitIdentical pins the determinism guarantee at
// the serving layer: RepWorkers=1 and RepWorkers=4 must serve the same
// bytes.
func TestParallelRepWorkersBitIdentical(t *testing.T) {
	spec := sweepSpec("parallel-identical")
	var results [][]byte
	for _, workers := range []int{1, 4} {
		s := mustNew(t, Config{RepWorkers: workers})
		j, _, _, err := s.Submit(spec, 5)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		data, _, ok := j.Result()
		if !ok {
			t.Fatalf("workers=%d: no result: %+v", workers, j.Status())
		}
		results = append(results, data)
		s.Close()
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Error("serial and parallel rep pools served different bytes")
	}
}

// TestResubmitAfterQueuedCancel: a job cancelled while queued still
// occupies the in-flight slot until a worker dequeues it; a new
// identical submission must NOT coalesce onto that corpse — it must
// get a fresh job that actually runs.
func TestResubmitAfterQueuedCancel(t *testing.T) {
	s := mustNew(t, Config{Workers: 1})
	gate := make(chan struct{})
	running := make(chan struct{}, 16)
	s.testHoldRun = func(*Job) {
		running <- struct{}{}
		<-gate
	}
	defer s.Close()

	if _, _, _, err := s.Submit(tinySpec("blocker"), 2); err != nil {
		t.Fatal(err)
	}
	<-running // worker held; everything below stays queued

	spec := tinySpec("cancel-then-resubmit")
	j1, _, _, err := s.Submit(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	j1.Cancel()
	if st := j1.Status(); st.State != StateCancelled {
		t.Fatalf("after cancel: %s", st.State)
	}

	j2, cached, coalesced, err := s.Submit(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cached || coalesced || j2 == j1 {
		t.Fatalf("resubmission attached to the cancelled job: cached=%v coalesced=%v same=%v",
			cached, coalesced, j2 == j1)
	}
	close(gate)
	waitDone(t, j2)
	if st := j2.Status(); st.State != StateDone {
		t.Fatalf("resubmitted job: %+v", st)
	}
}

// TestJobRegistryBounded: beyond MaxJobs the oldest terminal jobs are
// evicted (404 afterwards), while live jobs are never touched.
func TestJobRegistryBounded(t *testing.T) {
	s := mustNew(t, Config{MaxJobs: 3})
	defer s.Close()

	var ids []string
	for i := 0; i < 5; i++ {
		j, _, _, err := s.Submit(tinySpec(fmt.Sprintf("bounded-%d", i)), 2)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		ids = append(ids, j.ID())
	}
	if got := len(s.Jobs()); got != 3 {
		t.Fatalf("registry holds %d jobs, want 3", got)
	}
	for _, id := range ids[:2] {
		if _, ok := s.Job(id); ok {
			t.Errorf("job %s should have been evicted", id)
		}
	}
	for _, id := range ids[2:] {
		if _, ok := s.Job(id); !ok {
			t.Errorf("job %s evicted too early", id)
		}
	}
	// The evicted jobs' results still come from the cache.
	_, cached, _, err := s.Submit(tinySpec("bounded-0"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Error("evicted job's study fell out of the result cache")
	}
}

// TestCacheByteBudget: the memory tier evicts by bytes as well as by
// entry count, but always retains the newest entry.
func TestCacheByteBudget(t *testing.T) {
	c, err := newCache(100, 1, "", nil) // 1-byte budget: any two entries overflow
	if err != nil {
		t.Fatal(err)
	}
	big := entry{key: "a", json: []byte(`{"x":1}`)}
	c.put(big)
	if c.len() != 1 {
		t.Fatal("newest entry must survive even when oversized")
	}
	c.put(entry{key: "b", json: []byte(`{"y":2}`)})
	if c.len() != 1 {
		t.Fatalf("byte budget not enforced: %d entries resident", c.len())
	}
	if _, _, ok := c.get("b"); !ok {
		t.Error("newest entry evicted instead of oldest")
	}
	if _, _, ok := c.get("a"); ok {
		t.Error("oldest entry survived a blown byte budget")
	}
}
