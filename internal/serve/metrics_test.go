package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// scrape fetches GET /metrics through the public handler and parses
// the exposition.
func scrape(t *testing.T, h http.Handler) map[string]*obs.ParsedFamily {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rr.Code)
	}
	if got := rr.Header().Get("Content-Type"); got != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", got, obs.ContentType)
	}
	fams, err := obs.ParseText(rr.Body)
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	return fams
}

// counterValue reads one counter/gauge sample, failing on absence.
func counterValue(t *testing.T, fams map[string]*obs.ParsedFamily, name string, labels map[string]string) float64 {
	t.Helper()
	f := fams[name]
	if f == nil {
		t.Fatalf("family %s missing from /metrics", name)
	}
	v, ok := f.Value(labels)
	if !ok {
		t.Fatalf("family %s has no sample for %v", name, labels)
	}
	return v
}

// TestMetricsMatchStats pins the compatibility contract: every count
// /v1/stats reports must equal what /metrics exposes, because Stats()
// is derived from the same registry.
func TestMetricsMatchStats(t *testing.T) {
	s := mustNew(t, Config{})
	defer s.Close()
	h := s.Handler()

	spec := tinySpec("metrics-vs-stats")
	j1, _, _, err := s.Submit(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	if _, _, _, err := s.Submit(spec, 2); err != nil { // cache hit
		t.Fatal(err)
	}
	if _, _, _, err := s.Predict(tinySpec("metrics-predict")); err != nil {
		t.Fatal(err)
	}

	c, entries := s.Stats()
	fams := scrape(t, h)

	scenarioSubs := counterValue(t, fams, "plcsrv_submissions_total", map[string]string{"kind": "scenario"})
	campaignSubs := counterValue(t, fams, "plcsrv_submissions_total", map[string]string{"kind": "campaign"})
	if int64(scenarioSubs+campaignSubs) != c.Submissions {
		t.Errorf("submissions: /metrics %v+%v, /v1/stats %d", scenarioSubs, campaignSubs, c.Submissions)
	}
	if got := counterValue(t, fams, "plcsrv_cache_hits_total", nil); int64(got) != c.CacheHits {
		t.Errorf("cache hits: /metrics %v, stats %d", got, c.CacheHits)
	}
	if got := counterValue(t, fams, "plcsrv_predictions_total", nil); int64(got) != c.Predictions {
		t.Errorf("predictions: /metrics %v, stats %d", got, c.Predictions)
	}
	done := counterValue(t, fams, "plcsrv_jobs_finished_total", map[string]string{"kind": "scenario", "state": "done"})
	if int64(done) != c.Completed {
		t.Errorf("completed: /metrics %v, stats %d", done, c.Completed)
	}
	if got := counterValue(t, fams, "plcsrv_cache_entries", nil); int(got) != entries {
		t.Errorf("cache entries: /metrics %v, stats %d", got, entries)
	}

	// The executed job must have landed in the queue-wait, service and
	// e2e histograms.
	for _, name := range []string{"plcsrv_queue_wait_seconds", "plcsrv_job_service_seconds", "plcsrv_job_e2e_seconds"} {
		f := fams[name]
		if f == nil {
			t.Fatalf("family %s missing", name)
		}
		kind := ""
		if name != "plcsrv_queue_wait_seconds" {
			kind = "scenario"
		}
		var count float64
		for _, s := range f.Samples {
			if s.Name == name+"_count" && s.Labels["kind"] == kind {
				count = s.Value
			}
		}
		if count == 0 {
			t.Errorf("%s: no observations after a completed job", name)
		}
	}

	// Rejections must not count as submissions, and both surfaces must
	// agree on it. Fill the queue (worker held) then overflow it.
	s2 := mustNew(t, Config{QueueDepth: 1, Workers: 1})
	release := make(chan struct{})
	running := make(chan struct{}, 8)
	s2.testHoldRun = func(*Job) {
		running <- struct{}{}
		<-release
	}
	defer s2.Close()
	defer close(release)
	if _, _, _, err := s2.Submit(tinySpec("m-run"), 1); err != nil {
		t.Fatal(err)
	}
	<-running // worker held; the queue is free again
	if _, _, _, err := s2.Submit(tinySpec("m-q"), 1); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = s2.Submit(tinySpec("m-reject"), 1)
	if err != ErrQueueFull {
		t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
	}
	c2, _ := s2.Stats()
	fams2 := scrape(t, s2.Handler())
	if got := counterValue(t, fams2, "plcsrv_rejected_total", nil); int64(got) != 1 || c2.Rejected != 1 {
		t.Errorf("rejected: /metrics %v, stats %d, want 1", got, c2.Rejected)
	}
	if c2.Submissions != 2 {
		t.Errorf("submissions after reject = %d, want 2 (rejections never counted)", c2.Submissions)
	}
}

// TestMetricsMonotoneAcrossScrapes pins monotonicity of the counter
// families the CI smoke step also checks: a second scrape after more
// traffic must never show a smaller value.
func TestMetricsMonotoneAcrossScrapes(t *testing.T) {
	s := mustNew(t, Config{})
	defer s.Close()
	h := s.Handler()

	j, _, _, err := s.Submit(tinySpec("mono-1"), 1)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	before := scrape(t, h)

	j2, _, _, err := s.Submit(tinySpec("mono-2"), 1)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	after := scrape(t, h)

	for _, name := range []string{"plcsrv_submissions_total", "plcsrv_jobs_finished_total", "plcsrv_cache_hits_total", "plcsrv_rejected_total"} {
		bf, af := before[name], after[name]
		if bf == nil || af == nil {
			t.Fatalf("family %s missing", name)
		}
		for _, sample := range bf.Samples {
			v, ok := af.Value(sample.Labels)
			if !ok {
				t.Errorf("%s%v disappeared between scrapes", name, sample.Labels)
				continue
			}
			if v < sample.Value {
				t.Errorf("%s%v went backwards: %v -> %v", name, sample.Labels, sample.Value, v)
			}
		}
	}
}

// TestTraceTimeline pins the per-job trace: stage names in lifecycle
// order on the status endpoint, the same trace on the terminal event
// line, and a cache-hit answer tracing accepted → done without ever
// queueing.
func TestTraceTimeline(t *testing.T) {
	s := mustNew(t, Config{})
	defer s.Close()
	h := s.Handler()

	spec := tinySpec("trace")
	j, _, _, err := s.Submit(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/jobs/"+j.ID(), nil))
	var st Status
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	assertStages(t, st.Trace, "accepted", "queued", "running", "first_batch", "computed", "done")
	for i, ts := range st.Trace {
		if ts.DeltaMS < 0 || ts.ElapsedMS < 0 {
			t.Errorf("stage %d has negative duration: %+v", i, ts)
		}
		if i > 0 && ts.ElapsedMS < st.Trace[i-1].ElapsedMS {
			t.Errorf("elapsed not monotone at stage %d: %+v", i, st.Trace)
		}
	}

	// The terminal NDJSON event line carries the same trace.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/jobs/"+j.ID()+"/events", nil))
	lines := bytes.Split(bytes.TrimSpace(rr.Body.Bytes()), []byte("\n"))
	var last Event
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatal(err)
	}
	if !last.State.Terminal() || len(last.Trace) != len(st.Trace) {
		t.Errorf("terminal event trace has %d stages, status has %d", len(last.Trace), len(st.Trace))
	}

	// Cache hit: accepted straight to done, never queued.
	j2, cached, _, err := s.Submit(spec, 2)
	if err != nil || !cached {
		t.Fatalf("resubmit: cached=%v err=%v", cached, err)
	}
	assertStages(t, j2.Status().Trace, "accepted", "done")
}

func assertStages(t *testing.T, trace []TraceStage, want ...string) {
	t.Helper()
	got := make([]string, len(trace))
	for i, ts := range trace {
		got[i] = ts.Stage
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("trace stages = %v, want %v", got, want)
	}
}

// TestMetricsDeterminismNeutral pins the tentpole's safety property:
// with metrics always on, repeated runs of the same spec still produce
// byte-identical result payloads, and scraping /metrics between them
// perturbs nothing.
func TestMetricsDeterminismNeutral(t *testing.T) {
	s := mustNew(t, Config{})
	defer s.Close()
	h := s.Handler()

	run := func(name string) []byte {
		t.Helper()
		// Distinct server-side job each time; same spec bytes.
		j, _, _, err := s.Submit(tinySpec("determinism-neutral"), 3)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		res, _, ok := j.Result()
		if !ok {
			t.Fatalf("%s: no result", name)
		}
		return res
	}
	first := run("first")
	scrape(t, h) // a scrape between runs must not perturb anything
	second := run("second")
	if !bytes.Equal(first, second) {
		t.Fatal("result bytes differ with metrics enabled: instrumentation leaked into the payload")
	}
	if bytes.Contains(first, []byte("\"trace\"")) {
		t.Fatal("result payload contains a trace field: operational metadata leaked into results")
	}
}
