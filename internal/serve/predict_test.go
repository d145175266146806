package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// modelSpecJSON is a small model-engine spec in wire form.
const modelSpecJSON = `{"name":"predict-me","engine":"model","sim_time_us":1e7,"sweep_n":[2,5],"stations":[{"count":1}]}`

// TestPredictSynchronous pins the /v1/predict contract: the first call
// solves and reports a cache miss, the second is a byte-identical hit,
// and ?format=text returns the CLI rendering embedded in the JSON.
func TestPredictSynchronous(t *testing.T) {
	s := mustNew(t, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"spec":%s}`, modelSpecJSON)
	post := func(path string) (int, []byte, http.Header) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes(), resp.Header
	}

	code, first, hdr := post("/v1/predict")
	if code != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("first predict: code=%d x-cache=%q", code, hdr.Get("X-Cache"))
	}
	var res Result
	if err := json.Unmarshal(first, &res); err != nil {
		t.Fatalf("predict response does not parse: %v", err)
	}
	if res.Report == nil || res.Report.Reps != 1 || len(res.Report.Points) != 2 {
		t.Fatalf("predict report shape: %+v", res.Report)
	}
	if res.Report.Spec.Engine != "model" {
		t.Errorf("predict ran engine %q", res.Report.Spec.Engine)
	}

	code, second, hdr := post("/v1/predict")
	if code != http.StatusOK || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("second predict: code=%d x-cache=%q", code, hdr.Get("X-Cache"))
	}
	if !bytes.Equal(first, second) {
		t.Error("cached prediction differs byte-wise from the computed one")
	}

	code, text, _ := post("/v1/predict?format=text")
	if code != http.StatusOK || string(text) != res.Text {
		t.Fatalf("text form: code=%d, text/JSON mismatch", code)
	}
	if !strings.Contains(string(text), "(n=1, no CI)") {
		t.Errorf("analytic rendering should carry zero-width CIs:\n%s", text)
	}

	counters, _ := s.Stats()
	if counters.Predictions != 3 || counters.PredictCacheHits != 2 {
		t.Errorf("predict counters: %+v", counters)
	}
	if counters.Submissions != 0 {
		t.Errorf("predict must not count as a queue submission: %+v", counters)
	}
}

// TestPredictForcesModelEngine: a sim-engine spec predicts fine (the
// engine is overridden), while a mac-only spec is a 400 naming the
// unsupported feature.
func TestPredictForcesModelEngine(t *testing.T) {
	s := mustNew(t, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	simSpec := `{"name":"sim-spec","engine":"sim","sim_time_us":1e6,"stations":[{"count":3}]}`
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
		strings.NewReader(fmt.Sprintf(`{"spec":%s}`, simSpec)))
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("sim spec prediction: code=%d err=%v", resp.StatusCode, err)
	}
	if res.Report.Spec.Engine != "model" {
		t.Errorf("predict kept engine %q, want model override", res.Report.Spec.Engine)
	}

	macSpec := `{"name":"mac-spec","sim_time_us":1e6,"beacon_period_us":33330,"stations":[{"count":2}]}`
	resp, err = http.Post(ts.URL+"/v1/predict", "application/json",
		strings.NewReader(fmt.Sprintf(`{"spec":%s}`, macSpec)))
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mac-only spec predicted: code=%d body=%s", resp.StatusCode, body.String())
	}
	if !strings.Contains(body.String(), `engine \"model\" cannot express`) {
		t.Errorf("error does not name the unsupported feature: %s", body.String())
	}
}

// TestModelSpecOnJobQueue: a model-engine spec rides the ordinary job
// queue, collapses any reps to one deterministic evaluation, and shares
// its cache entry with /v1/predict — whichever path computed first.
func TestModelSpecOnJobQueue(t *testing.T) {
	s := mustNew(t, Config{})
	defer s.Close()

	spec, err := specFromJSON(modelSpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	j, cached, _, err := s.Submit(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first model submission claimed a cache hit")
	}
	waitDone(t, j)
	jobJSON, _, ok := j.Result()
	if !ok {
		t.Fatalf("model job has no result: %+v", j.Status())
	}
	var res Result
	if err := json.Unmarshal(jobJSON, &res); err != nil {
		t.Fatal(err)
	}
	if res.Report.Reps != 1 {
		t.Errorf("model job reps = %d, want collapsed to 1", res.Report.Reps)
	}

	// A different reps value fingerprints to the same collapsed study.
	j2, cached, _, err := s.Submit(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || j2.Key() != j.Key() {
		t.Errorf("reps=42 model submission: cached=%v key=%s want hit on %s", cached, j2.Key(), j.Key())
	}

	// Predict reads the same entry the queue wrote.
	predJSON, _, cachedPred, err := s.Predict(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !cachedPred {
		t.Error("predict missed the cache entry the job queue wrote")
	}
	if !bytes.Equal(predJSON, jobJSON) {
		t.Error("predict bytes differ from the job-queue bytes for the same spec")
	}
}

// specFromJSON decodes a spec literal for Submit-level tests.
func specFromJSON(s string) (scenario.Spec, error) {
	return scenario.Parse([]byte(s))
}

// widenedSpecJSON exercises both regimes the loaded fixed point added:
// Poisson offered load and mixed CA0–CA3 priority classes.
const widenedSpecJSON = `{"name":"predict-wide","sim_time_us":1e7,"seed":1,"stations":[
	{"count":2,"priority":"CA1","traffic":{"kind":"poisson","mean_interarrival_us":50000}},
	{"count":1,"priority":"CA3","traffic":{"kind":"poisson","mean_interarrival_us":200000}},
	{"count":1,"priority":"CA0","traffic":{"kind":"none"}}]}`

// TestPredictWidenedRegimes: an unsaturated mixed-priority spec —
// inexpressible by the model engine before the loaded fixed point —
// answers through /v1/predict, and the resulting report is
// byte-identical across the predict path, the job queue, the
// standalone CLI path (scenario.Replications) and a campaign grid
// point wrapping the same spec.
func TestPredictWidenedRegimes(t *testing.T) {
	s := mustNew(t, Config{})
	defer s.Close()

	spec, err := specFromJSON(widenedSpecJSON)
	if err != nil {
		t.Fatal(err)
	}
	predJSON, _, cached, err := s.Predict(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first widened predict claimed a cache hit")
	}
	var res Result
	if err := json.Unmarshal(predJSON, &res); err != nil {
		t.Fatal(err)
	}
	if res.Report.Spec.Engine != scenario.EngineModel || res.Report.Reps != 1 {
		t.Fatalf("widened predict: engine=%q reps=%d", res.Report.Spec.Engine, res.Report.Reps)
	}
	byName := map[string]float64{}
	for _, m := range res.Report.Points[0].Metrics {
		byName[m.Name] = m.Summary.Mean
	}
	if byName["throughput_ca3"] <= 0 || byName["throughput_ca1"] <= 0 {
		t.Errorf("per-class split missing: %+v", byName)
	}

	// Job queue: the same spec pinned to the model engine rides the
	// ordinary queue and shares the cache entry predict wrote.
	ms := spec
	ms.Engine = scenario.EngineModel
	j, jobCached, _, err := s.Submit(ms, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !jobCached {
		t.Error("job queue missed the cache entry predict wrote")
	}
	waitDone(t, j)
	jobJSON, _, ok := j.Result()
	if !ok {
		t.Fatalf("widened job has no result: %+v", j.Status())
	}
	if !bytes.Equal(predJSON, jobJSON) {
		t.Error("job-queue bytes differ from predict bytes for the same widened spec")
	}

	// Standalone CLI path: Compile + Replications on the same spec.
	c, err := scenario.Compile(ms)
	if err != nil {
		t.Fatal(err)
	}
	standalone, err := scenario.Replications(c, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	standaloneJSON, err := json.Marshal(standalone)
	if err != nil {
		t.Fatal(err)
	}
	reportJSON, err := json.Marshal(res.Report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reportJSON, standaloneJSON) {
		t.Errorf("predict report differs from the standalone path:\npredict:    %s\nstandalone: %s",
			reportJSON, standaloneJSON)
	}

	// Campaign grid point: a one-point campaign wrapping the spec
	// produces the same report bytes (point 0 keeps the base seed).
	camp := campaign.Spec{
		Name: "wide-wrap",
		Base: ms,
		Axes: []campaign.Axis{{Path: "stations[0].count", Values: []json.RawMessage{json.RawMessage("2")}}},
		Reps: 1,
	}
	cc, err := campaign.Compile(camp)
	if err != nil {
		t.Fatal(err)
	}
	crep, err := campaign.Run(cc, campaign.Opts{})
	if err != nil {
		t.Fatal(err)
	}
	pointJSON, err := json.Marshal(crep.Points[0].Report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pointJSON, standaloneJSON) {
		t.Errorf("campaign point report differs from the standalone path:\npoint:      %s\nstandalone: %s",
			pointJSON, standaloneJSON)
	}
}

// TestNewFailsFastOnUnusableCacheDir: the silent-persistence bug — a
// typo'd or unwritable -cache-dir must abort startup, not run without
// persistence.
func TestNewFailsFastOnUnusableCacheDir(t *testing.T) {
	// A regular file where the directory should be: MkdirAll fails.
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{CacheDir: file}); err == nil {
		t.Error("New accepted a cache dir that is a regular file")
	}
	if _, err := New(Config{CacheDir: filepath.Join(file, "below")}); err == nil {
		t.Error("New accepted a cache dir under a regular file")
	}

	// A read-only directory: creation succeeds, writing must not.
	ro := filepath.Join(t.TempDir(), "ro")
	if err := os.MkdirAll(ro, 0o555); err != nil {
		t.Fatal(err)
	}
	if os.Getuid() != 0 { // root bypasses permission bits
		if _, err := New(Config{CacheDir: ro}); err == nil {
			t.Error("New accepted a read-only cache dir")
		}
	}

	// And the happy path still works, creating nested directories.
	nested := filepath.Join(t.TempDir(), "a", "b")
	s, err := New(Config{CacheDir: nested})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if fi, err := os.Stat(nested); err != nil || !fi.IsDir() {
		t.Errorf("cache dir not created: %v", err)
	}
}

// TestPredictDeclaresContentLength: an answer larger than net/http's
// 2 KiB response buffer still goes out with a Content-Length, not
// chunked, in both its JSON and its text form.
func TestPredictDeclaresContentLength(t *testing.T) {
	s := mustNew(t, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"spec":{"name":"long","engine":"model","sim_time_us":1e7,"sweep_n":[2,3,4,5,6,7,8,9,10],"stations":[{"count":1}]}}`
	for _, path := range []string{"/v1/predict", "/v1/predict?format=text"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: code %d: %s", path, resp.StatusCode, buf.Bytes())
		}
		if buf.Len() <= 2048 {
			t.Fatalf("%s: %d-byte answer is too short to test past the 2 KiB buffer", path, buf.Len())
		}
		if resp.ContentLength != int64(buf.Len()) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: %d bytes arrived with Content-Length %d, Transfer-Encoding %v",
				path, buf.Len(), resp.ContentLength, resp.TransferEncoding)
		}
	}
}
