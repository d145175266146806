package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/scenario"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed: percentile sorts
	}
	v, beyond, err := percentile(xs, 0.99)
	if err != nil || v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v, %d beyond, %v; want 990, 10 beyond", v, beyond, err)
	}
	if _, beyond, err := percentile(xs[:999], 0.99); !errors.Is(err, errFewSamples) || beyond != 9 {
		t.Fatalf("p99 of 999 samples: %d beyond, err %v; want refusal with 9 beyond", beyond, err)
	}
	if v, _, err := percentile([]float64{3, 1, 2, 5, 4, 9, 8, 7, 6, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}, 0.5); err != nil || v != 11 {
		t.Fatalf("p50 of 1..21 = %v, %v; want 11", v, err)
	}
	if _, _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples did not fail")
	}
}

func TestSummarizeReportsSampleCount(t *testing.T) {
	var tl tally
	for i := 0; i < 2000; i++ {
		tl.record(int64(i), float64(i%100)+1, nil)
	}
	s, err := tl.summarize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Samples != 2000 || s.Beyond99 != 20 || s.P50 != 50 || s.P99 != 99 {
		t.Fatalf("summary = %+v; want 2000 samples, 20 beyond, p50 50, p99 99", s)
	}
}

func TestFailuresMissEveryLatencyLimit(t *testing.T) {
	var tl tally
	for i := 0; i < 1000; i++ {
		var err error
		if i%50 == 0 { // 2% fail
			err = &httpStatusError{"POST", "/v1/predict", http.StatusServiceUnavailable, "queue full"}
		}
		tl.record(int64(i), 1, err)
	}
	if tl.attempted != 1000 || tl.failed != 20 || tl.completed() != 980 {
		t.Fatalf("attempted %d failed %d completed %d; want 1000, 20, 980", tl.attempted, tl.failed, tl.completed())
	}
	s, err := tl.summarize()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(s.P99, 1) || s.P50 != 1 {
		t.Fatalf("p50 %v p99 %v; want 1 and +Inf (2%% failed)", s.P50, s.P99)
	}
	if clampInf(s.P99) != math.MaxFloat64 {
		t.Fatal("an infinite percentile must report as the largest float")
	}

	// A check that rejects completed outputs turns them into failures.
	tl.failOps(map[int64]bool{1: true, 2: true, 50: true}) // 50 already failed
	if tl.failed != 22 {
		t.Fatalf("after failOps failed = %d, want 22", tl.failed)
	}
}

func TestStatusErrorsCountAsFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"serve: job queue full"}`))
	}))
	defer srv.Close()
	h := &harness{base: srv.URL, client: srv.Client()}
	_, _, err := h.do("POST", "/v1/jobs", []byte(`{}`), http.StatusAccepted)
	var se *httpStatusError
	if !errors.As(err, &se) || se.status != http.StatusServiceUnavailable {
		t.Fatalf("do = %v; want an httpStatusError with 503", err)
	}
}

// failingWorkload fails every third operation.
type failingWorkload struct{}

func (failingWorkload) setup(*tracer) ([]time.Duration, error) { return nil, nil }
func (failingWorkload) op(_ int, tr *tracer, i int64) (time.Duration, error) {
	sp := tr.begin(i, 0, "op")
	time.Sleep(100 * time.Microsecond)
	sp.end()
	if i%3 == 0 {
		return time.Millisecond, errors.New("refused")
	}
	return time.Millisecond, nil
}
func (failingWorkload) check() (map[int64]bool, error)             { return nil, nil }
func (failingWorkload) ledger(*tracer, int64) (layerValues, error) { return nil, nil }
func (failingWorkload) server() *harness                           { return nil }
func (failingWorkload) close()                                     {}

func TestLoopAccountsEveryOperation(t *testing.T) {
	res := runLoop(failingWorkload{}, time.Now(), 2*traceSlice, true)
	all := res.modes[0]
	all.merge(&res.modes[1])
	if int64(all.attempted) != res.ran {
		t.Fatalf("attempted %d, ran %d", all.attempted, res.ran)
	}
	if want := int((res.ran + 2) / 3); all.failed != want {
		t.Fatalf("failed %d, want %d of %d", all.failed, want, res.ran)
	}
	if res.modes[0].attempted == 0 || res.modes[1].attempted == 0 || res.slices != [2]int{1, 1} {
		t.Fatalf("alternating slices not both used: %d untraced, %d traced, slices %v",
			res.modes[0].attempted, res.modes[1].attempted, res.slices)
	}
	if len(res.spans) != res.modes[1].attempted {
		t.Fatalf("%d spans for %d traced operations", len(res.spans), res.modes[1].attempted)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},   // overlaps a: union 10–50
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},  // sticks out: counts 90–100
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 20},  // grandchild: a's, not root's
		{ID: 6, Parent: 0, Name: "other", Start: 0, End: 7}, // no children
	}
	selfTimes(spans)
	want := map[string]int64{"root": 100 - 40 - 10, "a": 30 - 5, "b": 20, "c": 30, "a1": 5, "other": 7}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("self(%s) = %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.begin(1, 0, "x")
	sp.endTag("hit", 1)
	tr.add(1, 0, "y", time.Now(), time.Now())
	if sp.id() != 0 {
		t.Fatal("untraced span has an ID")
	}
}

func TestInputsAreSeeded(t *testing.T) {
	a, b := newPredictGen(7, 50), newPredictGen(7, 50)
	c := newPredictGen(8, 50)
	same, differ := true, false
	for i := int64(0); i < 200; i++ {
		x, y, z := a.op(streamOps, i), b.op(streamOps, i), c.op(streamOps, i)
		same = same && bytes.Equal(x.body, y.body)
		differ = differ || !bytes.Equal(x.body, z.body)
		if !bytes.Equal(jobBody(7, streamOps, i), jobBody(7, streamOps, i)) ||
			!bytes.Equal(campaignBody(7, streamOps, i), campaignBody(7, streamOps, i)) {
			t.Fatal("job or campaign input is not a function of (seed, index)")
		}
	}
	if !same || !differ {
		t.Fatalf("same seed same inputs: %v; other seed other inputs: %v", same, differ)
	}
}

// Every generated operation must succeed: a workload on which the
// program legitimately fails would measure errors, not speed.
func TestGeneratedInputsAreValid(t *testing.T) {
	g := newPredictGen(3, 100)
	for i := int64(0); i < 600; i++ {
		op := g.op(streamOps, i)
		if _, err := expectPredict(op.body); err != nil {
			t.Fatalf("predict op %d (%s): %v", i, op.body, err)
		}
	}
	for i := int64(0); i < 30; i++ {
		spec, err := specOf(jobBody(3, streamOps, i))
		if err == nil {
			_, err = scenario.Compile(spec)
		}
		if err != nil {
			t.Fatalf("job op %d: %v", i, err)
		}
	}
	for i := int64(0); i < 6; i++ {
		if err := decomposeCampaign(nil, i, campaignBody(3, streamProbe, i), 2); err != nil {
			t.Fatalf("campaign probe %d: %v", i, err)
		}
	}
}

// The metric catalogs the benchmark prints must be exactly the ones
// BENCHMARK.json declares, with the same units, in the same order, and
// every workload it names must exist.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found next to perfbench:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, err := newWorkload(w.Name, 1, time.Second, t.TempDir()); err != nil {
			t.Error(err)
		}
	}
	for _, c := range []struct {
		name string
		json []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", b.EndToEnd, e2eCatalog}, {"per_layer", b.PerLayer, layerCatalog}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, perfbench %d", c.name, len(c.json), len(c.code))
		}
		for k := range c.json {
			if c.json[k].Name != c.code[k].name || c.json[k].Unit != c.code[k].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %v, perfbench %v", c.name, k, c.json[k], c.code[k])
			}
		}
	}
}

// The result store must hand back every result byte for byte, in the
// order added, also when results fill a chunk or outgrow one.
func TestResultStoreKeepsEveryResult(t *testing.T) {
	var s resultStore
	var want [][]byte
	for k, n := range []int{10, resultChunk - 5, 10, 2 * resultChunk, 0, 7} {
		data := bytes.Repeat([]byte{byte('a' + k)}, n)
		want = append(want, data)
		s.add(int64(100+k), data, 4)
	}
	k := 0
	s.each(func(i int64, data []byte) {
		if i != int64(100+k) || !bytes.Equal(data, want[k]) {
			t.Errorf("result %d: got id %d, %d bytes; want id %d, %d bytes", k, i, len(data), 100+k, len(want[k]))
		}
		k++
	})
	if k != len(want) {
		t.Fatalf("visited %d results, want %d", k, len(want))
	}
}
