package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// testRegistry builds a registry exercising every family kind, label
// shape and escaping edge the renderer supports.
func testRegistry() (*Registry, *Counter, *Histogram) {
	r := NewRegistry()
	c := r.NewCounter("test_requests_total", "Requests handled.")
	for i := 0; i < 42; i++ {
		c.Inc()
	}
	cv := r.NewCounterVec("test_outcomes_total", "Outcomes by kind and state.", "kind", "state")
	for i := 0; i < 7; i++ {
		cv.With("scenario", "done").Inc()
	}
	cv.With("campaign", "failed").Inc()
	cv.With("scenario", `we"ird\val`+"\nue").Inc() // escaping edge
	r.NewGaugeFunc("test_queue_depth", "Jobs waiting.", func() float64 { return 3 })
	r.NewGaugeFunc("test_cache_bytes", "Disk cache bytes.", func() float64 { return 1 << 30 })
	r.NewGaugeFunc("test_live_records", "Live journal records.", func() float64 { return 12 })
	r.NewCounterFunc("test_write_failures_total", "Dropped writes.", func() float64 { return 2 })
	h := r.NewHistogram("test_latency_seconds", "E2E latency.\nSecond help line.", LatencyBuckets())
	for _, v := range []float64{0.0005, 0.003, 0.003, 0.07, 2, 1000} {
		h.Observe(v)
	}
	hv := r.NewHistogramVec("test_service_seconds", "Service time by kind.", []float64{0.01, 0.1, 1}, "kind")
	hv.With("scenario").Observe(0.05)
	hv.With("campaign").Observe(5)
	return r, c, h
}

// buckets extracts a parsed histogram family's cumulative buckets for
// one label set (ignoring le), sorted by bound with +Inf last, plus
// its _sum and _count. match selects the series: every non-le label
// must equal the corresponding entry (nil matches the unlabeled
// child).
func buckets(f *ParsedFamily, match map[string]string) (bounds []float64, cum []uint64, sum float64, count uint64) {
	type bkt struct {
		le float64
		v  uint64
	}
	var bkts []bkt
	for _, s := range f.Samples {
		labels := map[string]string{}
		for k, v := range s.Labels {
			if k != "le" {
				labels[k] = v
			}
		}
		if !labelsMatch(labels, match) {
			continue
		}
		switch s.Name {
		case f.Name + "_sum":
			sum = s.Value
		case f.Name + "_count":
			count = uint64(s.Value)
		case f.Name + "_bucket":
			le, err := parseValue(s.Labels["le"])
			if err != nil {
				continue
			}
			bkts = append(bkts, bkt{le, uint64(s.Value)})
		}
	}
	sort.Slice(bkts, func(i, j int) bool { return bkts[i].le < bkts[j].le })
	for _, b := range bkts {
		bounds = append(bounds, b.le)
		cum = append(cum, b.v)
	}
	return bounds, cum, sum, count
}

// scrapeHistogram renders r and returns the unlabeled histogram name's
// _sum and _count as a scrape sees them.
func scrapeHistogram(t *testing.T, r *Registry, name string) (sum float64, count uint64) {
	t.Helper()
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	f := fams[name]
	if f == nil {
		t.Fatalf("family %s missing", name)
	}
	_, _, sum, count = buckets(f, nil)
	return sum, count
}

// TestExpositionConformance is the format conformance gate: everything
// the registry renders must re-parse, and every family must satisfy
// the text-exposition invariants — exactly one HELP and TYPE line,
// histogram buckets cumulative and monotone ending in +Inf, _count
// equal to the +Inf bucket, and _sum consistent with the observations.
func TestExpositionConformance(t *testing.T) {
	r, _, _ := testRegistry()
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	fams, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("rendered exposition does not parse: %v\n%s", err, text)
	}
	want := map[string]string{
		"test_requests_total":       "counter",
		"test_outcomes_total":       "counter",
		"test_queue_depth":          "gauge",
		"test_cache_bytes":          "gauge",
		"test_live_records":         "gauge",
		"test_write_failures_total": "counter",
		"test_latency_seconds":      "histogram",
		"test_service_seconds":      "histogram",
	}
	if len(fams) != len(want) {
		t.Errorf("parsed %d families, want %d", len(fams), len(want))
	}
	for name, typ := range want {
		f := fams[name]
		if f == nil {
			t.Errorf("family %s missing", name)
			continue
		}
		if f.Type != typ {
			t.Errorf("family %s: type %q, want %q", name, f.Type, typ)
		}
		if f.Help == "" {
			t.Errorf("family %s: no HELP line", name)
		}
		if len(f.Samples) == 0 {
			t.Errorf("family %s: no samples", name)
		}
		if f.Type == "histogram" {
			checkHistogram(t, f)
		}
	}

	// HELP/TYPE exactly once per family: the parser already rejects
	// duplicates, so surviving ParseText plus one count check pins it.
	for name := range want {
		if got := strings.Count(text, "# TYPE "+name+" "); got != 1 {
			t.Errorf("family %s: %d TYPE lines, want 1", name, got)
		}
		if got := strings.Count(text, "# HELP "+name+" "); got != 1 {
			t.Errorf("family %s: %d HELP lines, want 1", name, got)
		}
	}

	// Specific values survive the round trip.
	if v, ok := fams["test_requests_total"].Value(nil); !ok || v != 42 {
		t.Errorf("test_requests_total = %v, %v; want 42", v, ok)
	}
	if v, ok := fams["test_outcomes_total"].Value(map[string]string{"kind": "scenario", "state": "done"}); !ok || v != 7 {
		t.Errorf("outcomes{scenario,done} = %v, %v; want 7", v, ok)
	}
	if v, ok := fams["test_outcomes_total"].Value(map[string]string{"kind": "scenario", "state": `we"ird\val` + "\nue"}); !ok || v != 1 {
		t.Errorf("escaped label value did not round-trip: %v, %v", v, ok)
	}
	if v, ok := fams["test_cache_bytes"].Value(nil); !ok || v != 1<<30 {
		t.Errorf("test_cache_bytes = %v, %v; want 2^30", v, ok)
	}

	// Deterministic rendering: a second scrape of the unchanged
	// registry is byte-identical.
	var sb2 strings.Builder
	if err := r.Render(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != text {
		t.Error("two renders of an idle registry differ")
	}
}

// checkHistogram asserts the histogram family invariants for every
// label set present in the family.
func checkHistogram(t *testing.T, f *ParsedFamily) {
	t.Helper()
	// Collect the distinct non-le label sets.
	seen := map[string]map[string]string{}
	for _, s := range f.Samples {
		key, match := "", map[string]string{}
		for k, v := range s.Labels {
			if k == "le" {
				continue
			}
			match[k] = v
		}
		for k, v := range match {
			key += k + "=" + v + ";"
		}
		seen[key] = match
	}
	for _, match := range seen {
		bounds, cum, sum, count := buckets(f, match)
		if len(bounds) == 0 {
			t.Errorf("%s%v: no buckets", f.Name, match)
			continue
		}
		if !math.IsInf(bounds[len(bounds)-1], 1) {
			t.Errorf("%s%v: last bucket le=%v, want +Inf", f.Name, match, bounds[len(bounds)-1])
		}
		for i := 1; i < len(cum); i++ {
			if cum[i] < cum[i-1] {
				t.Errorf("%s%v: bucket counts not monotone at %d: %v", f.Name, match, i, cum)
			}
		}
		if cum[len(cum)-1] != count {
			t.Errorf("%s%v: _count = %d, +Inf bucket = %d", f.Name, match, count, cum[len(cum)-1])
		}
		if count > 0 && (math.IsNaN(sum) || sum < 0 && f.Name != "negative") {
			t.Errorf("%s%v: implausible _sum %v", f.Name, match, sum)
		}
	}
}

// TestHistogramSum pins _sum exactly against known observations.
func TestHistogramSum(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("s", "sum check", []float64{1})
	want := 0.0
	for _, v := range []float64{0.25, 0.5, 3} {
		h.Observe(v)
		want += v
	}
	sum, count := scrapeHistogram(t, r, "s")
	if sum != want {
		t.Errorf("_sum = %v, want %v", sum, want)
	}
	if count != 3 {
		t.Errorf("_count = %d, want 3", count)
	}
}

// TestConcurrentNoLostIncrements hammers one counter and one histogram from many goroutines and asserts exact totals — under
// -race this doubles as the data-race gate for the whole hot path.
func TestConcurrentNoLostIncrements(t *testing.T) {
	const goroutines, perG = 16, 5000
	r := NewRegistry()
	c := r.NewCounter("c_total", "c")
	h := r.NewHistogram("h", "h", []float64{0.5, 1.5, 2.5})
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				c.Inc()
				h.Observe(float64(k % 4)) // buckets 0.5,1.5,2.5,+Inf each hit perG/4 times
			}
		}(i)
	}
	wg.Wait()
	const total = goroutines * perG
	if c.Value() != total {
		t.Errorf("counter = %d, want %d (lost increments)", c.Value(), total)
	}
	sum, count := scrapeHistogram(t, r, "h")
	if count != total {
		t.Errorf("histogram count = %d, want %d", count, total)
	}
	wantSum := float64(goroutines) * (perG / 4) * (0 + 1 + 2 + 3)
	if sum != wantSum {
		t.Errorf("histogram sum = %v, want %v (lost CAS update)", sum, wantSum)
	}
	for i, n := range h.BucketCounts() {
		if n != total/4 {
			t.Errorf("bucket %d = %d, want %d", i, n, total/4)
		}
	}
}

// TestHotPathAllocationFree is the dynamic twin of the
// //plclint:noalloc escape gate: the instrument operations must not
// allocate, or instrumenting the serving path would put pressure on
// the GC exactly when the server is busiest.
func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "c")
	h := r.NewHistogram("h", "h", LatencyBuckets())
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.017) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f/op, want 0", n)
	}
}

// TestRegistrationPanics pins the wiring-time error contract.
func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.NewCounter("dup_total", "first")
	mustPanic("duplicate name", func() { r.NewGaugeFunc("dup_total", "second", func() float64 { return 0 }) })
	mustPanic("bad metric name", func() { r.NewCounter("0bad", "x") })
	mustPanic("bad label name", func() { r.NewCounterVec("v_total", "x", "le gal") })
	mustPanic("unsorted buckets", func() { r.NewHistogram("h", "x", []float64{2, 1}) })
	v := r.NewCounterVec("arity_total", "x", "a", "b")
	mustPanic("label arity", func() { v.With("only-one") })
}

// TestHistogramBucketBoundaryInclusive pins the exposition semantics:
// le is inclusive, so an observation exactly on a bound lands in that
// bound's bucket.
func TestHistogramBucketBoundaryInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h", "h", []float64{1, 2})
	h.Observe(1) // exactly on the first bound
	if got := h.BucketCounts(); got[0] != 1 || got[1] != 0 || got[2] != 0 {
		t.Errorf("buckets after Observe(1) = %v, want [1 0 0]", got)
	}
}

// TestTimeline covers marks, ordering, durations and the length cap.
func TestTimeline(t *testing.T) {
	var tl Timeline
	tl.Mark("accepted")
	tl.Mark("running")
	time.Sleep(time.Millisecond)
	tl.Mark("done")
	st := tl.Stages()
	if len(st) != 3 || st[0].Name != "accepted" || st[2].Name != "done" {
		t.Fatalf("stages = %+v", st)
	}
	for i := 1; i < len(st); i++ {
		if st[i].At.Before(st[i-1].At) {
			t.Errorf("stage %d out of order", i)
		}
	}
	if d, ok := tl.Between("running", "done"); !ok || d < time.Millisecond {
		t.Errorf("Between(running, done) = %v, %v", d, ok)
	}
	if _, ok := tl.Between("done", "running"); ok {
		t.Error("Between matched out-of-order stages")
	}
	var capped Timeline
	for i := 0; i < timelineCap+10; i++ {
		capped.Mark("x")
	}
	if n := len(capped.Stages()); n != timelineCap {
		t.Errorf("capped timeline has %d stages, want %d", n, timelineCap)
	}
}
