// Package obs is the repository's dependency-free observability layer:
// a metrics registry of atomic counters, gauges and fixed-bucket
// histograms with a lock-free, allocation-free hot path, rendered in
// the Prometheus text exposition format (text/plain; version=0.0.4),
// plus the sanctioned wall-clock accessors (Now, Since, Timeline) that
// result-producing packages route operational timing through.
//
// Two invariants shape the design:
//
//   - Determinism neutrality. Nothing in this package ever feeds a
//     result fingerprint or a rendered report: instrumentation observes
//     computation, it never participates in it. The plclint detrand
//     analyzer enforces the split — internal/obs is the one package
//     besides internal/rng allowed to touch nondeterministic inputs
//     (here: the wall clock), and every other instrumented package
//     reads time only through it.
//
//   - A free hot path. Counter.Inc/Add, Gauge.Set/Add and
//     Histogram.Observe are single atomic operations (the histogram
//     adds a CAS loop for its float sum) with zero allocations, pinned
//     by the //plclint:noalloc escape gate and an AllocsPerRun test,
//     so instrumenting a serving path costs nanoseconds, not a lock.
//
// Registration (NewCounter, NewHistogramVec, …) is wiring-time work and
// panics on programmer error — duplicate or malformed names — exactly
// like http.ServeMux.Handle.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric families, in exposition TYPE terms.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Registry holds metric families and renders them. The zero value is
// not usable; create with NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// family is one named metric family: a fixed type, help text and label
// schema, plus its children (one per label-value combination).
type family struct {
	name   string
	help   string
	typ    string
	labels []string  // label names; empty for unlabeled families
	bounds []float64 // histogram bucket upper bounds (sorted, +Inf implicit)
	fn     func() float64

	mu       sync.Mutex
	children map[string]renderable // key: childKey(label values)
	keys     []string              // child keys, kept sorted for rendering
}

// renderable is the per-child rendering hook each metric type provides.
type renderable interface {
	render(b []byte, name, labels string) []byte
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// register validates and installs a family, panicking on wiring errors:
// a duplicate name, a malformed name or label, unsorted histogram
// buckets. Metric registration happens once at construction time, so a
// panic here is a programmer error surfaced at startup, not a runtime
// hazard.
func (r *Registry) register(f *family) *family {
	if !validName(f.name, true) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !validName(l, false) {
			panic(fmt.Sprintf("obs: metric %s: invalid label name %q", f.name, l))
		}
	}
	for i := 1; i < len(f.bounds); i++ {
		if !(f.bounds[i] > f.bounds[i-1]) {
			panic(fmt.Sprintf("obs: metric %s: histogram bounds not strictly increasing", f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[f.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric name %q", f.name))
	}
	f.children = make(map[string]renderable)
	r.fams[f.name] = f
	return f
}

// validName checks a metric or label name against the exposition
// grammar (metric names may additionally contain colons).
func validName(s string, metric bool) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c == ':' && metric:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// child resolves (creating on first use) the family's child for the
// given label values. Lookup takes the family mutex — callers resolve
// children once at wiring time and hold the returned handle; the
// handle's own operations are lock-free.
func (f *family) child(values []string, make func(labels string) renderable) renderable {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s: got %d label values for %d labels", f.name, len(values), len(f.labels)))
	}
	key := childKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := make(renderLabels(f.labels, values))
	f.children[key] = c
	f.keys = append(f.keys, key)
	sort.Strings(f.keys)
	return c
}

// childKey joins label values into a map key that cannot collide and
// sorts like the value vectors: a NUL inside a value becomes NUL 0x01,
// and values are separated by NUL NUL. (A plain NUL join would merge
// ("a", "a\x00a") and ("a\x00a", "a") into one child.)
func childKey(values []string) string {
	var b strings.Builder
	for i, v := range values {
		if i > 0 {
			b.WriteString("\x00\x00")
		}
		b.WriteString(strings.ReplaceAll(v, "\x00", "\x00\x01"))
	}
	return b.String()
}

// renderLabels renders `{name="value",...}` with exposition escaping,
// or "" for an unlabeled child.
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes HELP text per the exposition format.
func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// A Counter is a monotonically increasing count. All methods are safe
// for concurrent use and allocation-free.
type Counter struct {
	labels string
	v      atomic.Uint64
}

// Inc adds one.
//
//plclint:noalloc
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// NewCounter registers an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(&family{name: name, help: help, typ: typeCounter})
	return f.counter(nil)
}

// A CounterVec is a counter family with labels; resolve children with
// With at wiring time and hold the handles.
type CounterVec struct{ f *family }

// NewCounterVec registers a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.register(&family{name: name, help: help, typ: typeCounter, labels: labelNames})}
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.counter(values) }

func (f *family) counter(values []string) *Counter {
	return f.child(values, func(labels string) renderable { return &Counter{labels: labels} }).(*Counter)
}

// NewCounterFunc registers a counter whose value is read from fn at
// render time — the view over a total another subsystem already tracks
// (journal write failures, say), so the registry exposes it without
// becoming a second source of truth. fn must be monotone and safe for
// concurrent use.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: typeCounter, fn: fn})
}

// NewGaugeFunc registers a gauge whose value is read from fn at render
// time (queue depth, cache occupancy). fn must be safe for concurrent
// use.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: typeGauge, fn: fn})
}

// A Histogram counts observations into fixed buckets. Observe is
// lock-free (atomic bucket and count increments plus a CAS loop for
// the float sum) and allocation-free; the bucket scan is linear, which
// beats binary search at the ≲20-bucket sizes latency histograms use.
type Histogram struct {
	labels  string
	bounds  []float64
	buckets []atomic.Uint64 // one per bound, plus the +Inf overflow at the end
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits
}

// Observe records one value.
//
//plclint:noalloc
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// NewHistogram registers an unlabeled histogram with the given bucket
// upper bounds (strictly increasing; +Inf is implicit).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	f := r.register(&family{name: name, help: help, typ: typeHistogram, bounds: append([]float64(nil), bounds...)})
	return f.histogram(nil)
}

// A HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// NewHistogramVec registers a labeled histogram family.
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{r.register(&family{
		name: name, help: help, typ: typeHistogram,
		bounds: append([]float64(nil), bounds...), labels: labelNames,
	})}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.histogram(values) }

func (f *family) histogram(values []string) *Histogram {
	return f.child(values, func(labels string) renderable {
		return &Histogram{labels: labels, bounds: f.bounds, buckets: make([]atomic.Uint64, len(f.bounds)+1)}
	}).(*Histogram)
}

// LatencyBuckets returns the default duration buckets (seconds) for
// service-time and latency histograms: 1 ms to 5 min, roughly
// geometric — wide enough for a cached hit and an adaptive campaign
// alike.
func LatencyBuckets() []float64 {
	return []float64{
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
		1, 2.5, 5, 10, 30, 60, 120, 300,
	}
}
