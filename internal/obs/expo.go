package obs

import (
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
)

// ContentType is the exposition format version the renderer emits.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Render writes every family in the Prometheus text exposition format:
// families sorted by name, each with one `# HELP` and one `# TYPE`
// line, children sorted by label values, histograms as cumulative
// `_bucket{le=…}` series ending in `+Inf` plus `_sum` and `_count`.
// The rendering order is deterministic, so two scrapes of an idle
// registry are byte-identical.
func (r *Registry) Render(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	var b []byte
	for _, f := range fams {
		b = f.render(b[:0])
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns the GET /metrics endpoint over this registry.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		r.Render(w) // the only write error is a gone client; nothing to do
	})
}

// render appends one family's exposition block.
func (f *family) render(b []byte) []byte {
	b = append(b, "# HELP "...)
	b = append(b, f.name...)
	b = append(b, ' ')
	b = append(b, escapeHelp(f.help)...)
	b = append(b, '\n')
	b = append(b, "# TYPE "...)
	b = append(b, f.name...)
	b = append(b, ' ')
	b = append(b, f.typ...)
	b = append(b, '\n')

	if f.fn != nil {
		b = append(b, f.name...)
		b = append(b, ' ')
		b = appendFloat(b, f.fn())
		return append(b, '\n')
	}

	f.mu.Lock()
	children := make([]renderable, 0, len(f.keys))
	for _, key := range f.keys {
		children = append(children, f.children[key])
	}
	f.mu.Unlock()
	for _, c := range children {
		b = c.render(b, f.name, "")
	}
	return b
}

func (c *Counter) render(b []byte, name, _ string) []byte {
	b = append(b, name...)
	b = append(b, c.labels...)
	b = append(b, ' ')
	b = strconv.AppendUint(b, c.v.Load(), 10)
	return append(b, '\n')
}

// render emits the histogram's cumulative bucket series. A concurrent
// Observe between the bucket loads and the count load can make the
// snapshot momentarily inconsistent (count one ahead of the +Inf
// bucket); rendering therefore derives _count from the bucket sum, so
// every emitted histogram satisfies the format's invariants exactly.
func (h *Histogram) render(b []byte, name, _ string) []byte {
	var cum uint64
	appendSeries := func(b []byte, suffix, labels string, v uint64) []byte {
		b = append(b, name...)
		b = append(b, suffix...)
		b = append(b, labels...)
		b = append(b, ' ')
		b = strconv.AppendUint(b, v, 10)
		return append(b, '\n')
	}
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		b = appendSeries(b, "_bucket", bucketLabels(h.labels, le), cum)
	}
	b = append(b, name...)
	b = append(b, "_sum"...)
	b = append(b, h.labels...)
	b = append(b, ' ')
	b = appendFloat(b, math.Float64frombits(h.sum.Load()))
	b = append(b, '\n')
	return appendSeries(b, "_count", h.labels, cum)
}

// bucketLabels merges a child's label block with the le label.
func bucketLabels(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	// labels is `{a="b",…}`: splice le before the closing brace.
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// appendFloat renders a sample value: integers without an exponent,
// everything else in Go's shortest-round-trip form.
func appendFloat(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendFloat(b, v, 'f', -1, 64)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// BucketCounts returns the non-cumulative per-bucket counts with the
// +Inf overflow last.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}
