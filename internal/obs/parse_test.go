package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// renderParse renders r and parses the exposition back.
func renderParse(t *testing.T, r *Registry) map[string]*ParsedFamily {
	t.Helper()
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("parse of rendered exposition: %v\n%s", err, sb.String())
	}
	return fams
}

// A label value may contain a brace — a route template does — so the
// parser must find the block's closing brace outside quoted values.
func TestParseLabelValueWithBrace(t *testing.T) {
	r := NewRegistry()
	r.NewCounterVec("x_total", "h", "route").With("/v1/jobs/{id}").Inc()
	f := renderParse(t, r)["x_total"]
	if f == nil {
		t.Fatal("family x_total missing")
	}
	if v, ok := f.Value(map[string]string{"route": "/v1/jobs/{id}"}); !ok || v != 1 {
		t.Errorf("x_total{route=\"/v1/jobs/{id}\"} = %v, %v; want 1, true (samples %+v)", v, ok, f.Samples)
	}
}

func TestParseRejectsMalformedLabelBlocks(t *testing.T) {
	for _, line := range []string{
		`x_total{a="b" 1`,          // no closing brace
		`x_total{a="b"c="d"} 1`,    // no comma between pairs
		`x_total{ab} c="d"} 1`,     // name with a brace and a space
		`x_total{a="b\q"} 1`,       // unknown escape
		`x_total{a="b} 1`,          // unterminated value
		`x_total{a="b",c=d} 1`,     // unquoted value
		`x_total{="b"} 1`,          // empty name
		`x_total{a="}"} not-a-num`, // bad value after a braced label
	} {
		in := "# TYPE x_total counter\n" + line + "\n"
		if _, err := ParseText(strings.NewReader(in)); err == nil {
			t.Errorf("ParseText accepted %q", line)
		}
	}
}

// Distinct label-value vectors are distinct children, even when their
// values contain the byte the registry once joined keys with.
func TestChildKeysDoNotCollide(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("x_total", "h", "a", "b")
	cv.With("a", "a\x00a").Inc()
	cv.With("a\x00a", "a").Inc()
	f := renderParse(t, r)["x_total"]
	if len(f.Samples) != 2 {
		t.Fatalf("got %d series, want 2: %+v", len(f.Samples), f.Samples)
	}
	for _, m := range []map[string]string{{"a": "a", "b": "a\x00a"}, {"a": "a\x00a", "b": "a"}} {
		if v, ok := f.Value(m); !ok || v != 1 {
			t.Errorf("series %q = %v, %v; want 1, true", m, v, ok)
		}
	}
}

// sameFloat compares sample values, NaN equal to NaN.
func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// FuzzParseText drives the exposition parser two ways: on arbitrary
// bytes it must return (an error or families) without panicking, and
// on a registry built from fuzzed label values and observations every
// rendered series must parse back with the same labels and value.
func FuzzParseText(f *testing.F) {
	var seed bytes.Buffer
	tr, _, _ := testRegistry()
	if err := tr.Render(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes(), "/v1/jobs/{id}", `we"ird\val`+"\nue", 0.7)
	f.Add([]byte("# TYPE x counter\nx{a=\"}\"} 1\n"), "a", "a\x00a", math.NaN())
	f.Add([]byte("x{"), "}", "{", math.Inf(1))
	f.Fuzz(func(t *testing.T, data []byte, v1, v2 string, x float64) {
		ParseText(bytes.NewReader(data)) // must not panic; errors are fine

		r := NewRegistry()
		cv := r.NewCounterVec("fz_total", "Fuzzed counter.", "a", "b")
		want := map[[2]string]float64{}
		for _, vs := range [][2]string{{v1, v2}, {v2, v1}, {v1, v1}} {
			cv.With(vs[0], vs[1]).Inc()
			want[vs]++
		}
		h := r.NewHistogramVec("fz_seconds", "Fuzzed histogram.", []float64{0.5, 1}, "route").With(v1)
		h.Observe(x)
		h.Observe(-x)
		fams := renderParse(t, r)

		c := fams["fz_total"]
		if c == nil || len(c.Samples) != len(want) {
			t.Fatalf("fz_total: got %+v, want %d series", c, len(want))
		}
		for vs, n := range want {
			if v, ok := c.Value(map[string]string{"a": vs[0], "b": vs[1]}); !ok || v != n {
				t.Errorf("fz_total{a=%q,b=%q} = %v, %v; want %v", vs[0], vs[1], v, ok, n)
			}
		}

		hf := fams["fz_seconds"]
		if hf == nil {
			t.Fatal("fz_seconds missing")
		}
		bounds, cum, sum, count := buckets(hf, map[string]string{"route": v1})
		var run uint64
		for i, n := range h.BucketCounts() {
			run += n
			if i >= len(cum) || cum[i] != run {
				t.Fatalf("fz_seconds buckets %v (bounds %v), registry counts %v", cum, bounds, h.BucketCounts())
			}
		}
		if len(bounds) != 3 || bounds[0] != 0.5 || bounds[1] != 1 || !math.IsInf(bounds[2], 1) {
			t.Errorf("fz_seconds bounds %v, want [0.5 1 +Inf]", bounds)
		}
		if count != 2 || !sameFloat(sum, math.Float64frombits(h.sum.Load())) {
			t.Errorf("fz_seconds sum %v count %d, registry sum %v count 2", sum, count, math.Float64frombits(h.sum.Load()))
		}
	})
}
