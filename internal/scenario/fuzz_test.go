package scenario

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// seedFromExamples feeds every shipped scenario file into the corpus,
// so the fuzzers start from the full grammar the repository actually
// uses (sweeps, priorities, Poisson traffic, channel errors, beacons).
func seedFromExamples(f *testing.F) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no example scenarios found to seed the corpus")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Hand-picked hostile shapes beyond the examples.
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","sim_time_us":1e308,"stations":[{"count":1}]}`))
	f.Add([]byte(`{"name":"x","sim_time_us":1,"sweep_n":[0],"stations":[{"count":0}]}`))
	f.Add([]byte(`{"name":"x","sim_time_us":1,"stations":[{"count":1,"cw":[1],"dc":[0],"error_prob":1}]}`))
	// Variance-reduction blocks: the canonicalization boundary (a
	// disabled block must normalize away without moving the
	// fingerprint), plus hostile knob values the validator must reject.
	f.Add([]byte(`{"name":"x","sim_time_us":1,"stations":[{"count":1}],"variance_reduction":{"kind":"none"}}`))
	f.Add([]byte(`{"name":"x","sim_time_us":1,"stations":[{"count":1}],"variance_reduction":{"kind":"control_variate","pilot_reps":-1,"min_corr":1e308,"max_beta":-0.5}}`))
	// The widened model engine: unsaturated (Poisson) load and mixed
	// CA0–CA3 priorities are now model-expressible and must round-trip
	// under engine "model"; silence and hostile arrival rates ride along.
	f.Add([]byte(`{"name":"x","engine":"model","sim_time_us":1e7,"stations":[{"count":3,"traffic":{"kind":"poisson","mean_interarrival_us":50000}}]}`))
	f.Add([]byte(`{"name":"x","engine":"model","sim_time_us":1e7,"stations":[{"count":2,"priority":"CA1"},{"count":1,"priority":"CA3","traffic":{"kind":"poisson","mean_interarrival_us":100000}},{"count":1,"priority":"CA0","traffic":{"kind":"none"}}]}`))
	f.Add([]byte(`{"name":"x","engine":"model","sim_time_us":1e7,"stations":[{"count":1,"traffic":{"kind":"poisson","mean_interarrival_us":1e-308}}]}`))
}

// FuzzSpecDecode asserts the decode→normalize→encode→decode round trip
// on arbitrary input: whenever a byte string parses and normalizes, the
// normalized form must re-encode to JSON that parses back to the very
// same normalized spec, and the canonical fingerprint must be stable
// across that trip (the serving cache's correctness depends on it).
func FuzzSpecDecode(f *testing.F) {
	seedFromExamples(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return // not a spec; rejection is the correct outcome
		}
		norm, err := s.Normalized()
		if err != nil {
			return // invalid spec; rejection is the correct outcome
		}
		enc, err := norm.Marshal()
		if err != nil {
			t.Fatalf("normalized spec does not marshal: %v", err)
		}
		back, err := Parse(enc)
		if err != nil {
			t.Fatalf("re-encoded normalized spec does not parse: %v\n%s", err, enc)
		}
		norm2, err := back.Normalized()
		if err != nil {
			t.Fatalf("re-decoded normalized spec does not normalize: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(norm, norm2) {
			t.Fatalf("round trip not lossless:\nfirst:  %+v\nsecond: %+v", norm, norm2)
		}
		f1, err := Fingerprint(s, 3)
		if err != nil {
			t.Fatalf("valid spec does not fingerprint: %v", err)
		}
		f2, err := Fingerprint(norm, 3)
		if err != nil {
			t.Fatal(err)
		}
		if f1 != f2 {
			t.Fatalf("fingerprint unstable across normalization: %s vs %s", f1, f2)
		}
	})
}

// FuzzNormalizeIdempotent asserts that Normalized never panics on any
// parseable input, and that it is idempotent: normalizing a normalized
// spec is the identity.
func FuzzNormalizeIdempotent(f *testing.F) {
	seedFromExamples(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		// Validate and Normalized must never panic, whatever the field
		// values that survived decoding (NaN cannot arrive via JSON, but
		// negative counts, huge floats and absurd vectors can).
		norm, err := s.Normalized()
		if err != nil {
			return
		}
		again, err := norm.Normalized()
		if err != nil {
			t.Fatalf("normalized spec fails to re-normalize: %v\n%+v", err, norm)
		}
		if !reflect.DeepEqual(norm, again) {
			t.Fatalf("Normalized is not idempotent:\nonce:  %+v\ntwice: %+v", norm, again)
		}
	})
}

// FuzzSpecRun asserts that every spec Validate accepts runs, on each
// engine it allows, to an answer in range: it finishes within a wall
// budget, every metric is finite and non-negative, and probabilities
// and normalized throughputs lie in [0, 1]. The harness clamps the
// simulated horizon to 0.1 s so each run stays small; station counts
// run up to Validate's cap, and everything else is the fuzzed spec.
func FuzzSpecRun(f *testing.F) {
	seedFromExamples(f)
	const budget = 10 * time.Second
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil || s.Validate() != nil {
			return
		}
		s.SimTimeMicros = min(s.SimTimeMicros, 1e5)
		for _, engine := range []string{EngineSim, EngineMac, EngineModel} {
			s.Engine = engine
			if s.Validate() != nil {
				continue // not an engine this spec allows
			}
			c, err := Compile(s)
			if err != nil {
				continue // Compile's static bounds rejected it
			}
			done := make(chan error, 1)
			go func() {
				for pi, p := range c.Points {
					metrics, err := RunOnce(p, 1)
					if err != nil {
						done <- err
						return
					}
					for _, m := range metrics {
						bounded := strings.HasPrefix(m.Name, "collision_pr") || strings.Contains(m.Name, "throughput") || m.Name == "quiet_fraction"
						if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 || (bounded && m.Value > 1) {
							t.Errorf("engine %s point %d: %s = %v out of range\n%s", engine, pi, m.Name, m.Value, data)
						}
					}
				}
				done <- nil
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("engine %s: a spec Validate accepts failed to run: %v\n%s", engine, err, data)
				}
			case <-time.After(budget):
				t.Fatalf("engine %s: a spec Validate accepts ran past %v\n%s", engine, budget, data)
			}
		}
	})
}
