package scenario

import (
	"bytes"
	"reflect"
	"testing"
)

// TestReplicationsSerialParallelIdentical is the determinism property
// of the tentpole: for every sample spec, R sharded replications
// produce a report — summaries, seeds and raw per-rep metrics —
// deep-equal (hence bit-identical when rendered) between 1 worker and
// many.
func TestReplicationsSerialParallelIdentical(t *testing.T) {
	const reps = 4
	for _, spec := range sampleSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			c, err := Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := Replications(c, reps, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Compile again: a fresh Compiled must not share mutable
			// state with the first run.
			c2, err := Compile(spec)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := Replications(c2, reps, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("serial and parallel reports differ:\n%+v\n%+v", serial, parallel)
			}
			var a, b bytes.Buffer
			if err := serial.Write(&a); err != nil {
				t.Fatal(err)
			}
			if err := parallel.Write(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("rendered reports differ:\n%s\n---\n%s", a.String(), b.String())
			}
		})
	}
}

// TestChannelErrorTwins pins the acceptance property: under the same
// seeds, a channel-error scenario delivers measurably less throughput
// than its error-free twin, and the backoff dynamics diverge only
// through the error draws (the error-free twin records zero errors).
func TestChannelErrorTwins(t *testing.T) {
	base := Spec{
		Name: "twin", SimTimeMicros: 5e6, Seed: 3,
		Stations: []Group{{Count: 3}},
	}
	errored := base
	errored.Stations = []Group{{Count: 3, ErrorProb: 0.2}}

	run := func(s Spec) *Report {
		c, err := Compile(s)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Replications(c, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	metric := func(r *Report, name string) float64 {
		for _, m := range r.Points[0].Metrics {
			if m.Name == name {
				return m.Summary.Mean
			}
		}
		t.Fatalf("metric %s missing", name)
		return 0
	}

	clean := run(base)
	noisy := run(errored)
	if got := metric(clean, "frame_errors"); got != 0 {
		t.Fatalf("error-free twin recorded %v frame errors", got)
	}
	if got := metric(noisy, "frame_errors"); got == 0 {
		t.Fatal("errored scenario recorded no frame errors")
	}
	ct, nt := metric(clean, "norm_throughput"), metric(noisy, "norm_throughput")
	// 20% frame loss must cost well over measurement noise; require a
	// ≥ 10% relative drop.
	if nt >= ct*0.9 {
		t.Fatalf("throughput with 20%% errors %v not measurably below error-free %v", nt, ct)
	}
	// Same seeds: the twins' seed schedules are identical.
	if !reflect.DeepEqual(clean.Points[0].Seeds, noisy.Points[0].Seeds) {
		t.Fatalf("twins ran different seeds: %v vs %v", clean.Points[0].Seeds, noisy.Points[0].Seeds)
	}
}

// TestRepSeed pins the two seed policies: increment reproduces base+r
// at every point; split decorrelates points and replications while
// staying a pure function of (base, point, rep).
func TestRepSeed(t *testing.T) {
	if got := RepSeed(SeedIncrement, 10, 3, 4); got != 14 {
		t.Fatalf("increment seed %d, want 14", got)
	}
	seen := map[uint64]string{}
	for point := 0; point < 4; point++ {
		for rep := 0; rep < 8; rep++ {
			s := RepSeed(SeedSplit, 1, point, rep)
			if s2 := RepSeed(SeedSplit, 1, point, rep); s2 != s {
				t.Fatalf("RepSeed not deterministic: %d vs %d", s, s2)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between (%d,%d) and %s", point, rep, prev)
			}
			seen[s] = "earlier cell"
		}
	}
}

// TestReplicationsRejectsZeroReps covers the runner's own validation.
func TestReplicationsRejectsZeroReps(t *testing.T) {
	c, err := Compile(Spec{Name: "x", SimTimeMicros: 1e6, Stations: []Group{{Count: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replications(c, 0, 1); err == nil {
		t.Fatal("reps=0 accepted")
	}
}

// TestProgressCountsLandedReplications: progress counts a replication
// only once it has landed. A point whose engine fails stops a serial
// run after the healthy point's replications, and the count stops
// with them: a replication that never produced metrics is not done.
func TestProgressCountsLandedReplications(t *testing.T) {
	c, err := Compile(Spec{Name: "x", SimTimeMicros: 1e5, Stations: []Group{{Count: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	c.Points = append(c.Points, Point{N: 1}) // compiled to no engine: RunOnce fails
	var calls []int
	_, err = ReplicationsOpts(c, 2, 1, Options{Progress: func(done, total int) {
		calls = append(calls, done)
		if total != 4 {
			t.Errorf("total = %d, want 4", total)
		}
	}})
	if err == nil {
		t.Fatal("a point compiled to no engine ran")
	}
	if !reflect.DeepEqual(calls, []int{1, 2}) {
		t.Errorf("progress %v, want [1 2]: only the landed replications", calls)
	}
}
