package traffic

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestSaturatedAlwaysPending(t *testing.T) {
	var s Saturated
	for _, now := range []float64{0, 1, 1e9} {
		if !s.Pending(now) {
			t.Fatalf("saturated source not pending at %v", now)
		}
		if got := s.NextArrival(now); got != now {
			t.Fatalf("NextArrival(%v) = %v, want now", now, got)
		}
		s.Take(now) // must never panic
	}
	if s.Name() != "saturated" {
		t.Errorf("Name() = %q", s.Name())
	}
}

func TestPoissonValidation(t *testing.T) {
	for _, mean := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPoisson(%v) accepted", mean)
				}
			}()
			NewPoisson(mean, rng.New(1))
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewPoisson(nil rng) accepted")
			}
		}()
		NewPoisson(100, nil)
	}()
}

func TestPoissonArrivalRate(t *testing.T) {
	const mean = 1000.0
	p := NewPoisson(mean, rng.New(42))
	const horizon = 1e7
	// Count arrivals by draining the backlog at the horizon.
	n := 0
	for p.Pending(horizon) {
		p.Take(horizon)
		n++
	}
	want := horizon / mean
	if math.Abs(float64(n)-want)/want > 0.05 {
		t.Errorf("%d arrivals in %v µs, want ≈%v", n, horizon, want)
	}
}

func TestPoissonPendingMonotone(t *testing.T) {
	p := NewPoisson(500, rng.New(7))
	if p.Pending(0) {
		t.Error("pending at t=0 before any arrival can occur")
	}
	next := p.NextArrival(0)
	if next <= 0 || math.IsInf(next, 0) {
		t.Fatalf("NextArrival(0) = %v", next)
	}
	if !p.Pending(next) {
		t.Error("not pending exactly at the announced arrival time")
	}
	if got := p.NextArrival(next); got != next {
		t.Errorf("NextArrival with backlog = %v, want %v (now)", got, next)
	}
}

func TestPoissonTakeEmptyPanics(t *testing.T) {
	p := NewPoisson(1e12, rng.New(1)) // arrivals effectively never
	defer func() {
		if recover() == nil {
			t.Error("Take with empty backlog did not panic")
		}
	}()
	p.Take(0)
}

func TestPoissonBacklogCounts(t *testing.T) {
	p := NewPoisson(100, rng.New(11))
	const now = 10000.0
	depth := p.Backlog(now)
	if depth < 50 || depth > 200 {
		t.Errorf("backlog at t=10000 with mean 100 = %d, want ≈100", depth)
	}
	p.Take(now)
	if got := p.Backlog(now); got != depth-1 {
		t.Errorf("backlog after Take = %d, want %d", got, depth-1)
	}
}

func TestPoissonName(t *testing.T) {
	p := NewPoisson(250, rng.New(1))
	if p.Name() != "poisson(mean=250µs)" {
		t.Errorf("Name() = %q", p.Name())
	}
}

func TestNoneSource(t *testing.T) {
	var n None
	if n.Pending(1e9) {
		t.Error("None pending")
	}
	if !math.IsInf(n.NextArrival(0), 1) {
		t.Error("None has an arrival")
	}
	if n.Name() != "none" {
		t.Errorf("Name() = %q", n.Name())
	}
	defer func() {
		if recover() == nil {
			t.Error("None.Take did not panic")
		}
	}()
	n.Take(0)
}

func TestPoissonDeterminism(t *testing.T) {
	a := NewPoisson(300, rng.New(5))
	b := NewPoisson(300, rng.New(5))
	for now := 0.0; now < 1e6; now += 1e5 {
		if a.Backlog(now) != b.Backlog(now) {
			t.Fatal("identical Poisson sources diverged")
		}
	}
}

// TestPoissonExtraPendingCallsNeutral pins the Source contract the
// MAC's one-pass pending scan relies on: extra Pending calls at a
// non-decreasing now — repeated, or at instants between the ones the
// consumer acts on — leave the Take/NextArrival sequence unchanged.
func TestPoissonExtraPendingCallsNeutral(t *testing.T) {
	plain := NewPoisson(400, rng.New(9))
	probed := NewPoisson(400, rng.New(9))
	steps := rng.New(10)
	prev, now := 0.0, 0.0
	for i := 0; i < 5000; i++ {
		if i%5 != 0 { // every fifth step repeats the previous instant
			prev, now = now, now+steps.Exponential(150)
		}
		for k := 0; k < i%4; k++ {
			probed.Pending(prev + (now-prev)*float64(k)/3)
		}
		probed.Pending(now)
		a, b := plain.NextArrival(now), probed.NextArrival(now)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("step %d at %v: NextArrival %v with extra Pending calls, %v without", i, now, b, a)
		}
		if a == now {
			plain.Take(now)
			probed.Take(now)
		}
	}
	if a, b := plain.Backlog(now), probed.Backlog(now); a != b {
		t.Errorf("final backlog %d with extra Pending calls, %d without", b, a)
	}
}
