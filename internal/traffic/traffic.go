// Package traffic provides the load generators feeding the emulated
// testbed's stations.
//
// The paper's experiments use saturated UDP flows ("we assume that we
// have N saturated PLC stations transmitting UDP traffic to the same
// destination station called D"); the extended experiments also need
// unsaturated (Poisson) sources and the sparse management-message
// generators whose overhead Section 3.3 measures.
package traffic

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Source models a per-station, per-priority packet arrival process in
// simulated time (µs).
//
// A source draws only from its own random stream, and Pending may be
// called any number of times for a non-decreasing now without changing
// what Take and NextArrival later see. The MAC's medium loop relies on
// both: it evaluates every flow once per medium event, whichever class
// wins, and consumes the same draws as a loop that asks only the flows
// it needs.
type Source interface {
	// Pending reports whether at least one frame is queued at time now.
	Pending(now float64) bool
	// Take consumes one queued frame at time now. It panics when
	// nothing is pending — the MAC only dequeues after Pending.
	Take(now float64)
	// NextArrival returns the absolute time of the next arrival after
	// now, or +Inf for saturated/exhausted sources. The medium uses it
	// to fast-forward idle periods.
	NextArrival(now float64) float64
	// Name labels the source in reports.
	Name() string
}

// Saturated always has a frame queued: the station re-enters backoff
// immediately after every transmission, which is the regime of every
// validation experiment.
type Saturated struct{}

// Pending always reports true.
func (Saturated) Pending(float64) bool { return true }

// Take is a no-op: the queue never drains.
func (Saturated) Take(float64) {}

// NextArrival reports an arrival "now": the source is backlogged.
func (Saturated) NextArrival(now float64) float64 { return now }

// Name returns "saturated".
func (Saturated) Name() string { return "saturated" }

// Poisson generates exponentially spaced arrivals with the given mean
// inter-arrival time, buffering them in an unbounded queue.
type Poisson struct {
	mean    float64
	src     *rng.Source
	next    float64
	backlog int
}

// NewPoisson builds a Poisson source with mean inter-arrival time in µs.
func NewPoisson(meanInterArrival float64, src *rng.Source) *Poisson {
	if meanInterArrival <= 0 || math.IsNaN(meanInterArrival) || math.IsInf(meanInterArrival, 0) {
		panic(fmt.Sprintf("traffic: NewPoisson(%v): mean must be positive and finite", meanInterArrival))
	}
	if src == nil {
		panic("traffic: NewPoisson: nil rng source")
	}
	p := &Poisson{mean: meanInterArrival, src: src}
	p.next = p.src.Exponential(p.mean)
	return p
}

// pull moves all arrivals up to now into the backlog.
func (p *Poisson) pull(now float64) {
	for p.next <= now {
		p.backlog++
		p.next += p.src.Exponential(p.mean)
	}
}

// Pending reports whether an arrival is queued at time now.
func (p *Poisson) Pending(now float64) bool {
	p.pull(now)
	return p.backlog > 0
}

// Take consumes one queued arrival.
func (p *Poisson) Take(now float64) {
	p.pull(now)
	if p.backlog == 0 {
		panic("traffic: Poisson.Take with empty backlog")
	}
	p.backlog--
}

// NextArrival returns the next arrival time (or now, if backlogged).
func (p *Poisson) NextArrival(now float64) float64 {
	p.pull(now)
	if p.backlog > 0 {
		return now
	}
	return p.next
}

// Name returns a rate-labelled name.
func (p *Poisson) Name() string { return fmt.Sprintf("poisson(mean=%.0fµs)", p.mean) }

// None never has traffic; it models attached-but-silent stations (the
// paper removes those from the power strip precisely because their
// management traffic would perturb measurements — the emulated testbed
// can represent them explicitly).
type None struct{}

// Pending always reports false.
func (None) Pending(float64) bool { return false }

// Take panics: nothing can be pending.
func (None) Take(float64) { panic("traffic: Take on None source") }

// NextArrival reports no future arrivals.
func (None) NextArrival(float64) float64 { return math.Inf(1) }

// Name returns "none".
func (None) Name() string { return "none" }
