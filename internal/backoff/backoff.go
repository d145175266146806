// Package backoff implements the per-station CSMA/CA backoff process
// studied by the paper: the IEEE 1901 process with its three counters
// (backoff counter BC, deferral counter DC, backoff procedure counter
// BPC). The 802.11 DCF baseline is the same machine on
// config.DCF.Params(): per-stage deferral counters of CWmax can never
// reach zero before BC does, so the deferral branch is never taken.
//
// The types here are pure state machines: they know nothing about time,
// the medium, frames or priorities. The slot-synchronous simulator
// (internal/sim), the event-driven MAC (internal/mac) and the analytical
// model's validation tests all drive the same machine, which is what
// makes the cross-validation of Figure 2 meaningful.
//
// # Semantics
//
// The machine follows the finite state machine of the 1901 standard
// exactly as in the simulator published with the paper:
//
//   - Upon a fresh start (new packet after a success, or first packet),
//     the station enters backoff stage 0, draws BC uniformly in
//     {0,…,CW0−1}, and sets DC to d0.
//   - Each idle slot decrements BC. When BC reaches 0, the station
//     attempts transmission in the next slot.
//   - Each busy period (a transmission by any station) counts as one
//     slot for the counters: it decrements both BC and DC — unless DC
//     was already 0 when the busy period was sensed, in which case the
//     station jumps to the next backoff stage and redraws BC without
//     attempting a transmission (the 1901-specific deferral mechanism).
//   - A collision moves the station to the next backoff stage; a success
//     resets it to stage 0. Stages beyond the last re-enter the last.
//
// BPC counts the redraws since the last success, so the stage used at
// redraw k is min(k, m−1), matching Table 1's "BPC ≥ 3 → stage 3".
package backoff

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/rng"
)

// Action is a station's intent for the next contention slot.
type Action int

const (
	// Defer: the station stays silent for the upcoming slot.
	Defer Action = iota
	// Transmit: the station's backoff counter has expired; it transmits
	// in the upcoming slot.
	Transmit
)

// String returns "defer" or "transmit".
func (a Action) String() string {
	if a == Transmit {
		return "transmit"
	}
	return "defer"
}

// Station is a single IEEE 1901 station's backoff engine.
type Station struct {
	params config.Params
	src    *rng.Source

	bpc int // backoff procedure counter (redraws since last success)
	bc  int // backoff counter
	dc  int // deferral counter
	cw  int // contention window of the current stage (for introspection)

	fresh bool // true before the very first redraw (MATLAB BPC==0 state)

	// Counters for statistics and invariant checks.
	redraws   int64 // total BC redraws
	deferrals int64 // redraws caused by deferral-counter expiry
}

// NewStation returns a station using the given parameters and random
// stream. It panics if params is invalid: constructing a station from an
// unvalidated configuration is a programming error (CLI and search code
// validate user input before reaching here).
func NewStation(params config.Params, src *rng.Source) *Station {
	if err := params.Validate(); err != nil {
		panic(fmt.Sprintf("backoff: NewStation: %v", err))
	}
	if src == nil {
		panic("backoff: NewStation: nil rng source")
	}
	s := &Station{params: params, src: src}
	s.Reset()
	return s
}

// Reset returns the station to its initial state: as if a new packet
// just arrived at a station that has never contended. The first call to
// AfterBusy or Start will draw the stage-0 backoff.
func (s *Station) Reset() {
	s.bpc = 0
	s.bc = 0
	s.dc = 0
	s.cw = s.params.CW[0]
	s.fresh = true
	s.redraws = 0
	s.deferrals = 0
}

// redraw enters the backoff stage addressed by the current BPC, draws a
// fresh backoff counter and advances BPC. deferral records whether this
// redraw was caused by deferral-counter expiry (for statistics).
func (s *Station) redraw(deferral bool) {
	stage := s.params.Stage(s.bpc)
	s.cw = s.params.CW[stage]
	s.dc = s.params.DC[stage]
	s.bc = s.src.Backoff(s.cw)
	s.bpc++
	s.fresh = false
	s.redraws++
	if deferral {
		s.deferrals++
	}
}

// Start performs the initial stage-0 draw and returns the station's
// intent for the first slot. Call exactly once after Reset (the
// slot-synchronous simulator instead reaches the same state through
// AfterBusy's fresh-start path; both are equivalent).
func (s *Station) Start() Action {
	if !s.fresh {
		panic("backoff: Start called twice without Reset")
	}
	s.redraw(false)
	return s.intent()
}

// intent converts the current BC into the next-slot action.
func (s *Station) intent() Action {
	if s.bc == 0 {
		return Transmit
	}
	return Defer
}

// AfterIdle advances the machine across one idle slot: BC decrements;
// DC is untouched (the deferral counter reacts only to busy slots).
// It must not be called while the station intends to transmit.
func (s *Station) AfterIdle() Action {
	if s.fresh {
		panic("backoff: AfterIdle before Start")
	}
	if s.bc == 0 {
		panic("backoff: AfterIdle called on a station whose backoff expired (it should be transmitting)")
	}
	s.bc--
	return s.intent()
}

// AfterIdleN advances the machine across k consecutive idle slots in
// O(1): BC decrements by k in one step. Idle slots touch neither the
// deferral counter nor the random stream, so the result is bit-identical
// to k successive AfterIdle calls — the property the MAC's idle
// fast-forward relies on. k must satisfy 1 ≤ k ≤ BC (the k-th
// batched slot still needs a pending backoff to decrement).
//
//plclint:noalloc
func (s *Station) AfterIdleN(k int) Action {
	if s.fresh {
		panic("backoff: AfterIdleN before Start")
	}
	if k < 1 {
		panic(fmt.Sprintf("backoff: AfterIdleN(%d): batch must cover at least one slot", k))
	}
	if k > s.bc {
		panic(fmt.Sprintf("backoff: AfterIdleN(%d) with BC=%d; the station would transmit before the batch ends", k, s.bc))
	}
	s.bc -= k
	return s.intent()
}

// AfterBusy advances the machine across one busy period of the medium —
// a slot in which at least one station transmitted.
//
// transmitted tells whether this station was among the transmitters, and
// success whether the busy period was a successful transmission (exactly
// one transmitter). The four combinations cover: my success, my
// collision, an overheard success and an overheard collision.
//
// Returns the station's intent for the next slot.
func (s *Station) AfterBusy(transmitted, success bool) Action {
	if transmitted && s.bc != 0 && !s.fresh {
		panic(fmt.Sprintf("backoff: AfterBusy(transmitted=true) with BC=%d; only stations with expired backoff transmit", s.bc))
	}
	if transmitted && success {
		// Successful transmission: restart at backoff stage 0 for the
		// next frame (saturated stations always have a next frame).
		s.bpc = 0
	}
	// This is the State-0 path of the published simulator: a fresh
	// station, a station whose BC expired (it just transmitted), or a
	// station whose DC expired redraws; everyone else pays one slot on
	// both counters.
	switch {
	case s.fresh || s.bc == 0:
		s.redraw(false)
	case s.dc == 0:
		// Deferral: sensed busy with DC exhausted → next stage, no
		// transmission attempt. This is the 1901-specific transition.
		s.redraw(true)
	default:
		s.bc--
		s.dc--
	}
	return s.intent()
}

// Resume sets the station to the state an external driver of the same
// machine reached on the station's own random stream: bpc, bc and dc as
// the accessors report them, and the redraw and deferral totals. The
// stage and window follow from bpc. internal/sim's lazy loop, which
// holds the counters as deadlines while it runs, writes its final state
// back through Resume so the station answers as if it had been driven.
// It panics unless bpc ≥ 1 (at least one redraw happened) and bc, dc
// are non-negative.
func (s *Station) Resume(bpc, bc, dc int, redraws, deferrals int64) {
	if bpc < 1 || bc < 0 || dc < 0 {
		panic(fmt.Sprintf("backoff: Resume(bpc=%d, bc=%d, dc=%d): not a started station's state", bpc, bc, dc))
	}
	s.bpc, s.bc, s.dc = bpc, bc, dc
	s.cw = s.params.CW[s.params.Stage(bpc-1)]
	s.fresh = false
	s.redraws, s.deferrals = redraws, deferrals
}

// BC returns the current backoff counter (slots until transmission).
func (s *Station) BC() int { return s.bc }

// DC returns the current deferral counter.
func (s *Station) DC() int { return s.dc }

// BPC returns the backoff procedure counter: redraws since last success.
func (s *Station) BPC() int { return s.bpc }

// Stage returns the backoff stage the station currently sits in
// (the stage used by its most recent redraw).
func (s *Station) Stage() int {
	// The most recent redraw used min(bpc-1, m-1); bpc==0 only before
	// Start or right after a success, where the stage is still the one
	// of the pending frame (0 after success).
	if s.bpc == 0 {
		return 0
	}
	return s.params.Stage(s.bpc - 1)
}

// CW returns the contention window of the current stage.
func (s *Station) CW() int { return s.cw }

// Redraws returns the total number of backoff redraws since Reset.
func (s *Station) Redraws() int64 { return s.redraws }

// Deferrals returns how many redraws were caused by deferral-counter
// expiry (as opposed to transmissions and fresh starts).
func (s *Station) Deferrals() int64 { return s.deferrals }

// Params returns the configuration the station runs.
func (s *Station) Params() config.Params { return s.params }

// Snapshot captures the visible counters for trace output (the columns
// of Figure 1: CW_i, DC, BC per station).
type Snapshot struct {
	CW    int
	DC    int
	BC    int
	BPC   int
	Stage int
}

// Snapshot returns the station's current counters.
func (s *Station) Snapshot() Snapshot {
	return Snapshot{CW: s.cw, DC: s.dc, BC: s.bc, BPC: s.bpc, Stage: s.Stage()}
}
