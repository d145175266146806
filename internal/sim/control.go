package sim

import "repro/internal/timing"

// Control variates for the replication path (internal/scenario's
// control_variate estimator): alongside the ordinary counters, the
// engine can compute per-run martingale controls — quantities with
// *exactly* zero expectation under the run's own random draws — that
// are strongly correlated with the outputs. The estimator upstream
// regresses each metric on these controls to cancel most of the
// between-replication noise.
//
// The construction is one-step conditional expectation. A 1901 run is a
// sequence of "cycles": a draw point (the initial Start, or the redraw
// block after each busy period) followed by an idle gap and the busy
// event that ends it. At every draw point the distribution of the next
// cycle's counter increments is exactly computable from the
// post-decision state — which stations redraw and with what window,
// which merely decrement — because the gap G = min_i X_i over
// independent per-station slot positions has closed-form slot
// probabilities. The control for a counter is then
//
//	realized total − Σ over draw points E[next-cycle increment | state]
//
// a martingale difference sum, mean-zero by optional stopping, and the
// horizon truncation stays exact because the predictor replays the
// engine's own scalar time accumulation (one SlotTime addition per
// slot, events processed iff their start time ≤ SimTime).
//
// Crucially the predictor consumes no randomness, so a run with
// controls enabled draws the bit-identical random stream as one
// without: common random numbers across the plain and control-variate
// paths come for free, and enabling controls can never perturb a
// result.

// NumControls is the number of control channels an enabled run emits.
const NumControls = 5

// Control-channel indices into Result.Controls.
const (
	CtrlSuccesses = iota
	CtrlCollidedFrames
	CtrlFrameErrors
	CtrlIdleSlots
	CtrlElapsed
)

// ControlNames labels the channels of Result.Controls, in order.
var ControlNames = [NumControls]string{
	"successes", "collided_frames", "frame_errors", "idle_slots", "elapsed_us",
}

// controller holds the predictor's per-engine scratch; all slices are
// preallocated so prediction allocates nothing per event.
type controller struct {
	e *Engine
	// Pre-draw state entering the next cycle: station i either redraws
	// a fresh counter uniform on [0, w[i]) (drawing[i]) or continues
	// deferring with a known post-decrement counter fixed[i].
	drawing []bool
	w       []int
	fixed   []int
	// Per-slot scratch: qv[j] = P(X_j ≥ v), qv1[j] = P(X_j ≥ v+1),
	// pv[j] = P(X_j = v), with prefix/suffix products for the
	// leave-one-out terms in O(N) per slot.
	qv, qv1, pv          []float64
	pre, suf, pre1, suf1 []float64
	expected             [NumControls]float64
}

// EnableControls switches on control-variate accounting for this
// engine's Run. It must be called before Run.
func (e *Engine) EnableControls() {
	n := e.in.N
	e.ctrl = &controller{
		e:       e,
		drawing: make([]bool, n),
		w:       make([]int, n),
		fixed:   make([]int, n),
		qv:      make([]float64, n),
		qv1:     make([]float64, n),
		pv:      make([]float64, n),
		pre:     make([]float64, n+1),
		suf:     make([]float64, n+1),
		pre1:    make([]float64, n+1),
		suf1:    make([]float64, n+1),
	}
}

// predictInitial accounts for the very first cycle: every station is
// fresh and draws at backoff stage 0, exactly what Station.Start does.
func (c *controller) predictInitial() {
	for i := range c.drawing {
		p := c.e.in.stationParams(i)
		c.drawing[i] = true
		c.w[i] = p.CW[p.Stage(0)]
	}
	c.accumulate(0)
}

// setStation records station i's pre-draw state after a busy event,
// from its counters entering that event: bc, dc and bpc as
// backoff.Station reports them, and whether it was the successful
// transmitter. It must run after the event is resolved (winner known)
// but before the redraws consume randomness; once every station is
// set, accumulate adds the next cycle's conditional expectation.
//
// The mapping mirrors backoff.Station.AfterBusy exactly: a successful
// winner resets its backoff-stage counter first; then a station redraws
// (uniform on its stage window) iff its backoff or deferral counter hit
// zero, and otherwise keeps deferring with both counters decremented.
func (c *controller) setStation(i, bc, dc, bpc int, winner bool) {
	if winner {
		bpc = 0
	}
	if bc == 0 || dc == 0 {
		p := c.e.in.stationParams(i)
		c.drawing[i] = true
		c.w[i] = p.CW[p.Stage(bpc)]
	} else {
		c.drawing[i] = false
		c.fixed[i] = bc - 1
	}
}

// accumulate adds E[next-cycle counter increments | pre-draw state] to
// the running expectations, replaying the engine's per-slot time
// accumulation from t0 — the simulated time at which the next cycle
// starts — so horizon truncation matches the medium loop bit for bit.
func (c *controller) accumulate(t0 float64) {
	n := len(c.w)
	in := &c.e.in
	tv := t0
	for v := 0; ; v++ {
		if tv > in.SimTime {
			return // neither this slot nor anything after it is processed
		}
		for j := 0; j < n; j++ {
			var q, q1 float64
			if c.drawing[j] {
				fw := float64(c.w[j])
				if d := fw - float64(v); d > 0 {
					q = d / fw
				}
				if d := fw - float64(v+1); d > 0 {
					q1 = d / fw
				}
			} else {
				if c.fixed[j] >= v {
					q = 1
				}
				if c.fixed[j] >= v+1 {
					q1 = 1
				}
			}
			c.qv[j], c.qv1[j], c.pv[j] = q, q1, q-q1
		}
		c.pre[0], c.pre1[0] = 1, 1
		for j := 0; j < n; j++ {
			c.pre[j+1] = c.pre[j] * c.qv[j]
			c.pre1[j+1] = c.pre1[j] * c.qv1[j]
		}
		c.suf[n], c.suf1[n] = 1, 1
		for j := n - 1; j >= 0; j-- {
			c.suf[j] = c.suf[j+1] * c.qv[j]
			c.suf1[j] = c.suf1[j+1] * c.qv1[j]
		}
		sAll := c.pre[n] // P(G ≥ v): every station still deferring
		if sAll == 0 {
			return // the gap cannot reach this slot
		}
		sAll1 := c.pre1[n] // P(G ≥ v+1): slot v idles
		var p1, p1succ, p1err, etx float64
		for i := 0; i < n; i++ {
			if c.pv[i] == 0 {
				continue
			}
			othersGe := c.pre[i] * c.suf[i+1]
			othersGe1 := c.pre1[i] * c.suf1[i+1]
			p1i := c.pv[i] * othersGe1 // station i transmits alone at v
			p1 += p1i
			var ep float64
			if in.ErrorProb != nil {
				ep = in.ErrorProb[i]
			}
			p1succ += p1i * (1 - ep)
			p1err += p1i * ep
			etx += c.pv[i] * othersGe // E[transmitters at v · 1{G = v}]
		}
		pcoll := (sAll - sAll1) - p1 // P(G = v) minus the lone-winner slice
		if pcoll < 0 {
			pcoll = 0
		}
		c.expected[CtrlSuccesses] += p1succ
		c.expected[CtrlFrameErrors] += p1err
		c.expected[CtrlCollidedFrames] += etx - p1
		c.expected[CtrlIdleSlots] += sAll1
		c.expected[CtrlElapsed] += p1*in.Ts + pcoll*in.Tc + sAll1*timing.SlotTime
		tv += timing.SlotTime
	}
}

// finish converts the accumulated expectations into the run's control
// vector: realized − expected per channel, in ControlNames order.
func (c *controller) finish(res *Result) {
	res.Controls = []float64{
		float64(res.Successes) - c.expected[CtrlSuccesses],
		float64(res.CollidedFrames) - c.expected[CtrlCollidedFrames],
		float64(res.FrameErrors) - c.expected[CtrlFrameErrors],
		float64(res.IdleSlots) - c.expected[CtrlIdleSlots],
		res.Elapsed - c.expected[CtrlElapsed],
	}
}
