// Package sim implements the slot-synchronous finite-state-machine
// simulator of the IEEE 1901 CSMA/CA mechanism published with the paper
// (Section 4.2). The 802.11 DCF baseline runs through the same engine
// on config.DCF.Params(): deferral counters of CWmax never expire, so
// the 1901 machine reduces to DCF with the slotted busy convention (a
// busy period costs one counter decrement).
//
// The published MATLAB function
//
//	sim_1901(N, sim_time, Tc, Ts, frame_length, cw, dc)
//
// is reproduced exactly by Sim1901 (same inputs, same two outputs —
// collision probability and normalized throughput, same event semantics,
// same statistics definitions). The generic Engine additionally exposes
// per-station counters and an Observer hook used to regenerate the
// Figure 1 trace and the fairness studies.
//
// Assumptions inherited from the paper's simulator: stations are
// saturated, the retry limit is infinite, all stations form a single
// contention domain, and the channel is error-free. The last assumption
// can be lifted per station through Inputs.ErrorProb (frame loss
// without collision), a knob the declarative scenario layer
// (internal/scenario) exposes; leaving it nil reproduces the paper
// exactly.
package sim

import (
	"fmt"
	"math"

	"repro/internal/backoff"
	"repro/internal/config"
	"repro/internal/rng"
	"repro/internal/timing"
)

// Inputs mirrors Table 3 of the paper: the simulator's input variables
// in the order they are given to sim_1901.
type Inputs struct {
	// N is the number of saturated stations.
	N int
	// SimTime is the total simulation time in µs.
	SimTime float64
	// Tc is the duration of a collision in µs.
	Tc float64
	// Ts is the duration of a successful transmission in µs.
	Ts float64
	// FrameLength is the frame duration in µs, not including overheads
	// such as preamble or inter-frame spaces; used only to normalize
	// throughput.
	FrameLength float64
	// Params carries the cw and dc vectors.
	Params config.Params
	// PerStation optionally configures each station individually (for
	// heterogeneous coexistence scenarios). When non-nil it must have
	// exactly N entries and overrides Params.
	PerStation []config.Params
	// ErrorProb optionally assigns each station a per-frame channel
	// error probability: a transmission that wins the medium alone is
	// still lost with this probability (impulsive power-line noise, no
	// collision involved). The destination acknowledges the errored
	// frame with an all-blocks-errored indication, so the transmitter
	// treats it like a failed attempt and moves to the next backoff
	// stage. When non-nil it must have exactly N entries in [0, 1];
	// nil keeps the paper's error-free channel. Error draws come from
	// dedicated per-station streams, so enabling errors never perturbs
	// the backoff draws of an otherwise identical run.
	ErrorProb []float64
	// Seed selects the random stream; runs with equal inputs and seeds
	// are bit-identical.
	Seed uint64
}

// DefaultInputs returns the exact invocation the paper gives as example:
// sim_1901(N, 5·10⁸, 2920.64, 2542.64, 2050, [8 16 32 64], [0 1 3 15]).
func DefaultInputs(n int) Inputs {
	return Inputs{
		N:           n,
		SimTime:     5e8,
		Tc:          timing.DefaultCollisionDuration,
		Ts:          timing.DefaultSuccessDuration,
		FrameLength: timing.DefaultFrameDuration,
		Params:      config.DefaultCA1(),
		Seed:        1,
	}
}

// Validate checks the inputs the way the MATLAB function does (it
// returns early when the cw and dc vectors disagree) plus basic range
// checks on the numeric inputs.
func (in Inputs) Validate() error {
	if in.N < 1 {
		return fmt.Errorf("sim: N=%d must be ≥ 1", in.N)
	}
	if in.SimTime <= 0 || math.IsNaN(in.SimTime) || math.IsInf(in.SimTime, 0) {
		return fmt.Errorf("sim: sim_time=%v must be a positive finite duration", in.SimTime)
	}
	for _, d := range []struct {
		name string
		v    float64
	}{{"Tc", in.Tc}, {"Ts", in.Ts}, {"frame_length", in.FrameLength}} {
		if d.v <= 0 || math.IsNaN(d.v) || math.IsInf(d.v, 0) {
			return fmt.Errorf("sim: %s=%v must be a positive finite duration", d.name, d.v)
		}
	}
	if in.ErrorProb != nil {
		if len(in.ErrorProb) != in.N {
			return fmt.Errorf("sim: %d error probabilities for N=%d", len(in.ErrorProb), in.N)
		}
		for i, p := range in.ErrorProb {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return fmt.Errorf("sim: station %d: error probability %v outside [0, 1]", i, p)
			}
		}
	}
	if in.PerStation != nil {
		if len(in.PerStation) != in.N {
			return fmt.Errorf("sim: %d per-station configs for N=%d", len(in.PerStation), in.N)
		}
		for i, p := range in.PerStation {
			if err := p.Validate(); err != nil {
				return fmt.Errorf("sim: station %d: %w", i, err)
			}
		}
		return nil
	}
	return in.Params.Validate()
}

// stationParams returns station i's configuration.
func (in Inputs) stationParams(i int) config.Params {
	if in.PerStation != nil {
		return in.PerStation[i]
	}
	return in.Params
}

// Result carries the simulator outputs. CollisionProbability and
// NormalizedThroughput are defined exactly as in the paper's code:
//
//	collision_pr    = collisions / (collisions + succ_transmissions)
//	norm_throughput = succ_transmissions · frame_length / t
//
// where "collisions" counts the colliding *stations* of each collision
// event (a 3-way collision adds 3), matching the per-station frame
// counters the testbed measures. With a channel error model installed
// (Inputs.ErrorProb) the attempt denominator additionally includes the
// errored frames — the ΣAᵢ estimator of Section 3.2 counts them, since
// the destination acknowledges errored frames too; with the paper's
// error-free channel the definitions coincide exactly.
type Result struct {
	Inputs Inputs

	CollisionProbability float64
	NormalizedThroughput float64

	// Successes is the number of successful transmissions.
	Successes int64
	// CollidedFrames is the number of collided frames (station-events).
	CollidedFrames int64
	// CollisionEvents is the number of collision busy-periods.
	CollisionEvents int64
	// FrameErrors is the number of frames lost to channel errors —
	// single-transmitter busy periods whose frame the channel corrupted
	// (always 0 with the paper's error-free channel).
	FrameErrors int64
	// IdleSlots is the number of empty contention slots.
	IdleSlots int64
	// Elapsed is the simulated time actually consumed (µs); it may
	// exceed SimTime by up to one busy period, as in the original loop.
	Elapsed float64

	// PerStation holds each station's counters, indexed by station.
	PerStation []StationStats

	// Controls holds the run's martingale control variates (realized −
	// expected per channel, ControlNames order) when the engine ran with
	// EnableControls; nil otherwise. Each entry has exactly zero
	// expectation under the run's random draws — see control.go.
	Controls []float64
}

// StationStats are the per-station counters the emulated testbed also
// exposes through its MME interface: with an ideal channel, Acked =
// Successes + Collided because the 1901 destination acknowledges even a
// collided frame (with an all-blocks-errored indication), which is the
// report's key observation about the ΣAᵢ statistic.
type StationStats struct {
	Successes int64
	Collided  int64
	// Errored counts frames this station lost to channel errors (no
	// collision: the station transmitted alone and the channel corrupted
	// the frame).
	Errored   int64
	Attempts  int64
	Deferrals int64
	Redraws   int64
}

// Acked returns the acknowledged-frame counter as the INT6300 firmware
// reports it: collided and channel-errored frames are included, because
// the destination decodes the robust preamble and acknowledges them
// with an all-blocks-errored indication.
func (s StationStats) Acked() int64 { return s.Successes + s.Collided + s.Errored }

// Observer receives the simulator's events. All callbacks run on the
// simulation goroutine; implementations must not retain the snapshot
// slice, which is reused between events.
type Observer interface {
	// OnSlot is called once per medium event, before state advances.
	// kind describes the event; txs lists the transmitting stations
	// (nil for idle); t is the simulated time at the event's start;
	// snaps holds each station's counters entering the event.
	OnSlot(t float64, kind SlotKind, txs []int, snaps []backoff.Snapshot)
}

// SlotKind classifies a medium event.
type SlotKind int

const (
	// Idle: no station transmitted; one 35.84 µs slot elapses.
	Idle SlotKind = iota
	// Success: exactly one station transmitted; Ts elapses.
	Success
	// Collision: two or more stations transmitted; Tc elapses.
	Collision
	// FrameError: exactly one station transmitted, but the channel
	// corrupted the frame (Inputs.ErrorProb); the medium is busy for Ts
	// like a success, the transmission fails like a collision. Never
	// seen with the paper's error-free channel.
	FrameError
)

// String names the slot kind.
func (k SlotKind) String() string {
	switch k {
	case Idle:
		return "idle"
	case Success:
		return "success"
	case Collision:
		return "collision"
	case FrameError:
		return "error"
	default:
		return fmt.Sprintf("SlotKind(%d)", int(k))
	}
}

// Engine runs N backoff processes over the shared slotted medium.
//
// Without an observer, Run takes the lazy-epoch loop (runLazy). Each
// station's counters live there as two absolute deadlines: fire, the
// global slot index at which it transmits, and jump, the busy-period
// index at which its deferral counter expires. A busy period then
// redraws only its transmitters and the stations whose jump it is;
// every other station's counters move implicitly with the slot and
// busy indices (BC = fire − slot, DC = jump − busy), and an idle run
// touches no station. With an Observer installed the engine steps slot
// by slot on backoff.Station, the reference machine, because traces
// must see every slot and every counter. Both paths draw the same
// per-station streams in the same per-station order, so their Results
// are bit-identical.
type Engine struct {
	in       Inputs
	stations []*backoff.Station // built on first use (buildStations)
	lanes    []lane
	fire     []int        // per station: global slot index of its next transmission
	jump     []int        // per station: busy-period index at which its DC expires
	errSrc   []rng.Source // per-station channel-error streams (nil: error-free channel)
	txs      []int        // scratch: the current event's transmitters
	due      []int        // scratch: the stations the lazy loop redraws at a busy period
	observer Observer
	ctrl     *controller // non-nil after EnableControls (see control.go)
	// lazyEnd holds the slot and busy-period indices at which runLazy
	// stopped (ok once it has run), for writing the final counters back
	// into the stations.
	lazyEnd struct {
		slot, busy int
		ok         bool
	}
}

// lane is a station's state in the lazy loop besides its deadlines.
// The station's backoff.Station draws from the same src, so both paths
// advance one stream per station.
type lane struct {
	src       rng.Source
	cw, dc    []int // the station's per-stage windows and deferral counters
	bpc       int
	redraws   int64
	deferrals int64 // set when runLazy stops
}

// errStreamBase labels the per-station channel-error streams split off
// the root rng. It is far above any realistic station index, so error
// streams never collide with the backoff streams Split(i) and enabling
// errors leaves every backoff draw untouched.
const errStreamBase = uint64(1) << 32

// NewEngine builds a 1901 engine from validated inputs.
func NewEngine(in Inputs) (*Engine, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(in.Seed)
	n := in.N
	// fire, jump, txs and due; due gets one spare entry because the
	// branch-free appends in runLazy write a slot before they count it.
	ints := make([]int, 4*n+1)
	e := &Engine{
		in:    in,
		lanes: make([]lane, n),
		fire:  ints[:n:n],
		jump:  ints[n : 2*n : 2*n],
		txs:   ints[2*n : 2*n : 3*n],
		due:   ints[3*n:],
	}
	for i := range e.lanes {
		p := in.stationParams(i)
		l := &e.lanes[i]
		l.src = *root.Split(uint64(i))
		l.cw, l.dc = p.CW, p.DC
	}
	if in.ErrorProb != nil {
		e.errSrc = make([]rng.Source, in.N)
		for i := range e.errSrc {
			e.errSrc[i] = *root.Split(errStreamBase + uint64(i))
		}
	}
	return e, nil
}

// SetObserver installs a trace observer; pass nil to remove it.
func (e *Engine) SetObserver(o Observer) { e.observer = o }

// Station exposes station i for inspection in tests and traces. After
// Run it holds the station's final counters whichever loop ran.
func (e *Engine) Station(i int) *backoff.Station {
	e.buildStations()
	return e.stations[i]
}

// buildStations makes the backoff.Station block on first use: the
// observer loop drives it, and the lazy loop only writes its final
// counters back, so a plain run never needs it. Each station draws from
// its lane's stream, so it continues where the lazy loop stopped.
func (e *Engine) buildStations() {
	if e.stations != nil {
		return
	}
	e.stations = make([]*backoff.Station, e.in.N)
	for i := range e.stations {
		e.stations[i] = backoff.NewStation(e.in.stationParams(i), &e.lanes[i].src)
		if e.lazyEnd.ok {
			e.resume(i)
		}
	}
}

// resume writes the lazy loop's final counters for station i into its
// backoff.Station.
func (e *Engine) resume(i int) {
	l := &e.lanes[i]
	e.stations[i].Resume(l.bpc, e.fire[i]-e.lazyEnd.slot, e.jump[i]-e.lazyEnd.busy, l.redraws, l.deferrals)
}

// Run executes the simulation until SimTime elapses and returns the
// aggregated result. Run may be called once per Engine.
func (e *Engine) Run() Result {
	res := Result{Inputs: e.in, PerStation: make([]StationStats, e.in.N)}

	// The first cycle's draws happen when the stations start; its
	// conditional expectation must be captured before they do.
	if e.ctrl != nil {
		e.ctrl.predictInitial()
	}
	var t float64
	if e.observer != nil {
		t = e.runObserved(&res)
	} else {
		t = e.runLazy(&res)
	}

	res.Elapsed = t
	attempts := res.CollidedFrames + res.Successes + res.FrameErrors
	if attempts > 0 {
		res.CollisionProbability = float64(res.CollidedFrames) / float64(attempts)
	}
	res.NormalizedThroughput = float64(res.Successes) * e.in.FrameLength / t
	if e.ctrl != nil {
		e.ctrl.finish(&res)
	}
	return res
}

// runLazy is the medium loop without an observer; it returns the final
// simulated time. Per busy period it scans the deadlines once for the
// smallest fire, which gives the idle gap and the transmitters, then
// redraws the transmitters and the stations whose jump is this busy
// period — nobody else. Deadlines are compared only through the
// differences fire − slot and jump − busy, which are the true BC and DC
// even where a huge window or deferral counter wraps the absolute value.
// The idle run still advances t one SlotTime addition per slot: that
// accumulation defines the bits of Elapsed and the SimTime stopping
// point, which must match the slot-by-slot loop. On return the stations
// hold the counters the reference machine would (see buildStations).
//
//plclint:noalloc
func (e *Engine) runLazy(res *Result) float64 {
	fire, jump := e.fire, e.jump
	txs, due := e.txs[:len(fire)], e.due
	simTime := e.in.SimTime
	for i := range fire {
		e.redraw(i, -1, -1) // Station.Start: a redraw before slot 0
	}
	var (
		t          float64
		slot, busy int // indices of the next slot and of the next busy period
	)
	for t <= simTime {
		// One pass over the deadlines: the smallest BC is the idle gap,
		// the stations that reach it transmit, and the stations whose DC
		// is zero redraw at the coming busy period whatever happens there.
		// The updates are branch-free (b2i), since every comparison is a
		// coin flip to a predictor.
		gap, nt, nd := math.MaxInt, 0, 0
		for i, f := range fire {
			bc := f - slot
			nt &= -b2i(bc >= gap) // a new minimum restarts the transmitter set
			gap = min(gap, bc)
			txs[nt] = i
			nt += b2i(bc == gap)
			due[nd] = i
			nd += b2i(jump[i] == busy)
		}
		for ; gap > 0 && t <= simTime; gap-- {
			t += timing.SlotTime
			slot++
		}
		if t > simTime {
			break
		}

		_, dur, winner := e.busy(res, txs[:nt])
		if e.ctrl != nil {
			for i := range fire {
				e.ctrl.setStation(i, fire[i]-slot, jump[i]-busy, e.lanes[i].bpc, i == winner)
			}
			e.ctrl.accumulate(t + dur)
		}
		if winner >= 0 {
			e.lanes[winner].bpc = 0 // a success restarts at backoff stage 0
		}
		// Every transmitter redraws too: the redraw set is the union.
		// A redraw is the same whether it follows an attempt or a
		// deferral; the deferrals are counted once the loop stops.
		for _, i := range txs[:nt] {
			due[nd] = i
			nd += b2i(jump[i] != busy)
		}
		for _, i := range due[:nd] {
			e.redraw(i, slot, busy)
		}
		t += dur
		slot++
		busy++
	}

	res.IdleSlots = int64(slot - busy)
	e.lazyEnd.slot, e.lazyEnd.busy, e.lazyEnd.ok = slot, busy, true
	for i := range e.lanes {
		// Every redraw but the first follows an attempt or a deferral.
		l := &e.lanes[i]
		l.deferrals = l.redraws - 1 - res.PerStation[i].Attempts
		res.PerStation[i].Redraws, res.PerStation[i].Deferrals = l.redraws, l.deferrals
		if e.stations != nil {
			e.resume(i)
		}
	}
	return t
}

// redraw is backoff.Station's redraw on the lazy loop's state: station
// i enters the stage its BPC addresses at busy slot slot (busy-period
// index busy; −1 for the start) and draws its backoff counter.
func (e *Engine) redraw(i, slot, busy int) {
	l := &e.lanes[i]
	stage := min(l.bpc, len(l.cw)-1)
	e.fire[i] = slot + 1 + l.src.Backoff(l.cw[stage])
	e.jump[i] = busy + 1 + l.dc[stage]
	l.bpc++
	l.redraws++
}

// b2i is 1 for true and 0 for false. The compiler lowers it to a flag
// set, so a scan that counts with it does not branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runObserved is the slot-by-slot medium loop on backoff.Station; it
// returns the final simulated time. The observer sees every slot, idle
// ones included, with each station's counters entering it.
func (e *Engine) runObserved(res *Result) float64 {
	e.buildStations()
	intents := make([]backoff.Action, e.in.N)
	snaps := make([]backoff.Snapshot, e.in.N)
	for i, s := range e.stations {
		intents[i] = s.Start()
	}
	var t float64
	for t <= e.in.SimTime {
		e.txs = e.txs[:0]
		for i, a := range intents {
			if a == backoff.Transmit {
				e.txs = append(e.txs, i)
			}
		}
		// A busy event resolves (its channel error drawn) before the
		// observer fires, so traces see the true slot kind.
		kind, dur, winner := Idle, timing.SlotTime, -1
		if len(e.txs) > 0 {
			kind, dur, winner = e.busy(res, e.txs)
		} else {
			res.IdleSlots++
		}

		for i, s := range e.stations {
			snaps[i] = s.Snapshot()
		}
		e.observer.OnSlot(t, kind, e.txs, snaps)

		if kind == Idle {
			for i, s := range e.stations {
				intents[i] = s.AfterIdle()
			}
		} else {
			if e.ctrl != nil {
				for i, s := range e.stations {
					e.ctrl.setStation(i, s.BC(), s.DC(), s.BPC(), i == winner)
				}
				e.ctrl.accumulate(t + dur)
			}
			for i, s := range e.stations {
				intents[i] = s.AfterBusy(intents[i] == backoff.Transmit, kind == Success)
			}
		}
		t += dur
	}
	for i, s := range e.stations {
		res.PerStation[i].Deferrals = s.Deferrals()
		res.PerStation[i].Redraws = s.Redraws()
	}
	return t
}

// busy resolves the busy period whose transmitters are txs: it draws
// a lone transmitter's channel error, adds the event to res, and returns
// its kind, how long it holds the medium, and the successful
// transmitter (−1 for a collision or a frame error).
func (e *Engine) busy(res *Result, txs []int) (kind SlotKind, dur float64, winner int) {
	if len(txs) > 1 {
		res.CollisionEvents++
		res.CollidedFrames += int64(len(txs))
		for _, i := range txs {
			res.PerStation[i].Collided++
			res.PerStation[i].Attempts++
		}
		return Collision, e.in.Tc, -1
	}
	w := txs[0]
	res.PerStation[w].Attempts++
	// Channel error: the lone transmission is lost without a collision.
	// The draw comes from the station's dedicated stream, never the
	// backoff streams, and only single-transmitter events consume it.
	// That stream feeds nothing but this station's errors and the draw
	// lies in [0, 1), so drawing at p = 0 (never below) or p = 1 (always
	// below) changes no outcome; drawing unconditionally keeps a branch
	// on which station won out of the loop. The medium is busy for Ts
	// either way (the loss happens at the receiver), but the ACK carries
	// the all-blocks-errored indication, so the transmitter's backoff
	// advances to the next stage like a failure.
	if e.errSrc != nil && e.errSrc[w].Float64() < e.in.ErrorProb[w] {
		res.FrameErrors++
		res.PerStation[w].Errored++
		return FrameError, e.in.Ts, -1
	}
	res.Successes++
	res.PerStation[w].Successes++
	return Success, e.in.Ts, w
}

// Sim1901 reproduces the published sim_1901 entry point: it builds an
// engine and returns (collision probability, normalized throughput),
// exactly the two outputs of the MATLAB function.
func Sim1901(n int, simTime, tc, ts, frameLength float64, cw, dc []int, seed uint64) (collisionPr, normThroughput float64, err error) {
	in := Inputs{
		N: n, SimTime: simTime, Tc: tc, Ts: ts, FrameLength: frameLength,
		Params: config.Params{Name: "custom", CW: cw, DC: dc},
		Seed:   seed,
	}
	e, err := NewEngine(in)
	if err != nil {
		return 0, 0, err
	}
	r := e.Run()
	return r.CollisionProbability, r.NormalizedThroughput, nil
}
