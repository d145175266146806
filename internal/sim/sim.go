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
// The medium loop is event-driven over idle time: when every station
// defers, the next min(BC) slots are provably idle and consume no
// randomness, so the engine batches them through AfterIdleN instead of
// stepping slot by slot. With an Observer installed the engine falls
// back to slot-by-slot stepping (traces must see every slot); both modes
// produce bit-identical Results.
type Engine struct {
	in       Inputs
	stations []*backoff.Station
	errSrc   []*rng.Source // per-station channel-error streams (nil entries: error-free)
	intents  []backoff.Action
	txs      []int
	txMask   []bool // scratch: transmitter membership during a collision
	snaps    []backoff.Snapshot
	observer Observer
	ctrl     *controller // non-nil after EnableControls (see control.go)
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
	e := &Engine{
		in:       in,
		stations: make([]*backoff.Station, in.N),
		intents:  make([]backoff.Action, in.N),
		txs:      make([]int, 0, in.N),
		txMask:   make([]bool, in.N),
		snaps:    make([]backoff.Snapshot, in.N),
	}
	for i := range e.stations {
		e.stations[i] = backoff.NewStation(in.stationParams(i), root.Split(uint64(i)))
	}
	if in.ErrorProb != nil {
		e.errSrc = make([]*rng.Source, in.N)
		for i, p := range in.ErrorProb {
			if p > 0 {
				e.errSrc[i] = root.Split(errStreamBase + uint64(i))
			}
		}
	}
	return e, nil
}

// SetObserver installs a trace observer; pass nil to remove it.
func (e *Engine) SetObserver(o Observer) { e.observer = o }

// Station exposes station i for inspection in tests and traces.
func (e *Engine) Station(i int) *backoff.Station { return e.stations[i] }

// Run executes the simulation until SimTime elapses and returns the
// aggregated result. Run may be called once per Engine.
func (e *Engine) Run() Result {
	res := Result{Inputs: e.in, PerStation: make([]StationStats, e.in.N)}

	// The first cycle's draws happen inside Start; its conditional
	// expectation must be captured before they do.
	if e.ctrl != nil {
		e.ctrl.predictInitial()
	}
	for i, s := range e.stations {
		e.intents[i] = s.Start()
	}

	var t float64
	for t <= e.in.SimTime {
		e.txs = e.txs[:0]
		for i, a := range e.intents {
			if a == backoff.Transmit {
				e.txs = append(e.txs, i)
			}
		}

		var kind SlotKind
		switch len(e.txs) {
		case 0:
			kind = Idle
		case 1:
			kind = Success
			// Channel error: the lone transmission is lost without a
			// collision. Decided before the observer fires so traces see
			// the true slot kind; the draw comes from a dedicated
			// stream, never the backoff streams, and only
			// single-transmitter events consume it.
			if w := e.txs[0]; e.errSrc != nil && e.errSrc[w] != nil && e.errSrc[w].Bernoulli(e.in.ErrorProb[w]) {
				kind = FrameError
			}
		default:
			kind = Collision
		}

		if e.observer != nil {
			for i, s := range e.stations {
				e.snaps[i] = s.Snapshot()
			}
			e.observer.OnSlot(t, kind, e.txs, e.snaps)
		}

		switch kind {
		case Idle:
			if e.observer != nil {
				// Traces must see every slot: step one at a time.
				res.IdleSlots++
				for i, s := range e.stations {
					e.intents[i] = s.AfterIdle()
				}
				t += timing.SlotTime
				break
			}
			fastForwardIdle(e.stations, e.intents, &t, e.in.SimTime, &res.IdleSlots)

		case Success:
			w := e.txs[0]
			res.Successes++
			res.PerStation[w].Successes++
			res.PerStation[w].Attempts++
			if e.ctrl != nil {
				e.ctrl.predictNext(t+e.in.Ts, w)
			}
			for i, s := range e.stations {
				e.intents[i] = s.AfterBusy(i == w, true)
			}
			t += e.in.Ts

		case FrameError:
			// The medium is busy for Ts either way (the frame was sent;
			// the loss happens at the receiver), but the transmitter's
			// ACK carries the all-blocks-errored indication, so its
			// backoff advances to the next stage like a failure.
			w := e.txs[0]
			res.FrameErrors++
			res.PerStation[w].Errored++
			res.PerStation[w].Attempts++
			if e.ctrl != nil {
				e.ctrl.predictNext(t+e.in.Ts, -1)
			}
			for i, s := range e.stations {
				e.intents[i] = s.AfterBusy(i == w, false)
			}
			t += e.in.Ts

		case Collision:
			res.CollisionEvents++
			res.CollidedFrames += int64(len(e.txs))
			for _, i := range e.txs {
				e.txMask[i] = true
				res.PerStation[i].Collided++
				res.PerStation[i].Attempts++
			}
			if e.ctrl != nil {
				e.ctrl.predictNext(t+e.in.Tc, -1)
			}
			for i, s := range e.stations {
				e.intents[i] = s.AfterBusy(e.txMask[i], false)
			}
			for _, i := range e.txs {
				e.txMask[i] = false
			}
			t += e.in.Tc
		}
	}

	res.Elapsed = t
	for i, s := range e.stations {
		res.PerStation[i].Deferrals = s.Deferrals()
		res.PerStation[i].Redraws = s.Redraws()
	}
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

// fastForwardIdle batches the provably idle run that begins at *t: when
// every station defers, the next min(BC) slots are empty and consume no
// randomness, so the per-station updates collapse into one AfterIdleN
// call. The per-slot time accounting is replayed scalar-wise (one
// SlotTime addition per slot) so the float accumulation — and the
// SimTime stopping point — stays bit-identical to the slot-by-slot
// loop.
func fastForwardIdle(stations []*backoff.Station, intents []backoff.Action, t *float64, simTime float64, idleSlots *int64) {
	m := stations[0].BC()
	for _, s := range stations[1:] {
		if bc := s.BC(); bc < m {
			m = bc
		}
	}
	k := 0
	for k < m && *t <= simTime {
		*idleSlots++
		*t += timing.SlotTime
		k++
	}
	for i, s := range stations {
		intents[i] = s.AfterIdleN(k)
	}
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
