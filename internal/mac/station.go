package mac

import (
	"fmt"

	"repro/internal/backoff"
	"repro/internal/config"
	"repro/internal/hpav"
	"repro/internal/rng"
	"repro/internal/traffic"
)

// BurstSpec describes what a flow transmits when its station wins the
// channel: a burst of MPDUs to a destination.
type BurstSpec struct {
	// Dst is the destination station.
	Dst hpav.TEI
	// DstAddr is the destination's MAC (the counter key ampstat uses).
	DstAddr hpav.MAC
	// Priority is the channel-access class of the burst.
	Priority config.Priority
	// MPDUs is the burst size (1–4). The paper's testbed measures 2.
	MPDUs int
	// PBsPerMPDU is the number of 512-byte physical blocks per MPDU.
	PBsPerMPDU int
	// FrameMicros is the on-wire payload duration of one MPDU.
	FrameMicros float64
}

// Validate checks the spec's ranges.
func (s BurstSpec) Validate() error {
	if s.MPDUs < 1 || s.MPDUs > hpav.MaxBurstMPDUs {
		return fmt.Errorf("mac: burst of %d MPDUs (must be 1–%d)", s.MPDUs, hpav.MaxBurstMPDUs)
	}
	if s.PBsPerMPDU < 1 {
		return fmt.Errorf("mac: %d PBs per MPDU (must be ≥ 1)", s.PBsPerMPDU)
	}
	if s.FrameMicros <= 0 {
		return fmt.Errorf("mac: frame duration %v must be positive", s.FrameMicros)
	}
	if !s.Priority.Valid() {
		return fmt.Errorf("mac: invalid priority %d", s.Priority)
	}
	return nil
}

// Flow binds a traffic source to a burst specification at one station.
type Flow struct {
	Source traffic.Source
	Spec   BurstSpec
}

// Station is one PLC station of the emulated network: per-priority
// backoff engines, traffic flows, and the firmware counter block.
// Per-class state lives in arrays indexed by config.Priority, so the
// medium loop never hashes.
type Station struct {
	// Name labels the station in traces ("sta1", "D", …).
	Name string
	// Addr is the station's MAC address.
	Addr hpav.MAC
	// TEI is the short identifier delimiters carry.
	TEI hpav.TEI

	flows     []*Flow
	params    [config.CA3 + 1]config.Params
	engines   [config.CA3 + 1]*backoff.Station
	active    [config.CA3 + 1]bool
	intents   [config.CA3 + 1]backoff.Action
	headSince [config.CA3 + 1]float64
	counters  *Counters
	src       *rng.Source

	// pending is the bitmask (bit pri) of classes with traffic at the
	// current medium event, built once per step by pendingMask.
	pending uint8

	burstSeq uint32

	// frameErrProb is the per-burst channel error probability of this
	// station's transmissions; errSrc is the dedicated stream the draws
	// come from (so errors never perturb backoff draws).
	frameErrProb float64
	errSrc       *rng.Source

	// SnifferEnabled mirrors the device's sniffer mode: when set, the
	// network delivers every observed SoF to the Sniffer callback.
	SnifferEnabled bool
	// Sniffer receives captured delimiters while SnifferEnabled.
	Sniffer func(ind hpav.SnifferInd)
}

// NewStation builds a station with the standard Table 1 parameters for
// every priority class.
func NewStation(name string, tei hpav.TEI, addr hpav.MAC, src *rng.Source) *Station {
	if src == nil {
		panic("mac: NewStation: nil rng source")
	}
	s := &Station{Name: name, Addr: addr, TEI: tei, counters: NewCounters(), src: src}
	for pri := range s.params {
		s.params[pri] = config.Default1901(config.Priority(pri))
	}
	return s
}

// SetParams overrides the CSMA/CA parameters of one priority class —
// the hook the boosting experiments use. It must be called before the
// network starts; changing parameters mid-run would desynchronize the
// engine state.
func (s *Station) SetParams(pri config.Priority, p config.Params) {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("mac: SetParams: %v", err))
	}
	if !pri.Valid() {
		panic(fmt.Sprintf("mac: SetParams: invalid priority %d", pri))
	}
	if s.engines[pri] != nil {
		panic("mac: SetParams after the engine started")
	}
	s.params[pri] = p
}

// SetFrameError gives the station's transmissions a per-burst channel
// error probability p ∈ [0, 1]: a burst that wins the medium alone is
// still lost with probability p (frame loss without collision). Draws
// come from src, a stream dedicated to this purpose — never from the
// backoff streams — so an errored scenario shares every backoff draw
// with its error-free twin. p = 0 restores the error-free channel.
func (s *Station) SetFrameError(p float64, src *rng.Source) {
	if p < 0 || p > 1 || p != p {
		panic(fmt.Sprintf("mac: SetFrameError(%v): probability outside [0, 1]", p))
	}
	if p > 0 && src == nil {
		panic("mac: SetFrameError: nil rng source")
	}
	s.frameErrProb = p
	s.errSrc = src
}

// AddFlow attaches a traffic flow. Flows are served in order: the first
// pending flow at the contending priority supplies the burst.
func (s *Station) AddFlow(f *Flow) {
	if f == nil || f.Source == nil {
		panic("mac: AddFlow: nil flow or source")
	}
	if err := f.Spec.Validate(); err != nil {
		panic(fmt.Sprintf("mac: AddFlow: %v", err))
	}
	s.flows = append(s.flows, f)
}

// Counters exposes the firmware counter block (the MME stats handler
// reads it).
func (s *Station) Counters() *Counters { return s.counters }

// pendingAt reports whether any flow of class pri has traffic at now.
func (s *Station) pendingAt(pri config.Priority, now float64) bool {
	for _, f := range s.flows {
		if f.Spec.Priority == pri && f.Source.Pending(now) {
			return true
		}
	}
	return false
}

// pendingMask returns the bitmask (bit pri) of classes with traffic at
// now, calling Pending at most once per flow: a flow whose class is
// already known pending is skipped. Skipping is safe because a source
// draws only from its own stream and Pending is repeatable for a
// non-decreasing now (the traffic.Source contract).
//
//plclint:noalloc
func (s *Station) pendingMask(now float64) uint8 {
	var m uint8
	for _, f := range s.flows {
		if bit := uint8(1) << f.Spec.Priority; m&bit == 0 && f.Source.Pending(now) {
			m |= bit
		}
	}
	return m
}

// nextArrival returns the earliest next arrival across flows.
func (s *Station) nextArrival(now float64) float64 {
	next := inf
	for _, f := range s.flows {
		if t := f.Source.NextArrival(now); t < next {
			next = t
		}
	}
	return next
}

// contend ensures the station's backoff engine for class pri is live
// and returns its current intent. A station whose queue drained resets
// to backoff stage 0 on the next frame, per the standard ("upon the
// arrival of a new packet, a transmitting station enters backoff
// stage 0").
func (s *Station) contend(pri config.Priority, now float64) backoff.Action {
	eng := s.engines[pri]
	if eng == nil {
		eng = backoff.NewStation(s.params[pri], s.src.Split(uint64(pri)))
		s.engines[pri] = eng
	}
	if !s.active[pri] {
		eng.Reset()
		s.intents[pri] = eng.Start()
		s.active[pri] = true
		s.headSince[pri] = now
	}
	return s.intents[pri]
}

// afterIdle advances class pri across an idle slot.
func (s *Station) afterIdle(pri config.Priority) {
	s.intents[pri] = s.engines[pri].AfterIdle()
}

// afterIdleN advances class pri across k batched idle slots (the
// network's idle fast-forward); bit-identical to k afterIdle calls.
func (s *Station) afterIdleN(pri config.Priority, k int) {
	s.intents[pri] = s.engines[pri].AfterIdleN(k)
}

// backoffAt returns the live backoff counter of class pri. It must only
// be called while the class is contending (engine started).
func (s *Station) backoffAt(pri config.Priority) int { return s.engines[pri].BC() }

// afterBusy advances class pri across a busy period.
func (s *Station) afterBusy(pri config.Priority, transmitted, success bool) {
	s.intents[pri] = s.engines[pri].AfterBusy(transmitted, success)
}

// quiesce marks the class inactive (queue drained): the next frame
// restarts at stage 0.
func (s *Station) quiesce(pri config.Priority) { s.active[pri] = false }

// takeBurst consumes one frame from the first pending flow at pri and
// materializes the burst it describes.
func (s *Station) takeBurst(pri config.Priority, now float64) (*hpav.Burst, BurstSpec) {
	spec := s.takeSpec(pri, now)
	b, err := hpav.NewBurst(spec.MPDUs, s.TEI, spec.Dst, pri,
		spec.PBsPerMPDU, spec.FrameMicros, s.burstSeq)
	if err != nil {
		panic(fmt.Sprintf("mac: takeBurst: %v", err)) // spec validated at AddFlow
	}
	return b, spec
}

// takeSpec consumes one frame from the first pending flow at pri without
// materializing the burst — the allocation-free success path used when
// no observer or sniffer needs the delimiters. The burst sequence number
// still advances so that captures started later see the same numbering.
func (s *Station) takeSpec(pri config.Priority, now float64) BurstSpec {
	for _, f := range s.flows {
		if f.Spec.Priority != pri || !f.Source.Pending(now) {
			continue
		}
		f.Source.Take(now)
		s.burstSeq++
		return f.Spec
	}
	panic("mac: takeSpec called with no pending flow")
}

// peekBurst materializes the head-of-line burst at pri without
// consuming the frame or advancing the burst sequence — the
// channel-error path, where the burst stays queued and a later
// successful delivery reuses the same numbering (a retransmission).
func (s *Station) peekBurst(pri config.Priority, now float64) (*hpav.Burst, BurstSpec) {
	spec := s.peekSpec(pri, now)
	b, err := hpav.NewBurst(spec.MPDUs, s.TEI, spec.Dst, pri,
		spec.PBsPerMPDU, spec.FrameMicros, s.burstSeq)
	if err != nil {
		panic(fmt.Sprintf("mac: peekBurst: %v", err)) // spec validated at AddFlow
	}
	return b, spec
}

// peekSpec returns the burst specification of the first pending flow at
// pri without consuming the frame — used by the collision path, where
// the frame stays queued for retry.
func (s *Station) peekSpec(pri config.Priority, now float64) BurstSpec {
	for _, f := range s.flows {
		if f.Spec.Priority == pri && f.Source.Pending(now) {
			return f.Spec
		}
	}
	panic("mac: peekSpec called with no pending flow")
}
