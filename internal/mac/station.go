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
// A flow belongs to the one station it is added to.
type Flow struct {
	Source traffic.Source
	Spec   BurstSpec

	// AddFlow recognizes the two common sources, so the medium loop
	// asks neither through the interface: a saturated flow is always
	// pending, and poisson is Source when it is a *traffic.Poisson.
	saturated bool
	poisson   *traffic.Poisson
	// tx is the sender's firmware counter cell of the flow's link (set
	// by AddFlow); rx is the destination's mirror cell, set by
	// Network.Run once a station with TEI Spec.Dst is attached.
	tx, rx *LinkCounters
}

// pending is Source.Pending(now).
func (f *Flow) pending(now float64) bool {
	switch {
	case f.saturated:
		return true
	case f.poisson != nil:
		return f.poisson.Pending(now)
	}
	return f.Source.Pending(now)
}

// take is Source.Take(now).
func (f *Flow) take(now float64) {
	switch {
	case f.saturated:
	case f.poisson != nil:
		f.poisson.Take(now)
	default:
		f.Source.Take(now)
	}
}

// countAcked adds k acknowledged MPDUs to a flow's link, on the sender
// and, when the destination is attached, on its mirror rx link.
func (f *Flow) countAcked(k uint64) {
	f.tx.Acked += k
	if f.rx != nil {
		f.rx.Acked += k
	}
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

	flows []*Flow
	// saturated is the bitmask (bit pri) of the classes that have a
	// saturated flow: they are pending at every instant.
	saturated uint8
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
	f.tx = s.counters.link(LinkKey{Peer: f.Spec.DstAddr, Priority: f.Spec.Priority, Direction: hpav.DirectionTx})
	s.flows = append(s.flows, f)
	switch src := f.Source.(type) {
	case traffic.Saturated:
		f.saturated = true
		s.saturated |= 1 << f.Spec.Priority
	case *traffic.Poisson:
		f.poisson = src
	}
}

// Counters exposes the firmware counter block (the MME stats handler
// reads it).
func (s *Station) Counters() *Counters { return s.counters }

// head returns the first flow of class pri with traffic at now, or nil.
// Flows are served in the order they were added.
func (s *Station) head(pri config.Priority, now float64) *Flow {
	for _, f := range s.flows {
		if f.Spec.Priority == pri && f.pending(now) {
			return f
		}
	}
	return nil
}

// pendingMask returns the bitmask (bit pri) of classes with traffic at
// now. A saturated class is pending without asking any flow; every
// other flow is asked at most once, and not at all once its class is
// known pending. Skipping is safe because a source draws only from its
// own stream and Pending is repeatable for a non-decreasing now (the
// traffic.Source contract).
//
//plclint:noalloc
func (s *Station) pendingMask(now float64) uint8 {
	m := s.saturated
	for _, f := range s.flows {
		if bit := uint8(1) << f.Spec.Priority; m&bit == 0 && f.pending(now) {
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

// take consumes one frame from the first pending flow at pri and
// returns that flow. The burst sequence number advances whether or not
// the burst is materialized, so captures started later see the same
// numbering.
func (s *Station) take(pri config.Priority, now float64) *Flow {
	f := s.head(pri, now)
	if f == nil {
		panic("mac: take called with no pending flow")
	}
	f.take(now)
	s.burstSeq++
	return f
}

// peek returns the first pending flow at pri without consuming its
// frame: the collision and channel-error paths, where the burst stays
// queued for retry.
func (s *Station) peek(pri config.Priority, now float64) *Flow {
	f := s.head(pri, now)
	if f == nil {
		panic("mac: peek called with no pending flow")
	}
	return f
}

// burst materializes the delimiters of a burst of spec, numbered with
// the current burst sequence: after take, the new frame's number; after
// peek, the number a retransmission reuses. Only observers and sniffers
// need them; the unobserved loop stays allocation-free without them.
func (s *Station) burst(spec BurstSpec) *hpav.Burst {
	b, err := hpav.NewBurst(spec.MPDUs, s.TEI, spec.Dst, spec.Priority,
		spec.PBsPerMPDU, spec.FrameMicros, s.burstSeq)
	if err != nil {
		panic(fmt.Sprintf("mac: burst: %v", err)) // spec validated at AddFlow
	}
	return b
}
