package mac

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/backoff"
	"repro/internal/config"
	"repro/internal/hpav"
	"repro/internal/timing"
)

var inf = math.Inf(1)

// EventKind classifies what happened on the medium.
type EventKind int

const (
	// EventIdle is an empty contention slot.
	EventIdle EventKind = iota
	// EventSuccess is a burst delivered without collision.
	EventSuccess
	// EventCollision is two or more overlapping bursts.
	EventCollision
	// EventQuiet is a traffic-less fast-forward period (unsaturated
	// scenarios only).
	EventQuiet
	// EventBeacon is a central-coordinator beacon busy period.
	EventBeacon
	// EventError is a single-transmitter burst lost to a channel error:
	// no collision, but the destination received every block corrupted
	// and acknowledged with the all-errored indication.
	EventError
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventIdle:
		return "idle"
	case EventSuccess:
		return "success"
	case EventCollision:
		return "collision"
	case EventQuiet:
		return "quiet"
	case EventBeacon:
		return "beacon"
	case EventError:
		return "error"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event describes one medium event for observers.
type Event struct {
	// Time is the event's start in simulated µs.
	Time float64
	// Duration of the event.
	Duration float64
	// Kind of event.
	Kind EventKind
	// Class is the contending priority class (success/collision/idle
	// with contenders present).
	Class config.Priority
	// Transmitters lists the stations that transmitted.
	Transmitters []hpav.TEI
	// Burst is the burst delivered on success or lost on a channel
	// error (nil otherwise).
	Burst *hpav.Burst
	// ErroredPBs counts the physical blocks the channel corrupted: the
	// whole burst on EventError, zero otherwise.
	ErroredPBs int
}

// Observer receives every medium event. Callbacks run on the simulation
// goroutine; the Event's Burst is shared — do not mutate.
type Observer interface {
	OnEvent(ev Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(ev Event)

// OnEvent calls f.
func (f ObserverFunc) OnEvent(ev Event) { f(ev) }

// Stats aggregates network-level outcomes of a run.
type Stats struct {
	// Successes counts successful bursts; SuccessMPDUs the MPDUs they
	// carried.
	Successes    int64
	SuccessMPDUs int64
	// Collisions counts collision events; CollidedMPDUs the MPDUs of
	// all bursts involved.
	Collisions    int64
	CollidedMPDUs int64
	// IdleSlots counts empty contention slots with contenders present.
	IdleSlots int64
	// FrameErrors counts single-transmitter bursts lost to channel
	// errors (per-station frame loss, no collision); FrameErrorMPDUs
	// the MPDUs they carried.
	FrameErrors     int64
	FrameErrorMPDUs int64
	// QuietTime is simulated time with no pending traffic anywhere.
	QuietTime float64
	// Elapsed is the total simulated time advanced.
	Elapsed float64
	// PayloadMicros is the cumulative useful payload time delivered.
	PayloadMicros float64
	// ErroredPBs counts the physical blocks of bursts lost to channel
	// errors; DeliveredPBs those of delivered bursts.
	ErroredPBs   int64
	DeliveredPBs int64
	// Beacons counts central-coordinator beacon periods.
	Beacons int64
	// AccessDelays holds one sample per successful burst — the time
	// from the frame reaching the head of its queue to the end of its
	// successful transmission (µs) — when delay recording is enabled.
	AccessDelays []float64
	// PerClass breaks successes/collisions down by priority class.
	PerClass map[config.Priority]*ClassStats
}

// ClassStats are per-priority outcome counts. Successes + Collisions +
// FrameErrors accounts for every data busy period of the class.
type ClassStats struct {
	Successes   int64
	Collisions  int64
	FrameErrors int64
}

// Network is the single contention domain ("all stations are attached
// to the same power strip") coordinating the attached stations.
type Network struct {
	stations []*Station
	byTEI    map[hpav.TEI]*Station
	byAddr   map[hpav.MAC]*Station

	overheads timing.Overheads

	clock     float64
	observers []Observer
	stats     Stats // PerClass stays nil: Stats() builds it from perClass
	perClass  [config.CA3 + 1]ClassStats

	beaconPeriod float64
	nextBeacon   float64
	recordDelays bool

	// Scratch buffers reused across medium events so that the steady-state
	// loop is allocation-free (observers get freshly allocated Event
	// slices; the scratch is only shared with the unobserved fast path).
	classScratch     []config.Priority
	contenderScratch []*Station
	txScratch        []*Station
}

// Config is a contention domain's one configuration: what the
// declarative scenario layer (internal/scenario) and the testbed hand to
// NewNetworkCfg. The zero value reproduces the paper's medium exactly:
// default Table-derived overheads, no beacons, no delay recording.
// Channel errors are per station (Station.SetFrameError).
type Config struct {
	// Overheads replaces the timing overheads; nil keeps
	// timing.DefaultOverheads(). They must be valid.
	Overheads *timing.Overheads
	// BeaconPeriodMicros, when positive, makes the domain carry a
	// central-coordinator beacon every period µs (HomePlug AV beacons
	// every two AC line cycles: 33.33 ms at 60 Hz, 40 ms at 50 Hz).
	// Beacons are delimiter-only busy periods sent without contention;
	// every contending station senses them busy, consuming one counter
	// decrement like any other busy period.
	BeaconPeriodMicros float64
	// RecordDelays enables per-burst access-delay sampling into
	// Stats.AccessDelays (off by default: a week-long run would
	// accumulate millions of samples).
	RecordDelays bool
}

// NewNetworkCfg builds an empty contention domain from its
// configuration. It panics on invalid overheads.
func NewNetworkCfg(cfg Config) *Network {
	n := &Network{
		byTEI:        make(map[hpav.TEI]*Station),
		byAddr:       make(map[hpav.MAC]*Station),
		overheads:    timing.DefaultOverheads(),
		recordDelays: cfg.RecordDelays,
	}
	if cfg.Overheads != nil {
		if err := cfg.Overheads.Validate(); err != nil {
			panic(fmt.Sprintf("mac: NewNetworkCfg: %v", err))
		}
		n.overheads = *cfg.Overheads
	}
	if cfg.BeaconPeriodMicros > 0 {
		n.beaconPeriod = cfg.BeaconPeriodMicros
		n.nextBeacon = cfg.BeaconPeriodMicros
	}
	return n
}

// Attach adds a station to the contention domain. TEIs and MACs must be
// unique.
func (n *Network) Attach(s *Station) {
	if s == nil {
		panic("mac: Attach(nil)")
	}
	if _, dup := n.byTEI[s.TEI]; dup {
		panic(fmt.Sprintf("mac: duplicate TEI %d", s.TEI))
	}
	if _, dup := n.byAddr[s.Addr]; dup {
		panic(fmt.Sprintf("mac: duplicate MAC %s", s.Addr))
	}
	n.stations = append(n.stations, s)
	n.byTEI[s.TEI] = s
	n.byAddr[s.Addr] = s
}

// Observe registers an observer for medium events.
func (n *Network) Observe(o Observer) { n.observers = append(n.observers, o) }

// Station returns the station with the given TEI, or nil.
func (n *Network) Station(tei hpav.TEI) *Station { return n.byTEI[tei] }

// StationByAddr returns the station with the given MAC, or nil.
func (n *Network) StationByAddr(addr hpav.MAC) *Station { return n.byAddr[addr] }

// Stations returns the attached stations in attach order.
func (n *Network) Stations() []*Station { return n.stations }

// Now returns the current simulated time in µs.
func (n *Network) Now() float64 { return n.clock }

// Stats returns a copy of the aggregate statistics so far.
func (n *Network) Stats() Stats {
	out := n.stats
	out.PerClass = make(map[config.Priority]*ClassStats)
	for pri, c := range n.perClass {
		if c != (ClassStats{}) {
			out.PerClass[config.Priority(pri)] = &c
		}
	}
	out.AccessDelays = append([]float64(nil), n.stats.AccessDelays...)
	return out
}

func (n *Network) emit(ev Event) {
	for _, o := range n.observers {
		o.OnEvent(ev)
	}
}

// Run advances the network by the given simulated duration (µs). It can
// be called repeatedly; the paper's reset–run–fetch cycle maps to
// Counters.Reset, Run, Counters.Fetch.
func (n *Network) Run(duration float64) {
	if duration <= 0 || math.IsNaN(duration) || math.IsInf(duration, 0) {
		panic(fmt.Sprintf("mac: Run(%v): duration must be positive and finite", duration))
	}
	end := n.clock + duration
	for n.clock < end {
		n.step(end)
	}
	n.stats.Elapsed = n.clock
}

// step executes one medium event. It is the steady-state loop
// BenchmarkMACNetworkSteadyState pins at 0 allocs/op; the escape gate
// keeps it that way statically.
//
//plclint:noalloc
func (n *Network) step(end float64) {
	now := n.clock

	// Beacon region: the central coordinator's beacon preempts the
	// contention period.
	if n.beaconPeriod > 0 && n.nextBeacon <= now {
		n.beacon(now)
		return
	}

	// Priority resolution: each station that intends to contend
	// signals its class in the two priority-resolution slots; the tone
	// protocol elects the highest contending class and every lower
	// class defers (its engines freeze). This is the step's one pass
	// over the flows: contender selection reads the same masks.
	classes := n.classScratch[:0]
	for _, s := range n.stations {
		if s.pending = s.pendingMask(now); s.pending != 0 {
			classes = append(classes, config.Priority(bits.Len8(s.pending)-1))
		}
	}
	n.classScratch = classes[:0]
	activeClass, anyPending := ResolvePriority(classes)

	if !anyPending {
		// Fast-forward to the next arrival (or the run's end).
		next := end
		for _, s := range n.stations {
			if t := s.nextArrival(now); t < next {
				next = t
			}
		}
		if next <= now {
			next = now + timing.SlotTime
		}
		d := next - now
		n.stats.QuietTime += d
		n.clock = next
		n.emit(Event{Time: now, Duration: d, Kind: EventQuiet})
		return
	}

	// Contenders: stations with pending traffic in the active class.
	contenders := n.contenderScratch[:0]
	txs := n.txScratch[:0]
	for _, s := range n.stations {
		if s.pending&(1<<activeClass) == 0 {
			continue
		}
		contenders = append(contenders, s)
		if s.contend(activeClass, now) == backoff.Transmit {
			txs = append(txs, s)
		}
	}
	n.contenderScratch = contenders[:0]
	n.txScratch = txs[:0]

	switch len(txs) {
	case 0:
		if len(n.observers) == 0 {
			// Idle fast-forward: batch every provably idle slot. With
			// observers installed the network steps slot by slot so that
			// traces see every medium event; both paths are bit-identical.
			k, t := n.idleRun(contenders, activeClass, now, end)
			n.stats.IdleSlots += int64(k)
			for _, s := range contenders {
				s.afterIdleN(activeClass, k)
			}
			n.clock = t
			return
		}
		n.stats.IdleSlots++
		for _, s := range contenders {
			s.afterIdle(activeClass)
		}
		n.clock = now + timing.SlotTime
		n.emit(Event{Time: now, Duration: timing.SlotTime, Kind: EventIdle, Class: activeClass})

	case 1:
		// Per-station channel error: a lone transmission can still be
		// lost (impulsive noise). The draw comes from the station's
		// dedicated error stream, so enabling errors never perturbs
		// backoff draws, and only single-transmitter events consume it.
		if w := txs[0]; w.frameErrProb > 0 && w.errSrc.Bernoulli(w.frameErrProb) {
			n.frameError(w, activeClass, now)
		} else {
			n.success(w, activeClass, now)
		}

	default:
		n.collision(txs, activeClass, now)
	}
}

// burstDuration is the busy period of a burst of k MPDUs transmitted
// without collision (delivered or channel-errored): priority
// resolution + each MPDU's preamble and payload + the response
// interval with one selective ACK + CIFS.
func (n *Network) burstDuration(k int, frameMicros float64) float64 {
	o := n.overheads
	return o.PRS + float64(k)*(o.Preamble+frameMicros) + o.RIFS + o.Ack + o.CIFS
}

// frameError wastes one success-shaped busy period on a burst the
// channel corrupted end to end. The destination decodes the robust
// preamble and acknowledges with the all-blocks-errored indication
// (Section 3.2 semantics), so the transmitter's Acked counter advances,
// its backoff moves to the next stage like any failed attempt, and the
// burst stays queued for retry — exactly the collision path's retry
// rule, but with a single transmitter. The SoF delimiters are robustly
// coded, so sniffer-enabled stations still capture the errored burst.
func (n *Network) frameError(w *Station, pri config.Priority, now float64) {
	observed := len(n.observers) > 0
	needBurst := observed || n.snifferActive()
	var burst *hpav.Burst
	var spec BurstSpec
	if needBurst {
		burst, spec = w.peekBurst(pri, now) // not consumed: the burst is retried
	} else {
		spec = w.peekSpec(pri, now)
	}
	k := spec.MPDUs
	d := n.burstDuration(k, spec.FrameMicros)

	txKey := LinkKey{Peer: spec.DstAddr, Priority: pri, Direction: hpav.DirectionTx}
	w.counters.AddAcked(txKey, uint64(k))
	if dst := n.byTEI[spec.Dst]; dst != nil {
		rxKey := LinkKey{Peer: w.Addr, Priority: pri, Direction: hpav.DirectionRx}
		dst.counters.AddAcked(rxKey, uint64(k))
	}

	if needBurst {
		n.capture(burst, now)
	}

	for _, s := range n.stations {
		if !s.active[pri] {
			continue
		}
		s.afterBusy(pri, s == w, false)
	}

	n.stats.FrameErrors++
	n.stats.FrameErrorMPDUs += int64(k)
	n.stats.ErroredPBs += int64(k * spec.PBsPerMPDU)
	n.perClass[pri].FrameErrors++
	n.clock = now + d
	if observed {
		n.emit(Event{
			Time: now, Duration: d, Kind: EventError, Class: pri,
			Transmitters: []hpav.TEI{w.TEI}, Burst: burst,
			ErroredPBs: k * spec.PBsPerMPDU,
		})
	}
}

// idleRun returns how many consecutive idle slots can be batched
// starting at now, together with the clock value after them. A slot can
// join the batch only while nothing can change the contention picture:
// the batch is bounded by the earliest backoff expiry (min BC slots from
// now a station transmits), the run's end, the next beacon and the next
// traffic arrival at any station. The clock accumulates one SlotTime
// addition per slot so the floating-point trajectory stays bit-identical
// to the slot-by-slot path; backoff counters advance in one AfterIdleN
// batch, which is what removes the O(contenders) work per idle slot.
//
//plclint:noalloc
func (n *Network) idleRun(contenders []*Station, pri config.Priority, now, end float64) (int, float64) {
	m := contenders[0].backoffAt(pri)
	for _, s := range contenders[1:] {
		if bc := s.backoffAt(pri); bc < m {
			m = bc
		}
	}
	k := 1
	t := now + timing.SlotTime
	if m == 1 {
		return k, t
	}
	// Earliest instant a currently empty flow could gain traffic; an
	// arrival can add a contender or raise the resolved priority class,
	// so the batch must stop before the first slot that would see it.
	nextArrival := inf
	for _, s := range n.stations {
		for _, f := range s.flows {
			if f.Source.Pending(now) {
				continue
			}
			if a := f.Source.NextArrival(now); a < nextArrival {
				nextArrival = a
			}
		}
	}
	for k < m && t < end && t < nextArrival && !(n.beaconPeriod > 0 && n.nextBeacon <= t) {
		t += timing.SlotTime
		k++
	}
	return k, t
}

// snifferActive reports whether any station is capturing delimiters.
func (n *Network) snifferActive() bool {
	for _, s := range n.stations {
		if s.SnifferEnabled && s.Sniffer != nil {
			return true
		}
	}
	return false
}

// success delivers the winner's burst. The burst's delimiters are only
// materialized when an observer or sniffer will see them; the counters
// and timing need just the spec, which keeps the unobserved loop
// allocation-free.
func (n *Network) success(w *Station, pri config.Priority, now float64) {
	observed := len(n.observers) > 0
	needBurst := observed || n.snifferActive()
	var burst *hpav.Burst
	var spec BurstSpec
	if needBurst {
		burst, spec = w.takeBurst(pri, now)
	} else {
		spec = w.takeSpec(pri, now)
	}
	k := spec.MPDUs

	d := n.burstDuration(k, spec.FrameMicros)

	// Firmware counters: the transmitter's tx link gets k acked MPDUs;
	// the destination's rx link mirrors them.
	txKey := LinkKey{Peer: spec.DstAddr, Priority: pri, Direction: hpav.DirectionTx}
	w.counters.AddAcked(txKey, uint64(k))
	if dst := n.byTEI[spec.Dst]; dst != nil {
		rxKey := LinkKey{Peer: w.Addr, Priority: pri, Direction: hpav.DirectionRx}
		dst.counters.AddAcked(rxKey, uint64(k))
	}

	// Sniffer capture: stations in sniffer mode hear every SoF of the
	// burst (same contention domain).
	if needBurst {
		n.capture(burst, now)
	}

	// Backoff: winner restarts at stage 0; other contenders absorb one
	// busy period.
	for _, s := range n.stations {
		if !s.active[pri] {
			continue
		}
		if s == w {
			s.afterBusy(pri, true, true)
		} else {
			s.afterBusy(pri, false, true)
		}
	}
	if n.recordDelays {
		n.stats.AccessDelays = append(n.stats.AccessDelays, now+d-w.headSince[pri])
	}
	if w.pendingAt(pri, now) {
		// The next frame becomes head of line when this burst ends.
		w.headSince[pri] = now + d
	} else {
		w.quiesce(pri)
	}

	n.stats.Successes++
	n.stats.SuccessMPDUs += int64(k)
	n.stats.PayloadMicros += float64(k) * spec.FrameMicros
	n.stats.DeliveredPBs += int64(k * spec.PBsPerMPDU)
	n.perClass[pri].Successes++
	n.clock = now + d
	if observed {
		n.emit(Event{
			Time: now, Duration: d, Kind: EventSuccess, Class: pri,
			Transmitters: []hpav.TEI{w.TEI}, Burst: burst,
		})
	}
}

// collision wastes the medium for all transmitters. The colliding
// frames are NOT consumed from their flows: the retry limit is
// infinite, the station re-contends with the same frame (the paper's
// simulator makes the same assumption).
func (n *Network) collision(txs []*Station, pri config.Priority, now float64) {
	observed := len(n.observers) > 0
	var teis []hpav.TEI
	if observed {
		teis = make([]hpav.TEI, 0, len(txs))
	}
	var maxFrame float64
	var collidedMPDUs int64

	for _, s := range txs {
		spec := s.peekSpec(pri, now)
		if observed {
			teis = append(teis, s.TEI)
		}
		if spec.FrameMicros > maxFrame {
			maxFrame = spec.FrameMicros
		}
		k := uint64(spec.MPDUs)
		collidedMPDUs += int64(k)
		// Section 3.2: the destination decodes the robust preamble and
		// acknowledges the collided frame with an all-errored
		// indication — so the Acked counter advances together with the
		// Collided counter.
		txKey := LinkKey{Peer: spec.DstAddr, Priority: pri, Direction: hpav.DirectionTx}
		s.counters.AddAcked(txKey, k)
		s.counters.AddCollided(txKey, k)
	}

	o := n.overheads
	d := o.CollisionDuration(maxFrame)

	for _, s := range n.stations {
		if !s.active[pri] {
			continue
		}
		transmitted := false
		for _, x := range txs {
			if x == s {
				transmitted = true
				break
			}
		}
		s.afterBusy(pri, transmitted, false)
	}

	n.stats.Collisions++
	n.stats.CollidedMPDUs += collidedMPDUs
	n.perClass[pri].Collisions++
	n.clock = now + d
	if observed {
		n.emit(Event{
			Time: now, Duration: d, Kind: EventCollision, Class: pri,
			Transmitters: teis,
		})
	}
}

// capture fans captured SoF delimiters out to sniffer-enabled stations.
func (n *Network) capture(burst *hpav.Burst, now float64) {
	for _, s := range n.stations {
		if !s.SnifferEnabled || s.Sniffer == nil {
			continue
		}
		for i := range burst.MPDUs {
			s.Sniffer(hpav.SnifferInd{
				TimestampMicros: uint64(now),
				SoF:             burst.MPDUs[i].SoF,
			})
		}
	}
}

// beacon carries one central-coordinator beacon: a delimiter-only busy
// period every station senses.
func (n *Network) beacon(now float64) {
	d := n.overheads.Preamble + n.overheads.CIFS
	for _, s := range n.stations {
		for pri := config.CA0; pri <= config.CA3; pri++ {
			if s.active[pri] {
				s.afterBusy(pri, false, true)
			}
		}
	}
	n.stats.Beacons++
	n.nextBeacon += n.beaconPeriod
	n.clock = now + d
	n.emit(Event{Time: now, Duration: d, Kind: EventBeacon})
}
