// Package scenario is the declarative layer over the repository's three
// engines: a JSON-serializable Spec describes an operating regime —
// station groups with heterogeneous CW/DC vectors, priorities, traffic
// (saturated, Poisson or silent), per-station channel error
// probabilities, beacons, timing and seed policy — and compiles into
// the slot-synchronous sim.Engine, the event-driven mac.Network, or the
// analytic decoupling-approximation model (engine "model"), whichever
// can express it.
//
// Where internal/experiments hard-codes each paper table and figure as
// a bespoke function, a Spec reaches every regime those functions span
// (and ones they cannot, such as per-station frame loss without
// collision, or mixed saturated/Poisson populations) from one file
// format, so new operating points need no new Go code.
//
// Replications shards R independent-seed replications of a compiled
// scenario across the deterministic internal/par worker pool and
// aggregates each metric's mean, standard deviation and 95% confidence
// interval via internal/stats. Results are order-preserving and
// bit-identical whatever the worker count.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/config"
	"repro/internal/hpav"
	"repro/internal/stats"
)

// Engine names accepted by Spec.Engine.
const (
	// EngineAuto lets Compile pick: the minimal slot-synchronous
	// simulator when the spec is expressible there, the event-driven MAC
	// otherwise.
	EngineAuto = "auto"
	// EngineSim is the slot-synchronous port of the paper's sim_1901
	// (single priority, saturated, one frame per transmission).
	EngineSim = "sim"
	// EngineMac is the event-driven multi-priority MAC behind the
	// emulated testbed (bursts, priorities, Poisson traffic, beacons).
	EngineMac = "mac"
	// EngineModel answers the scenario analytically through the loaded
	// decoupling-approximation fixed point (internal/model) instead of
	// simulating: microseconds per point instead of seconds. It covers
	// saturated, Poisson and silent traffic, mixed CA0–CA3 priority
	// classes, heterogeneous CW/DC groups and per-station channel
	// errors; only genuinely event-driven features — beacons,
	// multi-MPDU bursts, non-default per-group PHY framing — still
	// require EngineMac. Model points are deterministic: the seed is
	// ignored and replications collapse to a single evaluation (n=1,
	// no CI).
	EngineModel = "model"
)

// Spec-wide physical defaults Normalized writes out.
const (
	// defaultFrameMicros is the frame payload duration in µs when the
	// spec leaves frame_us unset (the paper's 2050 µs payload).
	defaultFrameMicros = 2050
	// defaultTsMicros is the success duration in µs when the spec
	// leaves ts_us unset (the paper's 2542.64 µs).
	defaultTsMicros = 2542.64
	// defaultPBsPerMPDU is the physical-block count per MPDU the mac
	// engine assumes when a group leaves pbs_per_mpdu unset.
	defaultPBsPerMPDU = 4
)

// Seed policies accepted by Spec.SeedPolicy.
const (
	// SeedSplit (the default) derives every replication's seed from the
	// base seed through a SplitMix64-style mix, decorrelating
	// replications and sweep points.
	SeedSplit = "split"
	// SeedIncrement uses base+r for replication r at every sweep point —
	// the convention of the classic sim1901 -n sweeps, where each N
	// reuses the same seed.
	SeedIncrement = "increment"
)

// Traffic kinds accepted by Traffic.Kind.
const (
	// TrafficSaturated always has a frame queued (the regime of every
	// validation experiment in the paper).
	TrafficSaturated = "saturated"
	// TrafficPoisson generates exponentially spaced arrivals with
	// MeanInterarrivalMicros. Simulates on the mac engine; the model
	// engine answers it through the loaded fixed point.
	TrafficPoisson = "poisson"
	// TrafficNone attaches a silent station (it contends for nothing but
	// occupies an address). Simulates on the mac engine; the model
	// engine excludes it from contention.
	TrafficNone = "none"
)

// Variance-reduction kinds accepted by VarianceReduction.Kind.
const (
	// VRNone disables variance reduction explicitly; a block with this
	// kind normalizes away entirely, so a spec carrying it is
	// byte-identical (and fingerprint-identical) to one without the
	// block.
	VRNone = "none"
	// VRControlVariate estimates every metric as sim − β·control using
	// the engine's martingale control variates (sim.Result.Controls)
	// under common random numbers: the controls consume no randomness,
	// so the underlying replications are bit-identical to a plain run's.
	// Requires a sim-engine-expressible spec.
	VRControlVariate = "control_variate"
)

// VarianceReduction configures the control-variate estimator of the
// replication path. The zero values of the tuning fields select the
// internal/stats defaults; Normalized writes them out explicitly so
// fingerprints pin them.
type VarianceReduction struct {
	// Kind is "none" or "control_variate".
	Kind string `json:"kind"`
	// PilotReps is the smallest sample on which a fitted β is trusted
	// (default stats.DefaultPilotReps).
	PilotReps int `json:"pilot_reps,omitempty"`
	// MinCorr gates the fit on the multiple correlation between metric
	// and controls (default stats.DefaultMinCorr).
	MinCorr float64 `json:"min_corr,omitempty"`
	// MaxBeta clamps each coefficient to MaxBeta·sd(y)/sd(c) (default
	// stats.DefaultMaxBeta).
	MaxBeta float64 `json:"max_beta,omitempty"`
}

// Traffic describes one station group's arrival process.
type Traffic struct {
	// Kind is one of the Traffic* constants; empty means saturated.
	Kind string `json:"kind,omitempty"`
	// MeanInterarrivalMicros is the Poisson mean inter-arrival time in
	// µs; required iff Kind is "poisson".
	MeanInterarrivalMicros float64 `json:"mean_interarrival_us,omitempty"`
}

// Group declares Count identically configured stations.
type Group struct {
	// Count is the number of stations in the group (≥ 1).
	Count int `json:"count"`
	// CW and DC are the per-stage contention windows and initial
	// deferral counters (the paper's cw/dc vectors). Both or neither
	// must be given; when absent, the Table 1 defaults of the group's
	// priority apply.
	CW []int `json:"cw,omitempty"`
	DC []int `json:"dc,omitempty"`
	// Priority is the channel-access class ("CA0".."CA3"); default CA1,
	// the class of all the paper's data traffic.
	Priority string `json:"priority,omitempty"`
	// Traffic is the group's arrival process; nil means saturated.
	Traffic *Traffic `json:"traffic,omitempty"`
	// ErrorProb is the per-frame channel error probability in [0, 1]:
	// frame loss without collision. 0 keeps the paper's error-free
	// channel.
	ErrorProb float64 `json:"error_prob,omitempty"`
	// BurstMPDUs is the MPDU burst size (mac engine only; default 1, so
	// that sim and mac scenarios compare like for like — the paper's
	// testbed uses 2).
	BurstMPDUs int `json:"burst_mpdus,omitempty"`
	// PBsPerMPDU is the physical-block count per MPDU (mac engine only;
	// default 4).
	PBsPerMPDU int `json:"pbs_per_mpdu,omitempty"`
	// FrameMicros overrides the per-MPDU payload duration for this group
	// (mac engine only; default: the spec-level frame_us).
	FrameMicros float64 `json:"frame_us,omitempty"`
}

// Spec is a declarative scenario: everything a run needs except the
// replication count, which is a property of the study, not the regime.
//
// The zero values of the optional fields reproduce the paper's
// defaults; Normalized returns the spec with every default made
// explicit.
type Spec struct {
	// Name identifies the scenario in reports (required).
	Name string `json:"name"`
	// Description is free text for humans.
	Description string `json:"description,omitempty"`
	// Engine selects the simulator: "sim", "mac", or "auto"/"" to let
	// Compile decide.
	Engine string `json:"engine,omitempty"`
	// SimTimeMicros is the simulated duration per replication in µs
	// (required; the paper's validation runs use 5e8).
	SimTimeMicros float64 `json:"sim_time_us"`
	// Seed is the base random seed (default 1). Replication r derives
	// its own seed from it according to SeedPolicy.
	Seed uint64 `json:"seed,omitempty"`
	// SeedPolicy is "split" (default) or "increment"; see the Seed*
	// constants.
	SeedPolicy string `json:"seed_policy,omitempty"`
	// SweepN, when non-empty, turns the scenario into a sweep over total
	// station counts: the spec must then declare exactly one group,
	// whose Count is replaced by each sweep value in turn.
	SweepN []int `json:"sweep_n,omitempty"`
	// TcMicros and TsMicros are the collision and success durations for
	// the sim engine (defaults: the paper's 2920.64 and 2542.64). The
	// mac engine derives durations from its overhead model instead.
	TcMicros float64 `json:"tc_us,omitempty"`
	TsMicros float64 `json:"ts_us,omitempty"`
	// FrameMicros is the frame payload duration in µs (default 2050):
	// the throughput-normalization length for the sim engine, and the
	// default per-MPDU payload for mac groups.
	FrameMicros float64 `json:"frame_us,omitempty"`
	// BeaconPeriodMicros, when positive, carries a central-coordinator
	// beacon every period µs (mac engine only; HomePlug AV uses two AC
	// line cycles, 33330 µs at 60 Hz).
	BeaconPeriodMicros float64 `json:"beacon_period_us,omitempty"`
	// VarianceReduction, when present with kind "control_variate",
	// switches the replication path to the control-variate estimator
	// (sim engine only). A block with kind "none" is dropped by
	// normalization, so present-but-disabled specs fingerprint
	// identically to specs without the block.
	VarianceReduction *VarianceReduction `json:"variance_reduction,omitempty"`
	// Stations declares the population, group by group.
	Stations []Group `json:"stations"`
}

// DecodeStrict decodes the one JSON value data holds into v. Unknown
// fields are rejected, so typos fail loudly instead of silently
// reverting to defaults, and so is anything but whitespace after the
// value, so one document cannot carry a second.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// Parse decodes a Spec from JSON (see DecodeStrict).
func Parse(data []byte) (Spec, error) {
	var s Spec
	if err := DecodeStrict(data, &s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse: %w", err)
	}
	return s, nil
}

// Load reads and decodes a Spec from a JSON file.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// Marshal encodes the spec as indented JSON (the format of the files
// under examples/scenarios).
func (s Spec) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: marshal: %w", err)
	}
	return append(data, '\n'), nil
}

// N returns the total station count (with SweepN, the count of the
// largest sweep point — callers that need per-point counts use
// Compile).
func (s Spec) N() int {
	if len(s.SweepN) > 0 {
		max := 0
		for _, n := range s.SweepN {
			if n > max {
				max = n
			}
		}
		return max
	}
	n := 0
	for _, g := range s.Stations {
		n += g.Count
	}
	return n
}

// finitePositive reports whether v is a positive finite float.
func finitePositive(v float64) bool {
	return v > 0 && !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Validate checks the spec's structural invariants and reports the
// first violation with enough context to fix the file (field paths use
// the JSON names).
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing \"name\"")
	}
	switch s.Engine {
	case "", EngineAuto, EngineSim, EngineMac, EngineModel:
	default:
		return fmt.Errorf("scenario %s: unknown engine %q (want %q, %q, %q or %q)",
			s.Name, s.Engine, EngineSim, EngineMac, EngineModel, EngineAuto)
	}
	if !finitePositive(s.SimTimeMicros) {
		return fmt.Errorf("scenario %s: \"sim_time_us\" = %v must be a positive finite duration", s.Name, s.SimTimeMicros)
	}
	switch s.SeedPolicy {
	case "", SeedSplit, SeedIncrement:
	default:
		return fmt.Errorf("scenario %s: unknown seed_policy %q (want %q or %q)",
			s.Name, s.SeedPolicy, SeedSplit, SeedIncrement)
	}
	for _, d := range []struct {
		name string
		v    float64
	}{{"tc_us", s.TcMicros}, {"ts_us", s.TsMicros}, {"frame_us", s.FrameMicros}, {"beacon_period_us", s.BeaconPeriodMicros}} {
		if d.v != 0 && !finitePositive(d.v) {
			return fmt.Errorf("scenario %s: %q = %v must be a positive finite duration (or omitted)", s.Name, d.name, d.v)
		}
	}
	if frame := s.frameMicros(); frame > s.tsMicros() {
		return fmt.Errorf("scenario %s: %s", s.Name, s.frameExceedsTs(frame))
	}
	if len(s.Stations) == 0 {
		return fmt.Errorf("scenario %s: \"stations\" must declare at least one group", s.Name)
	}
	if len(s.SweepN) > 0 {
		if len(s.Stations) != 1 {
			return fmt.Errorf("scenario %s: \"sweep_n\" requires exactly one station group, got %d", s.Name, len(s.Stations))
		}
		for i, n := range s.SweepN {
			if n < 1 || n > maxStations {
				return fmt.Errorf("scenario %s: sweep_n[%d] = %d outside 1–%d stations", s.Name, i, n, maxStations)
			}
		}
	}
	total := 0
	for gi, g := range s.Stations {
		if err := s.validateGroup(gi, g); err != nil {
			return err
		}
		if len(s.SweepN) == 0 && g.Count > maxStations-total {
			return fmt.Errorf("scenario %s: stations[%d]: \"count\" = %d puts the point over the %d-station cap",
				s.Name, gi, g.Count, maxStations)
		}
		total += g.Count
	}
	if s.Engine == EngineSim {
		if why := s.needsMac(); why != "" {
			return fmt.Errorf("scenario %s: engine \"sim\" cannot express %s (use \"mac\" or \"auto\")", s.Name, why)
		}
	}
	if s.Engine == EngineModel {
		// The widened fixed point covers offered load (Poisson and
		// silent traffic) and mixed CA0–CA3 priorities; only genuinely
		// event-driven features — beacons, multi-MPDU bursts, per-group
		// PHY framing — still force the event-driven MAC. The error
		// names every offending feature so `-validate` reports them all
		// at once.
		if why := s.modelUnsupported(); len(why) > 0 {
			return fmt.Errorf("scenario %s: engine \"model\" cannot express %s (event-driven features need \"mac\")",
				s.Name, strings.Join(why, "; "))
		}
	}
	if v := s.VarianceReduction; v != nil {
		switch v.Kind {
		case "", VRNone:
		case VRControlVariate:
			// The martingale controls are a property of the
			// slot-synchronous engine: the analytic model is already
			// deterministic (nothing to reduce) and the event-driven MAC
			// exposes no control channels.
			if s.Engine == EngineModel || s.Engine == EngineMac {
				return fmt.Errorf("scenario %s: variance_reduction %q requires the sim engine, not %q",
					s.Name, v.Kind, s.Engine)
			}
			if why := s.needsMac(); why != "" {
				return fmt.Errorf("scenario %s: variance_reduction %q cannot express %s (sim engine only)",
					s.Name, v.Kind, why)
			}
		default:
			return fmt.Errorf("scenario %s: unknown variance_reduction kind %q (want %q or %q)",
				s.Name, v.Kind, VRNone, VRControlVariate)
		}
		if v.PilotReps < 0 {
			return fmt.Errorf("scenario %s: variance_reduction \"pilot_reps\" = %d must be ≥ 0", s.Name, v.PilotReps)
		}
		if v.MinCorr < 0 || v.MinCorr >= 1 || math.IsNaN(v.MinCorr) {
			return fmt.Errorf("scenario %s: variance_reduction \"min_corr\" = %v outside [0, 1)", s.Name, v.MinCorr)
		}
		if v.MaxBeta < 0 || math.IsNaN(v.MaxBeta) || math.IsInf(v.MaxBeta, 0) {
			return fmt.Errorf("scenario %s: variance_reduction \"max_beta\" = %v must be ≥ 0 and finite", s.Name, v.MaxBeta)
		}
	}
	return nil
}

// CVEnabled reports whether the spec requests the control-variate
// estimator. Meaningful on normalized specs (where a disabled block has
// already been dropped), but safe on any spec.
func (s Spec) CVEnabled() bool {
	return s.VarianceReduction != nil && s.VarianceReduction.Kind == VRControlVariate
}

func (s Spec) validateGroup(gi int, g Group) error {
	at := func(format string, args ...any) error {
		return fmt.Errorf("scenario %s: stations[%d]: %s", s.Name, gi, fmt.Sprintf(format, args...))
	}
	if g.Count < 1 && len(s.SweepN) == 0 {
		return at("\"count\" = %d must be ≥ 1", g.Count)
	}
	if (g.CW == nil) != (g.DC == nil) {
		return at("\"cw\" and \"dc\" must be given together (got cw=%v dc=%v)", g.CW, g.DC)
	}
	if g.CW != nil {
		p := config.Params{Name: "spec", CW: g.CW, DC: g.DC}
		if err := p.Validate(); err != nil {
			return at("%v", err)
		}
	}
	if g.Priority != "" {
		if _, err := config.ParsePriority(g.Priority); err != nil {
			return at("%v", err)
		}
	}
	if g.Traffic != nil {
		switch g.Traffic.Kind {
		case "", TrafficSaturated, TrafficNone:
			if g.Traffic.MeanInterarrivalMicros != 0 {
				return at("\"mean_interarrival_us\" is only meaningful for poisson traffic")
			}
		case TrafficPoisson:
			if m := g.Traffic.MeanInterarrivalMicros; !finitePositive(m) {
				return at("poisson traffic needs \"mean_interarrival_us\" > 0, got %v", m)
			} else if m < minInterarrivalMicros {
				return at("\"mean_interarrival_us\" = %v is below the %d µs floor", m, minInterarrivalMicros)
			}
		default:
			return at("unknown traffic kind %q (want %q, %q or %q)",
				g.Traffic.Kind, TrafficSaturated, TrafficPoisson, TrafficNone)
		}
	}
	if g.ErrorProb < 0 || g.ErrorProb > 1 || math.IsNaN(g.ErrorProb) {
		return at("\"error_prob\" = %v outside [0, 1]", g.ErrorProb)
	}
	if g.BurstMPDUs < 0 || g.BurstMPDUs > hpav.MaxBurstMPDUs {
		return at("\"burst_mpdus\" = %d outside 1–%d", g.BurstMPDUs, hpav.MaxBurstMPDUs)
	}
	if g.PBsPerMPDU < 0 {
		return at("\"pbs_per_mpdu\" = %d must be ≥ 1", g.PBsPerMPDU)
	}
	if g.FrameMicros != 0 && !finitePositive(g.FrameMicros) {
		return at("\"frame_us\" = %v must be a positive finite duration (or omitted)", g.FrameMicros)
	}
	if g.FrameMicros > s.tsMicros() {
		return at("%s", s.frameExceedsTs(g.FrameMicros))
	}
	return nil
}

// maxStations caps a point's station count on every engine. The
// event-driven MAC gives transmitter i the one-byte TEI i+2: TEI 0 is
// unassigned, 1 is the destination and 255 the broadcast address, so
// 253 transmitters fill the space. One cap for all engines keeps a
// spec valid whatever engine it lands on, and bounds the simulators'
// memory, which grows with the station count.
const maxStations = 253

// minInterarrivalMicros is the shortest mean Poisson inter-arrival
// time a spec may ask for. The event-driven MAC draws every arrival,
// so its cost grows as the mean shrinks, and below the resolution of
// the simulated clock the arrival time stops advancing at all (a mean
// of 1e-308 µs never finished). One microsecond, the clock's unit, is
// far below any arrival rate a contention domain can serve.
const minInterarrivalMicros = 1

// frameMicros and tsMicros are the spec-wide frame payload and success
// durations, defaults applied.
func (s Spec) frameMicros() float64 {
	if s.FrameMicros == 0 {
		return defaultFrameMicros
	}
	return s.FrameMicros
}

func (s Spec) tsMicros() float64 {
	if s.TsMicros == 0 {
		return defaultTsMicros
	}
	return s.TsMicros
}

// frameExceedsTs explains the cross-field rule frame_us ≤ ts_us: the
// payload is part of a successful transmission, so a frame longer than
// the success duration would put more payload on the medium than time
// (a normalized throughput above 1, or +Inf near the float range).
func (s Spec) frameExceedsTs(frame float64) string {
	return fmt.Sprintf("\"frame_us\" = %v exceeds \"ts_us\" = %v: the payload must fit inside a successful transmission", frame, s.tsMicros())
}

// needsMac returns a human-readable reason the spec requires the
// event-driven MAC, or "" when the slot-synchronous simulator can
// express it.
func (s Spec) needsMac() string {
	if s.BeaconPeriodMicros > 0 {
		return "beacons"
	}
	seen := map[string]bool{}
	for gi, g := range s.Stations {
		if g.Traffic != nil && g.Traffic.Kind != "" && g.Traffic.Kind != TrafficSaturated {
			return fmt.Sprintf("stations[%d]'s %s traffic (the sim engine is saturated-only)", gi, g.Traffic.Kind)
		}
		if g.BurstMPDUs > 1 {
			return fmt.Sprintf("stations[%d]'s burst of %d MPDUs (the sim engine sends one frame per transmission)", gi, g.BurstMPDUs)
		}
		if g.PBsPerMPDU != 0 || g.FrameMicros != 0 {
			return fmt.Sprintf("stations[%d]'s per-group PHY framing", gi)
		}
		pri := g.Priority
		if pri == "" {
			pri = "CA1"
		}
		seen[pri] = true
	}
	if len(seen) > 1 {
		return "mixed priority classes (the sim engine runs a single contention class)"
	}
	return ""
}

// modelUnsupported lists every feature of the spec the analytic model
// engine cannot express, in spec order. It is the model-engine analogue
// of needsMac, but strictly smaller: Poisson/silent traffic and mixed
// priority classes now lower onto the loaded fixed point, so only the
// genuinely event-driven features remain. Empty means the spec is
// model-expressible.
func (s Spec) modelUnsupported() []string {
	var why []string
	if s.BeaconPeriodMicros > 0 {
		why = append(why, "beacons")
	}
	// Group framing equal to the spec-wide defaults is what mac-engine
	// normalization writes out explicitly; it changes no physics, so a
	// normalized mac spec re-aimed at the model (the compare path) must
	// stay expressible. Only framing that deviates is event-driven.
	frame := s.frameMicros()
	for gi, g := range s.Stations {
		if g.BurstMPDUs > 1 {
			why = append(why, fmt.Sprintf("stations[%d]'s burst of %d MPDUs (the model rates one frame per transmission)", gi, g.BurstMPDUs))
		}
		if (g.PBsPerMPDU != 0 && g.PBsPerMPDU != defaultPBsPerMPDU) ||
			(g.FrameMicros != 0 && g.FrameMicros != frame) {
			why = append(why, fmt.Sprintf("stations[%d]'s per-group PHY framing", gi))
		}
	}
	return why
}

// Normalized returns a copy of the spec with every default made
// explicit: the engine resolved, seed and policy filled, timing
// constants expanded, and each group's priority, parameters, traffic
// and (for the mac engine) framing written out. Normalization is
// idempotent, which is what makes the JSON round trip lossless:
// Normalized(Parse(Marshal(Normalized(s)))) == Normalized(s).
func (s Spec) Normalized() (Spec, error) {
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	out := s
	if out.Engine == "" || out.Engine == EngineAuto {
		if out.needsMac() != "" {
			out.Engine = EngineMac
		} else {
			out.Engine = EngineSim
		}
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.SeedPolicy == "" {
		out.SeedPolicy = SeedSplit
	}
	if out.TcMicros == 0 {
		out.TcMicros = 2920.64
	}
	out.TsMicros = s.tsMicros()
	out.FrameMicros = s.frameMicros()
	if v := s.VarianceReduction; v == nil || v.Kind == "" || v.Kind == VRNone {
		// A disabled block normalizes away entirely: present-but-off is
		// the same regime as absent, and must canonicalize (and
		// fingerprint) identically.
		out.VarianceReduction = nil
	} else {
		nv := *v
		if nv.PilotReps == 0 {
			nv.PilotReps = stats.DefaultPilotReps
		}
		if nv.MinCorr == 0 {
			nv.MinCorr = stats.DefaultMinCorr
		}
		if nv.MaxBeta == 0 {
			nv.MaxBeta = stats.DefaultMaxBeta
		}
		out.VarianceReduction = &nv
	}
	out.SweepN = append([]int(nil), s.SweepN...)
	out.Stations = make([]Group, len(s.Stations))
	for gi, g := range s.Stations {
		ng := g
		if ng.Priority == "" {
			ng.Priority = "CA1"
		}
		pri, err := config.ParsePriority(ng.Priority)
		if err != nil {
			return Spec{}, err // unreachable: Validate parsed it already
		}
		ng.Priority = pri.String()
		if ng.CW == nil {
			def := config.Default1901(pri)
			ng.CW = def.CW
			ng.DC = def.DC
		} else {
			ng.CW = append([]int(nil), g.CW...)
			ng.DC = append([]int(nil), g.DC...)
		}
		if ng.Traffic == nil {
			ng.Traffic = &Traffic{Kind: TrafficSaturated}
		} else {
			t := *ng.Traffic
			if t.Kind == "" {
				t.Kind = TrafficSaturated
			}
			ng.Traffic = &t
		}
		if out.Engine == EngineMac {
			if ng.BurstMPDUs == 0 {
				ng.BurstMPDUs = 1
			}
			if ng.PBsPerMPDU == 0 {
				ng.PBsPerMPDU = defaultPBsPerMPDU
			}
			if ng.FrameMicros == 0 {
				ng.FrameMicros = out.FrameMicros
			}
		}
		out.Stations[gi] = ng
	}
	return out, nil
}
