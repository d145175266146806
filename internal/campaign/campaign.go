// Package campaign is the layer above the scenario engine for running
// *families* of related runs: a declarative JSON spec names one base
// scenario plus N sweep axes — each a JSON-path into the scenario spec
// (`stations[0].cw`, `stations[0].error_prob`, `n`, …) with a list or
// range of values — and the engine expands the cross-product into
// concrete scenario.Specs, shards the grid over the deterministic
// internal/par pool, and keys every point by scenario.Fingerprint so
// reruns and the serving cache dedupe byte-identically.
//
// Replication counts may be fixed, or adaptive: a campaign can target a
// 95% confidence-interval half-width (absolute or relative) per metric,
// plus minimum and maximum replication counts, and the runner adds
// replication batches — continuing the same split/increment seed
// stream, so a converged point is byte-identical to a fixed-rep run of
// the same count — until every targeted metric converges or the cap is
// hit.
//
// Seeds are arranged so three paths coincide bit for bit: grid point i
// of a campaign, the expanded spec run standalone through `sim1901
// -scenario`, and (for a campaign whose only axis is `n`) point i of
// the legacy `sweep_n` path. Under the "split" policy the expanded
// spec's seed is base + golden·i, which makes the standalone
// replication seeds RepSeed(split, base+golden·i, 0, r) equal the sweep
// seeds RepSeed(split, base, i, r) — the SplitMix64 finalizer is
// bijective, so the two derivations collapse. Under "increment" every
// point reuses the base seed, the classic sweep convention.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/scenario"
)

// MaxPoints bounds a campaign's expanded grid. A cross-product is easy
// to explode by accident; failing validation loudly beats queueing a
// million simulations.
const MaxPoints = 4096

// Axis is one sweep dimension: a JSON-path into the scenario spec plus
// the values to substitute there. Exactly one of Values or the
// From/To/Step range must be given.
type Axis struct {
	// Path locates the swept field in the scenario spec's JSON, e.g.
	// "stations[0].error_prob", "stations[0].cw", "sim_time_us",
	// "stations[0].traffic.mean_interarrival_us". The alias "n" sweeps
	// the total station count (the spec must then declare exactly one
	// station group, mirroring sweep_n).
	Path string `json:"path"`
	// Values are the raw JSON values to substitute, in sweep order —
	// numbers for scalar fields, arrays for vector fields like cw/dc.
	Values []json.RawMessage `json:"values,omitempty"`
	// From/To/Step generate an inclusive numeric range instead of an
	// explicit list: From, From+Step, … up to To (tolerating float
	// rounding at the endpoint).
	From *float64 `json:"from,omitempty"`
	To   *float64 `json:"to,omitempty"`
	Step *float64 `json:"step,omitempty"`
}

// Target is one adaptive-replication convergence goal: keep adding
// replication batches until the named metric's 95% confidence-interval
// half-width is at most CI (absolute) or RelCI·|mean| (relative).
type Target struct {
	// Metric is the canonical metric name (e.g. "norm_throughput").
	Metric string `json:"metric"`
	// CI is the absolute half-width target; exactly one of CI and RelCI
	// must be positive.
	CI float64 `json:"ci,omitempty"`
	// RelCI is the half-width target as a fraction of the |mean|.
	RelCI float64 `json:"rel_ci,omitempty"`
}

// Spec is a declarative campaign: a base scenario, the axes of the
// grid, and the replication policy.
type Spec struct {
	// Name identifies the campaign in reports and logs (required).
	Name string `json:"name"`
	// Description is free text for humans.
	Description string `json:"description,omitempty"`
	// Base is the scenario every grid point starts from. It must be a
	// valid standalone scenario and must not use sweep_n (sweep the "n"
	// axis instead).
	Base scenario.Spec `json:"base"`
	// Axes are the sweep dimensions; the grid is their cross-product in
	// row-major order (the last axis varies fastest).
	Axes []Axis `json:"axes"`
	// Reps is the fixed replication count per grid point (default 10).
	// Mutually exclusive with the adaptive fields below.
	Reps int `json:"reps,omitempty"`
	// MinReps/MaxReps/BatchReps shape adaptive replication: every point
	// starts with MinReps replications and grows in BatchReps-sized
	// batches (default: MinReps) until every Target converges or
	// MaxReps is reached. Meaningful only with Targets.
	MinReps   int `json:"min_reps,omitempty"`
	MaxReps   int `json:"max_reps,omitempty"`
	BatchReps int `json:"batch_reps,omitempty"`
	// Targets are the convergence goals; non-empty Targets selects
	// adaptive replication.
	Targets []Target `json:"targets,omitempty"`
}

// Adaptive reports whether the campaign uses adaptive replication.
func (s Spec) Adaptive() bool { return len(s.Targets) > 0 }

// GridSize returns the number of grid points the spec expands to: the
// cross-product of the axis value counts. Unlike Compile it touches no
// JSON, so a cache-hit path can report the grid's shape without paying
// for expansion.
func (s Spec) GridSize() int {
	n := 1
	for _, a := range s.Axes {
		switch {
		case len(a.Values) > 0:
			n *= len(a.Values)
		case a.From != nil && a.To != nil && a.Step != nil:
			n *= rangeLen(*a.From, *a.To, *a.Step)
		}
	}
	return n
}

// Parse decodes a campaign Spec from JSON (see scenario.DecodeStrict).
func Parse(data []byte) (Spec, error) {
	var s Spec
	if err := scenario.DecodeStrict(data, &s); err != nil {
		return Spec{}, fmt.Errorf("campaign: parse: %w", err)
	}
	return s, nil
}

// Load reads and decodes a campaign Spec from a JSON file.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("campaign: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// Marshal encodes the spec as indented JSON (the format of the files
// under examples/campaigns).
func (s Spec) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("campaign: marshal: %w", err)
	}
	return append(data, '\n'), nil
}

// reservedPaths are scenario fields an axis may not sweep: the seed
// machinery is owned by the campaign's per-point derivation, sweep_n by
// the "n" axis, and the name keys fingerprints.
var reservedPaths = map[string]string{
	"seed":        "per-point seeds are derived from the base seed",
	"seed_policy": "the seed policy is shared by every grid point",
	"sweep_n":     "sweep station counts with an \"n\" axis instead",
	"name":        "grid points share the base scenario's name",
}

// Validate checks the campaign's structural invariants and reports the
// first violation with enough context to fix the file.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("campaign: missing \"name\"")
	}
	if err := s.Base.Validate(); err != nil {
		return fmt.Errorf("campaign %s: base: %w", s.Name, err)
	}
	if len(s.Base.SweepN) > 0 {
		return fmt.Errorf("campaign %s: base must not use \"sweep_n\"; sweep an \"n\" axis instead", s.Name)
	}
	if len(s.Axes) == 0 {
		return fmt.Errorf("campaign %s: \"axes\" must declare at least one sweep dimension", s.Name)
	}
	points := 1
	for ai, a := range s.Axes {
		n, err := s.validateAxis(ai, a)
		if err != nil {
			return err
		}
		if points > MaxPoints/n {
			return fmt.Errorf("campaign %s: grid exceeds %d points (cross-product of the axis value counts)", s.Name, MaxPoints)
		}
		points *= n
	}
	return s.validateReps()
}

func (s Spec) validateAxis(ai int, a Axis) (values int, err error) {
	at := func(format string, args ...any) error {
		return fmt.Errorf("campaign %s: axes[%d]: %s", s.Name, ai, fmt.Sprintf(format, args...))
	}
	if a.Path == "" {
		return 0, at("missing \"path\"")
	}
	if why, ok := reservedPaths[a.Path]; ok {
		return 0, at("path %q cannot be swept: %s", a.Path, why)
	}
	if _, err := parsePath(a.Path); err != nil {
		return 0, at("%v", err)
	}
	if a.Path == "n" && len(s.Base.Stations) != 1 {
		return 0, at("the \"n\" axis requires exactly one base station group, got %d", len(s.Base.Stations))
	}
	hasRange := a.From != nil || a.To != nil || a.Step != nil
	switch {
	case len(a.Values) > 0 && hasRange:
		return 0, at("give either \"values\" or a from/to/step range, not both")
	case len(a.Values) > 0:
		for vi, v := range a.Values {
			var decoded any
			if err := json.Unmarshal(v, &decoded); err != nil {
				return 0, at("values[%d]: %v", vi, err)
			}
		}
		return len(a.Values), nil
	case hasRange:
		if a.From == nil || a.To == nil || a.Step == nil {
			return 0, at("a range needs all of \"from\", \"to\" and \"step\"")
		}
		from, to, step := *a.From, *a.To, *a.Step
		if math.IsNaN(from) || math.IsInf(from, 0) || math.IsNaN(to) || math.IsInf(to, 0) {
			return 0, at("range endpoints must be finite")
		}
		if !(step > 0) || math.IsInf(step, 0) {
			return 0, at("\"step\" = %v must be a positive finite number", step)
		}
		if to < from {
			return 0, at("\"to\" = %v < \"from\" = %v", to, from)
		}
		n := rangeLen(from, to, step)
		if n > MaxPoints {
			return 0, at("range generates %d values, more than the %d-point grid bound", n, MaxPoints)
		}
		return n, nil
	default:
		return 0, at("missing \"values\" (or a from/to/step range)")
	}
}

// rangeEps tolerates float accumulation at a range's endpoint, so from
// 0 to 0.3 step 0.1 includes 0.3.
const rangeEps = 1e-9

// rangeLen counts the values of an inclusive from/to/step range.
func rangeLen(from, to, step float64) int {
	return int(math.Floor((to-from)/step+rangeEps)) + 1
}

// rangeValues materializes a validated range as canonical JSON
// numbers. The endpoint is clamped to `to`: float accumulation may
// push from + i·step a few ulps past it (0 + 3×0.1 > 0.3), and
// emitting the clean declared bound keeps labels readable and — more
// importantly — keeps the endpoint's scenario.Fingerprint equal to a
// hand-written spec using the same value.
func rangeValues(from, to, step float64) []json.RawMessage {
	n := rangeLen(from, to, step)
	out := make([]json.RawMessage, n)
	for i := range out {
		v := from + float64(i)*step
		if v > to {
			v = to
		}
		data, err := json.Marshal(v)
		if err != nil {
			panic(fmt.Sprintf("campaign: range value %v does not marshal: %v", v, err)) // unreachable: finite float
		}
		out[i] = data
	}
	return out
}

func (s Spec) validateReps() error {
	if !s.Adaptive() {
		if s.MinReps != 0 || s.MaxReps != 0 || s.BatchReps != 0 {
			return fmt.Errorf("campaign %s: \"min_reps\"/\"max_reps\"/\"batch_reps\" need \"targets\"; use \"reps\" for a fixed count", s.Name)
		}
		if s.Reps < 0 {
			return fmt.Errorf("campaign %s: \"reps\" = %d must be ≥ 1", s.Name, s.Reps)
		}
		return nil
	}
	if s.Reps != 0 {
		return fmt.Errorf("campaign %s: \"reps\" is mutually exclusive with \"targets\"; bound adaptive replication with \"min_reps\"/\"max_reps\"", s.Name)
	}
	if s.MinReps < 0 {
		return fmt.Errorf("campaign %s: \"min_reps\" = %d must be ≥ 1", s.Name, s.MinReps)
	}
	if s.MaxReps < 0 {
		return fmt.Errorf("campaign %s: \"max_reps\" = %d must be ≥ 1", s.Name, s.MaxReps)
	}
	min, max := s.MinReps, s.MaxReps
	if min == 0 {
		min = defaultMinReps
	}
	if max == 0 {
		max = defaultMaxReps
	}
	if min > max {
		return fmt.Errorf("campaign %s: \"min_reps\" = %d > \"max_reps\" = %d", s.Name, min, max)
	}
	if s.BatchReps < 0 {
		return fmt.Errorf("campaign %s: \"batch_reps\" = %d must be ≥ 1", s.Name, s.BatchReps)
	}
	for ti, tg := range s.Targets {
		at := func(format string, args ...any) error {
			return fmt.Errorf("campaign %s: targets[%d]: %s", s.Name, ti, fmt.Sprintf(format, args...))
		}
		if tg.Metric == "" {
			return at("missing \"metric\"")
		}
		ciSet := tg.CI != 0
		relSet := tg.RelCI != 0
		if ciSet == relSet {
			return at("give exactly one of \"ci\" and \"rel_ci\"")
		}
		if ciSet && (!(tg.CI > 0) || math.IsInf(tg.CI, 0) || math.IsNaN(tg.CI)) {
			return at("\"ci\" = %v must be a positive finite half-width", tg.CI)
		}
		if relSet && (!(tg.RelCI > 0) || math.IsInf(tg.RelCI, 0) || math.IsNaN(tg.RelCI)) {
			return at("\"rel_ci\" = %v must be a positive finite fraction", tg.RelCI)
		}
	}
	return nil
}

// Replication-policy defaults.
const (
	defaultReps    = 10 // fixed mode, matching the CLIs' -reps default
	defaultMinReps = 3  // smallest sample with a meaningful CI
	defaultMaxReps = 100
)

// Normalized returns a copy of the spec with every default explicit:
// the base scenario normalized, ranges expanded to explicit value
// lists, raw JSON values re-encoded compactly, and the replication
// policy filled in. Idempotent, like scenario.Spec.Normalized.
func (s Spec) Normalized() (Spec, error) {
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	out := s
	base, err := s.Base.Normalized()
	if err != nil {
		return Spec{}, fmt.Errorf("campaign %s: base: %w", s.Name, err)
	}
	out.Base = base
	out.Axes = make([]Axis, len(s.Axes))
	for ai, a := range s.Axes {
		na := Axis{Path: a.Path}
		if len(a.Values) > 0 {
			na.Values = make([]json.RawMessage, len(a.Values))
			for vi, v := range a.Values {
				c, err := compactJSON(v)
				if err != nil {
					return Spec{}, fmt.Errorf("campaign %s: axes[%d].values[%d]: %w", s.Name, ai, vi, err)
				}
				na.Values[vi] = c
			}
		} else {
			na.Values = rangeValues(*a.From, *a.To, *a.Step)
		}
		out.Axes[ai] = na
	}
	if out.Adaptive() {
		if out.MinReps == 0 {
			out.MinReps = defaultMinReps
		}
		if out.MaxReps == 0 {
			out.MaxReps = defaultMaxReps
		}
		if out.BatchReps == 0 {
			out.BatchReps = out.MinReps
		}
		out.Targets = append([]Target(nil), s.Targets...)
	} else {
		// An empty target list selects the fixed policy, exactly like
		// none; dropping it keeps the JSON round trip lossless.
		out.Targets = nil
		if out.Reps == 0 {
			out.Reps = defaultReps
		}
	}
	return out, nil
}

// compactJSON canonicalizes one raw JSON value: decoded with number
// fidelity preserved and re-encoded without whitespace.
func compactJSON(raw json.RawMessage) (json.RawMessage, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, err
	}
	return append(json.RawMessage(nil), buf.Bytes()...), nil
}

// valueString renders an axis value for labels and tables.
func valueString(raw json.RawMessage) string {
	return strings.TrimSpace(string(raw))
}
