// Package config defines the CSMA/CA parameter sets of IEEE 1901 and of
// the 802.11 DCF baseline.
//
// The central type is Params, the pair of vectors (cw, dc) from the
// paper: cw[i] is the contention window at backoff stage i and dc[i] the
// initial value of the deferral counter at stage i. Table 1 of the paper
// — the CA0/CA1 and CA2/CA3 priority-class defaults — is exposed as
// ready-made values, and arbitrary custom vectors (the object of the
// "boosting" search) are validated by Params.Validate.
package config

import (
	"errors"
	"fmt"
	"strings"
)

// Priority is an IEEE 1901 channel-access priority class. Two stations
// never contend across classes: a priority-resolution phase (two slots of
// busy tones) elects the highest contending class and only its members
// run the backoff process.
type Priority uint8

// The four 1901 priority classes. CA0/CA1 carry best-effort traffic
// (CA1 is the default for untagged Ethernet frames), CA2/CA3 carry
// delay-sensitive traffic; management messages use CA2 or CA3.
const (
	CA0 Priority = iota
	CA1
	CA2
	CA3
)

// String returns the conventional name of the priority class.
func (p Priority) String() string {
	switch p {
	case CA0:
		return "CA0"
	case CA1:
		return "CA1"
	case CA2:
		return "CA2"
	case CA3:
		return "CA3"
	default:
		return fmt.Sprintf("CA?(%d)", uint8(p))
	}
}

// Valid reports whether p is one of the four defined classes.
func (p Priority) Valid() bool { return p <= CA3 }

// ParsePriority converts a textual class name ("CA0".."CA3", case
// insensitive, or a bare digit) into a Priority.
func ParsePriority(s string) (Priority, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "CA0", "0":
		return CA0, nil
	case "CA1", "1":
		return CA1, nil
	case "CA2", "2":
		return CA2, nil
	case "CA3", "3":
		return CA3, nil
	}
	return 0, fmt.Errorf("config: unknown priority class %q", s)
}

// Params is a 1901 CSMA/CA configuration: the per-stage contention
// windows and initial deferral-counter values. Stage i uses CW[i] and
// DC[i]; a station whose backoff-procedure counter exceeds the last stage
// re-enters the last stage (Table 1: BPC ≥ 3 maps to stage 3).
type Params struct {
	// Name labels the configuration in reports ("CA1", "boost-t5", …).
	Name string
	// CW holds the contention window CW_i for each backoff stage. The
	// backoff counter at stage i is drawn uniformly in {0, …, CW[i]-1}.
	CW []int
	// DC holds the initial deferral-counter value d_i for each stage.
	DC []int
}

// Errors returned by Validate.
var (
	ErrNoStages     = errors.New("config: params must define at least one backoff stage")
	ErrLengthMixup  = errors.New("config: cw and dc vectors must have the same length")
	ErrWindowRange  = errors.New("config: contention windows must be ≥ 1")
	ErrDeferralsNeg = errors.New("config: deferral counters must be ≥ 0")
)

// Validate checks the structural invariants the simulator and the model
// rely on: equal-length non-empty vectors, CW_i ≥ 1 and d_i ≥ 0.
// It deliberately does not require monotonicity — the boosting search
// explores non-monotone schedules.
func (p Params) Validate() error {
	if len(p.CW) == 0 {
		return ErrNoStages
	}
	if len(p.CW) != len(p.DC) {
		return fmt.Errorf("%w: len(cw)=%d len(dc)=%d", ErrLengthMixup, len(p.CW), len(p.DC))
	}
	for i, w := range p.CW {
		if w < 1 {
			return fmt.Errorf("%w: cw[%d]=%d", ErrWindowRange, i, w)
		}
	}
	for i, d := range p.DC {
		if d < 0 {
			return fmt.Errorf("%w: dc[%d]=%d", ErrDeferralsNeg, i, d)
		}
	}
	return nil
}

// Stages returns the number of backoff stages m.
func (p Params) Stages() int { return len(p.CW) }

// Stage clamps a backoff-procedure counter value to a stage index:
// BPC values beyond the last stage re-use the last stage's parameters.
func (p Params) Stage(bpc int) int {
	if bpc < 0 {
		return 0
	}
	if m := len(p.CW) - 1; bpc > m {
		return m
	}
	return bpc
}

// WindowAt returns CW for the stage addressed by the given BPC value.
func (p Params) WindowAt(bpc int) int { return p.CW[p.Stage(bpc)] }

// DeferralAt returns d_i for the stage addressed by the given BPC value.
func (p Params) DeferralAt(bpc int) int { return p.DC[p.Stage(bpc)] }

// Clone returns a deep copy, so that search code can mutate candidates
// without aliasing the originals.
func (p Params) Clone() Params {
	q := Params{Name: p.Name, CW: make([]int, len(p.CW)), DC: make([]int, len(p.DC))}
	copy(q.CW, p.CW)
	copy(q.DC, p.DC)
	return q
}

// Equal reports whether two configurations have identical vectors
// (names are ignored: they are labels, not behaviour).
func (p Params) Equal(q Params) bool {
	if len(p.CW) != len(q.CW) || len(p.DC) != len(q.DC) {
		return false
	}
	for i := range p.CW {
		if p.CW[i] != q.CW[i] {
			return false
		}
	}
	for i := range p.DC {
		if p.DC[i] != q.DC[i] {
			return false
		}
	}
	return true
}

// String renders the configuration in the paper's vector notation.
func (p Params) String() string {
	var b strings.Builder
	if p.Name != "" {
		fmt.Fprintf(&b, "%s ", p.Name)
	}
	b.WriteString("cw=[")
	for i, w := range p.CW {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", w)
	}
	b.WriteString("] dc=[")
	for i, d := range p.DC {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", d)
	}
	b.WriteString("]")
	return b.String()
}

// Default1901 returns the Table 1 parameters for the given priority
// class. CA0/CA1 share one column and CA2/CA3 the other.
func Default1901(p Priority) Params {
	switch p {
	case CA0, CA1:
		return Params{
			Name: p.String(),
			CW:   []int{8, 16, 32, 64},
			DC:   []int{0, 1, 3, 15},
		}
	case CA2, CA3:
		return Params{
			Name: p.String(),
			CW:   []int{8, 16, 16, 32},
			DC:   []int{0, 1, 3, 15},
		}
	default:
		panic(fmt.Sprintf("config: Default1901(%v): invalid priority", p))
	}
}

// DefaultCA1 is the configuration of every validation experiment in the
// paper (best-effort UDP traffic is transmitted at CA1).
func DefaultCA1() Params { return Default1901(CA1) }

// DCF is an 802.11 distributed-coordination-function configuration, the
// baseline the 1901 papers compare against. 802.11 has no deferral
// counter; window doubling is expressed by the explicit CW vector.
type DCF struct {
	// Name labels the configuration.
	Name string
	// CWmin is the initial contention window (e.g. 16 for 802.11a/g,
	// 32 for 802.11b). The backoff counter is drawn in {0,…,CW-1}.
	CWmin int
	// CWmax caps the doubling (1024 in the standards).
	CWmax int
}

// Validate checks CWmin/CWmax sanity.
func (d DCF) Validate() error {
	if d.CWmin < 1 {
		return fmt.Errorf("config: DCF CWmin=%d must be ≥ 1", d.CWmin)
	}
	if d.CWmax < d.CWmin {
		return fmt.Errorf("config: DCF CWmax=%d < CWmin=%d", d.CWmax, d.CWmin)
	}
	return nil
}

// Window returns the contention window at backoff stage i (CWmin·2^i,
// capped at CWmax).
func (d DCF) Window(stage int) int {
	w := d.CWmin
	for i := 0; i < stage; i++ {
		if w >= d.CWmax {
			return d.CWmax
		}
		w *= 2
	}
	if w > d.CWmax {
		return d.CWmax
	}
	return w
}

// Stages returns the number of distinct window sizes before the cap.
func (d DCF) Stages() int {
	n := 1
	for w := d.CWmin; w < d.CWmax; w *= 2 {
		n++
	}
	return n
}

// Params flattens the DCF doubling schedule into a 1901-style Params
// value with "infinite" deferral counters. This is how the simulators
// and the model run 802.11: on the 1901 machine, a deferral counter
// that can never reach zero before the backoff counter leaves plain DCF
// backoff, with each busy period costing one counter decrement (the
// slotted convention of the 1901-vs-802.11 comparisons).
// The sentinel is per-stage dc = CWmax (the DC can decrement at most
// CW-1 ≤ CWmax-1 times while the station is at a stage, since every
// busy slot also decrements BC).
func (d DCF) Params() Params {
	m := d.Stages()
	p := Params{Name: d.Name, CW: make([]int, m), DC: make([]int, m)}
	for i := 0; i < m; i++ {
		p.CW[i] = d.Window(i)
		p.DC[i] = d.CWmax
	}
	return p
}

// Default80211 returns the classic DCF baseline (CWmin 16, CWmax 1024)
// used in the 1901-vs-802.11 comparisons.
func Default80211() DCF { return DCF{Name: "802.11", CWmin: 16, CWmax: 1024} }
