package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file is the read side of the exposition format: a strict parser
// for the text/plain; version=0.0.4 rendering. It exists for two
// consumers — the conformance test, which re-parses everything the
// registry emits and checks the format's invariants, and cmd/plcload,
// which scrapes a server's /metrics before and after a load run to
// print the server-side summary.

// A Sample is one parsed series line.
type Sample struct {
	// Name is the full series name as emitted (including a _bucket,
	// _sum or _count suffix on histogram series).
	Name string
	// Labels holds the series' label pairs (nil when unlabeled).
	Labels map[string]string
	// Value is the sample value.
	Value float64
}

// A ParsedFamily is one metric family as scraped.
type ParsedFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// ParseText parses a text exposition stream into its families, keyed
// by family name. It is strict about the properties the renderer
// guarantees: every sample must be preceded by that family's # TYPE
// line, HELP/TYPE may appear only once per family, and histogram
// sample names must be the family name plus _bucket/_sum/_count.
func ParseText(r io.Reader) (map[string]*ParsedFamily, error) {
	fams := make(map[string]*ParsedFamily)
	var current *ParsedFamily
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" {
			continue
		}
		if strings.HasPrefix(text, "# HELP ") {
			name, help, _ := strings.Cut(text[len("# HELP "):], " ")
			if f := fams[name]; f != nil && f.Help != "" {
				return nil, fmt.Errorf("obs: parse line %d: duplicate HELP for %s", line, name)
			}
			f := familyFor(fams, name)
			f.Help = help
			continue
		}
		if strings.HasPrefix(text, "# TYPE ") {
			name, typ, ok := strings.Cut(text[len("# TYPE "):], " ")
			if !ok {
				return nil, fmt.Errorf("obs: parse line %d: malformed TYPE line %q", line, text)
			}
			f := familyFor(fams, name)
			if f.Type != "" {
				return nil, fmt.Errorf("obs: parse line %d: duplicate TYPE for %s", line, name)
			}
			f.Type = typ
			current = f
			continue
		}
		if strings.HasPrefix(text, "#") {
			continue // other comments are legal in the format
		}
		s, err := parseSample(text)
		if err != nil {
			return nil, fmt.Errorf("obs: parse line %d: %w", line, err)
		}
		if current == nil || !sampleBelongs(current, s.Name) {
			return nil, fmt.Errorf("obs: parse line %d: sample %s outside its family's TYPE block", line, s.Name)
		}
		current.Samples = append(current.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return fams, nil
}

func familyFor(fams map[string]*ParsedFamily, name string) *ParsedFamily {
	if f, ok := fams[name]; ok {
		return f
	}
	f := &ParsedFamily{Name: name}
	fams[name] = f
	return f
}

// sampleBelongs reports whether a series name belongs to the family —
// the name itself, or (for histograms) its _bucket/_sum/_count series.
func sampleBelongs(f *ParsedFamily, series string) bool {
	if series == f.Name {
		return true
	}
	if f.Type != "histogram" {
		return false
	}
	rest, ok := strings.CutPrefix(series, f.Name)
	if !ok {
		return false
	}
	return rest == "_bucket" || rest == "_sum" || rest == "_count"
}

// parseSample parses `name{l="v",…} value`.
func parseSample(text string) (Sample, error) {
	s := Sample{}
	rest := text
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("malformed sample %q", text)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated label block in %q", text)
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return s, fmt.Errorf("%v in %q", err, text)
		}
		s.Labels = labels
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", rest, text)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses `a="b",c="d"` (no escapes beyond \\ \" \n, which
// is all the renderer emits).
func parseLabels(s string) (map[string]string, error) {
	out := make(map[string]string)
	for s != "" {
		eq := strings.Index(s, "=")
		if eq < 0 || len(s) < eq+2 || s[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label pair")
		}
		name := s[:eq]
		rest := s[eq+2:]
		var b strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return nil, fmt.Errorf("unknown escape \\%c", rest[i])
				}
				continue
			}
			if c == '"' {
				break
			}
			b.WriteByte(c)
		}
		if i == len(rest) {
			return nil, fmt.Errorf("unterminated label value")
		}
		out[name] = b.String()
		s = rest[i+1:]
		s = strings.TrimPrefix(s, ",")
	}
	return out, nil
}

// parseValue parses a sample value, accepting the +Inf/-Inf/NaN
// spellings the format defines.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// Value returns the single sample value for one label set of a counter
// or gauge family (ok=false when absent).
func (f *ParsedFamily) Value(match map[string]string) (float64, bool) {
	for _, s := range f.Samples {
		if s.Name == f.Name && labelsMatch(s.Labels, match) {
			return s.Value, true
		}
	}
	return 0, false
}

// labelsMatch reports whether the sample's labels equal match,
// treating nil and empty alike.
func labelsMatch(labels, match map[string]string) bool {
	for k, v := range labels {
		if match[k] != v {
			return false
		}
	}
	return len(labels) == len(match)
}
