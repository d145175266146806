// Command benchjson converts `go test -bench` text output (stdin) into
// JSON (stdout): one record per benchmark run, plus the verbatim raw
// text so benchstat — which consumes the text format — can still be
// applied downstream:
//
//	go test -run=XXX -bench=. -benchmem -count=3 ./... > bench.out
//	benchjson < bench.out > bench-results.json
//	# later: jq -r .raw bench-results.json | benchstat old.txt /dev/stdin
//
// With -count > 1 every run appears as its own record (same name,
// multiple entries), which is exactly the sample structure benchstat
// statistics need. `make bench` wires the whole pipeline.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Run is one benchmark execution line.
type Run struct {
	// Name is the full benchmark name without the -P GOMAXPROCS
	// suffix; Procs carries that suffix.
	Name  string `json:"name"`
	Procs int    `json:"procs"`
	// Pkg is the package the benchmark lives in (from the "pkg:"
	// header preceding it).
	Pkg        string  `json:"pkg,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BPerOp and AllocsPerOp are present with -benchmem (-1 without).
	BPerOp      float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics holds any further unit pairs (MB/s, custom b.ReportMetric
	// units such as simulated-µs/ns), keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// File is the output schema.
type File struct {
	Format string `json:"format"`
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	Runs   []Run  `json:"runs"`
	// Raw is the untouched `go test -bench` output — the input
	// benchstat consumes.
	Raw string `json:"raw"`
}

// parseLine decodes one "BenchmarkX-8 N unit-pairs..." line, or
// ok=false for anything else.
func parseLine(line, pkg string) (Run, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Run{}, false
	}
	name, procs := fields[0], 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Run{}, false
	}
	r := Run{Name: name, Procs: procs, Pkg: pkg, Iterations: iters, NsPerOp: -1, BPerOp: -1, AllocsPerOp: -1}
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Run{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	if r.NsPerOp < 0 {
		return Run{}, false
	}
	return r, true
}

// Convert parses the bench text and renders the JSON file.
func Convert(in io.Reader, out io.Writer) error {
	f := File{Format: "go-bench-v1"}
	var raw strings.Builder
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		raw.WriteString(line + "\n")
		switch {
		case strings.HasPrefix(line, "goos: "):
			f.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			f.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			f.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		default:
			if r, ok := parseLine(line, pkg); ok {
				f.Runs = append(f.Runs, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(f.Runs) == 0 {
		return fmt.Errorf("benchjson: no benchmark lines in input")
	}
	f.Raw = raw.String()
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

func main() {
	if err := Convert(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
