// Command perfbench is the repository benchmark. It starts serve.New +
// Handler behind a loopback listener in its own process, drives it
// closed-loop from at most two client connections with a seeded
// workload, checks every output against the in-process CLI path, and
// prints one JSON result line last:
//
//	perfbench --workload predict-mix --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes the traced
// run and reports the per-layer ledger instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

var workloads = []string{"predict-mix", "jobs-durable"}

// e2eCatalog is every end-to-end metric, in BENCHMARK.json order.
var e2eCatalog = []metricDef{
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"setup_s", "s"},
	{"live_heap_p95_mb", "MiB"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: predict-mix or jobs-durable")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 makes the traced run and reports per-layer metrics")
	state := flag.String("state", ".bench_build/state", "directory for server state and span dumps")
	flag.Parse()
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *state); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newWorkload(name string, seed uint64, dur time.Duration, dir string) (workload, error) {
	switch name {
	case "predict-mix":
		return newPredictWorkload(seed, dur), nil
	case "jobs-durable":
		return newJobsWorkload(seed, dur, dir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
}

func run(name string, seed uint64, dur time.Duration, traced bool, state string) error {
	if dur < 2*traceSlice {
		return fmt.Errorf("--seconds must be at least %d", int(2*traceSlice/time.Second))
	}
	dir := filepath.Join(state, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer func() {
		os.RemoveAll(dir)
		syscall.Sync() // leave no writeback behind for the next run
	}()
	w, err := newWorkload(name, seed, dur, dir)
	if err != nil {
		return err
	}
	defer w.close()

	env := newEnvReport(name, seed, traced)
	epoch := time.Now()
	setupTr := newTracer(epoch, 100)
	setups, err := w.setup(setupTr)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}

	// Flush what set-up wrote, so its writeback does not land in the
	// window.
	syscall.Sync()
	var before map[string]float64
	if traced {
		if before, err = w.server().scrape("plcsrv_predictions_total", "plcsrv_predict_cache_hits_total"); err != nil {
			return err
		}
	}
	heap := startHeapSampler(10 * time.Millisecond)
	cpu0, gc0 := readCPUTimes(), readGCCPU()
	loop := runLoop(w, epoch, dur, traced)
	env.StealFrac, env.GCCPUFrac = stealFrac(cpu0, readCPUTimes()), gcFrac(gc0, readGCCPU())
	heapMB := heap.finish()

	bad, err := w.check()
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	all := loop.modes[0]
	all.merge(&loop.modes[1])
	all.failOps(bad)
	res := result{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: map[string]metricValue{}}

	if !traced {
		lat, err := all.summarize()
		if err != nil {
			return err
		}
		heapP95, _, err := percentile(heapMB, 0.95)
		if err != nil {
			return fmt.Errorf("live heap: %w", err)
		}
		setupS := make([]float64, len(setups))
		for k, d := range setups {
			setupS[k] = d.Seconds()
		}
		vals := map[string]float64{
			"ops_per_s":        float64(all.completed()) / loop.elapsed.Seconds(),
			"latency_p50_ms":   clampInf(lat.P50),
			"latency_p99_ms":   clampInf(lat.P99),
			"setup_s":          median(setupS),
			"live_heap_p95_mb": heapP95,
		}
		for _, m := range e2eCatalog {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
		printEnv(env)
		fmt.Printf("# latency samples %d, beyond p99 %d; set-ups %v; heap samples %d\n",
			lat.Samples, lat.Beyond99, roundDurations(setups), len(heapMB))
		return printResult(res)
	}

	// Traced run: the loop alternated untraced and traced slices; now
	// decompose a sample in process and derive the ledger.
	rates := [2]float64{}
	for m := range rates {
		rates[m] = float64(loop.modes[m].completed()) / (float64(loop.slices[m]) * traceSlice.Seconds())
	}
	after, err := w.server().scrape("plcsrv_predictions_total", "plcsrv_predict_cache_hits_total")
	if err != nil {
		return err
	}
	ledgerTr := newTracer(epoch, 200)
	lv, err := w.ledger(ledgerTr, loop.ran)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	if d := after["plcsrv_predictions_total"] - before["plcsrv_predictions_total"]; d > 0 {
		lv["serve.cache_hit_ratio"] = (after["plcsrv_predict_cache_hits_total"] - before["plcsrv_predict_cache_hits_total"]) / d
	}
	lv["gc.cpu_frac"], lv["host.steal_frac"] = env.GCCPUFrac, env.StealFrac
	lv["trace.untraced_ops_per_s"], lv["trace.traced_ops_per_s"] = rates[0], rates[1]
	lv["trace.overhead_frac"] = 1 - rates[1]/rates[0]

	spans := append(append(setupTr.spans, loop.spans...), ledgerTr.spans...)
	selfTimes(spans)
	layers, err := deriveLayers(spans, lv, float64(runtime.GOMAXPROCS(0)))
	if err != nil {
		return err
	}
	for _, m := range layerCatalog {
		res.Metrics[m.name] = metricValue{layers[m.name], m.unit}
	}
	dump := filepath.Join(filepath.Dir(dir), fmt.Sprintf("spans-%s-%d.ndjson", name, seed))
	if err := writeSpans(dump, spans); err != nil {
		return err
	}
	printEnv(env)
	fmt.Printf("# spans %d written to %s\n", len(spans), dump)
	writeSelfLedger(os.Stdout, spans)
	return printResult(res)
}

// clampInf keeps a percentile that failures pushed to +Inf encodable:
// the largest float still misses every limit.
func clampInf(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

func roundDurations(ds []time.Duration) []time.Duration {
	out := make([]time.Duration, len(ds))
	for k, d := range ds {
		out[k] = d.Round(time.Millisecond)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func printEnv(env envReport) {
	data, _ := json.Marshal(env)
	fmt.Printf("# env %s\n", data)
}

func printResult(res result) error {
	data, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(data))
	return nil
}
