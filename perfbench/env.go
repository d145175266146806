package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTimes is the aggregate "cpu" line of /proc/stat: total jiffies and
// the steal share of them (time the hypervisor ran someone else while
// this VM had work).
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var t cpuTimes
		// user nice system idle iowait irq softirq steal [guest guest_nice];
		// guest time is already inside user, so it is not added again.
		for i := 1; i <= 8; i++ {
			v, _ := strconv.ParseUint(fields[i], 10, 64)
			t.total += v
			if i == 8 {
				t.steal = v
			}
		}
		return t
	}
	return cpuTimes{}
}

// stealFrac is the steal share of CPU time between two readings.
func stealFrac(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// gcCPU reads the runtime's cumulative GC and total CPU estimates.
type gcCPU struct{ gc, total float64 }

func readGCCPU() gcCPU {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return gcCPU{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// gcFrac is the GC share of the process's CPU time between two readings.
func gcFrac(a, b gcCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.gc - a.gc) / (b.total - a.total)
}

// heapSampler samples /gc/heap/live:bytes (the heap live after the last
// GC) on a fixed period, without forcing collections.
type heapSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	samples []float64 // MiB
}

func startHeapSampler(period time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				metrics.Read(s)
				h.samples = append(h.samples, float64(s[0].Value.Uint64())/(1<<20))
			}
		}
	}()
	return h
}

// finish stops sampling and returns the samples.
func (h *heapSampler) finish() []float64 {
	close(h.stop)
	h.done.Wait()
	return h.samples
}

// heapAllocs is the cumulative count of heap allocations, tiny ones
// included.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// envReport is the diagnostics block every run prints.
type envReport struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Trace      bool    `json:"trace"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	StealFrac  float64 `json:"host.steal_frac"`
	GCCPUFrac  float64 `json:"gc.cpu_frac"`
}

func newEnvReport(workload string, seed uint64, trace bool) envReport {
	return envReport{Workload: workload, Seed: seed, Trace: trace, CPU: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}
