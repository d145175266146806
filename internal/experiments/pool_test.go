package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/par"
)

// withWorkers runs fn under the given fan-out width and restores the
// serial default afterwards (the package-level setting is shared).
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	SetWorkers(n)
	defer SetWorkers(1)
	fn()
}

func renderTable(t *testing.T, tbl *Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestParallelSweepsBitIdentical is the determinism contract of the
// worker pool: every experiment must render exactly the same table
// whether its sweep points run serially or fanned across goroutines.
func TestParallelSweepsBitIdentical(t *testing.T) {
	runs := []struct {
		name string
		gen  func() (*Table, error)
	}{
		{"table2", func() (*Table, error) {
			return Table2(Table2Config{Ns: []int{1, 2, 3}, DurationMicros: 1e6, Seed: 1})
		}},
		{"fig2", func() (*Table, error) {
			_, tbl, err := Figure2(Figure2Config{
				Ns: []int{1, 2, 3}, Tests: 2,
				TestDurationMicros: 1e6, SimTimeMicros: 2e6, Seed: 1,
			})
			return tbl, err
		}},
		{"throughput", func() (*Table, error) { return ThroughputVsN([]int{1, 2, 4}, 2e6, 1) }},
		{"fairness", func() (*Table, error) { return ShortTermFairness(2, []int{10, 100}, 4e6, 1) }},
		{"ablation-deferral", func() (*Table, error) { return AblationDeferral([]int{2, 5}, 2e6, 1) }},
		{"ablation-burst", func() (*Table, error) { return AblationBurstSize(3, 1e6, 1) }},
		{"ablation-agreement", func() (*Table, error) { return SimulatorAgreement([]int{1, 3}, 2e6, 1) }},
		{"model-accuracy", func() (*Table, error) { return ModelAccuracy([]int{2, 4}, 2e6, 1) }},
		{"delay", func() (*Table, error) { return AccessDelay([]int{1, 3}, 2e6, 1) }},
		{"delay-load", func() (*Table, error) { return DelayVsLoad(2, []float64{0.2, 0.8}, 2e6, 1) }},
	}
	for _, run := range runs {
		t.Run(run.name, func(t *testing.T) {
			serialTbl, err := run.gen()
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			var parallelTbl *Table
			withWorkers(t, 4, func() {
				parallelTbl, err = run.gen()
			})
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			serial, parallel := renderTable(t, serialTbl), renderTable(t, parallelTbl)
			if serial != parallel {
				t.Errorf("parallel output differs from serial:\nserial:\n%s\nparallel:\n%s", serial, parallel)
			}
		})
	}
}

// TestParallelBoostBitIdentical covers the boost search's fan-out: the
// full experiment (grid scoring, simulator validation, Pareto front)
// must be invariant to the worker count.
func TestParallelBoostBitIdentical(t *testing.T) {
	serialRes, serialTbl, err := Boost([]int{2, 4}, 1e6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var parallelRes *BoostResult
	var parallelTbl *Table
	withWorkers(t, 4, func() {
		parallelRes, parallelTbl, err = Boost([]int{2, 4}, 1e6, 2, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderTable(t, parallelTbl), renderTable(t, serialTbl); got != want {
		t.Errorf("boost table differs:\nserial:\n%s\nparallel:\n%s", want, got)
	}
	if !reflect.DeepEqual(serialRes.Best, parallelRes.Best) {
		t.Errorf("best candidate differs: %+v vs %+v", serialRes.Best, parallelRes.Best)
	}
}

func TestSetWorkersDefaultsToGOMAXPROCS(t *testing.T) {
	defer SetWorkers(1)
	SetWorkers(0)
	if got := par.DefaultWorkers(); got < 1 {
		t.Errorf("par.DefaultWorkers() = %d after SetWorkers(0)", got)
	}
	SetWorkers(3)
	if got := par.DefaultWorkers(); got != 3 {
		t.Errorf("par.DefaultWorkers() = %d, want 3", got)
	}
}
