// Fairness: replicates the authors' prior study ("Fairness of MAC
// protocols: IEEE 1901 vs 802.11") with this library: identical
// saturated scenarios run under both protocols, winner traces recorded,
// and the sliding-window Jain index compared across window sizes. The
// example also prints a Figure 1-style excerpt of the two-station
// backoff dynamics that cause the unfairness.
//
// Run with:
//
//	go run ./examples/fairness
package main

import (
	"fmt"
	"log"

	"repro/internal/backoff"
	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/fairness"
	"repro/internal/sim"
)

func main() {
	// Part 1: the Figure 1 dynamics.
	fmt.Println("Figure 1-style trace (2 saturated stations, CA1):")
	tbl, err := experiments.Figure1(3, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-6s %-10s %-12s %-12s %s\n", "event", "t (µs)", "A cw/dc/bc", "B cw/dc/bc", "outcome")
	for _, row := range tbl.Rows {
		fmt.Printf("%-6s %-10s %2s/%2s/%2s     %2s/%2s/%2s     %s\n",
			row[0], row[1], row[2], row[3], row[4], row[5], row[6], row[7], row[8])
	}

	// Part 2: short-term fairness, 1901 vs 802.11.
	const n, simTime = 2, 5e7
	universe := []int{0, 1}

	// 802.11 is the same engine on the DCF windows with deferral
	// counters that never expire.
	collect := func(params config.Params) []int {
		in := sim.DefaultInputs(n)
		in.SimTime = simTime
		in.Params = params
		e, err := sim.NewEngine(in)
		if err != nil {
			log.Fatal(err)
		}
		rec := &winners{}
		e.SetObserver(rec)
		e.Run()
		return rec.trace
	}

	t1901, tdcf := collect(config.DefaultCA1()), collect(config.Default80211().Params())
	fmt.Printf("\nshort-term fairness, %d stations, %d/%d transmissions traced:\n",
		n, len(t1901), len(tdcf))
	fmt.Printf("%-12s %10s %10s\n", "window (tx)", "1901", "802.11")
	for _, w := range []int{5, 10, 30, 100, 1000} {
		a, err := fairness.ShortTermJain(t1901, universe, w)
		if err != nil {
			log.Fatal(err)
		}
		b, err := fairness.ShortTermJain(tdcf, universe, w)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12d %10.4f %10.4f\n", w, a.MeanJain, b.MeanJain)
	}

	// Part 3: win-run lengths — the mechanism behind the numbers.
	runs1901 := fairness.ConsecutiveWins(t1901)
	runsDCF := fairness.ConsecutiveWins(tdcf)
	fmt.Printf("\nconsecutive-win runs (how often one station won k times in a row):\n")
	fmt.Printf("%-4s %10s %10s\n", "k", "1901", "802.11")
	for k := 1; k <= 8; k++ {
		fmt.Printf("%-4d %10d %10d\n", k, runs1901[k], runsDCF[k])
	}
	fmt.Println("\n1901's winner restarts at CW₀=8 while the loser climbs stages, so long")
	fmt.Println("win-runs are much more common than under 802.11 — the Figure 1 effect.")
}

// winners records success winners from a simulation.
type winners struct{ trace []int }

// OnSlot implements sim.Observer.
func (w *winners) OnSlot(_ float64, kind sim.SlotKind, txs []int, _ []backoff.Snapshot) {
	if kind == sim.Success {
		w.trace = append(w.trace, txs[0])
	}
}
