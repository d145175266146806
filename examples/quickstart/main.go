// Quickstart: evaluate the IEEE 1901 CSMA/CA performance of a home
// power-line network three ways — simulator, analytical model, emulated
// HomePlug AV measurement — and print the Figure 2 comparison.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/config"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// Short horizons keep the example interactive (~1 s); the paper's full
// setup runs 5·10⁸ µs simulations and 10 × 240 s tests.
const (
	simTime      = 2e7 // µs per simulation
	testDuration = 1e7 // µs per emulated measurement
	tests        = 3   // measurements per station count
	seed         = 1
)

// simulate runs the finite-state-machine simulator for n CA1 stations.
func simulate(n int) sim.Result {
	in := sim.DefaultInputs(n)
	in.SimTime = simTime
	in.Seed = seed
	e, err := sim.NewEngine(in)
	if err != nil {
		log.Fatal(err)
	}
	return e.Run()
}

// measure summarizes ΣC/ΣA over repeated emulated testbed runs.
func measure(n int) stats.Summary {
	params := config.DefaultCA1()
	measured := make([]float64, 0, tests)
	for k := 0; k < tests; k++ {
		tb, err := testbed.New(testbed.Options{N: n, Seed: seed + uint64(1000*n+k), Params: &params})
		if err != nil {
			log.Fatal(err)
		}
		measured = append(measured, tb.CollisionProbability(testDuration))
	}
	return stats.Summarize(measured)
}

func main() {
	fmt.Println("IEEE 1901 collision probability, three ways (CA1 defaults)")
	fmt.Println()
	fmt.Printf("%3s  %12s  %10s  %22s\n", "N", "simulation", "analysis", "measurement (±95% CI)")

	for n := 1; n <= 7; n++ {
		pred, err := model.Solve(n, config.DefaultCA1(), model.Options{})
		if err != nil {
			log.Fatal(err)
		}
		meas := measure(n)
		fmt.Printf("%3d  %12.4f  %10.4f  %14.4f ± %.4f\n",
			n, simulate(n).CollisionProbability, pred.Gamma, meas.Mean, meas.CI95)
	}

	fmt.Println()
	fmt.Println("Normalized throughput (simulator vs model), N = 3:")
	_, met, err := model.Predict(3, config.DefaultCA1())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  simulator: %.4f\n", simulate(3).NormalizedThroughput)
	fmt.Printf("  model:     %.4f\n", met.NormalizedThroughput)
}
