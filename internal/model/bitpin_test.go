package model

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/config"
)

// bitPin is a solver output reduced to exact IEEE-754 bit patterns:
// per-group τ, γ and (loaded classes only) availability, the stage
// distribution where the solver reports one, and the iteration count
// per solve (per class for SolveLoaded).
type bitPin struct {
	Tau, Gamma, Avail, Pi []uint64
	Iterations            []int
}

func bits(xs ...float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

func pinPrediction(p Prediction) bitPin {
	return bitPin{Tau: bits(p.Tau), Gamma: bits(p.Gamma), Pi: bits(p.StageDistribution...), Iterations: []int{p.Iterations}}
}

func pinLoaded(sol *LoadedSolution) bitPin {
	var out bitPin
	for _, cs := range sol.Classes {
		out.Tau = append(out.Tau, bits(cs.Tau...)...)
		out.Gamma = append(out.Gamma, bits(cs.Gamma...)...)
		out.Avail = append(out.Avail, bits(cs.Availability...)...)
		out.Iterations = append(out.Iterations, cs.Iterations)
	}
	return out
}

// bitPinCases are the solver inputs whose outputs are pinned bit for
// bit. Relational tests (hetero ≡ homogeneous, loaded ≡ hetero) cannot
// see a change that moves every solver the same way, and goldens print
// six decimals.
func bitPinCases() map[string]func() (bitPin, error) {
	ca1, ca3 := config.Default1901(config.CA1), config.Default1901(config.CA3)
	solve := func(n int, params config.Params, opts Options) func() (bitPin, error) {
		return func() (bitPin, error) {
			p, err := Solve(n, params, opts)
			return pinPrediction(p), err
		}
	}
	dcf := config.Default80211().Params()
	loaded := func(groups []LoadedGroup) func() (bitPin, error) {
		return func() (bitPin, error) {
			sol, err := SolveLoaded(groups, DefaultTiming(), Options{})
			if err != nil {
				return bitPin{}, err
			}
			return pinLoaded(sol), nil
		}
	}
	// poisson is a Poisson-loaded group of class pri on its class's
	// default CW/DC, one frame per interarrival µs per station.
	poisson := func(pri config.Priority, n int, interarrival float64) LoadedGroup {
		return LoadedGroup{Group: Group{N: n, Params: config.Default1901(pri)}, Priority: pri, ArrivalRate: 1 / interarrival}
	}
	return map[string]func() (bitPin, error){
		"solve/CA1/N=1":        solve(1, ca1, Options{}),
		"solve/CA1/N=2":        solve(2, ca1, Options{}),
		"solve/CA1/N=5":        solve(5, ca1, Options{}),
		"solve/CA1/N=10":       solve(10, ca1, Options{}),
		"solve/CA1/N=20":       solve(20, ca1, Options{}),
		"solve/CA3/N=10":       solve(10, ca3, Options{}),
		"solve/CA1/N=5/bisect": solve(5, ca1, Options{MaxIterations: 1}),
		"dcf/N=1":              solve(1, dcf, Options{}),
		"dcf/N=5":              solve(5, dcf, Options{}),
		"dcf/N=20":             solve(20, dcf, Options{}),
		"dcf32-1024/N=10":      solve(10, config.DCF{CWmin: 32, CWmax: 1024}.Params(), Options{}),
		"dcf8-64/N=5":          solve(5, config.DCF{CWmin: 8, CWmax: 64}.Params(), Options{}),
		"dcf8-64/N=20":         solve(20, config.DCF{CWmin: 8, CWmax: 64}.Params(), Options{}),
		"dcf3-10/N=3":          solve(3, config.DCF{CWmin: 3, CWmax: 10}.Params(), Options{}),
		"hetero/5xCA1e0.1+3xCA3": func() (bitPin, error) {
			p, err := SolveHeterogeneous([]Group{
				{N: 5, Params: ca1, ErrorProb: 0.1},
				{N: 3, Params: ca3},
			}, Options{})
			return bitPin{Tau: bits(p.Tau...), Gamma: bits(p.Gamma...), Iterations: []int{p.Iterations}}, err
		},
		"loaded/poisson+saturated": loaded([]LoadedGroup{
			{Group: Group{N: 3, Params: ca1, ErrorProb: 0.05}, Priority: config.CA1, ArrivalRate: 2e-5},
			{Group: Group{N: 5, Params: ca1}, Priority: config.CA1, Saturated: true},
		}),
		"loaded/starvation": loaded([]LoadedGroup{
			{Group: Group{N: 3, Params: ca3}, Priority: config.CA3, ArrivalRate: 3e-5},
			{Group: Group{N: 3, Params: ca1}, Priority: config.CA1, Saturated: true},
			{Group: Group{N: 2, Params: ca3}, Priority: config.CA0, ArrivalRate: 1e-4},
		}),
		// A predict-mix point where an early accelerated solver left
		// the domain until its retry budget ran out.
		"loaded/no-converge": loaded([]LoadedGroup{
			poisson(config.CA2, 2, 97216.554),
			poisson(config.CA1, 1, 125458.712),
			poisson(config.CA1, 1, 111364.96),
			poisson(config.CA1, 3, 9436.344),
		}),
		// Overloaded CA3 stations must hold availability exactly 1, so
		// the CA0 class below them starves to exactly zero.
		"loaded/overload-starves": loaded([]LoadedGroup{
			poisson(config.CA3, 3, 51443.361),
			poisson(config.CA0, 2, 163635.273),
			poisson(config.CA3, 3, 11174.454),
		}),
	}
}

// TestSolversBitPinned pins every fixed-point solver's output to exact
// bits, so a reordered floating-point operation in the shared damped
// loop fails here even when it moves every solver the same way.
func TestSolversBitPinned(t *testing.T) {
	want := map[string]bitPin{
		"dcf/N=1":                  {Tau: []uint64{0x3fbe1e1e1e1e1e1e}, Gamma: []uint64{0x0}, Pi: []uint64{0x3ff0000000000000, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0}, Iterations: []int{0}},
		"dcf/N=20":                 {Tau: []uint64{0x3fa15d9198a910c6}, Gamma: []uint64{0x3fdec69bbb80796a}, Pi: []uint64{0x3fe09cb2223fc34b, 0x3fcff402cd49d497, 0x3fbebb13f2f33c26, 0x3fad8e1dcd6c87ae, 0x3f9c6cab1e8a5083, 0x3f8b564b2458a5bb, 0x3f8952926cb89d12}, Iterations: []int{11}},
		"dcf/N=5":                  {Tau: []uint64{0x3fb37e7e94b96ace}, Gamma: []uint64{0x3fd160d9c77ad2ea}, Pi: []uint64{0x3fe74f931c42968b, 0x3fc951a70a8c267d, 0x3fab800404879ac7, 0x3f8dde7aabfd0c1e, 0x3f703897e24473cf, 0x3f519e51b97ea8ec, 0x3f3a44ec054de72c}, Iterations: []int{6}},
		"dcf32-1024/N=10":          {Tau: []uint64{0x3fa319a6c4c2559b}, Gamma: []uint64{0x3fd28b9d9618597a}, Pi: []uint64{0x3fe6ba3134f3d344, 0x3fca57c8bf454f33, 0x3fae889febac8911, 0x3f91b211c8c1084c, 0x3f7482bd45a80cff, 0x3f60bc93aeb802ff}, Iterations: []int{7}},
		"dcf8-64/N=5":              {Tau: []uint64{0x3fbe8e646cf6d01a}, Gamma: []uint64{0x3fd981fccbe1d6c0}, Pi: []uint64{0x3fe33f019a0f14a0, 0x3fceaece9339f0e8, 0x3fb8753477df06ac, 0x3fb0352191347281}, Iterations: []int{6}},
		"dcf8-64/N=20":             {Tau: []uint64{0x3faf02721defaa32}, Gamma: []uint64{0x3fe63c7fdb3be4c4}, Pi: []uint64{0x3fd3870049883678, 0x3fcb2376b1523e4d, 0x3fc2dbb08721947c, 0x3fd5796c1a3de024}, Iterations: []int{8}},
		"dcf3-10/N=3":              {Tau: []uint64{0x3fd3649e96ad4fa5}, Gamma: []uint64{0x3fe074706961f086}, Pi: []uint64{0x3fdf171f2d3c1ef3, 0x3fcff9613de45b9d, 0x3fd0ec3033d1b33c}, Iterations: []int{7}},
		"hetero/5xCA1e0.1+3xCA3":   {Tau: []uint64{0x3fa2d140a07cac07, 0x3fb6cc03284e2e6c}, Gamma: []uint64{0x3fd6599f77064dea, 0x3fd3f57e7c89a8ec}, Iterations: []int{13}},
		"loaded/poisson+saturated": {Tau: []uint64{0x3fa8a31f0afdd631, 0x3fac1fd92c4eaca7}, Gamma: []uint64{0x3fd1faca12bc960a, 0x3fd0717b70604734}, Avail: []uint64{0x3fdf188f6bb8b271, 0x3ff0000000000000}, Iterations: []int{22}},
		"loaded/no-converge":       {Tau: []uint64{0x3fcc63313e7945ed, 0x3fc052dc936a6f75, 0x3fc05ad7298408e6, 0x3fc38380f9a8b4bc}, Gamma: []uint64{0x3f397c0cba279000, 0x3fba6fb58f468d50, 0x3fba5ba733b9c708, 0x3fb2d32f14e9e1a8}, Avail: []uint64{0x3f5cba495d892f13, 0x3f95a727444886c7, 0x3f9856a36ab07aab, 0x3fcd22eefa1ad92b}, Iterations: []int{13, 2522}},
		"loaded/overload-starves":  {Tau: []uint64{0x3fb6ea9ef7a81751, 0x3fb9e868b502b363, 0x0}, Gamma: []uint64{0x3fd3c7c6d273d65a, 0x3fd001ca5621daf6, 0x0}, Avail: []uint64{0x3fd1852872a1ca87, 0x3ff0000000000000, 0x3ff0000000000000}, Iterations: []int{30, 0}},
		"loaded/starvation":        {Tau: []uint64{0x3fcc0b432d906462, 0x3fb62f01525fd287, 0x0}, Gamma: []uint64{0x3f66ce826681db00, 0x3fc538f2e48d75f8, 0x0}, Avail: []uint64{0x3f7a0ac2065b48a0, 0x3ff0000000000000, 0x3ff0000000000000}, Iterations: []int{12, 7, 0}},
		"solve/CA1/N=1":            {Tau: []uint64{0x3fcc71c71c71c71c}, Gamma: []uint64{0x0}, Pi: []uint64{0x3ff0000000000000, 0x0, 0x0, 0x0}, Iterations: []int{0}},
		"solve/CA1/N=10":           {Tau: []uint64{0x3fa5a69404cbe5c4}, Gamma: []uint64{0x3fd49e7152739abe}, Pi: []uint64{0x3fd4bb390251d51c, 0x3fcf0b505570d071, 0x3fc6f527ee1b43c4, 0x3fd0448adbe820c8}, Iterations: []int{9}},
		"solve/CA1/N=2":            {Tau: []uint64{0x3fbdf2e98b2855b0}, Gamma: []uint64{0x3fbdf2e98b2855b0}, Pi: []uint64{0x3fe45554ddc0b353, 0x3fd07aae0e6304fb, 0x3fb539b5f3f0b5c1, 0x3f98c3ab91f66f04}, Iterations: []int{6}},
		"solve/CA1/N=20":           {Tau: []uint64{0x3f9ed1f4b9c765c0}, Gamma: []uint64{0x3fdc307fe3497c42}, Pi: []uint64{0x3fcce5356ca3f2c0, 0x3fc859dca293f1a7, 0x3fc47ca0d643fa5a, 0x3fdb22268d42109f}, Iterations: []int{9}},
		"solve/CA1/N=5":            {Tau: []uint64{0x3fb0089e53cc1dc8}, Gamma: []uint64{0x3fcd2db326831090}, Pi: []uint64{0x3fdbb8e8ee305f49, 0x3fd177ab46709db2, 0x3fc4effd85932f44, 0x3fc0aeda112ad6c9}, Iterations: []int{8}},
		"solve/CA1/N=5/bisect":     {Tau: []uint64{0x3fb0089e53cc4892}, Gamma: []uint64{0x3fcd2db32683570c}, Pi: []uint64{0x3fdbb8e8ee302efd, 0x3fd177ab467096e5, 0x3fc4effd85934b9a, 0x3fc0aeda112b289f}, Iterations: []int{41}},
		"solve/CA3/N=10":           {Tau: []uint64{0x3fb1d8a2adac42f1}, Gamma: []uint64{0x3fde99c750ea9fbe}, Pi: []uint64{0x3fd13f7efa23acc6, 0x3fcdd0ca648cbc14, 0x3fc9bfb25517927d, 0x3fd2f842a90a2bf2}, Iterations: []int{7}},
	}
	for name, run := range bitPinCases() {
		got, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no pin recorded; got %#v", name, got)
			continue
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("%s: solver output moved\n got %#v\nwant %#v", name, got, w)
		}
	}
}
