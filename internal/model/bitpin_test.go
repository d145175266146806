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
	}
}

// TestSolversBitPinned pins every fixed-point solver's output to exact
// bits, so a reordered floating-point operation in the shared damped
// loop fails here even when it moves every solver the same way.
func TestSolversBitPinned(t *testing.T) {
	want := map[string]bitPin{
		"dcf/N=1":                  {Tau: []uint64{0x3fbe1e1e1e1e1e1e}, Gamma: []uint64{0x0}, Pi: []uint64{0x3ff0000000000000, 0x0, 0x0, 0x0, 0x0, 0x0, 0x0}, Iterations: []int{0}},
		"dcf/N=20":                 {Tau: []uint64{0x3fa15d9198a9a206}, Gamma: []uint64{0x3fdec69bbb8132d0}, Pi: []uint64{0x3fe09cb2223eaf6c, 0x3fcff402cd49fecf, 0x3fbebb13f2f58bb0, 0x3fad8e1dcd70d273, 0x3f9c6cab1e906ed6, 0x3f8b564b2460723a, 0x3f8952926cc340f0}, Iterations: []int{25}},
		"dcf/N=5":                  {Tau: []uint64{0x3fb37e7e94badbef}, Gamma: []uint64{0x3fd160d9c77bf5fa}, Pi: []uint64{0x3fe74f931c41a08c, 0x3fc951a70a8de818, 0x3fab8004048c8daa, 0x3f8dde7aac05b9c0, 0x3f703897e24af58c, 0x3f519e51b987acf2, 0x3f3a44ec055f555e}, Iterations: []int{45}},
		"dcf32-1024/N=10":          {Tau: []uint64{0x3fa319a6c4c54992}, Gamma: []uint64{0x3fd28b9d961accde}, Pi: []uint64{0x3fe6ba3134f1b888, 0x3fca57c8bf48d93d, 0x3fae889febb79133, 0x3f91b211c8cb7116, 0x3f7482bd45b8c559, 0x3f60bc93aecb00d6}, Iterations: []int{46}},
		"dcf8-64/N=5":              {Tau: []uint64{0x3fbe8e646cf5e52f}, Gamma: []uint64{0x3fd981fccbe13650}, Pi: []uint64{0x3fe33f019a0fa0f0, 0x3fceaece93397f0a, 0x3fb8753477dd9ed6, 0x3fb0352191325b96}, Iterations: []int{43}},
		"dcf8-64/N=20":             {Tau: []uint64{0x3faf02721df15b45}, Gamma: []uint64{0x3fe63c7fdb3c8bca}, Pi: []uint64{0x3fd387004985c3fa, 0x3fcb2376b15055ed, 0x3fc2dbb087214ac7, 0x3fd5796c1a416bad}, Iterations: []int{40}},
		"dcf3-10/N=3":              {Tau: []uint64{0x3fd3649e96ad00f0}, Gamma: []uint64{0x3fe074706961b9ab}, Pi: []uint64{0x3fdf171f2d3ccb77, 0x3fcff9613de4656e, 0x3fd0ec3033d101d3}, Iterations: []int{57}},
		"hetero/5xCA1e0.1+3xCA3":   {Tau: []uint64{0x3fa2d140a0807132, 0x3fb6cc03284b03c2}, Gamma: []uint64{0x3fd6599f7705e19a, 0x3fd3f57e7c8a25b0}, Iterations: []int{92}},
		"loaded/poisson+saturated": {Tau: []uint64{0x3fa8a31f0afde624, 0x3fac1fd92c4ee2fd}, Gamma: []uint64{0x3fd1faca12bca2e8, 0x3fd0717b70604872}, Avail: []uint64{0x3fdf188f6bb7e711, 0x3ff0000000000000}, Iterations: []int{109}},
		"loaded/starvation":        {Tau: []uint64{0x3fcc0b432d8e1db6, 0x3fb62f015260d173, 0x0}, Gamma: []uint64{0x3f66ce8266a67a00, 0x3fc538f2e48e5ecc, 0x0}, Avail: []uint64{0x3f7a0ac206873e38, 0x3ff0000000000000, 0x3ff0000000000000}, Iterations: []int{131, 36, 0}},
		"solve/CA1/N=1":            {Tau: []uint64{0x3fcc71c71c71c71c}, Gamma: []uint64{0x0}, Pi: []uint64{0x3ff0000000000000, 0x0, 0x0, 0x0}, Iterations: []int{0}},
		"solve/CA1/N=10":           {Tau: []uint64{0x3fa5a69404cdeb0e}, Gamma: []uint64{0x3fd49e71527536a2}, Pi: []uint64{0x3fd4bb39024ead20, 0x3fcf0b50556e2cc9, 0x3fc6f527ee1b13a8, 0x3fd0448adbecb2a7}, Iterations: []int{38}},
		"solve/CA1/N=2":            {Tau: []uint64{0x3fbdf2e98b27187d}, Gamma: []uint64{0x3fbdf2e98b271880}, Pi: []uint64{0x3fe45554ddc158b1, 0x3fd07aae0e62a33c, 0x3fb539b5f3ee7b3e, 0x3f98c3ab91f0c916}, Iterations: []int{41}},
		"solve/CA1/N=20":           {Tau: []uint64{0x3f9ed1f4b9cd3877}, Gamma: []uint64{0x3fdc307fe34d798a}, Pi: []uint64{0x3fcce5356c9a5ab2, 0x3fc859dca28dcb53, 0x3fc47ca0d6408041, 0x3fdb22268d4bacdc}, Iterations: []int{46}},
		"solve/CA1/N=5":            {Tau: []uint64{0x3fb0089e53cce30d}, Gamma: []uint64{0x3fcd2db326845588}, Pi: []uint64{0x3fdbb8e8ee2ea830, 0x3fd177ab46705fe3, 0x3fc4effd859430fa, 0x3fc0aeda112dbedf}, Iterations: []int{37}},
		"solve/CA1/N=5/bisect":     {Tau: []uint64{0x3fb0089e53cc4892}, Gamma: []uint64{0x3fcd2db32683570c}, Pi: []uint64{0x3fdbb8e8ee302efd, 0x3fd177ab467096e5, 0x3fc4effd85934b9a, 0x3fc0aeda112b289f}, Iterations: []int{41}},
		"solve/CA3/N=10":           {Tau: []uint64{0x3fb1d8a2adadb8f8}, Gamma: []uint64{0x3fde99c750ec77d6}, Pi: []uint64{0x3fd13f7efa221e87, 0x3fcdd0ca648ae06c, 0x3fc9bfb25516b440, 0x3fd2f842a90d1722}, Iterations: []int{53}},
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
