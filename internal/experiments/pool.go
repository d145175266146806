package experiments

import "repro/internal/par"

// SetWorkers sets how many goroutines the experiment sweeps — and the
// boost package's model search and simulator validation — fan their
// independent points across. n ≤ 0 selects GOMAXPROCS; 1 (the default)
// runs serially. Each sweep point owns its random streams (seeds are
// derived per point, never shared) and results are collected in input
// order, so every table and figure is bit-identical whatever the worker
// count — parallelism only changes wall-clock time.
func SetWorkers(n int) { par.SetDefaultWorkers(n) }

// sweep maps fn over the experiment's independent points on the
// SetWorkers width, returning the per-point results in input order.
func sweep[T, R any](items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	return par.MapDefault(items, fn)
}
