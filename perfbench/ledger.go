package main

import (
	"fmt"
	"io"
	"sort"
)

// layerValues holds per-layer metrics measured outside spans (counts
// and ratios), keyed by metric name.
type layerValues map[string]float64

// metricDef is one reported metric.
type metricDef struct{ name, unit string }

// layerCatalog is every per-layer metric a traced run reports, in
// BENCHMARK.json order.
var layerCatalog = []metricDef{
	{"serve.http_us", "us"},
	{"serve.predict_hit_us", "us"},
	{"serve.predict_miss_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.accept_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.result_ms", "ms"},
	{"serve.restart_s", "s"},
	{"scenario.parse_us", "us"},
	{"scenario.compile_us", "us"},
	{"scenario.fingerprint_us", "us"},
	{"scenario.summarize_us", "us"},
	{"scenario.render_us", "us"},
	{"scenario.replications_ms", "ms"},
	{"model.saturated_us", "us"},
	{"model.hetero_us", "us"},
	{"model.loaded_us", "us"},
	{"model.loaded_allocs", "count"},
	{"sim.rep_ms", "ms"},
	{"sim.cv_rep_ms", "ms"},
	{"sim.sim_s_per_s", "sim_s/s"},
	{"mac.rep_ms", "ms"},
	{"mac.sim_s_per_s", "sim_s/s"},
	{"par.efficiency", "ratio"},
	{"campaign.compile_ms", "ms"},
	{"campaign.run_ms", "ms"},
	{"campaign.simreps", "count"},
	{"campaign.rep_share", "ratio"},
	{"gc.cpu_frac", "ratio"},
	{"host.steal_frac", "ratio"},
	{"trace.untraced_ops_per_s", "1/s"},
	{"trace.traced_ops_per_s", "1/s"},
	{"trace.overhead_frac", "ratio"},
}

// spanMedians maps per-layer metrics read as the median duration of one
// span name to that name and the metric's time unit in nanoseconds.
var spanMedians = map[string]struct {
	span string
	unit float64
}{
	"serve.accept_ms":          {"http.accept", 1e6},
	"serve.queue_wait_ms":      {"serve.queue_wait", 1e6},
	"serve.run_ms":             {"serve.run", 1e6},
	"serve.result_ms":          {"http.result", 1e6},
	"serve.restart_s":          {"serve.restart", 1e9},
	"scenario.parse_us":        {"scenario.parse", 1e3},
	"scenario.compile_us":      {"scenario.compile", 1e3},
	"scenario.fingerprint_us":  {"scenario.fingerprint", 1e3},
	"scenario.summarize_us":    {"scenario.summarize", 1e3},
	"scenario.render_us":       {"scenario.render", 1e3},
	"scenario.replications_ms": {"scenario.replications", 1e6},
	"model.saturated_us":       {"model.saturated", 1e3},
	"model.hetero_us":          {"model.hetero", 1e3},
	"model.loaded_us":          {"model.loaded", 1e3},
	"sim.rep_ms":               {"sim.rep", 1e6},
	"sim.cv_rep_ms":            {"sim.cv_rep", 1e6},
	"mac.rep_ms":               {"mac.rep", 1e6},
	"campaign.compile_ms":      {"campaign.compile", 1e6},
	"campaign.run_ms":          {"campaign.run", 1e6},
}

// deriveLayers computes every per-layer metric from the run's spans and
// the separately measured values in lv. A metric with no samples is an
// error: every traced run must report the whole catalog.
func deriveLayers(spans []span, lv layerValues, workers float64) (map[string]float64, error) {
	byName := make(map[string][]*span)
	children := make(map[int64][]*span)
	for k := range spans {
		s := &spans[k]
		byName[s.Name] = append(byName[s.Name], s)
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	durs := func(name string, keep func(*span) bool) []float64 {
		var out []float64
		for _, s := range byName[name] {
			if keep == nil || keep(s) {
				out = append(out, float64(s.End-s.Start))
			}
		}
		return out
	}
	out := make(map[string]float64)
	for m, d := range spanMedians {
		if xs := durs(d.span, nil); len(xs) > 0 {
			out[m] = median(xs) / d.unit
		}
	}
	hit := func(s *span) bool { return s.Tag == "hit" }
	miss := func(s *span) bool { return s.Tag == "miss" }
	if xs := durs("serve.predict", hit); len(xs) > 0 {
		out["serve.predict_hit_us"] = median(xs) / 1e3
	}
	if xs := durs("serve.predict", miss); len(xs) > 0 {
		out["serve.predict_miss_us"] = median(xs) / 1e3
	}

	// HTTP cost: round trip minus the twin's in-process Predict, paired
	// within one decomposed operation and only when both servers agreed
	// on hit or miss.
	var httpCost, parEff, repShare, simreps []float64
	for _, root := range byName["inproc.predict"] {
		var rt, pr *span
		for _, c := range children[root.ID] {
			switch c.Name {
			case "http.predict":
				rt = c
			case "serve.predict":
				pr = c
			}
		}
		if rt != nil && pr != nil && rt.Tag == pr.Tag {
			httpCost = append(httpCost, float64(rt.dur()-pr.dur())/1e3)
		}
	}
	// Pool efficiency: the replications' one-at-a-time cost over the
	// pool's wall time times its width.
	for _, root := range byName["inproc.job"] {
		var wall, width, reps float64
		for _, c := range children[root.ID] {
			switch c.Name {
			case "scenario.replications":
				wall, width = float64(c.dur()), c.Val
			case "sim.rep", "mac.rep":
				reps += float64(c.dur())
			}
		}
		if wall > 0 && width > 0 {
			parEff = append(parEff, reps/(wall*width))
		}
	}
	// Campaign simulation share: simulated replications times their mean
	// one-at-a-time cost, over the pool time campaign.Run held (wall time
	// times pool width) — the share of it spent simulating.
	for _, root := range byName["inproc.campaign"] {
		var run *span
		var repSum, repN float64
		for _, c := range children[root.ID] {
			switch c.Name {
			case "campaign.run":
				run = c
			case "sim.cv_rep":
				repSum += float64(c.dur())
				repN++
			}
		}
		if run != nil && repN > 0 {
			simreps = append(simreps, run.Val)
			repShare = append(repShare, run.Val*(repSum/repN)/(float64(run.dur())*workers))
		}
	}
	for name, xs := range map[string][]float64{"serve.http_us": httpCost, "par.efficiency": parEff,
		"campaign.rep_share": repShare, "campaign.simreps": simreps} {
		if len(xs) > 0 {
			out[name] = median(xs)
		}
	}
	// Simulated seconds per wall second, over every timed replication.
	for engine, names := range map[string][]string{"sim": {"sim.rep", "sim.cv_rep"}, "mac": {"mac.rep"}} {
		var simS, wall float64
		for _, n := range names {
			for _, s := range byName[n] {
				simS += s.Val
				wall += float64(s.dur()) / 1e9
			}
		}
		if wall > 0 {
			out[engine+".sim_s_per_s"] = simS / wall
		}
	}
	for k, v := range lv {
		out[k] = v
	}
	for _, m := range layerCatalog {
		if _, ok := out[m.name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s has no samples", m.name)
		}
	}
	return out, nil
}

// writeSelfLedger prints, per span name, the count and total and median
// self time: where the traced run's time went once each span's children
// are taken out.
func writeSelfLedger(w io.Writer, spans []span) {
	type agg struct {
		n     int
		total int64
		self  []float64
	}
	by := make(map[string]*agg)
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.total += s.Self
		a.self = append(a.self, float64(s.Self))
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].total > by[names[j]].total })
	fmt.Fprintf(w, "# self-time ledger: span, count, total self ms, median self us\n")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "#   %-24s %7d %10.1f %10.1f\n", n, a.n, float64(a.total)/1e6, median(a.self)/1e3)
	}
}
