package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/par"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// predict-mix: POST /v1/predict, ¾ re-asks of a hot set that fits the
// server's cache, ¼ fresh operating points, spread over the three
// analytic shapes.
const (
	hotSetSize    = 1000
	predictCache  = 2048 // entries: the hot set plus room for the fresh churn
	predictSetups = 5
	decomposeOps  = 300 // predict operations the traced run decomposes
)

var predictCfg = serve.Config{CacheEntries: predictCache}

// predictRec is what the loop keeps of one answer: a hash of its bytes,
// checked against the in-process answer after the window.
type predictRec struct {
	i    int64
	hot  int
	hash uint64
}

type predictWorkload struct {
	seed    uint64
	gen     *predictGen
	h       *harness
	hseed   maphash.Seed
	hotHash [][]uint64 // per set-up, per hot index
	capOps  int        // room for each client's records, off the heap
	recs    [maxConns][]predictRec
}

func newPredictWorkload(seed uint64, dur time.Duration) *predictWorkload {
	return &predictWorkload{seed: seed, gen: newPredictGen(seed, hotSetSize), hseed: maphash.MakeSeed(), capOps: opsCap(dur)}
}

// setup boots a server and warms the hot set through POST /v1/predict
// over both connections, predictSetups times; the last server stays up.
func (w *predictWorkload) setup(tr *tracer) ([]time.Duration, error) {
	var times []time.Duration
	for k := 0; k < predictSetups; k++ {
		if w.h != nil {
			w.h.close()
			w.h = nil
		}
		t0 := time.Now()
		boot := tr.begin(-1, 0, "serve.restart")
		h, err := startServer(predictCfg)
		if err != nil {
			return nil, err
		}
		w.h = h
		if err := h.waitReady(10 * time.Second); err != nil {
			return nil, err
		}
		boot.end()
		hashes, err := w.warm(h)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0))
		w.hotHash = append(w.hotHash, hashes)
	}
	return times, nil
}

// warm asks every hot point once, from maxConns clients.
func (w *predictWorkload) warm(h *harness) ([]uint64, error) {
	hashes := make([]uint64, len(w.gen.hot))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		errs [maxConns]error
	)
	for cl := 0; cl < maxConns; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(w.gen.hot) {
					return
				}
				data, _, err := h.do("POST", "/v1/predict", w.gen.hot[k].body, http.StatusOK)
				if err != nil {
					errs[cl] = fmt.Errorf("warm hot point %d: %w", k, err)
					return
				}
				hashes[k] = maphash.Bytes(w.hseed, data)
			}
		}(cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return hashes, nil
}

func (w *predictWorkload) op(cl int, tr *tracer, i int64) (time.Duration, error) {
	op := w.gen.op(streamOps, i)
	root := tr.begin(i, 0, "op.predict")
	sp := tr.begin(i, root.id(), "http.predict")
	t0 := time.Now()
	data, hdr, err := w.h.do("POST", "/v1/predict", op.body, http.StatusOK)
	lat := time.Since(t0)
	sp.endTag(hdr.Get("X-Cache"), 0)
	root.end()
	if err != nil {
		return lat, err
	}
	if w.recs[cl] == nil {
		w.recs[cl] = offHeap[predictRec](w.capOps)
	}
	w.recs[cl] = append(w.recs[cl], predictRec{i: i, hot: op.hot, hash: maphash.Bytes(w.hseed, data)})
	return lat, nil
}

// check recomputes every distinct answer in process (scenario.Compile +
// Replications, the CLI path) and compares bytes: each hot point once,
// against every set-up's warm answer and every re-ask; each fresh point
// against its answer.
func (w *predictWorkload) check() (map[int64]bool, error) {
	hotWant, err := par.Map(maxConns, w.gen.hot, func(_ int, op predictOp) (uint64, error) {
		want, err := expectPredict(op.body)
		return maphash.Bytes(w.hseed, want), err
	})
	if err != nil {
		return nil, fmt.Errorf("expected hot answers: %w", err)
	}
	for k, hashes := range w.hotHash {
		for hot, h := range hashes {
			if h != hotWant[hot] {
				return nil, fmt.Errorf("set-up %d: warm answer for hot point %d differs from the in-process result", k, hot)
			}
		}
	}
	var fresh []predictRec
	bad := make(map[int64]bool)
	for _, recs := range w.recs {
		for _, r := range recs {
			switch {
			case r.hot < 0:
				fresh = append(fresh, r)
			case r.hash != hotWant[r.hot]:
				bad[r.i] = true
			}
		}
	}
	ok, err := par.Map(maxConns, fresh, func(_ int, r predictRec) (bool, error) {
		want, err := expectPredict(w.gen.op(streamOps, r.i).body)
		return err == nil && maphash.Bytes(w.hseed, want) == r.hash, nil
	})
	if err != nil {
		return nil, err
	}
	for k, good := range ok {
		if !good {
			bad[fresh[k].i] = true
		}
	}
	return bad, nil
}

// ledger decomposes a sample of the measured predict operations and
// probes the job and campaign layers predict-mix never reaches.
func (w *predictWorkload) ledger(tr *tracer, ran int64) (layerValues, error) {
	lv := layerValues{}
	if err := decomposePredicts(tr, w.gen, streamOps, ran, lv); err != nil {
		return nil, err
	}
	if err := probeJobs(tr, w.h, w.seed); err != nil {
		return nil, err
	}
	if err := probeCampaigns(tr, w.h, w.seed); err != nil {
		return nil, err
	}
	return lv, nil
}

func (w *predictWorkload) server() *harness { return w.h }

func (w *predictWorkload) close() {
	if w.h != nil {
		w.h.close()
	}
}

// decomposePredicts replays up to decomposeOps predict operations of a
// stream serially, each through a twin pair of fresh servers with the
// same cache state for that operation — y behind HTTP, z called in
// process — so HTTP cost is the round trip on y minus z.Predict on the
// same body. Each operation is then decomposed into the scenario and
// model calls the server makes. It also counts the allocations of
// loaded solves and the twin's cache-hit ratio.
func decomposePredicts(tr *tracer, gen *predictGen, stream, ran int64, lv layerValues) error {
	y, err := startServer(predictCfg)
	if err != nil {
		return err
	}
	defer y.close()
	z, err := serve.New(predictCfg)
	if err != nil {
		return err
	}
	defer z.Close()
	before, err := y.scrape("plcsrv_predictions_total", "plcsrv_predict_cache_hits_total")
	if err != nil {
		return err
	}
	step := max(1, ran/decomposeOps)
	var allocs []float64
	for i := int64(0); i < ran && i/step < decomposeOps; i += step {
		op := gen.op(stream, i)
		spec, err := specOf(op.body)
		if err != nil {
			return err
		}
		if op.hot >= 0 {
			// A hot point is cached on the measured server; cache it on
			// both twins first (untimed) so the pair measures a hit.
			if _, _, _, err := y.srv.Predict(spec); err != nil {
				return err
			}
			if _, _, _, err := z.Predict(spec); err != nil {
				return err
			}
		}
		if err := decomposePredict(tr, i, op, y, z); err != nil {
			return err
		}
		if op.shape == shapeLoaded && len(allocs) < 5 {
			n, err := solveAllocs(spec)
			if err != nil {
				return err
			}
			allocs = append(allocs, n)
		}
	}
	after, err := y.scrape("plcsrv_predictions_total", "plcsrv_predict_cache_hits_total")
	if err != nil {
		return err
	}
	lv["model.loaded_allocs"] = median(allocs)
	if d := after["plcsrv_predictions_total"] - before["plcsrv_predictions_total"]; d > 0 {
		lv["serve.cache_hit_ratio"] = (after["plcsrv_predict_cache_hits_total"] - before["plcsrv_predict_cache_hits_total"]) / d
	}
	return nil
}

// decomposePredict traces one predict operation: the HTTP/in-process
// pair, then every layer call the server makes for it.
func decomposePredict(tr *tracer, i int64, op predictOp, y *harness, z *serve.Server) error {
	root := tr.begin(i, 0, "inproc.predict")
	defer root.end()
	rt := tr.begin(i, root.id(), "http.predict")
	_, hdr, err := y.do("POST", "/v1/predict", op.body, http.StatusOK)
	rt.endTag(hdr.Get("X-Cache"), 0)
	if err != nil {
		return err
	}

	sp := tr.begin(i, root.id(), "scenario.parse")
	spec, err := specOf(op.body)
	sp.end()
	if err != nil {
		return err
	}
	spec.Engine = scenario.EngineModel

	sp = tr.begin(i, root.id(), "serve.predict")
	_, _, cached, err := z.Predict(spec)
	sp.endTag(hitMiss(cached), 0)
	if err != nil {
		return err
	}

	sp = tr.begin(i, root.id(), "scenario.compile")
	c, err := scenario.Compile(spec)
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.begin(i, root.id(), "scenario.fingerprint")
	key, err := scenario.Fingerprint(spec, 1)
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.begin(i, root.id(), "model."+shapeNames[op.shape])
	metrics, err := scenario.RunOnce(c.Points[0], 0)
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.begin(i, root.id(), "scenario.summarize")
	seeds := []uint64{scenario.RepSeed(c.Spec.SeedPolicy, c.Spec.Seed, 0, 0)}
	pr := scenario.SummarizePoint(c.Points[0].N, seeds, [][]scenario.Metric{metrics}, nil, nil)
	sp.end()
	sp = tr.begin(i, root.id(), "scenario.render")
	data, err := encodeResult(key, &scenario.Report{Spec: c.Spec, Reps: 1, Points: []scenario.PointReport{pr}})
	sp.end()
	if err != nil {
		return err
	}
	// The decomposition must reproduce the served answer exactly, or
	// it is timing something other than what the server does.
	want, err := expectPredict(op.body)
	if err != nil {
		return err
	}
	if !bytes.Equal(data, want) {
		return fmt.Errorf("decomposed predict %d does not reproduce the served bytes", i)
	}
	return nil
}

func hitMiss(cached bool) string {
	if cached {
		return "hit"
	}
	return "miss"
}

// solveAllocs counts the heap allocations of one loaded solve: the
// smallest of three runtime/metrics deltas, which is exact when nothing
// else allocates meanwhile (the loop has ended; the servers are idle).
func solveAllocs(spec scenario.Spec) (float64, error) {
	c, err := scenario.Compile(spec)
	if err != nil {
		return 0, err
	}
	best := ^uint64(0)
	for k := 0; k < 3; k++ {
		a := heapAllocs()
		if _, err := scenario.RunOnce(c.Points[0], 0); err != nil {
			return 0, err
		}
		best = min(best, heapAllocs()-a)
	}
	return float64(best), nil
}
