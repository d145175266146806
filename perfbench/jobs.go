package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/par"
	"repro/internal/scenario"
	"repro/internal/serve"
)

// jobs-durable: POST a job, follow its event stream to the terminal
// state, GET the result — against a server with a journal and a disk
// cache, restarted during set-up.
const (
	jobSetups     = 5
	jobBacklog    = 60 // queued jobs left for the restart to replay
	fillCount     = 60 // disk-cache entries written before the restarts
	sampleChecks  = 24 // results re-derived in process byte for byte
	decomposeJobs = 24 // measured operations the traced run decomposes
)

// plugBody is a long job that holds the single job worker while a
// backlog is queued behind it, so the backlog is exactly as long as
// asked. One replication leaves the other core to the submissions.
// Drain does not interrupt a running replication, so the plug itself
// completes and is not replayed.
var plugBody = requestBody("spec", scenario.Spec{Name: "plug", Engine: scenario.EngineSim, SimTimeMicros: 5e9,
	Seed: 1, Stations: []scenario.Group{{Count: 3}}}, 1)

type jobsWorkload struct {
	seed    uint64
	dir     string
	h       *harness
	workers int
	capOps  int // room for each client's result records, off the heap
	results [maxConns]resultStore
}

func newJobsWorkload(seed uint64, dur time.Duration, dir string) *jobsWorkload {
	return &jobsWorkload{seed: seed, dir: dir, workers: runtime.GOMAXPROCS(0), capOps: opsCap(dur)}
}

func durableCfg(dir string) serve.Config {
	return serve.Config{CacheDir: filepath.Join(dir, "cache"), JournalDir: filepath.Join(dir, "journal")}
}

// setup builds a state directory through the public API (untimed), then
// restarts a server over a fresh copy of it jobSetups times. Each
// restart is timed from serve.New until /readyz answers 200 and every
// replayed job is terminal; the last server stays up.
func (w *jobsWorkload) setup(tr *tracer) ([]time.Duration, error) {
	template := filepath.Join(w.dir, "template")
	if err := w.buildState(template); err != nil {
		return nil, fmt.Errorf("build state: %w", err)
	}
	var times []time.Duration
	for k := 0; k < jobSetups; k++ {
		if w.h != nil {
			w.h.close()
			w.h = nil
		}
		dir := filepath.Join(w.dir, fmt.Sprintf("restart-%d", k))
		if err := copyTree(template, dir); err != nil {
			return nil, err
		}
		// The copy's dirty pages would otherwise be written back inside
		// the timed restart, by its first journal fsync.
		syscall.Sync()
		t0 := time.Now()
		boot := tr.begin(-1, 0, "serve.restart")
		h, err := startServer(durableCfg(dir))
		if err != nil {
			return nil, err
		}
		w.h = h
		if err := h.waitReady(60 * time.Second); err != nil {
			return nil, err
		}
		boot.end()
		st, err := awaitReplay(h)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0))
		if st.Replayed != jobBacklog {
			return nil, fmt.Errorf("restart %d replayed %d jobs, want %d", k, st.Replayed, jobBacklog)
		}
	}
	return times, nil
}

// awaitReplay polls /v1/stats until the journal owes nothing.
func awaitReplay(h *harness) (serve.StatsResponse, error) {
	for deadline := time.Now().Add(60 * time.Second); ; {
		st, err := h.stats()
		if err != nil {
			return st, err
		}
		if st.JournalLiveRecords == 0 {
			if st.Failed+st.Cancelled+st.TimedOut > 0 {
				return st, fmt.Errorf("replayed jobs did not all complete: %+v", st.Counters)
			}
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("replay still owes %d jobs", st.JournalLiveRecords)
		}
		time.Sleep(time.Millisecond)
	}
}

// buildState leaves in dir what a crash leaves: a journal with a queued
// backlog and a populated disk cache. A server with journal and cache
// takes the plug, then the backlog queues behind it, then Drain(0)
// abandons the backlog with its journal records live. A second server
// over the cache alone then computes fillCount other results and the
// first third of the backlog, so the restart replays a third from disk
// and simulates the rest.
func (w *jobsWorkload) buildState(dir string) error {
	h, err := startServer(durableCfg(dir))
	if err != nil {
		return err
	}
	plugResp, _, err := h.do("POST", "/v1/jobs", plugBody, http.StatusAccepted)
	if err != nil {
		h.close()
		return err
	}
	var plug serve.SubmitResponse
	if err := json.Unmarshal(plugResp, &plug); err != nil {
		h.close()
		return err
	}
	for i := 0; i < jobBacklog; i++ {
		if _, _, err := h.do("POST", "/v1/jobs", jobBody(w.seed, streamBacklog, int64(i)), http.StatusAccepted); err != nil {
			h.close()
			return err
		}
	}
	if j, ok := h.srv.Job(plug.ID); !ok || j.Status().State != serve.StateRunning {
		h.close()
		return fmt.Errorf("the plug job finished before the backlog was queued")
	}
	h.abandon()

	cacheOnly := serve.Config{CacheDir: filepath.Join(dir, "cache")}
	c, err := startServer(cacheOnly)
	if err != nil {
		return err
	}
	defer c.close()
	var bodies [][]byte
	for i := 0; i < jobBacklog/3; i++ {
		bodies = append(bodies, jobBody(w.seed, streamBacklog, int64(i)))
	}
	for i := 0; i < fillCount; i++ {
		bodies = append(bodies, jobBody(w.seed, streamFill, int64(i)))
	}
	_, err = par.Map(maxConns, bodies, func(_ int, body []byte) (struct{}, error) {
		_, err := runStudy(c, nil, -1, "/v1/jobs", body)
		return struct{}{}, err
	})
	return err
}

func (w *jobsWorkload) op(cl int, tr *tracer, i int64) (time.Duration, error) {
	body := jobBody(w.seed, streamOps, i)
	t0 := time.Now()
	data, err := runStudy(w.h, tr, i, "/v1/jobs", body)
	lat := time.Since(t0)
	if err != nil {
		return lat, err
	}
	w.results[cl].add(i, data, w.capOps)
	return lat, nil
}

// runStudy submits one study and returns its result bytes: POST until
// 202 (accept), the event stream until the terminal state, GET result.
// With a tracer, the server-side queue wait and run time read off the
// terminal event's trace timeline become child spans of the stream.
func runStudy(h *harness, tr *tracer, i int64, path string, body []byte) ([]byte, error) {
	root := tr.begin(i, 0, "op.study")
	defer root.end()
	sp := tr.begin(i, root.id(), "http.accept")
	resp, _, err := h.do("POST", path, body, http.StatusAccepted)
	sp.end()
	if err != nil {
		return nil, err
	}
	var sub serve.SubmitResponse
	if err := json.Unmarshal(resp, &sub); err != nil {
		return nil, fmt.Errorf("POST %s: decode: %w", path, err)
	}
	sp = tr.begin(i, root.id(), "http.events")
	ev, err := h.awaitTerminal(path + "/" + sub.ID + "/events")
	sp.end()
	if err != nil {
		return nil, err
	}
	if tr != nil {
		at := map[string]time.Time{}
		for _, st := range ev.Trace {
			at[st.Stage] = st.At
		}
		if q, ok := at["queued"]; ok {
			if r, ok := at["running"]; ok {
				tr.add(i, sp.id(), "serve.queue_wait", q, r)
				tr.add(i, sp.id(), "serve.run", r, ev.Trace[len(ev.Trace)-1].At)
			}
		}
	}
	if ev.State != serve.StateDone {
		return nil, fmt.Errorf("%s %s ended %s: %s", path, sub.ID, ev.State, ev.Error)
	}
	sp = tr.begin(i, root.id(), "http.result")
	data, _, err := h.do("GET", path+"/"+sub.ID+"/result", nil, http.StatusOK)
	sp.end()
	return data, err
}

// check validates every result, and re-derives a seeded sample in
// process (scenario.Replications) byte for byte.
func (w *jobsWorkload) check() (map[int64]bool, error) {
	bad := make(map[int64]bool)
	served := make(map[int64][]byte)
	var ids []int64
	for k := range w.results {
		w.results[k].each(func(i int64, data []byte) {
			ids = append(ids, i)
			served[i] = data
			if err := checkJobResult(data, jobReps); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: operation %d: %v\n", i, err)
				bad[i] = true
			}
		})
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, i := range seededSample(ids, sampleChecks, w.seed) {
		want, err := expectJob(jobBody(w.seed, streamOps, i), jobReps, w.workers)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(want, served[i]) {
			fmt.Fprintf(os.Stderr, "perfbench: operation %d: served bytes differ from the in-process result\n", i)
			bad[i] = true
		}
	}
	return bad, nil
}

// seededSample picks up to n of ids, evenly spaced from a seeded offset.
func seededSample(ids []int64, n int, seed uint64) []int64 {
	if len(ids) <= n {
		return ids
	}
	step := len(ids) / n
	off := int(rng(seed, streamDecision, 0).IntN(step))
	var out []int64
	for k := off; k < len(ids) && len(out) < n; k += step {
		out = append(out, ids[k])
	}
	return out
}

// ledger decomposes a sample of the measured jobs in process and
// probes the predict and campaign layers jobs-durable does not reach.
func (w *jobsWorkload) ledger(tr *tracer, ran int64) (layerValues, error) {
	lv := layerValues{}
	step := max(1, ran/decomposeJobs)
	for i := int64(0); i < ran && i/step < decomposeJobs; i += step {
		if err := decomposeJob(tr, i, jobBody(w.seed, streamOps, i), w.workers); err != nil {
			return nil, err
		}
	}
	if err := decomposePredicts(tr, newPredictGen(w.seed, hotSetSize/10), streamProbe, decomposeOps, lv); err != nil {
		return nil, err
	}
	return lv, probeCampaigns(tr, w.h, w.seed)
}

func (w *jobsWorkload) server() *harness { return w.h }

func (w *jobsWorkload) close() {
	if w.h != nil {
		w.h.close()
	}
}

// probeJobs runs a few submissions of every job kind through h and
// decomposes each in process: the traced run's view of the job layers
// on a workload that does not exercise them.
func probeJobs(tr *tracer, h *harness, seed uint64) error {
	for i := int64(0); i < 3*numJobKinds; i++ {
		body := jobBody(seed, streamProbe, i)
		if _, err := runStudy(h, tr, -100-i, "/v1/jobs", body); err != nil {
			return fmt.Errorf("probe job %d: %w", i, err)
		}
		if err := decomposeJob(tr, -100-i, body, runtime.GOMAXPROCS(0)); err != nil {
			return err
		}
	}
	return nil
}

// probeCampaigns is probeJobs for campaigns.
func probeCampaigns(tr *tracer, h *harness, seed uint64) error {
	for i := int64(0); i < 4; i++ {
		body := campaignBody(seed, streamProbe, i)
		if _, err := runStudy(h, tr, -200-i, "/v1/campaigns", body); err != nil {
			return fmt.Errorf("probe campaign %d: %w", i, err)
		}
		if err := decomposeCampaign(tr, -200-i, body, runtime.GOMAXPROCS(0)); err != nil {
			return err
		}
	}
	return nil
}

// decomposeJob traces the layer calls behind one job: parse, compile,
// fingerprint, Replications at the server's worker count, the summary
// and render of its report — and then every replication again, one at
// a time, so per-replication cost and pool efficiency can be read off.
func decomposeJob(tr *tracer, i int64, body []byte, workers int) error {
	root := tr.begin(i, 0, "inproc.job")
	defer root.end()
	sp := tr.begin(i, root.id(), "scenario.parse")
	spec, err := specOf(body)
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.begin(i, root.id(), "scenario.compile")
	c, err := scenario.Compile(spec)
	sp.end()
	if err != nil {
		return err
	}
	var req serve.SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	sp = tr.begin(i, root.id(), "scenario.fingerprint")
	key, err := scenario.Fingerprint(spec, req.Reps)
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.begin(i, root.id(), "scenario.replications")
	rep, err := scenario.Replications(c, req.Reps, workers)
	sp.endTag("", float64(workers))
	if err != nil {
		return err
	}
	sp = tr.begin(i, root.id(), "scenario.summarize")
	for pi, p := range rep.Points {
		scenario.SummarizePoint(c.Points[pi].N, p.Seeds, p.PerRep, p.Controls, c.Spec.VarianceReduction)
	}
	sp.end()
	sp = tr.begin(i, root.id(), "scenario.render")
	_, err = encodeResult(key, rep)
	sp.end()
	if err != nil {
		return err
	}
	name := c.Spec.Engine + ".rep"
	for pi, p := range rep.Points {
		for _, seed := range p.Seeds {
			sp = tr.begin(i, root.id(), name)
			_, err := scenario.RunOnce(c.Points[pi], seed)
			sp.endTag("", c.Spec.SimTimeMicros/1e6)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// decomposeCampaign traces campaign.Compile and campaign.Run, then
// re-runs every control-variate replication the campaign simulated,
// one at a time, so the share of campaign time spent simulating can be
// read off.
func decomposeCampaign(tr *tracer, i int64, body []byte, workers int) error {
	root := tr.begin(i, 0, "inproc.campaign")
	defer root.end()
	spec, err := campaignOf(body)
	if err != nil {
		return err
	}
	sp := tr.begin(i, root.id(), "campaign.compile")
	norm, err := spec.Normalized()
	var c *campaign.Compiled
	if err == nil {
		c, err = campaign.Compile(norm)
	}
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.begin(i, root.id(), "campaign.run")
	rep, err := campaign.Run(c, campaign.Opts{Workers: workers})
	if err != nil {
		sp.end()
		return err
	}
	sp.endTag("", float64(rep.SimulatedReps))
	for pi, p := range rep.Points {
		pt := c.Points[pi]
		for _, seed := range p.Report.Points[0].Seeds {
			sp = tr.begin(i, root.id(), "sim.cv_rep")
			_, _, err := scenario.RunOnceCV(pt.Compiled.Points[0], seed)
			sp.endTag("", pt.Spec.SimTimeMicros/1e6)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// resultStore keeps one client's result bytes off the Go heap (see
// offHeap), so the measured live heap does not grow with the number of
// results kept for checking, and the window sees no disk I/O but the
// server's: the bytes go to mapped chunks, one record per result.
type resultStore struct {
	recs   []resultRec
	chunks [][]byte
}

type resultRec struct {
	i                int64
	chunk, off, size int32
}

const resultChunk = 4 << 20

// add copies data, the result of operation i; capOps sizes the record
// table on first use.
func (s *resultStore) add(i int64, data []byte, capOps int) {
	if s.recs == nil {
		s.recs = offHeap[resultRec](capOps)
	}
	last := len(s.chunks) - 1
	if last < 0 || cap(s.chunks[last])-len(s.chunks[last]) < len(data) {
		s.chunks = append(s.chunks, offHeap[byte](max(resultChunk, len(data))))
		last++
	}
	off := len(s.chunks[last])
	s.chunks[last] = append(s.chunks[last], data...)
	s.recs = append(s.recs, resultRec{i: i, chunk: int32(last), off: int32(off), size: int32(len(data))})
}

// each visits every result in the order it was added.
func (s *resultStore) each(fn func(i int64, data []byte)) {
	for _, r := range s.recs {
		fn(r.i, s.chunks[r.chunk][r.off:r.off+r.size])
	}
}
