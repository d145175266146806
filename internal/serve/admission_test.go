package serve

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// admissionKind drives one job kind through the shared admission
// tests: scenario jobs and campaigns must answer the same lifecycle
// questions (cache hit, coalescing, backpressure, deadlines,
// cancellation, journal replay) the same way.
type admissionKind struct {
	// label is the kind's metric label value.
	label string
	// submit admits a study named name with reps replications per
	// point and a per-request deadline.
	submit func(s *Server, name string, reps int, timeout time.Duration) (*Job, bool, bool, error)
}

func admissionKinds() []admissionKind {
	return []admissionKind{
		{kindScenario, func(s *Server, name string, reps int, timeout time.Duration) (*Job, bool, bool, error) {
			return s.SubmitTimeout(tinySpec(name), reps, timeout)
		}},
		{kindCampaign, func(s *Server, name string, reps int, timeout time.Duration) (*Job, bool, bool, error) {
			c := tinyCampaign(name)
			c.Reps = reps
			return s.SubmitCampaignTimeout(c, timeout)
		}},
	}
}

// heldServer starts a one-worker server whose worker parks on every
// dequeued job until release is closed; running receives one value per
// parked job.
func heldServer(t *testing.T, cfg Config) (s *Server, running chan *Job, release chan struct{}) {
	t.Helper()
	cfg.Workers = 1
	s = mustNew(t, cfg)
	running = make(chan *Job, 16)
	release = make(chan struct{})
	s.testHoldRun = func(j *Job) {
		running <- j
		<-release
	}
	return s, running, release
}

// metricDelta returns a function reporting how far a counter moved
// since the call.
func metricDelta(t *testing.T, s *Server, name string, labels map[string]string) func() float64 {
	t.Helper()
	before := counterValue(t, scrape(t, s.Handler()), name, labels)
	return func() float64 {
		t.Helper()
		return counterValue(t, scrape(t, s.Handler()), name, labels) - before
	}
}

func TestAdmissionCacheHit(t *testing.T) {
	for _, k := range admissionKinds() {
		t.Run(k.label, func(t *testing.T) {
			s := mustNew(t, Config{})
			defer s.Close()
			subs := metricDelta(t, s, "plcsrv_submissions_total", map[string]string{"kind": k.label})
			hits := metricDelta(t, s, "plcsrv_cache_hits_total", nil)

			j1, cached, coalesced, err := k.submit(s, "adm-hit", 2, 0)
			if err != nil || cached || coalesced {
				t.Fatalf("first: cached=%v coalesced=%v err=%v", cached, coalesced, err)
			}
			waitDone(t, j1)
			j2, cached, coalesced, err := k.submit(s, "adm-hit", 2, 0)
			if err != nil || !cached || coalesced {
				t.Fatalf("second: cached=%v coalesced=%v err=%v, want cached", cached, coalesced, err)
			}
			if j2 == j1 || j2.Status().State != StateDone || !j2.Status().Cached {
				t.Fatalf("cached answer = %+v", j2.Status())
			}
			r1, t1, _ := j1.Result()
			r2, t2, _ := j2.Result()
			if !bytes.Equal(r1, r2) || t1 != t2 {
				t.Error("cached result differs from the computed one")
			}
			if st1, st2 := j1.Status(), j2.Status(); st1.Kind != st2.Kind || st1.Scenario != st2.Scenario ||
				st1.Reps != st2.Reps || st1.PointsDone != st2.PointsDone || st1.PointsTotal != st2.PointsTotal {
				t.Errorf("cached status %+v disagrees with computed %+v", st2, st1)
			}
			if got := subs(); got != 2 {
				t.Errorf("submissions_total{kind=%s} moved %v, want 2", k.label, got)
			}
			if got := hits(); got != 1 {
				t.Errorf("cache_hits_total moved %v, want 1", got)
			}
		})
	}
}

func TestAdmissionCoalesce(t *testing.T) {
	for _, k := range admissionKinds() {
		t.Run(k.label, func(t *testing.T) {
			s, running, release := heldServer(t, Config{})
			defer s.Close()
			defer close(release)
			if _, _, _, err := k.submit(s, "adm-blocker", 1, 0); err != nil {
				t.Fatal(err)
			}
			<-running
			coalescedTotal := metricDelta(t, s, "plcsrv_coalesced_total", nil)

			j1, cached, coalesced, err := k.submit(s, "adm-coalesce", 2, 0)
			if err != nil || cached || coalesced {
				t.Fatalf("first: cached=%v coalesced=%v err=%v", cached, coalesced, err)
			}
			j2, cached, coalesced, err := k.submit(s, "adm-coalesce", 2, 0)
			if err != nil || cached || !coalesced {
				t.Fatalf("second: cached=%v coalesced=%v err=%v, want coalesced", cached, coalesced, err)
			}
			if j2 != j1 {
				t.Fatal("coalesced submission returned a different job")
			}
			if j3, _, coalesced, err := k.submit(s, "adm-coalesce", 3, 0); err != nil || coalesced || j3 == j1 {
				t.Fatalf("a different reps count coalesced: coalesced=%v err=%v", coalesced, err)
			}
			if got := coalescedTotal(); got != 1 {
				t.Errorf("coalesced_total moved %v, want 1", got)
			}
		})
	}
}

func TestAdmissionQueueFull(t *testing.T) {
	for _, k := range admissionKinds() {
		t.Run(k.label, func(t *testing.T) {
			s, running, release := heldServer(t, Config{QueueDepth: 1})
			defer s.Close()
			subs := metricDelta(t, s, "plcsrv_submissions_total", map[string]string{"kind": k.label})
			rejected := metricDelta(t, s, "plcsrv_rejected_total", nil)

			held, _, _, err := k.submit(s, "adm-held", 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			<-running
			queued, _, _, err := k.submit(s, "adm-queued", 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if j, _, _, err := k.submit(s, "adm-overflow", 1, 0); !errors.Is(err, ErrQueueFull) || j != nil {
				t.Fatalf("overflow: job=%v err=%v, want ErrQueueFull", j, err)
			}
			if got := subs(); got != 2 {
				t.Errorf("submissions_total{kind=%s} moved %v, want 2 (rejections never count)", k.label, got)
			}
			if got := rejected(); got != 1 {
				t.Errorf("rejected_total moved %v, want 1", got)
			}
			for _, j := range s.Jobs() {
				if j.Status().Scenario == "adm-overflow" {
					t.Error("rejected job still registered")
				}
			}
			close(release)
			waitDone(t, held)
			waitDone(t, queued)
			again, _, _, err := k.submit(s, "adm-overflow", 1, 0)
			if err != nil {
				t.Fatalf("resubmission after the queue drained: %v", err)
			}
			waitDone(t, again)
			if st := again.Status(); st.State != StateDone {
				t.Fatalf("resubmitted job = %+v", st)
			}
		})
	}
}

func TestAdmissionTimedOut(t *testing.T) {
	for _, k := range admissionKinds() {
		t.Run(k.label, func(t *testing.T) {
			s := mustNew(t, Config{RepWorkers: 1, faults: &Faults{
				RepHook: func() { time.Sleep(20 * time.Millisecond) },
			}})
			defer s.Close()
			timedOut := metricDelta(t, s, "plcsrv_jobs_finished_total", map[string]string{"kind": k.label, "state": string(StateTimedOut)})
			j, _, _, err := k.submit(s, "adm-deadline", 20, 40*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, j)
			if st := j.Status(); st.State != StateTimedOut {
				t.Fatalf("job = %+v, want timed_out", st)
			}
			if _, _, ok := j.Result(); ok {
				t.Error("a timed-out job serves a result")
			}
			// The worker counts the outcome just after the terminal state
			// wakes waiters, so poll for it.
			deadline := time.Now().Add(10 * time.Second)
			for timedOut() != 1 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if got := timedOut(); got != 1 {
				t.Errorf("jobs_finished_total{kind=%s,state=timed_out} moved %v, want 1", k.label, got)
			}
		})
	}
}

func TestAdmissionCancelQueued(t *testing.T) {
	for _, k := range admissionKinds() {
		t.Run(k.label, func(t *testing.T) {
			s, running, release := heldServer(t, Config{})
			defer s.Close()
			blocker, _, _, err := k.submit(s, "adm-cancel-blocker", 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			<-running
			j, _, _, err := k.submit(s, "adm-cancel", 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if st := j.Cancel(); st != StateCancelled {
				t.Fatalf("cancel while queued left state %s", st)
			}
			// The cancelled job still occupies its in-flight slot until
			// the worker dequeues it; a resubmission must not attach to
			// it (that would answer a valid submission with 410 Gone).
			again, cached, coalesced, err := k.submit(s, "adm-cancel", 1, 0)
			if err != nil || cached || coalesced || again == j {
				t.Fatalf("resubmission: cached=%v coalesced=%v err=%v", cached, coalesced, err)
			}
			close(release)
			waitDone(t, blocker)
			waitDone(t, again)
			if st := j.Status(); st.State != StateCancelled {
				t.Fatalf("cancelled-in-queue job ran anyway: %+v", st)
			}
			if st := again.Status(); st.State != StateDone {
				t.Fatalf("resubmitted job = %+v", st)
			}
		})
	}
}

// TestAdmissionJournalReplay replays a journal written by an earlier
// build — one scenario accept and one campaign accept left live by an
// abandoned drain — and checks both jobs re-run to results
// byte-identical to direct submissions.
func TestAdmissionJournalReplay(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", journalFile))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFile), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{JournalDir: dir})
	waitReplayed(t, s, 2)
	replayed := map[string]*Job{}
	for _, j := range s.Jobs() {
		st := j.Status()
		if st.State != StateDone || !st.Replayed {
			t.Fatalf("replayed job = %+v, want done and replayed", st)
		}
		replayed[st.Scenario] = j
	}
	s.Close()

	ref := mustNew(t, Config{})
	defer ref.Close()
	kinds := admissionKinds()
	for i, name := range []string{"replay-scenario", "replay-campaign"} {
		j := replayed[name]
		if j == nil {
			t.Fatalf("journal replay did not admit %s (got %v)", name, replayed)
		}
		direct, _, _, err := kinds[i].submit(ref, name, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, direct)
		got, gotText, _ := j.Result()
		want, wantText, _ := direct.Result()
		if !bytes.Equal(got, want) || gotText != wantText {
			t.Errorf("%s: replayed result differs from a direct submission", name)
		}
	}
}
