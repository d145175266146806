package serve

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// journalHasEnd reports whether the journal under dir holds an end
// record for seq.
func journalHasEnd(t *testing.T, dir string, seq int64) bool {
	t.Helper()
	for _, rec := range journalRecords(t, dir) {
		if rec.Op == "end" && rec.Seq == seq {
			return true
		}
	}
	return false
}

// TestPersistOrdering pins the persister's contract while one job's
// disk-cache write is held: that job is not terminal and has no end
// record, the worker has already run the next queued job, and a
// Drain(0) issued during the hold returns only after the held result
// and its end record are on disk.
func TestPersistOrdering(t *testing.T) {
	cacheDir, journalDir := t.TempDir(), t.TempDir()
	held := make(chan string, 1)
	release := make(chan struct{})
	var holding atomic.Bool
	s := mustNew(t, Config{CacheDir: cacheDir, JournalDir: journalDir, faults: &Faults{
		Disk: func(st DiskStep) error {
			if st.Log == "cache" && holding.CompareAndSwap(false, true) {
				held <- st.Key
				<-release
			}
			return nil
		},
	}})
	defer s.Close()

	jA, _, _, err := s.Submit(tinySpec("persist-held"), 2)
	if err != nil {
		t.Fatal(err)
	}
	jB, _, _, err := s.Submit(tinySpec("persist-next"), 2)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case key := <-held:
		if key != jA.Key() {
			t.Fatalf("first held write is for %s, want job A's %s", key, jA.Key())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job A's result never reached the disk tier")
	}

	// The worker is free: job B runs all its replications while A's
	// write is held, and waits behind A for its own write (FIFO).
	for deadline := time.Now().Add(30 * time.Second); ; {
		if st := jB.Status(); st.Total > 0 && st.Done == st.Total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job B did not run while A's write was held: %+v", jB.Status())
		}
		time.Sleep(time.Millisecond)
	}
	for _, j := range []*Job{jA, jB} {
		if st := j.Status(); st.State != StateRunning {
			t.Fatalf("job %s is %s while A's write is held, want running", j.ID(), st.State)
		}
	}
	if journalHasEnd(t, journalDir, jA.seq) {
		t.Fatal("journal holds an end record for job A before its result is on disk")
	}

	type counts struct{ drained, abandoned int }
	drainDone := make(chan counts, 1)
	go func() {
		d, a := s.Drain(0)
		drainDone <- counts{d, a}
	}()
	select {
	case <-drainDone:
		t.Fatal("Drain returned while a result write was held")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	var got counts
	select {
	case got = <-drainDone:
	case <-time.After(30 * time.Second):
		t.Fatal("Drain did not return after the write was released")
	}
	if got != (counts{2, 0}) {
		t.Fatalf("Drain = %+v, want both computed jobs drained", got)
	}
	fresh := openCache(t, cacheDir, nil)
	for _, j := range []*Job{jA, jB} {
		if st := j.Status(); st.State != StateDone {
			t.Fatalf("job %s after Drain = %s, want done", j.ID(), st.State)
		}
		if _, ok := fresh.loadDisk(j.Key()); !ok {
			t.Fatalf("job %s's result is not on disk after Drain", j.ID())
		}
		if !journalHasEnd(t, journalDir, j.seq) {
			t.Fatalf("job %s has no end record after Drain", j.ID())
		}
	}
}

// TestPersistPanicIsolated: a panic while a result is persisted fails
// exactly that job, with the panic in its error; the persister goes on
// and the next job completes.
func TestPersistPanicIsolated(t *testing.T) {
	var boom atomic.Bool
	boom.Store(true)
	s := mustNew(t, Config{CacheDir: t.TempDir(), faults: &Faults{
		Disk: func(st DiskStep) error {
			if st.Log == "cache" && boom.Swap(false) {
				panic("injected persist panic")
			}
			return nil
		},
	}})
	defer s.Close()

	j1, _, _, err := s.Submit(tinySpec("persist-panic-victim"), 2)
	if err != nil {
		t.Fatal(err)
	}
	j2, _, _, err := s.Submit(tinySpec("persist-panic-survivor"), 2)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	waitDone(t, j2)
	if st := j1.Status(); st.State != StateFailed || !strings.Contains(st.Error, "injected persist panic") {
		t.Fatalf("panicking persist left job %+v, want failed with the panic", st)
	}
	if st := j2.Status(); st.State != StateDone {
		t.Fatalf("job after the persist panic = %+v, want done", st)
	}
	if c, _ := s.Stats(); c.Panics != 1 {
		t.Fatalf("panics = %d, want 1", c.Panics)
	}
}
