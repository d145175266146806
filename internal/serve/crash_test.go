package serve

import (
	"bytes"
	"errors"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/scenario"
)

// TestDurableCrashSweep fails, one run per point, each durable step
// that a journal's open, a prediction's cache store and a job's accept →
// store → end → compaction reach. The
// run stops right after — its files are closed as they stand, without
// Drain — and a server reopened on the same directories must replay
// exactly the accepts whose append succeeded and that have no
// successful end, hit on disk exactly the results whose append
// succeeded, and serve results byte-identical to a clean run.
func TestDurableCrashSweep(t *testing.T) {
	const reps = 2
	spec, predictSpec := tinySpec("sweep-job"), tinySpec("sweep-predict")
	jobKey, err := scenario.Fingerprint(spec, reps)
	if err != nil {
		t.Fatal(err)
	}
	modelPoint := predictSpec
	modelPoint.Engine = scenario.EngineModel
	predictKey, err := scenario.Fingerprint(modelPoint, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The steps of a clean run, in order, each with its role.
	type step struct {
		DiskStep
		role string
	}
	compaction := func(role string) []step {
		return []step{
			{DiskStep{"journal", "write", ""}, role},
			{DiskStep{"journal", "sync", ""}, role},
			{DiskStep{"journal", "rename", ""}, role},
			{DiskStep{"journal", "dirsync", ""}, role},
		}
	}
	var want []step
	want = append(want, compaction("open")...)
	want = append(want,
		step{DiskStep{"cache", "write", predictKey}, "store predict"},
		step{DiskStep{"journal", "write", "1"}, "accept"},
		step{DiskStep{"journal", "sync", "1"}, "accept"},
		step{DiskStep{"cache", "write", jobKey}, "store job"},
		step{DiskStep{"journal", "write", "1"}, "end"},
	)
	want = append(want, compaction("compact")...)

	// run drives one server on the directories, failing step failAt
	// (none when negative), and returns the steps it saw and the bytes
	// it served.
	run := func(t *testing.T, journalDir, cacheDir string, failAt int) (steps []DiskStep, job, predict []byte, err error) {
		var mu sync.Mutex
		s, err := New(Config{JournalDir: journalDir, CacheDir: cacheDir, Workers: 1, faults: &Faults{
			Disk: func(st DiskStep) error {
				mu.Lock()
				defer mu.Unlock()
				steps = append(steps, st)
				if len(steps)-1 == failAt {
					return errors.New("injected disk fault")
				}
				return nil
			},
		}})
		if err != nil {
			return steps, nil, nil, err
		}
		s.journal.mu.Lock()
		s.journal.compactEvery = 1
		s.journal.mu.Unlock()
		if predict, _, _, err = s.Predict(predictSpec); err != nil {
			t.Fatal(err)
		}
		// Hold the worker until the accept is journaled, so the job
		// cannot end first and collapse its accept away.
		hold := make(chan struct{})
		s.testHoldRun = func(*Job) { <-hold }
		j, _, _, err := s.Submit(spec, reps)
		close(hold)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		job, _, _ = j.Result()
		// Close waits for the persister to journal the end, then closes
		// the files; every job is terminal, so it writes nothing more.
		s.Close()
		mu.Lock()
		defer mu.Unlock()
		return steps, job, predict, nil
	}

	log.SetOutput(io.Discard) // failure and corrupt-tail warnings are expected here
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	steps, cleanJob, cleanPredict, err := run(t, t.TempDir(), t.TempDir(), -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != len(want) {
		t.Fatalf("a clean run took %d durable steps, want %d: %+v", len(steps), len(want), steps)
	}
	for i, p := range want {
		if steps[i] != p.DiskStep {
			t.Fatalf("clean step %d = %+v, want %+v (%s)", i, steps[i], p.DiskStep, p.role)
		}
	}

	for failAt, p := range want {
		journalDir, cacheDir := t.TempDir(), t.TempDir()
		_, job, predict, err := run(t, journalDir, cacheDir, failAt)
		started := p.role != "open"
		if started != (err == nil) {
			t.Fatalf("fail at %d (%s %+v): New error %v", failAt, p.role, p.DiskStep, err)
		}
		if started && (!bytes.Equal(job, cleanJob) || !bytes.Equal(predict, cleanPredict)) {
			t.Fatalf("fail at %d (%s %+v): served bytes differ from a clean run", failAt, p.role, p.DiskStep)
		}

		// The disk tier holds exactly the results whose append succeeded.
		c := openCache(t, cacheDir, nil)
		for _, r := range []struct {
			key, store string
			json       []byte
		}{{jobKey, "store job", cleanJob}, {predictKey, "store predict", cleanPredict}} {
			stored := started && p.role != r.store
			got, hit := c.loadDisk(r.key)
			if hit != stored || (hit && !bytes.Equal(got.json, r.json)) {
				t.Fatalf("fail at %d (%s %+v): disk hit %v for %s, want %v with the clean bytes", failAt, p.role, p.DiskStep, hit, r.key, stored)
			}
		}
		if err := c.close(); err != nil {
			t.Fatal(err)
		}

		// Replay is exactly the accept with no successful end.
		s := mustNew(t, Config{JournalDir: journalDir, CacheDir: cacheDir})
		s.replayWG.Wait() // every journaled job re-admitted
		var replayed int64
		if p.role == "end" {
			replayed = 1
			waitReplayed(t, s, 1)
			got, _, ok := s.Jobs()[0].Result()
			if !ok || !bytes.Equal(got, cleanJob) {
				t.Fatalf("fail at %d (%s): the replayed job's result differs from a clean run", failAt, p.role)
			}
		}
		if c, _ := s.Stats(); c.Replayed != replayed {
			t.Fatalf("fail at %d (%s %+v): replayed %d job(s), want %d", failAt, p.role, p.DiskStep, c.Replayed, replayed)
		}
		j, _, _, err := s.Submit(spec, reps)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		got, _, _ := j.Result()
		gotPredict, _, _, err := s.Predict(predictSpec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, cleanJob) || !bytes.Equal(gotPredict, cleanPredict) {
			t.Fatalf("fail at %d (%s): results after the restart differ from a clean run", failAt, p.role)
		}
		s.Close()
		for _, name := range dirNames(t, journalDir) {
			if name != journalFile {
				t.Fatalf("fail at %d (%s): journal dir holds %q besides the journal", failAt, p.role, name)
			}
		}
	}
}

// TestJournalLegacyFileFailsStartup: a journal dir that still holds
// the NDJSON journal of an earlier build fails startup with an error
// that names the file, and leaves the file in place.
func TestJournalLegacyFileFailsStartup(t *testing.T) {
	dir, cacheDir := t.TempDir(), t.TempDir()
	legacy := filepath.Join(dir, legacyJournalFile)
	if err := os.WriteFile(legacy, []byte(`{"seq":1,"op":"end","state":"done"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{JournalDir: dir, CacheDir: cacheDir})
	if err == nil || !strings.Contains(err.Error(), legacyJournalFile) {
		t.Fatalf("New with a leftover %s = %v, want an error naming it", legacyJournalFile, err)
	}
	if _, err := os.Stat(legacy); err != nil {
		t.Fatalf("the leftover journal is gone: %v", err)
	}
	if names := dirNames(t, cacheDir); len(names) != 0 {
		t.Fatalf("failed startup left %v in the cache dir", names)
	}
}

// TestJournalFlippedDigitNotReplayed: an accept whose payload had one
// digit changed — still valid JSON, still a well-formed record — fails
// its checksum, so neither it nor any later record is replayed.
func TestJournalFlippedDigitNotReplayed(t *testing.T) {
	dir := t.TempDir()
	data := journalBytes(acceptLine(t, 1, tinySpec("flipped-digit"), 2), acceptLine(t, 2, tinySpec("after-flip"), 2))
	i := bytes.Index(data, []byte(`"reps":2`))
	if i < 0 {
		t.Fatal("no reps field in the accept")
	}
	data[i+len(`"reps":`)] = '3'
	writeJournal(t, dir, data)
	jl, pending, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	jl.close()
	if len(pending) != 0 {
		t.Fatalf("replayed %d record(s) from a journal whose first accept was altered: %+v", len(pending), pending)
	}
}
