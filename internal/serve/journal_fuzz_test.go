package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"log"
	"os"
	"path/filepath"
	"testing"
)

var updateJournalFixture = flag.Bool("update-journal-fixture", false, "rewrite testdata/"+journalFile+" from the current journal writer")

// TestJournalFixture pins the journal's bytes: the fixture is what the
// journal writes for one scenario accept (seq 1) and one campaign
// accept (seq 2) of the studies TestAdmissionJournalReplay replays, the
// state an abandoned drain leaves. -update-journal-fixture regenerates
// it through the journal's own write path.
func TestJournalFixture(t *testing.T) {
	s := mustNew(t, Config{JournalDir: t.TempDir()}) // a journal, so accepts carry their canonical spec
	defer s.Close()
	scen, err := s.scenarioStudy(tinySpec("replay-scenario"), 2)
	if err != nil {
		t.Fatal(err)
	}
	camp := tinyCampaign("replay-campaign")
	camp.Reps = 2
	cs, err := s.campaignStudy(camp)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jl, _, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, sub := range []submission{scen, cs} {
		rec := sub.accept
		rec.Seq, rec.Op = int64(i+1), "accept"
		jl.accept(rec)
	}
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", journalFile)
	if *updateJournalFixture {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the journal writes different bytes than %s; if the change is intended, rerun with -update-journal-fixture", path)
	}
}

// FuzzJournalOpen feeds arbitrary bytes to startup recovery as the
// journal file. Recovery must never panic; whatever it replays must be
// well-formed accepts in strictly increasing seq order; the file it
// compacts to must recover the same pending set when opened again; and
// flipping a byte inside one record's payload of that file (the
// position picked by flip) must drop that record and every later one.
func FuzzJournalOpen(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", journalFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture, uint(0))
	f.Add([]byte{}, uint(1))
	f.Add(append(append([]byte{}, fixture...), journalBytes(`{"seq":1,"op":"end","state":"done"}`)...), uint(2))
	f.Add(append(append([]byte{}, fixture...), journalBytes(`{"seq":3,"op":"accept","kind":"scen`)...), uint(4000))
	f.Add(journalBytes(`{"seq":2,"op":"accept","kind":"scenario","key":"k","spec":{ "a" : "<b>" },"reps":1}`,
		`{"seq":1,"op":"accept","kind":"campaign","key":"c","campaign":[1, 2]}`,
		`{"seq":2,"op":"end","state":"cancelled"}`), uint(7))
	f.Add(journalBytes(`{"seq":5,"op":"accept","kind":"campaign","key":"c","campaign":[1]}`,
		`{"seq":7,"op":"accept","kind":"campaign","key":"d","campaign":[2]}`), uint(1<<20))

	log.SetOutput(io.Discard) // corrupt-tail warnings are expected here
	f.Cleanup(func() { log.SetOutput(os.Stderr) })
	f.Fuzz(func(t *testing.T, data []byte, flip uint) {
		dir := t.TempDir()
		writeJournal(t, dir, data)
		jl, pending, err := openJournal(dir, nil)
		if err != nil {
			t.Fatalf("openJournal: %v", err)
		}
		jl.close()
		for i, rec := range pending {
			if rec.Op != "accept" || !rec.wellFormed() {
				t.Fatalf("pending record %d is not a well-formed accept: %+v", i, rec)
			}
			if i > 0 && rec.Seq <= pending[i-1].Seq {
				t.Fatalf("pending seqs not strictly increasing: %d after %d", rec.Seq, pending[i-1].Seq)
			}
		}
		compacted, err := os.ReadFile(filepath.Join(dir, journalFile))
		if err != nil {
			t.Fatal(err)
		}

		jl, again, err := openJournal(dir, nil)
		if err != nil {
			t.Fatalf("reopen compacted journal: %v", err)
		}
		jl.close()
		samePending(t, "reopen", again, pending)

		// The compacted file holds exactly the pending accepts, in
		// order. Flip one payload byte of record k.
		var payloads [][2]int64 // per record, its payload's [start, end)
		walkRecords(bytes.NewReader(compacted), int64(len(compacted)), true, func(off int64, key, payload []byte) bool {
			start := off + recHeader + int64(len(key))
			payloads = append(payloads, [2]int64{start, start + int64(len(payload))})
			return true
		})
		if len(payloads) != len(pending) {
			t.Fatalf("compacted journal holds %d record(s) for %d pending", len(payloads), len(pending))
		}
		var total int64
		for _, p := range payloads {
			total += p[1] - p[0]
		}
		if total == 0 {
			return
		}
		pos, k := int64(flip%uint(total)), 0
		for pos >= payloads[k][1]-payloads[k][0] {
			pos -= payloads[k][1] - payloads[k][0]
			k++
		}
		compacted[payloads[k][0]+pos] ^= 0xff
		writeJournal(t, dir, compacted)
		jl, flipped, err := openJournal(dir, nil)
		if err != nil {
			t.Fatalf("open flipped journal: %v", err)
		}
		jl.close()
		samePending(t, "flipped payload byte", flipped, pending[:k])
	})
}

// samePending fails unless got and want are the same records. Records
// are compared in their marshaled form: compaction re-marshals the raw
// spec bytes (compacted, HTML escaped).
func samePending(t *testing.T, what string, got, want []journalRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: recovered %d pending record(s), want %d", what, len(got), len(want))
	}
	for i := range want {
		a, err := json.Marshal(want[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(got[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: pending record %d changed:\n%s\n%s", what, i, b, a)
		}
	}
}
