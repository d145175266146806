package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalOpen feeds arbitrary bytes to startup recovery as the
// journal file. Recovery must never panic; whatever it replays must be
// well-formed accepts in strictly increasing seq order; and the file it
// compacts to must recover the same pending set when opened again.
func FuzzJournalOpen(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", journalFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fixture)
	f.Add([]byte{})
	f.Add(append(append([]byte{}, fixture...), `{"seq":1,"op":"end","state":"done"}`+"\n"...))
	f.Add(append(append([]byte{}, fixture...), `{"seq":3,"op":"accept","kind":"scen`...))
	f.Add([]byte(`{"seq":2,"op":"accept","kind":"scenario","key":"k","spec":{ "a" : "<b>" },"reps":1}` + "\n" +
		`{"seq":1,"op":"accept","kind":"campaign","key":"c","campaign":[1, 2]}` + "\n" +
		`{"seq":2,"op":"end","state":"cancelled"}` + "\n"))

	log.SetOutput(io.Discard) // corrupt-tail warnings are expected here
	f.Cleanup(func() { log.SetOutput(os.Stderr) })
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
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

		jl, again, err := openJournal(dir, nil)
		if err != nil {
			t.Fatalf("reopen compacted journal: %v", err)
		}
		jl.close()
		if len(again) != len(pending) {
			t.Fatalf("reopen recovered %d pending record(s), first open %d", len(again), len(pending))
		}
		// Compaction re-marshals the raw spec bytes (compacted, HTML
		// escaped), so compare records in their marshaled form.
		for i := range pending {
			a, err := json.Marshal(pending[i])
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(again[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("pending record %d changed across reopen:\n%s\n%s", i, a, b)
			}
		}
	})
}
