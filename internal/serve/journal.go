package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
)

// journalFile is the write-ahead log's file name inside JournalDir.
// legacyJournalFile is the NDJSON journal of earlier builds, which
// this one does not read: a JournalDir that still holds one fails
// startup rather than silently dropping the jobs it owes.
const (
	journalFile       = "journal.rec"
	legacyJournalFile = "journal.ndjson"
)

// journalRecord is the payload of one journal record, whose key is the
// record's decimal seq. Two ops:
//
//   - "accept": a submission was admitted to the queue. Carries the
//     study's kind, content address, replication count, effective
//     timeout and the canonical (normalized) spec or campaign JSON —
//     everything needed to resubmit the identical study after a crash.
//   - "end": the job with the same seq reached a terminal state.
//
// An accept without a matching end is a job the daemon still owed work
// on when it stopped; startup replays exactly those.
type journalRecord struct {
	// Seq is the journal-unique job sequence number, monotonic across
	// restarts (startup resumes past the largest seq on disk). It is
	// what pairs an end with its accept: job IDs restart at j1/c1 every
	// boot, fingerprints repeat across resubmissions, seqs do neither.
	Seq int64 `json:"seq"`
	// Op is "accept" or "end".
	Op string `json:"op"`
	// Kind is "scenario" or "campaign" (accept records only).
	Kind string `json:"kind,omitempty"`
	// Key is the study's content address (accept records only).
	Key string `json:"key,omitempty"`
	// Spec is the canonical normalized scenario spec (kind "scenario").
	Spec json.RawMessage `json:"spec,omitempty"`
	// Campaign is the normalized campaign spec (kind "campaign").
	Campaign json.RawMessage `json:"campaign,omitempty"`
	// Reps is the admitted replication count (kind "scenario").
	Reps int `json:"reps,omitempty"`
	// TimeoutS is the job's effective deadline in seconds (0 = none),
	// preserved across recovery so a replayed job keeps its budget.
	TimeoutS float64 `json:"timeout_s,omitempty"`
	// State is the terminal state (end records only).
	State State `json:"state,omitempty"`
}

// journal is the append-only write-ahead log of accepted jobs, a
// record log (see reclog.go). Accepts are fsynced before the
// submission is acknowledged, so an acknowledged job survives a crash;
// ends are written without fsync (the worst a lost end costs is one
// cache-hit replay). Terminal records are compacted away once enough
// accumulate: the file is rewritten with only the still-live accepts,
// so it stays proportional to the in-flight job count, not the
// submission history.
//
// Durability is best-effort beyond the fsync contract: a journal that
// starts failing (full disk, revoked permissions) degrades the server
// — failures are counted, surfaced through /readyz and /v1/stats, and
// the first one is logged — but never blocks serving.
type journal struct {
	mu   sync.Mutex
	file *recordLog
	seq  int64
	// live maps seq → accept record for every journaled job not yet
	// ended; it is both the replay set at startup and the survivor set
	// at compaction. Bounded by queue depth + running jobs.
	live map[int64]journalRecord
	// earlyEnd holds terminal states that arrived before their accept
	// was written (a tiny job can finish while its accept append is
	// still in flight); the accept then cancels against it and neither
	// record is written.
	earlyEnd map[int64]State
	// endsSinceCompact counts end records written since the last
	// compaction; reaching compactEvery triggers one.
	endsSinceCompact int
	compactEvery     int
}

// journalCompactEvery is the default number of terminal records that
// triggers a compaction. Low enough that an idle-ish server's journal
// stays small, high enough that compaction I/O is rare.
const journalCompactEvery = 256

// openJournal opens (creating if needed) the journal under dir,
// recovers its state, and returns the records to replay — every accept
// without a matching end, in seq order. A record must frame and
// checksum correctly, carry a well-formed payload and be keyed by its
// own seq; the first that does not, and all after it, are logged and
// dropped (see walkRecords), never fatal. The recovered file is
// compacted at once, which also rewrites away the dropped tail.
func openJournal(dir string, faults *Faults) (*journal, []journalRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: journal dir %s: %w", dir, err)
	}
	if _, err := os.Stat(filepath.Join(dir, legacyJournalFile)); err == nil {
		return nil, nil, fmt.Errorf("serve: journal dir %s holds %s, an NDJSON journal of an earlier build that this build does not read: "+
			"drain it with that build (restart it on this dir and let its jobs finish) or remove the file", dir, legacyJournalFile)
	}
	l := &journal{
		file:         &recordLog{name: "journal", path: filepath.Join(dir, journalFile), faults: faults},
		live:         make(map[int64]journalRecord),
		earlyEnd:     make(map[int64]State),
		compactEvery: journalCompactEvery,
	}
	data, err := os.ReadFile(l.file.path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("serve: journal %s: %w", l.file.path, err)
	}
	good := walkRecords(bytes.NewReader(data), int64(len(data)), true, func(_ int64, key, payload []byte) bool {
		var rec journalRecord
		if json.Unmarshal(payload, &rec) != nil || !rec.wellFormed() || string(key) != strconv.FormatInt(rec.Seq, 10) {
			return false
		}
		l.seq = max(l.seq, rec.Seq)
		if rec.Op == "accept" {
			l.live[rec.Seq] = rec
		} else {
			delete(l.live, rec.Seq)
		}
		return true
	})
	if good < int64(len(data)) {
		log.Printf("serve: journal: dropping %d corrupt trailing byte(s) of %s (crash mid-append; %d live record(s) recovered)",
			int64(len(data))-good, l.file.path, len(l.live))
	}
	pending := l.sortedLive()

	// Compact on open: rewrites away ended pairs and the dropped tail,
	// and leaves the file ready for appends.
	if err := l.rewriteLocked(); err != nil {
		return nil, nil, errors.Join(err, l.file.close())
	}
	return l, pending, nil
}

// wellFormed rejects records that parsed as JSON but are not usable:
// a matching CRC proves the bytes are the ones written, not that they
// make a record replay can act on.
func (r journalRecord) wellFormed() bool {
	switch r.Op {
	case "accept":
		return r.Seq > 0 && r.Key != "" &&
			((r.Kind == "scenario" && len(r.Spec) > 0 && r.Reps > 0) ||
				(r.Kind == "campaign" && len(r.Campaign) > 0))
	case "end":
		return r.Seq > 0 && r.State.Terminal()
	}
	return false
}

// next mints the next journal sequence number.
func (l *journal) next() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	return l.seq
}

// accept journals one admitted job: append + fsync, so the record is
// durable before the submission is acknowledged. If the job already
// ended (earlyEnd), both records collapse to nothing — there is
// nothing to recover.
func (l *journal) accept(rec journalRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ended := l.earlyEnd[rec.Seq]; ended {
		delete(l.earlyEnd, rec.Seq)
		return
	}
	if l.writeLocked(rec, true) {
		l.live[rec.Seq] = rec
	}
}

// end journals one terminal transition (no fsync — losing an end to a
// crash only costs a cache-hit replay) and compacts once enough
// terminal records accumulate.
func (l *journal) end(seq int64, state State) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.live[seq]; !ok {
		// Accept not written yet (the job outran its own append) or its
		// write failed; park the state so the accept can cancel against
		// it. The map stays tiny — entries are consumed by accept — but
		// a long run of failed accepts must not grow it unboundedly.
		if len(l.earlyEnd) < 1024 {
			l.earlyEnd[seq] = state
		}
		return
	}
	if l.writeLocked(journalRecord{Seq: seq, Op: "end", State: state}, false) {
		delete(l.live, seq)
		l.endsSinceCompact++
		if l.endsSinceCompact >= l.compactEvery {
			if err := l.rewriteLocked(); err != nil {
				l.file.fail(err)
			}
		}
	}
}

// writeLocked appends one record, optionally fsyncing; the file
// accounts the outcome. l.mu must be held.
func (l *journal) writeLocked(rec journalRecord, sync bool) bool {
	data, err := json.Marshal(rec)
	if err != nil {
		l.file.fail(err) // unreachable: every journalRecord marshals
		return false
	}
	_, err = l.file.append(strconv.FormatInt(rec.Seq, 10), data, sync)
	return err == nil
}

// sortedLive returns the live accepts in seq order.
func (l *journal) sortedLive() []journalRecord {
	recs := make([]journalRecord, 0, len(l.live))
	for _, rec := range l.live {
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	return recs
}

// rewriteLocked replaces the journal file with only the live accepts
// (see recordLog.rewrite), resetting the compaction counter. l.mu must
// be held.
func (l *journal) rewriteLocked() error {
	var buf []byte
	for _, rec := range l.sortedLive() {
		data, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("serve: journal: compact: %w", err)
		}
		buf = append(buf, encodeRecord(strconv.FormatInt(rec.Seq, 10), data)...)
	}
	if err := l.file.rewrite(buf); err != nil {
		return fmt.Errorf("serve: journal: compact: %w", err)
	}
	l.endsSinceCompact = 0
	return nil
}

// liveCount returns the number of accepted jobs without a terminal
// record yet — what a crash right now would replay (0 without a
// journal).
func (l *journal) liveCount() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.live)
}

// close releases the journal file. Records already written stay on
// disk; live jobs stay live (that is the point — they replay).
func (l *journal) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.file.close()
}
