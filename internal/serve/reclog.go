package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Both durable files of the server — the job journal and the disk
// cache's segments — are logs of framed records, each written with a
// single write:
//
//	magic u32 | key length u32 | payload length u32 | CRC-32C u32 | key | payload
//
// (little-endian). The CRC covers both lengths, the key and the
// payload. This file is the only code that knows the format.
const (
	recMagic   = 0x52434c50 // "PLCR"
	recHeader  = 16
	maxKeyLen  = 1 << 12
	maxPayload = 1<<32 - 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// recordCRC is the checksum a record header carries: over the two
// lengths (hdr[4:12]) and the key+payload body.
func recordCRC(hdr, body []byte) uint32 {
	return crc32.Update(crc32.Update(0, castagnoli, hdr[4:12]), castagnoli, body)
}

// encodeRecord frames one record.
func encodeRecord(key string, payload []byte) []byte {
	rec := make([]byte, recHeader, recHeader+len(key)+len(payload))
	binary.LittleEndian.PutUint32(rec, recMagic)
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(payload)))
	rec = append(append(rec, key...), payload...)
	binary.LittleEndian.PutUint32(rec[12:], recordCRC(rec[:recHeader], rec[recHeader:]))
	return rec
}

// readRecord reads the record at off, which must end by end (so a
// tampered length is never allocated), and returns its key and the
// offset just past it. With payload set it also reads the payload and
// checks the CRC; without, the payload stays unread.
func readRecord(r io.ReaderAt, off, end int64, payload bool) (key, data []byte, next int64, ok bool) {
	var hdr [recHeader]byte
	if _, err := r.ReadAt(hdr[:], off); err != nil || binary.LittleEndian.Uint32(hdr[:]) != recMagic {
		return nil, nil, 0, false
	}
	klen, plen := int(binary.LittleEndian.Uint32(hdr[4:])), int(binary.LittleEndian.Uint32(hdr[8:]))
	if next = off + recHeader + int64(klen) + int64(plen); klen == 0 || klen > maxKeyLen || next > end {
		return nil, nil, 0, false
	}
	if !payload {
		plen = 0
	}
	body := make([]byte, klen+plen)
	if _, err := r.ReadAt(body, off+recHeader); err != nil ||
		payload && recordCRC(hdr[:], body) != binary.LittleEndian.Uint32(hdr[12:]) {
		return nil, nil, 0, false
	}
	return body[:klen], body[klen:], next, true
}

// walkRecords is the one open walk: it visits the records of the first
// size bytes of r in order (see readRecord for payloads) and returns
// the offset just past the last one fn accepted. It stops at the first
// record that is torn, malformed or refused by fn: a crash mid-append
// leaves at most a torn tail, and nothing at or after a bad record is
// trusted.
func walkRecords(r io.ReaderAt, size int64, payloads bool, fn func(off int64, key, payload []byte) bool) int64 {
	var off int64
	for off+recHeader <= size {
		key, payload, next, ok := readRecord(r, off, size, payloads)
		if !ok || !fn(off, key, payload) {
			break
		}
		off = next
	}
	return off
}

// recordLog is one append-only file of framed records: the journal, or
// a cache instance's own segment. Callers serialize appends and
// rewrites; the failure counts are atomics because /readyz and
// /v1/stats read them while writes are in flight.
type recordLog struct {
	name   string // "journal" or "cache": names the log in messages and fault steps
	path   string
	f      *os.File // nil once closed
	end    int64    // just past the last good record
	limit  int64    // the log never grows past this offset (0: no limit)
	faults *Faults  // nil in production

	// Write-failure account: consecutive resets on every successful
	// append, total only grows, and only the first failure is logged
	// (a full disk must not flood the log).
	consec, total atomic.Int64
	logOnce       sync.Once
}

// fault consults the Disk fault hook before one durable step.
func (l *recordLog) fault(op, key string) error {
	if f := l.faults; f != nil && f.Disk != nil {
		return f.Disk(DiskStep{Log: l.name, Op: op, Key: key})
	}
	return nil
}

// write writes p at off in f and, with sync set, fsyncs f. n is how
// many bytes reached f: a write the fault hook fails writes half of p
// first, as a full disk can.
func (l *recordLog) write(f *os.File, p []byte, off int64, key string, sync bool) (n int, err error) {
	injected := l.fault("write", key)
	if injected != nil {
		p = p[:len(p)/2]
	}
	n, err = f.WriteAt(p, off)
	if err = errors.Join(injected, err); err == nil && sync {
		if err = l.fault("sync", key); err == nil {
			err = f.Sync()
		}
	}
	return n, err
}

// append writes one record at the end of the log with a single write,
// fsyncing it when sync is set, and returns its offset. A failed write
// or fsync truncates the log back to its last good record: the next
// record overwrites the torn bytes from their start, and the truncate
// clears them from a log whose next record is shorter, or that gets
// none. Every outcome goes into the failure account.
func (l *recordLog) append(key string, payload []byte, sync bool) (int64, error) {
	off, size := l.end, int64(recHeader+len(key)+len(payload))
	var err error
	switch {
	case len(key) == 0 || len(key) > maxKeyLen || int64(len(payload)) > maxPayload:
		err = fmt.Errorf("record of %d+%d bytes does not fit the record format", len(key), len(payload))
	case l.limit > 0 && off+size > l.limit:
		err = fmt.Errorf("%s is full", l.path)
	case l.f == nil:
		err = os.ErrClosed // a late write racing close
	default:
		var n int
		if n, err = l.write(l.f, encodeRecord(key, payload), off, key, sync); err == nil {
			l.end = off + size
			l.consec.Store(0)
			return off, nil
		}
		if n > 0 {
			err = errors.Join(err, l.f.Truncate(off))
		}
	}
	l.fail(err)
	return off, err
}

// fail accounts one write failure.
func (l *recordLog) fail(err error) {
	l.consec.Add(1)
	l.total.Add(1)
	l.logOnce.Do(func() {
		log.Printf("serve: %s: write to %s failing: %v (durability degraded; failures are counted in /v1/stats, further ones not logged)", l.name, l.path, err)
	})
}

// rewrite replaces the log with a file holding exactly recs (framed
// records back to back): it writes them to a temp file beside the log,
// fsyncs it, renames it over the log and fsyncs the directory, so the
// swap survives a crash. Appends then go to the new file. A failure
// before the rename keeps the old file; once the rename is done the new
// file is the log even if the directory fsync fails.
func (l *recordLog) rewrite(recs []byte) error {
	dir := filepath.Dir(l.path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(l.path)+"-*")
	if err != nil {
		return err
	}
	if _, err = l.write(tmp, recs, 0, "", true); err == nil {
		if err = l.fault("rename", ""); err == nil {
			err = os.Rename(tmp.Name(), l.path)
		}
	}
	if err != nil {
		return errors.Join(err, tmp.Close(), os.Remove(tmp.Name()))
	}
	old := l.f
	l.f, l.end = tmp, int64(len(recs))
	if err = l.fault("dirsync", ""); err == nil {
		var d *os.File
		if d, err = os.Open(dir); err == nil {
			err = errors.Join(d.Sync(), d.Close())
		}
	}
	if old != nil {
		err = errors.Join(err, old.Close())
	}
	return err
}

// failures snapshots the consecutive and total write-failure counts
// (zero for a log that does not exist).
func (l *recordLog) failures() (consecutive, total int64) {
	if l == nil {
		return 0, 0
	}
	return l.consec.Load(), l.total.Load()
}

// close closes the log's file; later appends fail. Safe to call more
// than once.
func (l *recordLog) close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
