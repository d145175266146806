package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/scenario"
)

// testEntry is a small result in the disk tier's envelope.
func testEntry(i int) entry {
	key := fmt.Sprintf("sha256:%064x", i)
	text := fmt.Sprintf("result %d\n", i)
	return entry{key: key, json: []byte(fmt.Sprintf(`{"key":%q,"text":%q}`, key, text))}
}

// openCache opens a disk-backed cache over dir and closes it with the
// test.
func openCache(t testing.TB, dir string, faults *Faults) *cache {
	t.Helper()
	c, err := newCache(16, 1<<20, dir, faults)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.close(); err != nil {
			t.Error(err)
		}
	})
	return c
}

// dirNames lists the names in dir.
func dirNames(t testing.TB, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range ents {
		names = append(names, de.Name())
	}
	return names
}

// onlySegment returns the path of dir's single segment file.
func onlySegment(t testing.TB, dir string) string {
	t.Helper()
	names := dirNames(t, dir)
	if len(names) != 1 || !strings.HasPrefix(names[0], segPrefix) {
		t.Fatalf("cache dir holds %v, want one segment", names)
	}
	return filepath.Join(dir, names[0])
}

// wantLoad checks that c's disk tier serves e byte for byte.
func wantLoad(t *testing.T, c *cache, e entry) {
	t.Helper()
	got, ok := c.loadDisk(e.key)
	if !ok {
		t.Fatalf("%s missed, want its stored bytes", e.key)
	}
	if !bytes.Equal(got.json, e.json) {
		t.Fatalf("%s loaded %q, want %q", e.key, got.json, e.json)
	}
}

// TestCacheSegmentTornTail cuts the last of k records at every byte
// offset, with and without garbage after the cut: records 1…k−1 still
// load byte-identically and the torn one misses. A flipped payload byte
// misses too, and garbage after whole records hides none of them.
func TestCacheSegmentTornTail(t *testing.T) {
	const k = 4
	src := t.TempDir()
	c := openCache(t, src, nil)
	var ents []entry
	for i := 0; i < k; i++ {
		ents = append(ents, testEntry(i))
		c.persist(ents[i])
	}
	if err := c.close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(onlySegment(t, src))
	if err != nil {
		t.Fatal(err)
	}
	lastLen := len(encodeRecord(ents[k-1].key, ents[k-1].json))
	lastOff := len(seg) - lastLen
	garbage := []byte("\x00\xffnot a record at all\n")

	// reopen opens a cache over the given segments, numbered from 1.
	reopen := func(segs ...[]byte) *cache {
		dir := t.TempDir()
		for i, data := range segs {
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s%d", segPrefix, i+1)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return openCache(t, dir, nil)
	}
	for cut := lastOff; cut < len(seg); cut++ {
		for _, tail := range [][]byte{nil, garbage} {
			torn := append(append([]byte{}, seg[:cut]...), tail...)
			c := reopen(torn)
			for _, e := range ents[:k-1] {
				wantLoad(t, c, e)
			}
			if _, ok := c.loadDisk(ents[k-1].key); ok {
				t.Fatalf("record cut at %d of %d (tail %q) was served", cut-lastOff, lastLen, tail)
			}
			// A re-append cut short by a crash must not hide a whole
			// copy in an earlier segment. (Garbage that fills out the
			// cut record's length may: that record then misses.)
			if tail == nil {
				wantLoad(t, reopen(seg[lastOff:], torn), ents[k-1])
			}
		}
	}

	c = reopen(append(append([]byte{}, seg...), garbage...))
	for _, e := range ents {
		wantLoad(t, c, e)
	}

	flipped := append([]byte{}, seg...)
	flipped[lastOff+recHeader+len(ents[k-1].key)+3] ^= 0x20
	c = reopen(flipped)
	for _, e := range ents[:k-1] {
		wantLoad(t, c, e)
	}
	if _, ok := c.loadDisk(ents[k-1].key); ok {
		t.Fatal("record with a flipped payload byte was served")
	}
}

// TestCacheFailedAppendTruncates: an append that fails partway leaves
// the segment at its last good record, is counted, and hides neither
// earlier nor later records from the next open.
func TestCacheFailedAppendTruncates(t *testing.T) {
	dir := t.TempDir()
	a, b, d := testEntry(1), testEntry(2), testEntry(3)
	c := openCache(t, dir, &Faults{Disk: func(st DiskStep) error {
		if st.Key == b.key {
			return errors.New("injected short write")
		}
		return nil
	}})
	c.persist(a)
	path := onlySegment(t, dir)
	good, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	c.persist(b)
	if info, err := os.Stat(path); err != nil || info.Size() != good.Size() {
		t.Fatalf("segment after a failed append: %v %v, want %d bytes", info.Size(), err, good.Size())
	}
	c.persist(d)
	if _, total := c.own.failures(); total != 1 {
		t.Fatalf("disk write failures = %d, want 1", total)
	}
	if err := c.close(); err != nil {
		t.Fatal(err)
	}

	fresh := openCache(t, dir, nil)
	wantLoad(t, fresh, a)
	wantLoad(t, fresh, d)
	if _, ok := fresh.loadDisk(b.key); ok {
		t.Fatal("the failed append was served")
	}
}

// TestCacheRejectsMismatchedRecords: a record found under a colliding
// hash, or whose payload names another key, is a miss.
func TestCacheRejectsMismatchedRecords(t *testing.T) {
	c := openCache(t, t.TempDir(), nil)
	a, b := testEntry(1), testEntry(2)
	c.persist(a)
	c.imu.Lock()
	c.index[maphash.String(c.seed, b.key)] = c.index[maphash.String(c.seed, a.key)]
	c.imu.Unlock()
	if _, ok := c.loadDisk(b.key); ok {
		t.Fatal("a record stored under another key was served for a hash collision")
	}

	liar := testEntry(3)
	liar.json = testEntry(4).json
	c.persist(liar)
	if _, ok := c.loadDisk(liar.key); ok {
		t.Fatal("a record whose payload names another key was served")
	}
	// Found under the key its payload names, the record is still
	// stored under another.
	named := testEntry(4).key
	c.imu.Lock()
	c.index[maphash.String(c.seed, named)] = c.index[maphash.String(c.seed, liar.key)]
	c.imu.Unlock()
	if _, ok := c.loadDisk(named); ok {
		t.Fatal("a record stored under another key was served for the key its payload names")
	}
	wantLoad(t, c, a)
}

// TestCacheDirHoldsOnlySegments restarts servers on one cache dir, some
// running jobs and some idle: the dir ends up holding one segment per
// start that stored something, and nothing else, and every result is
// still served from disk.
func TestCacheDirHoldsOnlySegments(t *testing.T) {
	dir := t.TempDir()
	var keys []string
	writers := 0
	for start := 0; start < 6; start++ {
		s := mustNew(t, Config{CacheDir: dir})
		if start%3 == 0 {
			for i := 0; i < 3; i++ {
				j, _, _, err := s.Submit(tinySpec(fmt.Sprintf("segments-%d-%d", start, i)), 2)
				if err != nil {
					t.Fatal(err)
				}
				waitDone(t, j)
				keys = append(keys, j.Key())
			}
			writers++
		}
		s.Close()
	}
	names := dirNames(t, dir)
	if len(names) != writers {
		t.Fatalf("cache dir holds %v after %d writing starts", names, writers)
	}
	for _, name := range names {
		if !strings.HasPrefix(name, segPrefix) {
			t.Fatalf("cache dir holds %q, want only segments", name)
		}
	}
	c := openCache(t, dir, nil)
	for _, key := range keys {
		if _, ok := c.loadDisk(key); !ok {
			t.Fatalf("%s missed after the restarts", key)
		}
	}
}

// TestDiskCacheWriteHistogram: every disk-tier append, failed ones
// included, is one observation of plcsrv_disk_cache_write_seconds;
// a server without a cache dir observes none.
func TestDiskCacheWriteHistogram(t *testing.T) {
	count := func(s *Server) float64 {
		t.Helper()
		f := scrape(t, s.Handler())["plcsrv_disk_cache_write_seconds"]
		if f == nil {
			t.Fatal("plcsrv_disk_cache_write_seconds missing from /metrics")
		}
		for _, smp := range f.Samples {
			if smp.Name == "plcsrv_disk_cache_write_seconds_count" {
				return smp.Value
			}
		}
		t.Fatal("plcsrv_disk_cache_write_seconds has no _count sample")
		return 0
	}
	failing := tinySpec("write-histogram-failing")
	failKey, err := scenario.Fingerprint(failing, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, Config{CacheDir: t.TempDir(), faults: &Faults{Disk: func(st DiskStep) error {
		if st.Key == failKey {
			return errors.New("injected disk-cache failure")
		}
		return nil
	}}})
	defer s.Close()
	for _, spec := range []scenario.Spec{tinySpec("write-histogram"), failing} {
		j, _, _, err := s.Submit(spec, 2)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
	}
	if _, _, _, err := s.Predict(tinySpec("write-histogram-predict")); err != nil {
		t.Fatal(err)
	}
	if got := count(s); got != 3 {
		t.Fatalf("disk-cache write observations = %v, want 3", got)
	}

	mem := mustNew(t, Config{})
	defer mem.Close()
	j, _, _, err := mem.Submit(tinySpec("write-histogram"), 2)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if got := count(mem); got != 0 {
		t.Fatalf("memory-only server observed %v disk-cache writes", got)
	}
}

// TestCacheLoadStaysInIndexedExtent: a record header rewritten after
// open to claim a payload past what the segment held is a miss, and
// the claimed payload is never allocated.
func TestCacheLoadStaysInIndexedExtent(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, dir, nil)
	e := testEntry(1)
	c.persist(e)
	f, err := os.OpenFile(onlySegment(t, dir), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var plen [4]byte
	binary.LittleEndian.PutUint32(plen[:], 64<<20)
	if _, err := f.WriteAt(plen[:], 8); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, ok := c.loadDisk(e.key)
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatal("a record whose header outgrew its indexed extent was served")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<20 {
		t.Fatalf("loading the tampered record allocated %d bytes", grew)
	}
}

// TestCacheConcurrentAppendsAndLoads: appends from several goroutines
// land as whole records, each readable at once by other goroutines and
// by the next open.
func TestCacheConcurrentAppendsAndLoads(t *testing.T) {
	const writers, per = 4, 25
	dir := t.TempDir()
	c := openCache(t, dir, nil)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				e := testEntry(w*per + i)
				c.persist(e)
				if got, ok := c.loadDisk(e.key); !ok || !bytes.Equal(got.json, e.json) {
					t.Errorf("%s not served right after its append", e.key)
				}
				other := testEntry((w+1)%writers*per + i)
				if got, ok := c.loadDisk(other.key); ok && !bytes.Equal(got.json, other.json) {
					t.Errorf("another writer's record %s loaded as %q", other.key, got.json)
				}
			}
		}()
	}
	wg.Wait()
	if err := c.close(); err != nil {
		t.Fatal(err)
	}
	fresh := openCache(t, dir, nil)
	for i := 0; i < writers*per; i++ {
		wantLoad(t, fresh, testEntry(i))
	}
}
