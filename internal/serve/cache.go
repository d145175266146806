package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// entry is one cached result: the verbatim envelope JSON the /result
// endpoint serves (bit-identical across hits). The CLI-identical text
// rendering lives inside it and is derived on demand (resultText).
type entry struct {
	key  string
	json []byte
	// body is the SHA-256 of the /v1/predict request body aliased to
	// this entry in the memory tier; zero when none (see cache.bodies).
	body [sha256.Size]byte
}

// size is the entry's resident-memory charge against the byte budget.
func (e entry) size() int { return len(e.json) }

// The disk tier is a set of append-only segment files, seg-<n>, one per
// cache instance that stored something. Each stored result is one
// framed record (see reclog.go) whose key is the result's content
// address and whose payload is the result JSON, byte for byte what
// /result serves.
const (
	segPrefix = "seg-"
	// An index location packs a segment number (high bits) and a
	// record offset (low offBits bits) into one uint64.
	offBits = 40
	maxOff  = 1<<offBits - 1
)

// cache is a content-addressed LRU over computed results, optionally
// persisted to a directory. The memory tier bounds both entry count
// and total bytes (a report embeds raw per-replication metrics, so a
// few large studies could otherwise pin far more memory than the
// entry count suggests); the disk tier (when configured) is unbounded
// and consulted on memory misses, so results survive restarts and LRU
// eviction.
type cache struct {
	mu       sync.Mutex
	max      int
	maxBytes int
	bytes    int
	ll       *list.List // front = most recently used; values are *entry
	items    map[string]*list.Element
	// bodies aliases the SHA-256 of a /v1/predict request body to the
	// resident entry it was answered with, so a byte-identical re-ask
	// skips decoding, compiling and fingerprinting. An entry holds at
	// most one alias (its body field); eviction and re-aliasing delete
	// the slot, so the map is bounded by the entry count. Identical
	// bytes decode to the identical spec, hence the identical key, so an
	// alias never points at another study's result. Never persisted.
	bodies map[[sha256.Size]byte]*list.Element

	// writeSeconds times each disk-tier append; nil until the server
	// wires its metrics in.
	writeSeconds *obs.Histogram

	// Disk-tier index: a 64-bit hash of the key → the packed (segment,
	// offset) of its newest record, no per-entry pointer or string.
	// imu guards index and segs; it is held only for map and slice
	// operations, never across I/O.
	imu   sync.Mutex
	seed  maphash.Seed
	index map[uint64]uint64
	segs  []*os.File // by index-location segment number; own is last
	ends  []int64    // per segment, the end of its last indexed record

	// wmu serializes appends to this instance's own segment, the
	// record log own (nil without a dir).
	wmu sync.Mutex
	own *recordLog

	// diskOccupancy tracks the disk tier's byte count: the segments'
	// sizes at open, plus every record appended since. Atomic for the
	// same reason as the failure counters — /v1/stats and /metrics read
	// it while writes are in flight.
	diskOccupancy atomic.Int64
}

// newCache builds the cache and, when a persistence directory is
// configured, opens the disk tier: it creates this instance's own
// segment (which is also the writability check, so a typo'd or
// read-only -cache-dir fails server startup loudly instead of silently
// running without persistence) and indexes every other segment.
func newCache(max, maxBytes int, dir string, faults *Faults) (*cache, error) {
	c := &cache{max: max, maxBytes: maxBytes, ll: list.New(),
		items: make(map[string]*list.Element), bodies: make(map[[sha256.Size]byte]*list.Element)}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: cache dir %s: %w", dir, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: cache dir %s: %w", dir, err)
	}
	var nums []int
	for _, de := range ents {
		s, ok := strings.CutPrefix(de.Name(), segPrefix)
		if n, err := strconv.Atoi(s); ok && err == nil && n > 0 && strconv.Itoa(n) == s && de.Type().IsRegular() {
			nums = append(nums, n)
		}
	}
	sort.Ints(nums)
	next := 1
	if len(nums) > 0 {
		next = nums[len(nums)-1] + 1
	}
	// Another server on the same dir may claim the same number between
	// the listing and the create; O_EXCL makes the loser move on.
	c.own = &recordLog{name: "cache", limit: maxOff, faults: faults}
	for {
		c.own.path = filepath.Join(dir, segPrefix+strconv.Itoa(next))
		c.own.f, err = os.OpenFile(c.own.path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if !errors.Is(err, os.ErrExist) {
			break
		}
		next++
	}
	if err != nil {
		return nil, fmt.Errorf("serve: cache dir %s is not writable: %w", dir, err)
	}
	c.seed = maphash.MakeSeed()
	c.index = make(map[uint64]uint64)
	for _, n := range nums {
		path := filepath.Join(dir, segPrefix+strconv.Itoa(n))
		if err := c.indexSegment(path); err != nil {
			log.Printf("serve: cache: skipping segment %s: %v", path, err)
		}
	}
	c.segs = append(c.segs, c.own.f)
	c.ends = append(c.ends, 0)
	return c, nil
}

// indexSegment adds one segment's records to the index, reading only
// their headers and keys, up to the first bad record. A segment that
// holds no record is not kept open.
func (c *cache) indexSegment(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		return errors.Join(err, f.Close())
	}
	c.diskOccupancy.Add(info.Size())
	seg := uint64(len(c.segs))
	end := walkRecords(f, info.Size(), false, func(off int64, key, _ []byte) bool {
		if off > maxOff {
			return false
		}
		c.index[maphash.Bytes(c.seed, key)] = seg<<offBits | uint64(off)
		return true
	})
	if end == 0 {
		return f.Close()
	}
	c.segs = append(c.segs, f)
	c.ends = append(c.ends, end)
	return nil
}

// bytesUsed returns the memory tier's resident byte count.
func (c *cache) bytesUsed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// get returns the entry for key, faulting it in from the disk tier on
// a memory miss. disk reports whether the hit came from disk. The disk
// read runs outside the cache lock, so slow I/O never stalls
// concurrent memory-tier lookups.
func (c *cache) get(key string) (e entry, disk, ok bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := *el.Value.(*entry)
		c.mu.Unlock()
		return e, false, true
	}
	c.mu.Unlock()
	if c.own == nil {
		return entry{}, false, false
	}
	e, ok = c.loadDisk(key)
	if !ok {
		return entry{}, false, false
	}
	c.mu.Lock()
	c.insertLocked(e)
	c.mu.Unlock()
	return e, true, true
}

// getBody returns the resident entry aliased to a request body's
// SHA-256, refreshing it like get. The disk tier holds no aliases.
func (c *cache) getBody(sum [sha256.Size]byte) (entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.bodies[sum]
	if !ok {
		return entry{}, false
	}
	c.ll.MoveToFront(el)
	return *el.Value.(*entry), true
}

// aliasBody aliases a request body's SHA-256 to key's resident entry,
// replacing the entry's previous alias. A key no longer resident gets
// none.
func (c *cache) aliasBody(sum [sha256.Size]byte, key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return
	}
	e := el.Value.(*entry)
	if e.body != ([sha256.Size]byte{}) {
		delete(c.bodies, e.body)
	}
	e.body = sum
	c.bodies[sum] = el
}

// put stores a computed entry in both tiers: insert, then persist.
func (c *cache) put(e entry) {
	c.insert(e)
	c.persist(e)
}

// insert stores e in the memory tier.
func (c *cache) insert(e entry) {
	c.mu.Lock()
	c.insertLocked(e)
	c.mu.Unlock()
}

// insertLocked adds e to the memory tier, evicting LRU entries while
// either budget (count or bytes) is exceeded — but always keeping the
// newest entry, so even an oversized result serves its immediate
// resubmissions. A concurrent insert of the same key (two goroutines
// faulting the same record in) collapses to a refresh, which keeps the
// entry's alias: equal keys name bit-identical results. An evicted
// entry takes its alias with it. c.mu must be held.
func (c *cache) insertLocked(e entry) {
	if el, ok := c.items[e.key]; ok {
		c.ll.MoveToFront(el)
		old := el.Value.(*entry)
		c.bytes += e.size() - old.size()
		old.json = e.json
		return
	}
	c.items[e.key] = c.ll.PushFront(&e)
	c.bytes += e.size()
	for c.ll.Len() > 1 && (c.ll.Len() > c.max || c.bytes > c.maxBytes) {
		el := c.ll.Back()
		old := el.Value.(*entry)
		delete(c.items, old.key)
		if old.body != ([sha256.Size]byte{}) {
			delete(c.bodies, old.body)
		}
		c.bytes -= old.size()
		c.ll.Remove(el)
	}
}

// loadDisk reads and verifies one persisted result. The record is
// served only when its header, its extent within what the segment held
// when indexed, its CRC and its full key match, and the payload's
// embedded key agrees; a torn, corrupt or hash-colliding record is a
// miss, never trusted. Scenario results and campaign results share the
// key/text envelope, so one loader serves both kinds; the full payload
// is kept verbatim, which is what preserves byte-identity across
// restarts (its text is derived on demand, like a computed entry's).
func (c *cache) loadDisk(key string) (entry, bool) {
	c.imu.Lock()
	loc, ok := c.index[maphash.String(c.seed, key)]
	var f *os.File
	var end int64
	if seg := loc >> offBits; ok && seg < uint64(len(c.segs)) {
		f, end = c.segs[seg], c.ends[seg]
	}
	c.imu.Unlock()
	if f == nil {
		return entry{}, false
	}
	k, data, _, ok := readRecord(f, int64(loc&maxOff), end, true)
	if !ok || string(k) != key {
		return entry{}, false
	}
	var env struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(data, &env); err != nil || env.Key != key {
		return entry{}, false
	}
	return entry{key: key, json: data}, true
}

// persist appends e to this instance's segment, when there is one,
// and indexes it. Like get's disk fault, the write runs outside c.mu,
// so persistence I/O never stalls concurrent memory-tier lookups.
// Persistence is best-effort — the memory tier holds the result either
// way — and the segment's log accounts a failed append.
func (c *cache) persist(e entry) {
	if c.own == nil {
		return
	}
	start := obs.Now() // operational timing only; never feeds results
	c.wmu.Lock()
	defer c.wmu.Unlock()
	off, err := c.own.append(e.key, e.json, false)
	if c.writeSeconds != nil {
		c.writeSeconds.Observe(obs.Since(start).Seconds())
	}
	if err != nil {
		return
	}
	c.diskOccupancy.Add(c.own.end - off)
	c.imu.Lock()
	seg := len(c.segs) - 1 // the own segment is the last
	c.index[maphash.String(c.seed, e.key)] = uint64(seg)<<offBits | uint64(off)
	c.ends[seg] = c.own.end
	c.imu.Unlock()
}

// close releases the segment files; later lookups miss and later
// writes fail. An instance that appended nothing removes its own empty
// segment, so idle restarts leave no files behind. Safe to call more
// than once.
func (c *cache) close() error {
	if c.own == nil {
		return nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.imu.Lock()
	segs := c.segs
	c.segs, c.ends = nil, nil
	c.imu.Unlock()
	var errs []error
	if c.own.f != nil && c.own.end == 0 {
		errs = append(errs, os.Remove(c.own.path))
	}
	for i, f := range segs {
		if i != len(segs)-1 { // the own segment closes with its log
			errs = append(errs, f.Close())
		}
	}
	return errors.Join(append(errs, c.own.close())...)
}
