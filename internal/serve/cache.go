package serve

import (
	"container/list"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// entry is one cached result: the verbatim JSON bytes the /result
// endpoint serves (bit-identical across hits) and the CLI-identical
// text rendering.
type entry struct {
	key  string
	json []byte
	text string
}

// size is the entry's resident-memory charge against the byte budget.
func (e entry) size() int { return len(e.json) + len(e.text) }

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
	dir      string
	faults   *Faults    // nil in production (test-only write-failure injection)
	dropOnce sync.Once  // first dropped disk write is logged, later ones suppressed
	ll       *list.List // front = most recently used; values are entry
	items    map[string]*list.Element

	// Disk-write failure accounting: consecutive resets on every
	// successful write, total only grows. Atomics, not c.mu — the
	// counters are read by /readyz and /v1/stats while writes are in
	// flight outside the lock.
	consecDiskFailures atomic.Int64
	totalDiskFailures  atomic.Int64

	// diskOccupancy tracks the disk tier's byte count: seeded by a
	// directory walk at startup, then maintained incrementally (each
	// successful store adds the delta against the file it replaced).
	// Atomic for the same reason as the failure counters — /v1/stats
	// and /metrics read it while writes are in flight.
	diskOccupancy atomic.Int64
}

// newCache builds the cache and, when a persistence directory is
// configured, verifies it is actually usable — created (or creatable)
// and writable — so a typo'd or read-only -cache-dir fails server
// startup loudly instead of silently running without persistence.
func newCache(max, maxBytes int, dir string, faults *Faults) (*cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: cache dir %s: %w", dir, err)
		}
		probe, err := os.CreateTemp(dir, ".probe-*")
		if err != nil {
			return nil, fmt.Errorf("serve: cache dir %s is not writable: %w", dir, err)
		}
		name := probe.Name()
		probe.Close() //plclint:allow journalerr -- writability probe, deleted on the next line; nothing durable is in it
		os.Remove(name)
	}
	c := &cache{max: max, maxBytes: maxBytes, dir: dir, faults: faults, ll: list.New(), items: make(map[string]*list.Element)}
	if dir != "" {
		c.diskOccupancy.Store(diskDirBytes(dir))
	}
	return c, nil
}

// diskDirBytes sums the persisted results' sizes — the disk tier's
// startup occupancy. Best-effort: entries that vanish mid-walk are
// skipped, temp files are not counted.
func diskDirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, de := range ents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		if info, err := de.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

// bytesUsed returns the memory tier's resident byte count.
func (c *cache) bytesUsed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// diskBytes returns the disk tier's byte occupancy (0 without a dir).
func (c *cache) diskBytes() int64 {
	return c.diskOccupancy.Load()
}

// diskFailures snapshots the disk-write failure counters.
func (c *cache) diskFailures() (consecutive, total int64) {
	return c.consecDiskFailures.Load(), c.totalDiskFailures.Load()
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
		e := el.Value.(entry)
		c.mu.Unlock()
		return e, false, true
	}
	c.mu.Unlock()
	if c.dir == "" {
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

// persist writes e to the disk tier, when there is one. Like get's
// disk fault, the write runs outside c.mu so persistence I/O never
// stalls concurrent memory-tier lookups.
func (c *cache) persist(e entry) {
	if c.dir != "" {
		c.storeDisk(e)
	}
}

// insertLocked adds e to the memory tier, evicting LRU entries while
// either budget (count or bytes) is exceeded — but always keeping the
// newest entry, so even an oversized result serves its immediate
// resubmissions. A concurrent insert of the same key (two goroutines
// faulting the same file in) collapses to a refresh. c.mu must be
// held.
func (c *cache) insertLocked(e entry) {
	if el, ok := c.items[e.key]; ok {
		c.ll.MoveToFront(el)
		c.bytes += e.size() - el.Value.(entry).size()
		el.Value = e
		return
	}
	c.items[e.key] = c.ll.PushFront(e)
	c.bytes += e.size()
	for c.ll.Len() > 1 && (c.ll.Len() > c.max || c.bytes > c.maxBytes) {
		el := c.ll.Back()
		old := el.Value.(entry)
		delete(c.items, old.key)
		c.bytes -= old.size()
		c.ll.Remove(el)
	}
}

// path maps a fingerprint to its persistence file: the hex digest with
// the algorithm prefix stripped (fingerprints are "sha256:<hex>", and
// the hex alone is filesystem-safe).
func (c *cache) path(key string) string {
	name := strings.TrimPrefix(key, "sha256:")
	return filepath.Join(c.dir, name+".json")
}

// loadDisk reads and verifies one persisted result. A file that does
// not parse or whose embedded key disagrees is ignored (treated as a
// miss), never trusted. Scenario results and campaign results share
// the key/text envelope, so one loader serves both kinds; the full
// payload is kept verbatim, which is what preserves byte-identity
// across restarts.
func (c *cache) loadDisk(key string) (entry, bool) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return entry{}, false
	}
	var env struct {
		Key  string `json:"key"`
		Text string `json:"text"`
	}
	if err := json.Unmarshal(data, &env); err != nil || env.Key != key {
		return entry{}, false
	}
	return entry{key: key, json: data, text: env.Text}, true
}

// storeDisk persists one result atomically (temp file + rename), so a
// crashed write can never leave a half-written result that a later
// lookup would serve. Persistence stays best-effort — the memory tier
// holds the result either way — but a dropped write is no longer
// silent: the first failure is logged (later ones are suppressed, so a
// full disk cannot flood the log).
func (c *cache) storeDisk(e entry) {
	drop := func(err error) {
		c.consecDiskFailures.Add(1)
		c.totalDiskFailures.Add(1)
		c.dropOnce.Do(func() {
			log.Printf("serve: cache: dropping result persistence to %s: %v (memory tier unaffected; further drops suppressed)", c.dir, err)
		})
	}
	if f := c.faults; f != nil && f.DiskCacheWrite != nil {
		if err := f.DiskCacheWrite(e.key); err != nil {
			drop(err)
			return
		}
	}
	tmp, err := os.CreateTemp(c.dir, ".tmp-*")
	if err != nil {
		drop(err)
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(e.json)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		if werr != nil {
			drop(werr)
		} else {
			drop(cerr)
		}
		return
	}
	// Occupancy delta: stat the file this rename replaces (usually
	// absent) before it disappears, so rewrites don't double-count.
	var replaced int64
	if info, err := os.Stat(c.path(e.key)); err == nil {
		replaced = info.Size()
	}
	if err := os.Rename(name, c.path(e.key)); err != nil {
		os.Remove(name)
		drop(err)
		return
	}
	c.diskOccupancy.Add(int64(len(e.json)) - replaced)
	c.consecDiskFailures.Store(0)
}
