// Package mac implements the full event-driven IEEE 1901 station MAC
// and the single-contention-domain network that the emulated testbed
// (internal/device, internal/testbed) is built on.
//
// Where internal/sim reproduces the paper's minimal slot-based
// simulator (single priority, one frame per transmission, no
// management traffic), this package adds the mechanisms the paper's
// *measurement* methodology interacts with:
//
//   - the four channel-access priorities with the priority-resolution
//     phase (only the highest contending class runs the backoff);
//   - frame bursting (up to four MPDUs contend as one unit, MPDUCnt
//     counting down — Section 3.1);
//   - selective acknowledgments that also acknowledge collided frames
//     with an all-blocks-errored indication (Section 3.2), feeding
//     firmware-style per-link counters;
//   - management-message traffic at CA2/CA3 whose overhead the sniffer
//     methodology of Section 3.3 measures;
//   - per-station channel errors that lose a lone burst whole
//     (Station.SetFrameError), the failure-injection experiments' one
//     channel-error mechanism.
//
// The per-station backoff process itself is the exact same
// internal/backoff machine the minimal simulator runs, which is what
// makes the "HomePlug AV measurements" curve of Figure 2 land on the
// "MAC simulation" curve.
package mac

import (
	"sort"
	"sync"

	"repro/internal/config"
	"repro/internal/hpav"
)

// LinkKey identifies a firmware counter bucket: statistics are kept per
// peer address, priority and direction, which is exactly the query key
// of ampstat's 0xA030 request.
type LinkKey struct {
	Peer      hpav.MAC
	Priority  config.Priority
	Direction hpav.StatsDirection
}

// LinkCounters are the two counters of the INT6300 statistics block the
// paper reads: acknowledged MPDUs (including collided ones, which the
// destination acknowledges as all-errored) and collided MPDUs.
type LinkCounters struct {
	Acked    uint64
	Collided uint64
}

// Counters is a station's firmware counter block. It is safe for
// concurrent use: the simulation goroutine writes while management
// tooling (ampstat over UDP) reads.
type Counters struct {
	mu sync.Mutex
	m  map[LinkKey]*LinkCounters
}

// NewCounters returns an empty counter block.
func NewCounters() *Counters {
	return &Counters{m: make(map[LinkKey]*LinkCounters)}
}

func (c *Counters) bucket(k LinkKey) *LinkCounters {
	b := c.m[k]
	if b == nil {
		b = &LinkCounters{}
		c.m[k] = b
	}
	return b
}

// AddAcked increments the acknowledged-MPDU counter of a link.
func (c *Counters) AddAcked(k LinkKey, n uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bucket(k).Acked += n
}

// AddCollided increments the collided-MPDU counter of a link.
func (c *Counters) AddCollided(k LinkKey, n uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bucket(k).Collided += n
}

// Fetch returns the current counters of a link (zeros if never used).
func (c *Counters) Fetch(k LinkKey) LinkCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b := c.m[k]; b != nil {
		return *b
	}
	return LinkCounters{}
}

// Reset clears the counters of one link, mirroring ampstat's reset
// command ("we reset the statistics of the frames transmitted at all
// the stations at the beginning of each test").
func (c *Counters) Reset(k LinkKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.m, k)
}

// Keys returns the populated link keys in a deterministic order, for
// reports and tests.
func (c *Counters) Keys() []LinkKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]LinkKey, 0, len(c.m))
	for k := range c.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		for x := 0; x < 6; x++ {
			if a.Peer[x] != b.Peer[x] {
				return a.Peer[x] < b.Peer[x]
			}
		}
		if a.Priority != b.Priority {
			return a.Priority < b.Priority
		}
		return a.Direction < b.Direction
	})
	return keys
}
