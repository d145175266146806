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

// Counters is a station's firmware counter block: one cell per link,
// made when a flow is attached (Station.AddFlow for the sender's tx
// link, Network.Run for the destination's rx link) and then held by the
// flow, so the medium loop adds to a cell without a lock or a lookup.
// The mutex guards only the index. A cell is written without
// synchronization by whichever goroutine runs the network, so Fetch,
// Reset and Keys must not overlap Network.Run: the testbed calls them
// between runs, and the device Host (ampstat's surface) handles one
// request at a time, a run included, under one mutex.
type Counters struct {
	mu sync.Mutex
	m  map[LinkKey]*LinkCounters
}

// NewCounters returns an empty counter block.
func NewCounters() *Counters {
	return &Counters{m: make(map[LinkKey]*LinkCounters)}
}

// link returns the cell of link k, making it on first use. A cell is
// never removed (Reset zeroes it in place), so a flow may hold it.
func (c *Counters) link(k LinkKey) *LinkCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.m[k]
	if b == nil {
		b = &LinkCounters{}
		c.m[k] = b
	}
	return b
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
	if b := c.m[k]; b != nil {
		*b = LinkCounters{}
	}
}

// Keys returns the links that have counted anything since their last
// reset, in a deterministic order, for reports and tests.
func (c *Counters) Keys() []LinkKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]LinkKey, 0, len(c.m))
	for k, b := range c.m {
		if *b != (LinkCounters{}) {
			keys = append(keys, k)
		}
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
