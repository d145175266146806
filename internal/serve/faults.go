package serve

// Faults is the internal fault-injection surface the robustness tests
// drive. It is nil in production — cmd/plcsrv cannot set it, there is
// no build tag, and every call site guards with a nil check, so the
// hooks cost one pointer compare on the hot path and nothing else.
// Tests (in this package) set Config.faults before the first
// submission; the channel send that admits a job orders that write
// before any worker read, so the hooks are race-free without a lock.
//
// Each hook models one concrete failure the daemon must survive:
// disk-cache write errors, journal write/fsync errors, a replication
// that panics, and a replication that stalls past the job deadline.
type Faults struct {
	// DiskCacheWrite, when non-nil, is consulted before every disk-cache
	// persistence write; a non-nil error simulates the write failing
	// partway, as a full disk can: half the record reaches the segment,
	// then the error (the entry is dropped exactly as a real I/O error
	// would drop it).
	DiskCacheWrite func(key string) error
	// JournalWrite, when non-nil, replaces the journal's record write; a
	// non-nil error simulates an append failure. The record bytes are
	// passed so a test can fail selectively.
	JournalWrite func(record []byte) error
	// JournalSync, when non-nil, replaces the journal's fsync; a non-nil
	// error simulates a sync failure after a successful write.
	JournalSync func() error
	// RepHook, when non-nil, runs inside every job's per-replication
	// progress path — on the worker-pool goroutines, before progress is
	// recorded. A hook that panics exercises panic isolation; a hook
	// that sleeps exercises the per-job deadline.
	RepHook func()
	// PredictSolve, when non-nil, runs after a /v1/predict cache miss
	// registers as the in-flight leader and before it solves — a window
	// widener for coalescing tests.
	PredictSolve func()
}
