package serve

// Faults is the internal fault-injection surface the robustness tests
// drive. It is nil in production — cmd/plcsrv cannot set it, there is
// no build tag, and every call site guards with a nil check, so the
// hooks cost one pointer compare on the hot path and nothing else.
// Tests (in this package) set Config.faults before the first
// submission; the channel send that admits a job orders that write
// before any worker read, so the hooks are race-free without a lock.
//
// Each hook models one concrete failure the daemon must survive: a
// durable write, fsync, rename or directory fsync that fails, a
// replication that panics, and a replication that stalls past the job
// deadline.
type Faults struct {
	// Disk, when non-nil, is consulted before every write, fsync,
	// rename and directory fsync of the job journal and the disk
	// cache. A non-nil error fails that step as the disk would: a
	// failing write first writes half its bytes, as a full disk can. A
	// failed append is truncated back to the log's last good record and
	// counted, exactly as a real I/O error is.
	Disk func(DiskStep) error
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

// DiskStep names one durable step of a record log, as the Disk hook
// sees it: Log is "journal" or "cache"; Op is "write", "sync",
// "rename" or "dirsync"; Key is the record's key for an append's write
// and fsync (a journal record's decimal seq, a result's content
// address), empty for the steps of a compaction.
type DiskStep struct {
	Log, Op, Key string
}
