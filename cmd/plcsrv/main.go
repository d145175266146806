// Command plcsrv is the scenario-serving daemon: a long-lived HTTP/JSON
// service that accepts declarative scenario submissions (the same JSON
// schema as `sim1901 -scenario`), runs them on a bounded asynchronous
// job queue, and answers repeated identical submissions from a
// content-addressed result cache — bit-identically to the first
// computed result, and to the CLI on the same spec.
//
// Typical session:
//
//	plcsrv -listen 127.0.0.1:8277 -cache-dir /var/cache/plcsrv &
//	curl -s -X POST 127.0.0.1:8277/v1/jobs \
//	     -d "{\"spec\": $(cat examples/scenarios/heterogeneous.json), \"reps\": 10}"
//	curl -s 127.0.0.1:8277/v1/jobs/j1/events        # per-replication progress
//	curl -s 127.0.0.1:8277/v1/jobs/j1/result        # aggregated JSON
//	curl -s "127.0.0.1:8277/v1/jobs/j1/result?format=text"  # sim1901-identical text
//
// Analytic predictions answer synchronously — no queue, no polling:
//
//	curl -s -X POST 127.0.0.1:8277/v1/predict \
//	     -d "{\"spec\": $(cat examples/scenarios/model-saturation-sweep.json)}"
//
// Campaigns — multi-axis parameter grids over a base scenario, with
// fixed or adaptive replication — ride the same queue and cache; every
// grid point dedupes against individual submissions and reruns are
// answered without simulation:
//
//	curl -s -X POST 127.0.0.1:8277/v1/campaigns \
//	     -d "{\"campaign\": $(cat examples/campaigns/saturation-error-grid.json)}"
//	curl -s "127.0.0.1:8277/v1/campaigns/c1/result?format=text"
//
// See docs/SERVING.md for the full API and the determinism guarantee.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:8277", "TCP address to serve HTTP on")
		workers    = flag.Int("workers", 1, "jobs run concurrently")
		repWorkers = flag.Int("rep-workers", 0, "worker-pool width each job fans its replications across (0 = GOMAXPROCS)")
		queueDepth = flag.Int("queue", 64, "pending-job queue depth (submissions beyond it get 503)")
		cacheSize  = flag.Int("cache", 128, "in-memory result-cache entries (LRU)")
		cacheBytes = flag.Int("cache-bytes", 0, "in-memory result-cache byte budget (0 = 256 MiB)")
		cacheDir   = flag.String("cache-dir", "", "directory to persist results to (empty = memory only)")
		maxReps    = flag.Int("max-reps", 10000, "maximum replications a single submission may request")
		maxJobs    = flag.Int("max-jobs", 1024, "job-registry bound; oldest finished jobs are evicted beyond it")
		journalDir = flag.String("journal-dir", "", "directory for the job journal; accepted jobs survive a crash and replay on restart (empty = no journal)")
		jobTimeout = flag.Duration("job-timeout", 0, "per-job running-time limit, and the cap on per-request timeout_s (0 = none)")
		drainTime  = flag.Duration("drain-timeout", 10*time.Second, "how long shutdown lets running jobs finish before abandoning them to the journal")
		pprofAddr  = flag.String("pprof-addr", "", "TCP address to serve net/http/pprof on (empty = disabled); keep it loopback-only")
	)
	flag.Parse()

	srv, err := serve.New(serve.Config{
		QueueDepth:   *queueDepth,
		Workers:      *workers,
		RepWorkers:   *repWorkers,
		CacheEntries: *cacheSize,
		CacheBytes:   *cacheBytes,
		CacheDir:     *cacheDir,
		MaxReps:      *maxReps,
		MaxJobs:      *maxJobs,
		JournalDir:   *journalDir,
		JobTimeout:   *jobTimeout,
	})
	if err != nil {
		// Most likely an unusable -cache-dir or -journal-dir: refuse to
		// run without the persistence the operator asked for.
		fmt.Fprintln(os.Stderr, "plcsrv:", err)
		os.Exit(1)
	}

	// pprof stays off the service mux: profiling is opt-in, on its own
	// listener, so the API port never exposes it. The handlers are
	// registered explicitly — nothing here touches http.DefaultServeMux.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "plcsrv:", err)
			os.Exit(1)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Printf("plcsrv: pprof on %s/debug/pprof/\n", pln.Addr())
		go http.Serve(pln, pmux)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "plcsrv:", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv.Handler()}
	// Catch the shutdown signals before the banner announces the address:
	// a client may answer it with SIGTERM as soon as it is served.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("plcsrv: listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case s := <-sig:
		fmt.Printf("plcsrv: %v, shutting down (drain %s)\n", s, *drainTime)
		// Graceful half first: stop admissions and let running jobs
		// finish for up to -drain-timeout. Jobs abandoned at the
		// deadline keep their journal records non-terminal, so a
		// restart with the same -journal-dir replays them. Close then
		// releases the workers and the journal, and Shutdown drains
		// the HTTP side (terminating in-flight event streams).
		drained, abandoned := srv.Drain(*drainTime)
		fmt.Printf("plcsrv: drained %d job(s), abandoned %d to the journal\n", drained, abandoned)
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		hs.Shutdown(ctx)
		cancel()
		<-errc
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "plcsrv:", err)
			os.Exit(1)
		}
	}
}
