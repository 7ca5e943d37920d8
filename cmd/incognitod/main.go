// Command incognitod is the long-lived anonymization daemon: the library's
// algorithms behind an HTTP JSON job API with a bounded worker-pool queue,
// a fingerprint-keyed result cache, live per-job progress, per-job span
// traces (GET /v1/jobs/{id}/trace, ?format=chrome for Perfetto), a tar.gz
// diagnostic bundle (GET /debug/bundle), structured request logging with
// X-Request-Id propagation, and graceful drain on SIGTERM/SIGINT
// (in-flight jobs finish, queued jobs are cancelled, the process exits 0).
//
// Usage:
//
//	incognitod -addr :8080 -workers 4 -job-timeout 5m -cache-max-bytes 64Mi
//
// The bound address is echoed to stderr as
//
//	incognitod: listening on http://HOST:PORT
//
// so scripts binding ":0" can discover the chosen port. See the package
// documentation of internal/service for the API surface; GET / on a
// running daemon prints the same endpoint table.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"incognito/internal/resilience"
	"incognito/internal/service"
	"incognito/internal/telemetry"
	"incognito/internal/version"
)

type options struct {
	addr            string
	workers         int
	queueDepth      int
	cacheMaxBytes   string
	cacheMaxEntries int
	jobTimeout      time.Duration
	memBudget       string
	parallelism     int
	allowFiles      bool
	checkpointDir   string
	journalDir      string
	drainTimeout    time.Duration
	logFormat       string
	verbose         bool
	showVersion     bool
	traceJobs       int
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("incognitod", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address; use :0 to pick a free port (echoed to stderr)")
	fs.IntVar(&o.workers, "workers", 2, "job-level worker pool size (each job may add intra-run parallelism)")
	fs.IntVar(&o.queueDepth, "queue-depth", 64, "jobs allowed to wait behind the running ones; beyond it submissions get 429")
	fs.StringVar(&o.cacheMaxBytes, "cache-max-bytes", "64Mi", "result-cache byte budget, e.g. 64Mi or 1Gi")
	fs.IntVar(&o.cacheMaxEntries, "cache-max-entries", 256, "result-cache entry cap")
	fs.DurationVar(&o.jobTimeout, "job-timeout", 0, "default per-job timeout (0 = none); a job's policy.timeout overrides")
	fs.StringVar(&o.memBudget, "mem-budget", "", "default per-job soft memory budget, e.g. 64Mi (empty disables); policy.mem_budget overrides")
	fs.IntVar(&o.parallelism, "parallelism", 0, "default intra-run worker bound: 0 = all cores; policy.parallelism overrides")
	fs.BoolVar(&o.allowFiles, "allow-file-hierarchies", false, "permit taxonomy:FILE and csv:FILE hierarchy kinds in request QI specs (reads daemon-local paths)")
	fs.StringVar(&o.checkpointDir, "checkpoint-dir", "", "directory for per-job checkpoint files (empty disables); interrupted jobs leave resumable snapshots")
	fs.StringVar(&o.journalDir, "journal-dir", "", "directory for the crash-safe job journal (empty disables); on restart the daemon replays it and re-enqueues interrupted jobs")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "how long SIGTERM drain waits for in-flight jobs before cancelling them (0 = forever)")
	fs.StringVar(&o.logFormat, "log-format", "text", "structured log format: text or json")
	fs.BoolVar(&o.verbose, "v", false, "log job lifecycle events and HTTP requests (with request IDs) to stderr")
	fs.BoolVar(&o.showVersion, "version", false, "print version information and exit")
	fs.IntVar(&o.traceJobs, "trace-jobs", 64, "per-job span-tree flight recorder size, served on GET /v1/jobs/{id}/trace (0 disables per-job tracing)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.showVersion {
		fmt.Println(version.String("incognitod"))
		return 0
	}

	cacheBytes, err := resilience.ParseByteSize(o.cacheMaxBytes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "incognitod: -cache-max-bytes: %v\n", err)
		return 2
	}
	var memBytes int64
	if o.memBudget != "" {
		if memBytes, err = resilience.ParseByteSize(o.memBudget); err != nil {
			fmt.Fprintf(os.Stderr, "incognitod: -mem-budget: %v\n", err)
			return 2
		}
	}
	if o.workers < 1 || o.queueDepth < 1 || o.parallelism < 0 ||
		o.cacheMaxEntries < 1 || o.jobTimeout < 0 || o.drainTimeout < 0 ||
		o.traceJobs < 0 {
		fmt.Fprintln(os.Stderr, "incognitod: -workers, -queue-depth and -cache-max-entries must be >= 1; -parallelism, -job-timeout, -drain-timeout and -trace-jobs must be >= 0")
		return 2
	}
	logger, err := telemetry.NewLogger(os.Stderr, o.logFormat, o.verbose)
	if err != nil {
		fmt.Fprintf(os.Stderr, "incognitod: -log-format must be text or json, got %q\n", o.logFormat)
		return 2
	}
	if o.checkpointDir != "" {
		if err := os.MkdirAll(o.checkpointDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "incognitod: -checkpoint-dir: %v\n", err)
			return 2
		}
	}

	traceJobs := o.traceJobs
	if traceJobs == 0 {
		traceJobs = -1 // flag 0 = off; the Config encodes off as negative
	}
	reg := telemetry.NewRegistry()
	svc, err := service.New(service.Config{
		Workers:              o.workers,
		QueueDepth:           o.queueDepth,
		CacheMaxBytes:        cacheBytes,
		CacheMaxEntries:      o.cacheMaxEntries,
		AllowFileHierarchies: o.allowFiles,
		CheckpointDir:        o.checkpointDir,
		JournalDir:           o.journalDir,
		DefaultTimeout:       o.jobTimeout,
		DefaultMemBudget:     memBytes,
		DefaultParallelism:   o.parallelism,
		DrainTimeout:         o.drainTimeout,
		Registry:             reg,
		Logger:               logger,
		TraceJobs:            traceJobs,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "incognitod: %v\n", err)
		return 1
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "incognitod: listen %s: %v\n", o.addr, err)
		return 1
	}
	srv := &http.Server{Handler: svc.Handler()}
	fmt.Fprintf(os.Stderr, "incognitod: listening on http://%s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "incognitod: %s received, draining\n", got)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "incognitod: serve: %v\n", err)
		return 1
	}

	// Drain first so /readyz reports 503 and in-flight jobs can finish
	// while the listener still answers status polls; then shut HTTP down.
	svc.Drain()
	completed, failed, cancelled := svc.Counts()
	fmt.Fprintf(os.Stderr, "incognitod: drained (completed=%d failed=%d cancelled=%d)\n",
		completed, failed, cancelled)

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "incognitod: shutdown: %v\n", err)
	}
	<-serveErr
	return 0
}
