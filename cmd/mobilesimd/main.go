// Command mobilesimd serves parameter sweeps over HTTP: a long-running
// frontend over the experiment Plan API with a process-wide content-
// addressed result cache, so repeated and overlapping sweeps from any
// number of clients cost one computation per distinct cell.
//
//	mobilesimd -addr :9070
//	mobilesimd -addr :9070 -cache /var/lib/mobilesim-cache -cache-bytes 268435456
//	mobilesimd -max-sweeps 8 -max-workers 16
//
// Endpoints:
//
//	POST /sweep    body: a PlanSpec JSON document (the JSON mirror of the
//	               Plan axis constructors — topologies/ns/ks/protocols/ps/
//	               adversaries/fs/engines/bandwidths/reps plus base_seed,
//	               max_rounds, workers). Streams one record per line
//	               (NDJSON) as cells finish; set "workers":1 for grid
//	               order. Cells already in the cache are served without
//	               recomputation. 400 on malformed or misnamed specs, 413
//	               past the body-size or cell cap, 429 when saturated
//	               (Retry-After: 1).
//	GET  /stats    cache hit/miss/eviction counters and hit rate, in-flight
//	               sweeps, worker usage, served records, and whole-sweep
//	               latency percentiles.
//	GET  /healthz  liveness.
//
// Admission control: at most -max-sweeps requests execute concurrently and
// their worker pools never exceed -max-workers in total; a request's
// requested (or defaulted) worker count is clamped to the free share of the
// budget. Disconnecting a client cancels its sweep through the Plan's
// context plumbing — in-flight cells drain, nothing leaks.
//
// Results are cached content-addressed by (cell label, seed, engine, code
// version), so a rebuilt binary never serves stale records; with -cache the
// entries also persist to an append-only JSONL file shared with
// `mobilesim -sweep -cache`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	mc "mobilecongest"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Connection timeouts. Without readHeaderTimeout a client that never
// finishes its request headers holds a connection forever; idleTimeout
// closes keep-alive connections left unused between requests. There is
// deliberately no write timeout: a sweep streams records for as long as it
// runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

// newHTTPServer builds the listening server for h on addr.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// run is the testable entry point: it parses args, serves until SIGINT or
// SIGTERM, and writes to the given streams instead of the process globals.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mobilesimd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":9070", "listen address")
	cacheDir := fs.String("cache", "", "persist the result cache to this directory (JSONL disk tier; empty = memory only)")
	cacheBytes := fs.Int64("cache-bytes", 256<<20, "in-memory result cache budget in bytes (0 = unbounded)")
	maxSweeps := fs.Int("max-sweeps", 4, "concurrently executing sweep requests before 429")
	maxWorkers := fs.Int("max-workers", 0, "total worker goroutines across all sweeps (0 = GOMAXPROCS)")
	maxCells := fs.Int("max-cells", 1<<20, "largest accepted per-request cell expansion")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var cache *mc.ResultCache
	var err error
	if *cacheDir != "" {
		cache, err = mc.OpenResultCache(*cacheBytes, *cacheDir)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer cache.Close()
	} else {
		cache = mc.NewResultCache(*cacheBytes)
	}

	srv := newServer(serverConfig{
		cache:      cache,
		maxSweeps:  *maxSweeps,
		maxWorkers: *maxWorkers,
		maxCells:   *maxCells,
	})
	httpSrv := newHTTPServer(*addr, srv.handler())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(stdout, "mobilesimd serving on %s (cache version %s)\n", *addr, cache.Version())

	select {
	case err := <-errc:
		fmt.Fprintln(stderr, err)
		return 1
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	s := cache.Stats()
	fmt.Fprintf(stdout, "mobilesimd stopped: %d hits, %d misses, %d entries cached\n", s.Hits, s.Misses, s.Entries)
	return 0
}
