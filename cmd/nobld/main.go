// Command nobld is the network-oblivious analysis daemon: a long-running
// HTTP service answering analysis queries over the algorithm registry —
// closed-form bounds synchronously, simulation-backed measurements
// through a priority job queue with a bounded worker pool, per-job
// cancellation/timeout, SSE progress streaming, and process-lifetime LRU
// caches with single-flight dedup.  A computation in those caches lives
// while any job or request waits for it: cancelling one job ends that
// job at once and leaves a shared run to the others.
//
// Endpoints:
//
//	POST   /v1/analyze          one analysis request (see internal/service.Request)
//	POST   /v1/analyze/batch    many requests in one call
//	GET    /v1/jobs/{id}        job status, event log, terminal response
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/events SSE progress stream
//	GET    /v1/algorithms       algorithm registry, analysis kinds, and the
//	                            topology families + routing strategies a
//	                            kind "network" request may select (its
//	                            topology/strategy/seed fields)
//	GET    /v1/cluster          cluster membership, per-peer health,
//	                            ?key= ownership lookup
//	GET    /metrics             counters (Prometheus text; ?format=json)
//	GET    /healthz             liveness + build/runtime identity
//
// Usage:
//
//	nobld -addr :7413 -workers 4 -cache-entries 512 -trace-entries 64 \
//	      -queue 1024 -timeout 2m \
//	      -log-level info -log-format text -log-sample 1 \
//	      -pprof-addr localhost:6060
//
// -cache-entries bounds the result cache of analysis documents.
// -trace-entries bounds the trace cache, which keeps one entry of a few
// KB per (algorithm, n): the fold summary the trace and dbsp kinds read
// and the miss curve the cache kind reads, both from one recorded run.
//
// Every run uses the block engine; there is no engine to choose.  Result
// documents, /healthz, /v1/cluster and /v1/algorithms name it in their
// "engine" field, and a request's "engine" field is accepted and
// ignored.
//
// # Cluster mode
//
// With -peers, the daemon becomes one node of a sharded fleet:
//
//	nobld -addr :7421 -self http://hostA:7421 \
//	      -peers http://hostA:7421,http://hostB:7422,http://hostC:7423
//
// The request key space is partitioned across the peers by a seeded
// consistent-hash ring, and the routing is oblivious in the paper's
// sense: which node owns a request depends only on the request key and
// the static (seed, vnodes, peers) configuration — never on load,
// history or a coordinator — so every node computes the same placement
// independently, the way a network-oblivious algorithm commits to its
// communication pattern without knowing the machine.  The trace, dbsp
// and cache kinds of one (algorithm, n) are placed by that pair, so they
// share one owner and its trace-cache entry.  Any node accepts
// any request; non-owned keys are transparently forwarded to the owning
// shard (one hop, loop-free) under the request's X-Request-ID, through
// the entry node's result cache (-cache-entries): concurrent requests
// for one key share one forward, and a completed document stays, so a
// repeat stops costing a network hop.  Forwards from several entry
// nodes coalesce at the owner, so every trace is computed exactly once
// cluster-wide.  Forwarded requests are
// answered synchronously with the document itself; job IDs remain
// node-local and never leak across nodes.  -ring-seed and -ring-vnodes
// must match across the fleet.
//
// With -route the daemon is instead a stateless router — no caches, no
// workers used, every asynchronous request forwarded to its owner:
//
//	nobld -addr :7420 -route -peers http://hostA:7421,http://hostB:7422
//
// Admission control: -admit-queue sheds enqueues beyond the high-water
// mark with HTTP 429 and a Retry-After derived from observed queue
// waits (the hard -queue bound still answers 503); -max-forwards bounds
// concurrent in-flight forwards the same way.  The bundled
// service.Client honors Retry-After with capped exponential backoff.
//
// Observability: every request is assigned (or inherits, via the
// X-Request-ID header) a correlation ID that appears on the response,
// in the access and job log lines, in job records and SSE events.
// Structured logs go to stderr (-log-format json|text, -log-level,
// -log-sample N to keep every Nth access line).  -pprof-addr serves
// net/http/pprof on a separate listener, off by default so profiling
// is never exposed on the API address.
//
// SIGINT/SIGTERM drain gracefully: the listener stops, running jobs are
// cancelled, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"netoblivious/internal/obs"
	"netoblivious/internal/service"
)

func main() {
	addr := flag.String("addr", ":7413", "listen address")
	workers := flag.Int("workers", 0, "job worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 1024, "max queued jobs before 503")
	cacheEntries := flag.Int("cache-entries", 512, "result cache LRU capacity (-1 = unbounded)")
	traceEntries := flag.Int("trace-entries", 64, "trace cache LRU capacity in (algorithm, n) entries of a few KB each: fold summary and miss curve (-1 = unbounded)")
	timeout := flag.Duration("timeout", 2*time.Minute, "per-job execution timeout")
	logLevel := flag.String("log-level", "info", "log level: debug|info|warn|error")
	logFormat := flag.String("log-format", "text", "log format: text|json")
	logSample := flag.Int("log-sample", 1, "emit one access-log line per N requests")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	peers := flag.String("peers", "", "comma-separated base URLs of every cluster node (empty = single-node)")
	self := flag.String("self", "", "this node's advertised base URL; must be one of -peers")
	route := flag.Bool("route", false, "stateless router mode: own no shard, forward everything to -peers")
	ringVNodes := flag.Int("ring-vnodes", 0, "virtual nodes per ring member (0 = default; must match across the fleet)")
	ringSeed := flag.Uint64("ring-seed", 0, "consistent-hash placement seed (must match across the fleet)")
	maxForwards := flag.Int("max-forwards", 0, "max concurrent in-flight forwards before shedding 429 (0 = default 256)")
	admitQueue := flag.Int("admit-queue", 0, "queue-depth high-water mark: shed enqueues beyond it with 429 + Retry-After (0 = disabled)")
	healthInterval := flag.Duration("health-interval", 0, "peer health probe cadence (0 = default 2s)")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nobld: %v\n", err)
		os.Exit(2)
	}
	cfg := service.Config{
		Workers:        *workers,
		QueueLimit:     *queue,
		CacheEntries:   *cacheEntries,
		TraceEntries:   *traceEntries,
		JobTimeout:     *timeout,
		Logger:         logger,
		LogSample:      *logSample,
		AdmitQueueHigh: *admitQueue,
	}
	if *peers != "" || *route {
		cfg.Cluster = &service.ClusterConfig{
			Self:           *self,
			Peers:          strings.Split(*peers, ","),
			RouteOnly:      *route,
			VNodes:         *ringVNodes,
			Seed:           *ringSeed,
			MaxForwards:    *maxForwards,
			HealthInterval: *healthInterval,
		}
	}
	srv, err := service.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nobld: %v\n", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *pprofAddr != "" {
		// pprof gets its own mux on its own listener: the API address
		// must never expose profiling handlers.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			psrv := &http.Server{Addr: *pprofAddr, Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof server", "error", err.Error())
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	mode := "single"
	switch {
	case *route:
		mode = "router"
	case *peers != "":
		mode = "node"
	}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("nobld listening",
			"addr", *addr,
			"version", obs.BuildVersion(),
			"mode", mode,
			"workers", *workers,
			"cache", *cacheEntries,
			"traces", *traceEntries,
			"queue", *queue,
			"timeout", timeout.String())
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case <-ctx.Done():
		logger.Info("nobld shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("shutdown", "error", err.Error())
		}
		srv.Close()
		logger.Info("nobld bye")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			srv.Close()
			logger.Error("serve", "error", err.Error())
			os.Exit(1)
		}
	}
}
