// Command dcaserve is the simulation service: a long-running HTTP server
// that plans submitted cells into canonical jobs (internal/job), simulates
// them on a bounded worker pool, and caches every result by content digest
// (internal/job/store) — so identical cells, across requests and clients,
// are simulated exactly once. Concurrent identical submissions coalesce
// onto one in-flight simulation. For horizontal scale-out it also runs a
// lease-based job queue (internal/job/queue) that a cmd/dcaworker fleet
// drains, with every verified upload landing in the same store.
//
// API (see ARCHITECTURE.md's "Run layer" and "Distributed layer"):
//
//	POST /v1/jobs               one cell  {scheme, benchmark, clusters?, warmup, measure, params?}
//	POST /v1/grids              a batch   {schemes, benchmarks?, clusters?, warmup, measure, params?}
//	                            → NDJSON: per-cell progress events, then the full grid export
//	GET  /v1/results/{key}      a cached result by job digest
//	GET  /v1/catalog            valid schemes, benchmarks, cluster counts, defaults
//	POST /v1/queue              enqueue {spec: …} or {grid: …} for the worker fleet; returns keys.
//	                            Runs EXACTLY the cells submitted (unlike /v1/grids, which adds
//	                            the base pseudo-scheme for speed-up normalization)
//	GET  /v1/queue/stats        queue depth/inflight/retry counters
//	GET  /v1/watch?keys=k1,k2   NDJSON stream: "done"/"failed" per key as it settles
//	                            (worker uploads included), then a "complete" summary
//	POST /v1/leases             worker long-poll: lease a job batch
//	POST /v1/leases/{id}/complete  upload a verified result (or nack with an error)
//	POST /v1/leases/{id}/extend    heartbeat a long-running lease
//	GET  /healthz               liveness + cache and queue counters
//	GET  /metrics               Prometheus text exposition: store hit/miss/coalesced,
//	                            queue depth and lease churn, per-endpoint latency
//
// Admission control: -rate/-burst put a per-client token bucket (keyed by
// X-Client-ID, falling back to remote address) on the submission endpoints
// (/v1/jobs, /v1/grids, /v1/queue); -admit bounds how many /v1/jobs
// requests may wait on the simulation semaphore. Both shed excess load as
// 429 with a Retry-After header. The worker lease protocol is never
// throttled. Every request also emits one structured JSON access-log line.
//
// Usage:
//
//	dcaserve                          # in-memory LRU cache only, port 8080
//	dcaserve -addr :9000 -store ./res # persist results under ./res
//	dcaserve -cache 4096 -j 8         # bigger LRU, 8 grid workers
//	dcaserve -lease-ttl 2m -retries 5 # slow cells, patient queue
//	dcaserve -rate 50 -burst 100      # ≤50 req/s sustained per client
//	dcaserve -admit 32                # ≤32 jobs waiting beyond those running
//
//	curl -s localhost:8080/v1/jobs -d '{"scheme":"general","benchmark":"go","warmup":1000,"measure":10000}'
//	curl -s localhost:8080/v1/queue -d '{"grid":{"schemes":["general"],"warmup":1000,"measure":10000}}'
//
// SIGINT/SIGTERM drain gracefully: the listener closes, in-flight
// requests (including running simulations) get -drain to finish, and held
// leases need no release — the in-memory queue dies with the process
// while every completed result is already in the store.
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

	"repro/internal/job/queue"
	"repro/internal/job/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		diskDir  = flag.String("store", "", "persist results as JSON under this directory (empty = memory only)")
		cache    = flag.Int("cache", 1024, "in-memory LRU capacity in results (0 = unbounded)")
		jobs     = flag.Int("j", 0, "cells simulated in parallel per grid (0 = all cores)")
		leaseTTL = flag.Duration("lease-ttl", queue.DefaultLeaseTTL, "worker lease duration before a job requeues")
		retries  = flag.Int("retries", queue.DefaultMaxAttempts, "attempts per queued job before it parks as failed")
		drain    = flag.Duration("drain", 30*time.Second, "shutdown grace for in-flight requests")
		rate     = flag.Float64("rate", 0, "per-client request rate on submission endpoints, req/s (0 = unlimited)")
		burst    = flag.Int("burst", 0, "per-client burst above -rate (0 = 2×rate)")
		admit    = flag.Int("admit", 0, "max /v1/jobs requests waiting on the simulator beyond those running (0 = 4×parallelism)")
	)
	flag.Parse()

	var st store.Store = store.NewMemory(*cache)
	if *diskDir != "" {
		disk, err := store.NewDisk(*diskDir)
		if err != nil {
			fatal(err)
		}
		st = store.Tiered{Fast: st, Slow: disk}
		fmt.Printf("dcaserve: %d results on disk under %s\n", disk.Len(), *diskDir)
	}
	srv := newServer(st, nil, *jobs,
		queue.Options{LeaseTTL: *leaseTTL, MaxAttempts: *retries},
		limits{Rate: *rate, Burst: *burst, AdmitQueue: *admit})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dcaserve: listening on http://%s\n", ln.Addr())

	// Serve until a signal, then drain: Shutdown closes the listener and
	// waits for in-flight requests — a mid-simulation cell finishes and
	// its result reaches the store instead of dying with the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Handler: srv.handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
		stop() // a second signal kills immediately
		fmt.Printf("dcaserve: draining (up to %s)\n", *drain)
		// Wake long-polling /v1/leases first: Shutdown waits for in-flight
		// requests, and an idle worker's poll would otherwise hold the
		// drain open for its full wait.
		srv.queue.Close()
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			fatal(fmt.Errorf("drain: %w", err))
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
		fmt.Println("dcaserve: drained")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dcaserve:", err)
	os.Exit(1)
}
