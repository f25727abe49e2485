// Command dcaworker is a simulation worker: it drains a dcaserve job
// queue over HTTP. Each of its pull loops long-polls POST /v1/leases for
// a batch of planned jobs, simulates them in-process (the same
// job.Direct executor dcaserve uses, so results are bit-identical no
// matter which machine ran them), uploads each result with its digest for
// server-side verification, and heartbeats leases that outlive their TTL.
// An empty queue backs the loops off with jittered sleeps; SIGINT/SIGTERM
// drain cleanly — in-flight jobs finish simulating and upload before the
// process exits, so no leased work is lost.
//
// Run as many dcaworker processes on as many machines as the grid needs;
// the queue deduplicates by job digest, so a fleet never simulates the
// same cell twice.
//
// Usage:
//
//	dcaworker -server http://localhost:8080             # all cores
//	dcaworker -server http://host:8080 -n 4 -batch 2    # 4 loops, 2 jobs per lease
//	dcaworker -server http://host:8080 -v               # log per-job events
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/job/worker"
)

func main() {
	var (
		server  = flag.String("server", "http://localhost:8080", "dcaserve base URL")
		loops   = flag.Int("n", 0, "concurrent pull loops (0 = all cores)")
		batch   = flag.Int("batch", 1, "jobs leased per poll")
		wait    = flag.Duration("wait", 10*time.Second, "server-side long-poll budget per lease request")
		backoff = flag.Duration("backoff", 5*time.Second, "max jittered sleep after an empty poll or server error")
		id      = flag.String("id", "", "client ID sent as X-Client-ID (names this worker in server logs and rate limits)")
		verbose = flag.Bool("v", false, "log per-job events")
	)
	flag.Parse()

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	f, err := worker.New(worker.Options{
		Server:     *server,
		Loops:      *loops,
		MaxJobs:    *batch,
		Wait:       *wait,
		MaxBackoff: *backoff,
		Logf:       logf,
		ClientID:   *id,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcaworker:", err)
		os.Exit(1)
	}

	// First signal drains (loops stop leasing, in-flight jobs finish and
	// upload); a second one kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("dcaworker: polling %s\n", *server)
	if err := f.Run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "dcaworker:", err)
		os.Exit(1)
	}
	m := f.Metrics()
	fmt.Printf("dcaworker: drained (%d completed, %d failed, %d lost leases)\n",
		m.Completed, m.Failed, m.Lost)
}
