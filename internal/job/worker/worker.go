// Package worker is the pull side of the distributed run layer: a fleet
// of loops that drain a dcaserve job queue over HTTP. Each loop leases a
// batch (long-polling the server), simulates every job through a
// job.Runner, uploads each verified result under its lease, and
// heartbeat-extends leases that outlive their TTL. An empty queue backs
// the loop off with jittered sleeps; a cancelled context drains cleanly —
// in-flight jobs finish and upload before Run returns. cmd/dcaworker is
// the thin flag-and-signal wrapper around this package.
package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/job"
	"repro/internal/job/queue"
	"repro/internal/stats"
)

// Options configures a worker fleet.
type Options struct {
	// Server is the dcaserve base URL, e.g. "http://host:8080". Required.
	Server string
	// Loops is the number of concurrent pull loops; 0 means GOMAXPROCS.
	// Each loop holds at most MaxJobs leases at a time, so Loops bounds
	// the worker's simulation parallelism.
	Loops int
	// MaxJobs is the lease batch size per poll; 0 means 1. Batches above 1
	// amortize polling on tiny jobs but hold leases longer — the loop
	// heartbeats them while it works through the batch.
	MaxJobs int
	// Wait is the server-side long-poll budget per lease request; 0 means
	// 10s.
	Wait time.Duration
	// Runner executes leased jobs; nil means job.Direct{}. Tests inject
	// failing or slow runners here.
	Runner job.Runner
	// Client is the HTTP client; nil means a client with a timeout
	// comfortably above Wait.
	Client *http.Client
	// MaxBackoff caps the jittered sleep after an empty poll or a server
	// error; 0 means 5s. The first backoff is ~100ms and doubles per
	// consecutive empty round, so a busy queue is polled eagerly and an
	// idle one gently.
	MaxBackoff time.Duration
	// Logf, when non-nil, receives one line per notable event (lease
	// errors, nacks, lost leases). nil discards them.
	Logf func(format string, args ...any)
	// ClientID, when non-empty, is sent as the X-Client-ID header on every
	// request, so the server's access logs and per-client rate limits
	// attribute this worker's traffic by name rather than by address.
	ClientID string
}

// Metrics counts a fleet's work across all loops.
type Metrics struct {
	// Completed counts successful uploads; Failed counts jobs whose
	// simulation errored or panicked (reported to the server as nacks);
	// Lost counts uploads or heartbeats the server refused because the
	// lease had expired (the job requeued; another worker owns it now).
	Completed uint64
	Failed    uint64
	Lost      uint64
	// Leases counts lease-request rounds that returned at least one job;
	// EmptyPolls counts rounds that returned none.
	Leases     uint64
	EmptyPolls uint64
}

// Fleet runs Options.Loops pull loops against one server.
type Fleet struct {
	opts Options

	completed  atomic.Uint64
	failed     atomic.Uint64
	lost       atomic.Uint64
	leases     atomic.Uint64
	emptyPolls atomic.Uint64
}

// New validates opts and returns a fleet ready to Run.
func New(opts Options) (*Fleet, error) {
	if opts.Server == "" {
		return nil, fmt.Errorf("worker: Options.Server is required")
	}
	if opts.Loops <= 0 {
		opts.Loops = runtime.GOMAXPROCS(0)
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 1
	}
	if opts.Wait <= 0 {
		opts.Wait = 10 * time.Second
	}
	if opts.Runner == nil {
		opts.Runner = job.Direct{}
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 5 * time.Second
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: opts.Wait + 30*time.Second}
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return &Fleet{opts: opts}, nil
}

// Metrics returns the fleet's counters so far.
func (f *Fleet) Metrics() Metrics {
	return Metrics{
		Completed:  f.completed.Load(),
		Failed:     f.failed.Load(),
		Lost:       f.lost.Load(),
		Leases:     f.leases.Load(),
		EmptyPolls: f.emptyPolls.Load(),
	}
}

// Run drives the pull loops until ctx is cancelled, then drains: no new
// leases are requested, in-flight jobs finish simulating, and their
// results upload (uploads use a fresh short-deadline context, so a
// SIGTERM never strands completed work). Run returns nil on a clean
// drain.
func (f *Fleet) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	wg.Add(f.opts.Loops)
	for i := 0; i < f.opts.Loops; i++ {
		go func(loop int) {
			defer wg.Done()
			f.runLoop(ctx, loop)
		}(i)
	}
	wg.Wait()
	return nil
}

// runLoop is one pull loop: lease, work the batch, back off when idle.
func (f *Fleet) runLoop(ctx context.Context, loop int) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano() + int64(loop)))
	backoff := 100 * time.Millisecond
	for ctx.Err() == nil {
		leases, ttlMS, err := f.lease(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			f.opts.Logf("worker[%d]: lease: %v", loop, err)
			if !f.sleep(ctx, jitter(rng, backoff)) {
				return
			}
			backoff = min(backoff*2, f.opts.MaxBackoff)
			continue
		}
		if len(leases) == 0 {
			f.emptyPolls.Add(1)
			// The server already long-polled for Wait; the extra jittered
			// sleep keeps an idle fleet from polling in lockstep.
			if !f.sleep(ctx, jitter(rng, backoff)) {
				return
			}
			backoff = min(backoff*2, f.opts.MaxBackoff)
			continue
		}
		backoff = 100 * time.Millisecond
		f.leases.Add(1)
		// Heartbeat EVERY lease in the batch from the moment it arrives:
		// jobs queued behind the one currently simulating would otherwise
		// sit un-extended and lapse (requeuing work we still intend to
		// do). Each heartbeat stops as its job settles; they keep running
		// through a drain, since the leases are still ours. Beats fire at
		// a third of the TTL — the server-reported duration, NOT
		// time-until-Deadline, whose absolute value is garbage when the
		// worker's clock is skewed from the server's — so two can be
		// lost before a lease lapses.
		interval := time.Duration(ttlMS) * time.Millisecond / 3
		cancels := make([]context.CancelFunc, len(leases))
		for i, l := range leases {
			iv := interval
			if iv <= 0 {
				// Server predating lease_ttl_ms: fall back to the
				// deadline, best-effort under clock skew.
				iv = time.Until(l.Deadline) / 3
			}
			hbCtx, cancel := context.WithCancel(context.Background())
			cancels[i] = cancel
			go f.heartbeat(hbCtx, l, iv)
		}
		for i, l := range leases {
			// Finish the whole batch even when ctx is cancelled: these
			// leases are held, and draining means completing them.
			f.work(ctx, loop, l)
			cancels[i]()
		}
	}
}

// work simulates one leased job and settles its lease (the caller keeps
// the lease heartbeating until work returns). A simulation that errors or
// panics is nacked, and the loop goes on.
func (f *Fleet) work(ctx context.Context, loop int, l queue.Lease) {
	// The simulation itself is not interruptible (and a drain must finish
	// it anyway), so it runs detached from ctx.
	r, err := job.RunRecovered(context.WithoutCancel(ctx), f.opts.Runner, l.Job)
	if err != nil {
		f.failed.Add(1)
		f.opts.Logf("worker[%d]: %s/%s: %v", loop, l.Job.Scheme, l.Job.Benchmark, err)
		f.nack(l, err.Error())
		return
	}
	if err := f.complete(l, r); err != nil {
		f.lost.Add(1)
		f.opts.Logf("worker[%d]: complete %s: %v", loop, l.Key, err)
		return
	}
	f.completed.Add(1)
}

// heartbeat extends l every interval until stopped. A single failed beat
// is tolerated (the TTL/3 cadence leaves two spares) — transient network
// errors and server stalls must not strand a long simulation; only
// consecutive failures, by which point the lease is almost certainly
// reclaimed, end the loop.
func (f *Fleet) heartbeat(ctx context.Context, l queue.Lease, interval time.Duration) {
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	failures := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := f.extend(l); err != nil {
				failures++
				f.opts.Logf("worker: heartbeat %s (failure %d): %v", l.ID, failures, err)
				if failures >= 2 {
					return
				}
				continue
			}
			failures = 0
		}
	}
}

// sleep waits d or until ctx is done; false means cancelled.
func (f *Fleet) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// jitter spreads d to [d/2, d): decorrelates loops that went idle
// together.
func jitter(rng *rand.Rand, d time.Duration) time.Duration {
	return d/2 + time.Duration(rng.Int63n(int64(d/2)))
}

// The wire types are queue.LeaseRequest/LeaseResponse/CompleteRequest,
// shared with the queue package so the contract cannot drift.

// lease long-polls the server for a batch, also returning the server's
// lease TTL in milliseconds (the heartbeat budget).
func (f *Fleet) lease(ctx context.Context) ([]queue.Lease, int64, error) {
	var resp queue.LeaseResponse
	err := f.post(ctx, "/v1/leases",
		queue.LeaseRequest{MaxJobs: f.opts.MaxJobs, WaitMS: f.opts.Wait.Milliseconds()}, &resp)
	if err != nil {
		return nil, 0, err
	}
	return resp.Leases, resp.LeaseTTLMS, nil
}

// complete uploads a result under its lease. Settling a held lease must
// survive a drain, so it runs on its own deadline, not the loop context.
func (f *Fleet) complete(l queue.Lease, r *stats.Run) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return f.post(ctx, "/v1/leases/"+l.ID+"/complete",
		queue.CompleteRequest{Key: l.Key, Result: r, ResultDigest: job.ResultDigest(r)}, nil)
}

// nack reports a failed attempt so the server can requeue promptly.
func (f *Fleet) nack(l queue.Lease, reason string) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.post(ctx, "/v1/leases/"+l.ID+"/complete",
		queue.CompleteRequest{Key: l.Key, Error: reason}, nil); err != nil {
		f.opts.Logf("worker: nack %s: %v", l.ID, err)
	}
}

// extend heartbeats a lease.
func (f *Fleet) extend(l queue.Lease) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return f.post(ctx, "/v1/leases/"+l.ID+"/extend", struct{}{}, nil)
}

// post is the one HTTP call site: JSON request in, JSON response out,
// non-2xx mapped to an error carrying the server's error text.
func (f *Fleet) post(ctx context.Context, path string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("worker: encode %s: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.opts.Server+path, bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if f.opts.ClientID != "" {
		req.Header.Set("X-Client-ID", f.opts.ClientID)
	}
	resp, err := f.opts.Client.Do(req)
	if err != nil {
		return fmt.Errorf("worker: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var er struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&er)
		if er.Error == "" {
			er.Error = resp.Status
		}
		return fmt.Errorf("worker: %s: %s", path, er.Error)
	}
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("worker: decode %s: %w", path, err)
	}
	return nil
}
